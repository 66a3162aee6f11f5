//! Failover chaos soak: a primary on a fault-injected `SimDisk` drives a
//! generated workload while two replicas (on their own disks) tail it
//! over the shipping protocol. Each round the primary crashes — either a
//! torn tail from an exhausted write budget or a clean stop at an
//! arbitrary operation — one replica catches up from the surviving image
//! and is promoted, and the promoted state must equal what an
//! independent recovery of a pristine copy of the crashed image yields.
//! The resurrected old primary is then fenced by term, and an injected
//! conflicting frame must surface as a divergence report, never a silent
//! overwrite. `FDB_REPL_ROUNDS` scales the soak (default 10).
//!
//! Every test installs the flight recorder's panic hook first, so a
//! failing round under `FDB_FLIGHT_DIR` leaves a `flight-*.json` behind.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::wal::LogRecord;
use fdb::core::{
    Database, DurabilityConfig, LoggedDatabase, SimDisk, SyncPolicy, Update, WalStorage,
};
use fdb::repl::{ApplyOutcome, Batch, DivergenceKind, Replica, ReplicationSource, ShippedFrame};
use fdb::types::{Derivation, Functionality, Schema, Step, Value};
use fdb::workload::{update_stream, UpdateStreamConfig};

const PRIMARY: &str = "/primary";

fn v(s: &str) -> Value {
    Value::atom(s)
}

fn rounds() -> u64 {
    std::env::var("FDB_REPL_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

/// The pupil triangle, as a plain database for stream generation.
fn triangle() -> Database {
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .function("pupil", "faculty", "student", "many-many")
        .build()
        .expect("schema");
    let mut db = Database::new(schema);
    let (t, c, p) = (
        db.resolve("teach").expect("teach"),
        db.resolve("class_list").expect("class_list"),
        db.resolve("pupil").expect("pupil"),
    );
    db.register_derived(
        p,
        vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).expect("derivation")],
    )
    .expect("register");
    db
}

/// Drives schema setup plus `stream` (up to `stop_at` updates) through a
/// fresh primary on `disk`, calling `tick` after each durable write.
/// Returns early once the disk's write budget trips; semantic update
/// failures are skipped, exactly as they are unlogged.
fn drive(
    disk: &Arc<SimDisk>,
    config: DurabilityConfig,
    stream: &[Update],
    stop_at: usize,
    mut tick: impl FnMut(&LoggedDatabase),
) {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut p = match LoggedDatabase::create_with(storage, PRIMARY, config) {
        Ok(p) => p,
        Err(_) => {
            assert!(disk.crashed(), "create failed without a crash");
            return;
        }
    };
    for (name, dom, rng) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("pupil", "faculty", "student"),
    ] {
        if p.declare(name, dom, rng, Functionality::ManyMany).is_err() {
            assert!(disk.crashed(), "declare failed without a crash");
            return;
        }
        tick(&p);
    }
    if p.derive("pupil", &[("teach", false), ("class_list", false)])
        .is_err()
    {
        assert!(disk.crashed(), "derive failed without a crash");
        return;
    }
    tick(&p);
    for update in stream.iter().take(stop_at) {
        match p.apply_update(update) {
            Ok(()) => tick(&p),
            Err(_) if disk.crashed() => return,
            Err(_) => {} // semantic failure: unlogged, state unchanged
        }
    }
}

/// Ships up to `max` records from a WAL directory to `replica`; panics on
/// any outcome other than clean application.
fn ship(storage: Arc<dyn WalStorage>, dir: &str, replica: &mut Replica, max: usize) {
    let mut source = ReplicationSource::new(storage, dir).expect("source");
    let batch = source.poll(replica.next_seq(), max).expect("poll");
    if batch.is_empty() {
        return;
    }
    match replica.apply_batch(&batch).expect("apply") {
        ApplyOutcome::Applied { .. } => {}
        other => panic!("healthy ship hit {other:?}"),
    }
}

/// Ships everything the directory has, in bounded batches, until dry.
fn ship_all(storage: &Arc<dyn WalStorage>, dir: &str, replica: &mut Replica) {
    loop {
        let mut source = ReplicationSource::new(storage.clone(), dir).expect("source");
        let batch = source.poll(replica.next_seq(), 64).expect("poll");
        if batch.is_empty() {
            break;
        }
        match replica.apply_batch(&batch).expect("apply") {
            ApplyOutcome::Applied { .. } => {}
            other => panic!("catch-up hit {other:?}"),
        }
    }
}

/// Copies every file under `dir` to a fresh disk, byte for byte — the
/// pristine crashed image an independent recovery (the oracle) runs on.
fn clone_image(disk: &SimDisk, dir: &str) -> Arc<SimDisk> {
    let copy = Arc::new(SimDisk::new());
    copy.create_dir_all(Path::new(dir)).expect("mkdir");
    let mut paths: Vec<PathBuf> = disk
        .paths()
        .into_iter()
        .filter(|p| p.starts_with(dir))
        .collect();
    paths.sort();
    for p in paths {
        let bytes = disk.read(&p).expect("read image file");
        let mut f = copy.create(&p).expect("create copy");
        f.append(&bytes).expect("copy bytes");
    }
    copy
}

fn run_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = update_stream(
        &triangle(),
        UpdateStreamConfig {
            length: 120,
            domain_size: 6,
            derived_pct: 30,
            delete_pct: 40,
            seed,
        },
    );
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::Always,
        // Half the rounds checkpoint aggressively, so catch-up crosses
        // pruned segments and the seed-install path; small segments force
        // rotation under shipping.
        checkpoint_every: if rng.gen_bool(0.5) { Some(24) } else { None },
        segment_max_bytes: 1024,
    };

    // Dry run to learn the full image size, so a torn crash can land at
    // an arbitrary byte inside the run.
    let probe = Arc::new(SimDisk::new());
    drive(&probe, config, &stream, usize::MAX, |_| {});
    let full = probe.total_written();
    assert!(full > 0, "dry run wrote nothing");

    let disk_p = Arc::new(SimDisk::new());
    let torn = rng.gen_bool(0.5);
    let stop_at = if torn {
        disk_p.set_write_budget(Some(rng.gen_range(full / 4..full)));
        usize::MAX
    } else {
        rng.gen_range(stream.len() / 4..stream.len())
    };

    // Replicas live on their own disks: shipping reads the primary's
    // storage, the local copy lands on the replica's own device.
    let disk_r1 = Arc::new(SimDisk::new());
    let disk_r2 = Arc::new(SimDisk::new());
    let mut r1 = Replica::open(disk_r1.clone() as Arc<dyn WalStorage>, "/r1").expect("open r1");
    let mut r2 = Replica::open(disk_r2.clone() as Arc<dyn WalStorage>, "/r2").expect("open r2");

    let mut tick_rng = StdRng::seed_from_u64(seed ^ 0x7157);
    drive(&disk_p, config, &stream, stop_at, |_| {
        // r1 tails closely, r2 lags (and so exercises bigger catch-ups
        // and, under checkpointing, the seed path).
        if tick_rng.gen_bool(0.4) {
            let max = tick_rng.gen_range(1..8);
            ship(disk_p.clone(), PRIMARY, &mut r1, max);
        }
        if tick_rng.gen_bool(0.1) {
            ship(disk_p.clone(), PRIMARY, &mut r2, 4);
        }
        if tick_rng.gen_bool(0.05) {
            // Replica crash: drop the handle mid-stream and recover from
            // its own local WAL. Catch-up must be invisible.
            let before = r1.next_seq();
            drop(std::mem::replace(
                &mut r1,
                Replica::open(disk_r1.clone() as Arc<dyn WalStorage>, "/r1")
                    .expect("reopen r1 after crash"),
            ));
            assert_eq!(r1.next_seq(), before, "replica restart lost frames");
        }
    });
    disk_p.revive();

    // Oracle: recover a pristine copy of the crashed image. (Recovery
    // mutates the log — closes dangling frames, truncates torn tails —
    // so the original stays untouched for shipping and resurrection.)
    let storage_p: Arc<dyn WalStorage> = disk_p.clone();
    let oracle_disk = clone_image(&disk_p, PRIMARY);
    let (oracle, oracle_report) =
        LoggedDatabase::open_with(oracle_disk as Arc<dyn WalStorage>, PRIMARY, config)
            .expect("oracle recovery");
    assert!(
        oracle.database().is_consistent(),
        "oracle inconsistent (seed {seed})"
    );
    let want = oracle.database().to_snapshot().expect("oracle snapshot");

    // Failover: r1 catches up from the surviving image, then promotes.
    ship_all(&storage_p, PRIMARY, &mut r1);
    let promo = r1.promote().expect("promotion");
    assert_eq!(promo.logged.term(), 2, "promotion must open term 2");
    assert_eq!(
        promo.report.uncommitted_discarded, oracle_report.uncommitted_discarded,
        "promotion and oracle disagree on the dangling frame (seed {seed})"
    );
    let got = promo
        .logged
        .database()
        .to_snapshot()
        .expect("promoted snapshot");
    assert_eq!(
        got, want,
        "promoted replica diverged from the oracle (seed {seed}, torn {torn})"
    );

    // Split brain: the old primary comes back on term 1 and takes a
    // write. A replica following the promoted primary (term 2) must
    // fence its batches — by term, before any frame is even looked at.
    let (mut old, _) = LoggedDatabase::open_with(storage_p.clone(), PRIMARY, config)
        .expect("resurrect old primary");
    assert_eq!(old.term(), 1);
    old.insert("teach", v("zombie"), v("split_brain"))
        .expect("old primary still accepts writes");

    let storage_r1: Arc<dyn WalStorage> = disk_r1.clone();
    ship_all(&storage_r1, "/r1", &mut r2);
    assert_eq!(r2.term(), 2, "r2 must adopt the promoted term");
    let mut old_source = ReplicationSource::for_primary(&old);
    let stale = old_source.poll(1, 16).expect("poll old primary");
    match r2.apply_batch(&stale).expect("fence check") {
        ApplyOutcome::Fenced {
            batch_term,
            replica_term,
        } => {
            assert_eq!((batch_term, replica_term), (1, 2), "seed {seed}");
        }
        other => panic!("resurrected primary was not fenced: {other:?} (seed {seed})"),
    }

    // Divergence: a CRC-valid frame that disagrees with the local copy at
    // an already-stored position must quarantine and freeze — never
    // silently overwrite.
    let evil_seq = r2.next_seq() - 1;
    let evil = ShippedFrame::for_record(
        evil_seq,
        &LogRecord::Insert {
            function: "teach".to_owned(),
            x: v("evil"),
            y: v("rewrite"),
        },
    )
    .expect("forge frame");
    let forged = Batch {
        term: r2.term(),
        seed: None,
        frames: vec![evil],
        source_last_seq: evil_seq,
        remaining_records: 0,
        remaining_bytes: 0,
        trace_id: 0,
    };
    match r2.apply_batch(&forged).expect("divergence check") {
        ApplyOutcome::Diverged(report) => {
            assert_eq!(report.seq, evil_seq);
            assert_eq!(report.kind, DivergenceKind::PayloadMismatch);
            assert!(
                disk_r2.is_file(&report.quarantine),
                "quarantine file missing: {report:?}"
            );
        }
        other => panic!("conflicting frame not detected: {other:?} (seed {seed})"),
    }
    assert!(r2.status().diverged);
    assert!(
        r2.promote().is_err(),
        "a diverged replica must refuse promotion (seed {seed})"
    );
}

#[test]
fn failover_soak() {
    fdb::obs::flight::install_panic_hook();
    fdb::obs::set_enabled(true);
    for round in 0..rounds() {
        run_round(0xF417_0000 + round);
    }
}

/// A primary that crashes inside a transaction: the promoted survivor
/// discards the dangling frame, the discard is visible in the recovery
/// report, in the metrics registry, and in the operator-facing
/// `STATS JSON` output.
#[test]
fn promotion_discards_dangling_txn_and_reports_it() {
    fdb::obs::flight::install_panic_hook();
    fdb::obs::set_enabled(true);
    let disk = Arc::new(SimDisk::new());
    let mut p = LoggedDatabase::create_with(
        disk.clone() as Arc<dyn WalStorage>,
        "/p",
        DurabilityConfig::default(),
    )
    .expect("create primary");
    p.declare("teach", "faculty", "course", Functionality::ManyMany)
        .expect("declare");
    p.insert("teach", v("euclid"), v("math")).expect("insert");
    p.begin().expect("begin");
    p.insert("teach", v("doomed"), v("uncommitted"))
        .expect("insert in txn");
    // The primary "crashes" here: both frames are durable, the commit
    // marker never arrives.

    let rdisk = Arc::new(SimDisk::new());
    let mut r = Replica::open(rdisk as Arc<dyn WalStorage>, "/r").expect("open replica");
    ship_all(&(disk as Arc<dyn WalStorage>), "/p", &mut r);

    let reg = fdb::obs::registry();
    let before = reg.recovery_uncommitted_discarded.get();
    let promo = r.promote().expect("promotion");
    assert!(
        promo.report.uncommitted_discarded > 0,
        "dangling frame not counted: {:?}",
        promo.report
    );
    assert!(
        reg.recovery_uncommitted_discarded.get() - before
            >= promo.report.uncommitted_discarded as u64,
        "metrics registry missed the discard"
    );
    let db = promo.logged.database();
    let teach = db.store().table(db.resolve("teach").expect("teach"));
    assert!(
        teach.contains(&v("euclid"), &v("math")),
        "committed fact lost"
    );
    assert!(
        !teach.contains(&v("doomed"), &v("uncommitted")),
        "uncommitted fact survived"
    );

    // The counter is part of the STATS JSON surface.
    let mut engine = fdb::lang::Engine::new();
    let out = engine.execute_line("STATS JSON").expect("stats json");
    assert!(
        out.contains("fdb.recovery.uncommitted_discarded"),
        "STATS JSON lacks the discard counter: {out}"
    );
}

/// A replica that freezes on a forged frame must leave a flight dump
/// behind — written by the quarantine path itself — naming the
/// divergence and carrying the causal `fdb.repl.apply` span that was
/// mid-flight when the histories disagreed.
#[test]
fn divergence_writes_flight_dump_with_causal_spans() {
    fdb::obs::flight::install_panic_hook();
    fdb::obs::set_enabled(true);
    fdb::obs::causal::set_tracing(true);
    fdb::obs::causal::set_sample_rate(1);

    let dump_dir = std::env::temp_dir().join(format!("fdb-flight-repl-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).unwrap();
    // Re-armed with CI's `FDB_FLIGHT_DIR` (if any) at the end, so the
    // other tests of this binary still dump where CI collects.
    let armed = fdb::obs::flight::dump_dir();
    fdb::obs::flight::set_dump_dir(Some(dump_dir.clone()));

    let disk = Arc::new(SimDisk::new());
    let mut p = LoggedDatabase::create_with(
        disk.clone() as Arc<dyn WalStorage>,
        "/p_flight",
        DurabilityConfig::default(),
    )
    .expect("create primary");
    p.declare("teach", "faculty", "course", Functionality::ManyMany)
        .expect("declare");
    p.insert("teach", v("euclid"), v("math")).expect("insert");

    let rdisk = Arc::new(SimDisk::new());
    let mut r =
        Replica::open(rdisk.clone() as Arc<dyn WalStorage>, "/r_flight").expect("open replica");
    let mut src = ReplicationSource::for_primary(&p);
    let batch = src.poll(1, 100).expect("poll");
    r.apply_batch(&batch).expect("apply");

    let evil_seq = r.next_seq() - 1;
    let evil = ShippedFrame::for_record(
        evil_seq,
        &LogRecord::Insert {
            function: "teach".to_owned(),
            x: v("evil"),
            y: v("rewrite"),
        },
    )
    .expect("forge frame");
    let forged = Batch {
        term: r.term(),
        seed: None,
        frames: vec![evil],
        source_last_seq: evil_seq,
        remaining_records: 0,
        remaining_bytes: 0,
        trace_id: 0,
    };
    assert!(matches!(
        r.apply_batch(&forged).expect("divergence check"),
        ApplyOutcome::Diverged(_)
    ));

    let mut found = false;
    for entry in std::fs::read_dir(&dump_dir).expect("read dump dir") {
        let body = std::fs::read_to_string(entry.expect("entry").path()).unwrap_or_default();
        if body.contains("replica_divergence") && body.contains("fdb.repl.apply") {
            found = true;
        }
    }
    assert!(
        found,
        "no flight dump captured the divergence with its apply span"
    );

    fdb::obs::flight::set_dump_dir(armed);
    fdb::obs::causal::set_sample_rate(fdb::obs::causal::DEFAULT_SAMPLE_RATE);
    std::fs::remove_dir_all(&dump_dir).ok();
}
