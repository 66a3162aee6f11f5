//! Replication-layer property tests: for ANY workload (transactions,
//! aborts, hostile interleavings) and ANY shipping schedule (arbitrary
//! prefix length, arbitrary batch sizes, arbitrary re-shipped overlap),
//! a replica fed the first `k` frames must hold exactly the state a
//! fresh transaction-aware replay of those `k` records produces — and
//! its local WAL must be byte-identical to the shipped frame stream.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::wal::{Frames, TxnReplayer, WAL_MAGIC};
use fdb::core::{Database, DurabilityConfig, LoggedDatabase, SimDisk, SyncPolicy, WalStorage};
use fdb::repl::{ApplyOutcome, Replica, ReplicationSource, ShippedFrame};
use fdb::types::{Functionality, Schema, Value};

fn v(s: &str) -> Value {
    Value::atom(s)
}

/// Builds a primary with a seeded workload: plain writes, committed
/// transactions, aborted transactions, savepoint rollbacks. Checkpoints
/// are disabled so every frame since seq 1 stays shippable, and small
/// segments force multi-segment shipping.
fn build_primary(disk: Arc<SimDisk>, seed: u64, ops: usize) -> LoggedDatabase {
    let mut p = LoggedDatabase::create_with(
        disk as Arc<dyn WalStorage>,
        "/primary",
        DurabilityConfig {
            sync_policy: SyncPolicy::Always,
            checkpoint_every: None,
            segment_max_bytes: 512,
        },
    )
    .expect("create primary");
    p.declare("teach", "faculty", "course", Functionality::ManyMany)
        .expect("declare");
    p.declare("class_list", "course", "student", Functionality::ManyMany)
        .expect("declare");

    let mut rng = StdRng::seed_from_u64(seed);
    let one_op = |p: &mut LoggedDatabase, rng: &mut StdRng, i: usize| {
        let f = if rng.gen_range(0..2u32) == 0 {
            "teach"
        } else {
            "class_list"
        };
        let x = v(&format!("x{}", rng.gen_range(0..6u32)));
        let y = v(&format!("y{}_{i}", rng.gen_range(0..4u32)));
        if rng.gen_range(0..4u32) == 0 {
            p.delete(f, x, y).expect("delete");
        } else {
            p.insert(f, x, y).expect("insert");
        }
    };
    for i in 0..ops {
        if rng.gen_range(0..5u32) == 0 {
            // A transaction: a few ops, then commit, abort, or a partial
            // rollback followed by a commit.
            p.begin().expect("begin");
            let body = rng.gen_range(1..4usize);
            for j in 0..body {
                one_op(&mut p, &mut rng, i * 100 + j);
            }
            match rng.gen_range(0..4u32) {
                0 => p.rollback().expect("rollback"),
                1 => {
                    p.savepoint("sp").expect("savepoint");
                    one_op(&mut p, &mut rng, i * 100 + 50);
                    p.rollback_to("sp").expect("rollback to");
                    p.commit().expect("commit");
                }
                _ => p.commit().expect("commit"),
            }
        } else {
            one_op(&mut p, &mut rng, i);
        }
    }
    p
}

/// Replays shipped frames through a fresh transaction-aware replayer:
/// the oracle a replica must agree with.
fn fresh_replay(frames: &[ShippedFrame]) -> Database {
    let mut db = Database::new(Schema::new());
    let mut replayer = TxnReplayer::new();
    for f in frames {
        if let Some(record) = f.record().expect("shipped frames decode") {
            replayer.feed(&mut db, &record).expect("replay feeds");
        }
    }
    replayer.finish(&mut db).expect("replay finishes");
    db
}

/// The replica's whole local WAL as one frame stream (per-segment magic
/// stripped), for byte-identity comparison against the shipped frames.
fn replica_wal_bytes(disk: &SimDisk, dir: &str) -> Vec<u8> {
    let mut paths = disk
        .list(std::path::Path::new(dir))
        .expect("list replica dir");
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        if p.extension() != Some(std::ffi::OsStr::new("seg")) {
            continue;
        }
        let bytes = disk.read(&p).expect("read replica segment");
        assert!(bytes.starts_with(WAL_MAGIC), "segment without magic: {p:?}");
        out.extend_from_slice(&bytes[WAL_MAGIC.len()..]);
    }
    out
}

/// A second disk holding a byte-for-byte copy of every file under `dir`.
fn copy_of(disk: &SimDisk, dir: &str) -> Arc<SimDisk> {
    let copy = Arc::new(SimDisk::new());
    for p in disk.list(std::path::Path::new(dir)).expect("list dir") {
        let mut f = copy.create(&p).expect("create copy");
        f.append(&disk.read(&p).expect("read original"))
            .expect("copy bytes");
    }
    copy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One reader of the log: primary recovery and replica catch-up,
    /// opened over copies of the same damaged directory (a segment cut
    /// anywhere, or one bit flipped anywhere), salvage the same prefix —
    /// same next sequence number, same state — and what the frame walker
    /// keeps of the damaged segment re-encodes to exactly its valid bytes.
    #[test]
    fn recovery_and_catch_up_agree_on_a_damaged_log(seed in 0u64..10_000, ops in 1usize..40) {
        let disk = Arc::new(SimDisk::new());
        drop(build_primary(disk.clone(), seed, ops));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
        let segments: Vec<_> = disk
            .list(std::path::Path::new("/primary"))
            .expect("list primary")
            .into_iter()
            .filter(|p| p.extension() == Some(std::ffi::OsStr::new("seg")))
            .collect();
        let victim = &segments[rng.gen_range(0..segments.len())];
        let size = disk.size_of(victim).expect("segment size");
        if rng.gen_bool(0.5) {
            disk.truncate(victim, rng.gen_range(0..size)).expect("cut");
        } else {
            disk.corrupt(victim, rng.gen_range(0..size), 1 << rng.gen_range(0..8u32));
        }

        let config = DurabilityConfig {
            sync_policy: SyncPolicy::Always,
            checkpoint_every: None,
            segment_max_bytes: 512,
        };
        let (primary, report) = LoggedDatabase::open_with(
            copy_of(&disk, "/primary") as Arc<dyn WalStorage>,
            "/primary",
            config,
        )
        .expect("primary recovery");
        let replica_disk = copy_of(&disk, "/primary");
        let replica = Replica::open_with(
            replica_disk.clone() as Arc<dyn WalStorage>,
            "/primary",
            config,
        )
        .expect("replica catch-up");

        // The primary may have closed a dangling frame with one more
        // record; the report's `last_seq` is where the log itself ended.
        prop_assert_eq!(replica.next_seq(), report.last_seq.map_or(1, |s| s + 1));
        prop_assert_eq!(
            replica.consistent_view().expect("view").to_snapshot().expect("replica snapshot"),
            primary.database().to_snapshot().expect("primary snapshot")
        );

        // What the replica keeps of the damaged segment is what the frame
        // walker ships of it, re-encoded: exactly its valid bytes.
        let name = victim.file_name().and_then(|n| n.to_str()).expect("segment name");
        let first_seq: u64 = name["wal-".len()..name.len() - ".seg".len()]
            .parse()
            .expect("first seq in the segment's name");
        let damaged = disk.read(victim).expect("read damaged segment");
        let mut kept = WAL_MAGIC.to_vec();
        for frame in Frames::segment(&damaged, first_seq) {
            kept.extend_from_slice(&ShippedFrame::from(frame).encoded());
        }
        prop_assert_eq!(replica_disk.read(victim).expect("read repaired segment"), kept);
    }

    /// Feed an arbitrary prefix of the primary's frame stream to a
    /// replica in arbitrarily-sized batches: the replica's consistent
    /// view equals a fresh replay of that prefix, its stored WAL is
    /// byte-identical to the shipped frames, and re-shipping an
    /// arbitrary overlap changes nothing.
    #[test]
    fn arbitrary_prefix_matches_fresh_replay(seed in 0u64..10_000, ops in 1usize..40) {
        let disk = Arc::new(SimDisk::new());
        let primary = build_primary(disk.clone(), seed, ops);
        let total = primary.last_seq();
        prop_assert!(total > 0);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let k = rng.gen_range(1..=total as usize);

        let mut source = ReplicationSource::for_primary(&primary);
        let batch = source.poll(1, k).expect("poll prefix");
        prop_assert_eq!(batch.frames.len(), k);

        // Oracle: a fresh transaction-aware replay of the same frames.
        let want = fresh_replay(&batch.frames).to_snapshot().expect("oracle snapshot");

        // Replica: the same frames, split into random batch sizes.
        let mut replica = Replica::open(disk.clone() as Arc<dyn WalStorage>, "/replica")
            .expect("open replica");
        let mut sent = 0usize;
        while sent < k {
            let take = rng.gen_range(1..=(k - sent).min(7));
            let sub = source
                .poll(replica.next_seq(), take)
                .expect("poll sub-batch");
            prop_assert_eq!(sub.frames.len(), take);
            match replica.apply_batch(&sub).expect("apply") {
                ApplyOutcome::Applied { frames, .. } => prop_assert_eq!(frames, take),
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
            sent += take;
        }
        let got = replica
            .consistent_view()
            .expect("consistent view")
            .to_snapshot()
            .expect("replica snapshot");
        prop_assert_eq!(&got, &want);

        // Byte identity: the replica's local WAL is exactly the shipped
        // frame stream, no re-encoding drift.
        let mut shipped = Vec::new();
        for f in &batch.frames {
            shipped.extend_from_slice(&f.encoded());
        }
        prop_assert_eq!(replica_wal_bytes(&disk, "/replica"), shipped);

        // Idempotency: re-ship an arbitrary overlapping window; every
        // frame is recognized by CRC and skipped, state unchanged.
        let from = rng.gen_range(1..=k as u64);
        let again = source.poll(from, k - from as usize + 1).expect("re-poll");
        match replica.apply_batch(&again).expect("re-apply") {
            ApplyOutcome::Applied { frames, .. } => prop_assert_eq!(frames, 0),
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
        let after = replica
            .consistent_view()
            .expect("view after re-ship")
            .to_snapshot()
            .expect("snapshot after re-ship");
        prop_assert_eq!(&after, &want);
    }

    /// Restarting the replica at an arbitrary point (drop + reopen over
    /// the same directory) is invisible: catch-up rebuilds exactly the
    /// state the uninterrupted replica held, and shipping resumes where
    /// it left off.
    #[test]
    fn restart_at_any_point_is_invisible(seed in 0u64..10_000, ops in 1usize..30) {
        let disk = Arc::new(SimDisk::new());
        let primary = build_primary(disk.clone(), seed, ops);
        let total = primary.last_seq();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca7c);
        let cut = rng.gen_range(1..=total as usize);

        let mut source = ReplicationSource::for_primary(&primary);
        let mut replica = Replica::open(disk.clone() as Arc<dyn WalStorage>, "/r")
            .expect("open replica");
        let first = source.poll(1, cut).expect("poll first");
        replica.apply_batch(&first).expect("apply first");
        let before = replica
            .consistent_view()
            .expect("view before restart")
            .to_snapshot()
            .expect("snapshot before restart");
        drop(replica);

        let mut replica = Replica::open(disk.clone() as Arc<dyn WalStorage>, "/r")
            .expect("reopen replica");
        prop_assert_eq!(replica.next_seq(), cut as u64 + 1);
        let after = replica
            .consistent_view()
            .expect("view after restart")
            .to_snapshot()
            .expect("snapshot after restart");
        prop_assert_eq!(&after, &before);

        // Finish the stream: the replica ends exactly at the primary.
        let rest = source
            .poll(replica.next_seq(), total as usize)
            .expect("poll rest");
        replica.apply_batch(&rest).expect("apply rest");
        let got = replica
            .consistent_view()
            .expect("final view")
            .to_snapshot()
            .expect("final snapshot");
        let want = primary.database().to_snapshot().expect("primary snapshot");
        prop_assert_eq!(got, want);
    }
}

/// `fdb.repl.fenced_rejects` and `fdb.repl.divergences` follow a
/// publish-once-per-report discipline: a fenced primary retrying the
/// same stale batch in a loop, or polls against an already-frozen
/// replica, are ONE incident each — dashboards alert on new incidents,
/// not on retry frequency. A genuinely new fencing episode (different
/// term pair, or after an accepted batch) counts again.
#[test]
fn fence_and_divergence_counters_publish_once_per_report() {
    use fdb::core::LogRecord;
    use fdb::repl::Batch;

    let counter = |key: &str| {
        fdb::obs::registry()
            .snapshot()
            .counters
            .iter()
            .find(|c| c.key == key)
            .map(|c| c.value)
            .unwrap_or_else(|| panic!("registry has no counter {key}"))
    };
    let empty_batch = |term: u64| Batch {
        term,
        seed: None,
        frames: vec![],
        source_last_seq: 0,
        remaining_records: 0,
        remaining_bytes: 0,
        trace_id: 0,
    };

    let disk = Arc::new(SimDisk::new());
    let primary = build_primary(disk.clone(), 7, 10);
    let mut source = ReplicationSource::for_primary(&primary);
    let replica_disk = Arc::new(SimDisk::new());
    let mut replica =
        Replica::open(replica_disk.clone() as Arc<dyn WalStorage>, "/r").expect("open replica");
    let batch = source.poll(1, 10_000).expect("poll");
    replica.apply_batch(&batch).expect("apply");

    // Raise the replica's term so older batches are fenced.
    replica.apply_batch(&empty_batch(5)).expect("term bump");

    let f0 = counter("fdb.repl.fenced_rejects");
    for _ in 0..3 {
        assert!(matches!(
            replica.apply_batch(&empty_batch(1)).expect("fenced"),
            ApplyOutcome::Fenced { .. }
        ));
    }
    assert_eq!(
        counter("fdb.repl.fenced_rejects"),
        f0 + 1,
        "retries of one fencing episode must count once"
    );

    // A different stale term is a new episode.
    replica.apply_batch(&empty_batch(2)).expect("fenced");
    assert_eq!(counter("fdb.repl.fenced_rejects"), f0 + 2);

    // An accepted batch closes the episode; the next fence counts anew.
    replica.apply_batch(&empty_batch(5)).expect("accepted");
    replica.apply_batch(&empty_batch(1)).expect("fenced");
    assert_eq!(counter("fdb.repl.fenced_rejects"), f0 + 3);

    // Divergence: the freeze publishes once; every later poll against
    // the frozen replica reports the same incident without counting.
    let evil_seq = replica.next_seq() - 1;
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
        term: replica.term(),
        seed: None,
        frames: vec![evil],
        source_last_seq: evil_seq,
        remaining_records: 0,
        remaining_bytes: 0,
        trace_id: 0,
    };
    let d0 = counter("fdb.repl.divergences");
    assert!(matches!(
        replica.apply_batch(&forged).expect("diverge"),
        ApplyOutcome::Diverged(_)
    ));
    for _ in 0..3 {
        assert!(matches!(
            replica.apply_batch(&forged).expect("still frozen"),
            ApplyOutcome::Diverged(_)
        ));
    }
    assert_eq!(
        counter("fdb.repl.divergences"),
        d0 + 1,
        "a frozen replica reports one divergence incident"
    );
}
