//! MVCC + group-commit chaos: snapshot readers racing group-committing
//! writers under injected fsync faults and governor deadlines, plus a
//! deterministic crash matrix that cuts the disk *inside* a commit
//! group's appended-but-unsynced record batch.
//!
//! Invariants:
//!
//! * **No torn reads** — every pinned snapshot is internally consistent,
//!   and a transaction's paired facts appear both-or-neither.
//! * **No uncommitted transaction is ever visible** — readers can never
//!   observe a frame that later rolled back, nor a half-applied one.
//! * **Reader progress** — pins are never blocked by writers; versions
//!   observed by one reader never decrease.
//! * **Crash-recovery parity** — after the soak, recovery reproduces the
//!   live state; a cut inside a commit group recovers to a prefix of
//!   whole transactions.
//!
//! Every test installs the flight recorder's panic hook first, so a
//! failing round under `FDB_FLIGHT_DIR` leaves a `flight-*.json` behind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::{
    Database, DurabilityConfig, LoggedDatabase, OverloadPolicy, SharedLoggedDatabase, SimDisk,
    SyncPolicy, WalStorage,
};
use fdb::governor::Governor;
use fdb::types::{FdbError, Schema, Value};

const SEED: u64 = 0x3137_C0DE;
const WRITERS: usize = 4;
const READERS: usize = 4;
const DEFAULT_ROUNDS: usize = 60;

/// Per-thread round count; `FDB_CHAOS_ROUNDS` scales it up for CI soak
/// runs (the workload stays seeded and bounded, just longer).
fn rounds() -> usize {
    std::env::var("FDB_CHAOS_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_ROUNDS)
}

fn v(s: impl std::fmt::Display) -> Value {
    Value::atom(s.to_string())
}

fn teach_only() -> Database {
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .build()
        .unwrap();
    Database::new(schema)
}

/// N snapshot readers against M group-committing writers, with fsync
/// faults and tight deadlines in the mix. Writers interleave grouped
/// autocommit inserts with whole BEGIN..COMMIT/ROLLBACK frames that
/// write *paired* marker facts; readers continuously pin snapshots and
/// check pair atomicity, version monotonicity, and consistency.
#[test]
fn chaos_mvcc_readers_vs_group_committers() {
    fdb::obs::flight::install_panic_hook();
    let disk = Arc::new(SimDisk::new());
    let mut ldb = LoggedDatabase::create_with(
        disk.clone(),
        "/chaos_mvcc_db",
        DurabilityConfig {
            sync_policy: SyncPolicy::Always, // the group-commit fast path
            checkpoint_every: Some(64),
            segment_max_bytes: 4096,
        },
    )
    .unwrap();
    ldb.import_schema(&teach_only()).unwrap();
    let shared = SharedLoggedDatabase::with_policy(
        ldb,
        OverloadPolicy {
            lock_timeout: Duration::from_millis(40),
            // Live on the durable handle too: a writer holds its pass from
            // admission until its group fsync returned. 8 > WRITERS, so
            // the gate never sheds here — only the lock timeout does.
            max_inflight_writers: 8,
        },
    );
    let teach = shared.read(|db| db.resolve("teach")).unwrap();

    // Sporadic fsync faults: group leaders will fail and report to every
    // covered follower; the engine must stay typed and consistent.
    for k in 1..6u64 {
        disk.fail_sync(k * 13);
    }

    let committed_frames = Arc::new(AtomicU64::new(0));
    let acked_inserts = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..WRITERS {
        let h = shared.clone();
        let committed_frames = Arc::clone(&committed_frames);
        let acked_inserts = Arc::clone(&acked_inserts);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64 + 1));
            for i in 0..rounds() {
                match rng.gen_range(0..3u32) {
                    // Grouped autocommit insert.
                    0 => match h.insert("teach", v(format!("solo{t}_{i}")), v("m")) {
                        Ok(()) => {
                            acked_inserts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(FdbError::Overloaded { .. } | FdbError::Internal(_)) => {}
                        Err(other) => panic!("untyped failure: {other:?}"),
                    },
                    // A whole transaction writing PAIRED facts: readers
                    // must see both or neither, never one.
                    1 => {
                        let commit = rng.gen_range(0..4u32) != 0;
                        let gov =
                            Governor::with_deadline(Duration::from_millis(rng.gen_range(20..120)));
                        let r = h.retry_on_overload(&gov, 4, |ldb| {
                            ldb.begin()?;
                            let frame = (|| {
                                ldb.insert("teach", v(format!("open{t}_{i}")), v("m"))?;
                                ldb.insert("teach", v(format!("close{t}_{i}")), v("m"))?;
                                if commit {
                                    ldb.commit()
                                } else {
                                    ldb.rollback()
                                }
                            })();
                            if frame.is_err() && ldb.txn_active() {
                                let _ = ldb.rollback();
                            }
                            frame
                        });
                        match r {
                            Ok(()) => {
                                if commit {
                                    committed_frames.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(
                                FdbError::Overloaded { .. }
                                | FdbError::DeadlineExceeded(_)
                                | FdbError::TxnAborted { .. }
                                | FdbError::Internal(_),
                            ) => {}
                            Err(other) => panic!("untyped failure: {other:?}"),
                        }
                    }
                    // Governed sync under a possibly-dead deadline.
                    _ => {
                        let gov =
                            Governor::with_deadline(Duration::from_millis(rng.gen_range(0..20)));
                        match h.sync_governed(&gov) {
                            Ok(())
                            | Err(FdbError::Overloaded { .. })
                            | Err(FdbError::DeadlineExceeded(_))
                            | Err(FdbError::Cancelled)
                            | Err(FdbError::Internal(_)) => {}
                            Err(other) => panic!("untyped failure: {other:?}"),
                        }
                    }
                }
            }
        }));
    }
    for r in 0..READERS {
        let h = shared.clone();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (0x40 + r as u64));
            let mut last_version = 0u64;
            let mut round = 0usize;
            while stop.load(Ordering::Acquire) == 0 {
                round += 1;
                let pin = h.pin();
                // Versions observed by one reader never go backwards.
                assert!(
                    pin.version() >= last_version,
                    "snapshot version regressed: {} < {last_version}",
                    pin.version()
                );
                last_version = pin.version();
                // Paired frame facts: both or neither, on the same pin.
                let (wt, wi) = (rng.gen_range(0..WRITERS), rng.gen_range(0..rounds()));
                let open = pin
                    .truth(teach, &v(format!("open{wt}_{wi}")), &v("m"))
                    .unwrap();
                let close = pin
                    .truth(teach, &v(format!("close{wt}_{wi}")), &v("m"))
                    .unwrap();
                assert_eq!(
                    open, close,
                    "torn transaction visible: open{wt}_{wi}={open:?} close{wt}_{wi}={close:?}"
                );
                // Occasional full-state checks on the frozen pin.
                if round.is_multiple_of(32) {
                    assert!(pin.is_consistent());
                }
                std::thread::yield_now();
            }
        }));
    }
    // Writers were spawned first: join them, then release the readers.
    for (i, h) in handles.into_iter().enumerate() {
        h.join().expect("worker panicked");
        if i + 1 == WRITERS {
            stop.store(1, Ordering::Release);
        }
    }

    assert!(shared.is_consistent());
    assert!(
        acked_inserts.load(Ordering::Relaxed) > 0,
        "every grouped insert failed"
    );
    assert!(
        committed_frames.load(Ordering::Relaxed) > 0,
        "every transaction frame was shed"
    );

    // Crash-recovery parity: the final snapshot equals recovery.
    let live = shared.read(|db| db.to_snapshot().unwrap());
    drop(shared.try_unwrap().expect("last handle"));
    let (recovered, _report) =
        LoggedDatabase::open_with(disk, "/chaos_mvcc_db", DurabilityConfig::default()).unwrap();
    assert!(!recovered.txn_active(), "recovery left a frame open");
    assert_eq!(recovered.database().to_snapshot().unwrap(), live);
}

/// Crash matrix for commit groups: a batch of autocommit records is
/// appended with no per-record fsync (under `SyncPolicy::OnCheckpoint`:
/// exactly the bytes the group leader sees just before its batched
/// fsync), and the disk is cut at
/// every byte offset inside the batch. Every truncated image must
/// recover to a prefix of whole records — each autocommit record is a
/// whole transaction, so recovery may never surface half an update, an
/// open frame, or an inconsistent store.
#[test]
fn crash_inside_a_commit_group_recovers_to_whole_record_prefix() {
    fdb::obs::flight::install_panic_hook();
    const GROUP: usize = 6;

    // Reference run: unbounded disk, recording the expected state after
    // each record and the bytes consumed, so cuts can be mapped back to
    // record boundaries.
    let full_disk = Arc::new(SimDisk::new());
    let mut expected = Vec::new(); // state snapshots: after 0..=N records
    {
        let mut ldb = LoggedDatabase::create_with(
            full_disk.clone() as Arc<dyn WalStorage>,
            "/group_crash",
            DurabilityConfig {
                sync_policy: SyncPolicy::Always,
                checkpoint_every: None,
                segment_max_bytes: 1 << 20,
            },
        )
        .unwrap();
        // Cuts during setup recover to the pre-schema or post-schema
        // state; both belong to the legal-prefix set.
        expected.push(ldb.database().to_snapshot().unwrap());
        ldb.import_schema(&teach_only()).unwrap();
        ldb.sync().unwrap();
        expected.push(ldb.database().to_snapshot().unwrap());
        // The group is forming: no per-record fsync.
        ldb.set_sync_policy(SyncPolicy::OnCheckpoint);
        for i in 0..GROUP {
            ldb.insert("teach", v(format!("g{i}")), v(format!("c{i}")))
                .unwrap();
            expected.push(ldb.database().to_snapshot().unwrap());
        }
        ldb.sync().unwrap(); // the leader's batched fsync
    }
    let total_bytes: u64 = full_disk
        .paths()
        .iter()
        .map(|p| full_disk.size_of(p).unwrap())
        .sum();
    // The same bytes as a group the shared handle forms.
    assert_eq!(total_bytes, 240);

    // Matrix: cut the write budget at every byte of the run.
    for budget in 0..=total_bytes {
        let disk = Arc::new(SimDisk::new());
        disk.set_write_budget(Some(budget));
        {
            let r = LoggedDatabase::create_with(
                disk.clone() as Arc<dyn WalStorage>,
                "/group_crash",
                DurabilityConfig {
                    sync_policy: SyncPolicy::Always,
                    checkpoint_every: None,
                    segment_max_bytes: 1 << 20,
                },
            );
            if let Ok(mut ldb) = r {
                let setup = ldb.import_schema(&teach_only()).and_then(|_| ldb.sync());
                if setup.is_ok() {
                    ldb.set_sync_policy(SyncPolicy::OnCheckpoint);
                    for i in 0..GROUP {
                        if ldb
                            .insert("teach", v(format!("g{i}")), v(format!("c{i}")))
                            .is_err()
                        {
                            assert!(disk.crashed(), "insert failed without a crash");
                            break;
                        }
                    }
                    if !disk.crashed() {
                        let _ = ldb.sync();
                    }
                } else {
                    assert!(disk.crashed(), "setup failed without a crash");
                }
            } else {
                assert!(disk.crashed(), "create failed without a crash");
            }
        }
        disk.revive();

        let (recovered, report) =
            LoggedDatabase::open_with(disk, "/group_crash", DurabilityConfig::default())
                .unwrap_or_else(|e| panic!("recovery at budget {budget} failed: {e}"));
        assert!(
            !recovered.txn_active(),
            "budget {budget}: recovery left a frame open"
        );
        assert!(
            recovered.database().is_consistent(),
            "budget {budget}: inconsistent recovery"
        );
        let got = recovered.database().to_snapshot().unwrap();
        assert!(
            expected.contains(&got),
            "budget {budget}: recovered state is not a whole-record prefix ({report:?})"
        );
    }
}
