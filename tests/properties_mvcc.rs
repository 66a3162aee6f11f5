//! MVCC property tests: snapshot reads must be indistinguishable from
//! the exclusive-lock reads they replaced, and the group-commit path
//! must append exactly the WAL bytes the sequential path would — it
//! batches *when* fsync runs, never what is written.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::{
    Database, DurabilityConfig, LoggedDatabase, SharedDatabase, SharedLoggedDatabase, SimDisk,
    SyncPolicy, WalStorage,
};
use fdb::types::{Functionality, Schema, Value};

mod common;

fn v(s: &str) -> Value {
    Value::atom(s)
}

fn university() -> Database {
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .build()
        .unwrap();
    Database::new(schema)
}

/// One random base update against the shared handle.
fn random_op(shared: &SharedDatabase, rng: &mut StdRng) {
    let f = if rng.gen_range(0..2u32) == 0 {
        "teach"
    } else {
        "class_list"
    };
    let f = shared.resolve(f).unwrap();
    let x = v(&format!("x{}", rng.gen_range(0..12u32)));
    let y = v(&format!("y{}", rng.gen_range(0..12u32)));
    if rng.gen_range(0..4u32) == 0 {
        let _ = shared.delete(f, &x, &y);
    } else {
        let _ = shared.insert(f, x, y);
    }
}

/// Every file on the simulated disk, keyed by path — the whole durable
/// footprint (WAL segments, checkpoints), for byte-for-byte comparison.
fn disk_image(disk: &SimDisk) -> BTreeMap<PathBuf, Vec<u8>> {
    disk.paths()
        .into_iter()
        .map(|p| {
            let bytes = disk.read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A pinned snapshot answers every query exactly as an
    /// exclusive-lock read of the same state would: after any op
    /// sequence, the snapshot serializes identically to the database
    /// observed under the write lock, and spot-checked truth queries
    /// agree.
    #[test]
    fn snapshot_read_equals_exclusive_lock_read(seed in 0u64..10_000, len in 0usize..60) {
        let shared = SharedDatabase::new(university());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..len {
            random_op(&shared, &mut rng);
        }
        let pin = shared.pin();
        // The old read path: full exclusion, observing the live database.
        let exclusive = shared.with(|db| db.clone()).unwrap();
        common::assert_same_store(pin.store(), exclusive.store(), &format!("seed {seed}"));
        prop_assert_eq!(pin.version(), exclusive.store().version());
        for _ in 0..20 {
            let f = if rng.gen_range(0..2u32) == 0 { "teach" } else { "class_list" };
            let f = pin.resolve(f).unwrap();
            let x = v(&format!("x{}", rng.gen_range(0..12u32)));
            let y = v(&format!("y{}", rng.gen_range(0..12u32)));
            prop_assert_eq!(
                pin.truth(f, &x, &y).unwrap(),
                exclusive.truth(f, &x, &y).unwrap()
            );
        }
    }

    /// A snapshot pinned mid-stream is frozen: replaying the same op
    /// prefix on a private database reproduces it exactly, no matter
    /// how many ops ran after the pin.
    #[test]
    fn pinned_state_is_exactly_the_prefix_state(
        seed in 0u64..10_000,
        prefix in 0usize..40,
        suffix in 1usize..40,
    ) {
        let shared = SharedDatabase::new(university());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..prefix {
            random_op(&shared, &mut rng);
        }
        let pin = shared.pin();
        for _ in 0..suffix {
            random_op(&shared, &mut rng);
        }
        // Replay the identical prefix on a lone database.
        let replay = SharedDatabase::new(university());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..prefix {
            random_op(&replay, &mut rng);
        }
        let replayed = replay.pin();
        common::assert_same_store(pin.store(), replayed.store(), &format!("seed {seed}"));
    }

    /// The grouped write path appends byte-identical WAL frames (and
    /// durable files generally) to the sequential inline-fsync path:
    /// one writer issuing the same ops through a `SharedLoggedDatabase`
    /// under `Always` (group commit) and through a bare
    /// `LoggedDatabase` (inline fsync per record) leaves two disks with
    /// exactly the same bytes.
    #[test]
    fn grouped_wal_bytes_equal_sequential_wal_bytes(seed in 0u64..10_000, len in 1usize..50) {
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::Always,
            checkpoint_every: Some(32),
            segment_max_bytes: 1024,
        };
        let grouped_disk = Arc::new(SimDisk::new());
        let sequential_disk = Arc::new(SimDisk::new());

        let mut ops: Vec<(bool, String, Value, Value)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..len {
            let f = if rng.gen_range(0..2u32) == 0 { "teach" } else { "class_list" };
            ops.push((
                rng.gen_range(0..4u32) == 0,
                f.to_owned(),
                v(&format!("x{}", rng.gen_range(0..10u32))),
                v(&format!("y{}", rng.gen_range(0..10u32))),
            ));
        }

        let mut ldb = LoggedDatabase::create_with(
            grouped_disk.clone() as Arc<dyn WalStorage>,
            "/db",
            config,
        )
        .unwrap();
        ldb.declare("teach", "faculty", "course", Functionality::ManyMany).unwrap();
        ldb.declare("class_list", "course", "student", Functionality::ManyMany).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);
        for (del, f, x, y) in &ops {
            if *del {
                let _ = shared.delete(f, x.clone(), y.clone());
            } else {
                let _ = shared.insert(f, x.clone(), y.clone());
            }
        }
        drop(shared.try_unwrap().expect("last handle"));

        let mut ldb = LoggedDatabase::create_with(
            sequential_disk.clone() as Arc<dyn WalStorage>,
            "/db",
            config,
        )
        .unwrap();
        ldb.declare("teach", "faculty", "course", Functionality::ManyMany).unwrap();
        ldb.declare("class_list", "course", "student", Functionality::ManyMany).unwrap();
        for (del, f, x, y) in &ops {
            if *del {
                let _ = ldb.delete(f, x.clone(), y.clone());
            } else {
                let _ = ldb.insert(f, x.clone(), y.clone());
            }
        }
        drop(ldb);

        prop_assert_eq!(disk_image(&grouped_disk), disk_image(&sequential_disk));
    }

    /// Concurrent writers under `Always` (the group-commit fast path):
    /// whatever grouping the scheduler produces, recovery replays the
    /// WAL to exactly the live state, and every acknowledged write is
    /// present after an abrupt stop.
    #[test]
    fn group_committed_writers_replay_to_live_state(seed in 0u64..1_000) {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone() as Arc<dyn WalStorage>,
            "/group_prop",
            DurabilityConfig {
                sync_policy: SyncPolicy::Always,
                checkpoint_every: Some(48),
                segment_max_bytes: 2048,
            },
        )
        .unwrap();
        ldb.declare("teach", "faculty", "course", Functionality::ManyMany).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);

        let mut handles = Vec::new();
        for w in 0..4u64 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w + 1));
                for i in 0..15 {
                    let x = v(&format!("p{}_{}", w, rng.gen_range(0..6u32)));
                    let y = v(&format!("c{i}"));
                    if rng.gen_range(0..4u32) == 0 {
                        h.delete("teach", x, y).unwrap();
                    } else {
                        h.insert("teach", x, y).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert!(shared.is_consistent());
        let live = shared.read(|db| db.to_snapshot().unwrap());
        // Abrupt stop: no graceful close, no final sync.
        drop(shared.try_unwrap().expect("last handle"));

        let (recovered, report) = LoggedDatabase::open_with(
            disk as Arc<dyn WalStorage>,
            "/group_prop",
            DurabilityConfig::default(),
        )
        .unwrap();
        prop_assert!(!report.damaged());
        prop_assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    }
}
