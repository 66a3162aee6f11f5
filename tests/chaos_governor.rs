//! Adversarial chaos harness for the resource governor.
//!
//! Crosses the nasty axes at once, with a fixed seed so failures replay:
//!
//! * **exponential-cycle schemas** ([`Topology::CycleBomb`]) that make
//!   ungoverned graph search effectively non-terminating,
//! * **random budgets** — step budgets, near-zero deadlines, result
//!   caps, and cancellation fired from a sibling thread,
//! * **≥4 concurrent threads** hammering one shared database through
//!   the bounded-lock / admission-gate write path,
//! * **disk faults** (SimDisk injected sync failures) under the logged
//!   shared handle.
//!
//! Invariants checked everywhere: no panics, no deadlocks (the test
//! finishing *is* the assertion), every refusal is a typed error,
//! deadlines are honoured within a coarse tolerance, and every
//! `Exhausted` partial is a sound prefix of the true answer.
//!
//! Every test installs the flight recorder's panic hook first, so a
//! failing round under `FDB_FLIGHT_DIR` leaves a `flight-*.json` behind.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::{
    Database, DurabilityConfig, LoggedDatabase, OverloadPolicy, SharedDatabase,
    SharedLoggedDatabase, SimDisk, SyncPolicy,
};
use fdb::governor::{Budget, CancelToken, Governor, Outcome};
use fdb::graph::{
    all_simple_paths_governed, cycles_through_edge_governed, minimal_schema_governed,
    FunctionGraph, PathLimits,
};
use fdb::types::{Derivation, FdbError, Schema, Step, Value};
use fdb::workload::topology::Topology;

const SEED: u64 = 0xC4A0_5EED;
const THREADS: usize = 6;
const DEFAULT_ROUNDS: usize = 40;

/// Per-thread round count; `FDB_CHAOS_ROUNDS` scales it up for CI soak
/// runs (the workload stays seeded and bounded, just longer).
fn rounds() -> usize {
    std::env::var("FDB_CHAOS_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_ROUNDS)
}
/// Slack on deadline adherence: the governor consults the clock every 16
/// steps and lock backoff sleeps 200µs, so the governor's own overshoot
/// is microseconds; 100ms absorbs scheduler preemption under an
/// oversubscribed CI runner.
const DEADLINE_TOLERANCE: Duration = Duration::from_millis(100);

fn v(s: impl std::fmt::Display) -> Value {
    Value::atom(s.to_string())
}

/// Graph search over a cycle bomb: every stop reason, concurrently,
/// with partial-soundness checked against the full enumeration.
#[test]
fn chaos_graph_search_cycle_bomb() {
    fdb::obs::flight::install_panic_hook();
    // width 4, 8 rungs (+ back edge): 4^8 = 65536 cycles through `back`.
    let schema = Arc::new(Topology::CycleBomb { width: 4 }.build(33));
    let graph = Arc::new(FunctionGraph::from_schema(&schema));
    let back = schema
        .functions()
        .iter()
        .find(|d| d.name == "back")
        .unwrap();
    let back_edge = graph.edge_of(back.id).unwrap().id;
    let big = PathLimits {
        max_len: usize::MAX,
        max_paths: 100_000,
    };

    // Reference answer, computed once (bounded: 65536 cycles).
    let full: Arc<Vec<_>> = Arc::new(
        cycles_through_edge_governed(&graph, back_edge, big, &Governor::unbounded()).value(),
    );
    assert_eq!(full.len() as u64, Topology::cycle_bomb_cycle_count(4, 33));

    let overshoots = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let schema = Arc::clone(&schema);
        let graph = Arc::clone(&graph);
        let full = Arc::clone(&full);
        let overshoots = Arc::clone(&overshoots);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64 + 1));
            for round in 0..rounds() {
                // Random budget mix.
                let mut budget = Budget::unbounded();
                let mut deadline = None;
                match rng.gen_range(0..4u32) {
                    0 => budget = budget.with_max_steps(rng.gen_range(0..5_000u64)),
                    1 => {
                        let d = Duration::from_millis(rng.gen_range(0..8u64));
                        deadline = Some(d);
                        budget = budget.with_deadline(d);
                    }
                    2 => {
                        budget = budget
                            .with_max_steps(rng.gen_range(0..20_000u64))
                            .with_deadline(Duration::from_millis(rng.gen_range(1..20u64)));
                    }
                    _ => budget = budget.with_max_steps(rng.gen_range(0..500u64)),
                }
                let cancel = CancelToken::new();
                let governor = Governor::with_cancel(budget, &cancel);

                // Sometimes fire cancellation from a sibling thread.
                let canceller = if rng.gen_range(0..3u32) == 0 {
                    let token = cancel.clone();
                    let delay = Duration::from_micros(rng.gen_range(0..2_000u64));
                    Some(std::thread::spawn(move || {
                        std::thread::sleep(delay);
                        token.cancel();
                    }))
                } else {
                    None
                };

                let t0 = Instant::now();
                match round % 3 {
                    0 => {
                        let outcome =
                            cycles_through_edge_governed(&graph, back_edge, big, &governor);
                        if let Outcome::Exhausted { partial, reason: _ } = &outcome {
                            assert!(partial.len() <= full.len());
                            assert_eq!(&full[..partial.len()], &partial[..], "unsound prefix");
                        }
                    }
                    1 => {
                        let from = schema.types().lookup("t0").unwrap();
                        let to = schema.types().lookup("t4").unwrap();
                        let _ = all_simple_paths_governed(
                            &graph,
                            from,
                            to,
                            &HashSet::new(),
                            big,
                            &governor,
                        );
                    }
                    _ => {
                        // AMS over the bomb: must stop, never hang.
                        let _ = minimal_schema_governed(&schema, PathLimits::default(), &governor);
                    }
                }
                let elapsed = t0.elapsed();
                if let Some(d) = deadline {
                    if elapsed > d + DEADLINE_TOLERANCE {
                        overshoots.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Some(h) = canceller {
                    h.join().unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(
        overshoots.load(Ordering::Relaxed),
        0,
        "deadline overshoots past tolerance"
    );
}

fn university() -> Database {
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .function("pupil", "faculty", "student", "many-many")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let (t, c, p) = (
        db.resolve("teach").unwrap(),
        db.resolve("class_list").unwrap(),
        db.resolve("pupil").unwrap(),
    );
    db.register_derived(
        p,
        vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).unwrap()],
    )
    .unwrap();
    db
}

/// Typed-shedding chaos on the shared database: a tight overload policy,
/// concurrent writers/readers/governed queries. Every operation either
/// succeeds or fails with a *typed* overload/governor error; the store
/// stays consistent.
#[test]
fn chaos_shared_database_overload() {
    fdb::obs::flight::install_panic_hook();
    let shared = SharedDatabase::with_policy(
        university(),
        OverloadPolicy {
            lock_timeout: Duration::from_millis(25),
            max_inflight_writers: 3,
        },
    );
    let teach = shared.resolve("teach").unwrap();
    let class_list = shared.resolve("class_list").unwrap();
    let pupil = shared.resolve("pupil").unwrap();

    let shed = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = shared.clone();
        let shed = Arc::clone(&shed);
        let ok = Arc::clone(&ok);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (0x100 + t as u64));
            for i in 0..rounds() {
                match rng.gen_range(0..4u32) {
                    // Plain bounded write (may be shed).
                    0 => {
                        let r = h.insert(teach, v(format!("p{t}_{i}")), v(format!("c{}", i % 5)));
                        match r {
                            Ok(()) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(FdbError::Overloaded { .. }) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("untyped failure: {other:?}"),
                        }
                    }
                    // Governed write under a random (possibly dead) deadline.
                    1 => {
                        let gov =
                            Governor::with_deadline(Duration::from_millis(rng.gen_range(0..30u64)));
                        let r = h.with_governed(&gov, |db| {
                            db.insert(class_list, v(format!("c{}", i % 5)), v(format!("s{t}_{i}")))
                        });
                        match r {
                            Ok(inner) => {
                                inner.unwrap();
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(
                                FdbError::Overloaded { .. }
                                | FdbError::DeadlineExceeded(_)
                                | FdbError::Cancelled,
                            ) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("untyped failure: {other:?}"),
                        }
                    }
                    // Governed derived query with a small step budget.
                    2 => {
                        let budget = rng.gen_range(0..2_000u64);
                        let gov = Governor::with_max_steps(budget);
                        let outcome = h.read(|db| db.extension_governed(pupil, &gov)).unwrap();
                        // Partial or complete — either way sound rows only.
                        let rows = outcome.value();
                        h.read(|db| {
                            let full = db.extension(pupil).unwrap();
                            assert!(rows.iter().all(|r| full.contains(r)));
                        });
                    }
                    // Plain read.
                    _ => {
                        let _ = h.stats();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert!(shared.is_consistent());
    assert!(ok.load(Ordering::Relaxed) > 0, "every write was shed");
}

/// One whole transaction under a single lock hold: begin, a few writes,
/// then commit or (every fourth round) rollback. On any mid-frame error
/// the frame is rolled back best-effort so the handle is never left
/// poisoned for the next holder.
fn txn_round(ldb: &mut LoggedDatabase, t: usize, i: usize, commit: bool) -> Result<(), FdbError> {
    ldb.begin()?;
    let r = (|| {
        for j in 0..3 {
            ldb.insert(
                "teach",
                v(format!("txn{t}_{i}_{j}")),
                v(format!("c{}", (i + j) % 4)),
            )?;
        }
        if commit {
            ldb.commit()
        } else {
            ldb.rollback()
        }
    })();
    if r.is_err() && ldb.txn_active() {
        let _ = ldb.rollback();
    }
    r
}

/// Transactional chaos through `retry_on_overload`: concurrent workers
/// each run whole BEGIN..COMMIT/ROLLBACK frames under a tight lock
/// timeout and injected fsync faults, retrying shed attempts with
/// jittered backoff bounded by the governor's remaining deadline. Every
/// failure must be typed, committed work must survive replay, and
/// rolled-back work must leave no trace.
#[test]
fn chaos_transactions_with_overload_retry() {
    fdb::obs::flight::install_panic_hook();
    let disk = Arc::new(SimDisk::new());
    let mut ldb = LoggedDatabase::create_with(
        disk.clone(),
        "/chaos_txn_db",
        DurabilityConfig {
            sync_policy: SyncPolicy::EveryN(4),
            checkpoint_every: Some(32),
            segment_max_bytes: 4096,
        },
    )
    .unwrap();
    ldb.import_schema(&university()).unwrap();
    let shared = SharedLoggedDatabase::with_policy(
        ldb,
        OverloadPolicy {
            lock_timeout: Duration::from_millis(5),
            // Live on the durable handle: with THREADS = 6 the third
            // concurrent attempt is rejected at the gate at once, by
            // design — `retry_on_overload` below backs off and retries.
            max_inflight_writers: 2,
        },
    );
    for k in 1..8u64 {
        disk.fail_sync(k * 11);
    }

    let committed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = shared.clone();
        let committed = Arc::clone(&committed);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (0x300 + t as u64));
            for i in 0..rounds() {
                let gov = Governor::with_deadline(Duration::from_millis(rng.gen_range(20..120u64)));
                let commit = i % 4 != 3;
                match h.retry_on_overload(&gov, 5, |ldb| txn_round(ldb, t, i, commit)) {
                    Ok(()) => {
                        if commit {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Exhausted retries, a shed past the deadline, an
                    // injected fsync fault mid-frame (aborting the
                    // transaction), or a raw mapped I/O error — all typed.
                    Err(
                        FdbError::Overloaded { .. }
                        | FdbError::DeadlineExceeded(_)
                        | FdbError::TxnAborted { .. }
                        | FdbError::Internal(_),
                    ) => {}
                    Err(other) => panic!("untyped failure: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }

    assert!(shared.is_consistent());
    assert!(
        committed.load(Ordering::Relaxed) > 0,
        "every transaction was shed or aborted"
    );
    let live = shared.read(|db| db.to_snapshot().unwrap());
    drop(shared.try_unwrap().expect("last handle"));
    let (recovered, report) =
        LoggedDatabase::open_with(disk, "/chaos_txn_db", DurabilityConfig::default()).unwrap();
    assert!(!recovered.txn_active(), "recovery left a frame open");
    assert_eq!(
        recovered.database().to_snapshot().unwrap(),
        live,
        "recovered state disagrees with live state ({report:?})"
    );
}

/// Disk-fault chaos on the logged shared handle: injected sync failures
/// and governed syncs racing concurrent writers. Failures must be typed;
/// whatever survives must replay to the live state.
#[test]
fn chaos_logged_database_with_disk_faults() {
    fdb::obs::flight::install_panic_hook();
    let disk = Arc::new(SimDisk::new());
    let mut ldb = LoggedDatabase::create_with(
        disk.clone(),
        "/chaos_db",
        DurabilityConfig {
            sync_policy: SyncPolicy::EveryN(8),
            checkpoint_every: Some(64),
            segment_max_bytes: 4096,
        },
    )
    .unwrap();
    ldb.import_schema(&university()).unwrap();
    let shared = SharedLoggedDatabase::with_policy(
        ldb,
        OverloadPolicy {
            lock_timeout: Duration::from_millis(50),
            // Live on the durable handle; 8 > THREADS, so admission never
            // sheds here and every `Overloaded` is a lock timeout.
            max_inflight_writers: 8,
        },
    );

    // Inject sporadic sync failures ahead of the run.
    for k in 1..6u64 {
        disk.fail_sync(k * 7);
    }

    let mut handles = Vec::new();
    for t in 0..4 {
        let h = shared.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SEED ^ (0x200 + t as u64));
            for i in 0..rounds() {
                match rng.gen_range(0..3u32) {
                    0 => {
                        // Inserts may fail on an injected sync error or be
                        // shed — both are typed; nothing may panic.
                        match h.insert("teach", v(format!("p{t}_{i}")), v(format!("c{}", i % 4))) {
                            // Internal carries the WAL's mapped I/O error
                            // for an injected sync failure.
                            Ok(())
                            | Err(FdbError::Overloaded { .. })
                            | Err(FdbError::Internal(_)) => {}
                            Err(other) => panic!("untyped failure: {other:?}"),
                        }
                    }
                    1 => {
                        let gov =
                            Governor::with_deadline(Duration::from_millis(rng.gen_range(0..20u64)));
                        match h.sync_governed(&gov) {
                            Ok(())
                            | Err(FdbError::Overloaded { .. })
                            | Err(FdbError::DeadlineExceeded(_))
                            | Err(FdbError::Cancelled)
                            | Err(FdbError::Internal(_)) => {}
                            Err(other) => panic!("untyped failure: {other:?}"),
                        }
                    }
                    _ => {
                        let _ = h.stats();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }

    // Whatever got through must be a consistent, replayable state.
    assert!(shared.is_consistent());
    let live = shared.read(|db| db.to_snapshot().unwrap());
    drop(shared.try_unwrap().expect("last handle"));
    let (recovered, _report) =
        LoggedDatabase::open_with(disk, "/chaos_db", DurabilityConfig::default()).unwrap();
    assert_eq!(recovered.database().to_snapshot().unwrap(), live);
}
