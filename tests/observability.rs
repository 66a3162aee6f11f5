//! Observability surface: golden `EXPLAIN ANALYZE` output on the paper's
//! Example 1 derivation, and registry invariants (monotone counters,
//! `STATS RESET` zeroing) under random statement sequences.
//!
//! The metrics registry is process-global, so the tests in this file
//! serialize on a lock: monotonicity would survive interleaving (other
//! threads only increment), but the reset-zeroes assertion would not.

use std::sync::Mutex;

use proptest::prelude::*;

use fdb::lang::Engine;
use fdb::obs;

/// Serializes the tests in this binary around the global registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The paper's Example 1: `pupil = teach o class_list` with euclid and
/// laplace both teaching math to john and bill.
fn university() -> Engine {
    let mut e = Engine::new();
    for line in [
        "DECLARE teach: faculty -> course (many-many)",
        "DECLARE class_list: course -> student (many-many)",
        "DECLARE pupil: faculty -> student (many-many)",
        "DERIVE pupil = teach o class_list",
        "INSERT teach(euclid, math)",
        "INSERT teach(laplace, math)",
        "INSERT class_list(math, john)",
        "INSERT class_list(math, bill)",
    ] {
        e.execute_line(line).unwrap();
    }
    e
}

/// Drops every line containing the word "time" — the renderer isolates
/// all timing on such lines precisely so this filter leaves a stable,
/// byte-comparable report.
fn stable_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("time"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn explain_analyze_golden_output_on_example_1() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();

    let out = e
        .execute_line("EXPLAIN ANALYZE pupil(euclid, john)")
        .unwrap();
    assert_eq!(
        stable_lines(&out),
        "analyze pupil(euclid, john): verdict T, cache miss\n\
         \x20 derivation 1: teach o class_list — direction: forward, \
         est cost: 3.0, est chains: 1.0, actual chains: 1, exact true: 1, \
         nc-demoted: 0, governor steps: 3\n"
    );

    // Deleting the derived fact leaves partial information behind: the
    // chain still matches but is demoted by the recorded NC, and the
    // verdict flips to F. The report shows exactly that.
    e.execute_line("DELETE pupil(euclid, john)").unwrap();
    let out = e
        .execute_line("EXPLAIN ANALYZE pupil(euclid, john)")
        .unwrap();
    assert_eq!(
        stable_lines(&out),
        "analyze pupil(euclid, john): verdict F, cache miss\n\
         \x20 derivation 1: teach o class_list — direction: forward, \
         est cost: 3.0, est chains: 1.0, actual chains: 1, exact true: 0, \
         nc-demoted: 1, governor steps: 3\n"
    );

    // Base functions report the probe shape instead of a plan.
    let out = e
        .execute_line("EXPLAIN ANALYZE teach(euclid, math)")
        .unwrap();
    assert_eq!(
        stable_lines(&out),
        "analyze teach(euclid, math): verdict A, cache miss\n\
         \x20 teach is a base function: single index probe, no plan\n"
    );
}

#[test]
fn txn_counters_track_transaction_lifecycle() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();
    let get = |key: &str| {
        obs::registry()
            .snapshot()
            .counters
            .iter()
            .find(|c| c.key == key)
            .map(|c| c.value)
            .unwrap_or_else(|| panic!("registry has no counter {key}"))
    };
    let (b0, c0, r0, s0) = (
        get("fdb.txn.begins"),
        get("fdb.txn.commits"),
        get("fdb.txn.rollbacks"),
        get("fdb.txn.savepoint_rollbacks"),
    );
    e.execute_line("BEGIN").unwrap();
    e.execute_line("INSERT teach(noether, algebra)").unwrap();
    e.execute_line("SAVEPOINT s").unwrap();
    e.execute_line("INSERT teach(noether, logic)").unwrap();
    e.execute_line("ROLLBACK TO s").unwrap();
    e.execute_line("COMMIT").unwrap();
    e.execute_line("BEGIN").unwrap();
    e.execute_line("INSERT teach(galois, groups)").unwrap();
    e.execute_line("ROLLBACK").unwrap();
    assert_eq!(get("fdb.txn.begins"), b0 + 2);
    assert_eq!(get("fdb.txn.commits"), c0 + 1);
    assert_eq!(get("fdb.txn.rollbacks"), r0 + 1);
    assert_eq!(get("fdb.txn.savepoint_rollbacks"), s0 + 1);
}

/// `STATS RESET` starts a fresh observability epoch for spans too: the
/// trace ring, the open-span table and the slow-query log all clear, so
/// `SHOW TRACE` right after a reset reports nothing — including the
/// reset statement's own span, which was mid-flight when the ring
/// cleared and must not resurface when it closes.
#[test]
fn stats_reset_clears_trace_and_slow_log() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();
    e.execute_line("TRACE ON").unwrap();
    e.execute_line("TRUTH pupil(euclid, john)").unwrap();
    let out = e.execute_line("SHOW TRACE").unwrap();
    assert!(
        out.contains("fdb.lang.statement"),
        "expected spans before reset, got: {out}"
    );

    e.execute_line("STATS RESET").unwrap();
    let out = e.execute_line("SHOW TRACE").unwrap();
    assert_eq!(out, "no spans recorded\n");
    let out = e.execute_line("SHOW SLOW").unwrap();
    assert_eq!(out, "no slow statements recorded\n");

    // Restore the always-on default sampling for the rest of the binary.
    e.execute_line(&format!(
        "TRACE ON SAMPLE {}",
        obs::causal::DEFAULT_SAMPLE_RATE
    ))
    .unwrap();
}

/// Statement vocabulary for the random sequences: a mix of reads, writes,
/// introspection and one guaranteed parse error.
const VOCAB: &[&str] = &[
    "INSERT teach(euclid, math)",
    "INSERT class_list(math, john)",
    "INSERT class_list(physics, ada)",
    "DELETE pupil(euclid, john)",
    "DELETE class_list(math, john)",
    "TRUTH pupil(euclid, john)",
    "TRUTH pupil(laplace, bill)",
    "QUERY pupil(euclid)",
    "INVERSE pupil(john)",
    "SHOW teach",
    "EXPLAIN pupil(euclid, john)",
    "EXPLAIN PLAN pupil(euclid, john)",
    "EXPLAIN ANALYZE pupil(laplace, john)",
    "CHECK",
    "STATS",
    "THIS IS NOT A STATEMENT (",
    // Transaction control — sequences are rarely balanced, so these also
    // exercise the typed unbalanced-transaction errors (counted, like any
    // other semantic failure).
    "BEGIN",
    "SAVEPOINT s",
    "ROLLBACK TO s",
    "ROLLBACK",
    "COMMIT",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counters are monotonically non-decreasing across any statement
    /// sequence, and `STATS RESET` zeroes every one of them.
    #[test]
    fn counters_are_monotone_and_reset_zeroes(
        picks in prop::collection::vec(0usize..VOCAB.len(), 1..40),
    ) {
        let _guard = lock();
        obs::set_enabled(true);
        let mut e = university();
        let mut prev = obs::registry().snapshot();
        for &i in &picks {
            // Semantic and parse errors are fine — they are themselves
            // counted statements.
            let _ = e.execute_line(VOCAB[i]);
            let next = obs::registry().snapshot();
            for (p, n) in prev.counters.iter().zip(next.counters.iter()) {
                prop_assert_eq!(p.key, n.key);
                prop_assert!(
                    n.value >= p.value,
                    "counter {} went backwards: {} -> {}", n.key, p.value, n.value
                );
            }
            for (p, n) in prev.histograms.iter().zip(next.histograms.iter()) {
                prop_assert_eq!(p.key, n.key);
                prop_assert!(
                    n.state.count >= p.state.count,
                    "histogram {} count went backwards", n.key
                );
            }
            prev = next;
        }

        // `STATS RESET` zeroes the registry; the reset statement itself is
        // then the first statement of the fresh epoch, so the language
        // front end's own accounting may show exactly that one statement.
        e.execute_line("STATS RESET").unwrap();
        let zeroed = obs::registry().snapshot();
        for c in &zeroed.counters {
            let allowed = match c.key {
                "fdb.lang.statements" | "fdb.lang.rows_produced" => 1,
                _ => 0,
            };
            prop_assert!(
                c.value <= allowed,
                "counter {} survived STATS RESET at {}", c.key, c.value
            );
        }
        for h in &zeroed.histograms {
            let allowed = if h.key == "fdb.lang.statement_latency_ns" { 1 } else { 0 };
            prop_assert!(
                h.state.count <= allowed,
                "histogram {} survived STATS RESET", h.key
            );
        }
    }
}

/// `QUERY`/`INVERSE` on a *base* function read one index bucket: the
/// same pairs, in the same order, as filtering the sorted extension —
/// which is what they used to do, sorting the whole table per call.
#[test]
fn base_image_is_one_index_probe() {
    use fdb::core::Database;
    use fdb::governor::{Governor, Outcome};
    use fdb::types::{Derivation, Schema, Step, Value};

    let _guard = lock();
    obs::set_enabled(true);
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .function("pupil", "faculty", "student", "many-many")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let [teach, class_list, pupil] =
        ["teach", "class_list", "pupil"].map(|f| db.resolve(f).unwrap());
    db.register_derived(
        pupil,
        vec![Derivation::new(vec![Step::identity(teach), Step::identity(class_list)]).unwrap()],
    )
    .unwrap();
    fdb::workload::instance_gen::populate(&mut db, 7, 40, 6);
    // Null rows and ambiguous flags belong to a base table's image too.
    db.insert(pupil, Value::atom("faculty#0"), Value::atom("student#9"))
        .unwrap();
    let negated = db.extension(pupil).unwrap()[0].clone();
    db.delete(pupil, &negated.x, &negated.y).unwrap();

    let probes = || obs::registry().storage_index_probes.get();
    let absent = Value::atom("no-such-value");
    let unbounded = Governor::unbounded();
    for f in db.base_functions() {
        let extension = db.extension(f).unwrap();
        assert!(!extension.is_empty());
        for p in &extension {
            for x in [&p.x, &absent] {
                let before = probes();
                let image = db.image(f, x).unwrap();
                assert_eq!(probes() - before, 1, "image of {x}");
                let filtered: Vec<_> = extension
                    .iter()
                    .filter(|q| &q.x == x)
                    .map(|q| (q.y.clone(), q.truth))
                    .collect();
                assert_eq!(image, filtered, "image of {x}");
                assert_eq!(
                    db.image_governed(f, x, &unbounded).unwrap(),
                    Outcome::Complete(filtered)
                );
            }
            for y in [&p.y, &absent] {
                let before = probes();
                let inverse = db.inverse_image(f, y).unwrap();
                assert_eq!(probes() - before, 1, "inverse image of {y}");
                let filtered: Vec<_> = extension
                    .iter()
                    .filter(|q| &q.y == y)
                    .map(|q| (q.x.clone(), q.truth))
                    .collect();
                assert_eq!(inverse, filtered, "inverse image of {y}");
                assert_eq!(
                    db.inverse_image_governed(f, y, &unbounded).unwrap(),
                    Outcome::Complete(filtered)
                );
            }
        }
    }
}

/// `fdb.mvcc.stale_snapshot_reads` has one definition on both shared
/// handles: a pin taken while a writer is in flight. An idle handle's
/// pins are not stale; a pin taken while a write holds the engine is.
/// (A pin taken while a grouped write waits for its fsync is one too:
/// `shared.rs`'s unit tests stage that.)
#[test]
fn stale_snapshot_reads_count_pins_taken_during_a_write() {
    use fdb::core::{
        Database, DurabilityConfig, LoggedDatabase, Shared, SharedDatabase, SharedLoggedDatabase,
        SimDisk,
    };
    use fdb::types::{Schema, Value};

    fn pins_while_idle_and_while_writing<E: AsRef<Database>>(shared: &Shared<E>) -> (u64, u64) {
        let stale = || obs::registry().mvcc_stale_snapshot_reads.get();
        let before = stale();
        shared.pin();
        let idle = stale() - before;
        shared
            .with(|_engine| {
                shared.pin();
                shared.pin();
            })
            .unwrap();
        (idle, stale() - before - idle)
    }

    let _guard = lock();
    obs::set_enabled(true);
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .build()
        .unwrap();
    let in_memory = SharedDatabase::new(Database::new(schema.clone()));
    assert_eq!(pins_while_idle_and_while_writing(&in_memory), (0, 2));

    let disk = std::sync::Arc::new(SimDisk::new());
    let mut ldb = LoggedDatabase::create_with(disk, "/stale_db", DurabilityConfig::default())
        .expect("fresh log");
    ldb.import_schema(&Database::new(schema)).unwrap();
    let durable = SharedLoggedDatabase::new(ldb);
    assert_eq!(pins_while_idle_and_while_writing(&durable), (0, 2));

    // A grouped autocommit write pins nothing itself, and leaves no
    // writer in flight behind it.
    let stale = obs::registry().mvcc_stale_snapshot_reads.get();
    durable
        .insert("teach", Value::atom("euclid"), Value::atom("math"))
        .unwrap();
    assert_eq!(durable.stats().unwrap().base_facts, 1);
    assert_eq!(obs::registry().mvcc_stale_snapshot_reads.get(), stale);
}

/// `fdb.storage.cow_copies` counts the pieces a write copies because a
/// snapshot still shares them: a few after a publication, however large
/// the table, and none when nothing else holds the table.
#[test]
fn cow_copies_count_the_pieces_a_write_after_a_publication_copies() {
    use fdb::core::Database;
    use fdb::types::{Schema, Value};

    let _guard = lock();
    obs::set_enabled(true);
    let schema = Schema::builder()
        .function("class_list", "course", "student", "many-many")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let class_list = db.resolve("class_list").unwrap();
    for i in 0..5_000 {
        db.insert(
            class_list,
            Value::atom(format!("c{}", i % 97)),
            Value::atom(format!("s{i}")),
        )
        .unwrap();
    }
    let copies = || obs::registry().storage_cow_copies.get();
    let moved = |db: &mut Database, write: &dyn Fn(&mut Database)| {
        let before = copies();
        write(db);
        copies() - before
    };
    let insert = |i: u32| {
        move |db: &mut Database| {
            db.insert(
                class_list,
                Value::atom("c3"),
                Value::atom(format!("new{i}")),
            )
            .unwrap()
        }
    };
    let delete = |i: u32| {
        move |db: &mut Database| {
            let (x, y) = (
                Value::atom(format!("c{}", i % 97)),
                Value::atom(format!("s{i}")),
            );
            db.delete(class_list, &x, &y).unwrap()
        }
    };

    // After a publication: a chunk, a bitmap block and the three index
    // deltas at most for an insert; one bitmap block for a delete.
    let published = db.clone();
    let n = moved(&mut db, &insert(0));
    assert!(
        (1..=5).contains(&n),
        "insert after a publication copied {n}"
    );
    let published_again = db.clone();
    assert_eq!(moved(&mut db, &delete(10)), 1);
    drop((published, published_again));

    // Nothing else holds the table: nothing is copied.
    assert_eq!(moved(&mut db, &insert(1)), 0);
    assert_eq!(moved(&mut db, &delete(11)), 0);
}

/// `fdb.exec.ncl_entries_examined`: an NC-coverage check reads the NCLs
/// of the rows its chain walked, so one `TRUTH` over a chain with an NC'd
/// row examines as many NCL entries beside 1,000 unrelated NCs as beside
/// one. (A scan of every live NC grows with their number.)
#[test]
fn coverage_cost_is_independent_of_unrelated_ncs() {
    let examined_by_one_truth = |unrelated: usize| {
        let mut e = university();
        // g1 negates euclid → math → john: `teach(euclid, math)` is
        // ambiguous and carries g1, so the chain to bill needs a check.
        e.execute_line("DELETE pupil(euclid, john)").unwrap();
        for i in 0..unrelated {
            for line in [
                format!("INSERT teach(f{i}, c{i})"),
                format!("INSERT class_list(c{i}, s{i})"),
                format!("DELETE pupil(f{i}, s{i})"),
            ] {
                e.execute_line(&line).unwrap();
            }
        }
        assert_eq!(e.database().store().ncs().len(), 1 + unrelated);
        let examined = || obs::registry().exec_ncl_entries_examined.get();
        let before = examined();
        assert_eq!(
            e.execute_line("TRUTH pupil(euclid, bill)").unwrap().trim(),
            "A"
        );
        examined() - before
    };
    let _guard = lock();
    obs::set_enabled(true);
    let beside_one = examined_by_one_truth(1);
    assert!(beside_one > 0, "the chain carries an NC, so it was checked");
    assert_eq!(examined_by_one_truth(1_000), beside_one);
}
