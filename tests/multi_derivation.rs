//! Derived functions with *multiple* derivations (cyclic function
//! graphs, §2.2: "In the case of cyclic function graphs there can be
//! multiple derivations for a derived function").
//!
//! Semantics under test: truth is the three-valued OR over all
//! derivations; a derived delete negates the chains of *every*
//! derivation (otherwise the fact would remain derivable — a missed
//! effect); a derived insert needs only one witness chain, chosen by the
//! insert policy.

use fdb::core::database::InsertPolicy;
use fdb::core::Database;
use fdb::storage::Truth;
use fdb::types::{Derivation, Schema, Step, Value};

fn v(s: &str) -> Value {
    Value::atom(s)
}

/// reaches: a → c, derivable both via hop1 o hop2 and via direct.
fn diamond() -> Database {
    let schema = Schema::builder()
        .function("hop1", "a", "b", "many-many")
        .function("hop2", "b", "c", "many-many")
        .function("direct", "a", "c", "many-many")
        .function("reaches", "a", "c", "many-many")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let (h1, h2, d, r) = (
        db.resolve("hop1").unwrap(),
        db.resolve("hop2").unwrap(),
        db.resolve("direct").unwrap(),
        db.resolve("reaches").unwrap(),
    );
    db.register_derived(
        r,
        vec![
            Derivation::new(vec![Step::identity(h1), Step::identity(h2)]).unwrap(),
            Derivation::single(Step::identity(d)),
        ],
    )
    .unwrap();
    db
}

#[test]
fn truth_is_or_over_derivations() {
    let mut db = diamond();
    let (h1, h2, d, r) = (
        db.resolve("hop1").unwrap(),
        db.resolve("hop2").unwrap(),
        db.resolve("direct").unwrap(),
        db.resolve("reaches").unwrap(),
    );
    // Witness only via the two-hop derivation.
    db.insert(h1, v("x"), v("m")).unwrap();
    db.insert(h2, v("m"), v("z")).unwrap();
    assert_eq!(db.truth(r, &v("x"), &v("z")).unwrap(), Truth::True);
    // Witness only via the direct derivation.
    db.insert(d, v("x2"), v("z2")).unwrap();
    assert_eq!(db.truth(r, &v("x2"), &v("z2")).unwrap(), Truth::True);
    // Extension unions both.
    let ext = db.extension(r).unwrap();
    assert_eq!(ext.len(), 2);
}

#[test]
fn derived_delete_negates_all_derivations() {
    let mut db = diamond();
    let (h1, h2, d, r) = (
        db.resolve("hop1").unwrap(),
        db.resolve("hop2").unwrap(),
        db.resolve("direct").unwrap(),
        db.resolve("reaches").unwrap(),
    );
    // Both derivations witness (x, z).
    db.insert(h1, v("x"), v("m")).unwrap();
    db.insert(h2, v("m"), v("z")).unwrap();
    db.insert(d, v("x"), v("z")).unwrap();
    assert_eq!(db.truth(r, &v("x"), &v("z")).unwrap(), Truth::True);

    db.delete(r, &v("x"), &v("z")).unwrap();
    // One NC per chain: the 2-hop chain and the direct fact.
    assert_eq!(db.store().ncs().len(), 2);
    assert_eq!(db.truth(r, &v("x"), &v("z")).unwrap(), Truth::False);
    // All three base facts are ambiguous, none deleted.
    assert_eq!(db.stats().base_facts, 3);
    assert_eq!(db.stats().ambiguous_facts, 3);
    assert!(db.is_consistent());
}

#[test]
fn reasserting_one_chain_reopens_the_question() {
    let mut db = diamond();
    let (h1, h2, d, r) = (
        db.resolve("hop1").unwrap(),
        db.resolve("hop2").unwrap(),
        db.resolve("direct").unwrap(),
        db.resolve("reaches").unwrap(),
    );
    db.insert(h1, v("x"), v("m")).unwrap();
    db.insert(h2, v("m"), v("z")).unwrap();
    db.insert(d, v("x"), v("z")).unwrap();
    db.delete(r, &v("x"), &v("z")).unwrap();

    // Re-asserting the direct base fact dismantles its NC and makes the
    // derived fact true again through that derivation — the two-hop NC
    // still stands, its members still ambiguous.
    db.insert(d, v("x"), v("z")).unwrap();
    assert_eq!(db.truth(r, &v("x"), &v("z")).unwrap(), Truth::True);
    assert_eq!(db.store().ncs().len(), 1);
    assert_eq!(db.stats().ambiguous_facts, 2);
    assert!(db.is_consistent());
}

#[test]
fn insert_policy_controls_witness_shape() {
    // FirstDerivation: 2-hop NVC with one null. ShortestDerivation: the
    // direct fact, no null.
    let mut db = diamond();
    let r = db.resolve("reaches").unwrap();
    db.insert(r, v("p"), v("q")).unwrap();
    assert_eq!(db.store().nulls().generated(), 1);

    let mut db = diamond();
    db.set_insert_policy(InsertPolicy::ShortestDerivation);
    let (d, r) = (
        db.resolve("direct").unwrap(),
        db.resolve("reaches").unwrap(),
    );
    db.insert(r, v("p"), v("q")).unwrap();
    assert_eq!(db.store().nulls().generated(), 0);
    assert!(db.store().table(d).contains(&v("p"), &v("q")));
    assert_eq!(db.truth(r, &v("p"), &v("q")).unwrap(), Truth::True);
}

#[test]
fn delete_then_insert_round_trip_with_multiple_derivations() {
    let mut db = diamond();
    let (h1, h2, r) = (
        db.resolve("hop1").unwrap(),
        db.resolve("hop2").unwrap(),
        db.resolve("reaches").unwrap(),
    );
    db.insert(h1, v("x"), v("m")).unwrap();
    db.insert(h2, v("m"), v("z")).unwrap();
    db.delete(r, &v("x"), &v("z")).unwrap();
    assert_eq!(db.truth(r, &v("x"), &v("z")).unwrap(), Truth::False);
    // Derived insert: no NVC exists (the concrete chain is not an NVC),
    // so a fresh NVC is created through the first derivation; the fact is
    // true again while the old chain's NC still stands.
    db.insert(r, v("x"), v("z")).unwrap();
    assert_eq!(db.truth(r, &v("x"), &v("z")).unwrap(), Truth::True);
    assert_eq!(db.store().ncs().len(), 1);
    assert!(db.is_consistent());
}

mod common;

/// Set-at-a-time pair evaluation over *two* derivations of one function
/// equals the interpreter's per-pair answers: the evidence of both
/// derivations lands in one verdict per pair, and a wildcard chain of one
/// derivation lifts pairs only the other one discovered.
#[test]
fn pair_evaluation_over_two_derivations_matches_interpreter() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x0fdb_d1a3);
    let mut tally = common::Tally::default();
    for case in 0..common::planner_cases() {
        // The diamond, plus `onward: b -> c` derivable as `hop2` or as
        // `alt`: a null-valued chain inserted through `reaches` leaves
        // `hop2(n, z)` rows, which are wildcards for `onward`.
        let schema = Schema::builder()
            .function("hop1", "a", "b", "many-many")
            .function("hop2", "b", "c", "many-many")
            .function("direct", "a", "c", "many-many")
            .function("alt", "b", "c", "many-many")
            .function("reaches", "a", "c", "many-many")
            .function("onward", "b", "c", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let [h1, h2, d, alt, reaches, onward] =
            ["hop1", "hop2", "direct", "alt", "reaches", "onward"].map(|f| db.resolve(f).unwrap());
        db.register_derived(
            reaches,
            vec![
                Derivation::new(vec![Step::identity(h1), Step::identity(h2)]).unwrap(),
                Derivation::single(Step::identity(d)),
            ],
        )
        .unwrap();
        db.register_derived(
            onward,
            vec![
                Derivation::single(Step::identity(h2)),
                Derivation::single(Step::identity(alt)),
            ],
        )
        .unwrap();
        let domain = rng.gen_range(3..8usize);
        fdb::workload::instance_gen::populate(
            &mut db,
            u64::from(case),
            rng.gen_range(5..30),
            domain,
        );
        let mut value = |ty: &str| Value::atom(format!("{ty}#{}", rng.gen_range(0..domain)));
        for _ in 0..3 {
            db.insert(reaches, value("a"), value("c")).unwrap();
        }
        for f in [reaches, onward, reaches, onward] {
            let ext = db.extension(f).unwrap();
            if let Some(p) = ext.get(case as usize % ext.len().max(1)) {
                db.delete(f, &p.x, &p.y).unwrap();
            }
        }
        for f in [reaches, onward] {
            common::assert_pairs_match_interpreter(
                db.store(),
                db.derivations(f),
                &mut tally,
                &format!("case {case}, function {f:?}"),
            );
        }
    }
    println!("{tally:?}");
    assert!(tally.compared > tally.capped, "{tally:?}");
    assert!(tally.with_null_endpoints > 0, "{tally:?}");
    assert!(tally.with_ncs > 0, "{tally:?}");
    assert!(tally.ambiguous_pairs > 0, "{tally:?}");
}

/// The durable path keeps every derivation of a function: a second
/// logged `derive` adds to the first (as a second `DERIVE` does in the
/// language engine) on the live database, after recovery, and on a
/// replica that tailed the log.
#[test]
fn a_second_logged_derive_adds_to_the_first() {
    use fdb::core::{DurabilityConfig, LoggedDatabase, SimDisk, WalStorage};
    use fdb::repl::{Replica, ReplicationSource};
    use std::sync::Arc;

    let storage: Arc<dyn WalStorage> = Arc::new(SimDisk::new());
    let (mut ldb, _) =
        LoggedDatabase::open_with(Arc::clone(&storage), "/p", DurabilityConfig::default()).unwrap();
    for (name, domain, range) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("advises", "faculty", "student"),
        ("pupil", "faculty", "student"),
    ] {
        ldb.declare(name, domain, range, "many-many".parse().unwrap())
            .unwrap();
    }
    ldb.derive("pupil", &[("teach", false), ("class_list", false)])
        .unwrap();
    ldb.derive("pupil", &[("advises", false)]).unwrap();
    ldb.insert("teach", v("euclid"), v("math")).unwrap();
    ldb.insert("class_list", v("math"), v("john")).unwrap();

    let both_derivations_answer = |db: &Database, what: &str| {
        let pupil = db.resolve("pupil").unwrap();
        let rendered: Vec<String> = db
            .derivations(pupil)
            .iter()
            .map(|d| d.render(db.schema()))
            .collect();
        assert_eq!(rendered, ["teach o class_list", "advises"], "{what}");
        assert_eq!(
            db.truth(pupil, &v("euclid"), &v("john")).unwrap(),
            Truth::True,
            "{what}"
        );
    };
    both_derivations_answer(ldb.database(), "live");

    let mut replica = Replica::open(Arc::clone(&storage), "/r").unwrap();
    let batch = ReplicationSource::for_primary(&ldb)
        .poll(replica.next_seq(), 10_000)
        .unwrap();
    replica.apply_batch(&batch).unwrap();
    both_derivations_answer(replica.database(), "replica");
    assert_eq!(
        replica.database().to_snapshot().unwrap(),
        ldb.database().to_snapshot().unwrap()
    );

    drop(ldb);
    let (recovered, report) =
        LoggedDatabase::open_with(storage, "/p", DurabilityConfig::default()).unwrap();
    assert!(report.corruption.is_empty());
    both_derivations_answer(recovered.database(), "recovered");
}

/// `import_schema` logs every derivation of the source, so a database
/// with a two-derivation function comes back from recovery byte-equal.
#[test]
fn import_schema_round_trips_every_derivation_through_recovery() {
    use fdb::core::{DurabilityConfig, LoggedDatabase, SimDisk, WalStorage};
    use std::sync::Arc;

    let source = diamond();
    let storage: Arc<dyn WalStorage> = Arc::new(SimDisk::new());
    let mut ldb =
        LoggedDatabase::create_with(Arc::clone(&storage), "/d", DurabilityConfig::default())
            .unwrap();
    ldb.import_schema(&source).unwrap();
    let imported = ldb.database().to_snapshot().unwrap();
    assert_eq!(imported, source.to_snapshot().unwrap());
    drop(ldb);
    let (recovered, _) =
        LoggedDatabase::open_with(storage, "/d", DurabilityConfig::default()).unwrap();
    assert_eq!(recovered.database().to_snapshot().unwrap(), imported);
    let reaches = recovered.database().resolve("reaches").unwrap();
    assert_eq!(recovered.database().derivations(reaches).len(), 2);
}

/// The §2 outcome made durable: both derivations Method 2.1 confirmed for
/// `pupil` are in the log, not only the first.
#[test]
fn design_logged_database_keeps_every_confirmed_derivation() {
    use fdb::core::session::FunctionDecl;
    use fdb::core::{design_logged_database, DurabilityConfig, LoggedDatabase, SimDisk};
    use fdb::graph::{DesignConfig, ScriptedDesigner};
    use std::sync::Arc;

    let decls: Vec<FunctionDecl> = [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("advises", "faculty", "student"),
        ("pupil", "faculty", "student"),
    ]
    .iter()
    .map(|(n, d, r)| FunctionDecl::new(n, d, r, "many-many").unwrap())
    .collect();
    // `advises` closes a cycle the designer keeps; `pupil` is then
    // derivable both ways.
    let mut designer = ScriptedDesigner::new();
    designer.push_keep().push_decision_by_name("pupil");
    designer.default_confirm(true);
    let disk = Arc::new(SimDisk::new());
    let ldb = design_logged_database(
        &decls,
        &mut designer,
        DesignConfig::default(),
        disk.clone(),
        "/design",
        DurabilityConfig::default(),
    )
    .unwrap();
    let rendered = |db: &Database| -> Vec<String> {
        let pupil = db.resolve("pupil").unwrap();
        let mut all: Vec<String> = db
            .derivations(pupil)
            .iter()
            .map(|d| d.render(db.schema()))
            .collect();
        all.sort();
        all
    };
    assert_eq!(rendered(ldb.database()), ["advises", "teach o class_list"]);
    drop(ldb);
    let (recovered, _) =
        LoggedDatabase::open_with(disk, "/design", DurabilityConfig::default()).unwrap();
    assert_eq!(
        rendered(recovered.database()),
        ["advises", "teach o class_list"]
    );
}

/// A derivation that uses one function twice (`teach o teach^-1`) lets a
/// chain pass one row twice, and a derived delete of such a chain lists
/// one fact twice in its NC: `DELETE colleague(a, a)` negates `teach(a,
/// c)` itself. Coverage must count distinct chain rows against distinct
/// conjuncts — a count against the conjunct list's length calls
/// `colleague(a, b)` ambiguous. `TRUTH`, `QUERY`, `INVERSE` and `EXPLAIN`
/// answer as the interpreter does before the delete, after it, and after
/// its rollback.
#[test]
fn self_join_nc_is_counted_by_distinct_rows() {
    use fdb::lang::Engine;
    use fdb::storage::chain;

    fn run(engine: &mut Engine, line: &str) -> String {
        engine
            .execute_line(line)
            .unwrap_or_else(|e| panic!("`{line}` failed: {e}"))
    }
    fn set(head: String, members: impl Iterator<Item = (Value, Truth)>) -> String {
        let members: Vec<String> = members
            .map(|(v, t)| match t {
                Truth::Ambiguous => format!("{v}*"),
                _ => v.to_string(),
            })
            .collect();
        format!("{head} = {{{}}}", members.join(", "))
    }
    /// Every read statement over `colleague` against the interpreter.
    fn reads_match_interpreter(engine: &mut Engine, when: &str) {
        let db = engine.snapshot();
        let colleague = db.resolve("colleague").unwrap();
        let (store, derivations) = (db.store(), db.derivations(colleague));
        let limits = db.chain_limits();
        let extension = chain::derived_extension(store, derivations, limits);
        for x in ["a", "b"] {
            let query = run(engine, &format!("QUERY colleague({x})"));
            let image = extension
                .iter()
                .filter(|p| p.x == v(x))
                .map(|p| (p.y.clone(), p.truth));
            assert_eq!(
                query.trim(),
                set(format!("colleague({x})"), image),
                "{when}"
            );
            let inverse = run(engine, &format!("INVERSE colleague({x})"));
            let preimage = extension
                .iter()
                .filter(|p| p.y == v(x))
                .map(|p| (p.x.clone(), p.truth));
            assert_eq!(
                inverse.trim(),
                set(format!("colleague^-1({x})"), preimage),
                "{when}"
            );
            for y in ["a", "b"] {
                let truth = chain::derived_truth(store, derivations, &v(x), &v(y), limits);
                let said = run(engine, &format!("TRUTH colleague({x}, {y})"));
                assert_eq!(
                    said.trim(),
                    truth.flag().to_string(),
                    "{when}: colleague({x}, {y})"
                );
                let explained = run(engine, &format!("EXPLAIN colleague({x}, {y})"));
                let chains =
                    chain::chains_deriving(store, &derivations[0], &v(x), &v(y), true, limits);
                let negated = chains
                    .iter()
                    .filter(|c| store.ncs().chain_covers_some_nc(&c.facts))
                    .count();
                assert!(
                    explained.starts_with(&format!("verdict: {}\n", truth.flag())),
                    "{when}: {explained}"
                );
                assert_eq!(
                    explained.matches("\nchain ").count(),
                    chains.len(),
                    "{when}"
                );
                assert_eq!(
                    explained.matches("negated by an NC").count(),
                    negated,
                    "{when}: {explained}"
                );
            }
        }
    }

    let mut engine = Engine::new();
    for line in [
        "DECLARE teach: faculty -> course (many-many)",
        "DECLARE colleague: faculty -> faculty (many-many)",
        "DERIVE colleague = teach o teach^-1",
        "INSERT teach(a, c)",
        "INSERT teach(b, c)",
    ] {
        run(&mut engine, line);
    }
    reads_match_interpreter(&mut engine, "before the delete");
    assert_eq!(run(&mut engine, "TRUTH colleague(a, b)").trim(), "T");

    run(&mut engine, "BEGIN");
    run(&mut engine, "DELETE colleague(a, a)");
    let ncs = engine.database().store().ncs();
    let (id, conjuncts) = ncs.iter().next().expect("the delete made an NC");
    assert_eq!(conjuncts.len(), 2);
    assert_eq!(ncs.distinct_conjuncts(id), Some(1));
    reads_match_interpreter(&mut engine, "after the delete");
    assert_eq!(run(&mut engine, "TRUTH colleague(a, b)").trim(), "F");
    assert_eq!(run(&mut engine, "TRUTH colleague(b, b)").trim(), "T");

    run(&mut engine, "ROLLBACK");
    assert!(engine.database().store().ncs().is_empty());
    reads_match_interpreter(&mut engine, "after the rollback");
    assert_eq!(run(&mut engine, "TRUTH colleague(a, b)").trim(), "T");
}
