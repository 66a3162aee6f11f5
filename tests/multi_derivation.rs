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
