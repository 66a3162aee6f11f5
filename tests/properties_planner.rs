//! Planner/executor equivalence properties: the plan/execute pipeline in
//! `fdb-exec` must be observationally identical to the recursive
//! interpreter in `fdb::storage::chain` on complete runs, whatever
//! direction the cost model picks.
//!
//! * Truth: `exec::derived_truth` equals `chain::derived_truth` on
//!   random chain databases with random inverse steps, for hits, misses
//!   and ambiguous facts alike.
//! * Extension: the full pair lists are equal (both are sorted and
//!   deduplicated).
//! * Pair evaluation: extension, every image and every inverse image —
//!   over every contiguous run of the chain's steps, so that the interior
//!   nulls of a null-valued chain turn up as chain *endpoints* — equal
//!   the interpreter's extension, filtered. Under a step budget every
//!   reported pair carries the truth it has in the full answer.
//! * Delete: negating the same derived fact through either path creates
//!   NCs with the same ids and leaves byte-identical stores.
//! * Governed truth: a stopped planner run reports a sound *lower
//!   bound* in the `False < Ambiguous < True` order, and a `Complete`
//!   outcome equals the ungoverned answer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::Database;
use fdb::governor::Governor;
use fdb::storage::{chain, ChainLimits, Truth};
use fdb::types::{Derivation, Schema, Step, Value};
use fdb::workload::instance_gen::populate;

mod common;
use common::{assert_pairs_match_interpreter, planner_cases, Tally};

/// A random composition chain `top = s0 o … o s{k-1}` where each step is
/// independently an identity or an inverse (the function's declared
/// endpoints are flipped so the derivation still types out), populated
/// with random facts sharing per-type domains so joins actually meet.
/// Some steps reuse the function of the step before them with the
/// opposite orientation (`f o f^-1`, a self-join), and then lead back to
/// that step's starting type: a chain through them can pass one row
/// twice, and a derived delete of it lists one fact twice in its NC.
/// Every shorter contiguous run of steps `from..to` is a derived function
/// too (`run{from}_{to}`), and partial information of both kinds is
/// planted through them: derived inserts leave null-valued chains —
/// whose interior nulls are *endpoints* for the runs that start or end
/// inside them — and derived deletes leave NCs of every length.
fn random_chain_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..=4usize);
    let mut inverted: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
    // Which steps reuse the function before them, drawn apart so that the
    // instances without a reuse stay the ones these seeds always drew.
    let mut reuse_rng = StdRng::seed_from_u64(seed ^ 0x7e57_5e1f);
    let reuses: Vec<bool> = (0..k).map(|i| i > 0 && reuse_rng.gen_bool(0.3)).collect();
    // The function each step reads, and the type at each step boundary.
    let mut function_of: Vec<usize> = Vec::with_capacity(k);
    let mut types: Vec<String> = vec!["v0".to_owned()];
    for i in 0..k {
        if reuses[i] {
            function_of.push(function_of[i - 1]);
            inverted[i] = !inverted[i - 1];
            types.push(types[i - 1].clone());
        } else {
            function_of.push(i);
            types.push(format!("v{}", i + 1));
        }
    }
    let run_name = |from: usize, to: usize| {
        if (from, to) == (0, k) {
            "top".to_owned()
        } else {
            format!("run{from}_{to}")
        }
    };
    let runs: Vec<(usize, usize)> = (0..k)
        .flat_map(|from| (from + 1..=k).map(move |to| (from, to)))
        .collect();
    let mut builder = Schema::builder();
    for i in (0..k).filter(|&i| !reuses[i]) {
        let (d, r) = if inverted[i] { (i + 1, i) } else { (i, i + 1) };
        builder = builder.function(&format!("f{i}"), &types[d], &types[r], "many-many");
    }
    for &(from, to) in &runs {
        builder = builder.function(&run_name(from, to), &types[from], &types[to], "many-many");
    }
    let schema = builder.build().expect("generated schema is valid");
    let mut db = Database::new(schema);
    let steps: Vec<Step> = inverted
        .iter()
        .enumerate()
        .map(|(i, inv)| {
            let f = db
                .resolve(&format!("f{}", function_of[i]))
                .expect("declared");
            if *inv {
                Step::inverse(f)
            } else {
                Step::identity(f)
            }
        })
        .collect();
    for &(from, to) in &runs {
        let run = db.resolve(&run_name(from, to)).expect("declared");
        let derivation = Derivation::new(steps[from..to].to_vec()).expect("typed chain");
        db.register_derived(run, vec![derivation])
            .expect("run derivable");
    }
    let top = db.resolve("top").expect("declared");
    let facts = rng.gen_range(10..80usize);
    let domain = rng.gen_range(3..12usize);
    populate(&mut db, seed ^ 0x9e37_79b9, facts, domain);
    // Sprinkle partial information. Derived inserts between values the
    // tables already join on thread fresh nulls through every step of
    // the run, and a null links ambiguously to every row next to it…
    for _ in 0..rng.gen_range(0..=3usize) {
        let (from, to) = runs[rng.gen_range(0..runs.len())];
        let run = db.resolve(&run_name(from, to)).expect("declared");
        let x = Value::atom(format!("{}#{}", types[from], rng.gen_range(0..domain)));
        let y = Value::atom(format!("{}#{}", types[to], rng.gen_range(0..domain)));
        db.insert(run, x, y).expect("derived insert");
    }
    // …and derived deletes create NCs, which downgrade some chains to
    // Ambiguous — the planner must agree on those too, not just on
    // all-True instances.
    for _ in 0..2 {
        let ext = db.extension(top).expect("extension computes");
        if let Some(p) = ext.iter().find(|p| p.truth == Truth::True) {
            let (x, y) = (p.x.clone(), p.y.clone());
            db.delete(top, &x, &y).expect("derived delete");
        }
    }
    for _ in 0..rng.gen_range(0..=3usize) {
        let (from, to) = runs[rng.gen_range(0..runs.len())];
        let run = db.resolve(&run_name(from, to)).expect("declared");
        let ext = db.extension(run).expect("extension computes");
        if !ext.is_empty() {
            let p = &ext[rng.gen_range(0..ext.len())];
            db.delete(run, &p.x, &p.y).expect("derived delete");
        }
    }
    db
}

fn rank(t: Truth) -> u8 {
    match t {
        Truth::False => 0,
        Truth::Ambiguous => 1,
        Truth::True => 2,
    }
}

/// Sample query endpoints: the shared-domain naming (`t#k`) means these
/// cover present, absent and cross-wired values.
fn probes(db: &Database, rng: &mut StdRng) -> Vec<(Value, Value)> {
    let schema = db.schema();
    let top = schema.function(db.resolve("top").expect("declared"));
    let (domain, range) = (schema.type_name(top.domain), schema.type_name(top.range));
    let mut out = Vec::new();
    for _ in 0..8 {
        out.push((
            Value::atom(format!("{domain}#{}", rng.gen_range(0..14))),
            Value::atom(format!("{range}#{}", rng.gen_range(0..14))),
        ));
    }
    out
}

/// Extension, image and inverse image through the planner's one pass per
/// derivation equal the interpreter's per-pair answers, on instances
/// with null facts, NCs and wildcard chains.
#[test]
fn pair_evaluation_matches_interpreter() {
    let mut rng = StdRng::seed_from_u64(0x0fdb_5e7a);
    let mut tally = Tally::default();
    for _ in 0..planner_cases() {
        let seed = rng.gen_range(0..10_000u64);
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let steps = db.derivations(top)[0].steps().to_vec();
        // Every contiguous run of steps, not just the registered `top`:
        // the runs that start or end inside a null-valued chain have its
        // nulls as endpoints, which is where wildcard chains come from.
        for from in 0..steps.len() {
            for to in from + 1..=steps.len() {
                let run = Derivation::new(steps[from..to].to_vec()).expect("typed run");
                assert_pairs_match_interpreter(
                    db.store(),
                    &[run],
                    &mut tally,
                    &format!("seed {seed}, steps {from}..{to}"),
                );
            }
        }
    }
    // The comparison must not go vacuous: most instances are kept, and
    // the kept ones hold every kind of partial information.
    println!("{tally:?}");
    assert!(tally.compared > tally.capped, "{tally:?}");
    assert!(tally.with_nulls > 0, "{tally:?}");
    assert!(tally.with_ncs > 0, "{tally:?}");
    assert!(tally.with_null_endpoints > 0, "{tally:?}");
    assert!(tally.ambiguous_pairs > 0, "{tally:?}");
    assert!(tally.with_repeated_rows > 0, "{tally:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(planner_cases()))]

    /// Truth and extension through the planner equal the interpreter's.
    #[test]
    fn planner_matches_interpreter_on_truth_and_extension(seed in 0u64..10_000) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();
        // A capped prefix depends on the direction walked: only complete
        // enumerations are comparable.
        if !chain::derived_extension_governed(
            db.store(), &derivations, limits, &Governor::unbounded(),
        ).is_complete() {
            return Ok(());
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        for (x, y) in probes(&db, &mut rng) {
            prop_assert_eq!(
                fdb::exec::derived_truth(db.store(), &derivations, &x, &y, limits),
                chain::derived_truth(db.store(), &derivations, &x, &y, limits),
                "truth({x}, {y}) diverged on seed {seed}",
            );
        }
        prop_assert_eq!(
            fdb::exec::derived_extension(db.store(), &derivations, limits),
            chain::derived_extension(db.store(), &derivations, limits),
        );
    }

    /// Deleting the same derived fact through either path produces the
    /// same NC ids and byte-identical stores.
    #[test]
    fn planner_delete_matches_interpreter(seed in 0u64..10_000) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();
        let Some(target) = chain::derived_extension(db.store(), &derivations, limits)
            .into_iter()
            .next()
        else {
            return Ok(()); // empty extension: nothing to delete
        };

        for policy in [chain::DeletePolicy::Faithful, chain::DeletePolicy::Strict] {
            let mut s1 = db.store().clone();
            let mut s2 = db.store().clone();
            let ncs_interp = chain::derived_delete_with_policy(
                &mut s1, &derivations, &target.x, &target.y, policy, limits,
            );
            let ncs_exec = fdb::exec::derived_delete_with_policy(
                &mut s2, &derivations, &target.x, &target.y, policy, limits,
            );
            prop_assert_eq!(&ncs_interp, &ncs_exec, "NC ids diverged on seed {}", seed);
            common::assert_same_store(&s1, &s2, &format!("stores diverged on seed {seed}"));
        }
    }

    /// A governed planner run never overstates truth, and a `Complete`
    /// outcome equals the ungoverned answer.
    #[test]
    fn governed_truth_is_a_sound_lower_bound(
        seed in 0u64..10_000,
        steps in 0u64..200,
    ) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xc2b2_ae35);
        for (x, y) in probes(&db, &mut rng) {
            let full = fdb::exec::derived_truth(db.store(), &derivations, &x, &y, limits);
            let governed = fdb::exec::derived_truth_governed(
                db.store(), &derivations, &x, &y, limits,
                &Governor::with_max_steps(steps),
            );
            let complete = governed.is_complete();
            let got = governed.value();
            prop_assert!(
                rank(got) <= rank(full),
                "governed {got:?} overstates {full:?} on seed {seed}",
            );
            if complete {
                prop_assert_eq!(got, full);
            }
        }
    }
    /// A governed pair evaluation never reports a pair with a truth it
    /// does not have in the full answer, and a `Complete` outcome equals
    /// the ungoverned answer.
    #[test]
    fn governed_pairs_carry_their_final_truth(
        seed in 0u64..10_000,
        steps in 0u64..400,
    ) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();
        let store = db.store();

        let check = |what: &str,
                     outcome: fdb::governor::Outcome<Vec<chain::DerivedPair>>,
                     full: &[chain::DerivedPair]| {
            let complete = outcome.is_complete();
            let got = outcome.value();
            prop_assert!(
                got.iter().all(|p| full.contains(p)),
                "{what}: partial {got:?} not within {full:?} on seed {seed}, budget {steps}",
            );
            if complete {
                prop_assert_eq!(&got[..], full, "{} on seed {}, budget {}", what, seed, steps);
            }
            Ok(())
        };
        let budget = || Governor::with_max_steps(steps);
        let full = fdb::exec::derived_extension(store, &derivations, limits);
        check(
            "extension",
            fdb::exec::derived_extension_governed(store, &derivations, limits, &budget()),
            &full,
        )?;
        // `SHOW top`: the same enumeration behind the result cache, which
        // hands a partial through and remembers only a complete answer.
        let mut cache = fdb::exec::ResultCache::new();
        let show = cache
            .extension_or_compute(store, top, &derivations, || {
                Ok(fdb::exec::derived_extension_governed(store, &derivations, limits, &budget()))
            })
            .expect("the computation cannot fail");
        prop_assert_eq!(cache.report().extension_entries, usize::from(show.is_complete()));
        check("show", show, &full)?;
        if let Some(p) = full.get(seed as usize % full.len().max(1)) {
            check(
                "image",
                fdb::exec::derived_image_governed(store, &derivations, &p.x, limits, &budget()),
                &fdb::exec::derived_image(store, &derivations, &p.x, limits),
            )?;
            check(
                "inverse image",
                fdb::exec::derived_inverse_image_governed(
                    store, &derivations, &p.y, limits, &budget(),
                ),
                &fdb::exec::derived_inverse_image(store, &derivations, &p.y, limits),
            )?;
        }
    }
}
