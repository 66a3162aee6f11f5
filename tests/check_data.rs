//! End-to-end tests of the data-aware analysis surface: the `DISCOVER`
//! golden output, `CHECK DATA` rendering, and the plan/result-cache
//! invalidation protocol for non-genuine assumptions.

use fdb::lang::Engine;
use fdb::obs::registry;

mod common;
use common::run_script;

#[test]
fn discover_output_is_byte_stable() {
    let (_, discover) = run_script("tests/scripts/discover_store.fdb");
    let golden =
        std::fs::read_to_string("tests/scripts/discover_store.golden").expect("golden file exists");
    assert!(
        discover == golden,
        "DISCOVER output drifted from the golden file.\n--- expected ---\n{golden}\n--- actual ---\n{discover}"
    );
    // Byte-stability includes a second run over the same store.
    let (mut engine, _) = run_script("tests/scripts/discover_store.fdb");
    let again = engine.execute_line("DISCOVER").expect("DISCOVER reruns");
    assert_eq!(again, golden);
}

#[test]
fn check_data_renders_fdb05x_diagnostics() {
    let (mut engine, _) = run_script("tests/scripts/discover_store.fdb");
    let out = engine.execute_line("CHECK DATA").expect("CHECK DATA runs");
    assert!(out.contains("FDB050"), "{out}");
    assert!(out.contains("FDB051"), "{out}");
    assert!(out.contains("FDB052"), "{out}");
    assert!(
        out.contains("minimal repair: delete office(euclid, e202)"),
        "{out}"
    );

    // An empty engine is data-clean.
    let mut empty = Engine::new();
    assert_eq!(empty.execute_line("CHECK DATA").unwrap(), "data-clean\n");
}

#[test]
fn nongenuine_invalidation_clears_the_result_cache() {
    // pupil = teach o class_list; office is OUTSIDE pupil's support set.
    let mut e = Engine::new();
    for line in [
        "DECLARE teach: faculty -> course (many-many)",
        "DECLARE class_list: course -> student (many-many)",
        "DECLARE pupil: faculty -> student (many-many)",
        "DECLARE office: faculty -> room (many-many)",
        "DERIVE pupil = teach o class_list",
        "INSERT teach(euclid, math)",
        "INSERT class_list(math, john)",
        "INSERT office(euclid, e101)",
        "INSERT office(laplace, l7)",
    ] {
        e.execute_line(line).unwrap();
    }
    // Warm the cache and prove a hit.
    assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
    assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
    assert_eq!(e.cache_stats().local.hits, 1);

    // DISCOVER installs assumptions (office's 2 rows are one-one).
    e.execute_line("DISCOVER").unwrap();
    assert!(!e.nongenuine().is_empty());

    // A write outside pupil's support set normally keeps the cache warm…
    let before = registry().check_nongenuine_invalidations.get();
    e.execute_line("INSERT office(euclid, e202)").unwrap();
    // …but it violates `office is functional`: the assumption drops,
    // the invalidation is counted, and the cache is cleared wholesale
    // (plans compiled under the assumption are no longer trustworthy).
    let delta = registry().check_nongenuine_invalidations.get() - before;
    assert_eq!(delta, 1, "exactly the functional direction drops");
    assert!(!e
        .nongenuine()
        .active()
        .any(|a| a.kind == fdb::exec::FdKind::Functional
            && e.database().schema().function(a.function).name == "office"));

    // The cached pupil answer is gone: same query misses and recomputes.
    let misses = e.cache_stats().local.misses;
    assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
    assert_eq!(e.cache_stats().local.misses, misses + 1);
    assert_eq!(e.cache_stats().local.hits, 1, "no new hits");

    // CHECK DATA reports the invalidation as FDB053.
    let out = e.execute_line("CHECK DATA").unwrap();
    assert!(out.contains("FDB053"), "{out}");
    assert!(out.contains("office is functional"), "{out}");
}

#[test]
fn non_violating_writes_keep_assumptions_and_cache_semantics() {
    let mut e = Engine::new();
    for line in [
        "DECLARE teach: faculty -> course (many-many)",
        "DECLARE pupilless: faculty -> room (many-many)",
        "INSERT teach(euclid, math)",
        "INSERT teach(laplace, stat)",
    ] {
        e.execute_line(line).unwrap();
    }
    e.execute_line("DISCOVER").unwrap();
    let n = e.nongenuine().len();
    assert!(n > 0);
    // A write that preserves both single-valuedness directions refreshes
    // the assumptions instead of dropping them.
    e.execute_line("INSERT teach(gauss, algebra)").unwrap();
    assert_eq!(e.nongenuine().len(), n);
    let out = e.execute_line("CHECK DATA").unwrap();
    assert!(!out.contains("FDB053"), "{out}");
}
