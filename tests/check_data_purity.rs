//! The discovery pass must be read-only: mining a store for FDs,
//! repairs and candidate derivations never mutates it. As in
//! `check_purity.rs`, the observability registry doubles as the
//! side-effect detector, so this test runs in its own binary where no
//! other test's engine traffic races the process-wide counters.

use std::collections::BTreeMap;

use fdb::check::{discover, discovery_diagnostics, render_discovery_text};
use fdb::obs::registry;
use fdb::storage::Store;
use fdb::types::{Schema, Value};

fn mutation_counters() -> Vec<(&'static str, u64)> {
    let r = registry();
    vec![
        ("fdb.storage.base_inserts", r.storage_base_inserts.get()),
        ("fdb.storage.base_deletes", r.storage_base_deletes.get()),
        ("fdb.storage.ncs_created", r.storage_ncs_created.get()),
        ("fdb.storage.ncs_dismantled", r.storage_ncs_dismantled.get()),
        (
            "fdb.storage.null_substitutions",
            r.storage_null_substitutions.get(),
        ),
        ("fdb.storage.compactions", r.storage_compactions.get()),
        ("fdb.wal.appends", r.wal_appends.get()),
        ("fdb.wal.fsyncs", r.wal_fsyncs.get()),
        ("fdb.lang.statements", r.lang_statements.get()),
    ]
}

#[test]
fn discovery_is_pure_and_accounted() {
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("taught_by", "course", "faculty", "many-many")
        .function("office", "faculty", "room", "many-one")
        .build()
        .expect("schema builds");
    let teach = schema.resolve("teach").expect("teach");
    let taught_by = schema.resolve("taught_by").expect("taught_by");
    let office = schema.resolve("office").expect("office");
    let mut store = Store::new(schema.len());
    for (f, c) in [("euclid", "math"), ("laplace", "stat")] {
        store.base_insert(teach, Value::atom(f), Value::atom(c));
        store.base_insert(taught_by, Value::atom(c), Value::atom(f));
    }
    // A violated declaration, so the repair machinery runs too.
    store.base_insert(office, Value::atom("euclid"), Value::atom("e101"));
    store.base_insert(office, Value::atom("euclid"), Value::atom("e202"));

    let version = store.version();
    let before = mutation_counters();
    let runs_before = registry().check_discover_runs.get();

    let report = discover(&store, &schema, &BTreeMap::new());
    let text = render_discovery_text(&report, &schema);
    let diags = discovery_diagnostics(&report, &schema);

    // The pass found real work (FDs, a violation, candidates)…
    assert!(!report.fds.is_empty());
    assert_eq!(report.violations.len(), 1);
    assert!(!text.is_empty());
    assert!(!diags.is_empty());
    // …ran exactly once by its own accounting…
    assert_eq!(registry().check_discover_runs.get(), runs_before + 1);
    // …and mutated nothing: every write-side counter and the store
    // version are exactly where they were.
    assert_eq!(store.version(), version);
    let after = mutation_counters();
    for ((name, b), (_, a)) in before.iter().zip(after.iter()) {
        assert_eq!(b, a, "{name} moved during discovery");
    }
}
