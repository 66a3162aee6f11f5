//! The analyzer must be pure: analyzing a script touches no store, writes
//! no WAL, and executes nothing. The observability registry doubles as a
//! side-effect detector — after `analyze_script`, every mutation counter
//! must be exactly where it was, while the `fdb.check.*` counters account
//! for the run.
//!
//! This test runs in its own binary so no other test's engine traffic
//! races the process-wide registry.

use fdb::check::{analyze_script, CheckConfig};
use fdb::lang::parse_script;
use fdb::obs::registry;

/// Counters that move only when something actually mutates or executes.
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
        ("fdb.wal.checkpoints", r.wal_checkpoints.get()),
        ("fdb.lang.statements", r.lang_statements.get()),
        ("fdb.exec.rows_examined", r.exec_rows_examined.get()),
        ("fdb.exec.nc_demotions", r.exec_nc_demotions.get()),
    ]
}

#[test]
fn analysis_is_pure_and_accounted() {
    // A script exercising every pass: writes, derived writes, derived
    // deletes, reads, schema design findings and the cost pass.
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE class_list: course -> student (many-many)\n\
                  DECLARE pupil: faculty -> student (many-many)\n\
                  DERIVE pupil = teach o class_list\n\
                  INSERT teach(euclid, math)\n\
                  INSERT class_list(math, john)\n\
                  INSERT class_list(math, bill)\n\
                  DELETE pupil(euclid, john)\n\
                  QUERY pupil(euclid)\n\
                  INSERT pupil(gauss, bill)\n\
                  TRUTH pupil(euclid, bill)\n";
    let (stmts, errors) = parse_script(script, 1);
    assert!(errors.is_empty(), "{errors:?}");

    let before_mutations = mutation_counters();
    let r = registry();
    let runs0 = r.check_runs.get();
    let err0 = r.check_diags_error.get();
    let warn0 = r.check_diags_warn.get();
    let info0 = r.check_diags_info.get();

    let diags = analyze_script(&stmts, &CheckConfig::default());
    assert!(!diags.is_empty(), "the script has known findings");

    // Every mutation counter is untouched.
    for ((name, before), (_, after)) in before_mutations.iter().zip(mutation_counters().iter()) {
        assert_eq!(
            before, after,
            "analysis must not move {name} (before {before}, after {after})"
        );
    }

    // The run itself is accounted on the fdb.check.* counters.
    assert_eq!(r.check_runs.get(), runs0 + 1);
    let (e, w, i) = fdb::check::tally(&diags);
    assert_eq!(r.check_diags_error.get(), err0 + e as u64);
    assert_eq!(r.check_diags_warn.get(), warn0 + w as u64);
    assert_eq!(r.check_diags_info.get(), info0 + i as u64);

    // Analyzing twice yields identical diagnostics (deterministic, no
    // hidden state) and another accounted run.
    let again = analyze_script(&stmts, &CheckConfig::default());
    assert_eq!(diags, again);
    assert_eq!(r.check_runs.get(), runs0 + 2);
}
