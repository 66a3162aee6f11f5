//! Per-code firing and non-firing tests for the `fdb-check` analyzer.
//!
//! Every diagnostic code gets (at least) one script that must produce it
//! and one near-identical script that must not — the non-firing twin is
//! what keeps the analyzer honest about false positives.

use fdb::check::{analyze_script, CheckConfig, Code, Diagnostic};
use fdb::lang::lower_script;

fn diags_with(script: &str, config: &CheckConfig) -> Vec<Diagnostic> {
    let (stmts, errors) = lower_script(script);
    assert!(errors.is_empty(), "unexpected parse errors: {errors:?}");
    analyze_script(&stmts, config)
}

fn diags(script: &str) -> Vec<Diagnostic> {
    diags_with(script, &CheckConfig::default())
}

fn codes(script: &str) -> Vec<Code> {
    diags(script).iter().map(|d| d.code).collect()
}

const UNI: &str = "DECLARE teach: faculty -> course (many-many)\n\
                   DECLARE class_list: course -> student (many-many)\n\
                   DECLARE pupil: faculty -> student (many-many)\n";

#[test]
fn fdb001_undefined_function() {
    let cs = codes("INSERT ghost(a, b)");
    assert_eq!(cs, vec![Code::UndefinedFunction]);
    // Declared: silent.
    let cs = codes("DECLARE ghost: a -> b (many-many)\nINSERT ghost(a, b)");
    assert!(!cs.contains(&Code::UndefinedFunction), "{cs:?}");
}

#[test]
fn fdb002_duplicate_declare() {
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE teach: faculty -> course (many-many)";
    let ds = diags(script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::DuplicateDeclare)
        .expect("FDB002 fires");
    assert_eq!(d.span.line, 2);
    assert!(d.hint.as_deref().unwrap_or("").contains("line 1"));
    // Distinct names: silent.
    assert!(!codes(UNI).contains(&Code::DuplicateDeclare));
}

#[test]
fn fdb003_broken_chain() {
    let script = format!("{UNI}DERIVE pupil = teach o teach");
    let ds = diags(&script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::BrokenChain)
        .expect("FDB003 fires");
    // Anchored at the second (breaking) step.
    assert_eq!(d.span.line, 4);
    assert!(
        d.message.contains("expects domain faculty"),
        "{}",
        d.message
    );
    // A chaining derivation: silent.
    let cs = codes(&format!("{UNI}DERIVE pupil = teach o class_list"));
    assert!(!cs.contains(&Code::BrokenChain), "{cs:?}");
    // An EVAL expression is held to the same chain rule.
    let ds = diags(&format!("{UNI}EVAL a : teach o teach"));
    let d = ds
        .iter()
        .find(|d| d.code == Code::BrokenChain)
        .expect("FDB003 fires on EVAL");
    // Anchored at the second (breaking) step.
    assert_eq!((d.span.line, d.span.start), (4, 17));
}

#[test]
fn fdb004_endpoint_mismatch() {
    let cs = codes(&format!("{UNI}DERIVE pupil = teach"));
    assert!(cs.contains(&Code::EndpointMismatch), "{cs:?}");
    let cs = codes(&format!("{UNI}DERIVE pupil = teach o class_list"));
    assert!(!cs.contains(&Code::EndpointMismatch), "{cs:?}");
}

#[test]
fn fdb005_functionality_mismatch() {
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE class_list: course -> student (many-many)\n\
                  DECLARE pupil: faculty -> student (one-one)\n\
                  DERIVE pupil = teach o class_list";
    let ds = diags(script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::FunctionalityMismatch)
        .expect("FDB005 fires");
    assert!(d.message.contains("many-many"), "{}", d.message);
    let cs = codes(&format!("{UNI}DERIVE pupil = teach o class_list"));
    assert!(!cs.contains(&Code::FunctionalityMismatch), "{cs:?}");
}

#[test]
fn fdb006_self_referential() {
    let cs = codes(&format!("{UNI}DERIVE pupil = pupil"));
    assert!(cs.contains(&Code::SelfReferential), "{cs:?}");
    let cs = codes(&format!("{UNI}DERIVE pupil = teach o class_list"));
    assert!(!cs.contains(&Code::SelfReferential), "{cs:?}");
}

#[test]
fn fdb007_step_through_derived() {
    let script = format!(
        "{UNI}DECLARE taught_by: course -> faculty (many-many)\n\
         DERIVE taught_by = teach^-1\n\
         DERIVE pupil = taught_by^-1 o class_list"
    );
    let ds = diags(&script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::StepThroughDerived)
        .expect("FDB007 fires");
    assert_eq!(d.span.line, 6);
    // The other order: deriving a function a derivation already steps
    // through, which the engine refuses too.
    let script = format!(
        "{UNI}DECLARE lectures: faculty -> course (many-many)\n\
         DERIVE pupil = teach o class_list\n\
         DERIVE teach = lectures"
    );
    let ds = diags(&script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::StepThroughDerived)
        .expect("FDB007 fires");
    assert_eq!(d.span.line, 6);
    // An EVAL expression steps through base functions only, too.
    let ds = diags(&format!(
        "{UNI}DERIVE pupil = teach o class_list\nEVAL a : pupil"
    ));
    let d = ds
        .iter()
        .find(|d| d.code == Code::StepThroughDerived)
        .expect("FDB007 fires on EVAL");
    assert_eq!(d.span.line, 5);
    // Stepping through base functions only: silent.
    let cs = codes(&format!("{UNI}DERIVE pupil = teach o class_list"));
    assert!(!cs.contains(&Code::StepThroughDerived), "{cs:?}");
}

#[test]
fn fdb008_shadows_facts() {
    let script = format!("{UNI}INSERT pupil(a, b)\nDERIVE pupil = teach o class_list");
    let ds = diags(&script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::ShadowsFacts)
        .expect("FDB008 fires");
    assert_eq!(d.span.line, 5);
    // DERIVE before the INSERT: silent (the insert becomes a derived
    // insert instead).
    let cs = codes(&format!(
        "{UNI}DERIVE pupil = teach o class_list\nINSERT teach(a, c)"
    ));
    assert!(!cs.contains(&Code::ShadowsFacts), "{cs:?}");
}

#[test]
fn fdb009_alias_pair() {
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE taught_by: course -> faculty (many-many)";
    let ds = diags(script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::AliasPair)
        .expect("FDB009 fires");
    // Anchored at the later declaration of the pair.
    assert_eq!(d.span.line, 2);
    // When one of the pair is derived in-script, the alias is the point:
    // silent.
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE taught_by: course -> faculty (many-many)\n\
                  DERIVE taught_by = teach^-1";
    assert!(!codes(script).contains(&Code::AliasPair));
}

#[test]
fn fdb010_derivable() {
    // The university triangle with no DERIVE: every edge is derivable
    // from the other two.
    let ds = diags(UNI);
    assert!(ds.iter().any(|d| d.code == Code::Derivable), "{ds:?}");
    // Deriving pupil in-script silences its own finding.
    let ds = diags(&format!("{UNI}DERIVE pupil = teach o class_list"));
    assert!(
        !ds.iter()
            .any(|d| d.code == Code::Derivable && d.message.contains("`pupil`")),
        "{ds:?}"
    );
    // Two unrelated functions: nothing derivable.
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE office: faculty -> room (many-one)";
    assert!(!codes(script).contains(&Code::Derivable));
}

#[test]
fn fdb018_unbalanced_txn() {
    // COMMIT, ROLLBACK, SAVEPOINT and ROLLBACK TO all need an open BEGIN.
    for stray in [
        "COMMIT",
        "ROLLBACK",
        "ABORT",
        "SAVEPOINT s",
        "ROLLBACK TO s",
    ] {
        let ds = diags(&format!("{UNI}{stray}"));
        let d = ds
            .iter()
            .find(|d| d.code == Code::UnbalancedTxn)
            .unwrap_or_else(|| panic!("FDB018 fires for `{stray}`: {ds:?}"));
        assert_eq!(d.span.line, 4, "{stray}");
    }
    // BEGIN does not nest.
    let ds = diags(&format!("{UNI}BEGIN\nBEGIN\nCOMMIT"));
    let d = ds
        .iter()
        .find(|d| d.code == Code::UnbalancedTxn)
        .expect("FDB018 fires for nested BEGIN");
    assert_eq!(d.span.line, 5);
    // ROLLBACK TO a savepoint that was never set (or was discarded by an
    // earlier rollback past it).
    let script =
        format!("{UNI}BEGIN\nSAVEPOINT a\nSAVEPOINT b\nROLLBACK TO a\nROLLBACK TO b\nCOMMIT");
    let ds = diags(&script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::UnbalancedTxn)
        .expect("FDB018 fires for discarded savepoint");
    assert_eq!(d.span.line, 8);
    assert!(d.message.contains('b'), "{}", d.message);
    // A balanced transaction with savepoints: silent.
    let script = format!(
        "{UNI}BEGIN\nINSERT teach(a, b)\nSAVEPOINT s\nINSERT teach(c, d)\n\
         ROLLBACK TO s\nROLLBACK TO s\nCOMMIT"
    );
    assert!(!codes(&script).contains(&Code::UnbalancedTxn));
}

#[test]
fn fdb019_unclosed_txn() {
    let ds = diags(&format!("{UNI}BEGIN\nINSERT teach(a, b)"));
    let d = ds
        .iter()
        .find(|d| d.code == Code::UnclosedTxn)
        .expect("FDB019 fires");
    // Anchored at the BEGIN that never closes.
    assert_eq!(d.span.line, 4);
    // Committed and rolled-back transactions: silent.
    for closer in ["COMMIT", "ROLLBACK"] {
        let script = format!("{UNI}BEGIN\nINSERT teach(a, b)\n{closer}");
        assert!(!codes(&script).contains(&Code::UnclosedTxn), "{closer}");
    }
}

#[test]
fn rollback_restores_abstract_state() {
    // The insert inside the rolled-back transaction is gone, so the
    // later TRUTH is known-false — but over a *sharp* table the analyzer
    // stays silent (False is not Ambiguous), while the committed twin
    // keeps the fact.
    let rolled = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         INSERT class_list(math, john)\n\
         INSERT class_list(math, bill)\n\
         BEGIN\n\
         DELETE pupil(euclid, john)\n\
         ROLLBACK\n\
         QUERY pupil(euclid)"
    );
    // The derived delete demoted chains *inside* the transaction only;
    // after ROLLBACK the query is exact again — no FDB020.
    assert!(
        !codes(&rolled).contains(&Code::GuaranteedAmbiguous),
        "rollback must restore the abstract tables"
    );
    // Without the rollback the same query is guaranteed ambiguous.
    let committed = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         INSERT class_list(math, john)\n\
         INSERT class_list(math, bill)\n\
         BEGIN\n\
         DELETE pupil(euclid, john)\n\
         COMMIT\n\
         QUERY pupil(euclid)"
    );
    assert!(codes(&committed).contains(&Code::GuaranteedAmbiguous));
}

#[test]
fn fdb020_guaranteed_ambiguous() {
    let base = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         INSERT class_list(math, john)\n\
         INSERT class_list(math, bill)\n\
         DELETE pupil(euclid, john)\n"
    );
    // After the derived delete, every remaining candidate sits inside a
    // negated conjunction.
    let ds = diags(&format!("{base}QUERY pupil(euclid)"));
    let d = ds
        .iter()
        .find(|d| d.code == Code::GuaranteedAmbiguous)
        .expect("FDB020 fires on QUERY");
    assert_eq!(d.span.line, 9);
    // TRUTH of the demoted sibling is guaranteed ambiguous too.
    let ds = diags(&format!("{base}TRUTH pupil(euclid, bill)"));
    assert!(
        ds.iter().any(|d| d.code == Code::GuaranteedAmbiguous),
        "{ds:?}"
    );
    // INVERSE through the demoted chain as well.
    let ds = diags(&format!("{base}INVERSE pupil(bill)"));
    assert!(
        ds.iter().any(|d| d.code == Code::GuaranteedAmbiguous),
        "{ds:?}"
    );
    // Before any derived delete the same reads are exact: silent.
    let clean = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         INSERT class_list(math, bill)\n\
         QUERY pupil(euclid)\nTRUTH pupil(euclid, bill)"
    );
    assert!(!codes(&clean).contains(&Code::GuaranteedAmbiguous));
}

#[test]
fn fdb021_guaranteed_conflict() {
    let base = "DECLARE score: [student; course] -> marks (many-one)\n\
                DECLARE cutoff: marks -> letter_grade (many-one)\n\
                DECLARE grade: [student; course] -> letter_grade (many-one)\n\
                DERIVE grade = score o cutoff\n\
                INSERT score(s1, 85)\n\
                INSERT cutoff(85, B)\n";
    // grade(s1) = B already holds exactly; inserting grade(s1, A) must
    // raise a generalized-dependency conflict.
    let ds = diags(&format!("{base}INSERT grade(s1, A)"));
    let d = ds
        .iter()
        .find(|d| d.code == Code::GuaranteedConflict)
        .expect("FDB021 fires");
    assert_eq!(d.span.line, 7);
    assert!(d.message.contains("grade(s1) = B"), "{}", d.message);
    // Inserting the value that already holds: silent.
    let ds = diags(&format!("{base}INSERT grade(s1, B)"));
    assert!(
        !ds.iter().any(|d| d.code == Code::GuaranteedConflict),
        "{ds:?}"
    );
}

#[test]
fn fdb022_undischargeable_delete() {
    let script = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         DELETE pupil(euclid, john)"
    );
    let ds = diags(&script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::UndischargeableDelete)
        .expect("FDB022 fires");
    assert_eq!(d.span.line, 5);
    // With a supporting chain the delete discharges it: silent.
    let script = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         INSERT class_list(math, john)\n\
         DELETE pupil(euclid, john)"
    );
    assert!(!codes(&script).contains(&Code::UndischargeableDelete));
}

#[test]
fn fdb023_dead_write() {
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  INSERT teach(euclid, math)\n\
                  DELETE teach(euclid, math)";
    let ds = diags(script);
    let d = ds
        .iter()
        .find(|d| d.code == Code::DeadWrite)
        .expect("FDB023 fires");
    assert_eq!(d.span.line, 3);
    assert!(d.message.contains("line 2"), "{}", d.message);
    // A read in between: silent.
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  INSERT teach(euclid, math)\n\
                  QUERY teach(euclid)\n\
                  DELETE teach(euclid, math)";
    assert!(!codes(script).contains(&Code::DeadWrite));
    // A read through a derivation over the function also counts.
    let script = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         QUERY pupil(euclid)\n\
         DELETE teach(euclid, math)"
    );
    assert!(!codes(&script).contains(&Code::DeadWrite));
}

#[test]
fn fdb030_chain_budget() {
    let mut script = format!("{UNI}DERIVE pupil = teach o class_list\n");
    for i in 0..4 {
        script.push_str(&format!("INSERT teach(f, c{i})\n"));
        script.push_str(&format!("INSERT class_list(c{i}, s{i})\n"));
    }
    // 4 chains estimated; a budget of 3 is exceeded …
    let tight = CheckConfig {
        chain_budget: 3.0,
        ..CheckConfig::default()
    };
    let ds = diags_with(&script, &tight);
    let d = ds
        .iter()
        .find(|d| d.code == Code::ChainBudget)
        .expect("FDB030 fires");
    assert_eq!(d.span.line, 4, "anchored at the DERIVE");
    // … while the default budget is not.
    assert!(!codes(&script).contains(&Code::ChainBudget));
}

#[test]
fn fdb031_cycle_without_ufa() {
    let ds = diags(UNI);
    let d = ds
        .iter()
        .find(|d| d.code == Code::CycleWithoutUfa)
        .expect("FDB031 fires");
    // The third edge closes the faculty/course/student triangle.
    assert_eq!(d.span.line, 3);
    // An acyclic schema: silent.
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  DECLARE class_list: course -> student (many-many)";
    assert!(!codes(script).contains(&Code::CycleWithoutUfa));
}

#[test]
fn fdb040_replica_write() {
    let replica = CheckConfig {
        replica_mode: true,
        ..CheckConfig::default()
    };
    // Reads are fine on a replica, and so are the statements that
    // bring facts in without writing through the engine's own database …
    let reads = "QUERY teach(euclid)\n\
                 TRUTH teach(euclid, math)\n\
                 SHOW teach\n\
                 SCHEMA\n\
                 SAVE \"db.snap\"\n\
                 SOURCE \"report.fdb\"\n\
                 PROMOTE";
    let ds = diags_with(reads, &replica);
    assert!(
        !ds.iter().any(|d| d.code == Code::ReplicaWrite),
        "reads must not fire FDB040: {ds:?}"
    );
    // … while every statement the replica engine refuses fires, one
    // diagnostic each, anchored at its own line.
    let writes = "DECLARE teach: faculty -> course (many-many)\n\
                  INSERT teach(euclid, math)\n\
                  BEGIN\n\
                  DELETE teach(euclid, math)\n\
                  COMMIT\n\
                  LOAD \"db.snap\"";
    let ds = diags_with(writes, &replica);
    let lines: Vec<u32> = ds
        .iter()
        .filter(|d| d.code == Code::ReplicaWrite)
        .map(|d| d.span.line)
        .collect();
    assert_eq!(lines, vec![1, 2, 3, 4, 5, 6], "{ds:?}");
    assert!(ds
        .iter()
        .find(|d| d.code == Code::ReplicaWrite)
        .and_then(|d| d.hint.as_deref())
        .is_some_and(|h| h.contains("PROMOTE")));
    // The default config never fires it, even for writes.
    assert!(!codes(writes).contains(&Code::ReplicaWrite));
    // An open world does not mute it: the runtime refusal is
    // unconditional.
    let after_load = "LOAD \"db.json\"\nINSERT teach(euclid, math)";
    let ds = diags_with(after_load, &replica);
    assert!(
        ds.iter()
            .any(|d| d.code == Code::ReplicaWrite && d.span.line == 2),
        "{ds:?}"
    );
}

#[test]
fn replica_mode_marker_detection() {
    use fdb::check::detect_replica_mode;
    assert!(detect_replica_mode("-- mode: replica\nQUERY teach(euclid)"));
    assert!(detect_replica_mode("\n--  MODE:  Replica\nSCHEMA"));
    assert!(detect_replica_mode(
        "-- report script\n-- mode:replica\nSCHEMA"
    ));
    // Not in the leading comment block: ignored.
    assert!(!detect_replica_mode("SCHEMA\n-- mode: replica"));
    assert!(!detect_replica_mode("-- mode: primary\nSCHEMA"));
    assert!(!detect_replica_mode(""));
}

#[test]
fn open_world_statements_mute_guarantees() {
    // The same dead-write pattern, but a SOURCE in between could have
    // read (or rewritten) anything: all guarantees are off.
    let script = "DECLARE teach: faculty -> course (many-many)\n\
                  INSERT teach(euclid, math)\n\
                  SOURCE \"other.fdb\"\n\
                  DELETE teach(euclid, math)\n\
                  DELETE ghost(a, b)";
    let ds = diags(script);
    assert!(ds.is_empty(), "open world mutes everything: {ds:?}");
}

#[test]
fn resolve_mutes_ambiguity_guarantees() {
    let script = format!(
        "{UNI}DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n\
         INSERT class_list(math, john)\n\
         INSERT class_list(math, bill)\n\
         DELETE pupil(euclid, john)\n\
         RESOLVE\n\
         QUERY pupil(euclid)"
    );
    let ds = diags(&script);
    assert!(
        !ds.iter().any(|d| d.code == Code::GuaranteedAmbiguous),
        "RESOLVE may have disambiguated: {ds:?}"
    );
}

#[test]
fn error_recovery_keeps_analyzing() {
    // A bad DERIVE is reported but not registered, so later statements
    // resolve against the declared (base) function.
    let script = format!(
        "{UNI}DERIVE pupil = teach\n\
         INSERT pupil(a, b)\n\
         INSERT ghost(a, b)"
    );
    let cs = codes(&script);
    assert!(cs.contains(&Code::EndpointMismatch), "{cs:?}");
    assert!(cs.contains(&Code::UndefinedFunction), "{cs:?}");
}

// --- FDB05x: data-aware discovery (store-backed, via `discover`) -------

mod data_aware {
    use std::collections::BTreeMap;

    use fdb::check::{
        discover, discovery_diagnostics, invalidation_diagnostic, Code, DiscoverConfig,
    };
    use fdb::storage::Store;
    use fdb::types::{Schema, Value};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn schema() -> Schema {
        Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("taught_by", "course", "faculty", "many-many")
            .function("office", "faculty", "room", "many-one")
            .build()
            .expect("schema builds")
    }

    fn codes(store: &Store, schema: &Schema) -> Vec<Code> {
        let report = discover(store, schema, &BTreeMap::new(), &DiscoverConfig::default());
        discovery_diagnostics(&report, schema)
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn fdb050_incidental_functionality() {
        let schema = schema();
        let teach = schema.resolve("teach").unwrap();
        let mut store = Store::new(schema.len());
        // Two single-valued rows on a many-many declaration: fires.
        store.base_insert(teach, v("euclid"), v("math"));
        store.base_insert(teach, v("laplace"), v("stat"));
        assert!(codes(&store, &schema).contains(&Code::IncidentalFunctionality));
        // A genuinely many-many extension: silent.
        let mut store = Store::new(schema.len());
        store.base_insert(teach, v("euclid"), v("math"));
        store.base_insert(teach, v("euclid"), v("geom"));
        store.base_insert(teach, v("laplace"), v("math"));
        assert!(!codes(&store, &schema).contains(&Code::IncidentalFunctionality));
    }

    #[test]
    fn fdb051_functionality_violated() {
        let schema = schema();
        let office = schema.resolve("office").unwrap();
        let mut store = Store::new(schema.len());
        // Two rooms for one faculty under many-one: fires, with a repair.
        store.base_insert(office, v("euclid"), v("e101"));
        store.base_insert(office, v("euclid"), v("e202"));
        let report = discover(
            &store,
            &schema,
            &BTreeMap::new(),
            &DiscoverConfig::default(),
        );
        let ds = discovery_diagnostics(&report, &schema);
        let d = ds
            .iter()
            .find(|d| d.code == Code::FunctionalityViolated)
            .expect("FDB051 fires");
        assert!(
            d.hint.as_deref().unwrap_or("").contains("delete office("),
            "{d:?}"
        );
        // A violated table reports no incidental FD alongside.
        assert!(!ds.iter().any(|d| d.code == Code::IncidentalFunctionality));
        // One room per faculty: silent.
        let mut store = Store::new(schema.len());
        store.base_insert(office, v("euclid"), v("e101"));
        store.base_insert(office, v("laplace"), v("l7"));
        assert!(!codes(&store, &schema).contains(&Code::FunctionalityViolated));
    }

    #[test]
    fn fdb052_candidate_derivation() {
        let schema = schema();
        let teach = schema.resolve("teach").unwrap();
        let taught_by = schema.resolve("taught_by").unwrap();
        // taught_by mirrors teach^-1 exactly: fires.
        let mut store = Store::new(schema.len());
        for (f, c) in [("euclid", "math"), ("laplace", "stat")] {
            store.base_insert(teach, v(f), v(c));
            store.base_insert(taught_by, v(c), v(f));
        }
        assert!(codes(&store, &schema).contains(&Code::CandidateDerivation));
        // One unmirrored pair breaks the match: silent.
        store.base_insert(teach, v("gauss"), v("algebra"));
        store.base_insert(taught_by, v("algebra"), v("riemann"));
        assert!(!codes(&store, &schema).contains(&Code::CandidateDerivation));
    }

    #[test]
    fn fdb053_nongenuine_invalidated() {
        let schema = schema();
        let teach = schema.resolve("teach").unwrap();
        // FDB053 is minted per invalidated assumption, not by discovery
        // itself: a clean store produces none.
        let mut store = Store::new(schema.len());
        store.base_insert(teach, v("euclid"), v("math"));
        store.base_insert(teach, v("laplace"), v("stat"));
        assert!(!codes(&store, &schema).contains(&Code::NonGenuineInvalidated));
        // The diagnostic constructor carries the function, direction and
        // observation version.
        let d = invalidation_diagnostic(&schema, teach, "functional", 7);
        assert_eq!(d.code, Code::NonGenuineInvalidated);
        assert!(d.message.contains("`teach is functional`"), "{}", d.message);
        assert!(d.message.contains("v7"), "{}", d.message);
    }
}
