//! The statement classification (`Statement::admission`) against its
//! three consumers, over one example line of every statement kind: the
//! engine's replica gate, the static analyzer's `FDB040`, and the
//! "Statement lifecycle" table in DESIGN.md.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fdb::check::{analyze_script, CheckConfig, Code};
use fdb::core::{LoggedDatabase, SimDisk, WalStorage};
use fdb::lang::{lower_script, parse_statement, Engine, Governed, Statement};
use fdb::repl::{Replica, ReplicationSource};
use fdb::types::{FdbError, Value};

/// The name a statement kind goes by in DESIGN.md. Exhaustive on
/// purpose: a new kind does not compile until it is named here — give it
/// a line in [`EXAMPLES`] and a row in the table too.
fn kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Declare { .. } => "DECLARE",
        Statement::Derive { .. } => "DERIVE",
        Statement::Insert { .. } => "INSERT",
        Statement::Delete { .. } => "DELETE",
        Statement::Replace { .. } => "REPLACE",
        Statement::Query { .. } => "QUERY",
        Statement::Truth { .. } => "TRUTH",
        Statement::Show { .. } => "SHOW",
        Statement::Derivations { .. } => "DERIVATIONS",
        Statement::Schema => "SCHEMA",
        Statement::Stats => "STATS",
        Statement::Resolve => "RESOLVE",
        Statement::Check { .. } => "CHECK",
        Statement::CheckData => "CHECK DATA",
        Statement::Discover { .. } => "DISCOVER",
        Statement::Strict { .. } => "STRICT",
        Statement::Help => "HELP",
        Statement::Begin => "BEGIN",
        Statement::Commit => "COMMIT",
        Statement::Abort => "ABORT",
        Statement::Savepoint { .. } => "SAVEPOINT",
        Statement::RollbackTo { .. } => "ROLLBACK TO",
        Statement::Save { .. } => "SAVE",
        Statement::Load { .. } => "LOAD",
        Statement::Dump { .. } => "DUMP",
        Statement::Eval { .. } => "EVAL",
        Statement::Inverse { .. } => "INVERSE",
        Statement::Explain { .. } => "EXPLAIN",
        Statement::ExplainPlan { .. } => "EXPLAIN PLAN",
        Statement::ExplainAnalyze { .. } => "EXPLAIN ANALYZE",
        Statement::StatsReset => "STATS RESET",
        Statement::StatsJson => "STATS JSON",
        Statement::Source { .. } => "SOURCE",
        Statement::Timeout { .. } => "TIMEOUT",
        Statement::Trace { .. } => "TRACE",
        Statement::TraceSlow { .. } => "TRACE SLOW",
        Statement::ShowTrace { .. } => "SHOW TRACE",
        Statement::ShowSlow => "SHOW SLOW",
        Statement::DumpTrace => "DUMP TRACE",
        Statement::ReplicaStatus => "REPLICA STATUS",
        Statement::Promote => "PROMOTE",
        Statement::Empty => "blank",
    }
}

/// One line per statement kind. Every write names an unknown function, a
/// functionality that does not parse or a file that does not exist: on a
/// replica the refusal must win over those errors. `$TMP` is a scratch
/// directory.
const EXAMPLES: [&str; 42] = [
    "DECLARE bad: a -> b (sometimes)",
    "DERIVE ghost = nothing",
    "INSERT ghost(a, b)",
    "DELETE ghost(a, b)",
    "REPLACE ghost(a, b) WITH (c, d)",
    "RESOLVE",
    "BEGIN",
    "COMMIT",
    "ABORT",
    "SAVEPOINT s",
    "ROLLBACK TO s",
    "LOAD \"$TMP/no-such-snapshot\"",
    "QUERY teach(euclid)",
    "TRUTH teach(euclid, math)",
    "SHOW teach",
    "EVAL euclid : teach",
    "INVERSE teach(math)",
    "DERIVATIONS teach",
    "SCHEMA",
    "STATS",
    "STATS RESET",
    "STATS JSON",
    "CHECK",
    "CHECK DATA",
    "DISCOVER",
    "STRICT OFF",
    "HELP",
    "SAVE \"$TMP/lifecycle.snap\"",
    "DUMP \"$TMP/lifecycle.fdb\"",
    "EXPLAIN teach(euclid, math)",
    "EXPLAIN PLAN teach(euclid, math)",
    "EXPLAIN ANALYZE teach(euclid, math)",
    "SOURCE \"$TMP/no-such-script\"",
    "TIMEOUT OFF",
    "TRACE OFF",
    "TRACE SLOW OFF",
    "SHOW TRACE",
    "SHOW SLOW",
    "DUMP TRACE",
    "REPLICA STATUS",
    "PROMOTE",
    "-- a comment",
];

/// An engine serving a caught-up replica of a primary that holds
/// `teach(euclid, math)`.
fn replica_engine() -> Engine {
    let storage: Arc<dyn WalStorage> = Arc::new(SimDisk::new());
    let (mut p, _) =
        LoggedDatabase::open_with(Arc::clone(&storage), "/p", Default::default()).unwrap();
    p.declare("teach", "faculty", "course", "many-many".parse().unwrap())
        .unwrap();
    p.insert("teach", Value::atom("euclid"), Value::atom("math"))
        .unwrap();
    let mut replica = Replica::open(storage, "/r").unwrap();
    let batch = ReplicationSource::for_primary(&p)
        .poll(replica.next_seq(), 10_000)
        .unwrap();
    replica.apply_batch(&batch).unwrap();
    Engine::with_replica(replica)
}

#[test]
fn every_example_is_its_own_kind() {
    let kinds: BTreeSet<&str> = EXAMPLES
        .iter()
        .map(|line| kind(&parse_statement(line, 1).unwrap()))
        .collect();
    assert_eq!(kinds.len(), EXAMPLES.len(), "two examples of one kind");
}

#[test]
fn replica_gate_and_fdb040_follow_the_classification() {
    let tmp = std::env::temp_dir().join(format!("fdb_lifecycle_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    fdb::obs::flight::set_dump_dir(Some(tmp.clone()));
    let replica_mode = CheckConfig {
        replica_mode: true,
        ..CheckConfig::default()
    };
    for example in EXAMPLES {
        let line = example.replace("$TMP", tmp.to_str().unwrap());
        let refusal = parse_statement(&line, 1)
            .unwrap()
            .admission()
            .replica_refuses;

        // The runtime gate: a refusal names the keyword, and comes
        // before the error the statement would otherwise die of.
        let refused = match replica_engine().execute_line(&line) {
            Err(FdbError::TxnControl(m)) if m.starts_with("read-only replica: ") => {
                let keyword = refusal.unwrap_or_else(|| panic!("`{line}` was refused: {m}"));
                assert!(m.contains(&format!(": {keyword} refused")), "`{line}`: {m}");
                true
            }
            _ => false,
        };
        assert_eq!(refused, refusal.is_some(), "replica gate on `{line}`");

        // The static twin.
        let (stmts, errors) = lower_script(&line);
        assert!(errors.is_empty(), "`{line}`: {errors:?}");
        let flagged = analyze_script(&stmts, &replica_mode)
            .iter()
            .any(|d| d.code == Code::ReplicaWrite);
        assert_eq!(flagged, refusal.is_some(), "FDB040 on `{line}`");
        assert!(
            !analyze_script(&stmts, &CheckConfig::default())
                .iter()
                .any(|d| d.code == Code::ReplicaWrite),
            "FDB040 outside replica mode on `{line}`"
        );
    }
    fdb::obs::flight::set_dump_dir(None);
    std::fs::remove_dir_all(&tmp).ok();
}

/// The `(on a replica, governor)` cells DESIGN.md should show for `stmt`.
fn documented(stmt: &Statement) -> (&'static str, &'static str) {
    let admission = stmt.admission();
    (
        match admission.replica_refuses {
            Some(_) => "refused",
            None => "served",
        },
        match admission.governed {
            Governed::No => "—",
            Governed::InTransaction => "in a transaction",
            Governed::Always => "always",
        },
    )
}

#[test]
fn design_md_lifecycle_table_matches_the_classification() {
    let design = std::fs::read_to_string("DESIGN.md").expect("DESIGN.md at the package root");
    let section = design
        .split("### Statement lifecycle")
        .nth(1)
        .expect("DESIGN.md has a `Statement lifecycle` subsection");
    // Rows are `| kinds | on a replica | governor | …`; a row may name
    // several kinds, each in backticks.
    let mut rows: BTreeMap<String, (String, String)> = BTreeMap::new();
    for row in section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
    {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        for name in cells[1].split('`').skip(1).step_by(2) {
            let cell = (cells[2].to_owned(), cells[3].to_owned());
            assert!(
                rows.insert(name.to_owned(), cell).is_none(),
                "{name} has two rows"
            );
        }
    }
    for line in EXAMPLES {
        let stmt = parse_statement(line, 1).unwrap();
        let (replica, governor) = documented(&stmt);
        let row = rows
            .remove(kind(&stmt))
            .unwrap_or_else(|| panic!("no row for {}", kind(&stmt)));
        assert_eq!(
            (row.0.as_str(), row.1.as_str()),
            (replica, governor),
            "row of {}",
            kind(&stmt)
        );
    }
    assert!(rows.is_empty(), "rows for unknown kinds: {rows:?}");
}
