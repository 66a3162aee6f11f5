//! Lowering parsed statements into the `fdb-check` analysis IR.
//!
//! The analyzer does not know this crate's AST; [`lower`] converts a
//! [`SpannedStatement`] into the spanned [`CheckStmt`] form the analyzer
//! consumes. Statements the analysis does not model become
//! [`CheckStmt::Other`]; the ones that can pull facts from outside the
//! script (`SOURCE`, `LOAD`) are marked as opening the world, which
//! mutes the analyzer's closed-world guarantees from that point on, and
//! the ones a read-only replica refuses ([`Statement::admission`], the
//! classification the engine's own gate reads) are marked as writes for
//! `FDB040`.
//! Transaction control (`BEGIN`/`COMMIT`/`ABORT`/`SAVEPOINT`/`ROLLBACK
//! TO`) lowers to typed [`CheckStmt::Txn`] statements the analyzer
//! models exactly.

use fdb_check::{CheckStmt, Name, StepRef, TxnOp};
use fdb_types::Span;

use crate::ast::{DeriveStep, Statement};
use crate::parser::{SpannedStatement, StmtSpans};

fn name(spans: &StmtSpans, text: &str) -> Name {
    Name::new(text, spans.name.unwrap_or(spans.keyword))
}

fn arg_span(spans: &StmtSpans, i: usize) -> Span {
    spans.args.get(i).copied().unwrap_or(spans.keyword)
}

fn steps(spans: &StmtSpans, steps: &[DeriveStep]) -> Vec<StepRef> {
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| StepRef {
            name: Name::new(
                &s.name,
                spans.steps.get(i).copied().unwrap_or(spans.keyword),
            ),
            inverse: s.inverse,
        })
        .collect()
}

/// Lowers one parsed statement to the analysis IR. `None` for blank lines.
pub fn lower(s: &SpannedStatement) -> Option<CheckStmt> {
    let sp = &s.spans;
    let keyword = sp.keyword;
    let writes = s.stmt.admission().replica_refuses.is_some();
    Some(match &s.stmt {
        Statement::Empty => return None,
        Statement::Declare {
            name: n,
            domain,
            range,
            functionality,
        } => CheckStmt::Declare {
            keyword,
            name: name(sp, n),
            domain: domain.clone(),
            range: range.clone(),
            functionality: Name::new(functionality, arg_span(sp, 2)),
        },
        Statement::Derive { name: n, steps: ss } => CheckStmt::Derive {
            keyword,
            name: name(sp, n),
            steps: steps(sp, ss),
        },
        Statement::Insert { function, x, y } => CheckStmt::Insert {
            keyword,
            function: name(sp, function),
            x: x.clone(),
            y: y.clone(),
        },
        Statement::Delete { function, x, y } => CheckStmt::Delete {
            keyword,
            function: name(sp, function),
            x: x.clone(),
            y: y.clone(),
        },
        Statement::Replace { function, old, new } => CheckStmt::Replace {
            keyword,
            function: name(sp, function),
            old: old.clone(),
            new: new.clone(),
        },
        Statement::Query { function, x } => CheckStmt::Query {
            keyword,
            function: name(sp, function),
            x: x.clone(),
        },
        Statement::Truth { function, x, y } => CheckStmt::Truth {
            keyword,
            function: name(sp, function),
            x: x.clone(),
            y: y.clone(),
        },
        Statement::Inverse { function, y } => CheckStmt::Inverse {
            keyword,
            function: name(sp, function),
            y: y.clone(),
        },
        Statement::Show { function }
        | Statement::Derivations { function }
        | Statement::Explain { function, .. }
        | Statement::ExplainPlan { function, .. }
        | Statement::ExplainAnalyze { function, .. } => CheckStmt::Read {
            keyword,
            function: name(sp, function),
        },
        Statement::Eval { steps: ss, .. } => CheckStmt::Eval {
            keyword,
            steps: steps(sp, ss),
        },
        Statement::Resolve => CheckStmt::Resolve { keyword },
        // These replace database state with facts the statement list does
        // not spell out.
        // `PROMOTE` swaps in the replica's state, which the statement
        // list does not spell out — world-opening like LOAD.
        Statement::Source { .. } | Statement::Load { .. } | Statement::Promote => {
            CheckStmt::Other {
                keyword,
                opens_world: true,
                writes,
            }
        }
        // Transaction control lowers to a typed statement: the analyzer
        // models rollback exactly (snapshot/restore), so `ABORT` no
        // longer needs to open the world.
        Statement::Begin => CheckStmt::Txn {
            keyword,
            op: TxnOp::Begin,
            name: None,
        },
        Statement::Commit => CheckStmt::Txn {
            keyword,
            op: TxnOp::Commit,
            name: None,
        },
        Statement::Abort => CheckStmt::Txn {
            keyword,
            op: TxnOp::Rollback,
            name: None,
        },
        Statement::Savepoint { name: n } => CheckStmt::Txn {
            keyword,
            op: TxnOp::Savepoint,
            name: Some(name(sp, n)),
        },
        Statement::RollbackTo { name: n } => CheckStmt::Txn {
            keyword,
            op: TxnOp::RollbackTo,
            name: Some(name(sp, n)),
        },
        Statement::Schema
        | Statement::Stats
        | Statement::StatsReset
        | Statement::StatsJson
        | Statement::Timeout { .. }
        | Statement::Save { .. }
        | Statement::Dump { .. }
        | Statement::Check { .. }
        | Statement::CheckData
        | Statement::Discover { .. }
        | Statement::Strict { .. }
        | Statement::Trace { .. }
        | Statement::TraceSlow { .. }
        | Statement::ShowTrace { .. }
        | Statement::ShowSlow
        | Statement::DumpTrace
        | Statement::ReplicaStatus
        | Statement::Help => CheckStmt::Other {
            keyword,
            opens_world: false,
            writes,
        },
    })
}

/// Parses and lowers a whole script (for pre-flight and the lint CLI).
/// Parse failures surface as `(line_no, error)` so callers can turn them
/// into `FDB000` diagnostics without losing position.
pub fn lower_script(text: &str) -> (Vec<CheckStmt>, Vec<(u32, fdb_types::FdbError)>) {
    lower_script_from(text, 1)
}

/// [`lower_script`] of text that starts at line `first_line` of its source.
pub fn lower_script_from(
    text: &str,
    first_line: u32,
) -> (Vec<CheckStmt>, Vec<(u32, fdb_types::FdbError)>) {
    let mut stmts = Vec::new();
    let mut errors = Vec::new();
    for (line_no, line) in (first_line..).zip(text.lines()) {
        match crate::parser::parse_statement_spanned(line, line_no) {
            Ok(sp) => stmts.extend(lower(&sp)),
            Err(e) => errors.push((line_no, e)),
        }
    }
    (stmts, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement_spanned;

    fn lower_line(line: &str) -> CheckStmt {
        lower(&parse_statement_spanned(line, 1).expect("parses")).expect("not empty")
    }

    #[test]
    fn declare_carries_name_and_functionality_spans() {
        let s = lower_line("DECLARE teach: faculty -> course (many-many)");
        match s {
            CheckStmt::Declare {
                name,
                domain,
                range,
                functionality,
                ..
            } => {
                assert_eq!(name.text, "teach");
                assert_eq!(name.span.col(), 9);
                assert_eq!(domain, "faculty");
                assert_eq!(range, "course");
                assert_eq!(functionality.text, "many-many");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn derive_steps_keep_inverse_flags_and_spans() {
        let s = lower_line("DERIVE lecturer_of = class_list^-1 o teach^-1");
        match s {
            CheckStmt::Derive { steps, .. } => {
                assert_eq!(steps.len(), 2);
                assert!(steps.iter().all(|s| s.inverse));
                assert_eq!(steps[0].name.text, "class_list");
                assert!(steps[0].name.span.start < steps[1].name.span.start);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn world_opening_statements_are_marked() {
        // Both bring facts in; only LOAD writes the engine's own
        // database, which a read-only replica refuses.
        for (line, refused) in [("SOURCE \"x.fdb\"", false), ("LOAD \"db.json\"", true)] {
            match lower_line(line) {
                CheckStmt::Other {
                    opens_world,
                    writes,
                    ..
                } => {
                    assert!(opens_world, "{line}");
                    assert_eq!(writes, refused, "{line}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match lower_line("SCHEMA") {
            CheckStmt::Other {
                opens_world,
                writes,
                ..
            } => assert!(!opens_world && !writes),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transaction_control_lowers_to_typed_statements() {
        for (line, want) in [
            ("BEGIN", TxnOp::Begin),
            ("COMMIT", TxnOp::Commit),
            ("ABORT", TxnOp::Rollback),
            ("ROLLBACK", TxnOp::Rollback),
        ] {
            match lower_line(line) {
                CheckStmt::Txn { op, name, .. } => {
                    assert_eq!(op, want, "{line}");
                    assert!(name.is_none(), "{line}");
                }
                other => panic!("unexpected {other:?} for {line}"),
            }
        }
        match lower_line("SAVEPOINT before_loads") {
            CheckStmt::Txn { op, name, .. } => {
                assert_eq!(op, TxnOp::Savepoint);
                assert_eq!(name.expect("named").text, "before_loads");
            }
            other => panic!("unexpected {other:?}"),
        }
        match lower_line("ROLLBACK TO before_loads") {
            CheckStmt::Txn { op, name, .. } => {
                assert_eq!(op, TxnOp::RollbackTo);
                assert_eq!(name.expect("named").text, "before_loads");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reads_cover_show_and_explain_variants() {
        for line in [
            "SHOW teach",
            "DERIVATIONS teach",
            "EXPLAIN teach(a, b)",
            "EXPLAIN PLAN teach(a, b)",
            "EXPLAIN ANALYZE teach(a, b)",
        ] {
            match lower_line(line) {
                CheckStmt::Read { function, .. } => assert_eq!(function.text, "teach", "{line}"),
                other => panic!("unexpected {other:?} for {line}"),
            }
        }
    }

    #[test]
    fn lower_script_collects_statements_and_errors() {
        let (stmts, errors) = lower_script(
            "DECLARE teach: faculty -> course (many-many)\n\
             -- comment only\n\
             NOT A STATEMENT\n\
             INSERT teach(euclid, math)\n",
        );
        assert_eq!(stmts.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 3);
    }
}
