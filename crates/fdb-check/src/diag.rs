//! Typed diagnostics: stable codes, severities, spans and fix hints.
//!
//! Every finding the analyzer can produce has a stable `FDB0xx` code so
//! that baselines, CI gates and editors can match on it across releases.
//! The code, not the message text, is the contract.

use std::fmt;

use fdb_types::Span;
use serde::Content;

/// Severity of a diagnostic, ordered `Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: schema-design observations (alias pairs, derivability).
    Info,
    /// The script will run but do something the author probably did not
    /// intend (guaranteed-ambiguous reads, dead writes, blow-up risk).
    Warn,
    /// The engine is guaranteed to reject the statement at runtime.
    Error,
}

impl Severity {
    /// Lower-case name used in text output (`error`, `warn`, `info`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// The SARIF `level` for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. `FDB00x` = resolution/well-formedness errors,
/// `FDB01x` = transaction-structure lints, `FDB02x` = three-valued-logic
/// lints, `FDB03x` = cost/feasibility lints, `FDB04x` = deployment-mode
/// lints (replica scripts), `FDB05x` = data-aware discovery findings
/// (non-genuine: they describe the *current extension*, not the schema).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// FDB000 — the line does not parse at all (CLI front end only).
    Syntax,
    /// FDB001 — a statement references a function that is not declared.
    UndefinedFunction,
    /// FDB002 — `DECLARE` of a name that is already declared.
    DuplicateDeclare,
    /// FDB003 — consecutive derivation steps do not chain (range of one
    /// step is not the domain of the next).
    BrokenChain,
    /// FDB004 — a derivation chains but its endpoints do not match the
    /// target function's declared domain/range.
    EndpointMismatch,
    /// FDB005 — a derivation's composed functionality differs from the
    /// target's declared functionality.
    FunctionalityMismatch,
    /// FDB006 — a derivation mentions the function it derives.
    SelfReferential,
    /// FDB007 — a derivation steps through another *derived* function.
    StepThroughDerived,
    /// FDB008 — `DERIVE` targets a function that already holds base facts.
    ShadowsFacts,
    /// FDB009 — two base functions are mutually derivable aliases.
    AliasPair,
    /// FDB010 — a base function is derivable from the rest of the schema.
    Derivable,
    /// FDB018 — an unbalanced transaction statement: `COMMIT`, `ROLLBACK`
    /// or `SAVEPOINT` without an open `BEGIN`, `BEGIN` inside an open
    /// transaction, or `ROLLBACK TO` an unknown savepoint.
    UnbalancedTxn,
    /// FDB019 — the script ends with a transaction still open: its
    /// updates never commit (a durable store discards them at recovery).
    UnclosedTxn,
    /// FDB020 — a read is guaranteed to yield only `ambiguous` results.
    GuaranteedAmbiguous,
    /// FDB021 — a derived insert must raise a functionality (GD) conflict.
    GuaranteedConflict,
    /// FDB022 — a derived delete has no supporting chain: there is no
    /// negated conjunction to discharge, the fact is already false.
    UndischargeableDelete,
    /// FDB023 — a fact is inserted and later deleted without ever being
    /// read in between.
    DeadWrite,
    /// FDB030 — a derivation's estimated chain count exceeds the budget.
    ChainBudget,
    /// FDB031 — a `DECLARE` closes a cycle in the function graph; without
    /// the Unique Form Assumption, design analysis over cycles can be
    /// exponential.
    CycleWithoutUfa,
    /// FDB040 — a write statement in a script declared `-- mode: replica`:
    /// a read-only replica engine refuses it at runtime.
    ReplicaWrite,
    /// FDB050 — a stored function's extension is single-valued in a
    /// direction its declaration does not guarantee (incidental,
    /// non-genuine functionality).
    IncidentalFunctionality,
    /// FDB051 — a stored function's extension violates its *declared*
    /// functionality; the message carries a minimal cardinality repair
    /// (the smallest fact set whose deletion restores the constraint).
    FunctionalityViolated,
    /// FDB052 — a stored function's extension is reproduced by a
    /// derivation over other base functions (candidate derived function,
    /// Method 2.1 designer proposal).
    CandidateDerivation,
    /// FDB053 — a non-genuine assumption the planner was using was
    /// invalidated by a base write.
    NonGenuineInvalidated,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 24] = [
        Code::Syntax,
        Code::UndefinedFunction,
        Code::DuplicateDeclare,
        Code::BrokenChain,
        Code::EndpointMismatch,
        Code::FunctionalityMismatch,
        Code::SelfReferential,
        Code::StepThroughDerived,
        Code::ShadowsFacts,
        Code::AliasPair,
        Code::Derivable,
        Code::UnbalancedTxn,
        Code::UnclosedTxn,
        Code::GuaranteedAmbiguous,
        Code::GuaranteedConflict,
        Code::UndischargeableDelete,
        Code::DeadWrite,
        Code::ChainBudget,
        Code::CycleWithoutUfa,
        Code::ReplicaWrite,
        Code::IncidentalFunctionality,
        Code::FunctionalityViolated,
        Code::CandidateDerivation,
        Code::NonGenuineInvalidated,
    ];

    /// The stable code string, e.g. `FDB001`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Syntax => "FDB000",
            Code::UndefinedFunction => "FDB001",
            Code::DuplicateDeclare => "FDB002",
            Code::BrokenChain => "FDB003",
            Code::EndpointMismatch => "FDB004",
            Code::FunctionalityMismatch => "FDB005",
            Code::SelfReferential => "FDB006",
            Code::StepThroughDerived => "FDB007",
            Code::ShadowsFacts => "FDB008",
            Code::AliasPair => "FDB009",
            Code::Derivable => "FDB010",
            Code::UnbalancedTxn => "FDB018",
            Code::UnclosedTxn => "FDB019",
            Code::GuaranteedAmbiguous => "FDB020",
            Code::GuaranteedConflict => "FDB021",
            Code::UndischargeableDelete => "FDB022",
            Code::DeadWrite => "FDB023",
            Code::ChainBudget => "FDB030",
            Code::CycleWithoutUfa => "FDB031",
            Code::ReplicaWrite => "FDB040",
            Code::IncidentalFunctionality => "FDB050",
            Code::FunctionalityViolated => "FDB051",
            Code::CandidateDerivation => "FDB052",
            Code::NonGenuineInvalidated => "FDB053",
        }
    }

    /// Fixed severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::Syntax
            | Code::UndefinedFunction
            | Code::DuplicateDeclare
            | Code::BrokenChain
            | Code::EndpointMismatch
            | Code::FunctionalityMismatch
            | Code::SelfReferential
            | Code::StepThroughDerived
            | Code::ShadowsFacts
            | Code::UnbalancedTxn
            | Code::ReplicaWrite => Severity::Error,
            Code::UnclosedTxn
            | Code::GuaranteedAmbiguous
            | Code::GuaranteedConflict
            | Code::UndischargeableDelete
            | Code::DeadWrite
            | Code::ChainBudget
            | Code::FunctionalityViolated => Severity::Warn,
            Code::AliasPair
            | Code::Derivable
            | Code::CycleWithoutUfa
            | Code::IncidentalFunctionality
            | Code::CandidateDerivation
            | Code::NonGenuineInvalidated => Severity::Info,
        }
    }

    /// Short rule name (SARIF `shortDescription`).
    pub fn title(self) -> &'static str {
        match self {
            Code::Syntax => "syntax error",
            Code::UndefinedFunction => "undefined function",
            Code::DuplicateDeclare => "duplicate declaration",
            Code::BrokenChain => "derivation steps do not chain",
            Code::EndpointMismatch => "derivation endpoints mismatch",
            Code::FunctionalityMismatch => "derivation functionality mismatch",
            Code::SelfReferential => "self-referential derivation",
            Code::StepThroughDerived => "derivation through derived function",
            Code::ShadowsFacts => "derivation shadows stored facts",
            Code::AliasPair => "mutually derivable alias pair",
            Code::Derivable => "function derivable from rest of schema",
            Code::UnbalancedTxn => "unbalanced transaction statement",
            Code::UnclosedTxn => "script ends with unclosed transaction",
            Code::GuaranteedAmbiguous => "read guaranteed ambiguous",
            Code::GuaranteedConflict => "derived insert guaranteed to conflict",
            Code::UndischargeableDelete => "derived delete with no supporting chain",
            Code::DeadWrite => "fact inserted and deleted without a read",
            Code::ChainBudget => "estimated chain count exceeds budget",
            Code::CycleWithoutUfa => "declaration closes a function-graph cycle",
            Code::ReplicaWrite => "write statement in replica-mode script",
            Code::IncidentalFunctionality => "incidental functionality not declared",
            Code::FunctionalityViolated => "declared functionality violated by stored facts",
            Code::CandidateDerivation => "stored extension matches a candidate derivation",
            Code::NonGenuineInvalidated => "non-genuine assumption invalidated by a write",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code anchored to a source span, with a message and an
/// optional fix hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Where in the script the finding anchors. `line == 0` means "no
    /// source location" (schema-only analysis).
    pub span: Span,
    /// Human-readable statement of the finding.
    pub message: String,
    /// Optional suggestion for fixing it.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic without a hint.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            span,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// The code's severity.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the one-line text form:
    /// `FDB001 error 3:8: unknown function \`teach\``, followed by an
    /// indented `hint:` line when one is present. Spans on line 0 (no
    /// source location) render without the `line:col` anchor.
    pub fn render(&self) -> String {
        let mut out = if self.span.line == 0 {
            format!("{} {}: {}", self.code, self.severity(), self.message)
        } else {
            format!(
                "{} {} {}:{}: {}",
                self.code,
                self.severity(),
                self.span.line,
                self.span.col(),
                self.message
            )
        };
        if let Some(hint) = &self.hint {
            out.push_str("\n  hint: ");
            out.push_str(hint);
        }
        out
    }

    /// The diagnostic as a JSON-ready content tree.
    pub fn to_content(&self) -> Content {
        let mut entries = vec![
            (
                Content::Str("code".into()),
                Content::Str(self.code.as_str().into()),
            ),
            (
                Content::Str("severity".into()),
                Content::Str(self.severity().as_str().into()),
            ),
            (
                Content::Str("line".into()),
                Content::U64(u64::from(self.span.line)),
            ),
            (
                Content::Str("col".into()),
                Content::U64(u64::from(self.span.col())),
            ),
            (
                Content::Str("end_col".into()),
                Content::U64(u64::from(self.span.end_col())),
            ),
            (
                Content::Str("message".into()),
                Content::Str(self.message.clone()),
            ),
        ];
        if let Some(hint) = &self.hint {
            entries.push((Content::Str("hint".into()), Content::Str(hint.clone())));
        }
        Content::Map(entries)
    }
}

/// Orders diagnostics by (line, column, code) for deterministic output.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.span.line, a.span.start, a.code, &a.message).cmp(&(
            b.span.line,
            b.span.start,
            b.code,
            &b.message,
        ))
    });
}

/// Counts findings per severity: `(errors, warnings, infos)`.
pub fn tally(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut e = 0;
    let mut w = 0;
    let mut i = 0;
    for d in diags {
        match d.severity() {
            Severity::Error => e += 1,
            Severity::Warn => w += 1,
            Severity::Info => i += 1,
        }
    }
    (e, w, i)
}

/// The fixed-form summary line: `check: 1 errors, 0 warnings, 2 infos`.
pub fn summary_line(diags: &[Diagnostic]) -> String {
    let (e, w, i) = tally(diags);
    format!("check: {e} errors, {w} warnings, {i} infos")
}

/// Renders findings as text: one [`Diagnostic::render`] block per finding
/// followed by the summary line. Always ends with a newline.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render());
        out.push('\n');
    }
    out.push_str(&summary_line(diags));
    out.push('\n');
    out
}

/// Renders findings as a JSON array (compact, one line).
pub fn render_json(diags: &[Diagnostic]) -> String {
    render_content(&Content::Seq(
        diags.iter().map(Diagnostic::to_content).collect(),
    ))
}

/// Renders any hand-built [`Content`] tree as compact JSON (the CLI uses
/// this to assemble multi-file reports).
pub fn render_content(tree: &Content) -> String {
    serde_json::to_string(tree).unwrap_or_else(|_| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("FDB"));
            assert_eq!(c.as_str().len(), 6);
        }
        assert_eq!(Code::ALL.len(), 24);
    }

    #[test]
    fn code_registry_is_ordered_and_contiguous_where_claimed() {
        // `Code::ALL` must list codes in strictly ascending numeric order,
        // so a new family can't silently collide with or shadow an
        // existing code.
        let nums: Vec<u32> = Code::ALL
            .iter()
            .map(|c| c.as_str()[3..].parse().expect("numeric suffix"))
            .collect();
        for w in nums.windows(2) {
            assert!(w[0] < w[1], "Code::ALL not ascending at FDB{:03}", w[1]);
        }

        // Each family block documented as contiguous must be exactly that:
        // no gaps inside the claimed range, nothing outside it.
        let family = |lo: u32, hi: u32| -> Vec<u32> {
            nums.iter()
                .copied()
                .filter(|&n| n >= lo && n <= hi)
                .collect()
        };
        assert_eq!(family(0, 10), (0..=10).collect::<Vec<_>>(), "FDB00x block");
        assert_eq!(
            family(18, 23),
            (18..=23).collect::<Vec<_>>(),
            "txn/3VL block"
        );
        assert_eq!(family(30, 31), vec![30, 31], "cost block");
        assert_eq!(family(40, 40), vec![40], "deployment block");
        assert_eq!(
            family(50, 53),
            (50..=53).collect::<Vec<_>>(),
            "FDB05x block"
        );
        assert_eq!(
            nums.len(),
            family(0, 10).len()
                + family(18, 23).len()
                + family(30, 31).len()
                + family(40, 40).len()
                + family(50, 53).len(),
            "a code lies outside every documented family block"
        );

        // Severity and title are total over the registry and stable: a
        // newly added code must pick a severity and a non-empty title.
        let mut titles = std::collections::HashSet::new();
        for c in Code::ALL {
            let _ = c.severity();
            assert!(!c.title().is_empty(), "{c} has an empty title");
            assert!(titles.insert(c.title()), "{c} reuses another code's title");
        }
        // Spot-check the FDB05x severities the docs promise: only the
        // declared-constraint violation warns, discovery facts are info.
        assert_eq!(Code::IncidentalFunctionality.severity(), Severity::Info);
        assert_eq!(Code::FunctionalityViolated.severity(), Severity::Warn);
        assert_eq!(Code::CandidateDerivation.severity(), Severity::Info);
        assert_eq!(Code::NonGenuineInvalidated.severity(), Severity::Info);
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn render_includes_code_severity_and_position() {
        let d = Diagnostic::new(
            Code::UndefinedFunction,
            Span::new(3, 7, 12),
            "unknown function `teach`",
        );
        assert_eq!(d.render(), "FDB001 error 3:8: unknown function `teach`");
        let d = d.with_hint("DECLARE it first");
        assert!(d.render().ends_with("\n  hint: DECLARE it first"));
    }

    #[test]
    fn render_text_ends_with_summary() {
        let diags = vec![
            Diagnostic::new(Code::Derivable, Span::new(1, 0, 4), "a"),
            Diagnostic::new(Code::DeadWrite, Span::new(2, 0, 4), "b"),
        ];
        let text = render_text(&diags);
        assert!(text.ends_with("check: 0 errors, 1 warnings, 1 infos\n"));
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let diags = vec![Diagnostic::new(
            Code::GuaranteedAmbiguous,
            Span::new(9, 6, 11),
            "truth of `teach(a, b)` is guaranteed ambiguous",
        )
        .with_hint("RESOLVE first")];
        let json = render_json(&diags);
        let tree = serde_json::parse(&json).expect("valid JSON");
        let seq = tree.as_seq().expect("array");
        assert_eq!(seq.len(), 1);
        let map = seq[0].as_map().expect("object");
        assert_eq!(
            serde::map_get(map, "code").and_then(Content::as_str),
            Some("FDB020")
        );
        assert_eq!(
            serde::map_get(map, "severity").and_then(Content::as_str),
            Some("warn")
        );
        assert_eq!(serde::map_get(map, "line"), Some(&Content::U64(9)));
        assert_eq!(serde::map_get(map, "col"), Some(&Content::U64(7)));
    }

    #[test]
    fn sort_is_by_position_then_code() {
        let mut diags = vec![
            Diagnostic::new(Code::DeadWrite, Span::new(5, 2, 3), "later"),
            Diagnostic::new(Code::Syntax, Span::new(1, 0, 1), "first"),
            Diagnostic::new(Code::UndefinedFunction, Span::new(1, 0, 1), "second"),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].message, "first");
        assert_eq!(diags[1].message, "second");
        assert_eq!(diags[2].message, "later");
    }
}
