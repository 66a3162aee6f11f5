//! `fdb-check` — whole-program static analysis for functional-database
//! schemas and FDBL scripts.
//!
//! The paper's machinery (derivation identification, generalized-
//! dependency conflicts, three-valued truth under negated conjunctions)
//! is exact enough that many runtime failures are *decidable from the
//! script text alone*. This crate analyzes a script without executing
//! anything and reports typed diagnostics:
//!
//! | range    | pass                                  | severity |
//! |----------|---------------------------------------|----------|
//! | `FDB00x` | name/type/derivation well-formedness  | error    |
//! | `FDB009`/`FDB010` | schema design (via `fdb-graph`) | info   |
//! | `FDB018`/`FDB019` | transaction structure          | error/warn |
//! | `FDB02x` | three-valued abstract interpretation  | warn     |
//! | `FDB030` | cost/feasibility (via `fdb-exec`)     | warn     |
//! | `FDB031` | cycle closed without the UFA          | info     |
//! | `FDB040` | write in a `-- mode: replica` script  | error    |
//! | `FDB05x` | data-aware discovery (via [`mod@discover`]) | info/warn |
//!
//! Entry points: [`analyze_script`] over the statements
//! [`fdb_syntax::parse_script`] made — the AST the engine executes, each
//! statement with the spans its diagnostics anchor at —
//! [`analyze_script_in`] for statements that ran on top of an existing
//! catalog (a [`World`]), and [`analyze_schema`] over a bare
//! [`fdb_types::Schema`]. Output renders as plain text
//! ([`render_text`]), a JSON array ([`render_json`]) or a SARIF 2.1.0
//! log ([`render_sarif`]); CI noise is managed with [`Baseline`] files.
//!
//! The analyzer is pure: it never touches a store, never mutates the
//! schema it is given, and its only observable side effect is bumping
//! the `fdb.check.*` observability counters. The [`mod@discover`] module
//! extends the same guarantee to the *data-aware* pass: it reads a store
//! but never writes one.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod analyzer;
pub mod baseline;
pub mod diag;
pub mod discover;
pub mod sarif;

pub use analyzer::{
    analyze_schema, analyze_script, analyze_script_in, detect_replica_mode, CheckConfig, World,
};
pub use baseline::{baseline_key, Baseline};
pub use diag::{
    render_content, render_json, render_text, sort_diagnostics, summary_line, tally, Code,
    Diagnostic, Severity,
};
pub use discover::{
    discover, discovery_diagnostics, discovery_to_content, invalidation_diagnostic, minimal_repair,
    render_discovery_text, CandidateDerivation, DiscoveredFd, DiscoveryReport, Violation,
};
pub use sarif::{render_sarif, render_sarif_all};
