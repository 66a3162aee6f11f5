//! The *function graph* machinery of §2 of Yerneni & Lanka (ICDE 1989).
//!
//! The function graph of a functional database `F` with schema `S` is the
//! undirected (multi)graph whose vertices are the object types of `F` and
//! whose edges are the functions of `S`. Paths in this graph correspond to
//! derivation expressions built from composition and inverse, which makes
//! the graph the natural arena for the two §2 problems:
//!
//! * **Algorithm AMS** ([`ams`]) solves the *Minimal Schema Problem* under
//!   the Unique Form Assumption in polynomial time (Theorem 1);
//! * **Method 2.1** ([`design`]) is the interactive, on-line design aid for
//!   schemas where the UFA does not hold: it maintains the function graph
//!   incrementally, reports every cycle a newly added function creates
//!   together with the cycle's *candidate derived functions*, and lets a
//!   [`Designer`] decide which edge (if any) is derived.
//!
//! Supporting modules: [`graph`] (the multigraph), [`paths`] (simple-path
//! and cycle enumeration), [`equiv`] (syntactic + type-functional
//! equivalence, including the `O(|E|)` product-graph reachability check
//! that keeps AMS quadratic), and [`report`] (human-readable rendering of
//! cycles, graphs and design logs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ams;
pub mod cycles;
pub mod design;
pub mod designers;
pub mod equiv;
pub mod graph;
pub mod lint;
pub mod paths;
pub mod report;

pub use ams::{
    all_minimal_schemas, minimal_schema, minimal_schema_governed, minimal_schema_with_advisory,
    minimal_schema_with_limits, minimal_schema_with_order, AmsOutcome, DerivedFunction,
};
pub use cycles::{cycles_through_edge, cycles_through_edge_governed, Cycle};
pub use design::{
    CycleDecision, CycleReport, DesignConfig, DesignEvent, DesignOutcome, DesignSession, Designer,
};
pub use designers::{FirstCandidateDesigner, KeepAllDesigner, OracleDesigner, ScriptedDesigner};
pub use equiv::{exists_equivalent_walk, path_matches, path_matches_function};
// Re-exported so downstream crates can use the governed entry points
// without naming fdb-governor directly.
pub use fdb_governor::{
    Budget, CancelToken, Governance, Governor, Outcome, StopReason, Ungoverned,
};
pub use graph::{Dir, Edge, EdgeId, EdgeKind, FunctionGraph};
pub use lint::{diagnose, diagnose_governed, render_diagnostics, SchemaDiagnostics};
pub use paths::{all_simple_paths, all_simple_paths_governed, Path, PathLimits, PathStep};
