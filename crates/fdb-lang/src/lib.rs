//! A DAPLEX-flavoured textual front end for the fdb functional database.
//!
//! The systems the paper builds on (DAPLEX `[1]`, EFDM `[3]`) were driven
//! by textual functional-data-model languages; this crate provides the
//! equivalent for fdb so a user can exercise the whole engine from a REPL
//! or a script. One statement per line:
//!
//! ```text
//! DECLARE teach: faculty -> course (many-many)
//! DECLARE class_list: course -> student (many-many)
//! DECLARE pupil: faculty -> student (many-many)
//! DERIVE pupil = teach o class_list
//! INSERT teach(euclid, math)
//! INSERT class_list(math, john)
//! DELETE pupil(euclid, john)
//! TRUTH pupil(euclid, john)      -- prints F
//! QUERY pupil(laplace)
//! SHOW class_list                -- prints the <a, b, T/A, NCL> table
//! DERIVATIONS pupil
//! STATS
//! RESOLVE
//! CHECK
//! SCHEMA
//! ```
//!
//! Keywords are case-insensitive; `--` starts a comment; values are bare
//! identifiers or double-quoted strings. Inverse steps in `DERIVE` use
//! `^-1`, exactly the paper's notation rendered in ASCII
//! (`DERIVE lecturer_of = class_list^-1 o teach^-1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ast;
pub mod check;
pub mod engine;
pub mod format;
pub mod lexer;
pub mod parser;
pub mod repl;

pub use ast::{Admission, DeriveStep, Governed, Statement};
pub use check::{lower, lower_script, lower_script_from};
pub use engine::Engine;
pub use parser::{parse_statement, parse_statement_spanned, SpannedStatement, StmtSpans};
pub use repl::run_repl;

pub use fdb_core::{CancelToken, Governor, Outcome, StopReason};
