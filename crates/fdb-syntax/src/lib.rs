//! The syntax of the fdb language: its lexer, its parser and the one
//! statement AST that every consumer reads. `fdb-lang`'s engine executes
//! these statements, and `fdb-check`'s analyzer judges the same ones,
//! anchoring its diagnostics at their [`StmtSpans`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{Admission, DeriveStep, Governed, Statement};
pub use parser::{
    parse_script, parse_statement, parse_statement_spanned, SpannedStatement, StmtSpans,
};
