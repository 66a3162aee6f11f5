//! Core vocabulary of the `fdb` functional database.
//!
//! A *functional database* (in the DAPLEX / EFDM lineage formalised by
//! Yerneni & Lanka, ICDE 1989) is a set of **object types** together with a
//! set of **functions** `F : α → β` mapping objects of type `α` to objects
//! of type `β`. Functions are not necessarily single-valued; they are binary
//! relations whose *type functionality* (one-one, one-many, many-one,
//! many-many) is declared in the schema.
//!
//! This crate defines the shared vocabulary used by every other crate in
//! the workspace:
//!
//! * [`Value`] — data atoms and uniquely-indexed null values (`n₁`, `n₂`, …)
//!   with the paper's exact / ambiguous matching rules,
//! * [`TypeId`] / [`TypeRegistry`] — interned object types, including
//!   compound domains such as `[student; course]`,
//! * [`Functionality`] — the type-functionality algebra closed under
//!   composition and inverse,
//! * [`FunctionDef`] / [`Schema`] — function definitions and conceptual
//!   schemas,
//! * [`Derivation`] — derivation expressions `u₁F₁ o u₂F₂ o … o uₖFₖ`
//!   with `uᵢ ∈ {identity, inverse}`,
//! * [`check_registration`] / [`Refusal`] — the catalog's rules for
//!   when a derivation may be registered, read by every consumer,
//! * [`FdbError`] — the workspace error type,
//! * [`codec`] — the integer/string primitives and bounded reader the
//!   binary snapshot format is written and read with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
pub mod codec;
mod derivation;
mod error;
mod function;
mod functionality;
mod schema;
mod span;
mod types;
mod value;

pub use catalog::{check_expression, check_registration, Refusal};
pub use derivation::{Derivation, Op, Step};
pub use error::{FdbError, Result};
pub use function::{FunctionDef, FunctionId};
pub use functionality::Functionality;
pub use schema::{schema_s1, schema_s2, Schema, SchemaBuilder};
pub use span::Span;
pub use types::{TypeId, TypeRegistry};
pub use value::{Atom, MatchKind, NullGen, NullId, Value};
