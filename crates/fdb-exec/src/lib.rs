//! Plan/execute pipeline for derived evaluation.
//!
//! The recursive interpreter in `fdb_storage::chain` — kept as the
//! reference implementation — always walks a derivation left-to-right,
//! one row at a time. This crate layers three stages on top of the same
//! storage primitives:
//!
//! 1. **Plan** ([`plan`]): compile a derivation plus a query shape
//!    ([`QuerySpec`]) into a [`ChainPlan`] using [`fdb_storage::TableStats`]
//!    and O(1) index-width probes — choosing forward, backward (through
//!    the `by_y` index), or meet-in-the-middle execution.
//! 2. **Execute** ([`exec`]): run the plan with a streaming frontier
//!    executor whose nodes borrow their values from the store and share
//!    chain prefixes through parent pointers; completed chains go to a
//!    sink — folded into evidence as they arrive, or materialised for
//!    derived delete and `EXPLAIN` — and the interpreter's `Governance` /
//!    [`fdb_storage::ChainLimits`] semantics are preserved exactly (tick
//!    per candidate, exact cap detection, prefix-sound partials).
//! 3. **Cache** ([`cache`]): memoise truth/extension answers behind one
//!    guard per derived function — the per-function mutation counters of
//!    its support set plus its derivation list — so only writes inside
//!    the support set, or a `DERIVE`, invalidate.
//!
//! The high-level entry points in [`eval`] ([`derived_truth`],
//! [`derived_extension`], [`derived_image`], …) are drop-in replacements
//! for the interpreter's, and `fdb-core` routes all derived queries and
//! derived deletes through them. Extension, image and inverse image are
//! evaluated *set-at-a-time*: one enumeration per derivation answers
//! every pair, where the interpreter runs a truth query per pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod eval;
pub mod exec;
pub mod nongenuine;
pub mod plan;

pub use cache::{CacheProbe, CacheReport, CacheStats, ResultCache};
pub use eval::{
    derived_delete_with_policy, derived_extension, derived_extension_governed, derived_image,
    derived_image_governed, derived_inverse_image, derived_inverse_image_governed, derived_truth,
    derived_truth_governed,
};
pub use exec::{chains_planned, chains_with_direction};
pub use nongenuine::{Assumption, AssumptionSet, FdKind};
pub use plan::{estimate, plan, profiles, Bind, ChainPlan, Direction, QuerySpec, StepProfile};
