//! Extensional storage with three-valued truth for the fdb functional
//! database — the §3.2 / §4 machinery of Yerneni & Lanka (ICDE 1989).
//!
//! A fact `f(a) = b` is stored as the quadruple `<a, b, T/A, NCL>` in the
//! table of `f` (§4): the *truth flag* is `T` (true) or `A` (ambiguous),
//! and the *negated-conjunction list* (NCL) records every NC the fact
//! participates in. Partial information created by updates on derived
//! functions is captured by two constructs:
//!
//! * **NC** (negated conjunction, [`nc`]) — created by a derived delete:
//!   the conjunction of the member facts is false, and each member becomes
//!   ambiguous. The NC store and the per-row NCLs form the dual structure
//!   of §4 ("the NC and NCL form a dual data structure that enables the
//!   traversal from a NC to its component facts and vice versa").
//! * **NVC** (null-valued chain, [`nvc`]) — created by a derived insert:
//!   a chain of base facts threaded through fresh, uniquely indexed null
//!   values witnessing the inserted derived fact.
//!
//! Truth of *derived* facts ([`chain`]) follows §3.2 verbatim: a derived
//! fact is **true** if some exactly matching chain of true base facts
//! yields it; **ambiguous** if it is not true but some chain yielding it
//! (exactly or ambiguously) is not a superset of an NC; **false**
//! otherwise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod chain;
pub mod fact;
pub mod nc;
pub mod nvc;
pub mod snapshot;
pub mod store;
pub mod table;
pub mod truth;
pub mod undo;

pub use chain::{Chain, ChainLimits, DerivedPair};
pub use fact::Fact;
pub use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
pub use nc::{Coverage, NcId, NcStore, RowRef};
pub use snapshot::Snapshot;
pub use store::{CompactionPolicy, Store};
pub use table::{RowView, Table, TableStats, Unshared};
pub use truth::Truth;
pub use undo::{UndoJournal, UndoOp};
