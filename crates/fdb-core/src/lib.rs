//! The fdb functional database engine.
//!
//! Ties together the three layers of the reproduction:
//!
//! * `fdb-types` — schemas and derivation expressions,
//! * `fdb-graph` — derived-function identification (§2: AMS and the
//!   Method 2.1 design aid),
//! * `fdb-storage` — extensional tables with three-valued truth, NCs and
//!   NVCs (§3.2, §4),
//!
//! into a [`Database`] offering the update operations of §3 —
//! `INS(f, <x,y>)`, `DEL(f, <x,y>)`, `REP(f, <x₁,y₁>, <x₂,y₂>)` — on base
//! *and* derived functions, three-valued queries, consistency checking,
//! snapshots, and the §5 "future work" extension that uses
//! functionality-implied functional dependencies to resolve ambiguous
//! information ([`resolve`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod consistency;
pub mod database;
pub mod durability;
pub mod explain;
pub mod query;
pub mod resolve;
pub mod session;
pub mod shared;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod txn;
pub mod update;
pub mod wal;

pub use database::{Database, InsertPolicy};
pub use durability::{DurabilityConfig, GroupCommit, LoggedDatabase, SyncPolicy};
pub use explain::{
    render_explanation, AnalyzeReport, ChainEvidence, DerivationAnalysis, Explanation, PlanReport,
};
pub use resolve::{resolve_ambiguities, ResolutionOutcome};
pub use session::{design_database, design_logged_database};
pub use shared::{OverloadPolicy, PinnedSnapshot, Shared, SharedDatabase, SharedLoggedDatabase};
pub use stats::DatabaseStats;
pub use storage::{FileStorage, SimDisk, WalFile, WalStorage};
pub use update::Update;
pub use wal::{
    install_checkpoint, read_checkpoint, replay, CheckpointInfo, Corruption, CorruptionEvent,
    LogRecord, RecoveryReport, TxnReplayer, Wal,
};

pub use fdb_governor::{
    Budget, CancelToken, Governance, Governor, Outcome, StopReason, Ungoverned,
};
