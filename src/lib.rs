//! `fdb` — a functional database with derived-function identification and
//! side-effect-free updates.
//!
//! This is a from-scratch Rust reproduction of *"Identifying and Update of
//! Derived Functions in Functional Databases"* (Yerneni & Lanka, ICDE
//! 1989). The workspace is re-exported here so downstream users depend on
//! one crate:
//!
//! * [`types`] — schemas, values, functionalities, derivations;
//! * [`graph`] — the function graph, Algorithm AMS (minimal schema under
//!   the Unique Form Assumption) and the Method 2.1 interactive design
//!   aid;
//! * [`storage`] — extensional tables with three-valued truth, negated
//!   conjunctions (NC) and null-valued chains (NVC);
//! * [`core`] — the database engine: updates, queries, consistency,
//!   FD-based ambiguity resolution, snapshots;
//! * [`check`] — the whole-program static analyzer behind `CHECK`,
//!   `STRICT` and the `fdb-lint` CLI (typed `FDB0xx` diagnostics);
//! * [`lang`] — a DAPLEX-flavoured textual front end and REPL;
//! * [`obs`] — the process-wide metrics registry, causal spans and
//!   exporters behind `STATS`, `SHOW TRACE` and `EXPLAIN ANALYZE`;
//! * [`relational`] — the Dayal–Bernstein / Fagin–Ullman–Vardi view-update
//!   baselines the paper compares against;
//! * [`workload`] — seeded generators and the paper's university example.
//!
//! # Quickstart
//!
//! ```
//! use fdb::core::Database;
//! use fdb::storage::Truth;
//! use fdb::types::{Derivation, Schema, Step, Value};
//!
//! // Schema: pupil is derived as teach o class_list.
//! let schema = Schema::builder()
//!     .function("teach", "faculty", "course", "many-many")
//!     .function("class_list", "course", "student", "many-many")
//!     .function("pupil", "faculty", "student", "many-many")
//!     .build()?;
//! let mut db = Database::new(schema);
//! let (teach, class_list, pupil) = (
//!     db.resolve("teach")?,
//!     db.resolve("class_list")?,
//!     db.resolve("pupil")?,
//! );
//! db.register_derived(
//!     pupil,
//!     vec![Derivation::new(vec![Step::identity(teach), Step::identity(class_list)])?],
//! )?;
//!
//! // Base updates hit the stored tables…
//! db.insert(teach, Value::atom("euclid"), Value::atom("math"))?;
//! db.insert(class_list, Value::atom("math"), Value::atom("john"))?;
//! db.insert(class_list, Value::atom("math"), Value::atom("bill"))?;
//!
//! // …derived updates store partial information instead of guessing.
//! db.delete(pupil, &Value::atom("euclid"), &Value::atom("john"))?;
//! assert_eq!(db.truth(pupil, &Value::atom("euclid"), &Value::atom("john"))?, Truth::False);
//! // The sibling fact is NOT collaterally deleted — it becomes ambiguous.
//! assert_eq!(db.truth(pupil, &Value::atom("euclid"), &Value::atom("bill"))?, Truth::Ambiguous);
//! # Ok::<(), fdb::types::FdbError>(())
//! ```

#![forbid(unsafe_code)]

pub use fdb_check as check;
pub use fdb_core as core;
pub use fdb_exec as exec;
pub use fdb_governor as governor;
pub use fdb_graph as graph;
pub use fdb_lang as lang;
pub use fdb_obs as obs;
pub use fdb_relational as relational;
pub use fdb_repl as repl;
pub use fdb_storage as storage;
pub use fdb_types as types;
pub use fdb_workload as workload;
