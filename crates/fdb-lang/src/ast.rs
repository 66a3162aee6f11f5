//! Abstract syntax of the fdb language.

/// One step of a `DERIVE` expression: a function name, possibly inverted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeriveStep {
    /// Function name.
    pub name: String,
    /// `true` for `name^-1`.
    pub inverse: bool,
}

/// One statement of the language (one line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Statement {
    /// `DECLARE name: dom -> rng (functionality)`.
    Declare {
        /// Function name.
        name: String,
        /// Domain type name (compound types in brackets).
        domain: String,
        /// Range type name.
        range: String,
        /// Functionality text, e.g. `many-one`.
        functionality: String,
    },
    /// `DERIVE name = f o g^-1 o …`.
    Derive {
        /// The derived function's name.
        name: String,
        /// Derivation steps, first applied first.
        steps: Vec<DeriveStep>,
    },
    /// `INSERT f(x, y)`.
    Insert {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
        /// Range value.
        y: String,
    },
    /// `DELETE f(x, y)`.
    Delete {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
        /// Range value.
        y: String,
    },
    /// `REPLACE f(x1, y1) WITH (x2, y2)`.
    Replace {
        /// Function name.
        function: String,
        /// Pair to remove.
        old: (String, String),
        /// Pair to add.
        new: (String, String),
    },
    /// `QUERY f(x)` — the image of `x`.
    Query {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
    },
    /// `TRUTH f(x, y)`.
    Truth {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
        /// Range value.
        y: String,
    },
    /// `SHOW f` — the stored table (base) or computed extension (derived).
    Show {
        /// Function name.
        function: String,
    },
    /// `DERIVATIONS f`.
    Derivations {
        /// Function name.
        function: String,
    },
    /// `SCHEMA`.
    Schema,
    /// `STATS`.
    Stats,
    /// `RESOLVE` — run the FD-based ambiguity-resolution pass.
    Resolve,
    /// `CHECK` / `CHECK JSON` — run the consistency checker plus the
    /// `fdb-check` static analyzer over the statements executed so far.
    Check {
        /// `true` for `CHECK JSON`: emit diagnostics as a JSON array.
        json: bool,
    },
    /// `CHECK DATA` — run the data-aware discovery pass and render its
    /// findings (plus any invalidated non-genuine assumptions) as
    /// `FDB05x` diagnostics.
    CheckData,
    /// `DISCOVER` / `DISCOVER JSON` — mine the stored extensions for
    /// incidental FDs, declared-functionality violations (with minimal
    /// repairs) and candidate derivations; install the discovered FDs as
    /// non-genuine planner assumptions.
    Discover {
        /// `true` for `DISCOVER JSON`: emit the report as JSON.
        json: bool,
    },
    /// `STRICT ON` / `STRICT OFF` — toggle pre-flight static analysis of
    /// `SOURCE`d scripts (error-severity findings refuse execution).
    Strict {
        /// Desired strict-mode state.
        on: bool,
    },
    /// `HELP`.
    Help,
    /// `BEGIN` — open a transaction.
    Begin,
    /// `COMMIT` — make the open transaction permanent.
    Commit,
    /// `ABORT` / `ROLLBACK` — roll the whole open transaction back.
    Abort,
    /// `SAVEPOINT name` — set (or replace) a named savepoint inside the
    /// open transaction.
    Savepoint {
        /// The savepoint's name.
        name: String,
    },
    /// `ROLLBACK TO name` — roll back to a named savepoint, which stays
    /// set.
    RollbackTo {
        /// The savepoint to roll back to.
        name: String,
    },
    /// `SAVE "path"` — write a snapshot of the database.
    Save {
        /// Destination file path.
        path: String,
    },
    /// `LOAD "path"` — replace the database with a snapshot.
    Load {
        /// Source file path.
        path: String,
    },
    /// `DUMP "path"` — export a re-runnable script (schema + true facts).
    Dump {
        /// Destination file path.
        path: String,
    },
    /// `EVAL x : f o g^-1 o …` — ad-hoc path-expression query.
    Eval {
        /// The starting value.
        x: String,
        /// Expression steps.
        steps: Vec<DeriveStep>,
    },
    /// `INVERSE f(y)` — the inverse image of `y` under `f`.
    Inverse {
        /// Function name.
        function: String,
        /// Range value.
        y: String,
    },
    /// `EXPLAIN f(x, y)` — evidence for a fact's truth value.
    Explain {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
        /// Range value.
        y: String,
    },
    /// `EXPLAIN PLAN f(x, y)` — the chain plan each derivation of `f`
    /// compiles to for this query, with cost estimates vs actuals.
    ExplainPlan {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
        /// Range value.
        y: String,
    },
    /// `EXPLAIN ANALYZE f(x, y)` — execute the truth query and report
    /// per-derivation plans, estimate-vs-actual chain counts, cache
    /// outcome, governor steps and timing.
    ExplainAnalyze {
        /// Function name.
        function: String,
        /// Domain value.
        x: String,
        /// Range value.
        y: String,
    },
    /// `STATS RESET` — zero the process-wide metrics registry.
    StatsReset,
    /// `STATS JSON` — dump the metrics registry as JSON.
    StatsJson,
    /// `SOURCE "path"` — execute a script file, line by line.
    Source {
        /// Script file path.
        path: String,
    },
    /// `TIMEOUT <millis>` / `TIMEOUT OFF` — per-statement deadline for
    /// queries over derived functions.
    Timeout {
        /// `Some(ms)` to set, `None` to clear.
        millis: Option<u64>,
    },
    /// `TRACE ON [SAMPLE <n>]` / `TRACE OFF` — causal statement tracing;
    /// `ON` without `SAMPLE` traces every statement.
    Trace {
        /// Desired tracing state.
        on: bool,
        /// 1-in-n statement sampling rate (`Some` only with `ON`).
        sample: Option<u64>,
    },
    /// `TRACE SLOW <millis>` / `TRACE SLOW OFF` — slow-query log
    /// threshold.
    TraceSlow {
        /// `Some(ms)` to set, `None` to disable the slow log.
        millis: Option<u64>,
    },
    /// `SHOW TRACE` / `SHOW TRACE JSON` — the causal span ring, as text
    /// or Chrome trace-event JSON.
    ShowTrace {
        /// `true` for the Chrome trace-event JSON export.
        json: bool,
    },
    /// `SHOW SLOW` — the slow-query log.
    ShowSlow,
    /// `DUMP TRACE` — write a flight-recorder dump (`flight-<seq>.json`).
    DumpTrace,
    /// `REPLICA STATUS` — replication position, lag and health of an
    /// engine serving reads from an attached replica.
    ReplicaStatus,
    /// `PROMOTE` — fail over: promote the attached replica to a writable
    /// primary on a new, higher term.
    Promote,
    /// Blank line / comment-only line.
    Empty,
}

/// When a statement kind consults the engine's per-statement governor
/// (deadline + cancellation flag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Governed {
    /// Never: the statement does a bounded amount of work.
    No,
    /// `INSERT` / `DELETE` / `REPLACE` inside an open transaction: the
    /// governor is checked before the update runs, so a tripped cancel
    /// flag or an expired deadline applies nothing more and the engine
    /// rolls back to the last savepoint.
    InTransaction,
    /// Query-shaped statements: chain enumeration runs under the
    /// governor and a stopped one renders as a partial answer.
    Always,
}

/// How the engine admits a statement, decided from its kind alone. The
/// engine's gates and the static analyzer's `FDB040` both read this, so
/// the lint cannot disagree with the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// The keyword under which an engine serving a read-only replica
    /// refuses the statement; `None` for statements it serves.
    pub replica_refuses: Option<&'static str>,
    /// When the statement consults the statement governor.
    pub governed: Governed,
}

impl Statement {
    /// Classifies the statement for the engine's pipeline.
    pub fn admission(&self) -> Admission {
        use Governed::{Always, InTransaction, No};
        let (replica_refuses, governed) = match self {
            Statement::Insert { .. } => (Some("INSERT"), InTransaction),
            Statement::Delete { .. } => (Some("DELETE"), InTransaction),
            Statement::Replace { .. } => (Some("REPLACE"), InTransaction),
            Statement::Declare { .. } => (Some("DECLARE"), No),
            Statement::Derive { .. } => (Some("DERIVE"), No),
            Statement::Resolve => (Some("RESOLVE"), No),
            Statement::Begin => (Some("BEGIN"), No),
            Statement::Commit => (Some("COMMIT"), No),
            Statement::Abort => (Some("ABORT"), No),
            Statement::Savepoint { .. } => (Some("SAVEPOINT"), No),
            Statement::RollbackTo { .. } => (Some("ROLLBACK TO"), No),
            Statement::Load { .. } => (Some("LOAD"), No),
            Statement::Query { .. }
            | Statement::Truth { .. }
            | Statement::Show { .. }
            | Statement::Eval { .. }
            | Statement::Inverse { .. } => (None, Always),
            Statement::Derivations { .. }
            | Statement::Schema
            | Statement::Stats
            | Statement::Check { .. }
            | Statement::CheckData
            | Statement::Discover { .. }
            | Statement::Strict { .. }
            | Statement::Help
            | Statement::Save { .. }
            | Statement::Dump { .. }
            | Statement::Explain { .. }
            | Statement::ExplainPlan { .. }
            | Statement::ExplainAnalyze { .. }
            | Statement::StatsReset
            | Statement::StatsJson
            | Statement::Source { .. }
            | Statement::Timeout { .. }
            | Statement::Trace { .. }
            | Statement::TraceSlow { .. }
            | Statement::ShowTrace { .. }
            | Statement::ShowSlow
            | Statement::DumpTrace
            | Statement::ReplicaStatus
            | Statement::Promote
            | Statement::Empty => (None, No),
        };
        Admission {
            replica_refuses,
            governed,
        }
    }
}
