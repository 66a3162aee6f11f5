//! The analyzer's input IR: a flat, spanned statement list.
//!
//! `fdb-check` deliberately does not depend on `fdb-lang`'s AST — the
//! language crate depends on *this* crate (so the engine can pre-flight
//! scripts), and the CLI converts parsed statements into [`CheckStmt`]s.
//! The IR keeps only what the analysis passes need: function names with
//! their spans, literal values, and derivation step lists.

use fdb_types::Span;

/// A name occurrence in the source: the text plus where it sits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Name {
    /// The identifier text.
    pub text: String,
    /// Its source span.
    pub span: Span,
}

impl Name {
    /// Builds a name occurrence.
    pub fn new(text: impl Into<String>, span: Span) -> Self {
        Name {
            text: text.into(),
            span,
        }
    }
}

/// One derivation step reference: `f` or `f^-1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRef {
    /// The referenced function.
    pub name: Name,
    /// `true` for `f^-1`.
    pub inverse: bool,
}

/// Which transaction-control statement a [`CheckStmt::Txn`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// `BEGIN`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ABORT` / bare `ROLLBACK` — whole-transaction rollback.
    Rollback,
    /// `SAVEPOINT <name>`.
    Savepoint,
    /// `ROLLBACK TO <name>`.
    RollbackTo,
}

/// One analyzed statement. Statements the analysis does not model map to
/// [`CheckStmt::Other`]; statements that replace the database wholesale
/// (`LOAD`, `SOURCE`) map to `Other` with `opens_world` set, which tells
/// the abstract interpreter that facts may exist beyond the script's
/// literals (suppressing the closed-world lints from that point on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckStmt {
    /// `DECLARE name: domain -> range (functionality)`.
    Declare {
        /// Statement keyword span.
        keyword: Span,
        /// The declared function.
        name: Name,
        /// Domain type name (compound in brackets).
        domain: String,
        /// Range type name.
        range: String,
        /// Functionality text (`many-one`, …) with its span.
        functionality: Name,
    },
    /// `DERIVE name = f o g^-1 o …`.
    Derive {
        /// Statement keyword span.
        keyword: Span,
        /// The derived function.
        name: Name,
        /// The derivation steps, first applied first.
        steps: Vec<StepRef>,
    },
    /// `INSERT f(x, y)`.
    Insert {
        /// Statement keyword span.
        keyword: Span,
        /// Target function.
        function: Name,
        /// Domain value literal.
        x: String,
        /// Range value literal.
        y: String,
    },
    /// `DELETE f(x, y)`.
    Delete {
        /// Statement keyword span.
        keyword: Span,
        /// Target function.
        function: Name,
        /// Domain value literal.
        x: String,
        /// Range value literal.
        y: String,
    },
    /// `REPLACE f(x1, y1) WITH (x2, y2)`.
    Replace {
        /// Statement keyword span.
        keyword: Span,
        /// Target function.
        function: Name,
        /// Pair removed.
        old: (String, String),
        /// Pair added.
        new: (String, String),
    },
    /// `QUERY f(x)`.
    Query {
        /// Statement keyword span.
        keyword: Span,
        /// Queried function.
        function: Name,
        /// Domain value literal.
        x: String,
    },
    /// `TRUTH f(x, y)`.
    Truth {
        /// Statement keyword span.
        keyword: Span,
        /// Queried function.
        function: Name,
        /// Domain value literal.
        x: String,
        /// Range value literal.
        y: String,
    },
    /// `INVERSE f(y)`.
    Inverse {
        /// Statement keyword span.
        keyword: Span,
        /// Queried function.
        function: Name,
        /// Range value literal.
        y: String,
    },
    /// `SHOW f` / `EXPLAIN f(x, y)` / `DERIVATIONS f` — a read that
    /// touches the whole function.
    Read {
        /// Statement keyword span.
        keyword: Span,
        /// The read function.
        function: Name,
    },
    /// `EVAL x : f o g^-1 o …` — an ad-hoc path query.
    Eval {
        /// Statement keyword span.
        keyword: Span,
        /// Steps of the path expression.
        steps: Vec<StepRef>,
    },
    /// `RESOLVE` — the FD-based ambiguity-resolution pass.
    Resolve {
        /// Statement keyword span.
        keyword: Span,
    },
    /// `BEGIN` / `COMMIT` / `ABORT` / `SAVEPOINT n` / `ROLLBACK [TO n]` —
    /// transaction control. The analyzer checks balance (`FDB018`,
    /// `FDB019`) and rolls its abstract state back exactly the way the
    /// engine does.
    Txn {
        /// Statement keyword span.
        keyword: Span,
        /// Which transaction-control statement this is.
        op: TxnOp,
        /// The savepoint name (`Savepoint` / `RollbackTo` only).
        name: Option<Name>,
    },
    /// Any other statement.
    Other {
        /// Statement keyword span.
        keyword: Span,
        /// `true` when the statement may introduce facts the script does
        /// not spell out (`LOAD`, `SOURCE`).
        opens_world: bool,
        /// `true` when a read-only replica engine refuses the statement
        /// (`LOAD`), like the typed write and transaction statements.
        writes: bool,
    },
}

impl CheckStmt {
    /// The statement's keyword span (its anchor of last resort).
    pub fn keyword(&self) -> Span {
        match self {
            CheckStmt::Declare { keyword, .. }
            | CheckStmt::Derive { keyword, .. }
            | CheckStmt::Insert { keyword, .. }
            | CheckStmt::Delete { keyword, .. }
            | CheckStmt::Replace { keyword, .. }
            | CheckStmt::Query { keyword, .. }
            | CheckStmt::Truth { keyword, .. }
            | CheckStmt::Inverse { keyword, .. }
            | CheckStmt::Read { keyword, .. }
            | CheckStmt::Eval { keyword, .. }
            | CheckStmt::Resolve { keyword }
            | CheckStmt::Txn { keyword, .. }
            | CheckStmt::Other { keyword, .. } => *keyword,
        }
    }
}
