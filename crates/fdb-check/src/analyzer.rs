//! The analysis passes.
//!
//! [`analyze_script`] walks the statements the parser made
//! ([`SpannedStatement`]s, anchoring each diagnostic at their spans)
//! once, front to back — [`analyze_script_in`] on top of the catalog of
//! an existing database (a [`World`]) — interleaving four kinds of
//! checks:
//!
//! 1. **Resolution / well-formedness** — undefined or duplicate names,
//!    derivations that do not chain, wrong endpoints or functionality,
//!    self-reference, steps through derived functions, shadowed base
//!    facts (`FDB001`–`FDB008`). A `DERIVE` or `EVAL` is judged by the
//!    catalog's rules in `fdb-types` ([`check_registration`],
//!    [`check_expression`]), the ones the engine refuses it by, and a
//!    duplicate name by [`Schema::declare`]; each refusal becomes its
//!    code, so these are all errors.
//! 2. **Three-valued abstract interpretation** — the analyzer maintains
//!    an abstract table per base function holding the script's literal
//!    pairs tagged `True` or `Ambiguous`, replays derived inserts (null
//!    taint) and derived deletes (chain demotion, exactly the paper's
//!    "every member of a negated conjunction becomes ambiguous"), and
//!    flags reads guaranteed to return `ambiguous` (`FDB020`), derived
//!    inserts that must raise a functionality conflict (`FDB021`),
//!    derived deletes with no chain to negate (`FDB022`) and dead writes
//!    (`FDB023`). Anything that opens the world (`LOAD`, `SOURCE`,
//!    `PROMOTE`) mutes these lints — "guaranteed" claims need a closed
//!    world.
//!    Transaction control is modeled precisely: `BEGIN`/`SAVEPOINT`
//!    snapshot the abstract state (when a later statement rolls back to
//!    them) and `ROLLBACK`/`ROLLBACK TO` restore it, exactly the way the
//!    engine restores the database, while unbalanced statements
//!    (`FDB018`) and scripts that end with an open transaction
//!    (`FDB019`) are flagged.
//! 3. **Cost / feasibility** — the final abstract table sizes feed
//!    [`fdb_exec::estimate`] per registered derivation; an unbound
//!    enumeration whose estimated chain count exceeds the configured
//!    budget raises `FDB030`.
//! 4. **Schema design** — a final sweep reuses `fdb-graph`'s lint
//!    (`FDB009` alias pairs, `FDB010` derivable-from-rest) plus an
//!    incremental union-find that flags every `DECLARE` closing a cycle
//!    in the function graph (`FDB031`, the paper's warning that design
//!    analysis without the UFA can be exponential).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::str::FromStr;

use fdb_exec::StepProfile;
use fdb_graph::{lint, PathLimits};
use fdb_syntax::{DeriveStep, SpannedStatement, Statement, StmtSpans};
use fdb_types::{
    check_expression, check_registration, Derivation, FunctionId, Functionality, Op, Refusal,
    Schema, Span,
};

use crate::diag::{sort_diagnostics, tally, Code, Diagnostic};

/// Tunables for the analyzer.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// `FDB030` fires when a derivation's estimated unbound chain count
    /// exceeds this.
    pub chain_budget: f64,
    /// Abstract chain evaluation gives up (returning "unknown", which
    /// mutes the three-valued lints) after this many frontier expansions.
    pub max_abstract_expansions: usize,
    /// `true` when the script is declared `-- mode: replica`: every
    /// statement a read-only replica engine refuses raises `FDB040`.
    pub replica_mode: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            chain_budget: 10_000.0,
            max_abstract_expansions: 4096,
            replica_mode: false,
        }
    }
}

/// Detects the `-- mode: replica` marker in a script's leading comment
/// block. Blank lines are allowed before and between comments; the first
/// real statement ends the search, so the marker cannot be buried
/// mid-script where a reader would miss it.
pub fn detect_replica_mode(text: &str) -> bool {
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        let Some(rest) = t.strip_prefix("--") else {
            return false;
        };
        let body = rest
            .to_ascii_lowercase()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        if body == "mode: replica" || body == "mode:replica" {
            return true;
        }
    }
    false
}

/// The catalog a statement list starts in: what the database held when
/// the first statement ran. A script read on its own starts in the empty
/// one ([`analyze_script`]); a session's history starts in the catalog of
/// the database it was opened on, loaded or promoted to.
#[derive(Clone, Debug, Default)]
pub struct World {
    /// The declared functions.
    pub schema: Schema,
    /// The registered derivations, by derived function.
    pub derived: BTreeMap<FunctionId, Vec<Derivation>>,
    /// The functions whose tables hold stored facts. Which facts is not
    /// part of the catalog, so the closed-world lints stay quiet about
    /// these tables; a table that starts out empty is known exactly.
    pub populated: BTreeSet<FunctionId>,
}

/// Analyzes a whole script. Pure with respect to any database: the only
/// observable side effect is bumping the `fdb.check.*` metrics counters.
pub fn analyze_script(stmts: &[SpannedStatement], config: &CheckConfig) -> Vec<Diagnostic> {
    analyze_script_in(&World::default(), stmts, config)
}

/// [`analyze_script`] for statements that ran on top of `world`: its
/// names resolve, its edges are in the function graph, and a `DERIVE`
/// of a function that already holds facts is the `FDB008` the engine
/// refuses it with.
pub fn analyze_script_in(
    world: &World,
    stmts: &[SpannedStatement],
    config: &CheckConfig,
) -> Vec<Diagnostic> {
    let mut diags = Analyzer::run(world, stmts, config).finish();
    sort_diagnostics(&mut diags);
    bump_counters(&diags);
    diags
}

/// Analyzes a bare schema (no script): only the design pass runs, with
/// diagnostics anchored to no source location (`line == 0`).
pub fn analyze_schema(schema: &Schema, config: &CheckConfig) -> Vec<Diagnostic> {
    let _ = config;
    let mut diags = Vec::new();
    schema_pass(schema, &HashMap::new(), &HashSet::new(), &mut diags);
    sort_diagnostics(&mut diags);
    bump_counters(&diags);
    diags
}

fn bump_counters(diags: &[Diagnostic]) {
    let reg = fdb_obs::registry();
    reg.check_runs.inc();
    let (e, w, i) = tally(diags);
    reg.check_diags_error.add(e as u64);
    reg.check_diags_warn.add(w as u64);
    reg.check_diags_info.add(i as u64);
}

/// Abstract truth of one stored pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Abs {
    /// Literally inserted and not disturbed since.
    True,
    /// Inside some negated conjunction (demoted by a derived delete).
    Amb,
}

/// Result of abstractly evaluating a fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbsTruth {
    True,
    Amb,
    False,
    /// The analyzer cannot tell (nulls, RESOLVE, caps, open world).
    Unknown,
}

/// Abstract state of one base function's table.
#[derive(Clone, Debug, Default)]
struct Table {
    /// Script-literal pairs and their abstract truth.
    pairs: BTreeMap<(String, String), Abs>,
    /// Number of null-valued chain links parked here by derived inserts.
    nulls: usize,
    /// `true` once the table may hold pairs the analyzer cannot
    /// enumerate (after `RESOLVE` rewrote nulls, for example).
    fuzzy: bool,
}

impl Table {
    fn is_sharp(&self) -> bool {
        self.nulls == 0 && !self.fuzzy
    }
}

/// One enumerated abstract chain: the value it ends on, whether every
/// link is exact, and the base-table links it traverses.
struct Chain {
    end: String,
    exact: bool,
    links: Vec<(String, (String, String))>,
}

/// A snapshot of the analyzer's mutable abstract state, taken at a
/// `BEGIN` or `SAVEPOINT` that a later statement rolls back to and
/// restored there — the analyzer-side mirror of the engine's undo
/// journal. Read/write ordering state (`seq`, `reads_seen`) deliberately
/// stays live across rollbacks: a read that happened inside a
/// rolled-back transaction still happened.
#[derive(Clone)]
struct AbsState {
    schema: Schema,
    declare_spans: HashMap<String, Span>,
    derived: BTreeMap<FunctionId, Vec<Derivation>>,
    derive_sites: Vec<(FunctionId, Derivation, Span)>,
    tables: HashMap<String, Table>,
    derived_facts: HashMap<String, BTreeMap<(String, String), Abs>>,
    derived_deleted: HashMap<String, HashSet<(String, String)>>,
    dsu: HashMap<String, String>,
    pending_inserts: HashMap<(String, String, String), (Span, usize)>,
}

/// The shadow of an open transaction, generic in what a scope
/// remembers: the analysis keeps abstract states in it, and
/// [`restored_scopes`] runs the same statements over statement indices
/// to learn beforehand which scopes are worth a state.
struct TxnShadow<T> {
    /// Where the `BEGIN` sits (the `FDB019` anchor).
    begin: Span,
    /// What `BEGIN` remembered, handed back by a whole-transaction
    /// rollback.
    base: T,
    /// Named savepoints in creation order (same-named replaces).
    savepoints: Vec<(String, T)>,
}

/// Applies `s` to `txn` the way the database does, when it is
/// transaction control (`BEGIN`, `COMMIT`, `ABORT`, `SAVEPOINT`,
/// `ROLLBACK TO`). `BEGIN` and `SAVEPOINT` remember `scope()`; a rollback
/// returns what its target remembered; an unbalanced statement changes
/// nothing and is the `FDB018` returned. Any other statement changes
/// nothing.
fn apply_txn<T: Clone>(
    txn: &mut Option<TxnShadow<T>>,
    s: &SpannedStatement,
    scope: impl FnOnce() -> T,
) -> Result<Option<T>, Box<Diagnostic>> {
    let keyword = s.spans.keyword;
    let unbalanced = |anchor: Span, message: String, hint: &str| {
        Err(Box::new(
            Diagnostic::new(Code::UnbalancedTxn, anchor, message).with_hint(hint),
        ))
    };
    let Some(t) = txn.as_mut() else {
        let what = match &s.stmt {
            Statement::Begin => {
                *txn = Some(TxnShadow {
                    begin: keyword,
                    base: scope(),
                    savepoints: Vec::new(),
                });
                return Ok(None);
            }
            Statement::Commit => "COMMIT",
            Statement::Abort => "ROLLBACK",
            Statement::Savepoint { .. } => "SAVEPOINT",
            Statement::RollbackTo { .. } => "ROLLBACK TO",
            _ => return Ok(None),
        };
        return unbalanced(
            keyword,
            format!("{what} without an open BEGIN"),
            "open a transaction with BEGIN first",
        );
    };
    match &s.stmt {
        Statement::Begin => unbalanced(
            keyword,
            "BEGIN inside an open transaction".to_owned(),
            "transactions do not nest; use SAVEPOINT for nested scopes",
        ),
        Statement::Commit => {
            *txn = None;
            Ok(None)
        }
        Statement::Abort => Ok(txn.take().map(|t| t.base)),
        Statement::Savepoint { name } => {
            t.savepoints.retain(|(s, _)| s != name);
            t.savepoints.push((name.clone(), scope()));
            Ok(None)
        }
        Statement::RollbackTo { name } => match t.savepoints.iter().rposition(|(s, _)| s == name) {
            Some(pos) => {
                t.savepoints.truncate(pos + 1);
                Ok(Some(t.savepoints[pos].1.clone()))
            }
            None => unbalanced(
                Ident::named(name, &s.spans).span,
                format!("ROLLBACK TO unknown savepoint `{name}`"),
                "set it with SAVEPOINT <name> inside the transaction first",
            ),
        },
        _ => Ok(None),
    }
}

/// A name as a statement spells it, with the span its diagnostics
/// anchor at.
#[derive(Clone, Copy)]
struct Ident<'s> {
    text: &'s str,
    span: Span,
}

impl<'s> Ident<'s> {
    /// The statement's name `text`, anchored at the name or else at the
    /// keyword.
    fn named(text: &'s str, spans: &StmtSpans) -> Self {
        Ident {
            text,
            span: spans.name.unwrap_or(spans.keyword),
        }
    }

    /// Step `i` of a `DERIVE` or `EVAL`.
    fn step(steps: &'s [DeriveStep], spans: &StmtSpans, i: usize) -> Self {
        Ident {
            text: &steps[i].name,
            span: spans.steps.get(i).copied().unwrap_or(spans.keyword),
        }
    }
}

/// The step list of a `DERIVE` or `EVAL` as the schema's derivation
/// builder takes it.
fn named(steps: &[DeriveStep]) -> Vec<(&str, bool)> {
    steps.iter().map(|s| (s.name.as_str(), s.inverse)).collect()
}

/// Per statement: `true` for a `BEGIN` or `SAVEPOINT` that a later
/// statement rolls back to. A scope nothing restores — every committed
/// transaction — needs no snapshot of the abstract state.
fn restored_scopes(stmts: &[SpannedStatement]) -> Vec<bool> {
    let mut restored = vec![false; stmts.len()];
    let mut txn = None;
    for (at, s) in stmts.iter().enumerate() {
        if let Ok(Some(opened_at)) = apply_txn(&mut txn, s, || at) {
            restored[opened_at] = true;
        }
    }
    restored
}

struct Analyzer<'a> {
    cfg: &'a CheckConfig,
    diags: Vec<Diagnostic>,
    schema: Schema,
    declare_spans: HashMap<String, Span>,
    /// The registered derivations, by derived function.
    derived: BTreeMap<FunctionId, Vec<Derivation>>,
    /// Every successfully registered `DERIVE` site, for the cost pass.
    derive_sites: Vec<(FunctionId, Derivation, Span)>,
    tables: HashMap<String, Table>,
    /// Facts asserted directly on derived functions (via NVC inserts).
    derived_facts: HashMap<String, BTreeMap<(String, String), Abs>>,
    /// Derived facts explicitly deleted (definitely false until the next
    /// write).
    derived_deleted: HashMap<String, HashSet<(String, String)>>,
    /// Union-find over type names, for FDB031.
    dsu: HashMap<String, String>,
    /// Once true, the database may hold state the script does not spell
    /// out; all "guaranteed" lints are muted from here on.
    open_world: bool,
    /// Monotone statement counter for read/write ordering.
    seq: usize,
    /// Base inserts not yet read or deleted: `(f, x, y) → (span, seq)`.
    pending_inserts: HashMap<(String, String, String), (Span, usize)>,
    /// Last read touching each function (directly or via a derivation).
    reads_seen: HashMap<String, usize>,
    /// [`restored_scopes`] of the statement list being visited.
    restored: Vec<bool>,
    /// The open transaction's abstract shadow, if any; a scope nothing
    /// restores remembers `None`.
    txn: Option<TxnShadow<Option<AbsState>>>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer whose abstract state is `world`. Seeded functions
    /// have no declaration site: diagnostics about them carry no
    /// location, and a seeded derivation is no `FDB030` site.
    fn new(cfg: &'a CheckConfig, world: &World) -> Self {
        let mut a = Analyzer {
            cfg,
            diags: Vec::new(),
            schema: world.schema.clone(),
            declare_spans: HashMap::new(),
            derived: world.derived.clone(),
            derive_sites: Vec::new(),
            tables: HashMap::new(),
            derived_facts: HashMap::new(),
            derived_deleted: HashMap::new(),
            dsu: HashMap::new(),
            open_world: false,
            seq: 0,
            pending_inserts: HashMap::new(),
            reads_seen: HashMap::new(),
            restored: Vec::new(),
            txn: None,
        };
        for def in world.schema.functions() {
            a.dsu_union(
                world.schema.type_name(def.domain),
                world.schema.type_name(def.range),
            );
            let table = Table {
                fuzzy: world.populated.contains(&def.id),
                ..Table::default()
            };
            a.tables.insert(def.name.clone(), table);
        }
        a
    }

    /// Visits every statement of `stmts` on top of `world`.
    fn run(world: &World, stmts: &[SpannedStatement], cfg: &'a CheckConfig) -> Self {
        let mut a = Analyzer::new(cfg, world);
        a.restored = restored_scopes(stmts);
        for (at, s) in stmts.iter().enumerate() {
            a.visit(at, s);
        }
        a
    }

    /// Captures the mutable abstract state (for `BEGIN` / `SAVEPOINT`).
    fn capture(&self) -> AbsState {
        AbsState {
            schema: self.schema.clone(),
            declare_spans: self.declare_spans.clone(),
            derived: self.derived.clone(),
            derive_sites: self.derive_sites.clone(),
            tables: self.tables.clone(),
            derived_facts: self.derived_facts.clone(),
            derived_deleted: self.derived_deleted.clone(),
            dsu: self.dsu.clone(),
            pending_inserts: self.pending_inserts.clone(),
        }
    }

    /// Restores a captured state (for `ROLLBACK` / `ROLLBACK TO`).
    fn restore(&mut self, s: AbsState) {
        self.schema = s.schema;
        self.declare_spans = s.declare_spans;
        self.derived = s.derived;
        self.derive_sites = s.derive_sites;
        self.tables = s.tables;
        self.derived_facts = s.derived_facts;
        self.derived_deleted = s.derived_deleted;
        self.dsu = s.dsu;
        self.pending_inserts = s.pending_inserts;
    }

    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    // ---- union-find over type names (FDB031) ----

    fn dsu_root(&mut self, t: &str) -> String {
        let mut cur = t.to_owned();
        loop {
            match self.dsu.get(&cur) {
                Some(p) if *p != cur => cur = p.clone(),
                _ => break,
            }
        }
        // Path compression.
        let root = cur.clone();
        let mut walk = t.to_owned();
        while let Some(p) = self.dsu.get(&walk).cloned() {
            if p == walk {
                break;
            }
            self.dsu.insert(walk.clone(), root.clone());
            walk = p;
        }
        root
    }

    /// Returns `true` if `a` and `b` were already connected.
    fn dsu_union(&mut self, a: &str, b: &str) -> bool {
        self.dsu.entry(a.to_owned()).or_insert_with(|| a.to_owned());
        self.dsu.entry(b.to_owned()).or_insert_with(|| b.to_owned());
        let ra = self.dsu_root(a);
        let rb = self.dsu_root(b);
        if ra == rb {
            return true;
        }
        self.dsu.insert(ra, rb);
        false
    }

    // ---- the visitor ----

    fn visit(&mut self, at: usize, s: &SpannedStatement) {
        let spans = &s.spans;
        let named = |text| Ident::named(text, spans);
        // FDB040 fires independently of the abstract interpretation — a
        // replica engine refuses a write no matter what came before it,
        // so an open world does not mute this lint. The engine's gate
        // reads the same admission.
        if self.cfg.replica_mode && s.stmt.admission().replica_refuses.is_some() {
            self.diags.push(
                Diagnostic::new(
                    Code::ReplicaWrite,
                    spans.keyword,
                    "write statement in a replica-mode script: a read-only \
                     replica engine refuses this at runtime",
                )
                .with_hint(
                    "run this script on the primary, or PROMOTE the replica \
                     before writing",
                ),
            );
        }
        if self.open_world {
            return;
        }
        self.seq += 1;
        match &s.stmt {
            Statement::Declare {
                name,
                domain,
                range,
                functionality,
            } => {
                let functionality = Ident {
                    text: functionality,
                    span: spans.args.get(2).copied().unwrap_or(spans.keyword),
                };
                self.visit_declare(named(name), domain, range, functionality)
            }
            Statement::Derive { name, steps } => self.visit_derive(named(name), steps, spans),
            Statement::Insert { function, x, y } => self.visit_insert(named(function), x, y, true),
            Statement::Delete { function, x, y } => self.visit_delete(named(function), x, y, true),
            Statement::Replace { function, old, new } => {
                // A replace is delete-old + insert-new with the intent
                // spelled out, so the dead-write and no-chain lints stay
                // quiet; the conflict lint still applies to the insert.
                self.visit_delete(named(function), &old.0, &old.1, false);
                self.visit_insert(named(function), &new.0, &new.1, false);
            }
            Statement::Query { function, x } => self.visit_image(named(function), x, false),
            Statement::Truth { function, x, y } => self.visit_truth(named(function), x, y),
            Statement::Inverse { function, y } => self.visit_image(named(function), y, true),
            // A read that touches the whole function.
            Statement::Show { function }
            | Statement::Derivations { function }
            | Statement::Explain { function, .. }
            | Statement::ExplainPlan { function, .. }
            | Statement::ExplainAnalyze { function, .. } => {
                if self.resolve(named(function)).is_some() {
                    self.mark_read(function);
                }
            }
            Statement::Eval { steps, .. } => self.visit_eval(steps, spans),
            Statement::Resolve => {
                // RESOLVE may discharge negated conjunctions and
                // substitute nulls via functional dependencies; the
                // analyzer cannot predict which, so everything ambiguous
                // becomes unknown.
                for t in self.tables.values_mut() {
                    if t.nulls > 0 || t.pairs.values().any(|a| *a == Abs::Amb) {
                        t.fuzzy = true;
                        t.nulls = 0;
                    }
                    for v in t.pairs.values_mut() {
                        if *v == Abs::Amb {
                            *v = Abs::True; // optimistic: resolved either way
                        }
                    }
                    if t.fuzzy {
                        t.pairs.retain(|_, a| *a == Abs::True);
                    }
                }
                self.derived_deleted.clear();
            }
            Statement::Begin
            | Statement::Commit
            | Statement::Abort
            | Statement::Savepoint { .. }
            | Statement::RollbackTo { .. } => self.visit_txn(at, s),
            // These replace database state with facts the statement list
            // does not spell out: a file's statements, a snapshot, or the
            // replica's state that `PROMOTE` swaps in.
            Statement::Source { .. } | Statement::Load { .. } | Statement::Promote => {
                self.open_world = true;
            }
            Statement::Schema
            | Statement::Stats
            | Statement::StatsReset
            | Statement::StatsJson
            | Statement::Timeout { .. }
            | Statement::Save { .. }
            | Statement::Dump { .. }
            | Statement::Check { .. }
            | Statement::CheckData
            | Statement::Discover { .. }
            | Statement::Strict { .. }
            | Statement::Trace { .. }
            | Statement::TraceSlow { .. }
            | Statement::ShowTrace { .. }
            | Statement::ShowSlow
            | Statement::DumpTrace
            | Statement::ReplicaStatus
            | Statement::Help
            | Statement::Empty => {}
        }
    }

    /// Transaction control: balance checking (`FDB018`) plus exact
    /// snapshot/restore of the abstract state, mirroring the engine.
    fn visit_txn(&mut self, at: usize, s: &SpannedStatement) {
        let mut txn = self.txn.take();
        let scope = || self.restored[at].then(|| self.capture());
        let applied = apply_txn(&mut txn, s, scope);
        self.txn = txn;
        match applied {
            Ok(Some(state)) => self.restore(state.expect("restored_scopes saw this rollback")),
            Ok(None) => {}
            Err(unbalanced) => self.push(*unbalanced),
        }
    }

    /// Resolves a referenced function name, raising FDB001 when unknown.
    fn resolve(&mut self, name: Ident) -> Option<()> {
        if self.schema.function_by_name(name.text).is_some() {
            return Some(());
        }
        self.push(
            Diagnostic::new(
                Code::UndefinedFunction,
                name.span,
                format!("unknown function `{}`", name.text),
            )
            .with_hint(format!("DECLARE {}: … before using it", name.text)),
        );
        None
    }

    fn visit_declare(&mut self, name: Ident, domain: &str, range: &str, functionality: Ident) {
        let Ok(f) = Functionality::from_str(functionality.text) else {
            self.push(
                Diagnostic::new(
                    Code::Syntax,
                    functionality.span,
                    format!("unknown functionality `{}`", functionality.text),
                )
                .with_hint("use one-one, one-many, many-one or many-many"),
            );
            return;
        };
        if self.schema.declare(name.text, domain, range, f).is_err() {
            let first = self.declare_spans.get(name.text).copied();
            let mut d = Diagnostic::new(
                Code::DuplicateDeclare,
                name.span,
                format!("function `{}` is already declared", name.text),
            );
            if let Some(span) = first {
                d = d.with_hint(format!("first declared at line {}", span.line));
            }
            self.push(d);
            return;
        }
        self.declare_spans.insert(name.text.to_owned(), name.span);
        self.tables.insert(name.text.to_owned(), Table::default());
        if self.dsu_union(domain, range) {
            self.push(
                Diagnostic::new(
                    Code::CycleWithoutUfa,
                    name.span,
                    format!(
                        "`{}` closes a cycle in the function graph ({} and {} were already connected)",
                        name.text, domain, range
                    ),
                )
                .with_hint(
                    "without the Unique Form Assumption, cycle analysis can be exponential; \
                     run the design aid to decide which edge is derived",
                ),
            );
        }
    }

    fn visit_derive(&mut self, name: Ident, steps: &[DeriveStep], spans: &StmtSpans) {
        let Some(f) = self.schema.function_by_name(name.text).map(|def| def.id) else {
            self.push(
                Diagnostic::new(
                    Code::UndefinedFunction,
                    name.span,
                    format!("cannot derive undeclared function `{}`", name.text),
                )
                .with_hint(format!("DECLARE {}: … before the DERIVE", name.text)),
            );
            return;
        };
        let d = match self.schema.derivation(&named(steps)) {
            Ok(d) if self.derived.get(&f).is_some_and(|ds| ds.contains(&d)) => return,
            Ok(d) => d,
            Err(refusal) => return self.push(self.refused(name, steps, spans, refusal)),
        };
        let holds_data = self
            .tables
            .get(name.text)
            .is_some_and(|t| !t.pairs.is_empty() || t.nulls > 0 || t.fuzzy);
        let single = std::slice::from_ref(&d);
        if let Err(refusal) = check_registration(&self.schema, &self.derived, f, single, holds_data)
        {
            return self.push(self.refused(name, steps, spans, refusal));
        }
        self.derived.entry(f).or_default().push(d.clone());
        self.derive_sites.push((f, d, name.span));
    }

    /// An `EVAL`: every step resolves (`FDB001` for each that does not)
    /// and is read, and the expression meets the catalog's rules.
    fn visit_eval(&mut self, steps: &[DeriveStep], spans: &StmtSpans) {
        let mut resolved = true;
        for i in 0..steps.len() {
            let step = Ident::step(steps, spans, i);
            if self.resolve(step).is_some() {
                self.mark_read(step.text);
            } else {
                resolved = false;
            }
        }
        if !resolved {
            return;
        }
        let ruled = self
            .schema
            .derivation(&named(steps))
            .and_then(|d| check_expression(&self.schema, &self.derived, &d));
        if let Err(refusal) = ruled {
            let eval = Ident {
                text: "EVAL",
                span: spans.keyword,
            };
            self.push(self.refused(eval, steps, spans, refusal));
        }
    }

    /// The diagnostic for a `DERIVE target = steps` (or an `EVAL` of
    /// `steps`) the catalog's rules refuse: its code, anchored at the
    /// offending step or at the derived name.
    fn refused(
        &self,
        target: Ident,
        steps: &[DeriveStep],
        spans: &StmtSpans,
        refusal: Refusal,
    ) -> Diagnostic {
        let ty = |t| self.schema.type_name(t);
        let step = |i| Ident::step(steps, spans, i);
        let f = target.text;
        let (code, at, message, hint) = match refusal {
            Refusal::NoSteps => (
                Code::Syntax,
                target,
                "a derivation must have at least one step".to_owned(),
                "name at least one function".to_owned(),
            ),
            Refusal::UnknownStep { step: i, .. } => {
                let s = step(i);
                (
                    Code::UndefinedFunction,
                    s,
                    format!("unknown function `{}` in derivation", s.text),
                    format!("DECLARE {}: … before the DERIVE", s.text),
                )
            }
            Refusal::BrokenChain {
                step: i,
                expected,
                found,
                ..
            } => {
                let s = step(i);
                let (expected, found) = (ty(expected), ty(found));
                (
                    Code::BrokenChain,
                    s,
                    format!(
                        "step `{}` expects domain {expected} but the previous step ends at {found}",
                        s.text
                    ),
                    "insert an inverse (^-1) or an intermediate function".to_owned(),
                )
            }
            Refusal::WrongEndpoints {
                found: (start, end),
                declared: (domain, range),
                ..
            } => (
                Code::EndpointMismatch,
                target,
                format!(
                    "derivation maps {} -> {} but `{f}` is declared {} -> {}",
                    ty(start),
                    ty(end),
                    ty(domain),
                    ty(range)
                ),
                "adjust the steps or the declaration so the endpoints agree".to_owned(),
            ),
            Refusal::WrongFunctionality {
                composed, declared, ..
            } => (
                Code::FunctionalityMismatch,
                target,
                format!("derivation composes to {composed} but `{f}` is declared {declared}"),
                format!("declare `{f}` as ({composed})"),
            ),
            Refusal::SelfMention { step: i, .. } => (
                Code::SelfReferential,
                step(i),
                format!("derivation of `{f}` mentions itself"),
                "a derivation must be built from other functions".to_owned(),
            ),
            Refusal::DerivedStep { step: i, .. } => {
                let s = step(i);
                (
                    Code::StepThroughDerived,
                    s,
                    format!("derivation step `{}` is itself a derived function", s.text),
                    format!("inline the derivation of `{}` into this one", s.text),
                )
            }
            Refusal::UsedBy { user } => (
                Code::StepThroughDerived,
                target,
                format!(
                    "`{f}` is a step of the derivation of `{}`; deriving it would make that \
                     derivation step through a derived function",
                    self.function_name(user)
                ),
                format!("keep `{f}` base: a derivation steps through base functions only"),
            ),
            Refusal::HoldsFacts => (
                Code::ShadowsFacts,
                target,
                format!("`{f}` already holds stored facts; deriving it would shadow them"),
                "move the DERIVE before the INSERTs, or DELETE the facts first".to_owned(),
            ),
        };
        Diagnostic::new(code, at.span, message).with_hint(hint)
    }

    /// The registered derivations of the function named `f`, if derived.
    fn derivations_of(&self, f: &str) -> Option<&Vec<Derivation>> {
        let def = self.schema.function_by_name(f)?;
        self.derived.get(&def.id)
    }

    /// The name of a function.
    fn function_name(&self, f: FunctionId) -> &str {
        &self.schema.function(f).name
    }

    fn visit_insert(&mut self, function: Ident, x: &str, y: &str, lint: bool) {
        if self.resolve(function).is_none() {
            return;
        }
        let fname = function.text;
        // Any write can rebuild chains, so previously deleted derived
        // facts are no longer definitely false.
        self.derived_deleted.clear();
        if let Some(derivs) = self.derivations_of(fname).cloned() {
            // Derived insert. A guaranteed functionality conflict?
            let def = self.schema.function_by_name(fname).expect("resolved");
            if lint && def.functionality.is_functional() {
                if let Some((exact, _)) = self.eval_image(fname, x, false) {
                    if let Some(prev) = exact.iter().find(|v| v.as_str() != y) {
                        self.push(
                            Diagnostic::new(
                                Code::GuaranteedConflict,
                                function.span,
                                format!(
                                    "insert of `{fname}({x}, {y})` must conflict: \
                                     `{fname}({x}) = {prev}` already holds and `{fname}` is {}",
                                    def.functionality
                                ),
                            )
                            .with_hint(format!(
                                "REPLACE {fname}({x}, {prev}) WITH ({x}, {y}) instead"
                            )),
                        );
                    }
                }
            }
            // Replay the engine's choice: the shortest (first-registered)
            // derivation carries the new fact.
            let d = derivs
                .iter()
                .min_by_key(|d| d.len())
                .expect("derived functions have at least one derivation");
            if d.len() == 1 {
                // Single-step derived inserts write a concrete base pair.
                let step = d.steps()[0];
                let pair = if step.op == Op::Inverse {
                    (y.to_owned(), x.to_owned())
                } else {
                    (x.to_owned(), y.to_owned())
                };
                let table = &self.schema.function(step.function).name;
                if let Some(t) = self.tables.get_mut(table) {
                    t.pairs.insert(pair, Abs::True);
                }
            } else {
                // Longer chains introduce nulls in every touched table.
                for step in d.steps() {
                    let table = &self.schema.function(step.function).name;
                    if let Some(t) = self.tables.get_mut(table) {
                        t.nulls += 1;
                    }
                }
                self.derived_facts
                    .entry(fname.to_owned())
                    .or_default()
                    .insert((x.to_owned(), y.to_owned()), Abs::True);
            }
        } else {
            if let Some(t) = self.tables.get_mut(fname) {
                t.pairs.insert((x.to_owned(), y.to_owned()), Abs::True);
            }
            if lint {
                self.pending_inserts.insert(
                    (fname.to_owned(), x.to_owned(), y.to_owned()),
                    (function.span, self.seq),
                );
            }
        }
    }

    fn visit_delete(&mut self, function: Ident, x: &str, y: &str, lint: bool) {
        if self.resolve(function).is_none() {
            return;
        }
        let fname = function.text.to_owned();
        if let Some(derivs) = self.derivations_of(&fname).cloned() {
            // An NVC-inserted fact deletes directly.
            if let Some(facts) = self.derived_facts.get_mut(&fname) {
                if facts.remove(&(x.to_owned(), y.to_owned())).is_some() {
                    self.derived_deleted
                        .entry(fname)
                        .or_default()
                        .insert((x.to_owned(), y.to_owned()));
                    return;
                }
            }
            // Otherwise enumerate supporting chains and demote them.
            let mut all_links: Vec<(String, (String, String))> = Vec::new();
            let mut any_chain = false;
            let mut unknown = false;
            for d in &derivs {
                match self.chase(d, x) {
                    None => unknown = true,
                    Some(chains) => {
                        for c in chains.iter().filter(|c| c.end == y) {
                            any_chain = true;
                            all_links.extend(c.links.iter().cloned());
                        }
                    }
                }
            }
            if any_chain {
                // Every chain must be broken: each gets a negated
                // conjunction, and every member of one is ambiguous.
                for (f, pair) in all_links {
                    if let Some(t) = self.tables.get_mut(&f) {
                        if let Some(a) = t.pairs.get_mut(&pair) {
                            *a = Abs::Amb;
                        }
                    }
                }
                self.derived_deleted
                    .entry(fname)
                    .or_default()
                    .insert((x.to_owned(), y.to_owned()));
            } else if !unknown && lint {
                self.push(
                    Diagnostic::new(
                        Code::UndischargeableDelete,
                        function.span,
                        format!(
                            "derived delete of `{fname}({x}, {y})` has no supporting chain: \
                             the fact is already false and there is no negated conjunction \
                             to discharge"
                        ),
                    )
                    .with_hint("drop the DELETE, or insert the supporting facts first"),
                );
            }
        } else {
            // Base delete.
            if let Some(t) = self.tables.get_mut(&fname) {
                t.pairs.remove(&(x.to_owned(), y.to_owned()));
            }
            let key = (fname.clone(), x.to_owned(), y.to_owned());
            if let Some((ispan, iseq)) = self.pending_inserts.remove(&key) {
                let read_since = self.reads_seen.get(&fname).is_some_and(|&r| r > iseq);
                if lint && !read_since {
                    self.push(
                        Diagnostic::new(
                            Code::DeadWrite,
                            function.span,
                            format!(
                                "`{fname}({x}, {y})` was inserted at line {} and is deleted \
                                 here without ever being read",
                                ispan.line
                            ),
                        )
                        .with_hint("drop both statements, or query the fact in between"),
                    );
                }
            }
        }
    }

    /// A `QUERY f(v)`, or an `INVERSE f(v)` when `inverse`.
    fn visit_image(&mut self, function: Ident, v: &str, inverse: bool) {
        if self.resolve(function).is_none() {
            return;
        }
        let f = function.text;
        self.mark_read(f);
        if let Some((exact, amb)) = self.eval_image(f, v, inverse) {
            if exact.is_empty() && !amb.is_empty() {
                let query = if inverse {
                    format!("inverse query `{f}^-1({v})`")
                } else {
                    format!("query `{f}({v})`")
                };
                self.push(
                    Diagnostic::new(
                        Code::GuaranteedAmbiguous,
                        function.span,
                        format!("{query} is guaranteed to return only ambiguous results"),
                    )
                    .with_hint(
                        "a derived DELETE left every candidate inside a negated conjunction",
                    ),
                );
            }
        }
    }

    fn visit_truth(&mut self, function: Ident, x: &str, y: &str) {
        if self.resolve(function).is_none() {
            return;
        }
        let fname = function.text;
        self.mark_read(fname);
        if self.eval_truth(fname, x, y) == AbsTruth::Amb {
            self.push(
                Diagnostic::new(
                    Code::GuaranteedAmbiguous,
                    function.span,
                    format!("truth of `{fname}({x}, {y})` is guaranteed ambiguous"),
                )
                .with_hint(
                    "a derived DELETE placed this fact in a negated conjunction; \
                     RESOLVE or re-INSERT to disambiguate",
                ),
            );
        }
    }

    /// Marks a read of `f` (and, when derived, its support functions).
    fn mark_read(&mut self, f: &str) {
        self.reads_seen.insert(f.to_owned(), self.seq);
        if let Some(derivs) = self.derivations_of(f) {
            let support: Vec<String> = derivs
                .iter()
                .flat_map(Derivation::steps)
                .map(|s| self.function_name(s.function).to_owned())
                .collect();
            for s in support {
                self.reads_seen.insert(s, self.seq);
            }
        }
    }

    // ---- abstract evaluation ----

    /// Enumerates abstract chains from `x` through `steps`. `None` means
    /// the result cannot be trusted (nulls, fuzziness, caps).
    fn chase(&self, d: &Derivation, x: &str) -> Option<Vec<Chain>> {
        for s in d.steps() {
            if !self.tables.get(self.function_name(s.function))?.is_sharp() {
                return None;
            }
        }
        let mut frontier = vec![Chain {
            end: x.to_owned(),
            exact: true,
            links: Vec::new(),
        }];
        let mut budget = self.cfg.max_abstract_expansions;
        for s in d.steps() {
            let function = self.function_name(s.function);
            let table = self.tables.get(function)?;
            let mut next = Vec::new();
            for c in &frontier {
                for ((a, b), abs) in &table.pairs {
                    let (from, to) = if s.op == Op::Inverse { (b, a) } else { (a, b) };
                    if from != &c.end {
                        continue;
                    }
                    if budget == 0 {
                        return None;
                    }
                    budget -= 1;
                    let mut links = c.links.clone();
                    links.push((function.to_owned(), (a.clone(), b.clone())));
                    next.push(Chain {
                        end: to.clone(),
                        exact: c.exact && *abs == Abs::True,
                        links,
                    });
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Some(frontier)
    }

    /// Abstract truth of `f(x, y)`.
    fn eval_truth(&self, f: &str, x: &str, y: &str) -> AbsTruth {
        let key = (x.to_owned(), y.to_owned());
        if let Some(derivs) = self.derivations_of(f) {
            if self
                .derived_deleted
                .get(f)
                .is_some_and(|s| s.contains(&key))
            {
                return AbsTruth::False;
            }
            if let Some(facts) = self.derived_facts.get(f) {
                match facts.get(&key) {
                    Some(Abs::True) => return AbsTruth::True,
                    Some(Abs::Amb) => return AbsTruth::Amb,
                    None => {}
                }
            }
            let mut best = AbsTruth::False;
            for d in derivs {
                match self.chase(d, x) {
                    None => {
                        if best != AbsTruth::True {
                            best = AbsTruth::Unknown;
                        }
                    }
                    Some(chains) => {
                        for c in chains.iter().filter(|c| c.end == y) {
                            if c.exact {
                                return AbsTruth::True;
                            }
                            if best == AbsTruth::False {
                                best = AbsTruth::Amb;
                            }
                        }
                    }
                }
            }
            best
        } else {
            match self.tables.get(f) {
                None => AbsTruth::Unknown,
                Some(t) => match t.pairs.get(&key) {
                    Some(Abs::True) => AbsTruth::True,
                    Some(Abs::Amb) => AbsTruth::Amb,
                    None if t.is_sharp() => AbsTruth::False,
                    None => AbsTruth::Unknown,
                },
            }
        }
    }

    /// Abstract image of `v` under `f`, or under its inverse when
    /// `inverse`: `(exact values, ambiguous-only values)`, or `None` when
    /// unknowable.
    fn eval_image(&self, f: &str, v: &str, inverse: bool) -> Option<(Vec<String>, Vec<String>)> {
        let mut exact = HashSet::new();
        let mut amb = HashSet::new();
        // What a stored pair `(a, b)`, read in the direction asked, maps
        // `v` to.
        let image = |(a, b): &(String, String)| {
            let (from, to) = if inverse { (b, a) } else { (a, b) };
            (from == v).then(|| to.clone())
        };
        let mut put = |to: String, abs: Abs| {
            match abs {
                Abs::True => exact.insert(to),
                Abs::Amb => amb.insert(to),
            };
        };
        if let Some(derivs) = self.derivations_of(f) {
            for d in derivs {
                let d = if inverse { d.inverted() } else { d.clone() };
                for c in self.chase(&d, v)? {
                    put(c.end, if c.exact { Abs::True } else { Abs::Amb });
                }
            }
            for (pair, abs) in self.derived_facts.get(f).into_iter().flatten() {
                if let Some(to) = image(pair) {
                    put(to, *abs);
                }
            }
            for to in self
                .derived_deleted
                .get(f)
                .into_iter()
                .flatten()
                .filter_map(image)
            {
                exact.remove(&to);
                amb.remove(&to);
            }
        } else {
            let t = self.tables.get(f)?;
            if !t.is_sharp() {
                return None;
            }
            for (pair, abs) in &t.pairs {
                if let Some(to) = image(pair) {
                    put(to, *abs);
                }
            }
        }
        let amb_only: Vec<String> = amb.difference(&exact).cloned().collect();
        Some((exact.into_iter().collect(), amb_only))
    }

    // ---- final passes ----

    fn finish(mut self) -> Vec<Diagnostic> {
        if !self.open_world {
            if let Some(t) = &self.txn {
                self.diags.push(
                    Diagnostic::new(
                        Code::UnclosedTxn,
                        t.begin,
                        "the transaction opened here is never committed or rolled back",
                    )
                    .with_hint(
                        "end the script with COMMIT (or ROLLBACK); \
                         a durable store discards uncommitted updates at recovery",
                    ),
                );
            }
            self.cost_pass();
            let derived_names: HashSet<String> = self
                .derived
                .keys()
                .map(|&f| self.function_name(f).to_owned())
                .collect();
            schema_pass(
                &self.schema,
                &self.declare_spans,
                &derived_names,
                &mut self.diags,
            );
        }
        self.diags
    }

    /// FDB030: estimated unbound chain count per registered derivation.
    fn cost_pass(&mut self) {
        let mut findings = Vec::new();
        for (f, d, span) in &self.derive_sites {
            let stats: Vec<StepProfile> = d
                .steps()
                .iter()
                .map(|s| {
                    let t = self.tables.get(self.function_name(s.function));
                    let (pairs, nulls): (Vec<_>, usize) = match t {
                        Some(t) => (t.pairs.keys().cloned().collect(), t.nulls),
                        None => (Vec::new(), 0),
                    };
                    let rows = (pairs.len() + nulls) as f64;
                    let dx = pairs.iter().map(|(a, _)| a).collect::<HashSet<_>>().len();
                    let dy = pairs.iter().map(|(_, b)| b).collect::<HashSet<_>>().len();
                    let fan = |distinct: usize| {
                        if distinct == 0 {
                            0.0
                        } else {
                            rows / distinct as f64
                        }
                    };
                    let (fan_fwd, fan_bwd) = if s.op == Op::Inverse {
                        (fan(dy), fan(dx))
                    } else {
                        (fan(dx), fan(dy))
                    };
                    StepProfile {
                        rows,
                        fan_fwd,
                        fan_bwd,
                        seed_left: None,
                        seed_right: None,
                    }
                })
                .collect();
            let plan = fdb_exec::estimate(&stats);
            if plan.est_chains > self.cfg.chain_budget {
                findings.push(
                    Diagnostic::new(
                        Code::ChainBudget,
                        *span,
                        format!(
                            "enumerating `{}` is estimated at {:.0} chains, over the \
                             budget of {:.0}",
                            self.function_name(*f),
                            plan.est_chains,
                            self.cfg.chain_budget
                        ),
                    )
                    .with_hint(
                        "query with a bound endpoint, set a TIMEOUT, or raise --chain-budget",
                    ),
                );
            }
        }
        self.diags.extend(findings);
    }
}

/// FDB009/FDB010 over a finished schema, reusing `fdb-graph`'s lint.
fn schema_pass(
    schema: &Schema,
    declare_spans: &HashMap<String, Span>,
    derived_names: &HashSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    if schema.is_empty() {
        return;
    }
    let report = lint::diagnose(schema, PathLimits::default());
    let span_of = |name: &str| declare_spans.get(name).copied().unwrap_or_default();
    for (a, b) in &report.mutually_derivable_pairs {
        let (na, nb) = (&schema.function(*a).name, &schema.function(*b).name);
        if derived_names.contains(na) || derived_names.contains(nb) {
            continue;
        }
        // Anchor at whichever of the pair was declared later.
        let (anchor, other) = if span_of(na) >= span_of(nb) {
            (na, nb)
        } else {
            (nb, na)
        };
        diags.push(
            Diagnostic::new(
                Code::AliasPair,
                span_of(anchor),
                format!("functions `{anchor}` and `{other}` are mutually derivable aliases"),
            )
            .with_hint(format!(
                "keep one as a base function and DERIVE the other (e.g. DERIVE {anchor} = {other}^-1)"
            )),
        );
    }
    for f in &report.derivable {
        let name = &schema.function(*f).name;
        if derived_names.contains(name) {
            continue;
        }
        diags.push(
            Diagnostic::new(
                Code::Derivable,
                span_of(name),
                format!("function `{name}` is syntactically derivable from the rest of the schema"),
            )
            .with_hint(
                "under the Unique Form Assumption this function is derived; \
                 DERIVE it or drop it from the conceptual schema",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARE_TEACH: &str = "DECLARE teach: faculty -> course (many-many)";

    fn parse(script: &str) -> Vec<SpannedStatement> {
        let (stmts, errors) = fdb_syntax::parse_script(script, 1);
        assert!(errors.is_empty(), "{errors:?}");
        stmts
    }

    fn codes(world: &World, script: &str, cfg: &CheckConfig) -> Vec<Code> {
        let diags = analyze_script_in(world, &parse(script), cfg);
        diags.iter().map(|d| d.code).collect()
    }

    /// What each open scope remembers: `BEGIN` first, then the savepoints.
    fn remembered(a: &Analyzer<'_>) -> Vec<(String, bool)> {
        let t = a.txn.as_ref().expect("a transaction is open");
        std::iter::once(("BEGIN".to_owned(), t.base.is_some()))
            .chain(t.savepoints.iter().map(|(n, s)| (n.clone(), s.is_some())))
            .collect()
    }

    #[test]
    fn a_committed_transaction_captures_nothing() {
        let cfg = CheckConfig::default();
        let mut script = vec![DECLARE_TEACH.to_owned()];
        for i in 0..50 {
            script.extend([
                "BEGIN".to_owned(),
                format!("INSERT teach(a{i}, math)"),
                "SAVEPOINT s".to_owned(),
                format!("INSERT teach(b{i}, math)"),
                "COMMIT".to_owned(),
            ]);
        }
        let mut stmts = parse(&script.join("\n"));
        assert!(restored_scopes(&stmts).iter().all(|restored| !restored));
        // Seen from inside the last transaction: neither scope holds a state.
        stmts.pop();
        let a = Analyzer::run(&World::default(), &stmts, &cfg);
        assert_eq!(
            remembered(&a),
            [("BEGIN".to_owned(), false), ("s".to_owned(), false)]
        );
        assert!(a.finish().iter().all(|d| d.code == Code::UnclosedTxn));
    }

    #[test]
    fn a_scope_is_captured_when_a_later_statement_rolls_back_to_it() {
        let cfg = CheckConfig::default();
        let stmts = parse(
            &[
                DECLARE_TEACH,
                "ROLLBACK TO a", // unbalanced: FDB018
                "BEGIN",
                "SAVEPOINT a",
                "SAVEPOINT b",
                "INSERT teach(euclid, math)",
                "ROLLBACK TO ghost", // unknown: FDB018
                "ROLLBACK TO a",
                "SAVEPOINT b",
                "SAVEPOINT a", // replaces the first `a`
                "ROLLBACK",
                "BEGIN",
                "SAVEPOINT a",
                "INSERT teach(gauss, math)",
            ]
            .join("\n"),
        );
        let restored: Vec<usize> = restored_scopes(&stmts)
            .iter()
            .enumerate()
            .filter_map(|(at, restored)| restored.then_some(at))
            .collect();
        assert_eq!(restored, [2, 3]);
        // Up to the second `SAVEPOINT b`, no ABORT is in sight: only the
        // first `a` holds a state, and rolling back to it dropped the
        // first `b` and undid the insert.
        let a = Analyzer::run(&World::default(), &stmts[..9], &cfg);
        assert_eq!(
            remembered(&a),
            [
                ("BEGIN".to_owned(), false),
                ("a".to_owned(), true),
                ("b".to_owned(), false)
            ]
        );
        assert!(a.tables["teach"].pairs.is_empty());
        // The whole script leaves two FDB018s, an open transaction, and
        // `gauss` as the only fact.
        let a = Analyzer::run(&World::default(), &stmts, &cfg);
        assert_eq!(a.tables["teach"].pairs.len(), 1);
        let codes: Vec<Code> = a.finish().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            [Code::UnbalancedTxn, Code::UnbalancedTxn, Code::UnclosedTxn]
        );
    }

    /// A second `DERIVE` of a derivation the function already has
    /// registers nothing, as in the engine: one derivation, one `FDB030`
    /// site.
    #[test]
    fn an_identical_second_derive_registers_nothing() {
        let stmts = parse(
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             DERIVE pupil = teach o class_list",
        );
        let cfg = CheckConfig::default();
        let a = Analyzer::run(&World::default(), &stmts, &cfg);
        let pupil = a.schema.resolve("pupil").expect("declared");
        assert_eq!(a.derived[&pupil].len(), 1);
        assert_eq!(a.derive_sites.len(), 1);
        assert!(a
            .finish()
            .iter()
            .all(|d| d.severity() != crate::Severity::Error));
    }

    #[test]
    fn a_seeded_table_is_unknown_only_if_it_holds_facts() {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .expect("valid schema");
        let [teach, class_list, pupil] =
            ["teach", "class_list", "pupil"].map(|f| schema.resolve(f).expect("declared"));
        let chain = Derivation::new(vec![
            fdb_types::Step::identity(teach),
            fdb_types::Step::identity(class_list),
        ])
        .expect("non-empty");
        let mut world = World {
            schema,
            derived: BTreeMap::from([(pupil, vec![chain])]),
            populated: BTreeSet::new(),
        };
        // A derived delete, then a DERIVE of a function of the catalog.
        let delete = "DELETE pupil(euclid, john)";
        let both = format!("{delete}\nDERIVE teach = teach");
        let cfg = CheckConfig::default();
        // Both tables empty: there is provably no chain to negate.
        assert!(codes(&world, delete, &cfg).contains(&Code::UndischargeableDelete));
        // `teach` holds facts the statements do not spell out: no claim.
        world.populated.insert(teach);
        assert!(!codes(&world, delete, &cfg).contains(&Code::UndischargeableDelete));
        // The catalog's names resolve and its derivation is known...
        assert!(!codes(&world, &both, &cfg).contains(&Code::UndefinedFunction));
        // ...and nothing is declared twice without a site to point at.
        let redeclared = codes(&world, DECLARE_TEACH, &cfg);
        assert!(
            redeclared.contains(&Code::DuplicateDeclare),
            "{redeclared:?}"
        );
    }

    /// In a replica-mode script `FDB040` fires on what a replica engine
    /// refuses: `LOAD` writes the engine's own database, `SOURCE` only
    /// runs statements that are judged one by one.
    #[test]
    fn replica_mode_flags_load_but_not_source() {
        let cfg = CheckConfig {
            replica_mode: true,
            ..CheckConfig::default()
        };
        let world = World::default();
        let flagged = |line: &str| codes(&world, line, &cfg).contains(&Code::ReplicaWrite);
        assert!(flagged("LOAD \"db.json\""));
        assert!(!flagged("SOURCE \"x.fdb\""));
        assert!(!flagged("SCHEMA"));
        assert!(flagged(DECLARE_TEACH));
    }

    /// `SOURCE`, `LOAD` and `PROMOTE` bring in facts the statements do
    /// not spell out, so the closed-world lints go quiet after them;
    /// `SCHEMA` does not.
    #[test]
    fn the_closed_world_lints_go_quiet_after_source_load_or_promote() {
        let cfg = CheckConfig::default();
        let dead_write = |between: &str| {
            let script = format!(
                "{DECLARE_TEACH}\nINSERT teach(euclid, math)\n{between}\nDELETE teach(euclid, math)"
            );
            codes(&World::default(), &script, &cfg).contains(&Code::DeadWrite)
        };
        assert!(dead_write("SCHEMA"));
        for opener in ["SOURCE \"x.fdb\"", "LOAD \"db.json\"", "PROMOTE"] {
            assert!(!dead_write(opener), "{opener}");
        }
    }

    /// Every `SHOW`, `DERIVATIONS` and `EXPLAIN` form is a read of its
    /// function: it must resolve (`FDB001` at the name otherwise), and a
    /// fact read by it was not written in vain.
    #[test]
    fn every_show_derivations_and_explain_form_reads_its_function() {
        let cfg = CheckConfig::default();
        let world = World::default();
        for read in [
            "SHOW teach",
            "DERIVATIONS teach",
            "EXPLAIN teach(euclid, math)",
            "EXPLAIN PLAN teach(euclid, math)",
            "EXPLAIN ANALYZE teach(euclid, math)",
        ] {
            let script = format!(
                "{DECLARE_TEACH}\nINSERT teach(euclid, math)\n{read}\nDELETE teach(euclid, math)"
            );
            assert_eq!(codes(&world, &script, &cfg), [], "{read}");
            let undeclared = analyze_script(&parse(read), &cfg);
            assert_eq!(undeclared.len(), 1, "{read}");
            assert_eq!(undeclared[0].code, Code::UndefinedFunction, "{read}");
            let at = read.find("teach").expect("names teach") as u32;
            assert_eq!(undeclared[0].span, Span::new(1, at, at + 5), "{read}");
        }
    }
}
