//! Statement evaluator: one pipeline for every statement (see
//! [`Engine::execute`]), whichever entry point it came through.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use fdb_check::{analyze_script_in, CheckConfig, CheckStmt, DiscoverConfig, Severity, World};
use fdb_core::{resolve_ambiguities, Budget, CancelToken, Database, Governance, Governor, Outcome};
use fdb_exec::{Assumption, AssumptionSet, CacheReport, FdKind, QuerySpec, ResultCache};
use fdb_repl::{Promotion, Replica};
use fdb_types::{Derivation, FdbError, Refusal, Result, Schema, Value};

use crate::ast::{DeriveStep, Governed, Statement};
use crate::check::lower_script_from;
use crate::format::{render_base_table, render_derived_pairs, render_set, script_word};
use crate::parser::parse_statement_spanned;

/// The engine's own database and, while one is attached, the hot-standby
/// replica whose state is served instead.
#[derive(Debug)]
struct Served {
    /// The database write statements change.
    own: Database,
    /// When present the engine is read-only: queries are answered from
    /// the replica's transaction-consistent database, write statements
    /// are refused, and `PROMOTE` fails over to a writable primary on a
    /// new term.
    replica: Option<Replica>,
}

impl Served {
    /// The database statements read: the replica's when one is attached,
    /// the engine's own otherwise.
    fn database(&self) -> &Database {
        match &self.replica {
            Some(r) => r.database(),
            None => &self.own,
        }
    }
}

/// What the session ran since its history last started over — what
/// `CHECK` and the `STRICT` pre-flight lint.
#[derive(Debug, Default)]
struct History {
    /// The catalog of the engine's own database where the history started.
    world: World,
    /// The session line number of the transcript's first line.
    first_line: u32,
    /// One line per [`Engine::execute_line`] call: the statement's own
    /// text when it ran; empty when it failed, and for a `SOURCE`, whose
    /// lines follow it and speak for themselves. `fdb-lint` of this text
    /// therefore says what `CHECK` says, in the session's own `line:col`.
    transcript: String,
}

/// The catalog of `db`, as the analyzer is seeded with it.
fn world_of(db: &Database) -> World {
    let functions = db.schema().functions().iter().map(|def| def.id);
    let derived = db.derived_functions().into_iter();
    let stored = |f: &_| !db.store().table(*f).is_empty();
    World {
        schema: db.schema().clone(),
        derived: derived.map(|f| (f, db.derivations(f).to_vec())).collect(),
        populated: functions.filter(stored).collect(),
    }
}

/// The language engine: a [`Database`] plus statement evaluation.
///
/// ```
/// use fdb_lang::Engine;
///
/// let mut engine = Engine::new();
/// for line in [
///     "DECLARE teach: faculty -> course (many-many)",
///     "DECLARE class_list: course -> student (many-many)",
///     "DECLARE pupil: faculty -> student (many-many)",
///     "DERIVE pupil = teach o class_list",
///     "INSERT teach(euclid, math)",
///     "INSERT class_list(math, john)",
/// ] {
///     engine.execute_line(line)?;
/// }
/// assert_eq!(engine.execute_line("TRUTH pupil(euclid, john)")?, "T\n");
/// # Ok::<(), fdb_types::FdbError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    served: Served,
    line: u32,
    /// Nesting depth of `SOURCE` execution (guards self-sourcing scripts).
    source_depth: u8,
    /// Per-statement deadline for derived-function queries
    /// (`TIMEOUT <ms>` / [`Engine::set_statement_deadline`]).
    deadline: Option<Duration>,
    /// Cancellation flag shared with the host (e.g. a Ctrl-C handler).
    cancel: CancelToken,
    /// Dependency-aware cache of derived truth/extension answers: one
    /// guard per derived function (its support set's mutation counters
    /// and its derivation list), so answers survive writes outside the
    /// support set and go stale together on a write inside it, a
    /// `DERIVE`, or a rollback of either — undoing *advances* the
    /// store's counters and restores the old derivation list. Only a
    /// change of lineage ([`Engine::lineage_changed`]) or a dropped
    /// assumption needs a clear.
    cache: ResultCache,
    /// The session's history, linted by `CHECK` and the `STRICT`
    /// pre-flight. A change of lineage starts it over; rollbacks stay in
    /// it as the statements they are — the analyzer models them.
    history: History,
    /// `STRICT ON`: pre-flight `SOURCE`d scripts through the analyzer
    /// and refuse to run them when error-severity findings show up.
    strict: bool,
    /// Non-genuine FDs `DISCOVER` observed in the stored data, keyed by
    /// the per-function mutation counter at observation. Revalidated
    /// after every successful statement; a write that breaks an assumed
    /// FD drops the assumption and clears the result cache (plans and
    /// answers compiled under the assumption are no longer trustworthy).
    nongenuine: AssumptionSet,
    /// Assumptions dropped by revalidation over the whole session, in
    /// drop order — the evidence `CHECK DATA` reports as `FDB053`.
    invalidated_log: Vec<Assumption>,
}

const HELP: &str = "\
statements (one per line; `--` starts a comment):
  DECLARE name: dom -> rng (functionality)   declare a function
  DERIVE name = f o g^-1 o ...               register a derivation
  INSERT f(x, y)    DELETE f(x, y)           updates (INS/DEL also work)
  REPLACE f(x1, y1) WITH (x2, y2)            replace a pair
  QUERY f(x)                                 image of x under f
  TRUTH f(x, y)                              T / A / F
  SHOW f                                     table or computed extension
  DERIVATIONS f                              registered derivations
  EVAL x : f o g^-1 o ...                    ad-hoc path expression
  EXPLAIN f(x, y)                            evidence for a verdict
  EXPLAIN PLAN f(x, y)                       chain plan + cost estimates
  EXPLAIN ANALYZE f(x, y)                    execute + plan/actual report
  INVERSE f(y)                               inverse image of y
  SOURCE \"file\"                              run a script file
  BEGIN / COMMIT / ABORT (or ROLLBACK)       atomic transactions
  SAVEPOINT name / ROLLBACK TO name          partial rollback points
  SAVE \"file\"    LOAD \"file\"                 snapshot persistence
  DUMP \"file\"                                re-runnable script export
  TIMEOUT <ms> | OFF                         per-statement query deadline
  STATS [RESET | JSON]                       metrics (text, zero, JSON)
  TRACE ON [SAMPLE <n>] | OFF                causal statement tracing
  TRACE SLOW <ms> | OFF                      slow-query log threshold
  SHOW TRACE [JSON]                          span ring (text / Chrome JSON)
  SHOW SLOW                                  slow-query log
  DUMP TRACE                                 write flight-<seq>.json
  CHECK [JSON]                               consistency + static analysis
  CHECK DATA                                 data-aware FDB05x diagnostics
  DISCOVER [JSON]                            mine stored FDs + derivations
  STRICT ON | OFF                            pre-flight SOURCEd scripts
  REPLICA STATUS                             replication position and lag
  PROMOTE                                    fail over: replica -> primary
  SCHEMA  RESOLVE  HELP
";

impl Engine {
    /// A fresh engine over an empty schema.
    pub fn new() -> Self {
        Engine::with_database(Database::new(Schema::new()))
    }

    /// An engine over an existing database.
    pub fn with_database(db: Database) -> Self {
        let mut engine = Engine {
            served: Served {
                own: db,
                replica: None,
            },
            line: 0,
            source_depth: 0,
            deadline: None,
            cancel: CancelToken::new(),
            cache: ResultCache::new(),
            history: History::default(),
            strict: false,
            nongenuine: AssumptionSet::new(),
            invalidated_log: Vec::new(),
        };
        engine.lineage_changed();
        engine
    }

    /// An engine serving read-only queries from a hot-standby replica.
    /// The host keeps feeding batches through
    /// [`Engine::replica_mut`] → [`Replica::apply_batch`]; statements see
    /// the replica's current transaction-consistent state.
    pub fn with_replica(replica: Replica) -> Self {
        let mut e = Engine::new();
        e.served.replica = Some(replica);
        e
    }

    /// Attaches a replica, flipping the engine read-only (see
    /// [`Engine::with_replica`]).
    pub fn attach_replica(&mut self, replica: Replica) {
        self.served.replica = Some(replica);
        self.lineage_changed();
    }

    /// Detaches and returns the replica, restoring the engine's own
    /// database as the serving surface.
    pub fn detach_replica(&mut self) -> Option<Replica> {
        let replica = self.served.replica.take();
        self.lineage_changed();
        replica
    }

    /// The attached replica, if any.
    pub fn replica(&self) -> Option<&Replica> {
        self.served.replica.as_ref()
    }

    /// Mutable access to the attached replica — the host's handle for
    /// applying shipped batches.
    pub fn replica_mut(&mut self) -> Option<&mut Replica> {
        self.served.replica.as_mut()
    }

    /// A store lineage is served from here on that was not before (a new
    /// engine, `LOAD`, `PROMOTE`, a replica attached or detached): the
    /// cache's guards cannot be compared with its mutation counters, and
    /// the history starts over at the next line, on the own database.
    fn lineage_changed(&mut self) {
        self.cache.clear("lineage");
        self.history = History {
            world: world_of(&self.served.own),
            first_line: self.line + 1,
            transcript: String::new(),
        };
    }

    /// Refuses write statements while a replica is attached.
    fn replica_write_gate(&self, what: &str) -> Result<()> {
        if self.served.replica.is_some() {
            return Err(FdbError::TxnControl(format!(
                "read-only replica: {what} refused (PROMOTE to accept writes)"
            )));
        }
        Ok(())
    }

    /// Unified cache statistics: the engine's own derived-result cache
    /// (counters + entry counts) next to the process-wide `fdb.cache.*`
    /// registry counters, so one call reports both layers.
    pub fn cache_stats(&self) -> CacheReport {
        self.cache.report()
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.served.own
    }

    /// A frozen copy of the database exactly as statements see it right
    /// now — the engine-level face of the MVCC snapshots in
    /// `fdb-storage`.
    ///
    /// Cheap: the store is copy-on-write at per-function granularity, so
    /// the clone is O(#functions) `Arc` bumps; later writes through the
    /// engine detach only the tables they touch. Each statement the
    /// engine executes is pinned to one such state for its whole
    /// evaluation (the engine is `&mut self` per statement, so no write
    /// can interleave), and an open transaction's statements see their
    /// own uncommitted journal overlaid — which is also what this
    /// snapshot captures if one is open. Hand the clone to other threads
    /// to answer queries while the engine keeps writing.
    pub fn snapshot(&self) -> Database {
        self.served.database().clone()
    }

    /// Sets (or clears) the per-statement deadline applied to queries
    /// over derived functions — the programmatic form of `TIMEOUT`.
    pub fn set_statement_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The current per-statement deadline, if any.
    pub fn statement_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// A handle to the engine's cancellation flag. A host (REPL signal
    /// handler, supervisor thread) calls `cancel()` on it to stop the
    /// statement currently executing; the engine rearms the flag at the
    /// start of the next statement.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// A fresh per-statement governor carrying the configured deadline
    /// and the shared cancellation flag.
    fn statement_governor(&self) -> Governor {
        let mut budget = Budget::unbounded();
        if let Some(d) = self.deadline {
            budget = budget.with_deadline(d);
        }
        Governor::with_cancel(budget, &self.cancel)
    }

    /// Renders a governed outcome: complete results pass through, an
    /// exhausted one keeps its sound partial and is annotated.
    fn render_outcome<T>(outcome: Outcome<T>, render: impl FnOnce(T) -> String) -> String {
        match outcome {
            Outcome::Complete(v) => render(v),
            Outcome::Exhausted { partial, reason } => {
                let mut text = render(partial);
                if text.ends_with('\n') {
                    text.pop();
                }
                text.push_str(&format!("  -- partial: stopped by {reason}\n"));
                text
            }
        }
    }

    /// Consumes the engine, returning the database.
    pub fn into_database(self) -> Database {
        self.served.own
    }

    /// Parses and executes one line, returning the printable result.
    pub fn execute_line(&mut self, line: &str) -> Result<String> {
        self.line += 1;
        // Rearm the cancellation flag for each top-level statement (but
        // not per line of a SOURCEd script — Ctrl-C stops the script).
        if self.source_depth == 0 {
            self.cancel.reset();
        }
        let t0 = Instant::now();
        // Mint the causal trace for this statement: root of a fresh
        // trace when the sampling draw wins, child span inside a
        // SOURCEd script's trace, inert otherwise (zero allocation).
        let mut cspan =
            fdb_obs::causal::statement_span("fdb.lang.statement", || line.trim().to_string());
        let parsed = parse_statement_spanned(line, self.line);
        // One line of transcript per call (see `History::transcript`): a
        // SOURCE's goes in before its lines run, any other once it ran —
        // unless it started the history over and is no part of the new one.
        let source = matches!(&parsed, Ok(s) if matches!(s.stmt, Statement::Source { .. }));
        if source {
            self.history.transcript.push('\n');
        }
        let result = parsed.and_then(|spanned| self.execute(spanned.stmt));
        if !source && self.history.first_line <= self.line {
            let ran = match &result {
                Ok(_) => Cow::Borrowed(line.trim_end()),
                // A governed stop ran a rollback in the statement's place.
                Err(FdbError::TxnAborted { savepoint, .. }) => match savepoint {
                    Some(name) => format!("ROLLBACK TO {}", script_word(name)).into(),
                    None => "ABORT".into(),
                },
                Err(_) => "".into(),
            };
            // A text with a line break inside cannot be kept aligned.
            if !ran.contains('\n') {
                self.history.transcript.push_str(&ran);
            }
            self.history.transcript.push('\n');
        }
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let reg = fdb_obs::registry();
        reg.lang_statements.inc();
        reg.statement_latency_ns.record(latency_ns);
        match &result {
            Ok(out) => reg.lang_rows_produced.add(out.lines().count() as u64),
            Err(_) => {
                reg.lang_statement_errors.inc();
                cspan.set_error();
            }
        }
        let rec = fdb_obs::causal::recorder();
        if rec.slow_threshold_ns().is_some_and(|t| latency_ns >= t) {
            let trace_id = cspan.ctx().map_or(0, |c| c.trace_id);
            let attribution = if trace_id == 0 {
                "unsampled -- TRACE ON to capture plan attribution".to_owned()
            } else {
                // The statement's own span is still open; its children
                // (plan/execute/commit spans) have completed and carry
                // the attribution.
                let mut a = String::new();
                for s in rec.trace(trace_id) {
                    a.push_str(&format!("{} {}ns {}\n", s.name, s.dur_ns, s.detail));
                }
                if a.is_empty() {
                    a.push_str("no child spans recorded\n");
                }
                a
            };
            rec.record_slow(line.trim().to_owned(), latency_ns, trace_id, attribution);
        }
        result
    }

    /// Executes a parsed statement. Every kind takes the same steps:
    ///
    /// 1. *admit* — [`Statement::admission`] says whether a read-only
    ///    replica refuses the kind and when it consults the governor;
    ///    both gates run from it before dispatch, so a refused statement
    ///    resolves no name;
    /// 2. *govern* — a kind that consults the statement governor gets
    ///    one, built once;
    /// 3. *serve* and *answer* — reads go to `Served::database`;
    ///    `TRUTH` and `SHOW` of a derived function look the answer up in
    ///    the result cache and compute it under the governor on a miss;
    /// 4. *after* — a governed stop inside an open transaction may have
    ///    applied a prefix of the statement's work, so the engine rolls
    ///    back to the last savepoint (or the whole transaction) and
    ///    surfaces a typed abort; a success revalidates the non-genuine
    ///    assumptions `DISCOVER` installed against the served store: a
    ///    write that violated an assumed FD drops the assumption, logs
    ///    it for `CHECK DATA` (`FDB053`), and clears the result cache —
    ///    answers and plans compiled under it are no longer trustworthy.
    ///
    /// A statement that comes here and not through [`Engine::execute_line`]
    /// has no text: it leaves nothing in the history `CHECK` lints.
    pub fn execute(&mut self, stmt: Statement) -> Result<String> {
        let admission = stmt.admission();
        if let Some(keyword) = admission.replica_refuses {
            self.replica_write_gate(keyword)?;
        }
        let gov = match admission.governed {
            Governed::Always => true,
            Governed::InTransaction => self.served.own.txn_active(),
            Governed::No => false,
        }
        .then(|| self.statement_governor());
        let gate = match (&gov, admission.governed) {
            (Some(gov), Governed::InTransaction) => Self::txn_write_gate(gov),
            _ => Ok(()),
        };
        match gate.and_then(|()| self.dispatch(stmt, gov.as_ref())) {
            Err(e) if e.is_governed_stop() && self.served.own.txn_active() => {
                Err(self.governed_abort(e))
            }
            Err(e) => Err(e),
            Ok(out) => {
                if !self.nongenuine.is_empty() {
                    let dropped = self.nongenuine.revalidate(self.served.database().store());
                    if !dropped.is_empty() {
                        self.invalidated_log.extend(dropped);
                        self.cache.clear("assumption");
                    }
                }
                Ok(out)
            }
        }
    }

    /// The set of non-genuine planner assumptions currently active
    /// (installed by `DISCOVER`, pruned by revalidation).
    pub fn nongenuine(&self) -> &AssumptionSet {
        &self.nongenuine
    }

    /// Mines the served database's stored extensions (`DISCOVER`, `CHECK
    /// DATA`); the tables of registered derived functions are skipped.
    fn discover(&self) -> fdb_check::DiscoveryReport {
        let db = self.served.database();
        fdb_check::discover(
            db.store(),
            db.schema(),
            &world_of(db).derived,
            &DiscoverConfig::default(),
        )
    }

    /// Runs an admitted statement. `gov` is the statement's governor,
    /// present for every kind [`Statement::admission`] says consults it.
    fn dispatch(&mut self, stmt: Statement, gov: Option<&Governor>) -> Result<String> {
        let governor = || gov.expect("a query-shaped statement is classified Governed::Always");
        match stmt {
            Statement::Empty => Ok(String::new()),
            Statement::Help => Ok(HELP.to_owned()),
            Statement::Declare {
                name,
                domain,
                range,
                functionality,
            } => {
                let f = functionality.parse()?;
                self.served
                    .own
                    .declare_function(&name, &domain, &range, f)?;
                Ok(format!("declared {name}: {domain} -> {range} ({f})\n"))
            }
            Statement::Derive { name, steps } => {
                let db = &mut self.served.own;
                let f = db.resolve(&name)?;
                let derivation = Self::build_derivation(db, &steps, self.line)?;
                let rendered = derivation.render(db.schema());
                db.add_derivation(f, derivation)?;
                Ok(format!("derived {name} = {rendered}\n"))
            }
            Statement::Insert { function, x, y } => {
                let db = &mut self.served.own;
                let f = db.resolve(&function)?;
                db.insert(f, Value::atom(&x), Value::atom(&y))?;
                Ok(format!("inserted {function}({x}, {y})\n"))
            }
            Statement::Delete { function, x, y } => {
                let db = &mut self.served.own;
                let f = db.resolve(&function)?;
                db.delete(f, &Value::atom(&x), &Value::atom(&y))?;
                Ok(format!("deleted {function}({x}, {y})\n"))
            }
            Statement::Replace { function, old, new } => {
                let db = &mut self.served.own;
                let f = db.resolve(&function)?;
                db.replace(
                    f,
                    (Value::atom(&old.0), Value::atom(&old.1)),
                    (Value::atom(&new.0), Value::atom(&new.1)),
                )?;
                Ok(format!(
                    "replaced {function}({}, {}) with ({}, {})\n",
                    old.0, old.1, new.0, new.1
                ))
            }
            Statement::Query { function, x } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                let outcome = db.image_governed(f, &Value::atom(&x), governor())?;
                Ok(Self::render_outcome(outcome, |image| {
                    render_set(format_args!("{function}({x})"), &image)
                }))
            }
            Statement::Truth { function, x, y } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                let (vx, vy) = (Value::atom(&x), Value::atom(&y));
                let outcome = self.cache.truth_or_compute(
                    db.store(),
                    f,
                    db.derivations(f),
                    &vx,
                    &vy,
                    || db.truth_governed(f, &vx, &vy, governor()),
                )?;
                // An exhausted truth is a lower bound, not a verdict —
                // mark it so `F` under a timeout is not read as proof.
                Ok(Self::render_outcome(outcome, |t| {
                    if t == fdb_storage::Truth::Ambiguous {
                        fdb_obs::registry().query_ambiguous_verdicts.inc();
                    }
                    format!("{}\n", t.flag())
                }))
            }
            Statement::Show { function } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                if !db.is_derived(f) {
                    return Ok(render_base_table(db, f));
                }
                let outcome =
                    self.cache
                        .extension_or_compute(db.store(), f, db.derivations(f), || {
                            db.extension_governed(f, governor())
                        })?;
                Ok(Self::render_outcome(outcome, |pairs| {
                    render_derived_pairs(&pairs)
                }))
            }
            Statement::Derivations { function } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                if !db.is_derived(f) {
                    return Ok(format!("{function} is a base function\n"));
                }
                let mut out = String::new();
                for d in db.derivations(f) {
                    out.push_str(&format!("{function} = {}\n", d.render(db.schema())));
                }
                Ok(out)
            }
            Statement::Timeout { millis } => {
                self.deadline = millis.map(Duration::from_millis);
                match millis {
                    Some(ms) => Ok(format!("statement timeout set to {ms} ms\n")),
                    None => Ok("statement timeout cleared\n".to_owned()),
                }
            }
            Statement::Schema => Ok(self.served.database().schema().to_string()),
            Statement::Stats => {
                let s = self.served.database().stats();
                let mut out = format!(
                    "base facts: {} | ambiguous: {} | NCs: {} | nulls: {} | functions: {} base + {} derived\n",
                    s.base_facts,
                    s.ambiguous_facts,
                    s.ncs,
                    s.nulls_generated,
                    s.base_functions,
                    s.derived_functions
                );
                out.push_str(&fdb_obs::render_text(fdb_obs::registry()));
                Ok(out)
            }
            Statement::StatsReset => {
                fdb_obs::registry().reset();
                // The causal ring, open-span table, and slow-query log
                // reset with the metrics: `SHOW TRACE` reads empty
                // until new statements record (this statement's own
                // span is discarded mid-flight too).
                fdb_obs::causal::recorder().clear();
                Ok("metrics reset\n".to_owned())
            }
            Statement::Trace { on, sample } => {
                fdb_obs::causal::set_tracing(on);
                if on {
                    fdb_obs::causal::set_sample_rate(sample.unwrap_or(1));
                    let rate = fdb_obs::causal::sample_rate();
                    if rate == 1 {
                        Ok("tracing on (every statement)\n".to_owned())
                    } else {
                        Ok(format!("tracing on (sampling 1 in {rate})\n"))
                    }
                } else {
                    Ok("tracing off\n".to_owned())
                }
            }
            Statement::TraceSlow { millis } => match millis {
                Some(ms) => {
                    fdb_obs::causal::recorder()
                        .set_slow_threshold_ns(Some(ms.saturating_mul(1_000_000)));
                    Ok(format!("slow-query threshold set to {ms} ms\n"))
                }
                None => {
                    fdb_obs::causal::recorder().set_slow_threshold_ns(None);
                    Ok("slow-query log disabled\n".to_owned())
                }
            },
            Statement::ShowTrace { json } => {
                let spans = fdb_obs::causal::recorder().recent();
                if json {
                    Ok(fdb_obs::causal::chrome_trace(&spans, false))
                } else {
                    Ok(fdb_obs::causal::render_spans_text(&spans))
                }
            }
            Statement::ShowSlow => Ok(fdb_obs::causal::render_slow_text(
                &fdb_obs::causal::recorder().slow_entries(),
            )),
            Statement::DumpTrace => {
                let dir =
                    fdb_obs::flight::dump_dir().unwrap_or_else(|| std::path::PathBuf::from("."));
                let path = fdb_obs::flight::dump_to(&dir, "manual")
                    .map_err(|e| self.io_error("write flight dump", e))?;
                Ok(format!("flight dump written to {}\n", path.display()))
            }
            Statement::StatsJson => {
                let mut out = fdb_obs::render_json(fdb_obs::registry());
                out.push('\n');
                Ok(out)
            }
            Statement::Resolve => {
                let out = resolve_ambiguities(&mut self.served.own);
                let mut text = format!(
                    "resolved: {} nulls unified, {} facts falsified\n",
                    out.nulls_unified, out.facts_falsified
                );
                for c in out.conflicts {
                    text.push_str(&format!("CONFLICT: {c}\n"));
                }
                Ok(text)
            }
            Statement::Check { json } => {
                let diags = self.analyze();
                if json {
                    let mut out = fdb_check::render_json(&diags);
                    out.push('\n');
                    return Ok(out);
                }
                let violations = self.served.database().check_consistency();
                let mut text = String::new();
                if violations.is_empty() {
                    text.push_str("consistent\n");
                } else {
                    for vl in violations {
                        text.push_str(&format!("VIOLATION: {vl}\n"));
                    }
                }
                // A clean session stays exactly `consistent\n`.
                if !diags.is_empty() {
                    text.push_str(&fdb_check::render_text(&diags));
                }
                Ok(text)
            }
            Statement::Discover { json } => {
                let report = self.discover();
                // Every incidental FD becomes a planner assumption, keyed
                // by the mutation counter it was observed at.
                for fd in &report.fds {
                    if fd.observed.is_functional() && !fd.declared.is_functional() {
                        self.nongenuine.install(
                            fd.function,
                            FdKind::Functional,
                            fd.function_version,
                        );
                    }
                    if fd.observed.is_injective() && !fd.declared.is_injective() {
                        self.nongenuine.install(
                            fd.function,
                            FdKind::Injective,
                            fd.function_version,
                        );
                    }
                }
                let schema = self.served.database().schema();
                if json {
                    let tree = fdb_check::discovery_to_content(&report, schema);
                    let mut out = fdb_check::render_content(&tree);
                    out.push('\n');
                    Ok(out)
                } else {
                    Ok(fdb_check::render_discovery_text(&report, schema))
                }
            }
            Statement::CheckData => {
                let report = self.discover();
                let schema = self.served.database().schema();
                let mut diags = fdb_check::discovery_diagnostics(&report, schema);
                for a in &self.invalidated_log {
                    diags.push(fdb_check::invalidation_diagnostic(
                        schema,
                        a.function,
                        a.kind.as_str(),
                        a.observed_version,
                    ));
                }
                if diags.is_empty() {
                    Ok("data-clean\n".to_owned())
                } else {
                    Ok(fdb_check::render_text(&diags))
                }
            }
            Statement::Strict { on } => {
                self.strict = on;
                Ok(format!("strict mode {}\n", if on { "on" } else { "off" }))
            }
            Statement::Eval { x, steps } => {
                let db = self.served.database();
                let derivation = Self::build_derivation(db, &steps, self.line)?;
                let outcome =
                    db.eval_expression_governed(&derivation, &Value::atom(&x), governor())?;
                let rendered = derivation.render(db.schema());
                Ok(Self::render_outcome(outcome, |ys| {
                    render_set(format_args!("{x} : {rendered}"), &ys)
                }))
            }
            Statement::Inverse { function, y } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                let outcome = db.inverse_image_governed(f, &Value::atom(&y), governor())?;
                Ok(Self::render_outcome(outcome, |xs| {
                    render_set(format_args!("{function}^-1({y})"), &xs)
                }))
            }
            Statement::Dump { path } => {
                let script = crate::format::dump_script(self.served.database())?;
                std::fs::write(&path, script)
                    .map_err(|e| self.io_error(format_args!("write {path}"), e))?;
                Ok(format!("dumped script to {path}\n"))
            }
            Statement::Explain { function, x, y } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                let e = db.explain(f, &Value::atom(&x), &Value::atom(&y))?;
                Ok(fdb_core::render_explanation(db, f, &e))
            }
            Statement::ExplainPlan { function, x, y } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                let (vx, vy) = (Value::atom(&x), Value::atom(&y));
                let reports = db.explain_plan(f, &vx, &vy)?;
                let mut out = crate::format::render_plan_reports(db, f, &x, &y, &reports);
                // What-if under the discovered (non-genuine) FDs: for each
                // derivation walking a function with an active assumption,
                // show the cost the planner would charge if the assumed
                // functionality were declared.
                if !self.nongenuine.is_empty() {
                    let spec = QuerySpec::truth(&vx, &vy, true);
                    for (i, d) in db.derivations(f).iter().enumerate() {
                        if !self.nongenuine.touches(d) {
                            continue;
                        }
                        let what_if = self.nongenuine.plan_assuming(db.store(), d, &spec);
                        let assumed: Vec<String> = self
                            .nongenuine
                            .active()
                            .filter(|a| d.mentions(a.function))
                            .map(|a| {
                                format!(
                                    "{} {}",
                                    db.schema().function(a.function).name,
                                    a.kind.as_str()
                                )
                            })
                            .collect();
                        out.push_str(&format!(
                            "  non-genuine: derivation {} assuming {} — est cost {:.1}\n",
                            i + 1,
                            assumed.join(", "),
                            what_if.est_cost,
                        ));
                    }
                }
                Ok(out)
            }
            Statement::ExplainAnalyze { function, x, y } => {
                let db = self.served.database();
                let f = db.resolve(&function)?;
                let (vx, vy) = (Value::atom(&x), Value::atom(&y));
                // Probe (not touch) the cache first, so the report says
                // what a real TRUTH would find without disturbing the
                // counters it is reporting on.
                let probe = self
                    .cache
                    .probe_truth(db.store(), f, db.derivations(f), &vx, &vy);
                let report = db.explain_analyze(f, &vx, &vy)?;
                Ok(crate::format::render_analyze_report(
                    db, f, &x, &y, probe, &report,
                ))
            }
            Statement::Source { path } => {
                const MAX_SOURCE_DEPTH: u8 = 16;
                if self.source_depth >= MAX_SOURCE_DEPTH {
                    return Err(FdbError::Parse {
                        line: self.line,
                        message: format!(
                            "SOURCE nesting exceeds {MAX_SOURCE_DEPTH} (circular include?)"
                        ),
                    });
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| self.io_error(format_args!("read {path}"), e))?;
                if self.strict {
                    self.preflight(&path, &text)?;
                }
                self.source_depth += 1;
                let mut out = String::new();
                let mut result = Ok(());
                for line in text.lines() {
                    match self.execute_line(line) {
                        Ok(text) => out.push_str(&text),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                self.source_depth -= 1;
                result.map(|()| out)
            }
            Statement::Begin => {
                self.served.own.txn_begin()?;
                Ok("transaction started\n".to_owned())
            }
            Statement::Commit => {
                self.served.own.txn_commit()?;
                Ok("committed\n".to_owned())
            }
            Statement::Abort => {
                self.served.own.txn_rollback()?;
                Ok("rolled back\n".to_owned())
            }
            Statement::Savepoint { name } => {
                self.served.own.txn_savepoint(&name)?;
                Ok(format!("savepoint {name} set\n"))
            }
            Statement::RollbackTo { name } => {
                self.served.own.txn_rollback_to(&name)?;
                Ok(format!("rolled back to {name}\n"))
            }
            Statement::Save { path } => {
                let snapshot = self.served.database().to_snapshot()?;
                std::fs::write(&path, snapshot)
                    .map_err(|e| self.io_error(format_args!("write {path}"), e))?;
                Ok(format!("saved snapshot to {path}\n"))
            }
            Statement::Load { path } => {
                if self.served.own.txn_active() {
                    return Err(FdbError::TxnControl(
                        "cannot LOAD inside an open transaction".into(),
                    ));
                }
                let bytes = std::fs::read(&path)
                    .map_err(|e| self.io_error(format_args!("read {path}"), e))?;
                self.served.own = Database::from_snapshot(&bytes)?;
                self.lineage_changed();
                Ok(format!("loaded snapshot from {path}\n"))
            }
            Statement::ReplicaStatus => match &self.served.replica {
                Some(r) => {
                    let mut out = r.status().render();
                    out.push('\n');
                    if let Some(d) = r.divergence() {
                        out.push_str(&d.render());
                        out.push('\n');
                    }
                    Ok(out)
                }
                None => Ok("not a replica (no replication attached)\n".to_owned()),
            },
            Statement::Promote => {
                // Refuse without consuming the replica when promotion is
                // known to be impossible (divergence).
                if let Some(d) = self.served.replica.as_ref().and_then(Replica::divergence) {
                    return Err(FdbError::TxnControl(format!(
                        "PROMOTE refused: {}",
                        d.render()
                    )));
                }
                let replica = self.served.replica.take().ok_or_else(|| {
                    FdbError::TxnControl("PROMOTE: this session is not a replica".to_owned())
                })?;
                let Promotion { logged, report } = replica.promote()?;
                let term = logged.term();
                // The engine becomes the writable serving surface over
                // the promoted state; the durable log handle is returned
                // to the host's domain by the library API
                // (`Replica::promote`) when process-level durability is
                // wanted beyond this session.
                self.served.own = logged.into_database();
                self.lineage_changed();
                Ok(format!(
                    "promoted to primary on term {term} ({} uncommitted records discarded)\n",
                    report.uncommitted_discarded
                ))
            }
        }
    }

    /// A file the statement names could not be read or written.
    fn io_error(&self, what: impl std::fmt::Display, e: std::io::Error) -> FdbError {
        FdbError::Parse {
            line: self.line,
            message: format!("cannot {what}: {e}"),
        }
    }

    /// Inside an open transaction, a write consults the statement
    /// governor before executing: a tripped cancel flag or an expired
    /// deadline must not apply further updates — the resulting governed
    /// stop triggers the automatic rollback to the last savepoint.
    fn txn_write_gate(gov: &Governor) -> Result<()> {
        gov.check().map_err(|r| r.into_error("transactional write"))
    }

    /// Rolls the open transaction back to its last savepoint — or aborts
    /// it entirely when none is set — after a governed stop, returning
    /// the typed [`FdbError::TxnAborted`] the statement surfaces.
    fn governed_abort(&mut self, cause: FdbError) -> FdbError {
        let db = &mut self.served.own;
        let savepoint = db.txn_last_savepoint().map(str::to_owned);
        let rolled_back = match &savepoint {
            Some(name) => db.txn_rollback_to(name),
            None => db.txn_rollback(),
        };
        if let Err(e) = rolled_back {
            return e;
        }
        fdb_obs::registry().txn_governed_aborts.inc();
        FdbError::TxnAborted {
            savepoint,
            cause: Box::new(cause),
        }
    }

    /// Toggles strict mode programmatically (the `STRICT ON|OFF` form).
    pub fn set_strict(&mut self, on: bool) {
        self.strict = on;
    }

    /// Whether strict mode is on.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Runs the static analyzer over the session's history — what
    /// `CHECK` prints, as structured diagnostics.
    pub fn analyze(&self) -> Vec<fdb_check::Diagnostic> {
        self.lint_history(Vec::new())
    }

    /// `fdb-lint` of the session's transcript, then of `script` (a file
    /// about to be `SOURCE`d, numbered from its own line 1), over the
    /// catalog the history started from — or a replica's as it is now:
    /// it moves under a session that can itself declare nothing.
    fn lint_history(&self, script: Vec<CheckStmt>) -> Vec<fdb_check::Diagnostic> {
        let live = self.served.replica.as_ref().map(|r| world_of(r.database()));
        let world = live.as_ref().unwrap_or(&self.history.world);
        let (mut stmts, _) = lower_script_from(&self.history.transcript, self.history.first_line);
        stmts.extend(script);
        analyze_script_in(world, &stmts, &CheckConfig::default())
    }

    /// Strict-mode pre-flight: analyzes the session history plus the
    /// script about to be `SOURCE`d and refuses on any error-severity
    /// finding (or any line that does not parse).
    fn preflight(&self, path: &str, text: &str) -> Result<()> {
        let (script, parse_errors) = crate::check::lower_script(text);
        if let Some((line, e)) = parse_errors.into_iter().next() {
            return Err(FdbError::Parse {
                line: self.line,
                message: format!("strict: {path}:{line} does not parse: {e}"),
            });
        }
        let errors: Vec<String> = self
            .lint_history(script)
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .map(|d| d.render().replace('\n', "\n  "))
            .collect();
        if errors.is_empty() {
            return Ok(());
        }
        Err(FdbError::Parse {
            line: self.line,
            message: format!(
                "strict: {path} rejected by pre-flight analysis:\n  {}",
                errors.join("\n  ")
            ),
        })
    }

    /// Builds the derivation the steps of a `DERIVE` or `EVAL` name over
    /// `db`'s schema.
    fn build_derivation(db: &Database, steps: &[DeriveStep], line: u32) -> Result<Derivation> {
        let named: Vec<(&str, bool)> = steps.iter().map(|s| (s.name.as_str(), s.inverse)).collect();
        db.schema()
            .derivation(&named)
            .map_err(|refusal| match refusal {
                Refusal::UnknownStep { step, .. } => {
                    FdbError::UnknownFunction(steps[step].name.clone())
                }
                _ => FdbError::Parse {
                    line,
                    message: "a derivation must have at least one step".into(),
                },
            })
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(engine: &mut Engine, script: &str) -> Vec<Result<String>> {
        script.lines().map(|l| engine.execute_line(l)).collect()
    }

    #[test]
    fn full_university_script() {
        let mut e = Engine::new();
        let results = run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT teach(laplace, math)\n\
             INSERT class_list(math, john)\n\
             INSERT class_list(math, bill)\n\
             TRUTH pupil(euclid, john)",
        );
        for r in &results[..8] {
            r.as_ref().unwrap();
        }
        assert_eq!(results[8].as_ref().unwrap(), "T\n");
    }

    const UNIVERSITY: &str = "DECLARE teach: faculty -> course (many-many)\n\
                              DECLARE class_list: course -> student (many-many)\n\
                              DECLARE pupil: faculty -> student (many-many)";

    /// Deriving a function that holds facts is the user's mistake, refused
    /// in the catalog's words, not a broken invariant of the program.
    #[test]
    fn derive_of_a_function_holding_facts_is_a_malformed_derivation() {
        let mut e = Engine::new();
        for r in run(&mut e, UNIVERSITY) {
            r.unwrap();
        }
        e.execute_line("INSERT pupil(a, b)").unwrap();
        let err = e
            .execute_line("DERIVE pupil = teach o class_list")
            .unwrap_err();
        assert_eq!(
            err,
            FdbError::MalformedDerivation(
                "cannot mark pupil derived: its table is non-empty".into()
            )
        );
        assert_eq!(
            err.to_string(),
            "malformed derivation: cannot mark pupil derived: its table is non-empty"
        );
    }

    /// A second `DERIVE` of a derivation the function already has answers
    /// as the first did and registers nothing: the derivation is listed,
    /// explained and walked once.
    #[test]
    fn an_identical_second_derive_registers_nothing() {
        let mut e = Engine::new();
        for r in run(
            &mut e,
            &format!("{UNIVERSITY}\nINSERT teach(euclid, math)\nINSERT class_list(math, john)"),
        ) {
            r.unwrap();
        }
        let derive = "DERIVE pupil = teach o class_list";
        assert_eq!(
            e.execute_line(derive).unwrap(),
            "derived pupil = teach o class_list\n"
        );
        let once = ["DERIVATIONS pupil", "EXPLAIN pupil(euclid, john)"]
            .map(|line| e.execute_line(line).unwrap());
        assert_eq!(
            e.execute_line(derive).unwrap(),
            "derived pupil = teach o class_list\n"
        );
        let twice = ["DERIVATIONS pupil", "EXPLAIN pupil(euclid, john)"]
            .map(|line| e.execute_line(line).unwrap());
        assert_eq!(once, twice);
        let pupil = e.database().resolve("pupil").unwrap();
        assert_eq!(e.database().derivations(pupil).len(), 1);
    }

    #[test]
    fn explain_plan_statement_and_result_cache() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DECLARE office: faculty -> room (many-one)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let out = e.execute_line("EXPLAIN PLAN pupil(euclid, john)").unwrap();
        assert!(out.contains("direction:"), "got: {out}");
        assert!(out.contains("actual chains: 1"), "got: {out}");
        let out = e.execute_line("EXPLAIN PLAN teach(euclid, math)").unwrap();
        assert!(out.contains("base function"), "got: {out}");

        // Repeated TRUTH over an unchanged support set hits the cache;
        // a write outside the support set keeps it warm.
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        assert_eq!(e.cache_stats().local.hits, 1);
        e.execute_line("INSERT office(euclid, e-101)").unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        assert_eq!(e.cache_stats().local.hits, 2);
        assert_eq!(e.cache_stats().local.invalidations, 0);
        assert_eq!(e.cache_stats().truth_entries, 1);
        // The global layer has seen at least this engine's traffic.
        assert!(e.cache_stats().global.hits >= e.cache_stats().local.hits);

        // A support-set write invalidates and the answer tracks it.
        e.execute_line("DELETE class_list(math, john)").unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "F\n");
        assert_eq!(e.cache_stats().local.invalidations, 1);
    }

    #[test]
    fn discover_installs_assumptions_and_violating_writes_invalidate() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             INSERT teach(euclid, math)\n\
             INSERT teach(laplace, stat)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        // Two distinct x→y pairs: the extension is one-one while the
        // declaration is many-many, so DISCOVER reports an incidental FD
        // and installs both directions as planner assumptions.
        let out = e.execute_line("DISCOVER").unwrap();
        assert!(out.contains("fd teach: observed one-one"), "got: {out}");
        assert_eq!(e.nongenuine().len(), 2);
        let out = e.execute_line("CHECK DATA").unwrap();
        assert!(out.contains("FDB050"), "got: {out}");
        // Reads leave the assumptions alone.
        e.execute_line("SHOW teach").unwrap();
        assert_eq!(e.nongenuine().len(), 2);
        // A write giving euclid a second course breaks the functional
        // direction only (geom stays a unique range value).
        e.execute_line("INSERT teach(euclid, geom)").unwrap();
        assert_eq!(e.nongenuine().len(), 1);
        let out = e.execute_line("CHECK DATA").unwrap();
        assert!(out.contains("FDB053"), "got: {out}");
        assert!(out.contains("teach is functional"), "got: {out}");
    }

    #[test]
    fn discover_json_and_explain_plan_annotation() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)\n\
             INSERT class_list(math, bill)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let out = e.execute_line("DISCOVER JSON").unwrap();
        assert!(out.starts_with('{'), "got: {out}");
        assert!(out.contains("\"fds\""), "got: {out}");
        assert!(!e.nongenuine().is_empty());
        // EXPLAIN PLAN over a derivation that walks an assumed function
        // carries the what-if annotation.
        let out = e.execute_line("EXPLAIN PLAN pupil(euclid, john)").unwrap();
        // teach has a single row (below min_support); the discovered FD
        // is class_list's injectivity (john and bill are unique).
        assert!(
            out.contains("non-genuine: derivation 1 assuming"),
            "got: {out}"
        );
        assert!(out.contains("class_list injective"), "got: {out}");
    }

    #[test]
    fn explain_analyze_statement_reports_execution() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let out = e
            .execute_line("EXPLAIN ANALYZE pupil(euclid, john)")
            .unwrap();
        assert!(out.contains("verdict T"), "got: {out}");
        assert!(out.contains("cache miss"), "got: {out}");
        assert!(out.contains("direction:"), "got: {out}");
        assert!(out.contains("actual chains: 1"), "got: {out}");
        assert!(out.contains("exact true: 1"), "got: {out}");
        assert!(out.contains("governor steps:"), "got: {out}");
        assert!(out.contains("total time:"), "got: {out}");

        // Warm the cache, then EXPLAIN ANALYZE reports a hit without
        // disturbing the cached answer.
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        let out = e
            .execute_line("EXPLAIN ANALYZE pupil(euclid, john)")
            .unwrap();
        assert!(out.contains("cache hit"), "got: {out}");
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        assert_eq!(e.cache_stats().local.hits, 1);

        // Base functions report the probe shape, not a plan.
        let out = e
            .execute_line("EXPLAIN ANALYZE teach(euclid, math)")
            .unwrap();
        assert!(out.contains("base function"), "got: {out}");
        assert!(out.contains("verdict T"), "got: {out}");
    }

    #[test]
    fn stats_variants_reset_and_json() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             INSERT teach(euclid, math)\n\
             TRUTH teach(euclid, math)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let stats = e.execute_line("STATS").unwrap();
        assert!(stats.contains("fdb.lang.statements"), "got: {stats}");
        let json = e.execute_line("STATS JSON").unwrap();
        assert!(json.trim_start().starts_with('{'), "got: {json}");
        assert!(json.contains("\"fdb.lang.statements\""), "got: {json}");
        assert_eq!(e.execute_line("STATS RESET").unwrap(), "metrics reset\n");
    }

    #[test]
    fn stats_surface_mvcc_and_group_commit_metrics() {
        let mut e = Engine::new();
        // The registry is closed: every key is present in both renderings
        // whether or not this process exercised the MVCC/group paths.
        let stats = e.execute_line("STATS").unwrap();
        let json = e.execute_line("STATS JSON").unwrap();
        for key in [
            "fdb.mvcc.snapshots_published",
            "fdb.mvcc.snapshot_pins",
            "fdb.mvcc.stale_snapshot_reads",
            "fdb.commit.group_fsyncs",
            "fdb.commit.group_fsyncs_saved",
            "fdb.commit.group_failures",
            "fdb.commit.group_size_records",
        ] {
            assert!(stats.contains(key), "STATS lacks {key}: {stats}");
            assert!(
                json.contains(&format!("\"{key}")),
                "STATS JSON lacks {key}: {json}"
            );
        }
    }

    #[test]
    fn derived_delete_and_query_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)\n\
             INSERT class_list(math, bill)\n\
             DELETE pupil(euclid, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "F\n");
        // euclid's image: only bill remains, ambiguously.
        let q = e.execute_line("QUERY pupil(euclid)").unwrap();
        assert_eq!(q, "pupil(euclid) = {bill*}\n");
        let show = e.execute_line("SHOW teach").unwrap();
        assert!(show.contains("euclid  math  A  {g1}"));
        // CHECK: consistent store, but the analyzer flags the read that
        // came back all-ambiguous (and schema-design infos).
        let check = e.execute_line("CHECK").unwrap();
        assert!(check.starts_with("consistent\n"), "got: {check}");
        assert!(
            check.contains("FDB020 warn 10:7: query `pupil(euclid)`"),
            "got: {check}"
        );
        assert!(
            check.contains("check: 0 errors, 1 warnings, 3 infos\n"),
            "got: {check}"
        );
    }

    #[test]
    fn derive_with_inverse_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE taught_by: course -> faculty (many-many)\n\
             DERIVE taught_by = teach^-1\n\
             INSERT teach(euclid, math)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert_eq!(
            e.execute_line("TRUTH taught_by(math, euclid)").unwrap(),
            "T\n"
        );
        let ders = e.execute_line("DERIVATIONS taught_by").unwrap();
        assert_eq!(ders, "taught_by = teach^-1\n");
    }

    #[test]
    fn resolve_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE score: [student; course] -> marks (many-one)\n\
             DECLARE cutoff: marks -> letter_grade (many-one)\n\
             DECLARE grade: [student; course] -> letter_grade (many-one)\n\
             DERIVE grade = score o cutoff\n\
             INSERT grade(s1, A)\n\
             INSERT score(s1, 85)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let out = e.execute_line("RESOLVE").unwrap();
        assert!(out.contains("1 nulls unified"));
        let cutoff = e.execute_line("SHOW cutoff").unwrap();
        assert!(cutoff.contains("85  A  T"));
    }

    #[test]
    fn eval_and_inverse_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             INSERT teach(euclid, math)\n\
             INSERT teach(laplace, math)\n\
             INSERT class_list(math, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert_eq!(
            e.execute_line("EVAL euclid : teach o class_list").unwrap(),
            "euclid : teach o class_list = {john}\n"
        );
        assert_eq!(
            e.execute_line("EVAL john : class_list^-1 o teach^-1")
                .unwrap(),
            "john : class_list^-1 o teach^-1 = {euclid, laplace}\n"
        );
        assert_eq!(
            e.execute_line("INVERSE teach(math)").unwrap(),
            "teach^-1(math) = {euclid, laplace}\n"
        );
    }

    /// `EVAL` of an ad-hoc expression lists what `QUERY` of a derived
    /// function with the same steps lists, in the same order, on atoms
    /// longer than 14 bytes and on a store with nulls.
    #[test]
    fn eval_answers_as_query_of_the_same_steps() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid_of_alexandria, elementary_geometry)\n\
             INSERT teach(euclid_of_alexandria, math)\n\
             INSERT class_list(elementary_geometry, student_with_a_long_name_2)\n\
             INSERT class_list(elementary_geometry, student_with_a_long_name_1)\n\
             INSERT class_list(math, student_with_a)\n\
             INSERT class_list(math, john)\n\
             INSERT pupil(euclid_of_alexandria, hypatia_of_alexandria)\n\
             DELETE pupil(euclid_of_alexandria, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert!(e.execute_line("SHOW teach").unwrap().contains("  n1  "));
        let mut members = |line: &str| {
            let out = e.execute_line(line).unwrap();
            out.split_once(" = ").unwrap().1.to_owned()
        };
        let query = members("QUERY pupil(euclid_of_alexandria)");
        assert_eq!(
            members("EVAL euclid_of_alexandria : teach o class_list"),
            query
        );
        assert!(query.contains("student_with_a_long_name_1"), "{query}");
        assert!(query.contains('*'), "{query}");
    }

    #[test]
    fn explain_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)\n\
             DELETE pupil(euclid, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        let out = e.execute_line("EXPLAIN pupil(euclid, john)").unwrap();
        assert!(out.contains("verdict: F"));
        assert!(out.contains("negated by an NC"));
        let out = e.execute_line("EXPLAIN teach(euclid, math)").unwrap();
        assert!(out.contains("verdict: A"));
        assert!(out.contains("base function"));
    }

    #[test]
    fn circular_source_is_rejected() {
        let path = std::env::temp_dir().join(format!("fdb_circular_{}.fdb", std::process::id()));
        std::fs::write(&path, format!("SOURCE \"{}\"\n", path.display())).unwrap();
        let mut e = Engine::new();
        let err = e
            .execute_line(&format!("SOURCE \"{}\"", path.display()))
            .unwrap_err();
        assert!(err.to_string().contains("nesting"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_runs_script_files() {
        let path = std::env::temp_dir().join(format!("fdb_source_{}.fdb", std::process::id()));
        std::fs::write(
            &path,
            "DECLARE teach: faculty -> course (many-many)\n\
             -- a comment\n\
             INSERT teach(euclid, math)\n",
        )
        .unwrap();
        let mut e = Engine::new();
        let out = e
            .execute_line(&format!("SOURCE \"{}\"", path.display()))
            .unwrap();
        assert!(out.contains("declared teach"));
        assert!(out.contains("inserted teach"));
        assert_eq!(e.execute_line("TRUTH teach(euclid, math)").unwrap(), "T\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transactions_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             INSERT teach(euclid, math)\n\
             BEGIN\n\
             INSERT teach(gauss, algebra)\n\
             DELETE teach(euclid, math)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert_eq!(e.database().stats().base_facts, 1);
        e.execute_line("ABORT").unwrap();
        assert_eq!(e.database().stats().base_facts, 1);
        assert_eq!(e.execute_line("TRUTH teach(euclid, math)").unwrap(), "T\n");
        assert_eq!(
            e.execute_line("TRUTH teach(gauss, algebra)").unwrap(),
            "F\n"
        );
        // COMMIT path.
        e.execute_line("BEGIN").unwrap();
        e.execute_line("INSERT teach(gauss, algebra)").unwrap();
        e.execute_line("COMMIT").unwrap();
        assert_eq!(
            e.execute_line("TRUTH teach(gauss, algebra)").unwrap(),
            "T\n"
        );
        // Errors on unbalanced transaction statements.
        assert!(e.execute_line("COMMIT").is_err());
        assert!(e.execute_line("ABORT").is_err());
        e.execute_line("BEGIN").unwrap();
        assert!(e.execute_line("BEGIN").is_err());
    }

    #[test]
    fn savepoints_through_language() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             BEGIN\n\
             INSERT teach(euclid, math)\n\
             SAVEPOINT one\n\
             INSERT teach(gauss, algebra)\n\
             ROLLBACK TO one",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert_eq!(e.execute_line("TRUTH teach(euclid, math)").unwrap(), "T\n");
        assert_eq!(
            e.execute_line("TRUTH teach(gauss, algebra)").unwrap(),
            "F\n"
        );
        // The savepoint stays set: roll back to it again after more work.
        e.execute_line("INSERT teach(noether, rings)").unwrap();
        e.execute_line("ROLLBACK TO one").unwrap();
        assert_eq!(
            e.execute_line("TRUTH teach(noether, rings)").unwrap(),
            "F\n"
        );
        e.execute_line("COMMIT").unwrap();
        assert_eq!(e.execute_line("TRUTH teach(euclid, math)").unwrap(), "T\n");
        // Transaction-control misuse is a typed error.
        assert!(e.execute_line("ROLLBACK TO one").is_err());
        assert!(e.execute_line("SAVEPOINT s").is_err());
        e.execute_line("BEGIN").unwrap();
        assert!(e.execute_line("ROLLBACK TO ghost").is_err());
        assert_eq!(e.execute_line("ABORT").unwrap(), "rolled back\n");
    }

    #[test]
    fn governed_stop_inside_txn_rolls_back_to_savepoint() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             BEGIN\n\
             INSERT teach(euclid, math)\n\
             SAVEPOINT keep\n\
             INSERT teach(gauss, algebra)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        // An expired deadline trips the write gate; the engine rolls back
        // to the savepoint and surfaces the typed abort.
        e.set_statement_deadline(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(5));
        let err = e.execute_line("INSERT teach(noether, rings)").unwrap_err();
        match &err {
            FdbError::TxnAborted { savepoint, cause } => {
                assert_eq!(savepoint.as_deref(), Some("keep"));
                assert!(cause.is_governed_stop(), "cause: {cause}");
            }
            other => panic!("expected TxnAborted, got {other}"),
        }
        e.set_statement_deadline(None);
        // Work after the savepoint is gone; the transaction stays open
        // and commits the pre-savepoint state.
        assert_eq!(
            e.execute_line("TRUTH teach(gauss, algebra)").unwrap(),
            "F\n"
        );
        e.execute_line("COMMIT").unwrap();
        assert_eq!(e.execute_line("TRUTH teach(euclid, math)").unwrap(), "T\n");

        // Without a savepoint the whole transaction aborts and closes.
        e.execute_line("BEGIN").unwrap();
        e.execute_line("INSERT teach(leibniz, calculus)").unwrap();
        e.set_statement_deadline(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(5));
        let err = e.execute_line("DELETE teach(euclid, math)").unwrap_err();
        assert!(
            matches!(
                &err,
                FdbError::TxnAborted {
                    savepoint: None,
                    ..
                }
            ),
            "{err}"
        );
        e.set_statement_deadline(None);
        assert!(!e.database().txn_active());
        assert_eq!(
            e.execute_line("TRUTH teach(leibniz, calculus)").unwrap(),
            "F\n"
        );
        assert_eq!(e.execute_line("TRUTH teach(euclid, math)").unwrap(), "T\n");
    }

    #[test]
    fn rollback_invalidates_derived_cache() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        // Warm the derived cache, mutate inside a transaction, roll back.
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        e.execute_line("BEGIN").unwrap();
        e.execute_line("DELETE class_list(math, john)").unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "F\n");
        e.execute_line("ABORT").unwrap();
        // Rolling back advanced the version counters, so neither the
        // pre-BEGIN `T` entry nor the in-transaction `F` entry may be
        // served; the answer is recomputed against the restored state.
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
    }

    /// `pupil = teach o class_list` and `advises`, with
    /// `pupil(euclid, john)` true and `advises(euclid, zoe)` stored.
    fn university_with_advises() -> Engine {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE advises: faculty -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)\n\
             INSERT advises(euclid, zoe)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        e
    }

    #[test]
    fn a_new_derivation_invalidates_cached_answers() {
        let mut e = university_with_advises();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, zoe)").unwrap(), "F\n");
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), "euclid  john\n");
        // A second derivation moves no store counter, yet every read of
        // pupil must see it at once, the cached ones included.
        e.execute_line("DERIVE pupil = advises").unwrap();
        let out = e
            .execute_line("EXPLAIN ANALYZE pupil(euclid, zoe)")
            .unwrap();
        assert!(out.contains("verdict T, cache stale"), "got: {out}");
        assert_eq!(e.execute_line("TRUTH pupil(euclid, zoe)").unwrap(), "T\n");
        assert_eq!(
            e.execute_line("SHOW pupil").unwrap(),
            "euclid  john\neuclid  zoe\n"
        );
        assert_eq!(
            e.execute_line("QUERY pupil(euclid)").unwrap(),
            "pupil(euclid) = {john, zoe}\n"
        );
    }

    #[test]
    fn a_rolled_back_derivation_stops_answering() {
        let mut e = university_with_advises();
        e.execute_line("BEGIN").unwrap();
        e.execute_line("DERIVE pupil = advises").unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, zoe)").unwrap(), "T\n");
        assert_eq!(
            e.execute_line("SHOW pupil").unwrap(),
            "euclid  john\neuclid  zoe\n"
        );
        e.execute_line("ABORT").unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, zoe)").unwrap(), "F\n");
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), "euclid  john\n");
        assert_eq!(
            e.execute_line("QUERY pupil(euclid)").unwrap(),
            "pupil(euclid) = {john}\n"
        );
    }

    #[test]
    fn stale_answers_of_a_function_are_dropped_together() {
        let mut e = university_with_advises();
        e.execute_line("DECLARE office: faculty -> room (many-one)")
            .unwrap();
        for i in 0..200 {
            e.execute_line(&format!("TRUTH pupil(euclid, s{i})"))
                .unwrap();
        }
        assert_eq!(e.cache_stats().truth_entries, 200);
        // A write outside the support set evicts nothing…
        e.execute_line("INSERT office(euclid, e101)").unwrap();
        e.execute_line("TRUTH pupil(euclid, s0)").unwrap();
        assert_eq!(e.cache_stats().truth_entries, 200);
        assert_eq!(e.cache_stats().local.invalidations, 0);
        // …one inside it evicts every answer at the next lookup, not
        // only the one asked again.
        e.execute_line("INSERT teach(gauss, algebra)").unwrap();
        e.execute_line("TRUTH pupil(gauss, nobody)").unwrap();
        assert_eq!(e.cache_stats().truth_entries, 1);
        assert_eq!(e.cache_stats().local.invalidations, 200);
    }

    #[test]
    fn cancelled_cold_show_is_partial_and_not_remembered() {
        let mut e = university_with_advises();
        // Cancelling goes through execute() because execute_line rearms.
        e.cancel_token().cancel();
        let stmt = crate::parse_statement("SHOW pupil", 99).unwrap();
        let out = e.execute(stmt).unwrap();
        assert_eq!(out, "  -- partial: stopped by cancelled\n");
        assert_eq!(e.cache_stats().extension_entries, 0);
        let stmt = crate::parse_statement("TRUTH pupil(euclid, john)", 99).unwrap();
        let out = e.execute(stmt).unwrap();
        assert_eq!(out, "F  -- partial: stopped by cancelled\n");
        assert_eq!(e.cache_stats().truth_entries, 0);
        // The next top-level statement rearms and completes.
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), "euclid  john\n");
        assert_eq!(e.cache_stats().extension_entries, 1);
    }

    #[test]
    fn complete_cached_answers_are_served_under_an_expired_deadline() {
        let mut e = university_with_advises();
        // The hubs of `expired_deadline_yields_partial_truth`: a cold
        // SHOW or a disproof cannot finish under a dead deadline.
        for i in 0..64 {
            e.execute_line(&format!("INSERT teach(euclid, m{i})"))
                .unwrap();
            e.execute_line(&format!("INSERT class_list(w{i}, bob)"))
                .unwrap();
        }
        let show = e.execute_line("SHOW pupil").unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bob)").unwrap(), "F\n");
        e.set_statement_deadline(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), show);
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bob)").unwrap(), "F\n");
        // A support-set write empties the cache; the recomputation is
        // governed, stops, and is not remembered.
        e.set_statement_deadline(None);
        e.execute_line("INSERT teach(gauss, algebra)").unwrap();
        e.set_statement_deadline(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(5));
        let out = e.execute_line("SHOW pupil").unwrap();
        assert!(out.contains("-- partial: stopped by deadline"), "{out}");
        let out = e.execute_line("TRUTH pupil(euclid, bob)").unwrap();
        assert!(out.contains("-- partial: stopped by deadline"), "{out}");
        assert_eq!(e.cache_stats().extension_entries, 0);
        assert_eq!(e.cache_stats().truth_entries, 0);
        e.set_statement_deadline(None);
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), show);
    }

    #[test]
    fn save_and_load_round_trip() {
        let path =
            std::env::temp_dir().join(format!("fdb_lang_snapshot_{}.snap", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)\n\
             DELETE pupil(euclid, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        e.execute_line(&format!("SAVE \"{path_str}\"")).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"FDBSNAP1"));

        let mut fresh = Engine::new();
        fresh.execute_line(&format!("LOAD \"{path_str}\"")).unwrap();
        assert_eq!(
            fresh.execute_line("TRUTH pupil(euclid, john)").unwrap(),
            "F\n"
        );
        let show = fresh.execute_line("SHOW teach").unwrap();
        assert!(show.contains("euclid  math  A  {g1}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn timeout_statement_sets_and_clears_deadline() {
        let mut e = Engine::new();
        assert_eq!(
            e.execute_line("TIMEOUT 250").unwrap(),
            "statement timeout set to 250 ms\n"
        );
        assert_eq!(e.statement_deadline(), Some(Duration::from_millis(250)));
        assert_eq!(
            e.execute_line("TIMEOUT OFF").unwrap(),
            "statement timeout cleared\n"
        );
        assert_eq!(e.statement_deadline(), None);
        assert!(e.execute_line("TIMEOUT soon").is_err());
    }

    #[test]
    fn cancelled_query_reports_partial() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        // Cancel before executing: the governed query stops immediately
        // and the answer is annotated as partial. Cancelling goes
        // through execute() directly because execute_line rearms.
        e.cancel_token().cancel();
        let stmt = crate::parse_statement("QUERY pupil(euclid)", 99).unwrap();
        let out = e.execute(stmt).unwrap();
        assert!(
            out.contains("-- partial: stopped by cancelled"),
            "got: {out}"
        );
        // Next statement through execute_line rearms and completes.
        let out = e.execute_line("QUERY pupil(euclid)").unwrap();
        assert_eq!(out, "pupil(euclid) = {john}\n");
    }

    #[test]
    fn expired_deadline_yields_partial_truth() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, john)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        // Enough facts that disproving a pupil fact takes more steps
        // than the governor's clock-check stride *in either walk
        // direction* — a hub on each endpoint, with no link between
        // them, so neither forward nor backward seeding is cheap.
        for i in 0..64 {
            e.execute_line(&format!("INSERT teach(euclid, m{i})"))
                .unwrap();
            e.execute_line(&format!("INSERT class_list(w{i}, bob)"))
                .unwrap();
        }
        e.set_statement_deadline(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(5));
        // A True fact still answers T: one witnessing chain is proof,
        // and True is the top of the truth lattice.
        assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
        // A False fact needs exhaustive search, which the dead deadline
        // forbids — the lower bound comes back marked partial.
        let out = e.execute_line("TRUTH pupil(euclid, bob)").unwrap();
        assert!(out.contains("-- partial: stopped by"), "got: {out}");
        e.set_statement_deadline(None);
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bob)").unwrap(), "F\n");
    }

    #[test]
    fn errors_are_surfaced_with_line_numbers() {
        let mut e = Engine::new();
        let err = e.execute_line("INSERT ghost(a, b)").unwrap_err();
        assert!(matches!(err, FdbError::UnknownFunction(_)));
        let err = e.execute_line("GIBBERISH").unwrap_err();
        assert!(matches!(err, FdbError::Parse { line: 2, .. }));
    }

    #[test]
    fn stats_and_schema_and_help() {
        let mut e = Engine::new();
        e.execute_line("DECLARE f: a -> b (one-one)").unwrap();
        assert!(e.execute_line("SCHEMA").unwrap().contains("1. f: a -> b"));
        assert!(e.execute_line("STATS").unwrap().contains("base facts: 0"));
        assert!(e.execute_line("HELP").unwrap().contains("DECLARE"));
    }

    /// A primary on a simulated disk, a replica of it, and the source
    /// that ships from the one to the other.
    struct Shipping {
        primary: fdb_core::LoggedDatabase,
        source: fdb_repl::ReplicationSource,
    }

    impl Shipping {
        /// Ships everything the primary has logged to `replica`.
        fn ship(&mut self, replica: &mut Replica) {
            let batch = self.source.poll(replica.next_seq(), 10_000).unwrap();
            replica.apply_batch(&batch).unwrap();
        }
    }

    /// A primary holding `pupil = teach o class_list` with one chain, and
    /// a caught-up replica of it.
    fn university_replica() -> (Shipping, Replica) {
        use fdb_core::{LoggedDatabase, SimDisk, WalStorage};
        use std::sync::Arc;

        let storage: Arc<dyn WalStorage> = Arc::new(SimDisk::new());
        let (mut p, _) =
            LoggedDatabase::open_with(Arc::clone(&storage), "/p", Default::default()).unwrap();
        let many_many = || "many-many".parse().unwrap();
        p.declare("teach", "faculty", "course", many_many())
            .unwrap();
        p.declare("class_list", "course", "student", many_many())
            .unwrap();
        p.declare("pupil", "faculty", "student", many_many())
            .unwrap();
        p.derive("pupil", &[("teach", false), ("class_list", false)])
            .unwrap();
        p.insert("teach", Value::atom("euclid"), Value::atom("math"))
            .unwrap();
        p.insert("class_list", Value::atom("math"), Value::atom("john"))
            .unwrap();
        let mut replica = Replica::open(Arc::clone(&storage), "/r").unwrap();
        let mut shipping = Shipping {
            source: fdb_repl::ReplicationSource::for_primary(&p),
            primary: p,
        };
        shipping.ship(&mut replica);
        (shipping, replica)
    }

    #[test]
    fn replica_engine_serves_reads_refuses_writes_and_promotes() {
        let (mut shipping, replica) = university_replica();
        let mut e = Engine::with_replica(replica);
        // Every read kind is answered from the replica's state.
        let tmp = std::env::temp_dir().join(format!("fdb_replica_reads_{}", std::process::id()));
        let (save, dump) = (tmp.with_extension("snap"), tmp.with_extension("fdb"));
        for (line, want) in [
            ("TRUTH teach(euclid, math)", "T\n"),
            ("TRUTH pupil(euclid, john)", "T\n"),
            ("QUERY teach(euclid)", "{math}"),
            ("QUERY pupil(euclid)", "{john}"),
            ("INVERSE pupil(john)", "{euclid}"),
            ("EVAL euclid : teach o class_list", "{john}"),
            ("SHOW pupil", "euclid  john\n"),
            ("SHOW teach", "euclid  math  T"),
            ("DERIVATIONS pupil", "pupil = teach o class_list"),
            ("EXPLAIN pupil(euclid, john)", "verdict: T"),
            ("EXPLAIN PLAN pupil(euclid, john)", "actual chains: 1"),
            (
                "EXPLAIN ANALYZE pupil(euclid, john)",
                "verdict T, cache hit",
            ),
            ("SCHEMA", "3. pupil: faculty -> student"),
            ("STATS", "base facts: 2 |"),
            ("DISCOVER", "discover: "),
            ("CHECK DATA", "data-clean"),
            ("CHECK", "consistent"),
            (&format!("SAVE \"{}\"", save.display()), "saved snapshot"),
            (&format!("DUMP \"{}\"", dump.display()), "dumped script"),
        ] {
            let out = e
                .execute_line(line)
                .unwrap_or_else(|err| panic!("`{line}` failed on a replica: {err}"));
            assert!(out.contains(want), "`{line}` printed: {out}");
        }
        assert!(std::fs::read(&save).unwrap().starts_with(b"FDBSNAP1"));
        let dumped = std::fs::read_to_string(&dump).unwrap();
        assert!(dumped.contains("INSERT teach(euclid, math)"), "{dumped}");
        std::fs::remove_file(&save).ok();
        std::fs::remove_file(&dump).ok();
        assert!(e.snapshot().resolve("pupil").is_ok());
        // Writes are refused while the replica is attached.
        let err = e.execute_line("INSERT teach(a, b)").unwrap_err();
        assert!(matches!(err, FdbError::TxnControl(_)), "got {err:?}");
        let err = e.execute_line("BEGIN").unwrap_err();
        assert!(matches!(err, FdbError::TxnControl(_)));
        // Status renders position and health.
        let status = e.execute_line("REPLICA STATUS").unwrap();
        assert!(status.contains("applied_seq="), "got: {status}");
        assert!(status.contains("diverged=false"), "got: {status}");

        // A shipped write inside pupil's support set reaches the cached
        // answers like a local one would.
        let p = &mut shipping.primary;
        p.insert("class_list", Value::atom("math"), Value::atom("bill"))
            .unwrap();
        shipping.ship(e.replica_mut().unwrap());
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bill)").unwrap(), "T\n");
        let show = e.execute_line("SHOW pupil").unwrap();
        assert_eq!(show, "euclid  bill\neuclid  john\n");

        // Fail over: the engine becomes writable on a new term.
        let out = e.execute_line("PROMOTE").unwrap();
        assert!(out.contains("term 2"), "got: {out}");
        assert!(e.replica().is_none());
        e.execute_line("INSERT teach(hilbert, logic)").unwrap();
        assert_eq!(
            e.execute_line("TRUTH teach(hilbert, logic)").unwrap(),
            "T\n"
        );
        // A second PROMOTE has nothing to promote.
        assert!(e.execute_line("PROMOTE").is_err());
    }

    #[test]
    fn replica_assumptions_are_revalidated_against_shipped_writes() {
        let (mut shipping, replica) = university_replica();
        shipping
            .primary
            .insert("teach", Value::atom("laplace"), Value::atom("stat"))
            .unwrap();
        let mut e = Engine::with_replica(replica);
        shipping.ship(e.replica_mut().unwrap());
        // teach's two rows are one-one while it is declared many-many.
        let out = e.execute_line("DISCOVER").unwrap();
        assert!(out.contains("fd teach: observed one-one"), "got: {out}");
        assert_eq!(e.nongenuine().len(), 2);
        // The primary gives euclid a second course; once the batch is
        // applied, the next statement finds the functional direction
        // broken in the store it serves.
        shipping
            .primary
            .insert("teach", Value::atom("euclid"), Value::atom("geom"))
            .unwrap();
        shipping.ship(e.replica_mut().unwrap());
        e.execute_line("SCHEMA").unwrap();
        assert_eq!(e.nongenuine().len(), 1);
        let out = e.execute_line("CHECK DATA").unwrap();
        assert!(out.contains("FDB053"), "got: {out}");
        assert!(out.contains("teach is functional"), "got: {out}");
    }

    #[test]
    fn attaching_a_replica_drops_answers_of_the_own_database() {
        // The engine's own database mirrors the primary's schema and
        // write counts, but euclid's pupil is bob, not john.
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             DECLARE class_list: course -> student (many-many)\n\
             DECLARE pupil: faculty -> student (many-many)\n\
             DERIVE pupil = teach o class_list\n\
             INSERT teach(euclid, math)\n\
             INSERT class_list(math, bob)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bob)").unwrap(), "T\n");
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), "euclid  bob\n");
        let (_shipping, replica) = university_replica();
        e.attach_replica(replica);
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bob)").unwrap(), "F\n");
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), "euclid  john\n");
        e.detach_replica().unwrap();
        assert_eq!(e.execute_line("TRUTH pupil(euclid, bob)").unwrap(), "T\n");
        assert_eq!(e.execute_line("SHOW pupil").unwrap(), "euclid  bob\n");
    }

    /// One engine per way a history starts on a database the session did
    /// not type in: the university of [`university_replica`]. The last
    /// one serves an attached replica and refuses writes.
    fn engines_on_the_university() -> Vec<(&'static str, Engine)> {
        let (_, replica) = university_replica();
        let stored = replica.database().clone();
        // Tests call this concurrently: one snapshot file per caller.
        let caller = format!("{}_{:?}", std::process::id(), std::thread::current().id());
        let path = std::env::temp_dir().join(format!("fdb_seeded_{caller}.snap"));
        std::fs::write(&path, stored.to_snapshot().unwrap()).unwrap();
        let mut loaded = Engine::new();
        // Lines before the LOAD belong to a history that is over.
        loaded
            .execute_line("DECLARE gone: a -> b (one-one)")
            .unwrap();
        loaded
            .execute_line(&format!("LOAD \"{}\"", path.display()))
            .unwrap();
        std::fs::remove_file(&path).ok();
        let mut promoted = Engine::with_replica(replica);
        promoted.execute_line("PROMOTE").unwrap();
        let mut attached = Engine::new();
        attached.attach_replica(university_replica().1);
        vec![
            ("with_database", Engine::with_database(stored)),
            ("LOAD", loaded),
            ("PROMOTE", promoted),
            ("attach_replica", attached),
        ]
    }

    fn codes(e: &Engine) -> Vec<fdb_check::Code> {
        e.analyze().iter().map(|d| d.code).collect()
    }

    #[test]
    fn check_knows_the_functions_the_database_holds() {
        for (how, mut e) in engines_on_the_university() {
            if e.replica().is_none() {
                e.execute_line("INSERT teach(gauss, algebra)").unwrap();
            }
            assert_eq!(e.execute_line("TRUTH pupil(euclid, john)").unwrap(), "T\n");
            assert!(
                !codes(&e).contains(&fdb_check::Code::UndefinedFunction),
                "{how}: {:?}",
                e.analyze()
            );
            let check = e.execute_line("CHECK").unwrap();
            assert!(check.starts_with("consistent\n"), "{how}: {check}");
            assert!(!check.contains("FDB001"), "{how}: {check}");
            // A line the engine refused is not in the history.
            e.execute_line("TRUTH ghost(a, b)").unwrap_err();
            assert!(!codes(&e).contains(&fdb_check::Code::UndefinedFunction));
        }
    }

    #[test]
    fn strict_preflight_knows_the_functions_the_database_holds() {
        let tmp = std::env::temp_dir().join(format!("fdb_strict_seeded_{}", std::process::id()));
        let (ok, bad) = (tmp.with_extension("ok.fdb"), tmp.with_extension("bad.fdb"));
        std::fs::write(&ok, "TRUTH teach(euclid, math)\nQUERY pupil(euclid)\n").unwrap();
        std::fs::write(&bad, "TRUTH teach(euclid, math)\nQUERY ghost(euclid)\n").unwrap();
        for (how, mut e) in engines_on_the_university() {
            e.execute_line("STRICT ON").unwrap();
            let out = e
                .execute_line(&format!("SOURCE \"{}\"", ok.display()))
                .unwrap_or_else(|err| panic!("{how}: a valid script was refused: {err}"));
            assert_eq!(out, "T\npupil(euclid) = {john}\n", "{how}");
            let err = e
                .execute_line(&format!("SOURCE \"{}\"", bad.display()))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("rejected by pre-flight analysis"),
                "{how}: {err}"
            );
            assert!(
                err.contains("FDB001 error 2:7: unknown function `ghost`"),
                "{how}: {err}"
            );
        }
        std::fs::remove_file(&ok).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn derive_of_a_stored_function_is_judged_by_what_it_holds() {
        let mut e = university_with_advises();
        e.execute_line("DECLARE mentor: faculty -> student (many-many)")
            .unwrap();
        let mut e = Engine::with_database(e.into_database());
        // Empty where the history starts: derivable, and CHECK agrees.
        e.execute_line("DERIVE mentor = teach o class_list")
            .unwrap();
        assert!(!codes(&e).contains(&fdb_check::Code::ShadowsFacts));
        // Non-empty: the engine refuses it, so it is never recorded...
        e.execute_line("DERIVE advises = teach o class_list")
            .unwrap_err();
        assert!(!codes(&e).contains(&fdb_check::Code::ShadowsFacts));
        // ...and the pre-flight refuses a script that would try.
        let path = std::env::temp_dir().join(format!("fdb_shadow_{}.fdb", std::process::id()));
        std::fs::write(&path, "DERIVE advises = teach o class_list\n").unwrap();
        e.execute_line("STRICT ON").unwrap();
        let err = e
            .execute_line(&format!("SOURCE \"{}\"", path.display()))
            .unwrap_err()
            .to_string();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("FDB008 error 1:8"), "{err}");
    }

    #[test]
    fn a_read_inside_a_rolled_back_transaction_still_happened() {
        let mut e = Engine::new();
        let lines = "DECLARE teach: faculty -> course (many-many)\n\
                     INSERT teach(gauss, algebra)\n\
                     BEGIN\n\
                     TRUTH teach(gauss, algebra)\n\
                     ABORT\n\
                     DELETE teach(gauss, algebra)";
        run(&mut e, lines).into_iter().for_each(|r| {
            r.unwrap();
        });
        // What fdb-lint says of the same lines: no dead write.
        let (stmts, _) = crate::lower_script(lines);
        let lint = fdb_check::analyze_script(&stmts, &CheckConfig::default());
        assert_eq!(e.analyze(), lint);
        assert!(!codes(&e).contains(&fdb_check::Code::DeadWrite));
    }

    #[test]
    fn a_declare_can_close_a_cycle_with_a_stored_function() {
        for (how, mut e) in engines_on_the_university() {
            if e.replica().is_some() {
                continue;
            }
            e.execute_line("DECLARE advises: faculty -> student (many-many)")
                .unwrap();
            let check = e.execute_line("CHECK").unwrap();
            let line = e.line - 1;
            assert!(
                check.contains(&format!(
                    "FDB031 info {line}:9: `advises` closes a cycle in the function graph \
                     (faculty and student were already connected)"
                )),
                "{how}: {check}"
            );
        }
    }

    #[test]
    fn check_on_a_replica_reads_the_catalog_as_it_is_now() {
        let (mut shipping, replica) = university_replica();
        let mut e = Engine::new();
        e.attach_replica(replica);
        // `office` arrives in a batch shipped after the attach.
        let p = &mut shipping.primary;
        p.declare("office", "faculty", "room", "many-one".parse().unwrap())
            .unwrap();
        p.insert("office", Value::atom("euclid"), Value::atom("e101"))
            .unwrap();
        shipping.ship(e.replica_mut().unwrap());
        assert_eq!(e.execute_line("TRUTH office(euclid, e101)").unwrap(), "T\n");
        let check = e.execute_line("CHECK").unwrap();
        assert!(!check.contains("FDB001"), "{check}");
    }

    #[test]
    fn a_governed_stop_is_recorded_as_the_rollback_it_ran() {
        let mut e = Engine::new();
        run(
            &mut e,
            "DECLARE teach: faculty -> course (many-many)\n\
             BEGIN\n\
             SAVEPOINT \"half way\"\n\
             INSERT teach(gauss, algebra)",
        )
        .into_iter()
        .for_each(|r| {
            r.unwrap();
        });
        e.set_statement_deadline(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(5));
        e.execute_line("INSERT teach(noether, rings)").unwrap_err();
        e.set_statement_deadline(None);
        e.execute_line("COMMIT").unwrap();
        // The insert the stop rolled back is not in the database, so a
        // delete of it is no dead write; the statement numbering holds.
        e.execute_line("DELETE teach(gauss, algebra)").unwrap();
        assert_eq!(
            e.history.transcript.lines().nth(4),
            Some("ROLLBACK TO \"half way\"")
        );
        assert_eq!(e.history.transcript.lines().count(), 7);
        assert_eq!(codes(&e), []);
    }

    #[test]
    fn a_line_break_inside_a_line_leaves_its_slot_empty() {
        let mut e = Engine::new();
        // At the end of the line (a host that reads with `read_line`) it
        // is white space like any other.
        e.execute_line("DECLARE teach: faculty -> course (many-many)\r\n")
            .unwrap();
        e.execute_line("INSERT teach(gauss,\n algebra)").unwrap();
        e.execute_line("DELETE teach(gauss, algebra)").unwrap();
        assert_eq!(
            e.history.transcript,
            "DECLARE teach: faculty -> course (many-many)\n\nDELETE teach(gauss, algebra)\n"
        );
    }

    #[test]
    fn statements_without_text_leave_nothing_in_the_history() {
        let mut e = Engine::new();
        e.execute_line("DECLARE teach: faculty -> course (many-many)")
            .unwrap();
        let insert = crate::parse_statement("INSERT teach(gauss, algebra)", 2).unwrap();
        e.execute(insert).unwrap();
        assert_eq!(
            e.execute_line("TRUTH teach(gauss, algebra)").unwrap(),
            "T\n"
        );
        e.execute_line("DELETE teach(gauss, algebra)").unwrap();
        assert_eq!(e.history.transcript.lines().count(), 3);
        // CHECK never saw the insert: to it the read found nothing and
        // the delete removes nothing, so there is no dead write either.
        assert_eq!(codes(&e), []);
        // A LOAD that arrives as a statement still starts the history
        // over, at the next line.
        let path = std::env::temp_dir().join(format!("fdb_textless_{}.snap", std::process::id()));
        std::fs::write(&path, e.snapshot().to_snapshot().unwrap()).unwrap();
        let load = crate::parse_statement(&format!("LOAD \"{}\"", path.display()), 9).unwrap();
        e.execute(load).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(e.history.first_line, 4);
        assert!(e.history.transcript.is_empty());
    }

    #[test]
    fn replica_status_without_replica_and_parse() {
        let mut e = Engine::new();
        assert_eq!(
            e.execute_line("REPLICA STATUS").unwrap(),
            "not a replica (no replication attached)\n"
        );
        assert!(e.execute_line("REPLICA").is_err());
        assert!(e.execute_line("REPLICA BOGUS").is_err());
    }
}
