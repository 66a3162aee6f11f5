//! The [`Database`]: schema + derivations + extensional store.

use std::collections::BTreeMap;
use std::sync::Arc;

use fdb_graph::{minimal_schema, DesignOutcome};
use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, Store};
use fdb_types::{check_registration, Derivation, FdbError, FunctionId, Refusal, Result, Schema};

/// Which derivation realises a derived insert when several are
/// registered (cyclic function graphs give derived functions multiple
/// derivations; one witness chain suffices to make the fact true).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InsertPolicy {
    /// Use the first registered derivation (declaration order) — the
    /// paper's implicit choice, since it assumes one derivation.
    #[default]
    FirstDerivation,
    /// Use a shortest registered derivation, minimising the null values
    /// the NVC introduces.
    ShortestDerivation,
}

/// A functional database instance: a conceptual [`Schema`], the
/// registered derivations of its derived functions, and the extensional
/// [`Store`] holding the base tables with their partial-information
/// bookkeeping.
///
/// Base functions are exactly the schema functions with no registered
/// derivation; derived functions "do not exist in the database" (§3.2) —
/// their tables stay empty and every read is computed through chains.
///
/// ```
/// use fdb_core::Database;
/// use fdb_storage::Truth;
/// use fdb_types::{schema_s1, Value};
///
/// // Build from Table 1 via Algorithm AMS (valid under the UFA).
/// let mut db = Database::from_ams(schema_s1())?;
/// let score = db.resolve("score")?;
/// let cutoff = db.resolve("cutoff")?;
/// let grade = db.resolve("grade")?; // derived: score o cutoff
///
/// db.insert(score, Value::atom("[ann; db]"), Value::atom("91"))?;
/// db.insert(cutoff, Value::atom("91"), Value::atom("A"))?;
/// assert_eq!(
///     db.truth(grade, &Value::atom("[ann; db]"), &Value::atom("A"))?,
///     Truth::True
/// );
/// # Ok::<(), fdb_types::FdbError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Database {
    /// Shared by every clone — a publication, a savepoint — until a
    /// `DECLARE` or `DERIVE` copies it.
    catalog: Arc<Catalog>,
    store: Store,
    /// Cap applied to chain enumeration in queries and derived updates.
    chain_limits: ChainLimits,
    /// Ambiguous-chain knob for derived deletes (default: the paper's
    /// faithful semantics).
    delete_policy: DeletePolicy,
    /// Derivation choice for derived inserts.
    insert_policy: InsertPolicy,
    /// Open-transaction bookkeeping: the catalog per savepoint (the
    /// store's row data is covered by its undo journal). Never serialized
    /// — open transactions do not survive snapshots.
    txn: Option<TxnState>,
}

/// The schema and the derived-function registry.
#[derive(Clone, Debug)]
struct Catalog {
    schema: Schema,
    derived: BTreeMap<FunctionId, Vec<Derivation>>,
}

/// The state taken at `BEGIN` and at every savepoint: the store itself is
/// not cloned (its undo journal covers row data), only the catalog
/// pointer plus the journal mark to roll the store back to.
#[derive(Clone, Debug)]
struct TxnMeta {
    catalog: Arc<Catalog>,
    mark: usize,
}

/// The open transaction: the `BEGIN` snapshot plus named savepoints in
/// creation order.
#[derive(Clone, Debug)]
struct TxnState {
    base: TxnMeta,
    savepoints: Vec<(String, TxnMeta)>,
}

/// A database lends itself: lets code be generic over "anything with a
/// [`Database`] inside" ([`crate::Shared`]).
impl AsRef<Database> for Database {
    fn as_ref(&self) -> &Database {
        self
    }
}

impl Database {
    /// A database over `schema` with every function base.
    pub fn new(schema: Schema) -> Self {
        Database {
            store: Store::new(schema.len()),
            catalog: Arc::new(Catalog {
                schema,
                derived: BTreeMap::new(),
            }),
            chain_limits: ChainLimits::default(),
            delete_policy: DeletePolicy::default(),
            insert_policy: InsertPolicy::default(),
            txn: None,
        }
    }

    /// Reassembles a database from its snapshot parts (both snapshot
    /// readers); no transaction is open. The catalog must be one the
    /// statement path could have built over this store: a table per
    /// function, and every registration meeting the rules of
    /// [`Database::register_derived`]. A part that does not is a parse
    /// error of the schema section.
    pub(crate) fn from_parts(
        schema: Schema,
        derived: BTreeMap<FunctionId, Vec<Derivation>>,
        store: Store,
        chain_limits: ChainLimits,
        delete_policy: DeletePolicy,
        insert_policy: InsertPolicy,
    ) -> Result<Self> {
        let admitted = if store.table_count() != schema.len() {
            Err(format!(
                "{} functions but {} tables",
                schema.len(),
                store.table_count()
            ))
        } else {
            derived
                .iter()
                .try_for_each(|(&f, ders)| admit(&schema, &derived, &store, f, ders))
                .map_err(|e| e.to_string())
        };
        admitted.map_err(|why| FdbError::Parse {
            line: 0,
            message: format!("schema section: {why}"),
        })?;
        Ok(Database {
            catalog: Arc::new(Catalog { schema, derived }),
            store,
            chain_limits,
            delete_policy,
            insert_policy,
            txn: None,
        })
    }

    /// The catalog, detached from every clone sharing it: only `DECLARE`
    /// and `DERIVE` take this.
    fn catalog_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.catalog)
    }

    /// Builds a database from a finished design session: the outcome's
    /// confirmed derivations become the derived-function registry.
    pub fn from_design(schema: Schema, outcome: &DesignOutcome) -> Result<Self> {
        let mut db = Database::new(schema);
        for (f, ders) in &outcome.derived {
            db.register_derived(*f, ders.clone())?;
        }
        Ok(db)
    }

    /// Builds a database by running Algorithm AMS on the schema (valid
    /// under the Unique Form Assumption).
    pub fn from_ams(schema: Schema) -> Result<Self> {
        let outcome = minimal_schema(&schema);
        let mut db = Database::new(schema);
        for d in &outcome.derived {
            db.register_derived(d.function, d.derivations.clone())?;
        }
        Ok(db)
    }

    /// Declares a new function on a live database (the language front end
    /// lets users grow the schema incrementally). The function starts out
    /// base; use [`Database::register_derived`] to make it derived.
    pub fn declare_function(
        &mut self,
        name: &str,
        domain: &str,
        range: &str,
        functionality: fdb_types::Functionality,
    ) -> Result<FunctionId> {
        let id = self
            .catalog_mut()
            .schema
            .declare(name, domain, range, functionality)?;
        self.store.ensure_table(id);
        Ok(id)
    }

    /// Registers `f` as derived with the given derivations.
    ///
    /// Every derivation must be well-formed for `f` (endpoints and
    /// functionality must match) and mention only base functions; `f`
    /// must hold no data, and no registered derivation may use it.
    pub fn register_derived(&mut self, f: FunctionId, derivations: Vec<Derivation>) -> Result<()> {
        let Catalog { schema, derived } = &*self.catalog;
        admit(schema, derived, &self.store, f, &derivations)?;
        self.catalog_mut().derived.insert(f, derivations);
        Ok(())
    }

    /// Appends one derivation to `f`'s registry (registering `f` as
    /// derived if it was base), with the same validation as
    /// [`Database::register_derived`]; a derivation `f` already has is
    /// not appended again. The language front end's repeated
    /// `DERIVE f = …` statements accumulate through this.
    pub fn add_derivation(&mut self, f: FunctionId, derivation: Derivation) -> Result<()> {
        if self.derivations(f).contains(&derivation) {
            return Ok(());
        }
        let mut all = self.derivations(f).to_vec();
        all.push(derivation);
        self.register_derived(f, all)
    }

    /// `true` if `f` is a derived function.
    pub fn is_derived(&self, f: FunctionId) -> bool {
        self.catalog.derived.contains_key(&f)
    }

    /// The derivations of `f` (empty slice if base).
    pub fn derivations(&self, f: FunctionId) -> &[Derivation] {
        self.catalog
            .derived
            .get(&f)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The whole derived-function registry (what a snapshot serialises).
    pub(crate) fn derived_registry(&self) -> &BTreeMap<FunctionId, Vec<Derivation>> {
        &self.catalog.derived
    }

    /// The base functions, in declaration order.
    pub fn base_functions(&self) -> Vec<FunctionId> {
        self.catalog
            .schema
            .functions()
            .iter()
            .map(|d| d.id)
            .filter(|f| !self.is_derived(*f))
            .collect()
    }

    /// The derived functions, in declaration order.
    pub fn derived_functions(&self) -> Vec<FunctionId> {
        self.catalog
            .schema
            .functions()
            .iter()
            .map(|d| d.id)
            .filter(|f| self.is_derived(*f))
            .collect()
    }

    /// The conceptual schema.
    pub fn schema(&self) -> &Schema {
        &self.catalog.schema
    }

    /// Read access to the extensional store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the store — used by the update and resolution
    /// modules in this crate; external callers should go through
    /// [`crate::Update`].
    pub(crate) fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// The chain-enumeration cap used by queries and derived updates.
    pub fn chain_limits(&self) -> ChainLimits {
        self.chain_limits
    }

    /// Overrides the chain-enumeration cap.
    pub fn set_chain_limits(&mut self, limits: ChainLimits) {
        self.chain_limits = limits;
    }

    /// The delete policy for derived deletes.
    pub fn delete_policy(&self) -> DeletePolicy {
        self.delete_policy
    }

    /// Overrides the delete policy (ablation knob; the default is the
    /// paper's faithful semantics).
    pub fn set_delete_policy(&mut self, policy: DeletePolicy) {
        self.delete_policy = policy;
    }

    /// The insert policy for derived inserts.
    pub fn insert_policy(&self) -> InsertPolicy {
        self.insert_policy
    }

    /// Overrides the insert policy.
    pub fn set_insert_policy(&mut self, policy: InsertPolicy) {
        self.insert_policy = policy;
    }

    // ----- transactions ------------------------------------------------

    fn txn_meta(&self) -> TxnMeta {
        TxnMeta {
            catalog: Arc::clone(&self.catalog),
            mark: self.store.undo_mark(),
        }
    }

    /// Restores the catalog of `meta` (its name indexes came with it) and
    /// rolls the store's undo journal back to its mark. Tables created by
    /// `DECLARE`s inside the rolled-back scope are dropped (the journal
    /// already emptied them).
    fn txn_restore(&mut self, meta: TxnMeta) {
        self.catalog = meta.catalog;
        self.store.undo_rollback_to(meta.mark);
        self.store.truncate_tables(self.catalog.schema.len());
    }

    /// Opens a transaction: subsequent updates are journaled and can be
    /// rolled back atomically by [`Database::txn_rollback`]. Errors if a
    /// transaction is already open (transactions do not nest; use
    /// [`Database::txn_savepoint`] for partial rollback scopes).
    pub fn txn_begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(FdbError::TxnControl(
                "BEGIN inside an open transaction (use SAVEPOINT for nested scopes)".into(),
            ));
        }
        self.store.undo_begin();
        self.txn = Some(TxnState {
            base: self.txn_meta(),
            savepoints: Vec::new(),
        });
        fdb_obs::registry().txn_begins.inc();
        fdb_obs::causal::point("fdb.txn.begin", String::new);
        Ok(())
    }

    /// `true` while a transaction is open.
    pub fn txn_active(&self) -> bool {
        self.txn.is_some()
    }

    /// Name of the most recently set savepoint, if any.
    pub fn txn_last_savepoint(&self) -> Option<&str> {
        self.txn
            .as_ref()
            .and_then(|t| t.savepoints.last())
            .map(|(name, _)| name.as_str())
    }

    /// Sets (or replaces) the named savepoint at the current transaction
    /// position.
    pub fn txn_savepoint(&mut self, name: &str) -> Result<()> {
        let meta = self.txn_meta();
        let Some(t) = self.txn.as_mut() else {
            return Err(FdbError::TxnControl(
                "SAVEPOINT without an open BEGIN".into(),
            ));
        };
        t.savepoints.retain(|(n, _)| n != name);
        t.savepoints.push((name.to_string(), meta));
        Ok(())
    }

    /// Rolls back to the named savepoint, keeping the transaction (and the
    /// savepoint itself, for repeated rollbacks) open. Savepoints set
    /// after the named one are discarded.
    pub fn txn_rollback_to(&mut self, name: &str) -> Result<()> {
        let meta = {
            let Some(t) = self.txn.as_mut() else {
                return Err(FdbError::TxnControl(
                    "ROLLBACK TO without an open BEGIN".into(),
                ));
            };
            let Some(pos) = t.savepoints.iter().rposition(|(n, _)| n == name) else {
                return Err(FdbError::TxnControl(format!("unknown savepoint {name:?}")));
            };
            t.savepoints.truncate(pos + 1);
            t.savepoints[pos].1.clone()
        };
        self.txn_restore(meta);
        fdb_obs::registry().txn_savepoint_rollbacks.inc();
        fdb_obs::causal::point("fdb.txn.rollback_to", || name.to_string());
        Ok(())
    }

    /// Rolls the whole transaction back and closes it: the database is
    /// left byte-identical (snapshot-wise) to its state before `BEGIN`,
    /// while the store's version counters advance so every derived cache
    /// observes the rollback as a fresh version event.
    pub fn txn_rollback(&mut self) -> Result<()> {
        let Some(t) = self.txn.take() else {
            return Err(FdbError::TxnControl(
                "ROLLBACK without an open BEGIN".into(),
            ));
        };
        fdb_obs::registry()
            .txn_undo_log_bytes
            .add(self.store.undo_bytes() as u64);
        self.catalog = t.base.catalog;
        self.store.undo_abort();
        self.store.truncate_tables(self.catalog.schema.len());
        fdb_obs::registry().txn_rollbacks.inc();
        fdb_obs::causal::point("fdb.txn.rollback", String::new);
        Ok(())
    }

    /// Commits the open transaction: drops the undo journal and makes the
    /// transaction's effects permanent (in-memory; durability is layered
    /// on top by `LoggedDatabase`).
    pub fn txn_commit(&mut self) -> Result<()> {
        if self.txn.take().is_none() {
            return Err(FdbError::TxnControl("COMMIT without an open BEGIN".into()));
        }
        fdb_obs::registry()
            .txn_undo_log_bytes
            .add(self.store.undo_bytes() as u64);
        self.store.undo_commit();
        fdb_obs::registry().txn_commits.inc();
        fdb_obs::causal::point("fdb.txn.commit", String::new);
        Ok(())
    }

    /// Resolves a function by name.
    pub fn resolve(&self, name: &str) -> Result<FunctionId> {
        self.catalog.schema.resolve(name)
    }

    /// Compacts every base table, dropping delete tombstones and
    /// rebuilding indexes. Logical state is unchanged; long-running
    /// instances with churn call this periodically. A no-op while a
    /// transaction is open: compaction would invalidate the row indices
    /// the undo journal records (the store re-checks its automatic
    /// compaction policy at commit).
    pub fn compact(&mut self) -> usize {
        if self.txn_active() {
            return 0;
        }
        let mut dropped = 0;
        for f in self.base_functions() {
            let table = self.store.table_mut(f);
            dropped += table.tombstones();
            table.compact();
        }
        dropped
    }
}

/// Admits the registration `f = derivations` into the catalog and store
/// it joins by the catalog's rules ([`check_registration`]), each
/// refusal in the words `DERIVE` answers with: [`Database::register_derived`]
/// admits a new registration, [`Database::from_parts`] every registration
/// a snapshot lists, so a snapshot loads no catalog the statement path
/// refuses.
fn admit(
    schema: &Schema,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
    store: &Store,
    f: FunctionId,
    derivations: &[Derivation],
) -> Result<()> {
    if f.index() >= schema.len() {
        return Err(FdbError::UnknownFunction(f.to_string()));
    }
    let holds_data = !store.table(f).is_empty();
    let Err(refusal) = check_registration(schema, derived, f, derivations, holds_data) else {
        return Ok(());
    };
    let name = |g: FunctionId| &schema.function(g).name;
    let target = name(f);
    let step = |d: usize, i: usize| derivations[d].steps()[i].function;
    let rendered = |d: usize| derivations[d].render(schema);
    let why = match refusal {
        // The chain rule, in the words of `Derivation::endpoints`.
        Refusal::BrokenChain { derivation, .. } => {
            return derivations[derivation].endpoints(schema).map(|_| ())
        }
        Refusal::NoSteps => "a derivation must have at least one step".to_owned(),
        Refusal::UnknownStep { derivation, step: i } => format!(
            "derivation of {target} names no function {}",
            step(derivation, i)
        ),
        Refusal::WrongEndpoints { derivation, .. } => format!(
            "derivation {} of {target} has wrong endpoints",
            rendered(derivation)
        ),
        Refusal::WrongFunctionality {
            derivation,
            composed,
            declared,
        } => format!(
            "derivation {} of {target} has functionality {composed} but {target} is declared {declared}",
            rendered(derivation)
        ),
        Refusal::SelfMention { .. } => format!("derivation of {target} mentions itself"),
        Refusal::DerivedStep { derivation, step: i } => format!(
            "derivation of {target} uses derived function {}",
            name(step(derivation, i))
        ),
        Refusal::UsedBy { user } => format!(
            "cannot mark {target} derived: the derivation of {} uses it",
            name(user)
        ),
        Refusal::HoldsFacts => format!("cannot mark {target} derived: its table is non-empty"),
    };
    Err(FdbError::MalformedDerivation(why))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{schema_s1, Step};

    #[test]
    fn from_ams_registers_paper_derivations() {
        let db = Database::from_ams(schema_s1()).unwrap();
        let grade = db.resolve("grade").unwrap();
        let teach = db.resolve("teach").unwrap();
        assert!(db.is_derived(grade));
        assert!(db.is_derived(teach));
        assert_eq!(db.base_functions().len(), 3);
        assert_eq!(
            db.derivations(grade)[0].render(db.schema()),
            "score o cutoff"
        );
    }

    #[test]
    fn register_derived_validates_endpoints() {
        let mut db = Database::new(schema_s1());
        let grade = db.resolve("grade").unwrap();
        let teach = db.resolve("teach").unwrap();
        // teach: faculty → course is no derivation of grade.
        let bad = Derivation::single(Step::identity(teach));
        assert!(matches!(
            db.register_derived(grade, vec![bad]),
            Err(FdbError::MalformedDerivation(_))
        ));
    }

    #[test]
    fn register_derived_validates_functionality() {
        let mut db = Database::new(schema_s1());
        let grade = db.resolve("grade").unwrap();
        let score = db.resolve("score").unwrap();
        // score alone ends at marks, not letter_grade → endpoint error
        // (functionality errors need matching endpoints; covered by the
        // self-mention and derived-step cases below).
        let bad = Derivation::single(Step::identity(score));
        assert!(db.register_derived(grade, vec![bad]).is_err());
    }

    #[test]
    fn register_derived_rejects_self_mention() {
        let mut db = Database::new(schema_s1());
        let grade = db.resolve("grade").unwrap();
        let d = Derivation::single(Step::identity(grade));
        assert!(matches!(
            db.register_derived(grade, vec![d]),
            Err(FdbError::MalformedDerivation(_))
        ));
    }

    #[test]
    fn register_derived_rejects_derived_steps() {
        let mut db = Database::from_ams(schema_s1()).unwrap();
        let taught_by = db.resolve("taught_by").unwrap();
        let teach = db.resolve("teach").unwrap(); // derived under AMS
        let d = Derivation::single(Step::inverse(teach));
        assert!(matches!(
            db.register_derived(taught_by, vec![d]),
            Err(FdbError::MalformedDerivation(_))
        ));
    }

    /// The other order: a function a registered derivation steps through
    /// stays base, or that derivation would step through a derived one.
    #[test]
    fn register_derived_rejects_a_function_a_derivation_uses() {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .function("lectures", "faculty", "course", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let [teach, class_list, pupil, lectures] =
            ["teach", "class_list", "pupil", "lectures"].map(|f| db.resolve(f).unwrap());
        let chain = vec![Step::identity(teach), Step::identity(class_list)];
        db.register_derived(pupil, vec![Derivation::new(chain).unwrap()])
            .unwrap();
        let err = db
            .register_derived(teach, vec![Derivation::single(Step::identity(lectures))])
            .unwrap_err();
        assert_eq!(
            err,
            FdbError::MalformedDerivation(
                "cannot mark teach derived: the derivation of pupil uses it".into()
            )
        );
        assert!(!db.is_derived(teach));
    }

    #[test]
    fn compact_preserves_logical_state() {
        let mut db = Database::new(schema_s1());
        let score = db.resolve("score").unwrap();
        for i in 0..10 {
            db.insert(
                score,
                fdb_types::Value::atom(format!("s{i}")),
                fdb_types::Value::atom(format!("m{i}")),
            )
            .unwrap();
        }
        for i in 0..5 {
            db.delete(
                score,
                &fdb_types::Value::atom(format!("s{i}")),
                &fdb_types::Value::atom(format!("m{i}")),
            )
            .unwrap();
        }
        let before = db.extension(score).unwrap();
        let dropped = db.compact();
        assert_eq!(dropped, 5);
        assert_eq!(db.extension(score).unwrap(), before);
        assert_eq!(db.compact(), 0);
        assert!(db.is_consistent());
    }

    #[test]
    fn base_derived_partition() {
        let db = Database::from_ams(schema_s1()).unwrap();
        let base = db.base_functions();
        let derived = db.derived_functions();
        assert_eq!(base.len() + derived.len(), db.schema().len());
        for f in base {
            assert!(!db.is_derived(f));
            assert!(db.derivations(f).is_empty());
        }
    }
}
