//! The fact store: per-function tables + NC store + null generator.
//!
//! Implements the base-level procedures of §4.1 (`base-insert`,
//! `base-delete`, `create-NC`, `dismantle-NC`). The derived-level
//! procedures (`derived-insert` / `derived-delete` and their NVC helpers)
//! live in [`crate::nvc`] and [`crate::chain`] because they need a
//! derivation; the full update dispatch is assembled in `fdb-core`.
//!
//! The store is copy-on-write at three levels: the table vector holds one
//! `Arc` per function, each table is a spine of `Arc`'d row chunks,
//! alive-bitmap blocks and index maps (see [`crate::table`]), and the NC
//! store sits behind an `Arc`. A write after a snapshot copies the touched
//! table's spine and the few pieces the write changes —
//! `fdb.storage.cow_copies` counts each piece copied — and every
//! untouched table stays shared.
//!
//! A store is built empty ([`Store::new`]) or from a snapshot's pieces
//! ([`Store::from_parts`], over [`Table::from_rows`] and
//! [`NcStore::from_parts`]: both snapshot readers restore through them).
//! A delete compacts its table once it holds at least 64 tombstones and
//! more than half as many as live rows; the thresholds are constants.

use std::sync::Arc;

use fdb_types::codec::{put_uint, Reader};
use fdb_types::{FdbError, FunctionId, NullGen, Result, Value};

use crate::fact::Fact;
use crate::nc::{Coverage, NcId, NcStore, RowRef};
use crate::table::{detach, Table, Unshared};
use crate::truth::Truth;
use crate::undo::{UndoJournal, UndoOp};

/// Tombstones a table holds before [`Store::base_delete`] compacts it
/// (small tables, the paper's traces among them, stay byte-stable) …
const COMPACT_MIN_TOMBSTONES: usize = 64;
/// … and their least share of the live rows. Compaction is a logical
/// no-op (NC conjuncts key by value), so it bumps no version counter.
const COMPACT_FRACTION: f64 = 0.5;

/// The extensional state of a functional database instance.
///
/// Tables and the NC store sit behind [`Arc`]s so cloning a store is
/// O(#functions) pointer bumps, not O(#facts) — a clone is the MVCC
/// snapshot (see [`crate::snapshot`]). A table is itself a spine of
/// `Arc`'d row chunks, bitmap blocks and index maps ([`crate::table`]):
/// the first write to it after a snapshot was taken copies the spine and
/// the pieces it changes; a table that was not written stays one shared
/// pointer. A write that changes nothing — a re-insert of a true fact, a
/// dismantle whose conjunct row is gone — detaches nothing.
#[derive(Clone, Debug, Default)]
pub struct Store {
    tables: Vec<Arc<Table>>,
    ncs: Arc<NcStore>,
    nulls: NullGen,
    /// Monotone mutation counter: bumped by every state-changing
    /// operation — including a transaction rollback, which restores the
    /// logical state but is itself a mutation event — so caches
    /// (materialised extensions, see `fdb-core`) can detect staleness
    /// cheaply. Deliberately *not* serialized: snapshots compare logical
    /// state, and counters must stay monotone across a rollback that
    /// makes the logical state byte-identical to an earlier one (a
    /// restored counter could alias a future counter value and let a
    /// cache serve uncommitted data).
    version: u64,
    /// Per-function mutation counters: `fn_versions[f]` is bumped whenever
    /// the *observable extension* of `f` may have changed — a row
    /// inserted, deleted or rewritten, or an NC over one of `f`'s rows
    /// created or dismantled, or a rollback undoing any of those. Derived-
    /// result caches compare only the counters of a derivation's support
    /// set, so writes to unrelated functions do not invalidate them.
    /// Not serialized, for the same monotonicity reason as `version`.
    fn_versions: Vec<u64>,
    /// Undo journal of the open transaction, if one is active. Never
    /// serialized: open transactions do not survive snapshots (the
    /// durability layer defers checkpoints while one is open) — crash
    /// atomicity comes from the WAL's transaction frames instead.
    journal: Option<UndoJournal>,
}

impl Store {
    /// Creates an empty store with `n_functions` (initially empty) tables.
    pub fn new(n_functions: usize) -> Self {
        Store {
            tables: (0..n_functions).map(|_| Arc::new(Table::new())).collect(),
            ncs: Arc::new(NcStore::new()),
            nulls: NullGen::new(),
            version: 0,
            fn_versions: Vec::new(),
            journal: None,
        }
    }

    /// A store of `tables`, `ncs` and the null watermark — what a snapshot
    /// holds, as both snapshot readers restore it. An NC and the NCLs that
    /// do not point at each other ([`Store::check_duality`]) are refused:
    /// NC coverage counts NCL entries, and would answer wrongly.
    pub fn from_parts(tables: Vec<Table>, ncs: NcStore, watermark: u64) -> Result<Store> {
        let store = Store {
            tables: tables.into_iter().map(Arc::new).collect(),
            ncs: Arc::new(ncs),
            nulls: NullGen::from_watermark(watermark),
            ..Store::default()
        };
        match store.check_duality() {
            None => Ok(store),
            Some(why) => Err(FdbError::Parse {
                line: 0,
                message: format!("NC/NCL duality: {why}"),
            }),
        }
    }

    /// Appends the store's binary snapshot form: every table, the NC
    /// store, the null watermark and two reserved fields (the compaction
    /// thresholds, which earlier versions let a store change); never the
    /// version counters or an open undo journal.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let rows: usize = self.tables.iter().map(|t| t.len() + t.tombstones()).sum();
        out.reserve(rows * 24);
        put_uint(out, self.tables.len() as u64);
        for table in &self.tables {
            table.encode(out);
        }
        self.ncs.encode(out);
        put_uint(out, self.nulls.watermark());
        out.extend_from_slice(&COMPACT_FRACTION.to_bits().to_le_bytes());
        put_uint(out, COMPACT_MIN_TOMBSTONES as u64);
    }

    /// Reads a store written by [`Store::encode`]; the reserved fields are
    /// read and ignored.
    pub fn decode(r: &mut Reader<'_>) -> Result<Store> {
        let len = r.count(1)?;
        let mut tables = Vec::with_capacity(len);
        for _ in 0..len {
            tables.push(Table::decode(r)?);
        }
        let ncs = NcStore::decode(r)?;
        let watermark = r.uint()?;
        r.take(8)?;
        r.uint()?;
        Store::from_parts(tables, ncs, watermark)
    }

    /// Grows the table vector so `f` has a table (used when functions are
    /// declared after the store was created).
    pub fn ensure_table(&mut self, f: FunctionId) {
        while self.tables.len() <= f.index() {
            self.tables.push(Arc::new(Table::new()));
        }
    }

    /// Copy-on-write access to the table at raw index `i`: clones the
    /// table's spine iff a snapshot still shares it (its mutators then
    /// detach the pieces they change).
    fn tab(&mut self, i: usize) -> &mut Table {
        Arc::make_mut(&mut self.tables[i])
    }

    /// Copy-on-write access to the NC store.
    fn ncs_cow(&mut self) -> &mut NcStore {
        detach(&mut self.ncs)
    }

    /// Number of allocated tables (declared functions may trail behind
    /// [`Store::ensure_table`] growth).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Drops trailing *empty* tables beyond `n`. Transaction rollback uses
    /// this to undo the table growth of `DECLARE`s made inside the rolled-
    /// back scope: the undo journal has already emptied such tables, so
    /// popping them restores the exact pre-transaction serialized layout.
    /// A trailing table still holding rows (live or tombstoned) stops the
    /// truncation — it predates the transaction.
    pub fn truncate_tables(&mut self, n: usize) {
        while self.tables.len() > n
            && self
                .tables
                .last()
                .is_some_and(|t| t.is_empty() && t.tombstones() == 0)
        {
            self.tables.pop();
        }
    }

    /// The table of `f`.
    ///
    /// # Panics
    /// Panics if `f` has no table; call [`Store::ensure_table`] first.
    pub fn table(&self, f: FunctionId) -> &Table {
        &self.tables[f.index()]
    }

    /// Mutable access to the table of `f` (copy-on-write: detaches the
    /// table's spine from any live snapshot before handing out the
    /// reference; its pieces detach as they are written).
    pub fn table_mut(&mut self, f: FunctionId) -> &mut Table {
        self.ensure_table(f);
        Arc::make_mut(&mut self.tables[f.index()])
    }

    /// The NC store.
    pub fn ncs(&self) -> &NcStore {
        &self.ncs
    }

    /// The live row holding `fact`, if it is stored.
    pub fn row_of(&self, fact: &Fact) -> Option<RowRef> {
        let table = self.tables.get(fact.function.index())?;
        Some((fact.function, table.position(&fact.x, &fact.y)?))
    }

    /// Whether some live NC covers the chain through `rows` (each row once
    /// per step that passed it), counted from those rows' NCLs: an NC
    /// covers it iff the NC is on the NCL of as many distinct rows as it
    /// has distinct conjuncts. Under the duality invariant that is
    /// [`NcStore::chain_covers_some_nc`] of the rows' facts, at the cost of
    /// their NCL entries, whatever the number of live NCs. Rows that are
    /// not live carry no NCL.
    pub fn nc_coverage(&self, rows: impl Iterator<Item = RowRef> + Clone) -> Coverage {
        self.ncs.cover(rows.filter_map(|(f, i)| {
            let row = self.tables.get(f.index())?.row(i)?;
            Some(((f, i), row.ncl))
        }))
    }

    /// The null generator.
    pub fn nulls(&self) -> &NullGen {
        &self.nulls
    }

    /// Draws a fresh null value.
    pub fn fresh_null(&mut self) -> Value {
        self.version += 1;
        if let Some(j) = self.journal.as_mut() {
            j.push(UndoOp::NullDrawn {
                watermark: self.nulls.watermark(),
            });
        }
        self.nulls.fresh()
    }

    /// Monotone mutation counter (see the field's documentation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-function mutation counter of `f` (0 if `f` was never touched).
    pub fn function_version(&self, f: FunctionId) -> u64 {
        self.fn_versions.get(f.index()).copied().unwrap_or(0)
    }

    fn bump_fn(&mut self, f: FunctionId) {
        if self.fn_versions.len() <= f.index() {
            self.fn_versions.resize(f.index() + 1, 0);
        }
        self.fn_versions[f.index()] += 1;
    }

    fn maybe_compact(&mut self, f: FunctionId) {
        // Compaction invalidates the row indices the undo journal records,
        // so it is suspended while a transaction is open and re-checked at
        // commit (a rollback restores the pre-transaction tombstone layout
        // exactly, so nothing is re-checked on abort).
        if let Some(j) = self.journal.as_mut() {
            j.deferred_compaction.insert(f.index() as u32);
            return;
        }
        let Some(table) = self.tables.get(f.index()) else {
            return;
        };
        let dead = table.tombstones();
        if dead >= COMPACT_MIN_TOMBSTONES && dead as f64 > COMPACT_FRACTION * table.len() as f64 {
            self.tab(f.index()).compact();
        }
    }

    /// Truth flag of a base fact: the row's flag if stored, otherwise
    /// [`Truth::False`] ("those not existing in the database are false").
    pub fn base_truth(&self, fact: &Fact) -> Truth {
        match self.tables.get(fact.function.index()) {
            Some(t) => t.truth_of(&fact.x, &fact.y),
            None => Truth::False,
        }
    }

    /// §4.1 `create-NC(Conj-list)`: registers the NC, flags every conjunct
    /// ambiguous and links it into the conjunct's NCL.
    ///
    /// Conjuncts must be stored facts (they come from chains of existing
    /// rows); unknown conjuncts are ignored defensively after a debug
    /// assertion.
    pub fn create_nc(&mut self, conjuncts: Vec<Fact>) -> NcId {
        // An NC without conjuncts would negate every chain, and no NCL
        // could say so.
        debug_assert!(!conjuncts.is_empty(), "create-NC of an empty conjunction");
        fdb_obs::registry().storage_ncs_created.inc();
        self.version += 1;
        let id = self.ncs_cow().create(conjuncts.clone());
        if let Some(j) = self.journal.as_mut() {
            j.push(UndoOp::NcCreated { id });
        }
        for fact in &conjuncts {
            self.bump_fn(fact.function);
            self.ensure_table(fact.function);
            let table = &self.tables[fact.function.index()];
            match table.position(&fact.x, &fact.y) {
                Some(i) => {
                    let undo = table.row(i).map(|r| (r.truth, !r.ncl.contains(&id)));
                    if let (Some(j), Some((prior, newly))) = (self.journal.as_mut(), undo) {
                        j.push(UndoOp::NcAttached {
                            f: fact.function,
                            index: i,
                            id,
                            prior,
                            newly,
                        });
                    }
                    self.tab(fact.function.index()).attach_nc(i, id);
                }
                None => debug_assert!(false, "create-NC on unstored fact {fact}"),
            }
        }
        id
    }

    /// §4.1 `dismantle-NC(d)`: unlinks every conjunct's NCL entry and
    /// removes the NC. Flags are *not* reset — the conjuncts stay
    /// ambiguous ("each element of NC(d) is ambiguous, while their
    /// conjunction is not false").
    pub fn dismantle_nc(&mut self, id: NcId) {
        fdb_obs::registry().storage_ncs_dismantled.inc();
        self.version += 1;
        // An NC that is not live has nothing to unlink — and journaling
        // its "dismantle" would make a rollback restore it, empty.
        if !self.ncs.contains(id) {
            return;
        }
        let conjuncts = self.ncs_cow().dismantle(id);
        if let Some(j) = self.journal.as_mut() {
            j.push(UndoOp::NcDismantled {
                id,
                conjuncts: conjuncts.clone(),
            });
        }
        for fact in conjuncts {
            self.bump_fn(fact.function);
            let fi = fact.function.index();
            let Some(i) = self.tables.get(fi).and_then(|t| {
                t.position(&fact.x, &fact.y)
                    .filter(|&i| t.row(i).is_some_and(|r| r.ncl.contains(&id)))
            }) else {
                continue;
            };
            self.tab(fi).detach_nc(i, id);
            if let Some(j) = self.journal.as_mut() {
                j.push(UndoOp::NcDetached {
                    f: fact.function,
                    index: i,
                    id,
                });
            }
        }
    }

    /// §4.1 `base-insert(f, x, y)`:
    ///
    /// ```text
    /// if (<x,y> not in table of f) then add <x,y,T,nil> to table of f
    /// else { for each d in NCL of <x,y> do dismantle-NC(d);
    ///        set the truth-flag of <x,y> to T }
    /// ```
    pub fn base_insert(&mut self, f: FunctionId, x: Value, y: Value) {
        fdb_obs::registry().storage_base_inserts.inc();
        self.version += 1;
        self.bump_fn(f);
        self.ensure_table(f);
        let table = &self.tables[f.index()];
        match table.position(&x, &y) {
            None => {
                if let Some(j) = self.journal.as_mut() {
                    j.push(UndoOp::RowAppended { f });
                }
                self.tab(f.index()).insert(x, y);
            }
            Some(i) => {
                let (prior, ncl): (Truth, Vec<NcId>) = table
                    .row(i)
                    .map(|r| (r.truth, r.ncl.iter().copied().collect()))
                    .unwrap_or((Truth::True, Vec::new()));
                for d in ncl {
                    self.dismantle_nc(d);
                }
                if let Some(j) = self.journal.as_mut() {
                    j.push(UndoOp::TruthSet { f, index: i, prior });
                }
                // A true row carries no NCs, so re-asserting it changes
                // nothing and must not detach its table.
                if prior != Truth::True {
                    self.tab(f.index()).set_truth(i, Truth::True);
                }
            }
        }
    }

    /// §4.1 `base-delete(f, x, y)`:
    ///
    /// ```text
    /// if (<x,y> present in table of f) then
    ///   { for each d in NCL of <x,y> do dismantle-NC(d);
    ///     remove <x,y> from table of f }
    /// ```
    ///
    /// Returns `true` if the pair was present.
    pub fn base_delete(&mut self, f: FunctionId, x: &Value, y: &Value) -> bool {
        self.version += 1;
        self.bump_fn(f);
        self.ensure_table(f);
        let Some(i) = self.tables[f.index()].position(x, y) else {
            return false;
        };
        let ncl: Vec<NcId> = self.tables[f.index()]
            .row(i)
            .map(|r| r.ncl.iter().copied().collect())
            .unwrap_or_default();
        for d in ncl {
            self.dismantle_nc(d);
        }
        let removed = self.tab(f.index()).remove(x, y).unwrap_or_default();
        if let Some(j) = self.journal.as_mut() {
            // The dismantles above emptied the NCL, so `removed` is
            // normally empty; journal what `remove` actually took so the
            // resurrection is exact either way.
            j.push(UndoOp::RowRemoved {
                f,
                index: i,
                ncl: removed,
            });
        }
        fdb_obs::registry().storage_base_deletes.inc();
        self.maybe_compact(f);
        true
    }

    /// Substitutes the null value `from` by `to` throughout the database:
    /// every row key and NC conjunct mentioning `from` is rewritten.
    ///
    /// This is the mechanical half of the paper's §5 observation that
    /// functional dependencies resolve partial information — the logical
    /// half (discovering that a null *must* equal a value) lives in
    /// `fdb-core`'s resolution pass.
    ///
    /// If a rewritten row collides with an existing row, the rows merge:
    /// if either was true the merged fact is treated as a fresh assertion
    /// of truth (its NCs are dismantled, per `base-insert`); otherwise the
    /// NCLs are unioned and the fact stays ambiguous.
    ///
    /// # Panics
    /// Panics (debug) if `from` is not a null value.
    pub fn substitute_null(&mut self, from: &Value, to: &Value) {
        self.version += 1;
        debug_assert!(from.is_null(), "substitute_null must be given a null");
        if from == to {
            return;
        }
        fdb_obs::registry().storage_null_substitutions.inc();
        // Null substitution can rewrite rows and NC conjuncts anywhere;
        // it is rare, so be conservative and bump every function.
        for fi in 0..self.tables.len() {
            self.bump_fn(FunctionId(fi as u32));
        }
        // 1. Rewrite NC conjunct keys first so later dismantles see the
        //    post-substitution facts. Journal each affected NC's prior
        //    conjunct list so rollback can restore it verbatim.
        if self.journal.is_some() {
            let priors: Vec<(NcId, Vec<Fact>)> = self
                .ncs
                .iter()
                .filter(|(_, facts)| facts.iter().any(|f| &f.x == from || &f.y == from))
                .map(|(id, facts)| (id, facts.to_vec()))
                .collect();
            if let Some(j) = self.journal.as_mut() {
                for (id, prior) in priors {
                    j.push(UndoOp::NcRewritten { id, prior });
                }
            }
        }
        self.ncs_cow().substitute_value(from, to);

        // 2. Rewrite table rows.
        let mut reassert: Vec<Fact> = Vec::new();
        for fi in 0..self.tables.len() {
            let affected: Vec<(Value, Value)> = self.tables[fi]
                .rows()
                .filter(|r| r.x == from || r.y == from)
                .map(|r| (r.x.clone(), r.y.clone()))
                .collect();
            for (x, y) in affected {
                let function = FunctionId(fi as u32);
                let table = &self.tables[fi];
                let i = table.position(&x, &y).expect("row was just listed");
                let (truth, ncl) = {
                    let r = table.row(i).expect("row alive");
                    (r.truth, r.ncl.clone())
                };
                let removed = self.tab(fi).remove(&x, &y).unwrap_or_default();
                if let Some(j) = self.journal.as_mut() {
                    j.push(UndoOp::RowRemoved {
                        f: function,
                        index: i,
                        ncl: removed,
                    });
                }
                let nx = if x == *from { to.clone() } else { x };
                let ny = if y == *from { to.clone() } else { y };
                match self.tables[fi].position(&nx, &ny) {
                    None => {
                        if let Some(j) = self.journal.as_mut() {
                            j.push(UndoOp::RowAppended { f: function });
                        }
                        self.tab(fi).restore_row(nx, ny, truth, ncl);
                    }
                    Some(pos) => {
                        // Merge with the existing row.
                        let either_true = self.tables[fi]
                            .row(pos)
                            .map(|r| r.truth == Truth::True || truth == Truth::True)
                            .unwrap_or(false);
                        for &d in &ncl {
                            let undo = self.tables[fi]
                                .row(pos)
                                .map(|r| (r.truth, !r.ncl.contains(&d)));
                            if let (Some(j), Some((prior, newly))) = (self.journal.as_mut(), undo) {
                                j.push(UndoOp::NcAttached {
                                    f: function,
                                    index: pos,
                                    id: d,
                                    prior,
                                    newly,
                                });
                            }
                            self.tab(fi).attach_nc(pos, d);
                        }
                        if either_true {
                            reassert.push(Fact {
                                function,
                                x: nx,
                                y: ny,
                            });
                        }
                    }
                }
            }
        }
        // 3. Re-assert merged-true facts through base-insert semantics.
        for f in reassert {
            self.base_insert(f.function, f.x, f.y);
        }
        // 4. Drop NCs that became degenerate: a conjunct key may now be
        //    missing if its row merged away — the dual check keeps them
        //    aligned because merging preserved keys; nothing to do.
    }

    // ----- transactions (undo journal) ---------------------------------

    /// `true` while an undo journal is recording (a transaction is open).
    pub fn undo_active(&self) -> bool {
        self.journal.is_some()
    }

    /// Opens the undo journal: every subsequent primitive mutation is
    /// recorded until [`Store::undo_commit`] or [`Store::undo_abort`].
    /// Journaling is off (zero overhead) outside transactions. Opening a
    /// journal while one is active is a caller bug; the existing journal
    /// is kept (nested scopes use [`Store::undo_mark`] instead).
    pub fn undo_begin(&mut self) {
        debug_assert!(self.journal.is_none(), "undo journal already open");
        if self.journal.is_none() {
            self.journal = Some(UndoJournal::default());
        }
    }

    /// Current journal position — capture as a savepoint mark and pass to
    /// [`Store::undo_rollback_to`] to roll back a suffix of the
    /// transaction. Returns 0 when no journal is open.
    pub fn undo_mark(&self) -> usize {
        self.journal.as_ref().map_or(0, UndoJournal::mark)
    }

    /// Approximate in-memory size of the open journal in bytes (0 when no
    /// transaction is open). Reported through `fdb.txn.undo_log_bytes`.
    pub fn undo_bytes(&self) -> usize {
        self.journal.as_ref().map_or(0, UndoJournal::approx_bytes)
    }

    /// Rolls the store back to a previously captured [`Store::undo_mark`],
    /// keeping the journal open (savepoint rollback). The logical state
    /// becomes byte-identical to the state at the mark, while `version` /
    /// `fn_versions` advance — rollback is a mutation event, so no cache
    /// keyed on the counters can serve the rolled-back (uncommitted) data.
    pub fn undo_rollback_to(&mut self, mark: usize) {
        let ops = match self.journal.as_mut() {
            Some(j) => j.drain_to(mark),
            None => {
                debug_assert!(false, "rollback without an open undo journal");
                return;
            }
        };
        self.apply_undo(ops);
    }

    /// Commits the open transaction: drops the journal and re-checks the
    /// compaction threshold of every table whose automatic compaction was
    /// deferred while the journal was open.
    pub fn undo_commit(&mut self) {
        let Some(j) = self.journal.take() else {
            debug_assert!(false, "commit without an open undo journal");
            return;
        };
        for fi in j.deferred_compaction {
            self.maybe_compact(FunctionId(fi));
        }
    }

    /// Aborts the open transaction: rolls everything back and drops the
    /// journal. Deferred compaction checks are discarded — the rollback
    /// restored the exact pre-transaction tombstone layout, which by
    /// construction had not yet crossed the compaction threshold.
    pub fn undo_abort(&mut self) {
        if self.journal.is_none() {
            debug_assert!(false, "abort without an open undo journal");
            return;
        }
        self.undo_rollback_to(0);
        self.journal = None;
    }

    /// Applies inverse ops (already in reverse execution order), then
    /// bumps the version counters of every touched function exactly once.
    fn apply_undo(&mut self, ops: Vec<UndoOp>) {
        use std::collections::BTreeSet;
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            if let Some(f) = op.touched_function() {
                touched.insert(f.index() as u32);
            }
            match op {
                UndoOp::RowAppended { f } => self.tab(f.index()).undo_append(),
                UndoOp::RowRemoved { f, index, ncl } => {
                    self.tab(f.index()).resurrect(index, ncl);
                }
                UndoOp::TruthSet { f, index, prior } => {
                    self.tab(f.index()).set_truth(index, prior);
                }
                UndoOp::NcAttached {
                    f,
                    index,
                    id,
                    prior,
                    newly,
                } => {
                    let t = self.tab(f.index());
                    if newly {
                        t.detach_nc(index, id);
                    }
                    t.set_truth(index, prior);
                }
                UndoOp::NcDetached { f, index, id } => {
                    // The row was necessarily ambiguous at detach time, so
                    // attach_nc restores both the NCL entry and the flag.
                    self.tab(f.index()).attach_nc(index, id);
                }
                UndoOp::NcCreated { id } => self.ncs_cow().undo_create(id),
                UndoOp::NcDismantled { id, conjuncts } => self.ncs_cow().restore(id, conjuncts),
                UndoOp::NcRewritten { id, prior } => self.ncs_cow().rewrite(id, prior),
                UndoOp::NullDrawn { watermark } => self.nulls.rewind(watermark),
            }
        }
        // Rollback is itself a version event: every derived cache keyed on
        // these counters must miss after it.
        self.version += 1;
        for fi in touched {
            self.bump_fn(FunctionId(fi));
        }
    }

    /// Total number of live base facts across all tables.
    pub fn fact_count(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// The pieces of `f`'s table — row chunks, bitmap blocks, index maps,
    /// null lists — that are not physically shared with `other`'s (all of
    /// them if `other` has no table for `f`). Tests use it to prove a
    /// publication is copy-on-write by chunk, not a deep copy.
    pub fn unshared_with(&self, other: &Store, f: FunctionId) -> Unshared {
        let Some(mine) = self.tables.get(f.index()) else {
            return Unshared::default();
        };
        match other.tables.get(f.index()) {
            Some(theirs) if Arc::ptr_eq(mine, theirs) => Unshared::default(),
            Some(theirs) => mine.unshared_with(theirs),
            None => mine.unshared_with(&Table::new()),
        }
    }

    /// Number of live base facts currently flagged ambiguous.
    pub fn ambiguous_count(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| t.rows())
            .filter(|r| r.truth == Truth::Ambiguous)
            .count()
    }

    /// Checks the NC ↔ NCL duality invariant: every NC conjunct is a
    /// stored row whose NCL contains the NC, and every NCL entry points to
    /// a live NC listing the row. Returns a description of the first
    /// violation, if any.
    pub fn check_duality(&self) -> Option<String> {
        for (id, facts) in self.ncs.iter() {
            for fact in facts {
                let Some(t) = self.tables.get(fact.function.index()) else {
                    return Some(format!("{id}: conjunct {fact} has no table"));
                };
                match t.position(&fact.x, &fact.y).and_then(|i| t.row(i)) {
                    Some(row) if row.ncl.contains(&id) => {}
                    Some(_) => return Some(format!("{id}: conjunct {fact} lacks back-pointer")),
                    None => return Some(format!("{id}: conjunct {fact} not stored")),
                }
            }
        }
        for (fi, t) in self.tables.iter().enumerate() {
            for row in t.rows() {
                for &d in row.ncl.iter() {
                    let listed = self.ncs.get(d).is_some_and(|facts| {
                        facts
                            .iter()
                            .any(|f| f.function.index() == fi && &f.x == row.x && &f.y == row.y)
                    });
                    if !listed {
                        return Some(format!(
                            "row <{}, {}> of F{} points at {} which does not list it",
                            row.x, row.y, fi, d
                        ));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId(i)
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn base_insert_fresh_row_is_true() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        assert_eq!(
            s.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::True
        );
        assert_eq!(s.fact_count(), 1);
    }

    #[test]
    fn base_insert_on_ambiguous_fact_resolves_it() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        s.base_insert(f(1), v("math"), v("john"));
        let nc = s.create_nc(vec![
            Fact::new(f(0), "euclid", "math"),
            Fact::new(f(1), "math", "john"),
        ]);
        assert_eq!(
            s.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::Ambiguous
        );
        // Re-asserting one conjunct dismantles the NC and sets it true…
        s.base_insert(f(0), v("euclid"), v("math"));
        assert!(!s.ncs().contains(nc));
        assert_eq!(
            s.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::True
        );
        // …while the other conjunct stays ambiguous (paper's u4 prelude).
        assert_eq!(
            s.base_truth(&Fact::new(f(1), "math", "john")),
            Truth::Ambiguous
        );
    }

    #[test]
    fn base_delete_dismantles_ncs() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        s.base_insert(f(1), v("math"), v("john"));
        let nc = s.create_nc(vec![
            Fact::new(f(0), "euclid", "math"),
            Fact::new(f(1), "math", "john"),
        ]);
        assert!(s.base_delete(f(0), &v("euclid"), &v("math")));
        assert!(!s.ncs().contains(nc));
        assert_eq!(
            s.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::False
        );
        // The surviving conjunct keeps flag A with empty NCL — the
        // `math john A {}` state after u3 in the paper's trace.
        assert_eq!(
            s.base_truth(&Fact::new(f(1), "math", "john")),
            Truth::Ambiguous
        );
        assert!(s
            .table(f(1))
            .row(s.table(f(1)).position(&v("math"), &v("john")).unwrap())
            .unwrap()
            .ncl
            .is_empty());
    }

    #[test]
    fn base_delete_absent_returns_false() {
        let mut s = Store::new(1);
        assert!(!s.base_delete(f(0), &v("a"), &v("b")));
    }

    #[test]
    fn duality_invariant_holds_through_updates() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("a"), v("b"));
        s.base_insert(f(1), v("b"), v("c"));
        s.base_insert(f(1), v("b"), v("d"));
        let _nc1 = s.create_nc(vec![Fact::new(f(0), "a", "b"), Fact::new(f(1), "b", "c")]);
        let nc2 = s.create_nc(vec![Fact::new(f(0), "a", "b"), Fact::new(f(1), "b", "d")]);
        assert!(s.check_duality().is_none());
        s.dismantle_nc(nc2);
        assert!(s.check_duality().is_none());
        s.base_delete(f(0), &v("a"), &v("b"));
        assert!(s.check_duality().is_none());
        assert!(s.ncs().is_empty());
    }

    #[test]
    fn fact_in_multiple_ncs() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("a"), v("b"));
        s.base_insert(f(1), v("b"), v("c"));
        s.base_insert(f(1), v("b"), v("d"));
        let nc1 = s.create_nc(vec![Fact::new(f(0), "a", "b"), Fact::new(f(1), "b", "c")]);
        let nc2 = s.create_nc(vec![Fact::new(f(0), "a", "b"), Fact::new(f(1), "b", "d")]);
        let t = s.table(f(0));
        let i = t.position(&v("a"), &v("b")).unwrap();
        let ncl: Vec<NcId> = t.row(i).unwrap().ncl.iter().copied().collect();
        assert_eq!(ncl, vec![nc1, nc2]);
        // Inserting the shared conjunct dismantles both.
        s.base_insert(f(0), v("a"), v("b"));
        assert!(s.ncs().is_empty());
        // b→c and b→d remain ambiguous.
        assert_eq!(s.ambiguous_count(), 2);
    }

    #[test]
    fn substitute_null_rewrites_rows_and_ncs() {
        let mut s = Store::new(2);
        let n1 = s.fresh_null();
        s.base_insert(f(0), v("gauss"), n1.clone());
        s.base_insert(f(1), n1.clone(), v("bill"));
        let nc = s.create_nc(vec![Fact::new(f(0), v("gauss"), n1.clone())]);
        s.substitute_null(&n1, &v("math"));
        assert!(s.table(f(0)).contains(&v("gauss"), &v("math")));
        assert!(s.table(f(1)).contains(&v("math"), &v("bill")));
        assert!(!s.table(f(0)).contains(&v("gauss"), &n1));
        // The NC conjunct was rewritten and duality holds.
        let conj = s.ncs().get(nc).unwrap();
        assert_eq!(conj[0].y, v("math"));
        assert!(s.check_duality().is_none());
    }

    #[test]
    fn substitute_null_merges_with_existing_row() {
        let mut s = Store::new(1);
        let n1 = s.fresh_null();
        s.base_insert(f(0), v("gauss"), n1.clone());
        s.base_insert(f(0), v("gauss"), v("math"));
        let nc = s.create_nc(vec![Fact::new(f(0), v("gauss"), n1.clone())]);
        assert_eq!(s.table(f(0)).len(), 2);
        s.substitute_null(&n1, &v("math"));
        // Rows merged; the surviving row was true, so the NC over the null
        // row was dismantled by the re-assertion.
        assert_eq!(s.table(f(0)).len(), 1);
        assert_eq!(
            s.base_truth(&Fact::new(f(0), v("gauss"), v("math"))),
            Truth::True
        );
        assert!(!s.ncs().contains(nc));
        assert!(s.check_duality().is_none());
    }

    #[test]
    fn substitute_null_merge_of_two_ambiguous_rows_unions_ncls() {
        let mut s = Store::new(2);
        let n1 = s.fresh_null();
        s.base_insert(f(0), v("a"), n1.clone());
        s.base_insert(f(0), v("a"), v("b"));
        s.base_insert(f(1), v("z"), v("w"));
        let nc1 = s.create_nc(vec![
            Fact::new(f(0), v("a"), n1.clone()),
            Fact::new(f(1), v("z"), v("w")),
        ]);
        let nc2 = s.create_nc(vec![
            Fact::new(f(0), v("a"), v("b")),
            Fact::new(f(1), v("z"), v("w")),
        ]);
        s.substitute_null(&n1, &v("b"));
        assert_eq!(s.table(f(0)).len(), 1);
        let i = s.table(f(0)).position(&v("a"), &v("b")).unwrap();
        let ncl: Vec<NcId> = s.table(f(0)).row(i).unwrap().ncl.iter().copied().collect();
        assert_eq!(ncl, vec![nc1, nc2]);
        assert_eq!(
            s.base_truth(&Fact::new(f(0), v("a"), v("b"))),
            Truth::Ambiguous
        );
        assert!(s.check_duality().is_none());
    }

    #[test]
    fn per_function_versions_track_only_touched_functions() {
        let mut s = Store::new(3);
        assert_eq!(s.function_version(f(0)), 0);
        s.base_insert(f(0), v("a"), v("b"));
        assert_eq!(s.function_version(f(0)), 1);
        assert_eq!(s.function_version(f(1)), 0);
        assert_eq!(s.function_version(f(2)), 0);
        // NC creation bumps exactly the conjunct functions.
        s.base_insert(f(1), v("b"), v("c"));
        let v0 = s.function_version(f(0));
        let v2 = s.function_version(f(2));
        s.create_nc(vec![Fact::new(f(0), "a", "b"), Fact::new(f(1), "b", "c")]);
        assert!(s.function_version(f(0)) > v0);
        assert_eq!(s.function_version(f(2)), v2);
        // Deleting a conjunct bumps both f (directly) and the NC's other
        // conjunct functions (via dismantle).
        let v1 = s.function_version(f(1));
        s.base_delete(f(0), &v("a"), &v("b"));
        assert!(s.function_version(f(1)) > v1);
        assert_eq!(s.function_version(f(2)), v2);
    }

    /// Inserts and deletes `n` fresh rows of `f`: `n` tombstones, no
    /// live rows.
    fn churn(s: &mut Store, f: FunctionId, tag: &str, n: usize) {
        for i in 0..n {
            let (x, y) = (v(&format!("{tag}x{i}")), v(&format!("{tag}y{i}")));
            s.base_insert(f, x.clone(), y.clone());
            s.base_delete(f, &x, &y);
        }
    }

    #[test]
    fn auto_compaction_triggers_and_preserves_nc_duality() {
        let mut s = Store::new(2);
        // Rows that stay live, drawn into an NC (so NCLs must survive).
        s.base_insert(f(0), v("keep_a"), v("keep_b"));
        s.base_insert(f(1), v("keep_b"), v("keep_c"));
        let nc = s.create_nc(vec![
            Fact::new(f(0), "keep_a", "keep_b"),
            Fact::new(f(1), "keep_b", "keep_c"),
        ]);
        churn(&mut s, f(0), "", COMPACT_MIN_TOMBSTONES);
        assert_eq!(s.table(f(0)).tombstones(), 0, "compaction should have run");
        assert_eq!(s.table(f(0)).len(), 1);
        // The NC's conjuncts key by value pair, so the dual structure
        // survives the row-index reshuffle.
        assert!(s.check_duality().is_none());
        assert!(s.ncs().contains(nc));
        assert_eq!(
            s.base_truth(&Fact::new(f(0), "keep_a", "keep_b")),
            Truth::Ambiguous
        );
    }

    #[test]
    fn compaction_waits_for_64_tombstones() {
        assert_eq!(COMPACT_MIN_TOMBSTONES, 64);
        let mut s = Store::new(1);
        churn(&mut s, f(0), "", 63);
        assert_eq!(s.table(f(0)).tombstones(), 63, "63 never compact");
        churn(&mut s, f(0), "more", 1);
        assert_eq!(s.table(f(0)).tombstones(), 0);
    }

    #[test]
    fn compaction_waits_for_tombstones_to_outnumber_half_the_live_rows() {
        assert_eq!(COMPACT_FRACTION, 0.5);
        let mut s = Store::new(1);
        for i in 0..200 {
            s.base_insert(f(0), v(&format!("x{i}")), v(&format!("y{i}")));
        }
        // 66 tombstones against 134 live rows: not more than half.
        for i in 0..66 {
            s.base_delete(f(0), &v(&format!("x{i}")), &v(&format!("y{i}")));
        }
        assert_eq!(s.table(f(0)).tombstones(), 66);
        // 67 against 133 are.
        s.base_delete(f(0), &v("x66"), &v("y66"));
        assert_eq!(s.table(f(0)).tombstones(), 0);
        assert_eq!(s.table(f(0)).len(), 133);
    }

    #[test]
    fn compaction_in_a_transaction_runs_at_commit_and_not_after_rollback() {
        let mut s = Store::new(1);
        churn(&mut s, f(0), "before", 63);
        s.undo_begin();
        churn(&mut s, f(0), "in", 1);
        assert_eq!(s.table(f(0)).tombstones(), 64, "deferred to the commit");
        s.undo_abort();
        // The rollback restored 63 tombstones and dropped the check.
        assert_eq!(s.table(f(0)).tombstones(), 63);
        s.undo_begin();
        churn(&mut s, f(0), "in", 1);
        s.undo_commit();
        assert_eq!(s.table(f(0)).tombstones(), 0);
    }

    #[test]
    fn from_parts_refuses_a_duality_break() {
        let table = |ncl: &[u64]| {
            let ncl = ncl.iter().map(|&id| NcId(id)).collect();
            Table::from_rows([(v("a"), v("b"), Truth::Ambiguous, ncl, true)]).unwrap()
        };
        let ncs = || NcStore::from_parts([(NcId(1), vec![Fact::new(f(0), "a", "b")])], 2).unwrap();
        assert!(Store::from_parts(vec![table(&[1])], ncs(), 0).is_ok());
        // An NC its conjunct's NCL does not list, and an NCL entry naming
        // no live NC.
        assert!(Store::from_parts(vec![table(&[])], ncs(), 0).is_err());
        assert!(Store::from_parts(vec![table(&[1])], NcStore::new(), 0).is_err());
    }

    /// Re-inserting a true fact and dismantling an NC whose conjunct row
    /// is gone change no row, so they copy nothing a snapshot shares.
    #[test]
    fn no_op_writes_detach_nothing() {
        let mut s = Store::new(2);
        for i in 0..4 * crate::table::CHUNK_ROWS {
            s.base_insert(f(0), v(&format!("x{i}")), v(&format!("y{i}")));
        }
        s.base_insert(f(1), v("a"), v("b"));
        let nc = s.create_nc(vec![Fact::new(f(0), "x1", "y1")]);
        // The conjunct row goes without the NC store hearing of it.
        s.table_mut(f(0)).remove(&v("x1"), &v("y1"));
        let snap = s.clone();
        let version = s.version();
        s.base_insert(f(0), v("x7"), v("y7"));
        s.dismantle_nc(nc);
        for fi in 0..2 {
            assert_eq!(s.unshared_with(&snap, f(fi)), Unshared::default());
        }
        assert!(s.version() > version, "version counters still move");
        assert!(!s.ncs().contains(nc));
        assert!(s.check_duality().is_none());
    }

    #[test]
    fn fresh_nulls_are_sequential() {
        let mut s = Store::new(0);
        assert_eq!(s.fresh_null().to_string(), "n1");
        assert_eq!(s.fresh_null().to_string(), "n2");
        assert_eq!(s.nulls().generated(), 2);
    }

    fn snap(s: &Store) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    #[test]
    fn undo_rollback_restores_byte_identical_state() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        s.base_insert(f(1), v("math"), v("john"));
        let nc = s.create_nc(vec![
            Fact::new(f(0), "euclid", "math"),
            Fact::new(f(1), "math", "john"),
        ]);
        assert!(s.ncs().contains(nc));
        let before = snap(&s);
        let v_before = s.version();

        s.undo_begin();
        // A representative mix: inserts, re-assertion over an NC, a fresh
        // null, NC creation + dismantling, deletion, null substitution.
        let n = s.fresh_null();
        s.base_insert(f(0), v("gauss"), n.clone());
        s.base_insert(f(0), v("gauss"), v("algebra"));
        let nc2 = s.create_nc(vec![Fact::new(f(0), v("gauss"), n.clone())]);
        s.substitute_null(&n, &v("algebra"));
        assert!(!s.ncs().contains(nc2), "merge re-asserted the true row");
        s.base_insert(f(0), v("euclid"), v("math"));
        s.base_delete(f(0), &v("euclid"), &v("math"));
        assert_ne!(snap(&s), before);

        s.undo_abort();
        assert_eq!(snap(&s), before, "rollback must be byte-identical");
        assert!(!s.undo_active());
        assert!(s.ncs().contains(nc));
        assert!(
            s.version() > v_before,
            "rollback is a version event, not a counter restore"
        );
        assert!(s.check_duality().is_none());
    }

    #[test]
    fn undo_savepoint_rollback_keeps_transaction_open() {
        let mut s = Store::new(1);
        s.base_insert(f(0), v("a"), v("b"));
        s.undo_begin();
        s.base_insert(f(0), v("c"), v("d"));
        let mark = s.undo_mark();
        let mid = snap(&s);
        s.base_insert(f(0), v("e"), v("f"));
        s.base_delete(f(0), &v("a"), &v("b"));
        s.undo_rollback_to(mark);
        assert_eq!(snap(&s), mid);
        assert!(s.undo_active());
        // Work after a savepoint rollback is still undone by a full abort.
        s.base_insert(f(0), v("g"), v("h"));
        s.undo_abort();
        assert_eq!(s.table(f(0)).len(), 1);
        assert!(s.table(f(0)).contains(&v("a"), &v("b")));
    }

    #[test]
    fn undo_commit_keeps_changes_and_runs_deferred_compaction() {
        let mut s = Store::new(1);
        s.undo_begin();
        churn(&mut s, f(0), "", 80);
        // Compaction is suspended while the journal is open (row indices
        // recorded in it must stay valid)…
        assert_eq!(s.table(f(0)).tombstones(), 80);
        s.undo_commit();
        // …and re-checked at commit.
        assert_eq!(s.table(f(0)).tombstones(), 0);
        assert!(!s.undo_active());
    }

    #[test]
    fn undo_restores_nc_ids_and_null_watermark() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("a"), v("b"));
        s.undo_begin();
        let n = s.fresh_null();
        s.base_insert(f(1), n.clone(), v("c"));
        let nc = s.create_nc(vec![Fact::new(f(1), n.clone(), v("c"))]);
        assert_eq!(nc, NcId(1));
        s.undo_abort();
        assert_eq!(s.nulls().generated(), 0, "null watermark rewound");
        // Fresh ids after the rollback are the same ones the transaction
        // would have used — no gap leaks the aborted work.
        assert_eq!(s.fresh_null(), Value::Null(fdb_types::NullId(1)));
        s.base_insert(f(0), v("p"), v("q"));
        let nc2 = s.create_nc(vec![Fact::new(f(0), "p", "q")]);
        assert_eq!(nc2, NcId(1));
    }

    #[test]
    fn undo_bytes_grow_and_reset() {
        let mut s = Store::new(1);
        assert_eq!(s.undo_bytes(), 0);
        s.undo_begin();
        s.base_insert(f(0), v("a"), v("b"));
        assert!(s.undo_bytes() > 0);
        s.undo_abort();
        assert_eq!(s.undo_bytes(), 0);
    }

    #[test]
    fn version_counters_are_not_serialized() {
        let mut s = Store::new(1);
        s.base_insert(f(0), v("a"), v("b"));
        s.undo_begin();
        assert!(s.version() > 0);
        let bytes = snap(&s);
        let back = Store::decode(&mut Reader::new(&bytes)).expect("round trip");
        assert_eq!(back.version(), 0);
        assert_eq!(back.function_version(f(0)), 0);
        assert!(!back.undo_active());
        assert!(back.table(f(0)).contains(&v("a"), &v("b")));
        assert_eq!(snap(&back), bytes);
    }
}
