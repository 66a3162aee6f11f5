//! Shared, thread-safe access to a database — MVCC snapshot reads,
//! bounded writes, group-committed durability.
//!
//! The paper's design aid is single-user, but a database library needs a
//! concurrency story. There is one handle, [`Shared<E>`], over any engine
//! `E` that lends a [`Database`]: a plain [`Database`]
//! ([`SharedDatabase`]) or a [`LoggedDatabase`]
//! ([`SharedLoggedDatabase`]).
//!
//! **Readers never wait.** Every read entry point runs against a *pinned
//! snapshot* — an immutable [`Database`] published by the last commit —
//! acquired with a single `Arc` clone and no engine lock. A writer
//! stalling in an fsync, holding the engine, or queueing behind the
//! admission gate cannot delay a reader by more than a pointer swap.
//!
//! **Snapshot lifecycle.** The store is copy-on-write per function and,
//! inside a table, per row chunk, bitmap block and index map
//! (`fdb-storage`); the schema and derivations sit behind one `Arc`.
//! Cloning a [`Database`] is O(#functions) `Arc` bumps, and the first
//! write after a publication copies a few chunk-sized pieces of the table
//! it writes.
//! Writers republish after every mutation that moved the store's
//! monotone version counter, *except* while a transaction is open —
//! uncommitted state is never published, so a reader never observes a
//! torn or rolled-back transaction (the open transaction reads its own
//! journal through the write path). A publish only installs a strictly
//! newer snapshot, so racing publishers cannot regress the slot.
//!
//! **One write path.** Every write entry point is a call of
//! `Shared::write_path`: admission gate → engine lock, bounded by the
//! [`OverloadPolicy`] and the caller's governor → governor re-check
//! under the lock → closure → publication. A request shed on the way in
//! gets the typed [`FdbError::Overloaded`] *before* any mutation, so a
//! retry is always safe. On a [`LoggedDatabase`] the autocommit writes
//! also batch their fsyncs through the [`GroupCommit`] coordinator:
//! identical WAL bytes, one disk flush for N writers. Transactional
//! `COMMIT` keeps its synchronous force-fsync (and failure revocation):
//! recovery still lands at pre-`BEGIN` or post-`COMMIT`.

use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use fdb_governor::{Governance, Governor};
use fdb_storage::Truth;
use fdb_types::{FdbError, FunctionId, Result, Value};

use crate::database::Database;
use crate::durability::{update_record, GroupCommit, LoggedDatabase, SyncPolicy};
use crate::stats::DatabaseStats;
use crate::update::Update;
use crate::wal::LogRecord;

/// Bounds on the write path of a [`Shared`] handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// How long a writer may wait for the engine lock (or a group-commit
    /// follower for its leader's fsync) before the request is shed.
    pub lock_timeout: Duration,
    /// Maximum writers in flight — admitted and not yet returned; one
    /// more is rejected immediately (admission control) instead of
    /// queueing behind a convoy.
    pub max_inflight_writers: usize,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            lock_timeout: Duration::from_secs(2),
            max_inflight_writers: 64,
        }
    }
}

/// Decrements the in-flight writer count when the write attempt ends
/// (success, shed, or panic inside the closure).
struct GatePass<'a>(&'a AtomicUsize);

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn overloaded(what: &str, waited: Duration) -> FdbError {
    fdb_obs::registry().governor_overload_sheds.inc();
    FdbError::Overloaded {
        what: what.to_owned(),
        waited_ms: waited.as_millis() as u64,
    }
}

/// A pinned MVCC snapshot: an immutable [`Database`] frozen at one
/// commit boundary. Cheap to clone (one `Arc` bump) and valid forever —
/// it answers every query exactly as the database did at its version
/// stamp, no matter what writers do afterwards.
#[derive(Clone, Debug)]
pub struct PinnedSnapshot(Arc<Database>);

impl PinnedSnapshot {
    /// The store's monotone version stamp at publication. Equal stamps
    /// imply identical state; the stamp never rewinds (even across
    /// transaction rollbacks), so it is a complete cache key.
    pub fn version(&self) -> u64 {
        self.0.store().version()
    }
}

impl Deref for PinnedSnapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.0
    }
}

/// The published-snapshot slot shared by all clones of a handle.
///
/// `pin` is a read-lock + `Arc` clone (never contended by the database
/// write path — writers only touch this slot for the instants of a
/// pointer swap). `publish` installs strictly newer snapshots only, so
/// out-of-order publishers (group-commit writers racing after their
/// fsync) cannot regress the visible state.
#[derive(Debug)]
struct SnapshotCell {
    slot: RwLock<Arc<Database>>,
}

impl SnapshotCell {
    fn new(db: &Database) -> Self {
        SnapshotCell {
            slot: RwLock::new(Arc::new(db.clone())),
        }
    }

    fn pin(&self) -> PinnedSnapshot {
        fdb_obs::registry().mvcc_snapshot_pins.inc();
        let pinned = PinnedSnapshot(self.slot.read().clone());
        fdb_obs::causal::point("fdb.mvcc.pin", || {
            format!("version={}", pinned.0.store().version())
        });
        pinned
    }

    /// Publishes `snap` if it is strictly newer than the slot.
    fn publish(&self, snap: Arc<Database>) {
        let version = snap.store().version();
        {
            let current = self.slot.read();
            if version <= current.store().version() {
                return;
            }
        }
        let mut w = self.slot.write();
        if version > w.store().version() {
            *w = snap;
            fdb_obs::registry().mvcc_snapshots_published.inc();
            fdb_obs::causal::point("fdb.mvcc.publish", || format!("version={version}"));
        }
    }

    /// Clones `db` and publishes it, unless a transaction is open
    /// (uncommitted state is never published) or nothing changed since
    /// the last publication.
    fn publish_from(&self, db: &Database) {
        if db.txn_active() {
            return;
        }
        if db.store().version() == self.slot.read().store().version() {
            return;
        }
        self.publish(Arc::new(db.clone()));
    }
}

/// A cloneable, thread-safe handle to an engine `E` that lends a
/// [`Database`].
///
/// Writers serialise on one mutex, so on a [`LoggedDatabase`] the log
/// order *is* the apply order — replaying the log reproduces the live
/// state, however many threads were appending. Reads never touch that
/// mutex: they pin the snapshot published at the last commit boundary.
#[derive(Debug)]
pub struct Shared<E> {
    inner: Arc<Inner<E>>,
}

/// A [`Shared`] in-memory [`Database`].
pub type SharedDatabase = Shared<Database>;

/// A [`Shared`] [`LoggedDatabase`]: every mutation is written ahead to
/// the log. Under [`SyncPolicy::Always`] the autocommit writes (`insert`,
/// `delete`, `apply_update`) group-commit: concurrent writers' records
/// are made durable by one batched fsync (see [`GroupCommit`]), and a
/// write is acknowledged — and its state published to readers — only
/// after the fsync covering it succeeded.
pub type SharedLoggedDatabase = Shared<LoggedDatabase>;

#[derive(Debug)]
struct Inner<E> {
    engine: Mutex<E>,
    cell: SnapshotCell,
    /// Writers in flight: admitted and not yet returned.
    gate: AtomicUsize,
    /// Idle unless `E` is a [`LoggedDatabase`].
    group: GroupCommit,
    policy: OverloadPolicy,
}

impl<E> Clone for Shared<E> {
    fn clone(&self) -> Self {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<E: AsRef<Database>> Shared<E> {
    /// Wraps an engine with the default [`OverloadPolicy`].
    pub fn new(engine: E) -> Self {
        Shared::with_policy(engine, OverloadPolicy::default())
    }

    /// Wraps an engine with an explicit policy.
    pub fn with_policy(engine: E, policy: OverloadPolicy) -> Self {
        Shared {
            inner: Arc::new(Inner {
                cell: SnapshotCell::new(engine.as_ref()),
                engine: Mutex::new(engine),
                gate: AtomicUsize::new(0),
                group: GroupCommit::new(),
                policy,
            }),
        }
    }

    /// The handle's overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.inner.policy
    }

    /// Pins the current published snapshot: a zero-lock, immutable view
    /// of the database as of the last completed write. Hold it as long
    /// as you like — it never blocks a writer and never changes.
    pub fn pin(&self) -> PinnedSnapshot {
        // The one definition of a stale read: some writer is in flight
        // (awaiting the engine, holding it, or awaiting its group fsync).
        if self.inner.gate.load(Ordering::Acquire) > 0 {
            fdb_obs::registry().mvcc_stale_snapshot_reads.inc();
        }
        self.inner.cell.pin()
    }

    /// Runs a closure against a pinned snapshot. Lock-free: a writer
    /// holding the engine cannot delay this (the closure sees the state
    /// as of the last completed write).
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.pin())
    }

    /// [`Shared::read`] with the governor consulted up front: an expired
    /// deadline or tripped cancellation token sheds the read with its
    /// typed error before the snapshot is pinned. (Pins cannot block, so
    /// there is no wait to clamp — pass the governor on to `*_governed`
    /// query methods inside the closure to bound the query itself.)
    pub fn read_governed<R>(
        &self,
        governor: &Governor,
        f: impl FnOnce(&Database) -> R,
    ) -> Result<R> {
        governor
            .check()
            .map_err(|r| r.into_error("database read"))?;
        Ok(self.read(f))
    }

    /// Runs a closure with exclusive access to the engine.
    ///
    /// Bounded: a full admission gate rejects the request at once, a lock
    /// not acquired within the policy's timeout sheds it. Either way the
    /// error is [`FdbError::Overloaded`], nothing was executed, and a
    /// retry is safe. On success the new state is published for readers
    /// before this returns (read-your-write through any handle clone) —
    /// unless the closure left a transaction open.
    pub fn with<R>(&self, f: impl FnOnce(&mut E) -> R) -> Result<R> {
        self.write_path(None, |engine| (f(engine), None), |_| Ok(()))
    }

    /// [`Shared::with`] with the lock wait additionally clamped to
    /// `governor`'s remaining time, and the governor re-checked while
    /// holding the lock, so the closure (typically an append + fsync)
    /// never even starts past the deadline or after a cancellation.
    pub fn with_governed<R>(&self, governor: &Governor, f: impl FnOnce(&mut E) -> R) -> Result<R> {
        self.write_path(Some(governor), |engine| (f(engine), None), |_| Ok(()))
    }

    /// The one write path: admission gate → bounded engine lock →
    /// governor re-check → `f` → publication. Nothing else takes the
    /// engine lock for a write (the group leader re-locks it, already
    /// admitted, only to fsync).
    ///
    /// `f` returns its result and, if what it wrote is not to be seen
    /// yet, the log sequence that must be durable first: the state is
    /// then captured, the lock released, and the snapshot published once
    /// `durable(seq)` succeeded — with the gate pass still held, so the
    /// writer counts as in flight until it returns.
    fn write_path<R>(
        &self,
        governor: Option<&Governor>,
        f: impl FnOnce(&mut E) -> (R, Option<u64>),
        durable: impl FnOnce(u64) -> Result<()>,
    ) -> Result<R> {
        let inner = &*self.inner;
        let check = |g: &Governor| g.check().map_err(|r| r.into_error("database write"));
        let mut timeout = inner.policy.lock_timeout;
        if let Some(g) = governor {
            check(g)?;
            timeout = g.remaining_time().map_or(timeout, |left| left.min(timeout));
        }
        let inflight = inner.gate.fetch_add(1, Ordering::AcqRel);
        let _pass = GatePass(&inner.gate);
        if inflight >= inner.policy.max_inflight_writers {
            return Err(overloaded("write admission gate", Duration::ZERO));
        }
        let t0 = Instant::now();
        let Some(mut engine) = inner.engine.try_lock_for(timeout) else {
            return Err(overloaded("database write lock", t0.elapsed()));
        };
        governor.map_or(Ok(()), check)?;
        let (r, pending) = f(&mut engine);
        let db: &Database = (*engine).as_ref();
        let Some(seq) = pending else {
            // Publish while still holding the lock: the slot always
            // advances in commit order.
            inner.cell.publish_from(db);
            return Ok(r);
        };
        let snap = Arc::new(db.clone());
        drop(engine);
        durable(seq)?;
        inner.cell.publish(snap);
        Ok(r)
    }

    /// Runs `f` under the lock, retrying with jittered exponential
    /// backoff whenever the attempt is shed with
    /// [`FdbError::Overloaded`] — the one error that guarantees nothing
    /// was executed, so a retry is always safe. Any other outcome is
    /// returned as-is.
    ///
    /// The backoff is deterministic (a seeded LCG supplies the jitter, so
    /// chaos runs replay bit-identically) and bounded by `max_retries` and
    /// by `governor`'s remaining deadline: a sleep that would outlive it
    /// is not taken, the last `Overloaded` is returned instead.
    pub fn retry_on_overload<R>(
        &self,
        governor: &Governor,
        max_retries: u32,
        mut f: impl FnMut(&mut E) -> Result<R>,
    ) -> Result<R> {
        const BASE_DELAY: Duration = Duration::from_millis(2);
        const MAX_DELAY: Duration = Duration::from_millis(100);
        // Deterministic jitter: Knuth's MMIX LCG over the attempt index.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut attempt = 0u32;
        loop {
            // Flatten the two layers: a shed lock (outer) and an
            // `Overloaded` surfaced by the closure (inner) are retried
            // the same way.
            let shed = match self.with_governed(governor, &mut f).and_then(|r| r) {
                Err(e @ FdbError::Overloaded { .. }) if attempt < max_retries => e,
                settled => return settled,
            };
            attempt += 1;
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let capped = BASE_DELAY
                .saturating_mul(1u32 << attempt.min(6))
                .min(MAX_DELAY);
            // Jitter in [capped/2, capped): desynchronises colliding
            // retriers without ever zeroing the wait.
            let half = capped / 2;
            let jitter_ns = (rng >> 33) % half.as_nanos().max(1) as u64;
            let delay = half + Duration::from_nanos(jitter_ns);
            if governor.remaining_time().is_some_and(|left| left <= delay) {
                return Err(shed);
            }
            fdb_obs::registry().txn_overload_retries.inc();
            std::thread::sleep(delay);
        }
    }

    /// Extracts the engine, if this is the last handle; otherwise
    /// returns the handle back.
    pub fn try_unwrap(self) -> std::result::Result<E, Self> {
        Arc::try_unwrap(self.inner)
            .map(|inner| inner.engine.into_inner())
            .map_err(|inner| Shared { inner })
    }

    /// Resolves a function name.
    pub fn resolve(&self, name: &str) -> Result<FunctionId> {
        self.read(|db| db.resolve(name))
    }

    /// Truth of a fact.
    pub fn truth(&self, f: FunctionId, x: &Value, y: &Value) -> Result<Truth> {
        self.read(|db| db.truth(f, x, y))
    }

    /// Instance statistics. Cannot fail; the `Result` is what the frozen
    /// `benchmark/` crate unwraps on the durable alias.
    pub fn stats(&self) -> Result<DatabaseStats> {
        Ok(self.read(|db| db.stats()))
    }

    /// Consistency check.
    pub fn is_consistent(&self) -> bool {
        self.read(|db| db.is_consistent())
    }
}

/// The in-memory handle's updates by [`FunctionId`].
impl Shared<Database> {
    /// `INS(f, <x, y>)`.
    pub fn insert(&self, f: FunctionId, x: Value, y: Value) -> Result<()> {
        self.with(|db| db.insert(f, x, y))?
    }

    /// `DEL(f, <x, y>)`.
    pub fn delete(&self, f: FunctionId, x: &Value, y: &Value) -> Result<()> {
        self.with(|db| db.delete(f, x, y))?
    }

    /// Applies a batch atomically.
    pub fn apply_all(&self, updates: Vec<Update>) -> Result<usize> {
        self.with(|db| db.apply_all(updates))?
    }
}

/// What needs a log: group-committed autocommit writes, syncs,
/// checkpoints and the transaction verbs.
impl Shared<LoggedDatabase> {
    /// The autocommit group-commit write path for the record `record`
    /// builds from the live database. Under [`SyncPolicy::Always`] with no
    /// open transaction, the record is applied and appended under the
    /// engine lock with its fsync left to this caller; the lock is released
    /// and the [`GroupCommit`] coordinator makes it durable (one batched
    /// fsync per group of concurrent writers). The new state is published
    /// only after that fsync succeeded, and an error from it is never
    /// [`FdbError::Overloaded`]: the record is applied and appended, only
    /// its durability is unknown. Otherwise this is [`Shared::with`].
    fn write_grouped(&self, record: impl FnOnce(&Database) -> LogRecord) -> Result<()> {
        let inner = &*self.inner;
        let timeout = inner.policy.lock_timeout;
        self.write_path(
            None,
            |ldb| {
                let record = record(ldb.database());
                let grouped = ldb.config().sync_policy == SyncPolicy::Always && !ldb.txn_active();
                let before = ldb.last_seq();
                let r = ldb.write(record, grouped);
                let seq = ldb.last_seq();
                (r, (grouped && seq > before).then_some(seq))
            },
            |seq| {
                let lead = || {
                    let t0 = Instant::now();
                    match inner.engine.try_lock_for(timeout) {
                        Some(mut ldb) => (ldb.last_seq(), ldb.sync()),
                        None => (0, Err(overloaded("group fsync lock", t0.elapsed()))),
                    }
                };
                inner.group.sync_to(seq, timeout, lead).map(drop)
            },
        )?
    }

    /// `INS` by function name (logged, group-committed).
    pub fn insert(&self, function: &str, x: Value, y: Value) -> Result<()> {
        let function = function.to_owned();
        self.write_grouped(|_| LogRecord::Insert { function, x, y })
    }

    /// `DEL` by function name (logged, group-committed).
    pub fn delete(&self, function: &str, x: Value, y: Value) -> Result<()> {
        let function = function.to_owned();
        self.write_grouped(|_| LogRecord::Delete { function, x, y })
    }

    /// Applies one engine-level update (logged, group-committed).
    pub fn apply_update(&self, update: &Update) -> Result<()> {
        self.write_grouped(|db| update_record(db, update))
    }

    /// Durably syncs the log.
    pub fn sync(&self) -> Result<()> {
        self.with(LoggedDatabase::sync)?
    }

    /// [`Shared::sync`] under a deadline: the lock wait is clamped to it
    /// and the fsync is not started once it passed.
    pub fn sync_governed(&self, governor: &Governor) -> Result<()> {
        self.with_governed(governor, LoggedDatabase::sync)?
    }

    /// Takes a checkpoint now.
    pub fn checkpoint(&self) -> Result<()> {
        self.with(LoggedDatabase::checkpoint)?
    }

    /// Opens a logged transaction frame ([`LoggedDatabase::begin`]). While
    /// it is open, readers keep pinning the pre-`BEGIN` snapshot.
    pub fn begin(&self) -> Result<()> {
        self.with(LoggedDatabase::begin)?
    }

    /// Commits the open transaction ([`LoggedDatabase::commit`]): the
    /// marker is force-fsynced, then the frame becomes visible at once.
    pub fn commit(&self) -> Result<()> {
        self.with(LoggedDatabase::commit)?
    }

    /// Rolls the open transaction back ([`LoggedDatabase::rollback`]).
    pub fn rollback(&self) -> Result<()> {
        self.with(LoggedDatabase::rollback)?
    }

    /// Sets a named savepoint ([`LoggedDatabase::savepoint`]).
    pub fn savepoint(&self, name: &str) -> Result<()> {
        self.with(|ldb| ldb.savepoint(name))?
    }

    /// Rolls back to a named savepoint ([`LoggedDatabase::rollback_to`]).
    pub fn rollback_to(&self, name: &str) -> Result<()> {
        self.with(|ldb| ldb.rollback_to(name))?
    }

    /// Changes when appends are fsynced.
    pub fn set_sync_policy(&self, policy: SyncPolicy) -> Result<()> {
        self.with(|ldb| ldb.set_sync_policy(policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityConfig;
    use crate::storage::SimDisk;
    use fdb_types::{Derivation, Schema, Step};
    use std::sync::mpsc;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn university() -> Database {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.register_derived(
            p,
            vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).unwrap()],
        )
        .unwrap();
        db
    }

    fn logged_university(
        disk: Arc<SimDisk>,
        dir: &str,
        config: DurabilityConfig,
    ) -> LoggedDatabase {
        let mut ldb = LoggedDatabase::create_with(disk, dir, config).unwrap();
        ldb.import_schema(&university()).unwrap();
        ldb
    }

    fn tight(lock_timeout_ms: u64, max_inflight_writers: usize) -> OverloadPolicy {
        OverloadPolicy {
            lock_timeout: Duration::from_millis(lock_timeout_ms),
            max_inflight_writers,
        }
    }

    /// What the handle contract needs from an engine besides lending a
    /// `Database`: how to build one over the university schema, and how
    /// the handle spells an update and the transaction verbs on it.
    trait Engine: AsRef<Database> + std::fmt::Debug + Send + Sized + 'static {
        fn university() -> Self;
        fn teach(h: &Shared<Self>, x: &str, y: &str) -> Result<()>;
        fn begin(h: &Shared<Self>) -> Result<()>;
        fn commit(h: &Shared<Self>) -> Result<()>;
        fn rollback(h: &Shared<Self>) -> Result<()>;
    }

    impl Engine for Database {
        fn university() -> Self {
            university()
        }
        fn teach(h: &Shared<Self>, x: &str, y: &str) -> Result<()> {
            h.insert(h.resolve("teach")?, v(x), v(y))
        }
        fn begin(h: &Shared<Self>) -> Result<()> {
            h.with(Database::txn_begin)?
        }
        fn commit(h: &Shared<Self>) -> Result<()> {
            h.with(Database::txn_commit)?
        }
        fn rollback(h: &Shared<Self>) -> Result<()> {
            h.with(Database::txn_rollback)?
        }
    }

    impl Engine for LoggedDatabase {
        fn university() -> Self {
            logged_university(
                Arc::new(SimDisk::new()),
                "/contract_db",
                DurabilityConfig::default(),
            )
        }
        fn teach(h: &Shared<Self>, x: &str, y: &str) -> Result<()> {
            h.insert("teach", v(x), v(y))
        }
        fn begin(h: &Shared<Self>) -> Result<()> {
            h.begin()
        }
        fn commit(h: &Shared<Self>) -> Result<()> {
            h.commit()
        }
        fn rollback(h: &Shared<Self>) -> Result<()> {
            h.rollback()
        }
    }

    fn taught<E: Engine>(h: &Shared<E>, x: &str, y: &str) -> Truth {
        h.truth(h.resolve("teach").unwrap(), &v(x), &v(y)).unwrap()
    }

    /// Parks a thread inside the engine lock; returns once it is held.
    /// Dropping (or sending on) the sender lets the holder go.
    fn hold_engine<E: Engine>(h: &Shared<E>) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let holder = h.clone();
        let (held_tx, held_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            holder
                .with(|_engine| {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
                .unwrap();
        });
        held_rx.recv().unwrap();
        (release_tx, thread)
    }

    // --- the handle contract, generic over the engine ---

    fn clones_share_state<E: Engine>() {
        let shared = Shared::new(E::university());
        let other = shared.clone();
        E::teach(&shared, "euclid", "math").unwrap();
        assert_eq!(other.stats().unwrap().base_facts, 1);
        assert_eq!(taught(&other, "euclid", "math"), Truth::True);
        assert_eq!(other.policy(), OverloadPolicy::default());
    }

    fn pin_is_frozen<E: Engine>() {
        let shared = Shared::new(E::university());
        let teach = shared.resolve("teach").unwrap();
        E::teach(&shared, "euclid", "math").unwrap();
        let pin = shared.pin();
        let stamp = pin.version();
        E::teach(&shared, "gauss", "algebra").unwrap();
        assert_eq!(
            pin.truth(teach, &v("gauss"), &v("algebra")).unwrap(),
            Truth::False
        );
        assert_eq!(pin.version(), stamp);
        assert!(shared.pin().version() > stamp);
    }

    /// A stuck engine lock sheds writers with the typed error after the
    /// policy's timeout, never delays a reader, and recovers.
    fn stuck_lock_sheds<E: Engine>() -> Shared<E> {
        let shared = Shared::with_policy(E::university(), tight(20, 8));
        E::teach(&shared, "euclid", "math").unwrap();
        let (release, hold) = hold_engine(&shared);
        match E::teach(&shared, "gauss", "algebra").unwrap_err() {
            FdbError::Overloaded { what, waited_ms } => {
                assert_eq!(what, "database write lock");
                assert!(waited_ms >= 20);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Reads proceed against the last published state meanwhile.
        let t0 = Instant::now();
        assert_eq!(taught(&shared, "euclid", "math"), Truth::True);
        assert_eq!(taught(&shared, "gauss", "algebra"), Truth::False);
        assert!(shared.stats().is_ok());
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "snapshot read stalled behind the engine lock: {:?}",
            t0.elapsed()
        );
        drop(release);
        hold.join().unwrap();
        // Lock released: the shed write was not executed, a retry lands.
        E::teach(&shared, "gauss", "algebra").unwrap();
        assert_eq!(shared.stats().unwrap().base_facts, 2);
        shared
    }

    fn open_transaction_is_invisible<E: Engine>() {
        let shared = Shared::new(E::university());
        let teach = shared.resolve("teach").unwrap();
        E::begin(&shared).unwrap();
        E::teach(&shared, "euclid", "math").unwrap();
        // The write path sees its own uncommitted journal…
        let live = shared.with(|e| e.as_ref().truth(teach, &v("euclid"), &v("math")));
        assert_eq!(live.unwrap().unwrap(), Truth::True);
        // …while snapshot readers still see the pre-BEGIN state.
        assert_eq!(taught(&shared, "euclid", "math"), Truth::False);
        E::commit(&shared).unwrap();
        // Commit publishes atomically.
        assert_eq!(taught(&shared, "euclid", "math"), Truth::True);

        // A rolled-back transaction never becomes visible.
        E::begin(&shared).unwrap();
        E::teach(&shared, "noether", "rings").unwrap();
        assert_eq!(taught(&shared, "noether", "rings"), Truth::False);
        E::rollback(&shared).unwrap();
        assert_eq!(taught(&shared, "noether", "rings"), Truth::False);
    }

    fn try_unwrap_returns_engine<E: Engine>() {
        let shared = Shared::new(E::university());
        let clone = shared.clone();
        let shared = match shared.try_unwrap() {
            Err(handle) => handle, // clone still alive
            Ok(_) => panic!("should not unwrap with two handles"),
        };
        E::teach(&clone, "euclid", "math").unwrap();
        drop(clone);
        let pin = shared.pin(); // a pin does not keep the engine alive
        let engine = shared.try_unwrap().expect("last handle unwraps");
        assert!(engine.as_ref().is_consistent());
        assert_eq!(engine.as_ref().stats().base_facts, 1);
        assert_eq!(pin.stats().base_facts, 1);
    }

    fn gate_rejects_writer_n_plus_1<E: Engine>() {
        let shared = Shared::with_policy(E::university(), tight(500, 1));
        let (release, hold) = hold_engine(&shared); // one writer in flight = at capacity
        let t0 = Instant::now();
        let err = E::teach(&shared, "euclid", "math").unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "gate rejection must be immediate, waited {:?}",
            t0.elapsed()
        );
        match err {
            FdbError::Overloaded { what, waited_ms } => {
                assert_eq!(what, "write admission gate");
                assert_eq!(waited_ms, 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(release);
        hold.join().unwrap();
        E::teach(&shared, "euclid", "math").unwrap();
        assert_eq!(shared.stats().unwrap().base_facts, 1);
    }

    /// Three governors: past its deadline, cancelled, healthy.
    fn governors() -> [Governor; 3] {
        let expired = Governor::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        let cancelled = Governor::unbounded();
        cancelled.cancel_token().cancel();
        let healthy = Governor::with_deadline(Duration::from_secs(10));
        [expired, cancelled, healthy]
    }

    /// A stopped governor sheds a write before it touches gate or lock.
    fn governed_write_is_shed_up_front<E: Engine>() {
        let shared = Shared::new(E::university());
        let [expired, cancelled, healthy] = governors();
        let mut ran = 0;
        assert!(matches!(
            shared.with_governed(&expired, |_| ran += 1),
            Err(FdbError::DeadlineExceeded(_))
        ));
        assert!(matches!(
            shared.with_governed(&cancelled, |_| ran += 1),
            Err(FdbError::Cancelled)
        ));
        shared.with_governed(&healthy, |_| ran += 1).unwrap();
        assert_eq!(ran, 1);
    }

    fn governed_read_is_shed_up_front<E: Engine>() {
        let shared = Shared::new(E::university());
        let [expired, cancelled, healthy] = governors();
        assert!(matches!(
            shared.read_governed(&expired, |db| db.stats()),
            Err(FdbError::DeadlineExceeded(_))
        ));
        assert!(matches!(
            shared.read_governed(&cancelled, |db| db.stats()),
            Err(FdbError::Cancelled)
        ));
        assert!(shared.read_governed(&healthy, |db| db.stats()).is_ok());
    }

    /// The governor is consulted again under the lock: a request stopped
    /// while it waited for the engine does not run its closure. (A
    /// cancellation, because a deadline also clamps the wait itself.)
    fn governed_write_stopped_in_the_lock_wait_never_runs<E: Engine>() {
        let shared = Shared::with_policy(E::university(), tight(5_000, 8));
        let (release, hold) = hold_engine(&shared);
        let gov = Governor::unbounded();
        let token = gov.cancel_token();
        let waiter = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.with_governed(&gov, |_| "ran"))
        };
        // Holder + waiter are both past the gate: the waiter has checked
        // its governor once and is now waiting for the lock.
        while shared.inner.gate.load(Ordering::Acquire) < 2 {
            std::thread::yield_now();
        }
        token.cancel();
        drop(release);
        hold.join().unwrap();
        match waiter.join().unwrap() {
            Err(FdbError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    fn pin_during_a_write_is_a_stale_read<E: Engine>() {
        let shared = Shared::new(E::university());
        let stale = || fdb_obs::registry().mvcc_stale_snapshot_reads.get();
        // Under the engine lock…
        let moved = shared.with(|_| {
            let before = stale();
            shared.pin();
            stale() - before
        });
        assert!(moved.unwrap() >= 1);
        // …and admitted but off the lock (where a grouped writer waits
        // for its fsync).
        let mut moved = 0;
        let off_lock = |_seq: u64| {
            let before = stale();
            shared.pin();
            moved = stale() - before;
            Ok(())
        };
        shared
            .write_path(None, |_| ((), Some(0)), off_lock)
            .unwrap();
        assert!(moved >= 1);
    }

    macro_rules! contract {
        ($($case:ident: $in_memory:ident, $durable:ident;)*) => {$(
            #[test]
            fn $in_memory() {
                $case::<Database>();
            }
            #[test]
            fn $durable() {
                $case::<LoggedDatabase>();
            }
        )*};
    }

    contract! {
        clones_share_state: handles_share_state, durable_handles_share_state;
        pin_is_frozen: pinned_snapshot_is_frozen, durable_pinned_snapshot_is_frozen;
        open_transaction_is_invisible:
            uncommitted_transaction_is_invisible_in_memory,
            uncommitted_transaction_is_invisible_to_readers;
        try_unwrap_returns_engine:
            try_unwrap_returns_database_when_unique, try_unwrap_returns_logged_database_when_unique;
        gate_rejects_writer_n_plus_1:
            admission_gate_rejects_excess_writers, durable_admission_gate_rejects_excess_writers;
        governed_write_is_shed_up_front:
            governed_write_respects_deadline_and_cancel,
            durable_governed_write_respects_deadline_and_cancel;
        governed_read_is_shed_up_front:
            read_governed_sheds_on_expired_deadline, durable_read_governed_sheds_on_expired_deadline;
        governed_write_stopped_in_the_lock_wait_never_runs:
            in_memory_governed_write_stopped_in_the_lock_wait_never_runs,
            durable_governed_write_stopped_in_the_lock_wait_never_runs;
        pin_during_a_write_is_a_stale_read:
            in_memory_pin_during_a_write_is_a_stale_read,
            durable_pin_during_a_write_is_a_stale_read;
    }

    #[test]
    fn write_sheds_instead_of_blocking_forever() {
        stuck_lock_sheds::<Database>();
    }

    #[test]
    fn logged_handle_sheds_when_lock_is_stuck() {
        let shared = stuck_lock_sheds::<LoggedDatabase>();
        // sync under an expired deadline is refused up front.
        let gov = Governor::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            shared.sync_governed(&gov),
            Err(FdbError::DeadlineExceeded(_))
        ));
        shared.sync().unwrap();
    }

    // --- the in-memory handle ---

    #[test]
    fn concurrent_writers_and_readers() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        let class_list = shared.resolve("class_list").unwrap();
        let mut handles = Vec::new();
        for w in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    h.insert(teach, v(&format!("prof{w}_{i}")), v(&format!("c{i}")))
                        .unwrap();
                    h.insert(class_list, v(&format!("c{i}")), v(&format!("s{w}_{i}")))
                        .unwrap();
                }
            }));
        }
        for r in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                let pupil = h.resolve("pupil").unwrap();
                for i in 0..50 {
                    let _ = h
                        .truth(pupil, &v(&format!("prof{r}_{i}")), &v(&format!("s{r}_{i}")))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.stats().unwrap().base_facts, 4 * 50 * 2);
        assert!(shared.is_consistent());
    }

    #[test]
    fn reads_never_wait_for_a_writer_holding_the_lock() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        shared.insert(teach, v("euclid"), v("math")).unwrap();

        let holder = shared.clone();
        let (tx, rx) = mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .with(|db| {
                    db.insert(teach, v("gauss"), v("algebra")).unwrap();
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(200));
                })
                .unwrap();
        });
        rx.recv().unwrap(); // writer is inside the write lock
        let t0 = Instant::now();
        // The read completes immediately against the last *published*
        // state: euclid is visible, the in-flight gauss is not.
        assert_eq!(taught(&shared, "euclid", "math"), Truth::True);
        assert_eq!(taught(&shared, "gauss", "algebra"), Truth::False);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "snapshot read stalled behind a writer: {:?}",
            t0.elapsed()
        );
        hold.join().unwrap();
        // After the write completed, its state is published.
        assert_eq!(taught(&shared, "gauss", "algebra"), Truth::True);
    }

    #[test]
    fn atomic_batches_under_sharing() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        let err = shared.apply_all(vec![
            Update::Insert {
                function: teach,
                x: v("a"),
                y: v("b"),
            },
            Update::Insert {
                function: teach,
                x: Value::Null(fdb_types::NullId(1)),
                y: v("boom"),
            },
        ]);
        assert!(err.is_err());
        assert_eq!(shared.stats().unwrap().base_facts, 0);
    }

    #[test]
    fn retry_on_overload_note_reads_inside_with_see_live_state() {
        // `with` closures read the live database (their own uncommitted
        // journal included); `read` closures see the published snapshot.
        // After any completed non-transactional `with`, the two agree.
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        shared.insert(teach, v("a"), v("b")).unwrap();
        let via_write = shared
            .with(|db| db.truth(teach, &v("a"), &v("b")).unwrap())
            .unwrap();
        let via_read = shared.truth(teach, &v("a"), &v("b")).unwrap();
        assert_eq!(via_write, via_read);
    }

    // --- the durable handle ---

    /// An autocommit write copies at most one row chunk, one bitmap block
    /// and the delta of each index of the table it writes — no index
    /// base; everything else stays shared with the snapshot published
    /// before it.
    #[test]
    fn autocommit_write_detaches_one_chunk_and_the_index_deltas() {
        let shared = SharedLoggedDatabase::new(logged_university(
            Arc::new(SimDisk::new()),
            "/cow_db",
            DurabilityConfig::default(),
        ));
        for i in 0..3 * fdb_storage::table::CHUNK_ROWS + 5 {
            let (course, student) = (format!("c{}", i % 40), format!("s{i}"));
            shared
                .insert("class_list", v(&course), v(&student))
                .unwrap();
        }
        let before = shared.pin();
        shared.insert("class_list", v("c7"), v("fresh")).unwrap();
        let after = shared.pin();
        let unshared = |f: &str| {
            let f = shared.resolve(f).unwrap();
            after.store().unshared_with(before.store(), f)
        };
        let written = unshared("class_list");
        assert!(
            written.chunks <= 1
                && written.alive_blocks <= 1
                && written.index_bases == 0
                && written.index_deltas <= 3
                && written.null_lists == 0,
            "{written:?}"
        );
        for f in ["teach", "pupil"] {
            assert_eq!(unshared(f), fdb_storage::Unshared::default());
        }
    }

    #[test]
    fn shared_logged_writers_replay_to_live_state() {
        let disk = Arc::new(SimDisk::new());
        let shared = SharedLoggedDatabase::new(logged_university(
            disk.clone(),
            "/shared_db",
            DurabilityConfig {
                sync_policy: SyncPolicy::EveryN(16),
                checkpoint_every: Some(64),
                segment_max_bytes: 4096,
            },
        ));

        let mut handles = Vec::new();
        for w in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    h.insert("teach", v(&format!("prof{w}_{i}")), v(&format!("c{i}")))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(shared.is_consistent());
        let live = shared.read(|db| db.to_snapshot().unwrap());
        drop(shared.try_unwrap().expect("last handle"));

        let (recovered, _) =
            LoggedDatabase::open_with(disk, "/shared_db", DurabilityConfig::default()).unwrap();
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    }

    #[test]
    fn grouped_writes_are_durable_when_acknowledged() {
        let disk = Arc::new(SimDisk::new());
        let shared = SharedLoggedDatabase::new(logged_university(
            disk.clone(),
            "/group_db",
            DurabilityConfig::default(), // SyncPolicy::Always → grouped
        ));
        let mut handles = Vec::new();
        for w in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    h.insert("teach", v(&format!("p{w}_{i}")), v(&format!("c{i}")))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let live = shared.read(|db| db.to_snapshot().unwrap());
        // No explicit sync, no graceful close: drop the engine cold. Every
        // acknowledged write must already be durable.
        drop(shared.try_unwrap().expect("last handle"));
        let (recovered, _) =
            LoggedDatabase::open_with(disk, "/group_db", DurabilityConfig::default()).unwrap();
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
        assert_eq!(recovered.database().stats().base_facts, 40);
    }

    #[test]
    fn group_fsync_failure_surfaces_to_the_writer() {
        let disk = Arc::new(SimDisk::new());
        let shared = SharedLoggedDatabase::new(logged_university(
            disk.clone(),
            "/gfail_db",
            DurabilityConfig::default(),
        ));
        disk.fail_sync(1);
        assert!(shared.insert("teach", v("euclid"), v("math")).is_err());
        // The disk healed: later writes succeed and are durable.
        shared.insert("teach", v("gauss"), v("algebra")).unwrap();
        assert_eq!(taught(&shared, "gauss", "algebra"), Truth::True);
    }

    /// `Overloaded` means "not executed". A grouped write whose record is
    /// already applied and appended when its leader's re-lock for the
    /// batched fsync is shed must report unknown durability instead.
    #[test]
    fn shed_group_fsync_is_not_reported_as_overloaded() {
        let shared = SharedLoggedDatabase::with_policy(LoggedDatabase::university(), tight(200, 8));
        let teach = shared.resolve("teach").unwrap();
        let sheds = || fdb_obs::registry().governor_overload_sheds.get();
        let stale = || fdb_obs::registry().mvcc_stale_snapshot_reads.get();

        // A stand-in leader occupies the coordinator (without the engine
        // lock), so the writer below queues up behind it as a follower.
        let (release_leader, leader_go) = mpsc::channel::<()>();
        let (leading_tx, leading) = mpsc::channel::<()>();
        let stand_in = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let stalled = || {
                    leading_tx.send(()).unwrap();
                    let _ = leader_go.recv();
                    (0, Err(FdbError::Internal("stand-in leader".to_owned())))
                };
                let timeout = Duration::from_secs(5);
                assert!(shared
                    .inner
                    .group
                    .sync_to(u64::MAX, timeout, stalled)
                    .is_err());
            })
        };
        leading.recv().unwrap();
        let writer = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.insert("teach", v("euclid"), v("math")))
        };
        // Park on the engine lock once the writer's record is applied…
        let engine = loop {
            let engine = shared.inner.engine.lock();
            if engine
                .database()
                .truth(teach, &v("euclid"), &v("math"))
                .unwrap()
                == Truth::True
            {
                break engine;
            }
            drop(engine);
            std::thread::yield_now();
        };
        // (the writer is in flight — off the lock, awaiting its fsync —
        // so this pin is a stale read; its write is not visible yet)
        let (stale_before, sheds_before) = (stale(), sheds());
        assert_eq!(taught(&shared, "euclid", "math"), Truth::False);
        assert!(stale() > stale_before);
        // …then let the stand-in fail: the writer takes over as leader
        // and its re-lock is shed.
        drop(release_leader);
        stand_in.join().unwrap();
        let err = writer.join().unwrap().unwrap_err();
        assert!(
            !matches!(err, FdbError::Overloaded { .. }),
            "an applied and appended write reported as not executed: {err:?}"
        );
        assert!(
            err.to_string().contains("wal: group fsync covering seq"),
            "{err}"
        );
        assert!(sheds() > sheds_before, "the shed re-lock is still counted");
        // The fact is in the live database (and in the log: the next
        // write's fsync covers it and publishes both).
        assert_eq!(
            engine
                .database()
                .truth(teach, &v("euclid"), &v("math"))
                .unwrap(),
            Truth::True
        );
        drop(engine);
        shared.insert("teach", v("gauss"), v("algebra")).unwrap();
        assert_eq!(taught(&shared, "euclid", "math"), Truth::True);
    }

    #[test]
    fn retry_on_overload_waits_out_a_stuck_lock() {
        let shared = SharedLoggedDatabase::with_policy(LoggedDatabase::university(), tight(10, 8));
        let hold_for = |ms: u64| {
            let (release, hold) = hold_engine(&shared);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(ms));
                drop(release);
                hold.join().unwrap();
            })
        };
        let hold = hold_for(80); // lock held: first attempts will be shed
        let gov = Governor::with_deadline(Duration::from_secs(5));
        shared
            .retry_on_overload(&gov, 16, |ldb| ldb.insert("teach", v("euclid"), v("math")))
            .unwrap();
        hold.join().unwrap();
        assert_eq!(shared.stats().unwrap().base_facts, 1);

        // Zero remaining deadline: the retry loop refuses to sleep and
        // surfaces the overload instead.
        let hold = hold_for(80);
        let gov = Governor::with_deadline(Duration::from_millis(15));
        let err = shared
            .retry_on_overload(&gov, 16, |ldb| ldb.insert("teach", v("gauss"), v("math")))
            .unwrap_err();
        assert!(err.is_governed_stop(), "got {err:?}");
        hold.join().unwrap();
    }
}
