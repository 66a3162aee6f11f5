//! The durable database engine: segmented WAL, checkpoints, sync policy.
//!
//! [`LoggedDatabase`] couples a live [`Database`] to a directory of v2
//! WAL segments plus an atomically installed checkpoint:
//!
//! * every successful mutation is appended to the current segment;
//! * segments rotate once they pass
//!   [`DurabilityConfig::segment_max_bytes`];
//! * every [`DurabilityConfig::checkpoint_every`] records (or on demand)
//!   the whole database is encoded once into a binary, checksummed
//!   snapshot, written to a temp file, synced, atomically renamed over
//!   `checkpoint.snap`, the directory entry is synced, and the replayed
//!   segments are removed — recovery is then
//!   *latest checkpoint + replay of the remaining suffix*;
//! * [`SyncPolicy`] decides when appends are fsynced: every record,
//!   every N records, or only at checkpoints.
//!
//! The byte layout of all of this belongs to [`crate::wal`]; this module
//! decides *when* to append, sync, rotate and checkpoint.
//!
//! **One write path.** [`LoggedDatabase`] is a log in front of a
//! [`Database`]: every verb is one call of a crate-private `write` with
//! the record it logs. `write` takes the record's live effect, appends the
//! record, syncs it as its kind requires, and runs the housekeeping
//! (rotation, automatic checkpoint), which waits while a frame is open.
//! The database's undo journal is the only "transaction open" flag; the
//! log keeps only the frame-id counter.
//!
//! | record | live effect | effect vs. append | sync | counts | housekeeping |
//! |---|---|---|---|---|---|
//! | `Declare` `Derive` `Insert` `Delete` `Replace` | [`apply_record`] | before | by [`SyncPolicy`]; under `Always` left to the caller on the group-commit path | yes | yes |
//! | `TxnBegin` | `txn_begin` | before; undone if the append fails | none | no | waits |
//! | `TxnSavepoint` `TxnRollbackTo` | `txn_savepoint` / `txn_rollback_to` | before | none | no | waits |
//! | `TxnAbort` | `txn_rollback` | before | none | no | yes |
//! | `TxnCommit` | `txn_commit` | after its fsync | forced | no | yes |
//! | `NewTerm` | the term is adopted | after its fsync | forced | no | no |
//!
//! "Counts" means the record moves `unsynced` (toward
//! [`SyncPolicy::EveryN`]) and `since_checkpoint` (toward
//! [`DurabilityConfig::checkpoint_every`]). A record the database refuses
//! is not logged; misuse errors are the database's own. If the append (or
//! a forced fsync) fails while a frame is open, the frame is rolled back, a
//! revoking `TxnAbort` is appended best-effort, and the error is
//! [`FdbError::TxnAborted`], except for `BEGIN`'s own append, which undoes
//! the begin and returns the raw error. A data record's failed fsync
//! is returned as it is, and the frame stays open: the commit's fsync
//! covers the record.
//!
//! Recovery ([`LoggedDatabase::open_with`]) is [`walk_log`] followed by
//! [`LogWalk::repair`](crate::wal::LogWalk::repair): it salvages rather
//! than fails, and the [`RecoveryReport`] says exactly what happened.
//!
//! For compatibility, opening a *file* path (rather than a directory)
//! recovers a legacy single-file log — including v1 plain-JSON logs —
//! and keeps appending to it in its own format, without checkpoints.

use std::path::Path;
use std::sync::Arc;

use fdb_types::{FdbError, Functionality, Result, Value};

use crate::database::Database;
use crate::storage::{FileStorage, WalStorage};
use crate::update::Update;
use crate::wal::{
    apply_record, checkpoint_len, clear_log, initial_term, install_checkpoint, io_err,
    list_segments, walk_log, CheckpointInfo, LogRecord, RecoveryReport, Wal,
};

/// When appended records are fsynced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record: no acknowledged record is ever lost.
    #[default]
    Always,
    /// Sync after every `n` records: bounded loss window, higher
    /// throughput.
    EveryN(u32),
    /// Sync only when a checkpoint is taken (or [`LoggedDatabase::sync`]
    /// is called explicitly): fastest, weakest.
    OnCheckpoint,
}

/// Tuning knobs for [`LoggedDatabase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When appends are fsynced.
    pub sync_policy: SyncPolicy,
    /// Take a checkpoint every this many records; `None` checkpoints
    /// only on explicit [`LoggedDatabase::checkpoint`] calls.
    pub checkpoint_every: Option<u64>,
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes.
    pub segment_max_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_policy: SyncPolicy::Always,
            checkpoint_every: Some(1024),
            segment_max_bytes: 256 * 1024,
        }
    }
}

/// A database coupled to a write-ahead log: every successful mutation is
/// logged, so the on-disk state always reconstructs the in-memory state.
#[derive(Debug)]
pub struct LoggedDatabase {
    db: Database,
    storage: Arc<dyn WalStorage>,
    wal: Wal,
    config: DurabilityConfig,
    /// Seq covered by the last installed checkpoint (0 = none).
    checkpoint_seq: u64,
    /// Data records appended since the last sync.
    unsynced: u32,
    /// Data records appended since the last checkpoint.
    since_checkpoint: u64,
    /// `true` when operating on a legacy single-file log (no rotation,
    /// no checkpoints).
    legacy: bool,
    /// Id of the next transaction frame. While the database has a
    /// transaction open, its frame's id is one less.
    next_txn_id: u64,
    /// Current replication term (epoch). Starts at 1; failover promotion
    /// bumps it via [`LoggedDatabase::start_term`], stamping a
    /// [`LogRecord::NewTerm`] into the log so shipped batches carry the
    /// new term and a resurrected old primary's frames are rejected.
    term: u64,
}

impl AsRef<Database> for LoggedDatabase {
    fn as_ref(&self) -> &Database {
        &self.db
    }
}

impl LoggedDatabase {
    /// Creates a fresh logged database in `dir` (a directory; created if
    /// absent, existing log state cleared) on the real filesystem with
    /// default durability settings.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self> {
        LoggedDatabase::create_with(
            Arc::new(FileStorage),
            dir.as_ref(),
            DurabilityConfig::default(),
        )
    }

    /// [`LoggedDatabase::create`] with explicit storage and config.
    pub fn create_with(
        storage: Arc<dyn WalStorage>,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_owned();
        storage
            .create_dir_all(&dir)
            .map_err(|e| io_err("create dir", e))?;
        // Truncating create: clear any previous log state.
        clear_log(storage.as_ref(), &dir)?;
        let wal = Wal::create_segment(Arc::clone(&storage), &dir, 1)?;
        Ok(LoggedDatabase {
            db: Database::new(fdb_types::Schema::new()),
            storage,
            wal,
            config,
            checkpoint_seq: 0,
            unsynced: 0,
            since_checkpoint: 0,
            legacy: false,
            next_txn_id: 1,
            term: initial_term(),
        })
    }

    /// Recovers the database from an existing log directory (or legacy
    /// single-file log) and reopens it for appending. Returns the
    /// recovery report alongside.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport)> {
        LoggedDatabase::open_with(
            Arc::new(FileStorage),
            path.as_ref(),
            DurabilityConfig::default(),
        )
    }

    /// [`LoggedDatabase::open`] with explicit storage and config.
    pub fn open_with(
        storage: Arc<dyn WalStorage>,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let path = path.as_ref();
        let recovery_span =
            fdb_obs::causal::root_span("fdb.recovery.run", || format!("log={}", path.display()));
        // A file is a legacy single-file log (v1 or single-segment v2):
        // recovered the same way, continued in its own format.
        let legacy = storage.is_file(path);
        if !legacy {
            storage
                .create_dir_all(path)
                .map_err(|e| io_err("create dir", e))?;
        }
        let mut walk = walk_log(storage.as_ref(), path)?;
        let mut wal = walk.repair(&storage)?;
        // A frame still open at the end of the log lost its commit to
        // the crash. Close it on disk so post-recovery appends are not
        // swallowed into the dead transaction by the *next* recovery.
        if let Some(id) = walk.replayer.open_txn_id() {
            wal.append(&LogRecord::TxnAbort { id })?;
            wal.sync()?;
        }
        let term = walk.term;
        let (db, report) = walk.finish()?;
        recovery_span.annotate("applied", report.applied);
        recovery_span.annotate("discarded", report.uncommitted_discarded);
        recovery_span.annotate("corruption", report.corruption.len());
        drop(recovery_span);
        Ok((
            LoggedDatabase {
                db,
                storage,
                next_txn_id: wal.next_seq(),
                wal,
                config,
                checkpoint_seq: report.checkpoint_seq.unwrap_or(0),
                unsynced: 0,
                since_checkpoint: 0,
                legacy,
                term,
            },
            report,
        ))
    }

    /// Read access to the live database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Consumes the logged database, returning the in-memory database
    /// (the log directory is left intact on disk).
    pub fn into_database(self) -> Database {
        self.db
    }

    /// The log directory (or the legacy file's parent).
    pub fn dir(&self) -> &Path {
        self.wal.dir()
    }

    /// The storage layer this log writes through (a replication source
    /// over the same directory must read through the same storage).
    pub fn storage(&self) -> Arc<dyn WalStorage> {
        Arc::clone(&self.storage)
    }

    /// Current durability configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Changes when appends are fsynced, effective immediately.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.config.sync_policy = policy;
    }

    /// Sequence number of the last logged record (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.wal.next_seq() - 1
    }

    /// Sequence number covered by the last installed checkpoint (0 if
    /// none).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// The replication term (epoch) this log is writing under. 1 until a
    /// failover promotion bumps it.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Starts a new replication term: appends a durable
    /// [`LogRecord::NewTerm`] and adopts `term` for all subsequent
    /// records. Refused unless `term` is strictly greater than the
    /// current one (terms are a fence, not a clock to rewind) or while a
    /// transaction frame is open.
    pub fn start_term(&mut self, term: u64) -> Result<()> {
        self.write(LogRecord::NewTerm { term }, false)
    }

    /// The one write path (the table in the module doc, row by row):
    /// takes `record`'s live effect, appends it, syncs it as its kind
    /// requires and runs the housekeeping. `caller_syncs` leaves a data
    /// record's [`SyncPolicy::Always`] fsync to the caller, the shared
    /// handle's group commit, which must make the record durable before
    /// it acknowledges the write.
    pub(crate) fn write(&mut self, record: LogRecord, caller_syncs: bool) -> Result<()> {
        let forced = matches!(
            record,
            LogRecord::TxnCommit { .. } | LogRecord::NewTerm { .. }
        );
        match &record {
            LogRecord::TxnBegin { .. } => {
                self.db.txn_begin()?;
                self.next_txn_id += 1;
            }
            LogRecord::TxnSavepoint { name } => self.db.txn_savepoint(name)?,
            LogRecord::TxnRollbackTo { name } => self.db.txn_rollback_to(name)?,
            LogRecord::TxnAbort { .. } => self.db.txn_rollback()?,
            // With no frame open, this is the database's misuse error and
            // changes nothing.
            LogRecord::TxnCommit { .. } if !self.db.txn_active() => return self.db.txn_commit(),
            LogRecord::NewTerm { term } if *term <= self.term => {
                return Err(FdbError::Internal(format!(
                    "wal: cannot start term {term}: current term is {}",
                    self.term
                )));
            }
            LogRecord::NewTerm { .. } if self.db.txn_active() => {
                return Err(FdbError::TxnControl(
                    "cannot start a term inside an open transaction".to_owned(),
                ));
            }
            LogRecord::TxnCommit { .. } | LogRecord::NewTerm { .. } => {}
            data => apply_record(&mut self.db, data)?,
        }
        let appended = self
            .wal
            .append(&record)
            .and_then(|_| if forced { self.sync() } else { Ok(()) });
        if let Err(e) = appended {
            return Err(match record {
                // Nothing of the frame reached the log.
                LogRecord::TxnBegin { .. } => {
                    let _ = self.db.txn_rollback();
                    e
                }
                _ if self.db.txn_active() => self.abort_after_failure(e),
                _ => e,
            });
        }
        match record {
            LogRecord::TxnCommit { .. } => self.db.txn_commit()?,
            LogRecord::NewTerm { term } => {
                self.term = term;
                return Ok(());
            }
            _ if record.is_txn_marker() => {}
            _ => {
                self.unsynced += 1;
                self.since_checkpoint += 1;
                let due = match self.config.sync_policy {
                    SyncPolicy::Always => !caller_syncs,
                    SyncPolicy::EveryN(n) => self.unsynced >= n,
                    SyncPolicy::OnCheckpoint => false,
                };
                if due {
                    self.sync()?;
                }
            }
        }
        self.maintain()
    }

    /// Id of the open transaction frame (meaningless when none is open).
    fn frame_id(&self) -> u64 {
        self.next_txn_id - 1
    }

    /// Rotation / checkpoint housekeeping, deferred while a transaction
    /// frame is open so a frame never straddles a checkpoint.
    fn maintain(&mut self) -> Result<()> {
        if self.legacy || self.db.txn_active() {
            return Ok(());
        }
        if self.wal.len() >= self.config.segment_max_bytes {
            self.rotate()?;
        }
        if let Some(every) = self.config.checkpoint_every {
            if self.since_checkpoint >= every {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Rolls the open transaction back after an append or commit-fsync
    /// failure and wraps the failure as [`FdbError::TxnAborted`]. A
    /// revoking [`LogRecord::TxnAbort`] is appended best-effort: if the
    /// failed write left a `TxnCommit` marker of unknown durability on
    /// disk, the abort supersedes it (the replayer holds a commit back
    /// one record for exactly this), keeping recovery in agreement with
    /// the rolled-back live state. If even the abort cannot be written,
    /// the frame stays unclosed and recovery discards it.
    fn abort_after_failure(&mut self, cause: FdbError) -> FdbError {
        let id = self.frame_id();
        if self.wal.append(&LogRecord::TxnAbort { id }).is_ok() {
            let _ = self.sync();
        }
        match self.db.txn_rollback() {
            Ok(()) => FdbError::TxnAborted {
                savepoint: None,
                cause: Box::new(cause),
            },
            Err(e) => e,
        }
    }

    /// Closes the current segment and starts a fresh one.
    fn rotate(&mut self) -> Result<()> {
        self.wal.rotate(&self.storage)?;
        self.unsynced = 0;
        fdb_obs::registry().wal_rotations.inc();
        Ok(())
    }

    /// Takes a checkpoint now: syncs the log, writes the full snapshot
    /// to a temp file, atomically installs it (rename + directory sync),
    /// then removes the segments it covers.
    ///
    /// Legacy single-file logs cannot checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.legacy {
            return Err(FdbError::Internal(
                "wal: legacy single-file log cannot checkpoint; migrate to a log directory"
                    .to_owned(),
            ));
        }
        if self.db.txn_active() {
            return Err(FdbError::TxnControl(
                "cannot checkpoint inside an open transaction".to_owned(),
            ));
        }
        let started = std::time::Instant::now();
        // Rare and load-bearing, like recovery: traced whenever tracing
        // is on, whether or not the triggering statement was sampled.
        let mut span = fdb_obs::causal::root_span("fdb.core.checkpoint", String::new);
        let bytes = match self.write_checkpoint() {
            Ok(bytes) => bytes,
            Err(e) => {
                span.set_error();
                return Err(e);
            }
        };
        span.annotate("seq", self.checkpoint_seq);
        span.annotate("bytes", bytes);
        drop(span);
        let reg = fdb_obs::registry();
        reg.wal_checkpoints.inc();
        reg.wal_checkpoint_bytes.add(bytes);
        reg.wal_checkpoint_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// The three steps of a checkpoint, each under its own span: encode
    /// the snapshot, install the file, prune the log it covers. Returns
    /// the size of the installed file.
    fn write_checkpoint(&mut self) -> Result<u64> {
        use fdb_obs::causal::child_span;
        self.sync()?;
        let seq = self.last_seq();
        let info = {
            let _span = child_span("fdb.core.checkpoint.encode", String::new);
            CheckpointInfo {
                seq,
                term: self.term,
                snapshot: self.db.to_snapshot()?,
            }
        };
        {
            let _span = child_span("fdb.core.checkpoint.install", String::new);
            install_checkpoint(self.storage.as_ref(), self.dir(), &info)?;
        }
        // Everything up to `seq` is now covered: rotate to a fresh
        // segment and drop the replayed ones.
        let _span = child_span("fdb.core.checkpoint.prune", String::new);
        self.rotate()?;
        for (_, path) in list_segments(self.storage.as_ref(), self.dir())? {
            if path != self.wal.path() {
                self.storage
                    .remove(&path)
                    .map_err(|e| io_err("remove replayed segment", e))?;
            }
        }
        self.storage
            .sync_dir(self.dir())
            .map_err(|e| io_err("sync dir", e))?;
        self.checkpoint_seq = seq;
        self.since_checkpoint = 0;
        Ok(checkpoint_len(info.snapshot.len()))
    }

    // ------------------------------------------------------ transactions

    /// Whether a logged transaction frame is open.
    pub fn txn_active(&self) -> bool {
        self.db.txn_active()
    }

    /// Opens a transaction frame: a `TxnBegin` marker is logged and the
    /// live database starts journaling for rollback. Until
    /// [`LoggedDatabase::commit`], recovery treats every logged record as
    /// tentative — a crash lands back on the pre-`BEGIN` state.
    pub fn begin(&mut self) -> Result<()> {
        let id = self.next_txn_id;
        self.write(LogRecord::TxnBegin { id }, false)
    }

    /// Sets (or replaces) a named savepoint inside the open transaction.
    pub fn savepoint(&mut self, name: &str) -> Result<()> {
        let name = name.to_owned();
        self.write(LogRecord::TxnSavepoint { name }, false)
    }

    /// Rolls the open transaction back to a named savepoint, which stays
    /// set. The partial rollback is logged so recovery of a later commit
    /// replays exactly the surviving records.
    pub fn rollback_to(&mut self, name: &str) -> Result<()> {
        let name = name.to_owned();
        self.write(LogRecord::TxnRollbackTo { name }, false)
    }

    /// Rolls the whole open transaction back: the live database returns
    /// to its pre-`BEGIN` state and a `TxnAbort` marker closes the frame
    /// on disk. If the marker fails to append, the frame stays unclosed
    /// on disk and recovery discards it: consistent either way.
    pub fn rollback(&mut self) -> Result<()> {
        let id = self.frame_id();
        self.write(LogRecord::TxnAbort { id }, false)
    }

    /// Commits the open transaction: a `TxnCommit` marker is logged and
    /// **force-fsynced regardless of the sync policy** — the commit is
    /// the durability point — then the live journal is discarded and any
    /// deferred rotation / checkpoint housekeeping runs. If the marker
    /// cannot be made durable, the live state is rolled back too.
    pub fn commit(&mut self) -> Result<()> {
        let id = self.frame_id();
        self.write(LogRecord::TxnCommit { id }, false)
    }

    /// Declares a function (logged).
    pub fn declare(
        &mut self,
        name: &str,
        domain: &str,
        range: &str,
        functionality: Functionality,
    ) -> Result<()> {
        let record = LogRecord::Declare {
            name: name.to_owned(),
            domain: domain.to_owned(),
            range: range.to_owned(),
            functionality,
        };
        self.write(record, false)
    }

    /// Registers a derivation by step names (logged).
    pub fn derive(&mut self, name: &str, steps: &[(&str, bool)]) -> Result<()> {
        let steps = steps.iter().map(|(n, inv)| ((*n).to_owned(), *inv));
        let record = LogRecord::Derive {
            name: name.to_owned(),
            steps: steps.collect(),
        };
        self.write(record, false)
    }

    /// `INS` (logged).
    pub fn insert(&mut self, function: &str, x: Value, y: Value) -> Result<()> {
        let function = function.to_owned();
        self.write(LogRecord::Insert { function, x, y }, false)
    }

    /// `DEL` (logged).
    pub fn delete(&mut self, function: &str, x: Value, y: Value) -> Result<()> {
        let function = function.to_owned();
        self.write(LogRecord::Delete { function, x, y }, false)
    }

    /// `REP` (logged).
    pub fn replace(
        &mut self,
        function: &str,
        old: (Value, Value),
        new: (Value, Value),
    ) -> Result<()> {
        let function = function.to_owned();
        self.write(LogRecord::Replace { function, old, new }, false)
    }

    /// Applies one engine-level [`Update`] (logged).
    pub fn apply_update(&mut self, update: &Update) -> Result<()> {
        self.write(update_record(&self.db, update), false)
    }

    /// Replays another database's schema and derivations into this log,
    /// so the log is self-contained. The target must be
    /// freshly created.
    pub fn import_schema(&mut self, source: &Database) -> Result<()> {
        for f in source
            .base_functions()
            .into_iter()
            .chain(source.derived_functions())
        {
            let def = source.schema().function(f);
            self.declare(
                &def.name,
                source.schema().type_name(def.domain),
                source.schema().type_name(def.range),
                def.functionality,
            )?;
        }
        for f in source.derived_functions() {
            let def = source.schema().function(f);
            for d in source.derivations(f) {
                let steps: Vec<(&str, bool)> = d
                    .steps()
                    .iter()
                    .map(|s| {
                        (
                            source.schema().function(s.function).name.as_str(),
                            s.op == fdb_types::Op::Inverse,
                        )
                    })
                    .collect();
                self.derive(&def.name, &steps)?;
            }
        }
        Ok(())
    }

    /// Durably syncs the log.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// The log record of an engine-level [`Update`] on `db`: the function id
/// is resolved to its name, so the log stays id-independent.
pub(crate) fn update_record(db: &Database, update: &Update) -> LogRecord {
    let name = |f| db.schema().function(f).name.clone();
    match update {
        Update::Insert { function, x, y } => LogRecord::Insert {
            function: name(*function),
            x: x.clone(),
            y: y.clone(),
        },
        Update::Delete { function, x, y } => LogRecord::Delete {
            function: name(*function),
            x: x.clone(),
            y: y.clone(),
        },
        Update::Replace { function, old, new } => LogRecord::Replace {
            function: name(*function),
            old: old.clone(),
            new: new.clone(),
        },
    }
}

/// The group-commit coordinator: batches the WAL fsyncs of concurrent
/// autocommit writers into one physical `fsync`.
///
/// Protocol: each writer appends its record under the engine lock (with
/// the inline fsync deferred), notes the record's WAL sequence number,
/// releases the lock, and calls [`GroupCommit::sync_to`]. The first
/// writer to arrive becomes the **leader**: it re-acquires the engine
/// lock, reads the highest appended sequence, and performs one `fsync`
/// covering every record appended so far — its own and those of all
/// writers that piled up behind it. Followers wait on a condvar; when
/// the leader publishes the new durable watermark they return without
/// ever touching the disk. The WAL bytes are identical to the
/// sequential path (grouping changes *when* `fsync` runs, never what is
/// appended), so replication and recovery see the same frames.
///
/// Failure contract: if the leader's fsync fails or cannot run, or a
/// follower's wait times out, the writer gets one typed error (`wal:
/// group fsync covering seq N failed: …`) — the record is applied and
/// appended but its durability is unknown, the same contract as a failed
/// inline sync on the sequential path. It is never
/// [`FdbError::Overloaded`], which promises that nothing was executed.
/// Transactional `COMMIT` never routes through here: the commit marker
/// is force-fsynced synchronously (and revoked on failure), preserving
/// the invariant that recovery lands at pre-`BEGIN` or post-`COMMIT`.
#[derive(Debug, Default)]
pub struct GroupCommit {
    // std primitives (the vendored parking_lot shim has no Condvar);
    // poisoning is swallowed — a panicking leader must not wedge the
    // other committers, matching the shim's panic-tolerant contract.
    state: std::sync::Mutex<GroupState>,
    cv: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Highest WAL sequence known durable.
    synced: u64,
    /// A leader is currently running an fsync.
    leader_running: bool,
    /// Highest sequence covered by a failed fsync attempt (durability
    /// unknown). Only grows; a later successful sync supersedes it.
    failed_at: u64,
    /// Description of the most recent failed attempt.
    last_error: Option<String>,
    /// Causal span id of the leader fsync that last advanced `synced`
    /// (0 when that leader's statement was unsampled). Followers link
    /// their spans to it, so a trace shows *which* fsync covered them.
    synced_span: u64,
}

impl GroupCommit {
    /// A fresh coordinator: nothing durable yet, no leader.
    pub fn new() -> Self {
        GroupCommit::default()
    }

    /// Blocks until WAL sequence `seq` is durable, leading a batched
    /// fsync if no one else is. `do_sync` is only invoked by the leader;
    /// it must perform the fsync and report the highest sequence it
    /// covered (`0` with an error if it could not run at all, e.g. a
    /// shed engine lock). Returns `Ok(true)` if this call led the fsync,
    /// `Ok(false)` if it piggybacked on another writer's.
    ///
    /// The wait is bounded by `timeout`; timing out is counted as an
    /// overload shed and reported like a failed fsync (the record's
    /// durability is then unknown, exactly as if the caller had crashed
    /// before its fsync).
    pub fn sync_to(
        &self,
        seq: u64,
        timeout: std::time::Duration,
        do_sync: impl FnOnce() -> (u64, Result<()>),
    ) -> Result<bool> {
        let t0 = std::time::Instant::now();
        // One span per writer passing through the convoy; followers
        // record their convoy wait and link to the leader fsync span
        // that covered them. Inert (and allocation-free) when the
        // writer's statement is unsampled.
        let mut span =
            fdb_obs::causal::child_span("fdb.commit.group_sync", || format!("seq={seq}"));
        let mut do_sync = Some(do_sync);
        let unknown = |cause: &dyn std::fmt::Display| {
            FdbError::Internal(format!(
                "wal: group fsync covering seq {seq} failed: {cause}"
            ))
        };
        let mut st = self.lock_state();
        loop {
            if st.synced >= seq {
                fdb_obs::registry().commit_group_fsyncs_saved.inc();
                span.annotate("role", "follower");
                span.annotate("wait_ns", t0.elapsed().as_nanos());
                span.link_to(st.synced_span);
                return Ok(false);
            }
            if st.failed_at >= seq {
                span.set_error();
                return Err(unknown(&st.last_error.as_deref().unwrap_or_default()));
            }
            if !st.leader_running {
                st.leader_running = true;
                drop(st);
                let mut lead_span =
                    fdb_obs::causal::child_span("fdb.commit.group_fsync_lead", || {
                        format!("seq={seq}")
                    });
                let lead_id = lead_span.id();
                let (covered, res) = (do_sync.take().expect("leader elected once"))();
                st = self.lock_state();
                st.leader_running = false;
                self.cv.notify_all();
                match res {
                    Ok(()) => {
                        let group = covered.saturating_sub(st.synced);
                        st.synced = st.synced.max(covered);
                        st.synced_span = lead_id;
                        fdb_obs::registry().commit_group_fsyncs.inc();
                        fdb_obs::registry().commit_group_size.record(group);
                        lead_span.annotate("covered", covered);
                        lead_span.annotate("group", group);
                        span.annotate("role", "leader");
                        if st.synced >= seq {
                            return Ok(true);
                        }
                        // Defensive: a leader always covers its own seq,
                        // so this is unreachable; fall through to wait.
                        debug_assert!(false, "group leader did not cover its own record");
                        return Err(FdbError::Internal(
                            "wal: group fsync did not cover the caller's record".to_owned(),
                        ));
                    }
                    Err(e) => {
                        st.failed_at = st.failed_at.max(covered);
                        st.last_error = Some(e.to_string());
                        fdb_obs::registry().commit_group_failures.inc();
                        lead_span.set_error();
                        drop(lead_span);
                        span.set_error();
                        return Err(unknown(&e));
                    }
                }
            }
            // Follower: wait for the leader's watermark to move.
            let waited = t0.elapsed();
            let Some(remaining) = timeout.checked_sub(waited) else {
                fdb_obs::registry().governor_overload_sheds.inc();
                span.set_error();
                return Err(unknown(&format_args!(
                    "no leader finished it within {} ms",
                    waited.as_millis()
                )));
            };
            let (guard, _) = self
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, GroupState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimDisk;
    use fdb_storage::Truth;
    use std::path::PathBuf;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn disk_dir() -> PathBuf {
        PathBuf::from("/db")
    }

    fn build_logged(storage: Arc<SimDisk>, config: DurabilityConfig) -> LoggedDatabase {
        let mut ldb = LoggedDatabase::create_with(storage, disk_dir(), config).unwrap();
        ldb.declare("teach", "faculty", "course", Functionality::ManyMany)
            .unwrap();
        ldb.declare("class_list", "course", "student", Functionality::ManyMany)
            .unwrap();
        ldb.declare("pupil", "faculty", "student", Functionality::ManyMany)
            .unwrap();
        ldb.derive("pupil", &[("teach", false), ("class_list", false)])
            .unwrap();
        ldb.insert("teach", v("euclid"), v("math")).unwrap();
        ldb.insert("class_list", v("math"), v("john")).unwrap();
        ldb.insert("class_list", v("math"), v("bill")).unwrap();
        ldb.delete("pupil", v("euclid"), v("john")).unwrap();
        ldb.insert("pupil", v("gauss"), v("bill")).unwrap();
        ldb
    }

    fn no_auto_checkpoint() -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every: None,
            ..DurabilityConfig::default()
        }
    }

    #[test]
    fn open_recovers_and_continues_appending() {
        let disk = Arc::new(SimDisk::new());
        let ldb = build_logged(disk.clone(), no_auto_checkpoint());
        let live = ldb.database().to_snapshot().unwrap();
        drop(ldb);

        let (mut ldb, report) = LoggedDatabase::open_with(
            disk.clone() as Arc<dyn WalStorage>,
            disk_dir(),
            no_auto_checkpoint(),
        )
        .unwrap();
        assert_eq!(report.applied, 9);
        assert_eq!(ldb.database().to_snapshot().unwrap(), live);
        ldb.insert("teach", v("gauss"), v("math")).unwrap();
        drop(ldb);

        let (recovered, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert_eq!(report.applied, 10);
        let p = recovered.database().resolve("pupil").unwrap();
        assert_eq!(
            recovered
                .database()
                .truth(p, &v("gauss"), &v("bill"))
                .unwrap(),
            Truth::True
        );
    }

    #[test]
    fn checkpoint_truncates_segments_and_recovery_uses_it() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = build_logged(disk.clone(), no_auto_checkpoint());
        let before = ldb.database().to_snapshot().unwrap();
        ldb.checkpoint().unwrap();
        assert_eq!(ldb.checkpoint_seq(), 9);
        // Old segments are gone; one fresh (empty) segment remains.
        let segs = list_segments(disk.as_ref(), &disk_dir()).unwrap();
        assert_eq!(segs.len(), 1);
        ldb.insert("teach", v("hilbert"), v("logic")).unwrap();
        drop(ldb);

        let (recovered, report) =
            LoggedDatabase::open_with(disk.clone() as _, disk_dir(), no_auto_checkpoint()).unwrap();
        assert_eq!(report.checkpoint_seq, Some(9));
        assert_eq!(report.applied, 1, "only the post-checkpoint suffix");
        assert_eq!(report.last_seq, Some(10));
        assert_ne!(recovered.database().to_snapshot().unwrap(), before);
        let teach = recovered.database().resolve("teach").unwrap();
        assert_eq!(
            recovered
                .database()
                .truth(teach, &v("hilbert"), &v("logic"))
                .unwrap(),
            Truth::True
        );
    }

    #[test]
    fn automatic_checkpoints_and_rotation_fire() {
        let disk = Arc::new(SimDisk::new());
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::EveryN(4),
            checkpoint_every: Some(8),
            segment_max_bytes: 512,
        };
        let mut ldb = LoggedDatabase::create_with(disk.clone(), disk_dir(), config).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        for i in 0..40 {
            ldb.insert("f", v(&format!("x{i}")), v(&format!("y{i}")))
                .unwrap();
        }
        assert!(ldb.checkpoint_seq() >= 32, "auto checkpoints must fire");
        let live = ldb.database().to_snapshot().unwrap();
        drop(ldb);
        let (recovered, report) = LoggedDatabase::open_with(disk, disk_dir(), config).unwrap();
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    }

    #[test]
    fn interior_corruption_is_salvaged_with_quarantine() {
        let disk = Arc::new(SimDisk::new());
        let ldb = build_logged(disk.clone(), no_auto_checkpoint());
        drop(ldb);
        let seg = disk_dir().join("wal-0000000001.seg");
        // Damage a byte well inside the segment.
        let len = disk.size_of(&seg).unwrap();
        disk.corrupt(&seg, len / 2, 0x10);

        let (recovered, report) =
            LoggedDatabase::open_with(disk.clone() as _, disk_dir(), no_auto_checkpoint()).unwrap();
        assert!(report.damaged());
        assert!(report.applied < 9);
        assert!(report.quarantined_bytes > 0);
        assert!(recovered.database().is_consistent());
        // The damaged suffix was moved aside and the segment truncated.
        assert!(disk.is_file(&disk_dir().join("wal-0000000001.seg.quarantine")));
        assert!(disk.size_of(&seg).unwrap() < len);
        drop(recovered);

        // Re-opening after salvage is clean.
        let (_, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert!(report.corruption.is_empty());
    }

    #[test]
    fn unknown_frame_before_a_rotation_does_not_orphan_the_next_segment() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        drop(ldb);
        // What a newer version leaves behind: a record type this version
        // does not know as seq 2, a rotation, then an acknowledged write
        // as seq 3 at the head of the next segment.
        let mut seg = disk
            .open_append(&disk_dir().join("wal-0000000001.seg"))
            .unwrap();
        seg.append(&crate::wal::unknown_frame(2)).unwrap();
        drop(seg);
        let mut next = disk.create(&disk_dir().join("wal-0000000003.seg")).unwrap();
        next.append(crate::wal::WAL_MAGIC).unwrap();
        let acked = LogRecord::Insert {
            function: "f".into(),
            x: v("x"),
            y: v("y"),
        };
        next.append(&crate::wal::encode_frame(3, &acked).unwrap())
            .unwrap();
        drop(next);

        let (mut ldb, report) =
            LoggedDatabase::open_with(disk.clone() as _, disk_dir(), no_auto_checkpoint()).unwrap();
        assert!(report.corruption.is_empty(), "{:?}", report.corruption);
        assert_eq!(report.quarantined_bytes, 0, "no segment may be set aside");
        assert_eq!((report.applied, report.skipped_records), (2, 1));
        assert_eq!(ldb.last_seq(), 3);
        let f = ldb.database().resolve("f").unwrap();
        assert!(ldb.database().store().table(f).contains(&v("x"), &v("y")));
        // The next append continues the numbering and survives too.
        ldb.insert("f", v("x2"), v("y2")).unwrap();
        assert_eq!(ldb.last_seq(), 4);
        drop(ldb);
        let (ldb, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert!(report.corruption.is_empty(), "{:?}", report.corruption);
        assert_eq!(report.applied, 3);
        assert!(ldb.database().store().table(f).contains(&v("x2"), &v("y2")));
    }

    #[test]
    fn failed_sync_is_reported() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone(),
            disk_dir(),
            DurabilityConfig {
                sync_policy: SyncPolicy::Always,
                ..no_auto_checkpoint()
            },
        )
        .unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        disk.fail_sync(1);
        assert!(ldb.insert("f", v("x"), v("y")).is_err());
    }

    #[test]
    fn sync_policy_every_n_batches_syncs() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone(),
            disk_dir(),
            DurabilityConfig {
                sync_policy: SyncPolicy::EveryN(5),
                ..no_auto_checkpoint()
            },
        )
        .unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        let baseline = disk.syncs();
        // The declare left one unsynced record, so syncs fire at the 4th
        // and 9th insert: exactly two EveryN(5) syncs for 9 inserts.
        for i in 0..9 {
            ldb.insert("f", v(&format!("x{i}")), v(&format!("y{i}")))
                .unwrap();
        }
        assert_eq!(disk.syncs() - baseline, 2);
        ldb.insert("f", v("xz"), v("yz")).unwrap();
        assert_eq!(disk.syncs() - baseline, 2);
    }

    #[test]
    fn legacy_v1_file_recovers_and_continues() {
        let disk = Arc::new(SimDisk::new());
        let path = PathBuf::from("/legacy/old.log");
        let mut f = disk.create(&path).unwrap();
        for record in [
            LogRecord::Declare {
                name: "f".into(),
                domain: "a".into(),
                range: "b".into(),
                functionality: Functionality::ManyMany,
            },
            LogRecord::Insert {
                function: "f".into(),
                x: v("x"),
                y: v("y1"),
            },
        ] {
            let mut line = serde_json::to_string(&record).unwrap().into_bytes();
            line.push(b'\n');
            f.append(&line).unwrap();
        }
        drop(f);

        let (mut ldb, report) =
            LoggedDatabase::open_with(disk.clone() as _, &path, no_auto_checkpoint()).unwrap();
        assert_eq!(report.applied, 2);
        ldb.insert("f", v("x"), v("y2")).unwrap();
        assert!(ldb.checkpoint().is_err(), "legacy logs cannot checkpoint");
        drop(ldb);

        let (recovered, report) = crate::wal::replay_on(disk.as_ref(), &path).unwrap();
        assert_eq!(report.applied, 3);
        let f_id = recovered.resolve("f").unwrap();
        assert!(recovered.store().table(f_id).contains(&v("x"), &v("y2")));
    }

    #[test]
    fn replace_round_trips_through_log() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        ldb.insert("f", v("x"), v("y1")).unwrap();
        ldb.replace("f", (v("x"), v("y1")), (v("x"), v("y2")))
            .unwrap();
        drop(ldb);
        let (recovered, _) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        let f = recovered.database().resolve("f").unwrap();
        let db = recovered.database();
        assert!(db.store().table(f).contains(&v("x"), &v("y2")));
        assert!(!db.store().table(f).contains(&v("x"), &v("y1")));
    }

    #[test]
    fn failed_operations_are_not_logged() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::OneOne).unwrap();
        assert!(ldb.insert("ghost", v("x"), v("y")).is_err());
        drop(ldb);
        let (_, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert_eq!(report.applied, 1);
    }

    #[test]
    fn committed_txn_survives_recovery_uncommitted_does_not() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        ldb.begin().unwrap();
        ldb.insert("f", v("x1"), v("y1")).unwrap();
        ldb.insert("f", v("x2"), v("y2")).unwrap();
        ldb.commit().unwrap();
        let committed = ldb.database().to_snapshot().unwrap();
        // Second transaction never commits; the "crash" is the drop.
        ldb.begin().unwrap();
        ldb.insert("f", v("x3"), v("y3")).unwrap();
        drop(ldb);

        let (recovered, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert_eq!(report.uncommitted_discarded, 1);
        assert_eq!(recovered.database().to_snapshot().unwrap(), committed);
    }

    #[test]
    fn savepoint_rollback_is_replayed_correctly() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        ldb.begin().unwrap();
        ldb.insert("f", v("keep"), v("y")).unwrap();
        ldb.savepoint("sp").unwrap();
        ldb.insert("f", v("drop1"), v("y")).unwrap();
        ldb.insert("f", v("drop2"), v("y")).unwrap();
        ldb.rollback_to("sp").unwrap();
        ldb.insert("f", v("keep2"), v("y")).unwrap();
        ldb.commit().unwrap();
        let live = ldb.database().to_snapshot().unwrap();
        drop(ldb);

        let (recovered, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
        assert_eq!(report.uncommitted_discarded, 2, "the rolled-back pair");
        let f = recovered.database().resolve("f").unwrap();
        let table = recovered.database().store().table(f);
        assert!(table.contains(&v("keep"), &v("y")));
        assert!(table.contains(&v("keep2"), &v("y")));
        assert!(!table.contains(&v("drop1"), &v("y")));
        assert!(!table.contains(&v("drop2"), &v("y")));
    }

    #[test]
    fn rollback_restores_live_state_and_closes_frame() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        let before = ldb.database().to_snapshot().unwrap();
        ldb.begin().unwrap();
        ldb.insert("f", v("x"), v("y")).unwrap();
        ldb.rollback().unwrap();
        assert_eq!(ldb.database().to_snapshot().unwrap(), before);
        // Post-rollback appends must survive recovery (the frame on disk
        // is closed, not dangling).
        ldb.insert("f", v("x2"), v("y2")).unwrap();
        drop(ldb);
        let (recovered, report) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        assert_eq!(report.uncommitted_discarded, 1);
        let f = recovered.database().resolve("f").unwrap();
        assert!(recovered
            .database()
            .store()
            .table(f)
            .contains(&v("x2"), &v("y2")));
    }

    #[test]
    fn post_crash_appends_are_not_swallowed_by_dangling_frame() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        ldb.begin().unwrap();
        ldb.insert("f", v("lost"), v("y")).unwrap();
        drop(ldb); // crash mid-transaction

        // First recovery closes the dangling frame…
        let (mut ldb, _) =
            LoggedDatabase::open_with(disk.clone() as _, disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.insert("f", v("after"), v("y")).unwrap();
        drop(ldb);
        // …so a second recovery still sees the post-crash insert.
        let (recovered, _) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        let f = recovered.database().resolve("f").unwrap();
        assert!(recovered
            .database()
            .store()
            .table(f)
            .contains(&v("after"), &v("y")));
        assert!(!recovered
            .database()
            .store()
            .table(f)
            .contains(&v("lost"), &v("y")));
    }

    /// Misuse is a typed error that logs nothing, and its text is the
    /// database's own, word for word: what
    /// `tests/scripts/statement_matrix.golden` pins for the language's
    /// transaction statements.
    #[test]
    fn txn_control_misuse_is_typed() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        let text = |r: Result<()>| match r {
            Err(e @ FdbError::TxnControl(_)) => e.to_string(),
            other => panic!("expected a TxnControl error, got {other:?}"),
        };
        let golden = |line: &str| format!("transaction control error: {line}");
        assert_eq!(text(ldb.commit()), golden("COMMIT without an open BEGIN"));
        assert_eq!(
            text(ldb.rollback()),
            golden("ROLLBACK without an open BEGIN")
        );
        assert_eq!(
            text(ldb.savepoint("s")),
            golden("SAVEPOINT without an open BEGIN")
        );
        assert_eq!(
            text(ldb.rollback_to("s")),
            golden("ROLLBACK TO without an open BEGIN")
        );
        assert_eq!(ldb.last_seq(), 0);
        ldb.begin().unwrap();
        assert_eq!(
            text(ldb.begin()),
            golden("BEGIN inside an open transaction (use SAVEPOINT for nested scopes)")
        );
        assert!(matches!(ldb.checkpoint(), Err(FdbError::TxnControl(_))));
        assert_eq!(
            text(ldb.rollback_to("missing")),
            golden("unknown savepoint \"missing\"")
        );
        assert_eq!(ldb.last_seq(), 1, "only the BEGIN is logged");
        assert!(ldb.txn_active());
        ldb.commit().unwrap();
    }

    #[test]
    fn checkpoint_and_rotation_defer_until_commit() {
        let disk = Arc::new(SimDisk::new());
        let config = DurabilityConfig {
            sync_policy: SyncPolicy::Always,
            checkpoint_every: Some(4),
            segment_max_bytes: 256,
        };
        let mut ldb = LoggedDatabase::create_with(disk.clone(), disk_dir(), config).unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        ldb.begin().unwrap();
        for i in 0..20 {
            ldb.insert("f", v(&format!("x{i}")), v(&format!("y{i}")))
                .unwrap();
        }
        // Despite blowing past both thresholds, nothing rotated or
        // checkpointed inside the frame.
        assert_eq!(ldb.checkpoint_seq(), 0);
        let segs = list_segments(disk.as_ref(), &disk_dir()).unwrap();
        assert_eq!(segs.len(), 1);
        ldb.commit().unwrap();
        assert!(ldb.checkpoint_seq() > 0, "deferred checkpoint fired");
        let live = ldb.database().to_snapshot().unwrap();
        drop(ldb);
        let (recovered, _) = LoggedDatabase::open_with(disk, disk_dir(), config).unwrap();
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    }

    #[test]
    fn commit_forces_fsync_under_lazy_policy() {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone(),
            disk_dir(),
            DurabilityConfig {
                sync_policy: SyncPolicy::OnCheckpoint,
                ..no_auto_checkpoint()
            },
        )
        .unwrap();
        ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
        let baseline = disk.syncs();
        ldb.begin().unwrap();
        ldb.insert("f", v("x"), v("y")).unwrap();
        assert_eq!(disk.syncs(), baseline, "lazy policy defers syncs");
        ldb.commit().unwrap();
        assert!(disk.syncs() > baseline, "commit is the durability point");
    }

    #[test]
    fn import_schema_makes_log_self_contained() {
        let schema = fdb_types::Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let mut designed = Database::new(schema);
        let (t, c, p) = (
            designed.resolve("teach").unwrap(),
            designed.resolve("class_list").unwrap(),
            designed.resolve("pupil").unwrap(),
        );
        designed
            .register_derived(
                p,
                vec![fdb_types::Derivation::new(vec![
                    fdb_types::Step::identity(t),
                    fdb_types::Step::identity(c),
                ])
                .unwrap()],
            )
            .unwrap();

        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), disk_dir(), no_auto_checkpoint()).unwrap();
        ldb.import_schema(&designed).unwrap();
        ldb.insert("pupil", v("gauss"), v("bill")).unwrap();
        drop(ldb);

        let (recovered, _) =
            LoggedDatabase::open_with(disk, disk_dir(), no_auto_checkpoint()).unwrap();
        let p = recovered.database().resolve("pupil").unwrap();
        assert!(recovered.database().is_derived(p));
        assert_eq!(
            recovered
                .database()
                .truth(p, &v("gauss"), &v("bill"))
                .unwrap(),
            Truth::True
        );
    }

    /// A follower whose leader does not finish in time has its record
    /// applied and appended already: the error must not be the one that
    /// promises "not executed".
    #[test]
    fn group_commit_follower_timeout_is_not_reported_as_overloaded() {
        let group = Arc::new(GroupCommit::new());
        let (release, go) = std::sync::mpsc::channel::<()>();
        let (leading_tx, leading) = std::sync::mpsc::channel::<()>();
        let leader = {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                group.sync_to(1, std::time::Duration::from_secs(5), || {
                    leading_tx.send(()).unwrap();
                    let _ = go.recv();
                    (1, Ok(()))
                })
            })
        };
        leading.recv().unwrap();
        let sheds = fdb_obs::registry().governor_overload_sheds.get();
        let err = group
            .sync_to(2, std::time::Duration::from_millis(10), || {
                unreachable!("a leader is already running")
            })
            .unwrap_err();
        assert!(!matches!(err, FdbError::Overloaded { .. }), "{err:?}");
        assert!(
            err.to_string()
                .contains("wal: group fsync covering seq 2 failed"),
            "{err}"
        );
        assert!(fdb_obs::registry().governor_overload_sheds.get() > sheds);
        drop(release);
        assert!(leader.join().unwrap().unwrap(), "the first caller led");
    }
}
