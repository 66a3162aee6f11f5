//! The standby side of WAL shipping.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fdb_core::wal::{list_segments, walk_log};
use fdb_core::{
    install_checkpoint, Database, DurabilityConfig, LogRecord, LoggedDatabase, RecoveryReport,
    TxnReplayer, Wal, WalStorage,
};
use fdb_types::{FdbError, Result};

use crate::frame::ShippedFrame;
use crate::source::Batch;

/// Why a replica refused a shipped frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The replica already stores a frame at this sequence number with a
    /// different checksum: the source and replica histories disagree.
    PayloadMismatch,
    /// The shipped frame fails its own checksum: damaged in transit (or
    /// at rest on the source).
    CorruptFrame,
}

/// A typed report of a history disagreement. The offending frame is
/// quarantined on the replica for forensics; it is never applied and
/// never overwrites the locally stored frame.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Sequence number at which the histories disagree.
    pub seq: u64,
    /// What kind of disagreement.
    pub kind: DivergenceKind,
    /// Checksum of the locally stored frame, if one exists at `seq`.
    pub local_crc: Option<u32>,
    /// Checksum the shipped frame claims.
    pub shipped_crc: u32,
    /// Where the offending frame's bytes were written.
    pub quarantine: PathBuf,
}

impl DivergenceReport {
    /// One-line human rendering (used by `REPLICA STATUS` and logs).
    pub fn render(&self) -> String {
        let kind = match self.kind {
            DivergenceKind::PayloadMismatch => "payload mismatch",
            DivergenceKind::CorruptFrame => "corrupt frame",
        };
        let local = match self.local_crc {
            Some(crc) => format!("{crc:#010x}"),
            None => "none".to_owned(),
        };
        format!(
            "diverged at seq {}: {} (local crc {}, shipped crc {:#010x}); quarantined at {}",
            self.seq,
            kind,
            local,
            self.shipped_crc,
            self.quarantine.display()
        )
    }
}

/// Outcome of [`Replica::apply_batch`].
#[derive(Clone, Debug)]
pub enum ApplyOutcome {
    /// The batch was stored and applied.
    Applied {
        /// Frames newly stored by this batch (idempotent re-sends are
        /// skipped and not counted).
        frames: usize,
        /// Data records applied to the in-memory database (transaction
        /// markers and `NewTerm` records count zero).
        records: usize,
    },
    /// The batch's term is older than the replica's: a fenced
    /// (superseded) primary is still talking. Nothing was stored.
    Fenced {
        /// Term the batch carried.
        batch_term: u64,
        /// Term the replica is on.
        replica_term: u64,
    },
    /// The batch disagrees with locally stored history. Nothing past the
    /// offending frame was stored; the replica refuses further applies.
    Diverged(DivergenceReport),
}

/// A point-in-time replica health summary.
#[derive(Clone, Debug)]
pub struct ReplicaStatus {
    /// Highest frame sequence number stored locally.
    pub applied_seq: u64,
    /// Replication term the replica is following.
    pub term: u64,
    /// Records known to exist on the source but not yet applied here, as
    /// of the last batch.
    pub lag_records: u64,
    /// On-disk bytes of those records.
    pub lag_bytes: u64,
    /// Total data records applied to the in-memory database.
    pub records_applied: u64,
    /// Whether a transaction frame is currently open mid-stream.
    pub open_txn: bool,
    /// Whether the replica has detected divergence and frozen.
    pub diverged: bool,
}

impl ReplicaStatus {
    /// Multi-line human rendering for `REPLICA STATUS`.
    pub fn render(&self) -> String {
        format!(
            "replica: applied_seq={} term={} lag_records={} lag_bytes={} records_applied={} open_txn={} diverged={}",
            self.applied_seq,
            self.term,
            self.lag_records,
            self.lag_bytes,
            self.records_applied,
            self.open_txn,
            self.diverged
        )
    }
}

/// The result of a failover promotion: a writable [`LoggedDatabase`] on a
/// new, higher term, plus the recovery report from closing the replica's
/// log (any transaction frame left dangling mid-stream is discarded,
/// exactly like crash recovery).
#[derive(Debug)]
pub struct Promotion {
    /// The promoted, writable database.
    pub logged: LoggedDatabase,
    /// What recovery found while closing the log.
    pub report: RecoveryReport,
}

/// A hot-standby replica: a local byte-for-byte copy of the primary's
/// WAL plus an in-memory database kept at transaction-consistent state by
/// a live [`TxnReplayer`].
///
/// Visibility note: the replayer holds a committed transaction until the
/// *next* record arrives (the same one-record lookahead recovery uses to
/// honor a trailing abort), so [`Replica::database`] can trail the last
/// shipped commit by one transaction. [`Replica::consistent_view`] forces
/// that pending commit into a cloned database when an up-to-the-frame
/// read is needed.
#[derive(Debug)]
pub struct Replica {
    storage: Arc<dyn WalStorage>,
    dir: PathBuf,
    db: Database,
    replayer: TxnReplayer,
    /// The local copy of the log; its next sequence number is the next
    /// frame expected from the source.
    wal: Wal,
    term: u64,
    records_applied: u64,
    /// Checksums of every locally stored frame — the divergence check.
    crcs: BTreeMap<u64, u32>,
    segment_max_bytes: u64,
    lag_records: u64,
    lag_bytes: u64,
    divergence: Option<DivergenceReport>,
    /// The `(batch_term, replica_term)` pair last counted in
    /// `fdb.repl.fenced_rejects` — a resurrected primary retrying the
    /// same stale batch in a loop is one fencing episode, not one count
    /// per retry. Cleared when a batch is accepted, so a genuinely new
    /// episode counts again.
    last_fenced: Option<(u64, u64)>,
}

impl Replica {
    /// Opens (or creates) a replica over a local WAL directory and
    /// catches up from whatever it finds there, the way primary recovery
    /// does: checkpoint seed, then every intact local frame. A torn local
    /// tail (the replica crashed mid-append) is quarantined and truncated
    /// so shipping resumes cleanly from `next_seq`.
    pub fn open(storage: Arc<dyn WalStorage>, dir: impl AsRef<Path>) -> Result<Self> {
        Replica::open_with(storage, dir, DurabilityConfig::default())
    }

    /// [`Replica::open`] with explicit tuning (only `segment_max_bytes`
    /// applies to a replica; sync policy is per-batch).
    pub fn open_with(
        storage: Arc<dyn WalStorage>,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_owned();
        storage
            .create_dir_all(&dir)
            .map_err(|e| io_err("replica create dir", e))?;
        let mut walk = walk_log(storage.as_ref(), &dir)?;
        let wal = walk.repair(&storage)?;
        fdb_obs::registry().repl_catchups.inc();
        // Unlike recovery (and promotion), catch-up keeps the replayer
        // as the walk left it: a transaction frame still open must NOT
        // be closed — its commit may still arrive from the source.
        Ok(Replica {
            storage,
            dir,
            db: walk.db,
            replayer: walk.replayer,
            wal,
            term: walk.term,
            records_applied: walk.report.applied as u64,
            crcs: walk.frames.into_iter().collect(),
            segment_max_bytes: config.segment_max_bytes,
            lag_records: 0,
            lag_bytes: 0,
            divergence: None,
            last_fenced: None,
        })
    }

    /// The transaction-consistent database served to read-only queries.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The replica's WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next frame sequence number this replica expects; poll the source
    /// from here.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The replication term this replica is following.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The divergence that froze this replica, if any.
    pub fn divergence(&self) -> Option<&DivergenceReport> {
        self.divergence.as_ref()
    }

    /// Point-in-time health summary (also records the lag histograms).
    pub fn status(&self) -> ReplicaStatus {
        let reg = fdb_obs::registry();
        reg.repl_lag_records.record(self.lag_records);
        reg.repl_lag_bytes.record(self.lag_bytes);
        ReplicaStatus {
            applied_seq: self.next_seq().saturating_sub(1),
            term: self.term,
            lag_records: self.lag_records,
            lag_bytes: self.lag_bytes,
            records_applied: self.records_applied,
            open_txn: self.replayer.open_txn_id().is_some(),
            diverged: self.divergence.is_some(),
        }
    }

    /// A database clone with any pending (lookahead-held) commit forced
    /// through — the freshest transaction-consistent read available.
    pub fn consistent_view(&self) -> Result<Database> {
        let mut db = self.db.clone();
        self.replayer.clone().finish(&mut db)?;
        Ok(db)
    }

    /// Stores and applies one shipped batch.
    ///
    /// Frames are appended to the local segment *before* being fed to the
    /// in-memory database (the same WAL discipline the primary follows),
    /// and the segment is fsynced once per batch. Overlapping frames
    /// whose CRC matches the local copy are skipped idempotently; a CRC
    /// disagreement or a corrupt frame quarantines the frame and freezes
    /// the replica with [`ApplyOutcome::Diverged`]; a batch from an older
    /// term is rejected with [`ApplyOutcome::Fenced`]; a sequence gap is
    /// an error (poll again from [`Replica::next_seq`]).
    pub fn apply_batch(&mut self, batch: &Batch) -> Result<ApplyOutcome> {
        // Joins the primary-side trace that produced the batch (the
        // trace id rides beside the frames, never inside them).
        let mut span = fdb_obs::causal::adopted_span(batch.trace_id, "fdb.repl.apply", || {
            format!("from_seq={} frames={}", self.next_seq(), batch.frames.len())
        });
        if let Some(report) = &self.divergence {
            span.set_error();
            return Ok(ApplyOutcome::Diverged(report.clone()));
        }
        if batch.term < self.term {
            let fence = (batch.term, self.term);
            if self.last_fenced != Some(fence) {
                self.last_fenced = Some(fence);
                fdb_obs::registry().repl_fenced_rejects.inc();
            }
            span.annotate("fenced", format_args!("{}<{}", batch.term, self.term));
            span.set_error();
            return Ok(ApplyOutcome::Fenced {
                batch_term: batch.term,
                replica_term: self.term,
            });
        }
        self.last_fenced = None;
        self.term = self.term.max(batch.term);

        if let Some(seed) = &batch.seed {
            if self.next_seq() <= seed.seq {
                self.install_seed(seed)?;
            }
        }

        let mut stored = 0usize;
        let mut applied = 0usize;
        for f in &batch.frames {
            if !f.crc_valid() {
                let report = self.quarantine(f, DivergenceKind::CorruptFrame)?;
                span.set_error();
                return Ok(ApplyOutcome::Diverged(report));
            }
            if f.seq < self.next_seq() {
                match self.crcs.get(&f.seq) {
                    Some(&local) if local == f.crc => continue, // idempotent re-send
                    Some(_) => {
                        let report = self.quarantine(f, DivergenceKind::PayloadMismatch)?;
                        span.set_error();
                        return Ok(ApplyOutcome::Diverged(report));
                    }
                    // Below our seed horizon: nothing to compare against.
                    None => continue,
                }
            }
            if f.seq > self.next_seq() {
                return Err(FdbError::Internal(format!(
                    "replication gap: expected seq {}, batch jumps to {}",
                    self.next_seq(),
                    f.seq
                )));
            }
            // Rotate on the primary's rule, so a local segment's name is
            // its first frame's seq here too.
            if self.wal.len() >= self.segment_max_bytes {
                self.wal.rotate(&self.storage)?;
            }
            self.wal.append_frame(f.seq, f.crc, &f.payload)?;
            if let Some(record) = f.record()? {
                if let LogRecord::NewTerm { term: t } = record {
                    self.term = self.term.max(t);
                }
                applied += self.replayer.feed(&mut self.db, &record)?;
            }
            self.crcs.insert(f.seq, f.crc);
            stored += 1;
        }
        if stored > 0 {
            self.wal.sync()?;
        }

        self.records_applied += applied as u64;
        self.lag_records = batch
            .source_last_seq
            .saturating_sub(self.next_seq().saturating_sub(1));
        self.lag_bytes = batch.remaining_bytes;
        let reg = fdb_obs::registry();
        reg.repl_records_applied.add(applied as u64);
        reg.repl_lag_records.record(self.lag_records);
        reg.repl_lag_bytes.record(self.lag_bytes);

        span.annotate("stored", stored);
        span.annotate("applied", applied);
        Ok(ApplyOutcome::Applied {
            frames: stored,
            records: applied,
        })
    }

    /// Promotes this replica to a writable primary on a new, higher term.
    ///
    /// Reuses ordinary recovery ([`LoggedDatabase::open_with`]) over the
    /// replica's local log: a transaction frame left dangling mid-stream
    /// is closed and discarded exactly like after a crash (and reported
    /// in the returned [`RecoveryReport`] and the
    /// `fdb.recovery.uncommitted_discarded` metric). The new term is
    /// stamped into the log as a [`LogRecord::NewTerm`] record, fencing
    /// the old primary: replicas that follow the promoted node will
    /// reject the old primary's lower-term batches.
    pub fn promote(self) -> Result<Promotion> {
        self.promote_with(DurabilityConfig::default())
    }

    /// [`Replica::promote`] with explicit tuning for the new primary.
    pub fn promote_with(mut self, config: DurabilityConfig) -> Result<Promotion> {
        if let Some(report) = &self.divergence {
            return Err(FdbError::Internal(format!(
                "refusing to promote a diverged replica: {}",
                report.render()
            )));
        }
        self.wal.sync()?;
        let Replica {
            storage, dir, term, ..
        } = self;
        // Promotion is rare and load-bearing: always traced, sampler or
        // not, so a failover is reconstructable from the flight recorder.
        let span = fdb_obs::causal::root_span("fdb.repl.promote", || {
            format!("dir={} new_term={}", dir.display(), term + 1)
        });
        let (mut logged, report) = LoggedDatabase::open_with(Arc::clone(&storage), &dir, config)?;
        logged.start_term(term + 1)?;
        fdb_obs::registry().repl_promotions.inc();
        span.annotate("applied", report.applied);
        drop(span);
        Ok(Promotion { logged, report })
    }

    /// Replaces all local state with a checkpoint seed from the source
    /// (the replica was behind the source's segment retention).
    fn install_seed(&mut self, seed: &crate::source::Seed) -> Result<()> {
        let db = Database::from_snapshot(&seed.snapshot)?;
        // Obsolete local segments predate the seed; remove them so a
        // later catch-up never replays across the horizon.
        for (_, path) in list_segments(self.storage.as_ref(), &self.dir)? {
            self.storage
                .remove(&path)
                .map_err(|e| io_err("replica remove pre-seed segment", e))?;
        }
        install_checkpoint(self.storage.as_ref(), &self.dir, seed)?;
        self.wal = Wal::create_segment(Arc::clone(&self.storage), &self.dir, seed.seq + 1)?;
        self.db = db;
        self.replayer = TxnReplayer::new();
        self.crcs.clear();
        self.term = self.term.max(seed.term);
        Ok(())
    }

    /// Writes the offending frame to a quarantine file and freezes the
    /// replica with a typed report. The locally stored frame (if any) is
    /// left untouched — divergence is never resolved by overwrite.
    fn quarantine(&mut self, f: &ShippedFrame, kind: DivergenceKind) -> Result<DivergenceReport> {
        let path = self.dir.join(format!("diverged-{:010}.frame", f.seq));
        let mut file = self
            .storage
            .create(&path)
            .map_err(|e| io_err("replica write quarantine", e))?;
        file.append(&f.encoded())
            .map_err(|e| io_err("replica write quarantine", e))?;
        file.sync()
            .map_err(|e| io_err("replica sync quarantine", e))?;
        let report = DivergenceReport {
            seq: f.seq,
            kind,
            local_crc: self.crcs.get(&f.seq).copied(),
            shipped_crc: f.crc,
            quarantine: path,
        };
        fdb_obs::registry().repl_divergences.inc();
        self.divergence = Some(report.clone());
        // A frozen replica is exactly the moment the flight recorder
        // exists for: capture the causal context before anyone polls.
        fdb_obs::flight::dump_on_fault(&format!(
            "replica_divergence: seq={} kind={:?}",
            report.seq, report.kind
        ));
        Ok(report)
    }
}

fn io_err(what: &str, e: std::io::Error) -> FdbError {
    FdbError::Internal(format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicationSource;
    use fdb_core::{SimDisk, SyncPolicy};
    use fdb_types::{Functionality, Value};

    fn config() -> DurabilityConfig {
        DurabilityConfig {
            sync_policy: SyncPolicy::Always,
            checkpoint_every: None,
            segment_max_bytes: 256,
        }
    }

    fn primary(disk: &Arc<SimDisk>, dir: &str) -> LoggedDatabase {
        let storage: Arc<dyn WalStorage> = Arc::clone(disk) as _;
        let mut db = LoggedDatabase::create_with(storage, dir, config()).unwrap();
        db.declare("person", "dom", "cod", Functionality::ManyMany)
            .unwrap();
        db
    }

    fn atom(s: &str) -> Value {
        Value::atom(s)
    }

    fn ship_all(p: &LoggedDatabase, r: &mut Replica) -> ApplyOutcome {
        let mut src = ReplicationSource::for_primary(p);
        let batch = src.poll(r.next_seq(), 10_000).unwrap();
        r.apply_batch(&batch).unwrap()
    }

    #[test]
    fn replica_tails_primary_and_serves_reads() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..12 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(storage, "/r", config()).unwrap();
        let out = ship_all(&p, &mut r);
        assert!(matches!(out, ApplyOutcome::Applied { .. }));
        assert_eq!(
            r.consistent_view().unwrap().to_snapshot().unwrap(),
            p.database().to_snapshot().unwrap()
        );
        let status = r.status();
        assert_eq!(status.applied_seq, p.last_seq());
        assert_eq!(status.lag_records, 0);
        assert!(!status.diverged);
    }

    #[test]
    fn catch_up_restart_and_idempotent_overlap() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..6 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(Arc::clone(&storage), "/r", config()).unwrap();
        // Ship only a prefix, then "crash" the replica process.
        let mut src = ReplicationSource::for_primary(&p);
        let mut batch = src.poll(1, 10_000).unwrap();
        batch.frames.truncate(4);
        r.apply_batch(&batch).unwrap();
        let mid_seq = r.next_seq();
        drop(r);

        // Restart: catch-up scans the local copy and resumes where the
        // stored frames end.
        let mut r = Replica::open_with(Arc::clone(&storage), "/r", config()).unwrap();
        assert_eq!(r.next_seq(), mid_seq);

        // Re-shipping from seq 1 is harmless: matching frames skip.
        let full = src.poll(1, 10_000).unwrap();
        let out = r.apply_batch(&full).unwrap();
        match out {
            ApplyOutcome::Applied { frames, .. } => {
                assert_eq!(frames as u64, p.last_seq() - (mid_seq - 1))
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        assert_eq!(
            r.consistent_view().unwrap().to_snapshot().unwrap(),
            p.database().to_snapshot().unwrap()
        );
    }

    #[test]
    fn seed_install_when_behind_retention() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..9 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        p.checkpoint().unwrap(); // prunes the shipped segments
        for i in 9..14 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(storage, "/r", config()).unwrap();
        let out = ship_all(&p, &mut r);
        assert!(matches!(out, ApplyOutcome::Applied { .. }));
        assert_eq!(
            r.consistent_view().unwrap().to_snapshot().unwrap(),
            p.database().to_snapshot().unwrap()
        );
    }

    #[test]
    fn payload_mismatch_diverges_and_freezes() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        p.insert("person", atom("a"), atom("y")).unwrap();
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(storage, "/r", config()).unwrap();
        ship_all(&p, &mut r);
        let seq = r.next_seq() - 1;

        // A different history at an already-stored seq: never accepted.
        let evil = ShippedFrame::for_record(
            seq,
            &LogRecord::Insert {
                function: "person".to_owned(),
                x: atom("evil"),
                y: atom("y"),
            },
        )
        .unwrap();
        let batch = Batch {
            term: r.term(),
            seed: None,
            frames: vec![evil],
            source_last_seq: seq,
            remaining_records: 0,
            remaining_bytes: 0,
            trace_id: 0,
        };
        let before = r.database().to_snapshot().unwrap();
        match r.apply_batch(&batch).unwrap() {
            ApplyOutcome::Diverged(report) => {
                assert_eq!(report.kind, DivergenceKind::PayloadMismatch);
                assert_eq!(report.seq, seq);
                assert!(report.local_crc.is_some());
                assert!(disk.size_of(&report.quarantine).unwrap_or(0) > 0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        // Frozen: nothing applied, further batches refused, no promote.
        assert_eq!(r.database().to_snapshot().unwrap(), before);
        assert!(matches!(
            r.apply_batch(&Batch {
                term: 1,
                seed: None,
                frames: vec![],
                source_last_seq: seq,
                remaining_records: 0,
                remaining_bytes: 0,
                trace_id: 0,
            })
            .unwrap(),
            ApplyOutcome::Diverged(_)
        ));
        assert!(r.promote().is_err());
    }

    #[test]
    fn corrupt_shipped_frame_diverges() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        p.insert("person", atom("a"), atom("y")).unwrap();
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(storage, "/r", config()).unwrap();
        let mut src = ReplicationSource::for_primary(&p);
        let mut batch = src.poll(1, 10_000).unwrap();
        let last = batch.frames.last_mut().unwrap();
        last.payload[0] ^= 0x01; // bit rot in transit
        match r.apply_batch(&batch).unwrap() {
            ApplyOutcome::Diverged(report) => {
                assert_eq!(report.kind, DivergenceKind::CorruptFrame)
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn promotion_fences_resurrected_primary() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..5 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(Arc::clone(&storage), "/r", config()).unwrap();
        ship_all(&p, &mut r);
        assert_eq!(r.term(), 1);

        // Primary "dies"; the replica takes over on term 2.
        let Promotion { mut logged, report } = r.promote().unwrap();
        assert_eq!(logged.term(), 2);
        assert_eq!(report.uncommitted_discarded, 0);
        logged
            .insert("person", atom("after-failover"), atom("y"))
            .unwrap();

        // A second replica follows the promoted node and learns term 2
        // from the shipped NewTerm record.
        let mut b = Replica::open_with(Arc::clone(&storage), "/b", config()).unwrap();
        ship_all(&logged, &mut b);
        assert_eq!(b.term(), 2);
        assert_eq!(
            b.consistent_view().unwrap().to_snapshot().unwrap(),
            logged.database().to_snapshot().unwrap()
        );

        // The old primary comes back from the dead, still on term 1: its
        // batches are fenced, not applied.
        p.insert("person", atom("zombie"), atom("y")).unwrap();
        let mut old_src = ReplicationSource::for_primary(&p);
        let stale = old_src.poll(b.next_seq(), 10_000).unwrap();
        assert_eq!(stale.term, 1);
        match b.apply_batch(&stale).unwrap() {
            ApplyOutcome::Fenced {
                batch_term,
                replica_term,
            } => {
                assert_eq!(batch_term, 1);
                assert_eq!(replica_term, 2);
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
    }

    #[test]
    fn promotion_mid_txn_discards_dangling_frame() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        p.insert("person", atom("committed"), atom("y")).unwrap();
        p.begin().unwrap();
        p.insert("person", atom("doomed"), atom("y")).unwrap();
        // No commit: the primary dies mid-transaction.
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let mut r = Replica::open_with(storage, "/r", config()).unwrap();
        ship_all(&p, &mut r);
        assert!(r.status().open_txn);
        let holds = |db: &Database, x: &str| {
            let person = db.resolve("person").unwrap();
            db.store().table(person).contains(&atom(x), &atom("y"))
        };
        // The replica's serving view never saw the uncommitted insert.
        let view = r.consistent_view().unwrap();
        assert!(holds(&view, "committed"));
        assert!(!holds(&view, "doomed"));

        let Promotion { logged, report } = r.promote().unwrap();
        assert!(report.uncommitted_discarded > 0);
        assert!(holds(logged.database(), "committed"));
        assert!(!holds(logged.database(), "doomed"));
    }
}
