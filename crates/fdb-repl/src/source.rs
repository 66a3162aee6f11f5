//! The primary side of WAL shipping.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fdb_core::wal::{decode_payload, frame_len, list_segments, walk_log, Frames, RawFrame};
use fdb_core::{read_checkpoint, LogRecord, LoggedDatabase, WalStorage};
use fdb_types::{FdbError, Result};

use crate::frame::ShippedFrame;

/// A checkpoint snapshot shipped to a replica that has fallen behind the
/// source's segment retention (or is starting empty against a primary
/// whose early segments were pruned by checkpointing): the source's
/// installed checkpoint as it stands. Shipping resumes at `seq + 1`.
pub type Seed = fdb_core::CheckpointInfo;

/// One [`ReplicationSource::poll`] response.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The source's current replication term. A replica whose term is
    /// higher (because it was promoted, or follows a promoted primary)
    /// rejects the batch — this is the fence against a resurrected old
    /// primary.
    pub term: u64,
    /// Present when the requested position predates the retained
    /// segments: install this snapshot first, then apply `frames`.
    pub seed: Option<Seed>,
    /// Raw frames starting at the requested (or post-seed) position.
    pub frames: Vec<ShippedFrame>,
    /// Highest sequence number the source currently has, whether or not
    /// it fit in this batch.
    pub source_last_seq: u64,
    /// Records beyond this batch still waiting on the source.
    pub remaining_records: u64,
    /// On-disk bytes of those remaining records.
    pub remaining_bytes: u64,
    /// Trace id of the primary-side statement that produced this poll
    /// (0 when the poll ran untraced). Rides beside the frame bytes —
    /// never inside them, so frame CRCs and byte identity are untouched
    /// — and lets the replica's apply span join the primary's trace.
    pub trace_id: u64,
}

impl Batch {
    /// Whether the batch advances the replica at all.
    pub fn is_empty(&self) -> bool {
        self.seed.is_none() && self.frames.is_empty()
    }
}

/// Reads a primary's WAL directory and serves frame batches to replicas.
///
/// The source is pull-based and stateless per replica: each
/// [`poll`](ReplicationSource::poll) names the position the caller wants
/// to resume from, so any number of replicas (at different positions) can
/// share one source. All reads go through [`WalStorage`], so a `SimDisk`
/// primary exercises fault injection on the shipping path too.
#[derive(Debug)]
pub struct ReplicationSource {
    storage: Arc<dyn WalStorage>,
    dir: PathBuf,
    term: u64,
    /// Where the previous poll stopped parsing, so a steady tail —
    /// by far the common shape — re-walks only bytes appended since
    /// instead of re-checksumming the whole open segment every poll.
    cursor: Option<TailCursor>,
}

/// Resume point inside one segment file. Sound because a segment's
/// CRC-valid prefix is immutable: recovery truncates only at or beyond
/// the first flaw, appends land after it, and pruned first-seq names
/// never recur (sequence numbers are monotonic). Any poll the cursor
/// cannot serve falls back to the full walk.
#[derive(Debug)]
struct TailCursor {
    /// Segment the cursor points into.
    path: PathBuf,
    /// Byte offset just past the last intact frame (magic included).
    offset: u64,
    /// Sequence number the next frame at `offset` will carry.
    next_seq: u64,
}

impl ReplicationSource {
    /// Opens a source over a WAL directory, recovering the current term
    /// the way the primary's own recovery does — from the checkpoint and
    /// any `NewTerm` records after it — but only looking: the log is
    /// never repaired from here.
    pub fn new(storage: Arc<dyn WalStorage>, dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_owned();
        let term = walk_log(storage.as_ref(), &dir)?.term;
        Ok(ReplicationSource {
            storage,
            dir,
            term,
            cursor: None,
        })
    }

    /// A source for a live primary, inheriting its storage, directory and
    /// term without rescanning.
    pub fn for_primary(primary: &LoggedDatabase) -> Self {
        ReplicationSource {
            storage: primary.storage(),
            dir: primary.dir().to_owned(),
            term: primary.term(),
            cursor: None,
        }
    }

    /// The term this source currently stamps on batches.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Collects up to `max_records` frames starting at `from_seq`.
    ///
    /// If `from_seq` predates the earliest retained segment the batch
    /// carries a checkpoint [`Seed`] and the frames resume after it. The
    /// batch always reports the source's last sequence number and how
    /// much is still pending, so the replica can publish its lag.
    pub fn poll(&mut self, from_seq: u64, max_records: usize) -> Result<Batch> {
        let ckpt = read_checkpoint(self.storage.as_ref(), &self.dir)?;
        if let Some(info) = &ckpt {
            self.term = self.term.max(info.term);
        }
        let segments = list_segments(self.storage.as_ref(), &self.dir)?;

        let mut seed = None;
        let mut resume = from_seq;
        let earliest = segments.first().map(|(s, _)| *s);
        if earliest.map_or(true, |e| e > from_seq) {
            // The requested frame is gone (pruned below a checkpoint) or
            // there are no segments at all: seed from the checkpoint if
            // it covers the gap.
            match ckpt {
                Some(info) if info.seq + 1 >= from_seq => {
                    resume = info.seq + 1;
                    if earliest.is_some_and(|e| e > resume) {
                        return Err(FdbError::Internal(format!(
                            "replication retention gap: checkpoint covers through {}, earliest segment starts at {}",
                            info.seq,
                            earliest.unwrap_or(0)
                        )));
                    }
                    seed = Some(info);
                }
                Some(info) => {
                    return Err(FdbError::Internal(format!(
                        "replication retention gap: replica wants {from_seq}, source retains nothing before checkpoint seq {}",
                        info.seq
                    )));
                }
                None if segments.is_empty() => {
                    // Brand-new source: nothing to ship yet.
                    return Ok(Batch {
                        term: self.term,
                        seed: None,
                        frames: Vec::new(),
                        source_last_seq: from_seq.saturating_sub(1),
                        remaining_records: 0,
                        remaining_bytes: 0,
                        trace_id: fdb_obs::causal::current_trace_id(),
                    });
                }
                None => {
                    return Err(FdbError::Internal(format!(
                        "replication retention gap: replica wants {from_seq}, earliest segment starts at {}",
                        earliest.unwrap_or(0)
                    )));
                }
            }
        }

        let mut frames = Vec::new();
        let mut remaining_records = 0u64;
        let mut remaining_bytes = 0u64;
        let mut source_last_seq = ckpt_floor(&seed, resume);
        let mut next_cursor = None;
        for (i, (first_seq, path)) in segments.iter().enumerate() {
            // Skip segments wholly before the resume point: a segment is
            // still needed if no later segment starts at or below resume.
            if segments.get(i + 1).is_some_and(|(next, _)| *next <= resume) {
                continue;
            }
            let (bytes, resumed) =
                read_segment(self.storage.as_ref(), self.cursor.as_ref(), path, resume)?;
            let mut walker = match resumed {
                Some(c) => Frames::tail(&bytes, c.offset, c.next_seq),
                None => Frames::segment(&bytes, *first_seq),
            };
            for f in walker.by_ref() {
                if let Some(t) = frame_term(&f) {
                    self.term = self.term.max(t);
                }
                source_last_seq = source_last_seq.max(f.seq);
                if f.seq < resume {
                    continue;
                }
                if frames.len() < max_records {
                    frames.push(ShippedFrame::from(f));
                } else {
                    remaining_records += 1;
                    remaining_bytes += frame_len(f.payload.len());
                }
            }
            next_cursor = Some(TailCursor {
                path: path.clone(),
                offset: walker.valid_len(),
                next_seq: walker.next_seq(),
            });
            if walker.flaw().is_some() {
                // Ship the valid prefix; the primary's own recovery owns
                // the damage beyond it.
                break;
            }
        }
        self.cursor = next_cursor;

        let reg = fdb_obs::registry();
        reg.repl_records_shipped.add(frames.len() as u64);
        reg.repl_bytes_shipped
            .add(frames.iter().map(ShippedFrame::encoded_len).sum());
        fdb_obs::causal::point("fdb.repl.ship", || {
            format!(
                "from_seq={from_seq} frames={} remaining={remaining_records}",
                frames.len()
            )
        });

        Ok(Batch {
            term: self.term,
            seed,
            frames,
            source_last_seq,
            remaining_records,
            remaining_bytes,
            trace_id: fdb_obs::causal::current_trace_id(),
        })
    }
}

/// Reads one segment for walking, resuming at the cursor when it points
/// into this segment and everything before it is already behind the
/// caller (`resume >= cursor.next_seq`) — then only the bytes appended
/// since the last poll are read and checksummed, and the cursor they
/// start at is returned beside them.
fn read_segment<'c>(
    storage: &dyn WalStorage,
    cursor: Option<&'c TailCursor>,
    path: &Path,
    resume: u64,
) -> Result<(Vec<u8>, Option<&'c TailCursor>)> {
    let read_err = |e| FdbError::Internal(format!("repl source read segment: {e}"));
    if let Some(c) = cursor.filter(|c| c.path == *path && resume >= c.next_seq) {
        // `None` means the file shrank below the cursor — which the
        // immutable-prefix argument says cannot happen, so re-walk the
        // whole segment rather than trust the argument with someone's
        // data. Same for a flaw right at the cursor: it could be a torn
        // tail, or bytes under the cursor having changed.
        let tail = storage
            .read_from(path, c.offset)
            .map_err(read_err)?
            .filter(|t| t.is_empty() || Frames::tail(t, c.offset, c.next_seq).next().is_some());
        if let Some(tail) = tail {
            return Ok((tail, Some(c)));
        }
    }
    Ok((storage.read(path).map_err(read_err)?, None))
}

/// Highest seq known before any frame is seen: the seed's coverage, else
/// just below the resume point.
fn ckpt_floor(seed: &Option<Seed>, resume: u64) -> u64 {
    match seed {
        Some(s) => s.seq,
        None => resume.saturating_sub(1),
    }
}

/// The term a frame announces, if it is a `NewTerm` record. Checks for
/// the variant name in the raw bytes first so ordinary data frames skip
/// the JSON parse.
fn frame_term(frame: &RawFrame<'_>) -> Option<u64> {
    if !frame
        .payload
        .windows(b"NewTerm".len())
        .any(|w| w == b"NewTerm")
    {
        return None;
    }
    match decode_payload(frame.payload) {
        Ok(Some(LogRecord::NewTerm { term })) => Some(term),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::{Database, DurabilityConfig, LoggedDatabase, SimDisk, SyncPolicy};
    use fdb_types::{Functionality, Value};

    fn primary(disk: &Arc<SimDisk>, dir: &str) -> LoggedDatabase {
        let storage: Arc<dyn WalStorage> = Arc::clone(disk) as _;
        let mut db = LoggedDatabase::create_with(
            storage,
            dir,
            DurabilityConfig {
                sync_policy: SyncPolicy::Always,
                checkpoint_every: None,
                segment_max_bytes: 512,
            },
        )
        .unwrap();
        db.declare("person", "dom", "cod", Functionality::ManyMany)
            .unwrap();
        db
    }

    fn atom(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn poll_ships_everything_then_tail_only() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..10 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let mut src = ReplicationSource::for_primary(&p);
        let b = src.poll(1, 1024).unwrap();
        assert!(b.seed.is_none());
        assert_eq!(b.source_last_seq, p.last_seq());
        assert_eq!(b.frames.last().unwrap().seq, p.last_seq());
        assert_eq!(b.remaining_records, 0);

        // Tail from the end: nothing new.
        let b2 = src.poll(p.last_seq() + 1, 1024).unwrap();
        assert!(b2.is_empty());
        assert_eq!(b2.source_last_seq, p.last_seq());

        // New writes appear in the next poll.
        p.insert("person", atom("z"), atom("y")).unwrap();
        let b3 = src.poll(b.frames.last().unwrap().seq + 1, 1024).unwrap();
        assert!(!b3.is_empty());
    }

    #[test]
    fn poll_respects_max_records_and_reports_remainder() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..20 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let mut src = ReplicationSource::for_primary(&p);
        let b = src.poll(1, 5).unwrap();
        assert_eq!(b.frames.len(), 5);
        assert_eq!(b.remaining_records, p.last_seq() - 5);
        assert!(b.remaining_bytes > 0);
        assert_eq!(b.source_last_seq, p.last_seq());
    }

    #[test]
    fn poll_seeds_when_behind_retention() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        for i in 0..8 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        // Checkpointing prunes the segments it covers, so a replica
        // starting from seq 1 can only be served via a seed.
        p.checkpoint().unwrap();
        let at_ckpt = p.database().to_snapshot().unwrap();
        for i in 8..12 {
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
        }
        let mut src = ReplicationSource::for_primary(&p);
        let b = src.poll(1, 1024).unwrap();
        let seed = b.seed.expect("seed expected when frames were pruned");
        assert_eq!(seed.seq, p.checkpoint_seq());
        let seeded = Database::from_snapshot(&seed.snapshot).unwrap();
        assert_eq!(seeded.to_snapshot().unwrap(), at_ckpt);
        if let Some(first) = b.frames.first() {
            assert_eq!(first.seq, seed.seq + 1);
        }
        assert_eq!(b.source_last_seq, p.last_seq());
    }

    #[test]
    fn cursored_tail_matches_fresh_source() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        let mut tail = ReplicationSource::for_primary(&p);
        let mut pos = 1u64;
        for i in 0..40 {
            // ~512-byte segments rotate several times over 40 inserts, so
            // the cursor crosses segment boundaries mid-test.
            p.insert("person", atom(&format!("x{i}")), atom("y"))
                .unwrap();
            if i % 3 != 0 {
                continue;
            }
            let got = tail.poll(pos, 1024).unwrap();
            let want = ReplicationSource::for_primary(&p).poll(pos, 1024).unwrap();
            assert_eq!(got.frames, want.frames, "tail poll diverged at insert {i}");
            assert_eq!(got.source_last_seq, want.source_last_seq);
            if let Some(last) = got.frames.last() {
                pos = last.seq + 1;
            }
        }
        // An overlapping re-poll (cursor can't serve it) falls back to
        // the full walk and still matches a fresh source.
        let got = tail.poll(1, 1024).unwrap();
        let want = ReplicationSource::for_primary(&p).poll(1, 1024).unwrap();
        assert_eq!(got.frames, want.frames);
        assert_eq!(got.frames.last().unwrap().seq, p.last_seq());
        // And the cursor it leaves behind still tails correctly.
        p.insert("person", atom("tail"), atom("y")).unwrap();
        let got = tail.poll(p.last_seq(), 1024).unwrap();
        assert_eq!(got.frames.len(), 1);
        assert_eq!(got.frames[0].seq, p.last_seq());
    }

    #[test]
    fn source_term_recovered_from_disk() {
        let disk = Arc::new(SimDisk::new());
        let mut p = primary(&disk, "/p");
        p.insert("person", atom("a"), atom("y")).unwrap();
        p.start_term(4).unwrap();
        p.insert("person", atom("b"), atom("y")).unwrap();
        drop(p);
        let storage: Arc<dyn WalStorage> = Arc::clone(&disk) as _;
        let src = ReplicationSource::new(storage, "/p").unwrap();
        assert_eq!(src.term(), 4);
    }
}
