//! Write-ahead logging and crash recovery.
//!
//! The paper's system is an in-memory design aid; a database library
//! needs durability. The WAL is a log of [`LogRecord`]s — schema
//! declarations, derivation registrations, and the three §3 update
//! operations — identified by *function name* rather than id so a log is
//! meaningful independent of declaration order details. Replaying the log
//! from an empty database reconstructs the exact logical state, including
//! NCs, NVCs and the null-generator watermark (updates are
//! deterministic).
//!
//! This module is the only one that knows how a log is laid out on
//! storage; the durable engine ([`crate::durability`]) and replication
//! (`fdb-repl`) read it through [`walk_log`] and [`Frames`] and write it
//! through [`Wal`].
//!
//! # Layout
//!
//! | Piece | Bytes |
//! |---|---|
//! | log directory | `checkpoint.snap` (optional) + `wal-<first seq, 10 digits>.seg` segments; recovery is *checkpoint, then segments in order of first seq* |
//! | segment (v2) | 8-byte magic `FDBWAL2\n`, then frames with contiguous sequence numbers |
//! | frame | `[len: u32 LE][crc32: u32 LE][seq: u64 LE][payload]` — the payload is the record's JSON, the CRC covers seq and payload |
//! | checkpoint | `FDBCKPT2`, then `[seq: u64 LE][term: u64 LE][body_len: u64 LE][crc32: u32 LE][body]` — the body is [`Database::to_snapshot`]'s bytes as they are, the CRC covers seq, term, body_len and body; written to `checkpoint.tmp`, fsynced, renamed into place |
//! | legacy checkpoint | a file starting with `{`: JSON `{seq, snapshot, term}` with the snapshot as an escaped JSON string and no checksum; read, never written — the next checkpoint replaces it |
//! | legacy file (v1) | newline-delimited plain JSON, one record per line, numbered by position |
//!
//! A path that names a *file* is a one-file log (v1, or a single v2
//! segment) with no checkpoint; [`Wal::open_append`] on a v1 file keeps
//! appending v1 lines so a legacy log never becomes mixed-format.
//!
//! # Recovery
//!
//! Damaged bytes never fail a read: every reader salvages the longest
//! valid prefix and reports what stopped it as a typed [`Corruption`] —
//! a torn tail (the classic crash-during-append artifact), a checksum
//! mismatch from bit rot, malformed payload bytes, or a sequence gap.
//! [`walk_log`] itself is read-only; [`LogWalk::repair`] moves the
//! damaged suffix aside into a `.quarantine` file, truncates to the
//! valid prefix and sets unreachable segments aside, so appends never
//! interleave with garbage.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fdb_types::{Derivation, FdbError, Functionality, Result, Step, Value};

use crate::database::Database;
use crate::storage::{FileStorage, WalFile, WalStorage};

/// One durable log entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogRecord {
    /// `DECLARE name: domain -> range (functionality)`.
    Declare {
        /// Function name.
        name: String,
        /// Domain type name.
        domain: String,
        /// Range type name.
        range: String,
        /// Declared functionality.
        functionality: Functionality,
    },
    /// Registration of a derivation for `name`.
    Derive {
        /// The derived function's name.
        name: String,
        /// Steps as `(function name, inverted)` pairs.
        steps: Vec<(String, bool)>,
    },
    /// `INS(f, <x, y>)`.
    Insert {
        /// Function name.
        function: String,
        /// Domain value.
        x: Value,
        /// Range value.
        y: Value,
    },
    /// `DEL(f, <x, y>)`.
    Delete {
        /// Function name.
        function: String,
        /// Domain value.
        x: Value,
        /// Range value.
        y: Value,
    },
    /// `REP(f, <x₁,y₁>, <x₂,y₂>)`.
    Replace {
        /// Function name.
        function: String,
        /// Pair to remove.
        old: (Value, Value),
        /// Pair to add.
        new: (Value, Value),
    },
    /// Opens an atomic transaction frame: recovery buffers every record
    /// after this marker and applies them only when the matching
    /// [`LogRecord::TxnCommit`] is reached. A crash (or an explicit
    /// [`LogRecord::TxnAbort`]) before the commit marker discards the
    /// buffered records, so recovery lands on the pre-`BEGIN` state.
    TxnBegin {
        /// Transaction id, unique within the log's lifetime.
        id: u64,
    },
    /// Closes the transaction frame opened by the matching
    /// [`LogRecord::TxnBegin`], making its records visible to recovery.
    TxnCommit {
        /// Id of the transaction being committed.
        id: u64,
    },
    /// Discards the transaction frame opened by the matching
    /// [`LogRecord::TxnBegin`] (an explicit `ROLLBACK`). Logged so the
    /// sequence stays contiguous and the abort is auditable.
    TxnAbort {
        /// Id of the transaction being rolled back.
        id: u64,
    },
    /// Named savepoint inside an open transaction frame. Recovery marks
    /// the buffer position so a later [`LogRecord::TxnRollbackTo`] can
    /// discard exactly the records the live system undid.
    TxnSavepoint {
        /// The savepoint's name (a later savepoint with the same name
        /// replaces it, mirroring the live semantics).
        name: String,
    },
    /// Partial rollback: the frame's records since the named savepoint
    /// were undone by the live system and must not be replayed even if
    /// the transaction later commits.
    TxnRollbackTo {
        /// The savepoint rolled back to (which stays set).
        name: String,
    },
    /// A new replication term (epoch) starts at this point in the log.
    /// Written by failover promotion; a replica rejects batches stamped
    /// with a term lower than the highest it has applied, fencing off a
    /// resurrected old primary. Carries no data — older readers skip it
    /// via the unknown-record path.
    NewTerm {
        /// The monotonically increasing term number.
        term: u64,
    },
}

impl LogRecord {
    /// Whether this is a transaction framing marker rather than a data
    /// record.
    pub fn is_txn_marker(&self) -> bool {
        matches!(
            self,
            LogRecord::TxnBegin { .. }
                | LogRecord::TxnCommit { .. }
                | LogRecord::TxnAbort { .. }
                | LogRecord::TxnSavepoint { .. }
                | LogRecord::TxnRollbackTo { .. }
        )
    }
}

pub(crate) fn io_err(what: &str, e: std::io::Error) -> FdbError {
    FdbError::Internal(format!("wal: {what}: {e}"))
}

// --------------------------------------------------------------- format

/// Magic header identifying a v2 log file.
pub const WAL_MAGIC: &[u8; 8] = b"FDBWAL2\n";

/// Frame header size: `len` + `crc` + `seq`.
const FRAME_HEADER: usize = 4 + 4 + 8;

/// Upper bound on a single record's payload; anything larger is treated
/// as corruption rather than an allocation request.
const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Slicing-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte-at-a-time table, `CRC_TABLES[k][b]` the state
/// after byte `b` followed by `k` zero bytes — eight input bytes fold
/// into the state with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `data` into a running (not yet inverted) CRC-32 state, eight
/// bytes per step; the state after any split of `data` is the same.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// The checksum a frame header carries: CRC-32 over the little-endian
/// sequence number followed by the payload.
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, &seq.to_le_bytes()), payload)
}

/// On-disk size of a frame carrying `payload_len` payload bytes.
pub fn frame_len(payload_len: usize) -> u64 {
    (FRAME_HEADER + payload_len) as u64
}

/// Lays out one frame, `[len][crc][seq][payload]`, exactly as it sits in
/// a segment file.
pub fn raw_frame(seq: u64, crc: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes one framed v2 record.
pub fn encode_frame(seq: u64, record: &LogRecord) -> Result<Vec<u8>> {
    let payload = serde_json::to_string(record)
        .map_err(|e| FdbError::Internal(format!("wal: serialise: {e}")))?;
    let payload = payload.as_bytes();
    Ok(raw_frame(seq, frame_crc(seq, payload), payload))
}

/// Decodes a record payload (a frame's, or a v1 line). `Ok(None)` is
/// valid JSON that is not a [`LogRecord`] this version knows — written
/// deliberately by a newer version, to be skipped rather than treated as
/// corruption. `Err` says what failed to decode.
pub fn decode_payload(payload: &[u8]) -> std::result::Result<Option<LogRecord>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    match serde_json::from_str::<LogRecord>(text) {
        Ok(record) => Ok(Some(record)),
        Err(_) if serde_json::parse(text).is_ok() => Ok(None),
        Err(e) => Err(format!("payload JSON: {e}")),
    }
}

/// What stopped a log scan before the end of the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// The final frame (or line) extends past the end of the file — the
    /// expected artifact of a crash during append.
    TornRecord {
        /// Byte offset where the torn frame starts.
        offset: u64,
    },
    /// A frame's CRC does not match its bytes (bit rot, torn overwrite).
    ChecksumMismatch {
        /// Byte offset of the damaged frame.
        offset: u64,
    },
    /// Frame or payload bytes that cannot be decoded.
    Malformed {
        /// Byte offset of the damaged bytes.
        offset: u64,
        /// What failed to decode.
        detail: String,
    },
    /// Sequence numbers stopped being contiguous.
    SequenceGap {
        /// Byte offset of the out-of-order frame.
        offset: u64,
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
}

impl Corruption {
    /// Byte offset at which the valid prefix ends.
    pub fn offset(&self) -> u64 {
        match self {
            Corruption::TornRecord { offset }
            | Corruption::ChecksumMismatch { offset }
            | Corruption::Malformed { offset, .. }
            | Corruption::SequenceGap { offset, .. } => *offset,
        }
    }

    /// Whether this is the benign crash artifact (a torn final record)
    /// rather than damage inside previously durable bytes.
    pub fn is_torn_tail(&self) -> bool {
        matches!(self, Corruption::TornRecord { .. })
    }
}

/// A [`Corruption`] located in a specific log file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// The damaged file.
    pub segment: PathBuf,
    /// What was found there.
    pub flaw: Corruption,
}

/// Outcome of recovering a log (or a whole segmented directory).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records applied by replay (excluding any checkpoint restore).
    pub applied: usize,
    /// `true` if the scan ended at a torn final record.
    pub torn_tail: bool,
    /// Highest sequence number incorporated into the recovered state,
    /// whether from a checkpoint or a replayed record. `None` for an
    /// empty log.
    pub last_seq: Option<u64>,
    /// Sequence number covered by the checkpoint the recovery started
    /// from, if any.
    pub checkpoint_seq: Option<u64>,
    /// Log files scanned.
    pub segments_scanned: usize,
    /// Every flaw found, in scan order. Salvage stops at the first one;
    /// later segments are quarantined wholesale.
    pub corruption: Vec<CorruptionEvent>,
    /// Bytes moved aside into quarantine files (0 for read-only replay).
    pub quarantined_bytes: u64,
    /// Records inside transactions that never reached their commit marker
    /// (crash mid-transaction, or an explicit abort) and were therefore
    /// discarded rather than applied. The crash-atomicity guarantee:
    /// recovery lands on the pre-`BEGIN` state, never between.
    pub uncommitted_discarded: usize,
    /// Well-formed records with unknown payloads skipped during the scan
    /// (see [`Scan::skipped`]).
    pub skipped_records: usize,
}

impl RecoveryReport {
    /// Whether any non-benign corruption was found (anything beyond a
    /// torn tail).
    pub fn damaged(&self) -> bool {
        self.corruption.iter().any(|e| !e.flaw.is_torn_tail())
    }
}

/// Little-endian decode of an exactly-4-byte slice (callers have
/// already length-checked the frame).
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian decode of an exactly-8-byte slice.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// One intact frame, borrowed from the bytes a [`Frames`] walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// The frame's sequence number.
    pub seq: u64,
    /// The checksum in its header (already verified, see [`frame_crc`]).
    pub crc: u32,
    /// The raw record payload (JSON text as bytes).
    pub payload: &'a [u8],
    /// Byte offset of the frame's header in its segment file.
    pub offset: u64,
}

/// The frame walker every reader of the v2 format is built on: yields
/// each intact frame in order and stops — without error — at the first
/// flaw, after which [`valid_len`](Frames::valid_len),
/// [`next_seq`](Frames::next_seq) and [`flaw`](Frames::flaw) say where
/// the valid prefix ends, which sequence number continues it, and why
/// the walk stopped. [`scan`] decodes the frames into records;
/// replication keeps their bytes.
#[derive(Clone, Debug)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    /// Offset of `bytes[0]` in the segment file.
    base: u64,
    /// Bytes consumed so far: the header and every intact frame.
    pos: usize,
    next_seq: u64,
    flaw: Option<Corruption>,
}

impl<'a> Frames<'a> {
    /// Walks a whole segment file: the magic header, then frames
    /// numbered from `first_seq`. A file cut inside its header is a torn
    /// tail at offset 0; any other start is not a v2 segment.
    pub fn segment(bytes: &'a [u8], first_seq: u64) -> Self {
        let mut frames = Frames::tail(bytes, 0, first_seq);
        if bytes.starts_with(WAL_MAGIC) {
            frames.pos = WAL_MAGIC.len();
        } else if WAL_MAGIC.starts_with(bytes) {
            if !bytes.is_empty() {
                frames.flaw = Some(Corruption::TornRecord { offset: 0 });
            }
        } else {
            frames.flaw = Some(Corruption::Malformed {
                offset: 0,
                detail: "no v2 magic header".to_owned(),
            });
        }
        frames
    }

    /// Walks bare frame bytes that start `base` bytes into a segment —
    /// what a reader tailing a growing segment reads past its cursor —
    /// expecting the first frame to carry `next_seq`.
    pub fn tail(bytes: &'a [u8], base: u64, next_seq: u64) -> Self {
        Frames {
            bytes,
            base,
            pos: 0,
            next_seq,
            flaw: None,
        }
    }

    /// Byte length of the valid prefix of the segment file: the header
    /// and every frame yielded so far.
    pub fn valid_len(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// The sequence number the frame after the valid prefix must carry.
    /// Every intact frame counts, whatever its payload decodes to.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// What stopped the walk, once it has ended before the last byte.
    pub fn flaw(&self) -> Option<&Corruption> {
        self.flaw.as_ref()
    }

    /// Takes back the frame just yielded: its payload does not decode,
    /// so the valid prefix ends before it.
    fn reject(&mut self, frame: &RawFrame<'_>, detail: String) {
        self.pos = (frame.offset - self.base) as usize;
        self.next_seq = frame.seq;
        self.flaw = Some(Corruption::Malformed {
            offset: frame.offset,
            detail,
        });
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = RawFrame<'a>;

    fn next(&mut self) -> Option<RawFrame<'a>> {
        if self.flaw.is_some() || self.pos >= self.bytes.len() {
            return None;
        }
        let offset = self.valid_len();
        let rest = &self.bytes[self.pos..];
        if rest.len() < FRAME_HEADER {
            self.flaw = Some(Corruption::TornRecord { offset });
            return None;
        }
        let len = le_u32(&rest[0..4]);
        let crc = le_u32(&rest[4..8]);
        if len > MAX_PAYLOAD {
            self.flaw = Some(Corruption::Malformed {
                offset,
                detail: format!("frame length {len} exceeds limit"),
            });
            return None;
        }
        let total = FRAME_HEADER + len as usize;
        if rest.len() < total {
            self.flaw = Some(Corruption::TornRecord { offset });
            return None;
        }
        // The checksummed part: the sequence number, then the payload.
        let checked = &rest[8..total];
        if crc32(checked) != crc {
            self.flaw = Some(Corruption::ChecksumMismatch { offset });
            return None;
        }
        let (seq, payload) = (le_u64(&checked[0..8]), &checked[8..]);
        if seq != self.next_seq {
            self.flaw = Some(Corruption::SequenceGap {
                offset,
                expected: self.next_seq,
                found: seq,
            });
            return None;
        }
        self.pos += total;
        self.next_seq += 1;
        Some(RawFrame {
            seq,
            crc,
            payload,
            offset,
        })
    }
}

/// The on-disk format of a scanned log file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFormat {
    /// Legacy newline-delimited JSON.
    V1,
    /// Framed, checksummed, sequence-numbered records.
    V2,
}

/// Result of scanning a log file's bytes without applying anything.
#[derive(Clone, Debug)]
pub struct Scan {
    /// Detected format.
    pub format: WalFormat,
    /// The valid records, in order, with their sequence numbers (v1
    /// records are numbered from `first_seq`).
    pub records: Vec<(u64, LogRecord)>,
    /// Byte length of the valid prefix (records beyond it are damaged).
    pub valid_len: u64,
    /// The sequence number the record appended after the valid prefix
    /// must carry. A skipped v2 frame has used its number up.
    pub next_seq: u64,
    /// What stopped the scan, if anything.
    pub flaw: Option<Corruption>,
    /// Well-formed records whose payload was valid JSON but not a known
    /// [`LogRecord`] — written by a newer version, skipped with a warning
    /// rather than treated as corruption. Bit rot still halts the scan:
    /// a v2 frame must pass its CRC, and a v1 line must be valid JSON,
    /// before it can be "unknown".
    pub skipped: usize,
    /// `(seq, crc)` of every intact v2 frame, skipped ones included
    /// (empty for a v1 file, which has no checksums).
    pub frames: Vec<(u64, u32)>,
}

/// Scans log bytes (either format), salvaging the longest valid prefix.
///
/// `first_seq` numbers v1 records (which carry no explicit sequence
/// numbers) and is the continuity check's expectation for the first v2
/// record.
pub fn scan(bytes: &[u8], first_seq: u64) -> Scan {
    let v2 = bytes.starts_with(WAL_MAGIC) || WAL_MAGIC.starts_with(bytes);
    let mut scan = Scan {
        format: if v2 { WalFormat::V2 } else { WalFormat::V1 },
        records: Vec::new(),
        valid_len: 0,
        next_seq: first_seq,
        flaw: None,
        skipped: 0,
        frames: Vec::new(),
    };
    if v2 {
        scan_v2(bytes, &mut scan);
    } else {
        scan_v1(bytes, &mut scan);
    }
    scan
}

/// The decoded view of [`Frames`].
fn scan_v2(bytes: &[u8], scan: &mut Scan) {
    let mut frames = Frames::segment(bytes, scan.next_seq);
    while let Some(frame) = frames.next() {
        match decode_payload(frame.payload) {
            Ok(Some(record)) => scan.records.push((frame.seq, record)),
            // The frame passed its CRC, so these bytes are exactly what
            // was written — a record type this version does not know, not
            // damage. Skip it (forward compatibility) instead of halting.
            Ok(None) => scan.skipped += 1,
            Err(detail) => {
                frames.reject(&frame, detail);
                break;
            }
        }
        scan.frames.push((frame.seq, frame.crc));
    }
    scan.valid_len = frames.valid_len();
    scan.next_seq = frames.next_seq();
    scan.flaw = frames.flaw;
}

fn scan_v1(bytes: &[u8], scan: &mut Scan) {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let (line, advance, complete) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (&rest[..nl], nl + 1, true),
            None => (rest, rest.len(), false),
        };
        if !line.iter().all(|b| b.is_ascii_whitespace()) {
            match decode_payload(line) {
                Ok(Some(record)) => {
                    scan.records.push((scan.next_seq, record));
                    scan.next_seq += 1;
                }
                _ if !complete => {
                    // A partial final line: the classic torn tail.
                    scan.flaw = Some(Corruption::TornRecord {
                        offset: offset as u64,
                    });
                    break;
                }
                // A complete line of valid JSON that is not a known record
                // was written deliberately (by a newer version); skip it.
                // Anything that fails even generic JSON parsing is damage.
                Ok(None) => scan.skipped += 1,
                Err(_) => {
                    scan.flaw = Some(Corruption::Malformed {
                        offset: offset as u64,
                        detail: "unparseable v1 line".to_owned(),
                    });
                    break;
                }
            }
        }
        offset += advance;
    }
    scan.valid_len = offset as u64;
}

// --------------------------------------------------------------- writer

/// An append-only log file (one v2 segment, or a legacy v1 file being
/// continued in place). The only writer of log bytes.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Box<dyn WalFile>,
    format: WalFormat,
    next_seq: u64,
    len: u64,
}

impl Wal {
    /// Creates a new, empty v2 log (truncating any existing file) on the
    /// real filesystem, with sequence numbers starting at 1.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Wal::create_on(Arc::new(FileStorage), path.as_ref(), 1)
    }

    /// Creates a new, empty v2 log on `storage`, numbering records from
    /// `first_seq`. The file and its parent directory entry are synced so
    /// the new log survives a crash immediately after creation.
    pub fn create_on(
        storage: Arc<dyn WalStorage>,
        path: impl AsRef<Path>,
        first_seq: u64,
    ) -> Result<Self> {
        let path = path.as_ref().to_owned();
        let mut file = storage.create(&path).map_err(|e| io_err("create", e))?;
        file.append(WAL_MAGIC)
            .map_err(|e| io_err("write magic", e))?;
        file.sync().map_err(|e| io_err("sync", e))?;
        if let Some(parent) = parent_dir(&path) {
            storage
                .sync_dir(parent)
                .map_err(|e| io_err("sync parent dir", e))?;
        }
        Ok(Wal {
            path,
            file,
            format: WalFormat::V2,
            next_seq: first_seq,
            len: WAL_MAGIC.len() as u64,
        })
    }

    /// Creates the segment of the log directory `dir` that starts at
    /// `first_seq`, as [`Wal::create_on`] does.
    pub fn create_segment(
        storage: Arc<dyn WalStorage>,
        dir: &Path,
        first_seq: u64,
    ) -> Result<Self> {
        Wal::create_on(storage, dir.join(segment_name(first_seq)), first_seq)
    }

    /// Opens an existing log for appending (creating an empty v2 log if
    /// absent) on the real filesystem.
    ///
    /// The existing contents are scanned: a damaged suffix is truncated
    /// away (after the valid prefix) so appends never follow garbage, and
    /// appending continues in the file's own format — a v1 file keeps
    /// receiving v1 lines.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self> {
        Wal::open_append_on(Arc::new(FileStorage), path.as_ref(), 1)
    }

    /// [`Wal::open_append`] on an explicit storage; `first_seq` numbers
    /// the records of a v1 file (and the expected first sequence of v2).
    pub fn open_append_on(
        storage: Arc<dyn WalStorage>,
        path: impl AsRef<Path>,
        first_seq: u64,
    ) -> Result<Self> {
        let path = path.as_ref().to_owned();
        if !storage.is_file(&path) {
            return Wal::create_on(storage, &path, first_seq);
        }
        let bytes = storage.read(&path).map_err(|e| io_err("read", e))?;
        let scanned = scan(&bytes, first_seq);
        if scanned.valid_len < bytes.len() as u64 {
            storage
                .truncate(&path, scanned.valid_len)
                .map_err(|e| io_err("truncate damaged suffix", e))?;
        }
        Wal::open_at(
            storage,
            path,
            scanned.format,
            scanned.valid_len,
            scanned.next_seq,
        )
    }

    /// Opens `path` for appending at a position its reader has already
    /// established: `valid_len` intact bytes (the file is no longer than
    /// that) ending just before sequence number `next_seq`.
    fn open_at(
        storage: Arc<dyn WalStorage>,
        path: PathBuf,
        format: WalFormat,
        valid_len: u64,
        next_seq: u64,
    ) -> Result<Self> {
        if valid_len == 0 {
            // A zero-byte file (e.g. a segment torn before its magic
            // header landed, then truncated by salvage) is recreated so
            // the magic gets written.
            return Wal::create_on(storage, &path, next_seq);
        }
        let file = storage
            .open_append(&path)
            .map_err(|e| io_err("open append", e))?;
        Ok(Wal {
            path,
            file,
            format,
            next_seq,
            len: valid_len,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory the log file lives in.
    pub fn dir(&self) -> &Path {
        parent_dir(&self.path).unwrap_or(Path::new("."))
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current valid length of the file in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        match self.format {
            WalFormat::V2 => self.len <= WAL_MAGIC.len() as u64,
            WalFormat::V1 => self.len == 0,
        }
    }

    /// Appends one record and flushes it to the storage layer. Returns
    /// the record's sequence number.
    pub fn append(&mut self, record: &LogRecord) -> Result<u64> {
        let seq = self.next_seq;
        let frame = match self.format {
            WalFormat::V2 => encode_frame(seq, record)?,
            WalFormat::V1 => {
                let mut line = serde_json::to_string(record)
                    .map_err(|e| FdbError::Internal(format!("wal: serialise: {e}")))?
                    .into_bytes();
                line.push(b'\n');
                line
            }
        };
        self.write(&frame)?;
        Ok(seq)
    }

    /// Appends a frame that already exists — one a replica was shipped —
    /// byte for byte as it sits in the log it came from. Refused unless
    /// it is the next frame of this (v2) log.
    pub fn append_frame(&mut self, seq: u64, crc: u32, payload: &[u8]) -> Result<()> {
        if self.format != WalFormat::V2 || seq != self.next_seq {
            return Err(FdbError::Internal(format!(
                "wal: frame {seq} cannot follow seq {} of a {:?} log",
                self.next_seq.saturating_sub(1),
                self.format
            )));
        }
        self.write(&raw_frame(seq, crc, payload))
    }

    /// Hands the next record's bytes to the storage layer.
    fn write(&mut self, frame: &[u8]) -> Result<()> {
        let seq = self.next_seq;
        self.file.append(frame).map_err(|e| io_err("append", e))?;
        self.next_seq = seq + 1;
        self.len += frame.len() as u64;
        let reg = fdb_obs::registry();
        reg.wal_appends.inc();
        reg.wal_append_bytes.add(frame.len() as u64);
        reg.wal_append_size_bytes.record(frame.len() as u64);
        fdb_obs::causal::point("fdb.wal.append", || {
            format!("seq={seq} bytes={}", frame.len())
        });
        Ok(())
    }

    /// Closes this segment (syncing it) and continues in a fresh one
    /// beside it, named for the next frame.
    pub fn rotate(&mut self, storage: &Arc<dyn WalStorage>) -> Result<()> {
        self.sync()?;
        *self = Wal::create_segment(Arc::clone(storage), self.dir(), self.next_seq)?;
        Ok(())
    }

    /// Durably syncs the file to disk. A failure is counted in
    /// `fdb.wal.fsync_failures` before surfacing — `STATS` shows it even
    /// when the caller (e.g. a commit-marker force-fsync) turns the error
    /// into a rollback.
    pub fn sync(&mut self) -> Result<()> {
        let mut span = fdb_obs::causal::child_span("fdb.wal.fsync", String::new);
        self.file.sync().map_err(|e| {
            fdb_obs::registry().wal_fsync_failures.inc();
            span.set_error();
            // A failed fsync is a flight-dump trigger: the causal spans
            // leading up to it (statement, txn, group convoy) are
            // exactly what the operator needs, captured before the
            // error unwinds into rollback handling.
            fdb_obs::flight::dump_on_fault(&format!("fsync_failure: {e}"));
            io_err("sync", e)
        })?;
        fdb_obs::registry().wal_fsyncs.inc();
        Ok(())
    }
}

/// A path's parent, ignoring the empty parent of bare relative names.
fn parent_dir(path: &Path) -> Option<&Path> {
    path.parent().filter(|p| !p.as_os_str().is_empty())
}

/// Publishes a finalised [`RecoveryReport`] to the metrics registry.
/// Called exactly once per recovery, at the point where the report is
/// complete (never inside the per-segment loop, which would double
/// count).
fn observe_recovery(report: &RecoveryReport) {
    let reg = fdb_obs::registry();
    reg.recovery_runs.inc();
    reg.recovery_records_salvaged.add(report.applied as u64);
    reg.recovery_corruption_events
        .add(report.corruption.len() as u64);
    reg.recovery_quarantined_bytes.add(report.quarantined_bytes);
    reg.txn_recovery_discarded
        .add(report.uncommitted_discarded as u64);
    reg.recovery_uncommitted_discarded
        .add(report.uncommitted_discarded as u64);
    reg.wal_skipped_records.add(report.skipped_records as u64);
}

// --------------------------------------------------------------- replay

/// Applies one record to a database.
pub fn apply_record(db: &mut Database, record: &LogRecord) -> Result<()> {
    match record {
        LogRecord::Declare {
            name,
            domain,
            range,
            functionality,
        } => {
            db.declare_function(name, domain, range, *functionality)?;
            Ok(())
        }
        LogRecord::Derive { name, steps } => {
            let f = db.resolve(name)?;
            let steps: Result<Vec<Step>> = steps
                .iter()
                .map(|(n, inv)| {
                    db.resolve(n).map(|id| {
                        if *inv {
                            Step::inverse(id)
                        } else {
                            Step::identity(id)
                        }
                    })
                })
                .collect();
            db.add_derivation(f, Derivation::new(steps?)?)
        }
        LogRecord::Insert { function, x, y } => {
            let f = db.resolve(function)?;
            db.insert(f, x.clone(), y.clone())
        }
        LogRecord::Delete { function, x, y } => {
            let f = db.resolve(function)?;
            db.delete(f, x, y)
        }
        LogRecord::Replace { function, old, new } => {
            let f = db.resolve(function)?;
            db.replace(f, old.clone(), new.clone())
        }
        // Framing markers carry no state of their own; their semantics
        // (commit-only visibility) live in [`TxnReplayer`], which callers
        // recovering a log must route records through. `NewTerm` is a
        // replication fencing marker: it changes who may write the log,
        // not what the log says.
        LogRecord::TxnBegin { .. }
        | LogRecord::TxnCommit { .. }
        | LogRecord::TxnAbort { .. }
        | LogRecord::TxnSavepoint { .. }
        | LogRecord::TxnRollbackTo { .. }
        | LogRecord::NewTerm { .. } => Ok(()),
    }
}

/// Replays records with transactional visibility: records between a
/// [`LogRecord::TxnBegin`] and its [`LogRecord::TxnCommit`] are buffered
/// and applied only when the commit marker arrives; a [`LogRecord::TxnAbort`]
/// or the end of the log (crash) discards the buffer. Feed every scanned
/// record through one replayer — its state spans segment boundaries — and
/// call [`TxnReplayer::finish`] when the scan ends.
#[derive(Clone, Debug, Default)]
pub struct TxnReplayer {
    /// Open transaction frame, if one is being buffered.
    open: Option<OpenTxn>,
    /// A committed frame held back for one record: a writer whose commit
    /// fsync failed appends a revoking [`LogRecord::TxnAbort`] right
    /// after the marker (the marker's durability was unknown, so the
    /// writer rolled its live state back). The frame is applied when any
    /// other record — or the end of the scan — confirms the commit stood.
    pending: Option<PendingCommit>,
    /// Records discarded because their transaction never committed (or
    /// was partially rolled back before committing).
    discarded: usize,
}

/// An open transaction frame being buffered during replay.
#[derive(Clone, Debug)]
struct OpenTxn {
    id: u64,
    buffered: Vec<LogRecord>,
    /// Savepoint name → buffer position at the time it was set.
    savepoints: Vec<(String, usize)>,
}

/// A committed frame not yet applied (awaiting one record of lookahead
/// for a possible revoking abort).
#[derive(Clone, Debug)]
struct PendingCommit {
    id: u64,
    buffered: Vec<LogRecord>,
}

impl TxnReplayer {
    /// A replayer with no open transaction.
    pub fn new() -> Self {
        TxnReplayer::default()
    }

    fn discard_open(&mut self) {
        if let Some(open) = self.open.take() {
            self.discarded += open.buffered.len();
        }
    }

    /// Processes one record, applying it (or the transaction it closes)
    /// to `db`. Returns the number of data records applied by this call:
    /// 1 for a plain record outside a transaction, 0 for a buffered or
    /// framing record, the buffer's length for a commit marker.
    pub fn feed(&mut self, db: &mut Database, record: &LogRecord) -> Result<usize> {
        let mut applied = 0;
        if let Some(pending) = self.pending.take() {
            if matches!(record, LogRecord::TxnAbort { id } if *id == pending.id) {
                // The abort revokes the unsynced commit marker.
                self.discarded += pending.buffered.len();
                return Ok(0);
            }
            // Any other record confirms the commit: apply the held frame
            // before processing it.
            applied += pending.buffered.len();
            for r in &pending.buffered {
                apply_record(db, r)?;
            }
        }
        Ok(applied + self.feed_inner(db, record)?)
    }

    fn feed_inner(&mut self, db: &mut Database, record: &LogRecord) -> Result<usize> {
        match record {
            LogRecord::TxnBegin { id } => {
                // A begin inside an open frame can only come from a writer
                // that crashed without closing it; the older buffer can
                // never reach its commit marker, so drop it.
                self.discard_open();
                self.open = Some(OpenTxn {
                    id: *id,
                    buffered: Vec::new(),
                    savepoints: Vec::new(),
                });
                Ok(0)
            }
            LogRecord::TxnCommit { id } => match self.open.take() {
                Some(open) if open.id == *id => {
                    // Held back one record for a possible revoking abort;
                    // applied by the next feed or by `finish`.
                    self.pending = Some(PendingCommit {
                        id: *id,
                        buffered: open.buffered,
                    });
                    Ok(0)
                }
                // A commit that does not match the open frame commits
                // nothing; the unmatched buffer is unreachable by its own
                // commit, so drop it.
                Some(open) => {
                    self.discarded += open.buffered.len();
                    Ok(0)
                }
                None => Ok(0),
            },
            LogRecord::TxnAbort { .. } => {
                self.discard_open();
                Ok(0)
            }
            LogRecord::TxnSavepoint { name } => {
                if let Some(open) = &mut self.open {
                    // A same-named savepoint replaces the earlier one,
                    // mirroring the live semantics.
                    open.savepoints.retain(|(n, _)| n != name);
                    open.savepoints.push((name.clone(), open.buffered.len()));
                }
                Ok(0)
            }
            LogRecord::TxnRollbackTo { name } => {
                if let Some(open) = &mut self.open {
                    if let Some(pos) = open.savepoints.iter().rposition(|(n, _)| n == name) {
                        let mark = open.savepoints[pos].1;
                        self.discarded += open.buffered.len().saturating_sub(mark);
                        open.buffered.truncate(mark);
                        // The named savepoint survives; later ones do not.
                        open.savepoints.truncate(pos + 1);
                    }
                }
                Ok(0)
            }
            // A term marker is never transaction data: promotion closes
            // dangling frames before stamping it, and even a malformed log
            // must not swallow it into a buffer.
            LogRecord::NewTerm { .. } => Ok(0),
            _ => match &mut self.open {
                Some(open) => {
                    open.buffered.push(record.clone());
                    Ok(0)
                }
                None => {
                    apply_record(db, record)?;
                    Ok(1)
                }
            },
        }
    }

    /// Id of the transaction frame currently open (buffering), if any.
    /// After a scan ends, a `Some` here means the log's tail is a
    /// dangling frame: an appender must close it with a
    /// [`LogRecord::TxnAbort`] before writing new records, or they would
    /// be swallowed into the dead frame by the next recovery.
    pub fn open_txn_id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }

    /// Ends the scan: a commit still held back is applied (the marker is
    /// durable — it survived to the end of the log un-revoked), and a
    /// still-open transaction lost its commit marker to the crash, so its
    /// buffer is discarded. Returns `(records applied here, total records
    /// discarded over the replayer's lifetime)`.
    pub fn finish(mut self, db: &mut Database) -> Result<(usize, usize)> {
        let mut applied = 0;
        if let Some(pending) = self.pending.take() {
            applied = pending.buffered.len();
            for r in &pending.buffered {
                apply_record(db, r)?;
            }
        }
        self.discard_open();
        Ok((applied, self.discarded))
    }
}

// ------------------------------------------------------------- log walk

const CHECKPOINT: &str = "checkpoint.snap";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// The term a log starts life under (before any failover promotion).
pub(crate) fn initial_term() -> u64 {
    1
}

/// The WAL segment file name for a segment whose first record is
/// `first_seq`.
pub(crate) fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:010}.seg")
}

/// Parses a segment file's first sequence number from its name; `None`
/// for paths that are not WAL segments.
fn segment_first_seq(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// The WAL segments in `dir` with their first sequence numbers, in log
/// order.
pub fn list_segments(storage: &dyn WalStorage, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments: Vec<(u64, PathBuf)> = storage
        .list(dir)
        .map_err(|e| io_err("list dir", e))?
        .into_iter()
        .filter_map(|p| segment_first_seq(&p).map(|s| (s, p)))
        .collect();
    segments.sort();
    Ok(segments)
}

/// Removes every log file in `dir` — segments, checkpoint, quarantined
/// leftovers — so a log can be created there from nothing.
pub(crate) fn clear_log(storage: &dyn WalStorage, dir: &Path) -> Result<()> {
    for path in storage.list(dir).map_err(|e| io_err("list dir", e))? {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal-") || name.starts_with("checkpoint.") {
            storage
                .remove(&path)
                .map_err(|e| io_err("clear old log", e))?;
        }
    }
    Ok(())
}

fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".quarantine");
    PathBuf::from(name)
}

/// An installed checkpoint: what `checkpoint.snap` holds, exposed so a
/// replication source can seed a replica that is behind the earliest
/// retained segment.
#[derive(Clone, Debug)]
pub struct CheckpointInfo {
    /// Highest sequence number the snapshot covers.
    pub seq: u64,
    /// [`Database::to_snapshot`] output.
    pub snapshot: Vec<u8>,
    /// Replication term in force when the checkpoint was taken.
    pub term: u64,
}

/// Magic header identifying a binary checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"FDBCKPT2";

/// Checkpoint header size: magic + `seq` + `term` + `body_len` + `crc`.
const CHECKPOINT_HEADER: usize = 8 + 8 + 8 + 8 + 4;

/// On-disk size of a checkpoint file carrying `body_len` snapshot bytes.
pub(crate) fn checkpoint_len(body_len: usize) -> u64 {
    (CHECKPOINT_HEADER + body_len) as u64
}

/// The checksum a checkpoint header carries: CRC-32 over the header
/// fields (`seq`, `term`, `body_len`, as laid out) followed by the body.
fn checkpoint_crc(fields: &[u8], body: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, fields), body)
}

/// A checkpoint file as written before the binary layout: one JSON
/// document with the snapshot — itself JSON — as a string field. Read
/// only; the next checkpoint replaces the file with the binary layout.
#[derive(Deserialize)]
struct LegacyCheckpoint {
    seq: u64,
    snapshot: String,
    /// Absent in pre-replication checkpoints.
    #[serde(default = "initial_term")]
    term: u64,
}

/// Reads the installed checkpoint in `dir`, if any. A file whose checksum
/// does not match its bytes is an error naming the file and both values
/// (and a flight-recorder dump, like a failed fsync): a damaged
/// checkpoint cannot be salvaged around, and must never load as a
/// different database. A file starting with `{` is a legacy JSON
/// checkpoint, which carries no checksum to verify.
pub fn read_checkpoint(storage: &dyn WalStorage, dir: &Path) -> Result<Option<CheckpointInfo>> {
    let ckpt = dir.join(CHECKPOINT);
    if !storage.is_file(&ckpt) {
        return Ok(None);
    }
    let mut bytes = storage
        .read(&ckpt)
        .map_err(|e| io_err("read checkpoint", e))?;
    let corrupt =
        |what: String| FdbError::Internal(format!("wal: checkpoint {}: {what}", ckpt.display()));
    if bytes.first() == Some(&b'{') {
        let legacy: LegacyCheckpoint = std::str::from_utf8(&bytes)
            .map_err(|e| corrupt(format!("not UTF-8: {e}")))
            .and_then(|text| {
                serde_json::from_str(text).map_err(|e| corrupt(format!("corrupt: {e}")))
            })?;
        return Ok(Some(CheckpointInfo {
            seq: legacy.seq,
            snapshot: legacy.snapshot.into_bytes(),
            term: legacy.term,
        }));
    }
    if bytes.len() < CHECKPOINT_HEADER || !bytes.starts_with(CHECKPOINT_MAGIC) {
        return Err(corrupt(
            "not a checkpoint file (bad or cut header)".to_owned(),
        ));
    }
    let (fields, stored) = (&bytes[8..32], le_u32(&bytes[32..36]));
    let body = &bytes[CHECKPOINT_HEADER..];
    let actual = checkpoint_crc(fields, body);
    if stored != actual {
        let e = corrupt(format!(
            "corrupt: crc32 expected {stored:#010x}, found {actual:#010x}"
        ));
        fdb_obs::flight::dump_on_fault(&format!("checkpoint_corrupt: {e}"));
        return Err(e);
    }
    let (seq, term, body_len) = (
        le_u64(&fields[0..8]),
        le_u64(&fields[8..16]),
        le_u64(&fields[16..24]),
    );
    if body_len != body.len() as u64 {
        return Err(corrupt(format!(
            "header says {body_len} body bytes, file holds {}",
            body.len()
        )));
    }
    bytes.drain(..CHECKPOINT_HEADER);
    Ok(Some(CheckpointInfo {
        seq,
        snapshot: bytes,
        term,
    }))
}

/// Atomically installs a checkpoint in `dir` — `magic | seq | term |
/// body_len | crc32 | body`, the body being the snapshot as it is —
/// through a temp file: write, fsync, rename into place, fsync the
/// directory. Used by
/// [`LoggedDatabase::checkpoint`](crate::LoggedDatabase::checkpoint) and
/// by a replica installing a seed snapshot in its local copy of the log.
pub fn install_checkpoint(
    storage: &dyn WalStorage,
    dir: &Path,
    info: &CheckpointInfo,
) -> Result<()> {
    let mut header = Vec::with_capacity(CHECKPOINT_HEADER);
    header.extend_from_slice(CHECKPOINT_MAGIC);
    header.extend_from_slice(&info.seq.to_le_bytes());
    header.extend_from_slice(&info.term.to_le_bytes());
    header.extend_from_slice(&(info.snapshot.len() as u64).to_le_bytes());
    let crc = checkpoint_crc(&header[8..], &info.snapshot);
    header.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(CHECKPOINT_TMP);
    let mut f = storage
        .create(&tmp)
        .map_err(|e| io_err("create checkpoint.tmp", e))?;
    f.append(&header)
        .and_then(|()| f.append(&info.snapshot))
        .map_err(|e| io_err("write checkpoint", e))?;
    f.sync().map_err(|e| io_err("sync checkpoint", e))?;
    drop(f);
    storage
        .rename(&tmp, &dir.join(CHECKPOINT))
        .map_err(|e| io_err("install checkpoint", e))?;
    storage.sync_dir(dir).map_err(|e| io_err("sync dir", e))
}

/// What one read-only pass over a log found: the state rebuilt so far,
/// the replayer still holding whatever the log's tail left open, and
/// where the log can be continued. Produced by [`walk_log`].
#[derive(Debug)]
pub struct LogWalk {
    /// The checkpoint's state plus every record the replayer has let
    /// through. A commit still held back, or an open frame, is in
    /// [`replayer`](LogWalk::replayer), not here.
    pub db: Database,
    /// The replayer every record was fed through, unfinished: a primary
    /// ends the recovery with [`LogWalk::finish`]; a replica keeps
    /// feeding it, since the commit of an open frame may yet arrive.
    pub replayer: TxnReplayer,
    /// Replication term: the checkpoint's, raised by every
    /// [`LogRecord::NewTerm`] after it.
    pub term: u64,
    /// Sequence number the next frame appended to the log must carry.
    pub next_seq: u64,
    /// `(seq, crc)` of every intact frame on storage, including those the
    /// checkpoint already covers — what a replica compares re-shipped
    /// frames against.
    pub frames: Vec<(u64, u32)>,
    /// The recovery so far: complete except for what
    /// [`LogWalk::repair`] and [`LogWalk::finish`] add.
    pub report: RecoveryReport,
    /// The path walked: the log directory, or the single log file.
    root: PathBuf,
    single_file: bool,
    /// The last file walked, where appends continue.
    tail: Option<Tail>,
    /// Segments past the first flaw or past a gap in the numbering.
    unreachable: Vec<PathBuf>,
}

/// The append position a walk ended on.
#[derive(Debug)]
struct Tail {
    path: PathBuf,
    format: WalFormat,
    valid_len: u64,
    /// The bytes read beyond `valid_len` (empty for a clean file).
    damaged: Vec<u8>,
}

/// Walks a log from storage without changing a byte of it: reads the
/// checkpoint, then feeds every segment's records, in order, through one
/// [`TxnReplayer`] (an open frame may span a segment boundary), tracking
/// the replication term, and stops at the first flaw. `path` is a log
/// directory, or a single log file (v1 or v2) walked as a log of one
/// segment with no checkpoint.
///
/// Damage never fails the walk — the flaw is reported in
/// [`LogWalk::report`]. A record that does not apply is a hard error:
/// records are only ever logged after applying successfully.
pub fn walk_log(storage: &dyn WalStorage, path: &Path) -> Result<LogWalk> {
    let mut walk = LogWalk {
        db: Database::new(fdb_types::Schema::new()),
        replayer: TxnReplayer::new(),
        term: initial_term(),
        next_seq: 1,
        frames: Vec::new(),
        report: RecoveryReport::default(),
        root: path.to_owned(),
        single_file: storage.is_file(path),
        tail: None,
        unreachable: Vec::new(),
    };
    let segments = if walk.single_file {
        vec![(1, path.to_owned())]
    } else {
        if let Some(info) = read_checkpoint(storage, path)? {
            walk.db = Database::from_snapshot(&info.snapshot)?;
            walk.term = info.term;
            walk.next_seq = info.seq + 1;
            walk.report.checkpoint_seq = Some(info.seq);
            walk.report.last_seq = Some(info.seq);
        }
        list_segments(storage, path)?
    };
    for (first_seq, segment) in segments {
        if !walk.report.corruption.is_empty() || first_seq > walk.next_seq {
            // Nothing after a flaw, or after a missing segment, can be
            // trusted to continue the log.
            walk.unreachable.push(segment);
            continue;
        }
        let bytes = storage
            .read(&segment)
            .map_err(|e| io_err("read segment", e))?;
        let scanned = scan(&bytes, first_seq);
        walk.report.segments_scanned += 1;
        walk.report.skipped_records += scanned.skipped;
        for (seq, record) in &scanned.records {
            if *seq < walk.next_seq {
                continue; // already covered by the checkpoint
            }
            if let LogRecord::NewTerm { term } = record {
                walk.term = walk.term.max(*term);
            }
            walk.report.applied += walk.replayer.feed(&mut walk.db, record)?;
        }
        if scanned.next_seq > walk.next_seq {
            walk.next_seq = scanned.next_seq;
            walk.report.last_seq = Some(scanned.next_seq - 1);
        }
        walk.frames.extend(scanned.frames);
        if let Some(flaw) = scanned.flaw {
            walk.report.torn_tail = flaw.is_torn_tail();
            walk.report.corruption.push(CorruptionEvent {
                segment: segment.clone(),
                flaw,
            });
        }
        walk.tail = Some(Tail {
            path: segment,
            format: scanned.format,
            valid_len: scanned.valid_len,
            damaged: bytes[scanned.valid_len as usize..].to_vec(),
        });
    }
    Ok(walk)
}

impl LogWalk {
    /// Makes the walked log safe to continue and opens it for appending
    /// at the position the walk found, without reading it again: the
    /// damaged suffix of the flawed file is moved into `<file>.quarantine`
    /// and the file truncated to its valid prefix, every unreachable
    /// segment is set aside whole, and the temp file of an interrupted
    /// checkpoint is discarded. A reader that only looks — a replication
    /// source — never calls this.
    pub fn repair(&mut self, storage: &Arc<dyn WalStorage>) -> Result<Wal> {
        let disk = storage.as_ref();
        if let Some(tail) = self.tail.as_mut().filter(|t| !t.damaged.is_empty()) {
            let mut q = disk
                .create(&quarantine_path(&tail.path))
                .map_err(|e| io_err("create quarantine", e))?;
            q.append(&tail.damaged)
                .map_err(|e| io_err("quarantine", e))?;
            q.sync().map_err(|e| io_err("sync quarantine", e))?;
            disk.truncate(&tail.path, tail.valid_len)
                .map_err(|e| io_err("truncate damaged suffix", e))?;
            self.report.quarantined_bytes += tail.damaged.len() as u64;
            tail.damaged.clear();
        }
        for segment in self.unreachable.drain(..) {
            let bytes = disk.read(&segment).map_err(|e| io_err("read segment", e))?;
            self.report.quarantined_bytes += bytes.len() as u64;
            disk.rename(&segment, &quarantine_path(&segment))
                .map_err(|e| io_err("quarantine segment", e))?;
        }
        if !self.single_file {
            let tmp = self.root.join(CHECKPOINT_TMP);
            if disk.is_file(&tmp) {
                disk.remove(&tmp)
                    .map_err(|e| io_err("remove stale checkpoint.tmp", e))?;
            }
            disk.sync_dir(&self.root)
                .map_err(|e| io_err("sync dir", e))?;
        }
        let (path, format, valid_len) = match &self.tail {
            Some(tail) => (tail.path.clone(), tail.format, tail.valid_len),
            // A directory without segments: the log continues in a fresh one.
            None => (
                self.root.join(segment_name(self.next_seq)),
                WalFormat::V2,
                0,
            ),
        };
        Wal::open_at(Arc::clone(storage), path, format, valid_len, self.next_seq)
    }

    /// Ends the recovery where the log ends: a commit still held back is
    /// applied, a frame still open lost its commit marker to the crash
    /// and is discarded. Publishes the completed report to the metrics
    /// registry.
    pub fn finish(mut self) -> Result<(Database, RecoveryReport)> {
        let (applied, discarded) = self.replayer.finish(&mut self.db)?;
        self.report.applied += applied;
        self.report.uncommitted_discarded = discarded;
        observe_recovery(&self.report);
        Ok((self.db, self.report))
    }
}

/// Rebuilds a database by replaying a single log file from scratch.
///
/// Damaged bytes never fail the replay: the longest valid prefix is
/// applied and the report's [`RecoveryReport::corruption`] says what
/// stopped the scan (and [`RecoveryReport::torn_tail`] whether it was the
/// benign crash artifact). A *semantic* failure — a record that does not
/// apply — is still a hard error, since records are only ever logged
/// after applying successfully.
pub fn replay(path: impl AsRef<Path>) -> Result<(Database, RecoveryReport)> {
    replay_on(&FileStorage, path.as_ref())
}

/// [`replay`] against an explicit storage.
pub fn replay_on(storage: &dyn WalStorage, path: &Path) -> Result<(Database, RecoveryReport)> {
    walk_log(storage, path)?.finish()
}

/// A CRC-valid frame whose payload is valid JSON but not a
/// `LogRecord` this version knows — a future record type. Laid out
/// by hand: the tests pin the format, they do not ask it.
#[cfg(test)]
pub(crate) fn unknown_frame(seq: u64) -> Vec<u8> {
    let payload = br#"{"Vacuum":{"aggressive":true}}"#;
    let mut checked = Vec::new();
    checked.extend_from_slice(&seq.to_le_bytes());
    checked.extend_from_slice(payload);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&checked).to_le_bytes());
    frame.extend_from_slice(&checked);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimDisk;
    use fdb_storage::Truth;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Declare {
                name: "teach".into(),
                domain: "faculty".into(),
                range: "course".into(),
                functionality: Functionality::ManyMany,
            },
            LogRecord::Declare {
                name: "class_list".into(),
                domain: "course".into(),
                range: "student".into(),
                functionality: Functionality::ManyMany,
            },
            LogRecord::Declare {
                name: "pupil".into(),
                domain: "faculty".into(),
                range: "student".into(),
                functionality: Functionality::ManyMany,
            },
            LogRecord::Derive {
                name: "pupil".into(),
                steps: vec![("teach".into(), false), ("class_list".into(), false)],
            },
            LogRecord::Insert {
                function: "teach".into(),
                x: v("euclid"),
                y: v("math"),
            },
            LogRecord::Insert {
                function: "class_list".into(),
                x: v("math"),
                y: v("john"),
            },
            LogRecord::Insert {
                function: "class_list".into(),
                x: v("math"),
                y: v("bill"),
            },
            LogRecord::Delete {
                function: "pupil".into(),
                x: v("euclid"),
                y: v("john"),
            },
            LogRecord::Insert {
                function: "pupil".into(),
                x: v("gauss"),
                y: v("bill"),
            },
        ]
    }

    fn write_sample(disk: &SimDisk, path: &Path) {
        let mut wal = Wal::create_on(Arc::new(disk.clone()), path, 1).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        wal.sync().unwrap();
    }

    fn disk_path() -> PathBuf {
        PathBuf::from("/wal/test.log")
    }

    #[test]
    fn replay_reconstructs_exact_state() {
        let disk = SimDisk::new();
        let path = disk_path();
        write_sample(&disk, &path);
        let mut live = Database::new(fdb_types::Schema::new());
        for r in sample_records() {
            apply_record(&mut live, &r).unwrap();
        }

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert!(!report.torn_tail);
        assert!(report.corruption.is_empty());
        assert_eq!(report.applied, 9);
        assert_eq!(report.last_seq, Some(9));
        assert_eq!(
            recovered.to_snapshot().unwrap(),
            live.to_snapshot().unwrap()
        );
        // Spot-check the partial information survived.
        let p = recovered.resolve("pupil").unwrap();
        assert_eq!(
            recovered.truth(p, &v("euclid"), &v("john")).unwrap(),
            Truth::False
        );
        assert_eq!(
            recovered.truth(p, &v("euclid"), &v("bill")).unwrap(),
            Truth::Ambiguous
        );
        assert_eq!(
            recovered.truth(p, &v("gauss"), &v("bill")).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let disk = SimDisk::new();
        let path = disk_path();
        write_sample(&disk, &path);
        // Simulate a crash mid-append: half a frame.
        let frame = encode_frame(
            10,
            &LogRecord::Insert {
                function: "teach".into(),
                x: v("gauss"),
                y: v("math"),
            },
        )
        .unwrap();
        let mut f = disk.open_append(&path).unwrap();
        f.append(&frame[..frame.len() / 2]).unwrap();
        drop(f);

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert!(report.torn_tail);
        assert!(!report.damaged());
        assert_eq!(report.applied, 9);
        assert!(recovered.is_consistent());
    }

    #[test]
    fn interior_corruption_salvages_prefix() {
        let disk = SimDisk::new();
        let path = disk_path();
        write_sample(&disk, &path);
        // Flip one bit inside record 5's frame (well before the tail).
        let frame1_end: u64 = (WAL_MAGIC.len()
            + (0..4)
                .map(|i| {
                    encode_frame(i as u64 + 1, &sample_records()[i])
                        .unwrap()
                        .len()
                })
                .sum::<usize>()) as u64;
        disk.corrupt(&path, frame1_end + 20, 0x40);

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 4, "only the records before the damage");
        assert!(report.damaged());
        assert!(!report.torn_tail);
        assert_eq!(report.corruption.len(), 1);
        assert!(matches!(
            report.corruption[0].flaw,
            Corruption::ChecksumMismatch { .. }
        ));
        assert!(recovered.is_consistent());
        assert!(recovered.resolve("pupil").is_ok());
    }

    #[test]
    fn v1_plain_json_log_still_replays() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut f = disk.create(&path).unwrap();
        for r in sample_records() {
            let mut line = serde_json::to_string(&r).unwrap().into_bytes();
            line.push(b'\n');
            f.append(&line).unwrap();
        }
        drop(f);

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 9);
        assert!(!report.torn_tail);
        let p = recovered.resolve("pupil").unwrap();
        assert_eq!(
            recovered.truth(p, &v("gauss"), &v("bill")).unwrap(),
            Truth::True
        );

        // v1 interior corruption also salvages now, instead of erroring.
        disk.corrupt(&path, 40, 0xFF);
        let (_, report) = replay_on(&disk, &path).unwrap();
        assert!(report.applied < 9);
        assert!(report.damaged());
    }

    #[test]
    fn v1_log_reopened_for_append_stays_v1() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut f = disk.create(&path).unwrap();
        for r in sample_records().into_iter().take(4) {
            let mut line = serde_json::to_string(&r).unwrap().into_bytes();
            line.push(b'\n');
            f.append(&line).unwrap();
        }
        drop(f);

        let mut wal = Wal::open_append_on(Arc::new(disk.clone()), &path, 1).unwrap();
        assert_eq!(wal.next_seq(), 5);
        wal.append(&LogRecord::Insert {
            function: "teach".into(),
            x: v("euclid"),
            y: v("math"),
        })
        .unwrap();
        drop(wal);

        let bytes = disk.read(&path).unwrap();
        assert!(!bytes.starts_with(WAL_MAGIC), "format must not mix");
        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 5);
        assert!(recovered.is_consistent());
    }

    #[test]
    fn open_append_truncates_damaged_suffix() {
        let disk = SimDisk::new();
        let path = disk_path();
        write_sample(&disk, &path);
        let valid = disk.size_of(&path).unwrap();
        let mut f = disk.open_append(&path).unwrap();
        f.append(b"garbage that is no frame").unwrap();
        drop(f);

        let mut wal = Wal::open_append_on(Arc::new(disk.clone()), &path, 1).unwrap();
        assert_eq!(wal.next_seq(), 10);
        assert_eq!(disk.size_of(&path).unwrap(), valid);
        wal.append(&LogRecord::Insert {
            function: "teach".into(),
            x: v("gauss"),
            y: v("math"),
        })
        .unwrap();
        drop(wal);
        let (_, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 10);
        assert!(report.corruption.is_empty());
    }

    #[test]
    fn short_read_is_a_torn_tail_not_a_panic() {
        let disk = SimDisk::new();
        let path = disk_path();
        write_sample(&disk, &path);
        let full = disk.size_of(&path).unwrap();
        disk.set_short_read(&path, full - 7);
        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.applied, 8);
        assert!(recovered.is_consistent());
    }

    #[test]
    fn sequence_gap_is_detected() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        // Append a frame with a skipped sequence number by hand.
        let frame = encode_frame(5, &sample_records()[1]).unwrap();
        let mut f = disk.open_append(&path).unwrap();
        f.append(&frame).unwrap();
        drop(f);
        let (_, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 1);
        assert!(matches!(
            report.corruption[0].flaw,
            Corruption::SequenceGap {
                expected: 2,
                found: 5,
                ..
            }
        ));
    }

    #[test]
    fn committed_transaction_replays_and_uncommitted_is_discarded() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        wal.append(&sample_records()[0]).unwrap(); // DECLARE teach
                                                   // Committed transaction: visible after recovery.
        wal.append(&LogRecord::TxnBegin { id: 1 }).unwrap();
        wal.append(&LogRecord::Insert {
            function: "teach".into(),
            x: v("euclid"),
            y: v("math"),
        })
        .unwrap();
        wal.append(&LogRecord::TxnCommit { id: 1 }).unwrap();
        // Uncommitted transaction: torn off by the "crash".
        wal.append(&LogRecord::TxnBegin { id: 2 }).unwrap();
        wal.append(&LogRecord::Insert {
            function: "teach".into(),
            x: v("gauss"),
            y: v("algebra"),
        })
        .unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 2, "declare + the committed insert");
        assert_eq!(report.uncommitted_discarded, 1);
        assert!(!report.damaged());
        let t = recovered.resolve("teach").unwrap();
        assert_eq!(
            recovered.truth(t, &v("euclid"), &v("math")).unwrap(),
            Truth::True
        );
        assert_eq!(
            recovered.truth(t, &v("gauss"), &v("algebra")).unwrap(),
            Truth::False, // absent base facts are false (§3.2)
        );
    }

    #[test]
    fn aborted_transaction_is_discarded() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        wal.append(&LogRecord::TxnBegin { id: 7 }).unwrap();
        wal.append(&LogRecord::Insert {
            function: "teach".into(),
            x: v("euclid"),
            y: v("math"),
        })
        .unwrap();
        wal.append(&LogRecord::TxnAbort { id: 7 }).unwrap();
        drop(wal);
        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.uncommitted_discarded, 1);
        let t = recovered.resolve("teach").unwrap();
        assert_eq!(
            recovered.truth(t, &v("euclid"), &v("math")).unwrap(),
            Truth::False
        );
    }

    #[test]
    fn unknown_v2_record_is_skipped_not_fatal() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        let frame = unknown_frame(2);
        let mut f = disk.open_append(&path).unwrap();
        f.append(&frame).unwrap();
        // A known record after the unknown one must still replay.
        f.append(&encode_frame(3, &sample_records()[1]).unwrap())
            .unwrap();
        drop(f);

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.skipped_records, 1);
        assert!(!report.damaged());
        assert!(recovered.resolve("class_list").is_ok());
    }

    #[test]
    fn trailing_unknown_frame_keeps_its_sequence_number() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        let mut f = disk.open_append(&path).unwrap();
        f.append(&unknown_frame(2)).unwrap();
        drop(f);

        // The skipped frame used seq 2 up: the next append is seq 3, and
        // the log it leaves behind reads back without a gap.
        let mut wal = Wal::open_append_on(Arc::new(disk.clone()), &path, 1).unwrap();
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(wal.append(&sample_records()[1]).unwrap(), 3);
        wal.sync().unwrap();
        drop(wal);
        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert!(report.corruption.is_empty(), "{:?}", report.corruption);
        assert_eq!(report.applied, 2);
        assert_eq!(report.skipped_records, 1);
        assert_eq!(report.last_seq, Some(3));
        assert!(recovered.resolve("class_list").is_ok());
    }

    #[test]
    fn frame_walker_yields_raw_frames_and_names_the_flaw() {
        let records = sample_records();
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, r) in records.iter().take(3).enumerate() {
            bytes.extend_from_slice(&encode_frame(5 + i as u64, r).unwrap());
        }
        let mut frames = Frames::segment(&bytes, 5);
        let raw: Vec<RawFrame<'_>> = frames.by_ref().collect();
        assert_eq!(raw.iter().map(|f| f.seq).collect::<Vec<_>>(), [5, 6, 7]);
        assert_eq!(raw[0].offset, WAL_MAGIC.len() as u64);
        assert_eq!(frames.valid_len(), bytes.len() as u64);
        assert_eq!(frames.next_seq(), 8);
        assert!(frames.flaw().is_none());
        // Each raw frame re-encodes to the bytes it was read from.
        let mut rebuilt = WAL_MAGIC.to_vec();
        for f in &raw {
            assert_eq!(frame_crc(f.seq, f.payload), f.crc);
            assert_eq!(
                decode_payload(f.payload).unwrap().as_ref(),
                Some(&records[(f.seq - 5) as usize])
            );
            rebuilt.extend_from_slice(&raw_frame(f.seq, f.crc, f.payload));
        }
        assert_eq!(rebuilt, bytes);

        // A tail walk resumes mid-segment and reports file offsets.
        let tail = &bytes[raw[1].offset as usize..];
        let mut frames = Frames::tail(tail, raw[1].offset, 6);
        assert_eq!(
            frames.by_ref().map(|f| f.offset).collect::<Vec<_>>(),
            [raw[1].offset, raw[2].offset]
        );
        assert_eq!(frames.valid_len(), bytes.len() as u64);

        // Flaws: a flipped bit, a gap in the numbering, a cut header.
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        let mut frames = Frames::segment(&flipped, 5);
        assert_eq!(frames.by_ref().count(), 2);
        assert_eq!(
            frames.flaw(),
            Some(&Corruption::ChecksumMismatch {
                offset: raw[2].offset
            })
        );
        assert_eq!((frames.valid_len(), frames.next_seq()), (raw[2].offset, 7));

        let mut gapped = bytes.clone();
        gapped.extend_from_slice(&encode_frame(11, &records[3]).unwrap());
        let mut frames = Frames::segment(&gapped, 5);
        assert_eq!(frames.by_ref().count(), 3);
        assert!(matches!(
            frames.flaw(),
            Some(Corruption::SequenceGap {
                expected: 8,
                found: 11,
                ..
            })
        ));

        let mut frames = Frames::segment(&WAL_MAGIC[..5], 1);
        assert!(frames.next().is_none());
        assert_eq!(frames.flaw(), Some(&Corruption::TornRecord { offset: 0 }));
        let mut frames = Frames::segment(b"{\"not\":\"a segment\"}\n", 1);
        assert!(frames.next().is_none());
        assert!(matches!(
            frames.flaw(),
            Some(Corruption::Malformed { offset: 0, .. })
        ));
    }

    #[test]
    fn unknown_v1_record_is_skipped_not_fatal() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut f = disk.create(&path).unwrap();
        for r in sample_records().into_iter().take(2) {
            let mut line = serde_json::to_string(&r).unwrap().into_bytes();
            line.push(b'\n');
            f.append(&line).unwrap();
        }
        f.append(b"{\"Vacuum\":{\"aggressive\":true}}\n").unwrap();
        let mut line = serde_json::to_string(&sample_records()[2])
            .unwrap()
            .into_bytes();
        line.push(b'\n');
        f.append(&line).unwrap();
        drop(f);

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 3, "records around the unknown line");
        assert_eq!(report.skipped_records, 1);
        assert!(!report.damaged());
        assert!(recovered.resolve("pupil").is_ok());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 the sliced one replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4C);
        let mut buf = vec![0u8; 4096 + 8];
        for b in &mut buf {
            *b = rng.gen_range(0..=255u32) as u8;
        }
        // Every length around the eight-byte stride from every start
        // alignment, then random cuts up to 4,096 bytes.
        let mut cuts: Vec<(usize, usize)> = (0..8)
            .flat_map(|start| (0..=40).map(move |len| (start, len)))
            .collect();
        cuts.extend((0..400).map(|_| (rng.gen_range(0..8usize), rng.gen_range(0..=4096usize))));
        for (start, len) in cuts {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            // The two-step seeding of a frame checksum (seq, then the
            // payload) and of a checkpoint checksum (fields, then body).
            let seq = rng.gen_range(0..u64::MAX);
            let mut checked = seq.to_le_bytes().to_vec();
            checked.extend_from_slice(data);
            assert_eq!(frame_crc(seq, data), crc32_bytewise(&checked));
            let split = rng.gen_range(0..=len);
            assert_eq!(
                checkpoint_crc(&data[..split], &data[split..]),
                crc32_bytewise(data)
            );
        }
    }

    #[test]
    fn failed_operations_are_not_logged() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        let mut db = Database::new(fdb_types::Schema::new());
        let declare = sample_records()[0].clone();
        apply_record(&mut db, &declare).unwrap();
        wal.append(&declare).unwrap();
        let bad = LogRecord::Insert {
            function: "ghost".into(),
            x: v("x"),
            y: v("y"),
        };
        assert!(apply_record(&mut db, &bad).is_err());
        drop(wal);
        let (_, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 1);
    }
}
