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
//! | frame | `[len: u32 LE][crc32: u32 LE][seq: u64 LE][payload]` — the CRC covers seq and payload |
//! | payload | the record-format byte `0x01`, the variant's tag byte (declaration order: `Declare` 0, `Derive` 1, `Insert` 2, `Delete` 3, `Replace` 4, `TxnBegin` 5, `TxnCommit` 6, `TxnAbort` 7, `TxnSavepoint` 8, `TxnRollbackTo` 9, `NewTerm` 10), then the fields in declaration order: strings and integers as in [`fdb_types::codec`], values by [`Value::encode`], a functionality or a step's inversion mark as one byte |
//! | legacy payload | the record's JSON (it starts with `{`), as earlier versions wrote it; read, never written |
//! | checkpoint | `FDBCKPT2`, then `[seq: u64 LE][term: u64 LE][body_len: u64 LE][crc32: u32 LE][body]` — the body is [`Database::to_snapshot`]'s bytes as they are, the CRC covers seq, term, body_len and body; written to `checkpoint.tmp`, fsynced, renamed into place |
//! | legacy checkpoint | a file starting with `{`: JSON `{seq, snapshot, term}` with the snapshot as an escaped JSON string and no checksum; read, never written — the next checkpoint replaces it |
//! | single file (legacy) | a log of one file with no checkpoint: newline-delimited plain JSON (v1), one record per line, numbered by position — or one v2 segment; read, never appended to |
//!
//! A log directory is the only layout written, and binary v2 frames the
//! only bytes written into it; a directory's segments are read as v2
//! only. A single-file log is walked and replayed in place ([`walk_log`],
//! [`replay`]), but [`LogWalk::repair`] refuses to continue it: recover
//! it, install the recovered state with [`install_checkpoint`] into a
//! directory, and open that. The legacy rows are read by one private
//! module, `legacy`; nothing else parses record JSON and nothing writes
//! it, so a segment whose older frames carry JSON simply continues with
//! binary ones.
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

use fdb_types::codec::{put_str, put_uint, Reader};
use fdb_types::{FdbError, Functionality, Refusal, Result, Value};

use crate::database::Database;
use crate::storage::{FileStorage, WalFile, WalStorage};

pub(crate) mod legacy;

/// One durable log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// resurrected old primary. Carries no data.
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

    /// Appends the record's binary payload: [`RECORD_FORMAT`], the
    /// variant's tag, then its fields in declaration order.
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(RECORD_FORMAT);
        match self {
            LogRecord::Declare {
                name,
                domain,
                range,
                functionality,
            } => {
                out.push(TAG_DECLARE);
                put_str(out, name);
                put_str(out, domain);
                put_str(out, range);
                out.push(functionality_code(*functionality));
            }
            LogRecord::Derive { name, steps } => {
                out.push(TAG_DERIVE);
                put_str(out, name);
                put_uint(out, steps.len() as u64);
                for (step, inverted) in steps {
                    put_str(out, step);
                    out.push(u8::from(*inverted));
                }
            }
            LogRecord::Insert { function, x, y } => put_named(out, TAG_INSERT, function, [x, y]),
            LogRecord::Delete { function, x, y } => put_named(out, TAG_DELETE, function, [x, y]),
            LogRecord::Replace { function, old, new } => {
                put_named(out, TAG_REPLACE, function, [&old.0, &old.1, &new.0, &new.1])
            }
            LogRecord::TxnBegin { id } => put_tagged_uint(out, TAG_TXN_BEGIN, *id),
            LogRecord::TxnCommit { id } => put_tagged_uint(out, TAG_TXN_COMMIT, *id),
            LogRecord::TxnAbort { id } => put_tagged_uint(out, TAG_TXN_ABORT, *id),
            LogRecord::TxnSavepoint { name } => put_named(out, TAG_TXN_SAVEPOINT, name, []),
            LogRecord::TxnRollbackTo { name } => put_named(out, TAG_TXN_ROLLBACK_TO, name, []),
            LogRecord::NewTerm { term } => put_tagged_uint(out, TAG_NEW_TERM, *term),
        }
    }

    /// Reads the tag and fields [`LogRecord::encode`] wrote after the
    /// format byte. `Ok(None)` is a tag this version does not know: a
    /// record type written by a newer version, whose fields are not read.
    fn decode(r: &mut Reader<'_>) -> Result<Option<LogRecord>> {
        let record = match r.byte()? {
            TAG_DECLARE => LogRecord::Declare {
                name: r.str()?.to_owned(),
                domain: r.str()?.to_owned(),
                range: r.str()?.to_owned(),
                functionality: match r.byte()? {
                    0 => Functionality::OneOne,
                    1 => Functionality::OneMany,
                    2 => Functionality::ManyOne,
                    3 => Functionality::ManyMany,
                    _ => return Err(r.error("unknown functionality")),
                },
            },
            TAG_DERIVE => {
                let name = r.str()?.to_owned();
                // A step is at least a length byte and a mark byte.
                let n = r.count(2)?;
                let mut steps = Vec::with_capacity(n);
                for _ in 0..n {
                    let step = r.str()?.to_owned();
                    let inverted = match r.byte()? {
                        0 => false,
                        1 => true,
                        _ => return Err(r.error("unknown inversion mark")),
                    };
                    steps.push((step, inverted));
                }
                LogRecord::Derive { name, steps }
            }
            TAG_INSERT => LogRecord::Insert {
                function: r.str()?.to_owned(),
                x: Value::decode(r)?,
                y: Value::decode(r)?,
            },
            TAG_DELETE => LogRecord::Delete {
                function: r.str()?.to_owned(),
                x: Value::decode(r)?,
                y: Value::decode(r)?,
            },
            TAG_REPLACE => LogRecord::Replace {
                function: r.str()?.to_owned(),
                old: (Value::decode(r)?, Value::decode(r)?),
                new: (Value::decode(r)?, Value::decode(r)?),
            },
            TAG_TXN_BEGIN => LogRecord::TxnBegin { id: r.uint()? },
            TAG_TXN_COMMIT => LogRecord::TxnCommit { id: r.uint()? },
            TAG_TXN_ABORT => LogRecord::TxnAbort { id: r.uint()? },
            TAG_TXN_SAVEPOINT => LogRecord::TxnSavepoint {
                name: r.str()?.to_owned(),
            },
            TAG_TXN_ROLLBACK_TO => LogRecord::TxnRollbackTo {
                name: r.str()?.to_owned(),
            },
            TAG_NEW_TERM => LogRecord::NewTerm { term: r.uint()? },
            _ => return Ok(None),
        };
        Ok(Some(record))
    }
}

/// First byte of every binary record payload. Every JSON payload an
/// earlier version wrote starts with `{` instead.
const RECORD_FORMAT: u8 = 0x01;

// The variant tags, in declaration order.
const TAG_DECLARE: u8 = 0;
const TAG_DERIVE: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_REPLACE: u8 = 4;
const TAG_TXN_BEGIN: u8 = 5;
const TAG_TXN_COMMIT: u8 = 6;
const TAG_TXN_ABORT: u8 = 7;
const TAG_TXN_SAVEPOINT: u8 = 8;
const TAG_TXN_ROLLBACK_TO: u8 = 9;
const TAG_NEW_TERM: u8 = 10;

fn put_tagged_uint(out: &mut Vec<u8>, tag: u8, v: u64) {
    out.push(tag);
    put_uint(out, v);
}

/// A tag, a name, then values: the layout of the update records and of
/// the savepoint markers (which carry no values).
fn put_named<const N: usize>(out: &mut Vec<u8>, tag: u8, name: &str, values: [&Value; N]) {
    out.push(tag);
    put_str(out, name);
    for v in values {
        v.encode(out);
    }
}

/// A functionality as one byte, in the order of [`Functionality::ALL`].
fn functionality_code(f: Functionality) -> u8 {
    match f {
        Functionality::OneOne => 0,
        Functionality::OneMany => 1,
        Functionality::ManyOne => 2,
        Functionality::ManyMany => 3,
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
    put_raw_frame(&mut out, seq, crc, payload);
    out
}

/// [`raw_frame`], appended to `out`.
fn put_raw_frame(out: &mut Vec<u8>, seq: u64, crc: u32, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes one framed v2 record.
pub fn encode_frame(seq: u64, record: &LogRecord) -> Result<Vec<u8>> {
    // Room for the header and a typical record: one allocation.
    let mut out = Vec::with_capacity(FRAME_HEADER + 64);
    put_frame(&mut out, seq, record)?;
    Ok(out)
}

/// [`encode_frame`], appended to `out`: the header's place is taken, the
/// payload encoded straight after it, then its length and the checksum
/// over seq and payload are filled in — one buffer, no copy of the
/// payload. A record over [`MAX_PAYLOAD`] is refused rather than written
/// as a frame every reader would stop at.
fn put_frame(out: &mut Vec<u8>, seq: u64, record: &LogRecord) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&seq.to_le_bytes());
    record.encode(out);
    let len = out.len() - start - FRAME_HEADER;
    let Some(len) = u32::try_from(len).ok().filter(|&l| l <= MAX_PAYLOAD) else {
        out.truncate(start);
        return Err(FdbError::Internal(format!(
            "wal: a {len}-byte record exceeds the {MAX_PAYLOAD}-byte frame limit"
        )));
    };
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Decodes a record payload by its first byte: [`RECORD_FORMAT`] is the
/// binary layout, `{` the JSON one earlier versions wrote, anything else
/// is malformed. `Ok(None)` is a record type this version does not know
/// — an unknown tag, or a JSON object naming an unknown variant — written
/// deliberately by a newer version, to be skipped rather than treated as
/// corruption. A known record whose fields do not read (or, in binary, do
/// not fill the payload exactly) is malformed. `Err` says what failed.
pub fn decode_payload(payload: &[u8]) -> std::result::Result<Option<LogRecord>, String> {
    match payload.split_first() {
        Some((&RECORD_FORMAT, body)) => {
            let mut r = Reader::new(body);
            let record = LogRecord::decode(&mut r).and_then(|record| match record {
                Some(_) => r.finish().map(|()| record),
                None => Ok(None),
            });
            record.map_err(|e| match e {
                FdbError::Parse { message, .. } => format!("binary record: {message}"),
                other => format!("binary record: {other}"),
            })
        }
        Some((b'{', _)) => legacy::decode_json(payload),
        _ => Err("payload is neither a binary nor a JSON record".to_owned()),
    }
}

/// The term a record payload announces, if it is a
/// [`LogRecord::NewTerm`]: the tag byte decides for a binary payload, so
/// a data record costs one comparison; a JSON payload is decoded.
pub fn payload_term(payload: &[u8]) -> Option<u64> {
    match payload {
        [RECORD_FORMAT, TAG_NEW_TERM, ..] | [b'{', ..] => match decode_payload(payload) {
            Ok(Some(LogRecord::NewTerm { term })) => Some(term),
            _ => None,
        },
        _ => None,
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
    /// The raw record payload (see [`decode_payload`]).
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

/// Result of scanning a log file's bytes without applying anything.
#[derive(Clone, Debug)]
pub struct Scan {
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
    /// Well-formed records of a type this version does not know (see
    /// [`decode_payload`]) — written by a newer version, skipped with a
    /// warning rather than treated as corruption. Bit rot still halts the
    /// scan: a v2 frame must pass its CRC, and a v1 line must be JSON
    /// naming a variant, before it can be "unknown".
    pub skipped: usize,
    /// `(seq, crc)` of every intact v2 frame, skipped ones included
    /// (empty for a v1 file, which has no checksums).
    pub frames: Vec<(u64, u32)>,
}

/// Scans the bytes of a log file (either format), salvaging the longest
/// valid prefix: a v2 segment if they start with [`WAL_MAGIC`] (or a cut
/// piece of it), a v1 file otherwise.
///
/// `first_seq` numbers v1 records (which carry no explicit sequence
/// numbers) and is the continuity check's expectation for the first v2
/// record.
pub fn scan(bytes: &[u8], first_seq: u64) -> Scan {
    scan_log_file(bytes, first_seq, true)
}

/// [`scan`] of a single log file, or (`single_file` false) of a log
/// directory's segment, which is v2 only: there, bytes without the magic
/// header are a flaw at offset 0, never a v1 file.
fn scan_log_file(bytes: &[u8], first_seq: u64, single_file: bool) -> Scan {
    let mut scan = Scan {
        records: Vec::new(),
        valid_len: 0,
        next_seq: first_seq,
        flaw: None,
        skipped: 0,
        frames: Vec::new(),
    };
    if single_file && !(bytes.starts_with(WAL_MAGIC) || WAL_MAGIC.starts_with(bytes)) {
        legacy::scan_v1(bytes, &mut scan);
    } else {
        scan_v2(bytes, &mut scan);
    }
    scan
}

/// The decoded view of [`Frames::segment`].
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

// --------------------------------------------------------------- writer

/// An append-only v2 segment. The only writer of log bytes.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Box<dyn WalFile>,
    next_seq: u64,
    len: u64,
    /// Where each append is laid out before it is handed to the file,
    /// kept between appends so a steady log allocates nothing for it.
    scratch: Vec<u8>,
}

/// Largest scratch buffer a [`Wal`] keeps after an append; one outsized
/// record does not pin its memory for the life of the log.
const SCRATCH_KEEP: usize = 64 * 1024;

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
            next_seq: first_seq,
            len: WAL_MAGIC.len() as u64,
            scratch: Vec::new(),
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

    /// Opens the segment `path` for appending at a position its reader
    /// ([`LogWalk::repair`]) has already established: `valid_len` intact
    /// bytes (the file is no longer than that) ending just before
    /// sequence number `next_seq`.
    fn open_at(
        storage: Arc<dyn WalStorage>,
        path: PathBuf,
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
            next_seq,
            len: valid_len,
            scratch: Vec::new(),
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
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Appends one record and flushes it to the storage layer. Returns
    /// the record's sequence number.
    pub fn append(&mut self, record: &LogRecord) -> Result<u64> {
        let seq = self.next_seq;
        self.write_with(|out| put_frame(out, seq, record))?;
        Ok(seq)
    }

    /// Appends a frame that already exists — one a replica was shipped —
    /// byte for byte as it sits in the log it came from. Refused unless
    /// it is the next frame of this log.
    pub fn append_frame(&mut self, seq: u64, crc: u32, payload: &[u8]) -> Result<()> {
        if seq != self.next_seq {
            return Err(FdbError::Internal(format!(
                "wal: frame {seq} cannot follow seq {}",
                self.next_seq.saturating_sub(1),
            )));
        }
        self.write_with(|out| {
            put_raw_frame(out, seq, crc, payload);
            Ok(())
        })
    }

    /// Lays out the next record's bytes in the scratch buffer with
    /// `lay_out`, then writes them.
    fn write_with(&mut self, lay_out: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        let written = lay_out(&mut out).and_then(|()| self.write(&out));
        if out.capacity() <= SCRATCH_KEEP {
            self.scratch = out;
        }
        written
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
            let named: Vec<(&str, bool)> =
                steps.iter().map(|(n, inv)| (n.as_str(), *inv)).collect();
            let derivation = db
                .schema()
                .derivation(&named)
                .map_err(|refusal| match refusal {
                    Refusal::UnknownStep { step, .. } => {
                        FdbError::UnknownFunction(steps[step].0.clone())
                    }
                    _ => FdbError::MalformedDerivation(
                        "a derivation must have at least one step".into(),
                    ),
                })?;
            db.add_derivation(f, derivation)
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
        return legacy::read_checkpoint_json(&bytes)
            .map(Some)
            .map_err(corrupt);
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
    /// `root` is a single log file, which is never appended to.
    single_file: bool,
    /// The last segment walked, where appends continue.
    tail: Option<Tail>,
    /// Segments past the first flaw or past a gap in the numbering.
    unreachable: Vec<PathBuf>,
}

/// The append position a walk ended on.
#[derive(Debug)]
struct Tail {
    path: PathBuf,
    valid_len: u64,
    /// The bytes read beyond `valid_len` (empty for a clean file).
    damaged: Vec<u8>,
}

/// Walks a log from storage without changing a byte of it: reads the
/// checkpoint, then feeds every segment's records, in order, through one
/// [`TxnReplayer`] (an open frame may span a segment boundary), tracking
/// the replication term, and stops at the first flaw. `path` is a log
/// directory, whose segments are read as v2 only, or a single log file
/// (v1 or v2) walked as a log of one segment with no checkpoint.
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
            // A snapshot its decoder refuses is a damaged checkpoint, like
            // one whose checksum does not match.
            walk.db = Database::from_snapshot(&info.snapshot).map_err(|e| {
                let path = path.join(CHECKPOINT);
                FdbError::Internal(format!("wal: checkpoint {}: corrupt: {e}", path.display()))
            })?;
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
        let scanned = scan_log_file(&bytes, first_seq, walk.single_file);
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
    /// source — never calls this. A walk of a single log file is refused:
    /// such a log is read, never appended to.
    pub fn repair(&mut self, storage: &Arc<dyn WalStorage>) -> Result<Wal> {
        if self.single_file {
            return Err(single_file_is_read_only(&self.root));
        }
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
        let tmp = self.root.join(CHECKPOINT_TMP);
        if disk.is_file(&tmp) {
            disk.remove(&tmp)
                .map_err(|e| io_err("remove stale checkpoint.tmp", e))?;
        }
        disk.sync_dir(&self.root)
            .map_err(|e| io_err("sync dir", e))?;
        let (path, valid_len) = match &self.tail {
            Some(tail) => (tail.path.clone(), tail.valid_len),
            // A directory without segments: the log continues in a fresh one.
            None => (self.root.join(segment_name(self.next_seq)), 0),
        };
        Wal::open_at(Arc::clone(storage), path, valid_len, self.next_seq)
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

/// The refusal to continue a single-file log (v1 JSON lines, or one v2
/// segment) in place, naming the file and the migration.
pub(crate) fn single_file_is_read_only(path: &Path) -> FdbError {
    FdbError::Internal(format!(
        "wal: {} is a single-file log, which is read but never appended to; \
         recover it with wal::walk_log or wal::replay, install the state with \
         wal::install_checkpoint into a log directory, then open that directory",
        path.display()
    ))
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

/// A CRC-valid frame whose payload is in the binary record format but
/// carries a tag this version does not know — a future record type.
/// Laid out by hand: the tests pin the format, they do not ask it.
#[cfg(test)]
pub(crate) fn unknown_frame(seq: u64) -> Vec<u8> {
    // Format 0x01, tag 0xEE, then a field no reader of this version reads.
    frame_by_hand(seq, &[0x01, 0xEE, 3, b'f', b'o', b'g'])
}

/// `[len][crc][seq][payload]`, without the writer's help.
#[cfg(test)]
fn frame_by_hand(seq: u64, payload: &[u8]) -> Vec<u8> {
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

    fn disk_dir() -> PathBuf {
        PathBuf::from("/wal/dir")
    }

    /// The sample records as the first segment of the log in
    /// [`disk_dir`]; returns the segment's path.
    fn write_sample_segment(disk: &SimDisk) -> PathBuf {
        let path = disk_dir().join(segment_name(1));
        write_sample(disk, &path);
        path
    }

    /// `records` as a v1 file at `path`.
    fn write_v1(disk: &SimDisk, path: &Path, records: &[LogRecord]) {
        let bytes = legacy::json::v1_file(records);
        disk.create(path).unwrap().append(&bytes).unwrap();
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
        write_v1(&disk, &path, &sample_records());

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

    /// A single-file log is read, never continued: the walk that would
    /// open it for appending is refused, and its bytes stay as they were.
    #[test]
    fn v1_log_reopened_for_append_stays_v1() {
        let disk = SimDisk::new();
        let path = disk_path();
        write_v1(&disk, &path, &sample_records()[..4]);
        let before = disk.read(&path).unwrap();

        let storage: Arc<dyn WalStorage> = Arc::new(disk.clone());
        let mut walk = walk_log(&disk, &path).unwrap();
        assert_eq!(walk.next_seq, 5);
        let refused = walk.repair(&storage).unwrap_err().to_string();
        assert!(refused.contains("/wal/test.log"), "{refused}");
        assert!(refused.contains("install_checkpoint"), "{refused}");
        let opened = crate::LoggedDatabase::open_with(storage, &path, Default::default());
        assert!(opened.is_err());

        assert_eq!(disk.read(&path).unwrap(), before, "the file is untouched");
        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 4);
        assert!(recovered.is_consistent());
    }

    #[test]
    fn open_append_truncates_damaged_suffix() {
        let disk = SimDisk::new();
        let path = write_sample_segment(&disk);
        let valid = disk.size_of(&path).unwrap();
        let mut f = disk.open_append(&path).unwrap();
        f.append(b"garbage that is no frame").unwrap();
        drop(f);

        let mut walk = walk_log(&disk, &disk_dir()).unwrap();
        let mut wal = walk.repair(&(Arc::new(disk.clone()) as _)).unwrap();
        assert_eq!(wal.next_seq(), 10);
        assert_eq!(disk.size_of(&path).unwrap(), valid);
        assert_eq!(
            disk.read(&quarantine_path(&path)).unwrap(),
            b"garbage that is no frame"
        );
        wal.append(&LogRecord::Insert {
            function: "teach".into(),
            x: v("gauss"),
            y: v("math"),
        })
        .unwrap();
        drop(wal);
        let (_, report) = replay_on(&disk, &disk_dir()).unwrap();
        assert_eq!(report.applied, 10);
        assert!(report.corruption.is_empty());
    }

    /// In a directory a segment is v2 or damaged: one whose magic header
    /// is hit reads as a flaw at offset 0, not as a v1 file, and repair
    /// moves it aside and continues the log in a fresh copy.
    #[test]
    fn segment_with_damaged_magic_is_malformed_and_set_aside() {
        let disk = SimDisk::new();
        let path = write_sample_segment(&disk);
        let written = disk.read(&path).unwrap();
        disk.corrupt(&path, 0, 0x01);

        let mut walk = walk_log(&disk, &disk_dir()).unwrap();
        assert_eq!(walk.report.applied, 0);
        assert_eq!(
            walk.report.corruption[0].flaw,
            Corruption::Malformed {
                offset: 0,
                detail: "no v2 magic header".to_owned(),
            }
        );
        let mut wal = walk.repair(&(Arc::new(disk.clone()) as _)).unwrap();
        let quarantined = disk.read(&quarantine_path(&path)).unwrap();
        assert_eq!(quarantined.len(), written.len());
        assert_eq!(quarantined[1..], written[1..]);
        assert_eq!(wal.next_seq(), 1);
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        let (recovered, report) = replay_on(&disk, &disk_dir()).unwrap();
        assert!(report.corruption.is_empty(), "{:?}", report.corruption);
        assert_eq!(report.applied, 1);
        assert!(recovered.resolve("teach").is_ok());
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
        trailing_frame_keeps_its_sequence_number(unknown_frame);
    }

    #[test]
    fn trailing_unknown_json_frame_keeps_its_sequence_number() {
        trailing_frame_keeps_its_sequence_number(legacy::unknown_json_frame);
    }

    fn trailing_frame_keeps_its_sequence_number(unknown: fn(u64) -> Vec<u8>) {
        let disk = SimDisk::new();
        let storage: Arc<dyn WalStorage> = Arc::new(disk.clone());
        let mut wal = Wal::create_segment(Arc::clone(&storage), &disk_dir(), 1).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        let path = wal.path().to_owned();
        drop(wal);
        let mut f = disk.open_append(&path).unwrap();
        f.append(&unknown(2)).unwrap();
        drop(f);

        // The skipped frame used seq 2 up: the next append is seq 3, and
        // the log it leaves behind reads back without a gap.
        let mut wal = walk_log(&disk, &disk_dir())
            .unwrap()
            .repair(&storage)
            .unwrap();
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(wal.append(&sample_records()[1]).unwrap(), 3);
        wal.sync().unwrap();
        drop(wal);
        let (recovered, report) = replay_on(&disk, &disk_dir()).unwrap();
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
        let records = sample_records();
        let mut bytes = legacy::json::v1_file(&records[..2]);
        bytes.extend_from_slice(b"{\"Vacuum\":{\"aggressive\":true}}\n");
        bytes.extend_from_slice(&legacy::json::v1_file(&records[2..3]));
        disk.create(&path).unwrap().append(&bytes).unwrap();

        let (recovered, report) = replay_on(&disk, &path).unwrap();
        assert_eq!(report.applied, 3, "records around the unknown line");
        assert_eq!(report.skipped_records, 1);
        assert!(!report.damaged());
        assert!(recovered.resolve("pupil").is_ok());
    }

    /// A v1 line has no checksum, so a known record whose fields do not
    /// read is damage that stops the scan, as a binary frame whose known
    /// tag does not fill its payload is — never an unknown record to skip.
    #[test]
    fn damaged_known_v1_record_is_malformed_not_skipped() {
        let records = sample_records();
        let mut bytes = legacy::json::v1_file(&records[..2]);
        let offset = bytes.len() as u64;
        bytes.extend_from_slice(b"{\"Insert\":{\"function\":\"f\"}}\n");
        bytes.extend_from_slice(&legacy::json::v1_file(&records[2..3]));

        let scanned = scan(&bytes, 1);
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.skipped, 0);
        assert_eq!(scanned.valid_len, offset);
        assert!(
            matches!(&scanned.flaw, Some(Corruption::Malformed { offset: o, detail })
                if *o == offset && detail.contains("missing field `x`")),
            "{:?}",
            scanned.flaw
        );
        // The same payload in a CRC-valid frame is malformed too.
        assert!(decode_payload(b"{\"Insert\":{\"function\":\"f\"}}").is_err());
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

    fn payload_of(record: &LogRecord) -> Vec<u8> {
        encode_frame(1, record).unwrap()[FRAME_HEADER..].to_vec()
    }

    #[test]
    fn binary_payload_layout_is_pinned() {
        // Format, tag, the name's length and bytes, then each value's tag
        // and its text or null index.
        let insert = LogRecord::Insert {
            function: "f".into(),
            x: v("ab"),
            y: Value::Null(fdb_types::NullId(300)),
        };
        assert_eq!(
            payload_of(&insert),
            [0x01, 2, 1, b'f', 0, 2, b'a', b'b', 1, 0xAC, 0x02]
        );
        let declare = LogRecord::Declare {
            name: "g".into(),
            domain: "a".into(),
            range: "b".into(),
            functionality: Functionality::ManyOne,
        };
        assert_eq!(
            payload_of(&declare),
            [0x01, 0, 1, b'g', 1, b'a', 1, b'b', 2]
        );
        let derive = LogRecord::Derive {
            name: "h".into(),
            steps: vec![("f".into(), false), ("g".into(), true)],
        };
        assert_eq!(
            payload_of(&derive),
            [0x01, 1, 1, b'h', 2, 1, b'f', 0, 1, b'g', 1]
        );
        assert_eq!(payload_of(&LogRecord::TxnCommit { id: 7 }), [0x01, 6, 7]);
        assert_eq!(
            payload_of(&LogRecord::TxnRollbackTo { name: "s".into() }),
            [0x01, 9, 1, b's']
        );
        assert_eq!(payload_of(&LogRecord::NewTerm { term: 2 }), [0x01, 10, 2]);
    }

    #[test]
    fn payloads_dispatch_on_their_first_byte() {
        let record = sample_records()[4].clone();
        let binary = payload_of(&record);
        let json = legacy::json::to_json(&record);
        assert_eq!(decode_payload(&binary), Ok(Some(record.clone())));
        assert_eq!(decode_payload(json.as_bytes()), Ok(Some(record)));
        // An unknown tag is skipped; a known one must fill the payload
        // exactly; any other first byte is damage.
        assert_eq!(decode_payload(&[0x01, 0xEE, 0xFF]), Ok(None));
        let mut long = binary.clone();
        long.push(0);
        assert!(decode_payload(&long).is_err());
        assert!(decode_payload(&binary[..binary.len() - 1]).is_err());
        for other in [&b""[..], b"\x02\x02", b" {}", b"[1]"] {
            assert!(decode_payload(other).is_err(), "{other:?}");
        }
    }

    #[test]
    fn payload_term_reads_binary_and_json_term_records() {
        let term = LogRecord::NewTerm { term: 9 };
        assert_eq!(payload_term(&payload_of(&term)), Some(9));
        let json = legacy::json::to_json(&term);
        assert_eq!(payload_term(json.as_bytes()), Some(9));
        // A data record that merely mentions the name is no term record.
        let named = LogRecord::Insert {
            function: "NewTerm".into(),
            x: v("NewTerm"),
            y: v("y"),
        };
        assert_eq!(payload_term(&payload_of(&named)), None);
        let json = legacy::json::to_json(&named);
        assert_eq!(payload_term(json.as_bytes()), None);
    }

    #[test]
    fn oversized_record_is_refused_not_written() {
        let disk = SimDisk::new();
        let path = disk_path();
        let mut wal = Wal::create_on(Arc::new(disk.clone()), &path, 1).unwrap();
        let huge = LogRecord::TxnSavepoint {
            name: "s".repeat(MAX_PAYLOAD as usize),
        };
        assert!(encode_frame(1, &huge).is_err());
        assert!(wal.append(&huge).is_err());
        assert_eq!(wal.next_seq(), 1);
        assert_eq!(disk.size_of(&path).unwrap(), WAL_MAGIC.len() as u64);
        assert_eq!(wal.append(&LogRecord::TxnBegin { id: 1 }).unwrap(), 1);
    }

    /// The checkpoint a version before replication wrote of an empty
    /// database, recorded with its binary snapshot.
    #[test]
    fn json_checkpoint_without_a_term_opens_in_the_first_term() {
        let disk = SimDisk::new();
        let dir = PathBuf::from("/ckpt");
        disk.create(&dir.join(CHECKPOINT))
            .unwrap()
            .append(include_bytes!(
                "../../../tests/fixtures/legacy/empty_checkpoint.json"
            ))
            .unwrap();
        let info = read_checkpoint(&disk, &dir).unwrap().unwrap();
        assert_eq!((info.seq, info.term), (4, initial_term()));
        assert!(info.snapshot.starts_with(b"{\"schema\":"));
        assert_eq!(
            Database::from_snapshot(&info.snapshot)
                .unwrap()
                .to_snapshot()
                .unwrap(),
            include_bytes!("../../../tests/fixtures/legacy/empty_checkpoint.snap")
        );
    }
}
