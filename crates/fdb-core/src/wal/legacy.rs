//! The log formats earlier versions wrote, and the only code that reads
//! or writes record JSON: a JSON record payload (inside a v2 frame, or a
//! line of a v1 file), the v1 single-file log — which keeps receiving v1
//! lines, so it never becomes mixed-format — and the JSON checkpoint
//! document. Old directories open through here without an upgrade pass;
//! apart from a v1 file's own lines, everything this version writes is
//! binary.

use serde::Deserialize;

use fdb_types::{FdbError, Result};

use super::{initial_term, CheckpointInfo, Corruption, LogRecord, Scan};

/// Decodes a JSON record payload. `Ok(None)` is valid JSON that is not
/// a [`LogRecord`] this version knows — written deliberately by a newer
/// version, to be skipped rather than treated as corruption.
pub(super) fn decode_json(payload: &[u8]) -> std::result::Result<Option<LogRecord>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    match serde_json::from_str::<LogRecord>(text) {
        Ok(record) => Ok(Some(record)),
        Err(_) if serde_json::parse(text).is_ok() => Ok(None),
        Err(e) => Err(format!("payload JSON: {e}")),
    }
}

/// The term a JSON payload announces, if it is a `NewTerm` record. A
/// payload that does not name the variant is not parsed at all.
pub(super) fn json_term(payload: &[u8]) -> Option<u64> {
    if !payload.windows(b"NewTerm".len()).any(|w| w == b"NewTerm") {
        return None;
    }
    match decode_json(payload) {
        Ok(Some(LogRecord::NewTerm { term })) => Some(term),
        _ => None,
    }
}

/// Appends `record` to `out` as one v1 line.
pub(super) fn push_line(out: &mut Vec<u8>, record: &LogRecord) -> Result<()> {
    let line = serde_json::to_string(record)
        .map_err(|e| FdbError::Internal(format!("wal: serialise: {e}")))?;
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    Ok(())
}

/// Scans a v1 file: newline-delimited JSON records, numbered by
/// position from `scan.next_seq`.
pub(super) fn scan_v1(bytes: &[u8], scan: &mut Scan) {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let (line, advance, complete) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (&rest[..nl], nl + 1, true),
            None => (rest, rest.len(), false),
        };
        if !line.iter().all(|b| b.is_ascii_whitespace()) {
            match decode_json(line) {
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

/// A checkpoint file as written before the binary layout: one JSON
/// document with the snapshot — itself JSON — as a string field.
#[derive(Deserialize)]
struct LegacyCheckpoint {
    seq: u64,
    snapshot: String,
    /// Absent in pre-replication checkpoints.
    #[serde(default)]
    term: Option<u64>,
}

/// Reads a checkpoint file in the JSON layout (it starts with `{`). It
/// carries no checksum to verify; the next checkpoint replaces it with
/// the binary layout.
pub(super) fn read_checkpoint_json(bytes: &[u8]) -> std::result::Result<CheckpointInfo, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let legacy: LegacyCheckpoint =
        serde_json::from_str(text).map_err(|e| format!("corrupt: {e}"))?;
    Ok(CheckpointInfo {
        seq: legacy.seq,
        snapshot: legacy.snapshot.into_bytes(),
        term: legacy.term.unwrap_or_else(initial_term),
    })
}

/// A CRC-valid frame whose payload is valid JSON but not a record this
/// version knows — a future record type as an older writer laid it out.
#[cfg(test)]
pub(super) fn unknown_json_frame(seq: u64) -> Vec<u8> {
    super::frame_by_hand(seq, br#"{"Vacuum":{"aggressive":true}}"#)
}
