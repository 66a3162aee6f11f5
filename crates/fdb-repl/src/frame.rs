//! Raw v2 WAL frames, shipped byte-for-byte.
//!
//! Replication needs a frame's bytes themselves, not only the record
//! they decode to: the CRC *is* the divergence check — two frames with
//! the same seq and CRC are the same bytes. [`ShippedFrame`] is the owned
//! form of the [`RawFrame`] that `fdb_core::wal::Frames` yields; how a
//! frame is laid out stays with `fdb_core::wal`.

use fdb_core::wal::{decode_payload, encode_frame, frame_crc, frame_len, raw_frame};
use fdb_core::wal::{Frames, RawFrame};
use fdb_core::LogRecord;
use fdb_types::{FdbError, Result};

/// One WAL frame in transit: the sequence number and checksum from the
/// frame header plus the raw (still JSON) payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShippedFrame {
    /// The frame's sequence number.
    pub seq: u64,
    /// CRC32 over the little-endian seq followed by the payload, exactly
    /// as stored in the source's segment file.
    pub crc: u32,
    /// The raw record payload (JSON text as bytes).
    pub payload: Vec<u8>,
}

impl From<RawFrame<'_>> for ShippedFrame {
    fn from(frame: RawFrame<'_>) -> Self {
        ShippedFrame {
            seq: frame.seq,
            crc: frame.crc,
            payload: frame.payload.to_vec(),
        }
    }
}

impl ShippedFrame {
    /// Whether the frame's checksum matches its contents — i.e. the frame
    /// survived shipping intact.
    pub fn crc_valid(&self) -> bool {
        frame_crc(self.seq, &self.payload) == self.crc
    }

    /// The frame re-encoded exactly as it sits in a segment file.
    /// Appending this to a replica's local segment reproduces the
    /// primary's bytes.
    pub fn encoded(&self) -> Vec<u8> {
        raw_frame(self.seq, self.crc, &self.payload)
    }

    /// On-disk size of the encoded frame in bytes.
    pub fn encoded_len(&self) -> u64 {
        frame_len(self.payload.len())
    }

    /// Decodes the payload. `Ok(None)` means the payload is valid JSON
    /// but not a record type this version knows — written by a newer
    /// version; store it, skip applying it (same forward-compatibility
    /// rule as recovery). `Err` means the payload is malformed despite a
    /// passing CRC, which only a buggy writer can produce.
    pub fn record(&self) -> Result<Option<LogRecord>> {
        decode_payload(&self.payload)
            .map_err(|detail| FdbError::Internal(format!("frame {} {detail}", self.seq)))
    }

    /// Builds a frame from a record (test and tooling helper; the
    /// shipping path itself never re-encodes, it copies source bytes).
    pub fn for_record(seq: u64, record: &LogRecord) -> Result<ShippedFrame> {
        let bytes = encode_frame(seq, record)?;
        let frame = Frames::tail(&bytes, 0, seq).next();
        frame
            .map(ShippedFrame::from)
            .ok_or_else(|| FdbError::Internal(format!("frame {seq} does not read back")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_record_round_trips_and_detects_tamper() {
        let record = LogRecord::NewTerm { term: 3 };
        let f = ShippedFrame::for_record(7, &record).unwrap();
        assert!(f.crc_valid());
        assert_eq!(f.record().unwrap(), Some(record.clone()));
        // Re-encoding reproduces the writer's bytes.
        assert_eq!(f.encoded(), encode_frame(7, &record).unwrap());
        assert_eq!(f.encoded_len(), f.encoded().len() as u64);
        let mut bad = f.clone();
        bad.payload[2] ^= 1;
        assert!(!bad.crc_valid());
    }

    #[test]
    fn unknown_record_payload_is_skippable_not_error() {
        let payload = br#"{"FromTheFuture":{"x":1}}"#.to_vec();
        let f = ShippedFrame {
            seq: 9,
            crc: frame_crc(9, &payload),
            payload,
        };
        assert!(f.crc_valid());
        assert_eq!(f.record().unwrap(), None);
    }
}
