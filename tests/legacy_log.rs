//! Log records in the JSON earlier versions wrote, against the binary
//! payloads of the same records (`tests/fixtures/legacy/`):
//! `records.jsonl` is one record per line as the last version with a
//! serde derive on `LogRecord` wrote it, covering every variant, every
//! functionality, an inverted derivation step, a null and an atom longer
//! than fits inline in a `Value`; `records.hex` is each line's binary
//! payload, in hex, on the same line number. Neither can be regenerated
//! from this tree.

use std::path::Path;
use std::sync::Arc;

use fdb::core::wal::{
    decode_payload, encode_frame, frame_crc, raw_frame, replay_on, LogRecord, Wal, WAL_MAGIC,
};
use fdb::core::{SimDisk, WalStorage};
use fdb::types::{Functionality, Value};

mod common;
use common::legacy_json::{to_json, v1_file};

const JSON_LINES: &str = include_str!("fixtures/legacy/records.jsonl");
const PAYLOADS: &str = include_str!("fixtures/legacy/records.hex");

/// Every recorded line with its binary payload.
fn recorded() -> Vec<(&'static str, Vec<u8>)> {
    let payloads: Vec<Vec<u8>> = PAYLOADS
        .lines()
        .map(|hex| {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect()
        })
        .collect();
    let lines: Vec<&str> = JSON_LINES.lines().collect();
    assert_eq!(lines.len(), payloads.len());
    lines.into_iter().zip(payloads).collect()
}

fn records() -> Vec<LogRecord> {
    recorded()
        .iter()
        .map(|(_, payload)| decode_payload(payload).unwrap().expect("a known record"))
        .collect()
}

#[test]
fn every_recorded_line_decodes_to_its_binary_record() {
    for (line, payload) in recorded() {
        let binary = decode_payload(&payload).unwrap().expect("a known record");
        assert_eq!(
            decode_payload(line.as_bytes()),
            Ok(Some(binary.clone())),
            "{line}"
        );
        // This version still writes the recorded binary bytes.
        let frame = encode_frame(1, &binary).unwrap();
        assert_eq!(frame[frame.len() - payload.len()..], payload[..], "{line}");
    }
}

#[test]
fn the_fixture_covers_every_shape_of_record() {
    let records = records();
    let variants: std::collections::BTreeSet<String> = records
        .iter()
        .map(|r| format!("{r:?}").split(' ').next().unwrap().to_owned())
        .collect();
    assert_eq!(variants.len(), 11, "{variants:?}");
    for f in Functionality::ALL {
        assert!(
            records.iter().any(
                |r| matches!(r, LogRecord::Declare { functionality, .. } if *functionality == f)
            ),
            "{f:?}"
        );
    }
    assert!(records.iter().any(
        |r| matches!(r, LogRecord::Derive { steps, .. } if steps.iter().any(|(_, inv)| *inv))
    ));
    let values: Vec<&Value> = records
        .iter()
        .flat_map(|r| match r {
            LogRecord::Insert { x, y, .. } | LogRecord::Delete { x, y, .. } => vec![x, y],
            LogRecord::Replace { old, new, .. } => vec![&old.0, &old.1, &new.0, &new.1],
            _ => vec![],
        })
        .collect();
    assert!(values.iter().any(|v| v.is_null()));
    assert!(values.iter().any(|v| v.to_string().len() > 14));
}

/// The hand-written writer the other tests lay out JSON with produces
/// the recorded lines exactly.
#[test]
fn the_test_writer_reproduces_every_recorded_line() {
    for (record, (line, _)) in records().iter().zip(recorded()) {
        assert_eq!(to_json(record), line);
    }
}

#[test]
fn recorded_lines_replay_as_a_v1_file_to_the_binary_log_state() {
    let disk = Arc::new(SimDisk::new());
    let v1 = Path::new("/legacy/records.log");
    disk.create(v1)
        .unwrap()
        .append(JSON_LINES.as_bytes())
        .unwrap();
    let v2 = Path::new("/legacy/records.seg");
    let mut segment = WAL_MAGIC.to_vec();
    for (seq, (_, payload)) in (1..).zip(recorded()) {
        segment.extend_from_slice(&raw_frame(seq, frame_crc(seq, &payload), &payload));
    }
    disk.create(v2).unwrap().append(&segment).unwrap();

    let (from_json, json_report) = replay_on(disk.as_ref(), v1).unwrap();
    let (from_binary, binary_report) = replay_on(disk.as_ref(), v2).unwrap();
    assert!(json_report.corruption.is_empty(), "{json_report:?}");
    assert_eq!(json_report.skipped_records, 0);
    assert_eq!(json_report.applied, binary_report.applied);
    assert_eq!(json_report.last_seq, binary_report.last_seq);
    assert_eq!(
        json_report.uncommitted_discarded,
        binary_report.uncommitted_discarded
    );
    common::assert_same_database(&from_json, &from_binary, "v1 lines vs binary frames");

    // The writer lays out the whole file, and this version logs the same
    // records as the recorded frames, byte for byte.
    assert_eq!(v1_file(&records()), JSON_LINES.as_bytes());
    let mut wal = Wal::create_on(
        disk.clone() as Arc<dyn WalStorage>,
        "/legacy/rewritten.seg",
        1,
    )
    .unwrap();
    for record in records() {
        wal.append(&record).unwrap();
    }
    drop(wal);
    assert_eq!(
        disk.read(Path::new("/legacy/rewritten.seg")).unwrap(),
        segment
    );
}
