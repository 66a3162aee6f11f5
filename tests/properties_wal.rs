//! WAL-layer property tests: arbitrary log records (every variant, null
//! ids and ids up to `u64::MAX`, multi-step derivations, hostile strings)
//! must survive the v2 frame encoding, a damaged payload re-sealed with a
//! correct checksum must decode to an error, a skip or a well-formed
//! record — never a panic — torn frames must always salvage to a clean
//! record prefix, and concurrent logged writers must replay to exactly
//! the live state.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::wal::{
    crc32, decode_payload, encode_frame, frame_crc, raw_frame, scan, Corruption, Frames, LogRecord,
    WAL_MAGIC,
};
use fdb::core::{
    DurabilityConfig, LoggedDatabase, SharedLoggedDatabase, SimDisk, SyncPolicy, Wal, WalStorage,
};
use fdb::types::{Functionality, NullId, Value};

/// How many random cases each property draws. `FDB_WAL_CASES` raises it
/// for the CI release run (the vendored `proptest` does not read
/// `PROPTEST_CASES`).
fn wal_cases() -> u32 {
    std::env::var("FDB_WAL_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// Strings that stress the framing: empty, quotes, newlines (the v1
/// format's record separator), unicode, long runs.
fn arb_name(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6usize) {
        0 => String::new(),
        1 => "teach".to_owned(),
        2 => "line\nbreak \"quoted\" \\slash".to_owned(),
        3 => "näïve-función-関数".to_owned(),
        4 => "x".repeat(rng.gen_range(0..200usize)),
        _ => format!("f{}", rng.gen_range(0..50u32)),
    }
}

/// Null indices and transaction ids: small, at the top of the range,
/// and anywhere in it.
fn arb_id(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4usize) {
        0 => rng.gen_range(0..1000u64),
        1 => u64::MAX - rng.gen_range(0..3u64),
        2 => rng.gen_range(0..=u64::MAX),
        _ => 0,
    }
}

fn arb_value(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..4usize) == 0 {
        Value::Null(NullId(arb_id(rng)))
    } else {
        Value::atom(arb_name(rng))
    }
}

fn arb_functionality(rng: &mut StdRng) -> Functionality {
    match rng.gen_range(0..4usize) {
        0 => Functionality::OneOne,
        1 => Functionality::OneMany,
        2 => Functionality::ManyOne,
        _ => Functionality::ManyMany,
    }
}

fn arb_record(rng: &mut StdRng) -> LogRecord {
    match rng.gen_range(0..11usize) {
        0 => LogRecord::Declare {
            name: arb_name(rng),
            domain: arb_name(rng),
            range: arb_name(rng),
            functionality: arb_functionality(rng),
        },
        1 => LogRecord::Derive {
            name: arb_name(rng),
            // Multi-step derivations with inverse marks.
            steps: (0..rng.gen_range(1..5usize))
                .map(|_| (arb_name(rng), rng.gen_range(0..2u32) == 0))
                .collect(),
        },
        2 => LogRecord::Insert {
            function: arb_name(rng),
            x: arb_value(rng),
            y: arb_value(rng),
        },
        3 => LogRecord::Delete {
            function: arb_name(rng),
            x: arb_value(rng),
            y: arb_value(rng),
        },
        4 => LogRecord::Replace {
            function: arb_name(rng),
            old: (arb_value(rng), arb_value(rng)),
            new: (arb_value(rng), arb_value(rng)),
        },
        5 => LogRecord::TxnBegin { id: arb_id(rng) },
        6 => LogRecord::TxnCommit { id: arb_id(rng) },
        7 => LogRecord::TxnAbort { id: arb_id(rng) },
        8 => LogRecord::TxnSavepoint {
            name: arb_name(rng),
        },
        9 => LogRecord::TxnRollbackTo {
            name: arb_name(rng),
        },
        _ => LogRecord::NewTerm { term: arb_id(rng) },
    }
}

/// The payload bytes of `record`'s frame.
fn payload_of(record: &LogRecord) -> Vec<u8> {
    let frame = encode_frame(1, record).unwrap();
    let payload = Frames::tail(&frame, 0, 1).next().unwrap().payload;
    payload.to_vec()
}

#[test]
fn arb_record_reaches_every_variant() {
    let mut rng = StdRng::seed_from_u64(11);
    let seen: BTreeSet<String> = (0..2_000)
        .map(|_| {
            let debug = format!("{:?}", arb_record(&mut rng));
            debug[..debug.find(' ').unwrap_or(debug.len())].to_owned()
        })
        .collect();
    assert_eq!(seen.len(), 11, "{seen:?}");
}

/// Appends `records` to a fresh v2 log on a simulated disk and returns the
/// raw on-disk bytes.
fn encode_log(records: &[LogRecord]) -> Vec<u8> {
    let disk = Arc::new(SimDisk::new());
    let path = std::path::Path::new("/prop.wal");
    let mut wal = Wal::create_on(disk.clone() as Arc<dyn WalStorage>, path, 1).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    disk.read(path).unwrap()
}

fn v(s: &str) -> Value {
    Value::atom(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(wal_cases()))]

    /// Every record decodes back from its own binary payload, which never
    /// starts the way a JSON payload does.
    #[test]
    fn every_variant_round_trips_through_the_binary_codec(seed in 0u64..10_000, len in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..len {
            let record = arb_record(&mut rng);
            let payload = payload_of(&record);
            prop_assert_ne!(payload[0], b'{');
            prop_assert_eq!(decode_payload(&payload), Ok(Some(record)));
        }
    }

    /// Every cut and every single-byte XOR of a payload, re-sealed with a
    /// correct checksum so the damage reaches the decoder: the decoder
    /// says `Err`, `Ok(None)` or a record that is itself well formed, and
    /// the frame walker agrees — a malformed frame ends the valid prefix,
    /// an unknown one is skipped. Nothing panics, and no length read
    /// from the damaged bytes reaches past them.
    #[test]
    fn damaged_payloads_are_errors(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = payload_of(&arb_record(&mut rng));
        let mut damaged: Vec<Vec<u8>> = (0..payload.len()).map(|cut| payload[..cut].to_vec()).collect();
        for at in 0..payload.len() {
            for mask in 1..=255u8 {
                let mut flipped = payload.clone();
                flipped[at] ^= mask;
                damaged.push(flipped);
            }
        }
        for bytes in &damaged {
            let mut segment = WAL_MAGIC.to_vec();
            segment.extend_from_slice(&raw_frame(1, frame_crc(1, bytes), bytes));
            let scanned = scan(&segment, 1);
            match decode_payload(bytes) {
                Err(_) => {
                    prop_assert!(
                        matches!(scanned.flaw, Some(Corruption::Malformed { offset: 8, .. })),
                        "{:?}", scanned.flaw
                    );
                    prop_assert_eq!(scanned.valid_len, WAL_MAGIC.len() as u64);
                }
                Ok(None) => {
                    prop_assert!(scanned.flaw.is_none());
                    prop_assert_eq!(scanned.skipped, 1);
                }
                Ok(Some(record)) => {
                    prop_assert_eq!(decode_payload(&payload_of(&record)), Ok(Some(record.clone())));
                    prop_assert_eq!(scanned.records, vec![(1, record)]);
                }
            }
        }
    }

    /// Every record written comes back identical from a scan — null ids,
    /// multi-step derivations, hostile strings and all.
    #[test]
    fn every_record_survives_the_frame_round_trip(seed in 0u64..10_000, len in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LogRecord> = (0..len).map(|_| arb_record(&mut rng)).collect();
        let bytes = encode_log(&records);
        let scanned = scan(&bytes, 1);
        prop_assert!(scanned.flaw.is_none(), "clean log scanned a flaw: {:?}", scanned.flaw);
        prop_assert_eq!(scanned.valid_len, bytes.len() as u64);
        prop_assert_eq!(scanned.records.len(), records.len());
        for (i, (seq, got)) in scanned.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(got, &records[i]);
        }
    }

    /// Cutting the log at any byte still salvages a clean prefix of the
    /// original records — never garbage, never a panic.
    #[test]
    fn any_truncation_salvages_a_record_prefix(seed in 0u64..10_000, len in 1usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LogRecord> = (0..len).map(|_| arb_record(&mut rng)).collect();
        let bytes = encode_log(&records);
        let cut = rng.gen_range(0..bytes.len());
        let scanned = scan(&bytes[..cut], 1);
        prop_assert!(scanned.valid_len <= cut as u64);
        prop_assert!(scanned.records.len() <= records.len());
        for (i, (seq, got)) in scanned.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(got, &records[i]);
        }
    }

    /// One walker, two views: however a log is damaged — cut anywhere,
    /// or one bit flipped anywhere, header included — the decoded view
    /// (`scan`) and the raw view (`Frames`, what replication ships from)
    /// end the valid prefix at the same byte, continue it with the same
    /// sequence number, and blame the same offset.
    #[test]
    fn decoded_and_raw_views_agree_on_damaged_logs(seed in 0u64..10_000, len in 1usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LogRecord> = (0..len).map(|_| arb_record(&mut rng)).collect();
        let mut bytes = encode_log(&records);
        if rng.gen_bool(0.5) {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        } else {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
        let decoded = scan(&bytes, 1);
        let mut raw = Frames::segment(&bytes, 1);
        let frames: Vec<(u64, u32)> = raw.by_ref().map(|f| (f.seq, f.crc)).collect();
        prop_assert_eq!(decoded.valid_len, raw.valid_len());
        prop_assert_eq!(decoded.next_seq, raw.next_seq());
        prop_assert_eq!(
            decoded.flaw.as_ref().map(|f| f.offset()),
            raw.flaw().map(|f| f.offset())
        );
        prop_assert_eq!(decoded.flaw.is_some(), decoded.valid_len < bytes.len() as u64);
        // Every intact frame holds a record this version wrote.
        prop_assert_eq!(decoded.records.len(), frames.len());
        prop_assert_eq!(&decoded.frames, &frames);
    }

    /// A record written by a newer version — valid JSON, unknown type —
    /// is skipped with a warning, never an error, in both log formats
    /// and wherever it lands among known records.
    #[test]
    fn unknown_record_types_are_skipped_in_both_formats(seed in 0u64..10_000, len in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LogRecord> = (0..len).map(|_| arb_record(&mut rng)).collect();
        let at = rng.gen_range(0..=records.len());
        let future = br#"{"Vacuum":{"aggressive":true}}"#;

        // v2: splice in a CRC-valid frame carrying the future payload.
        let disk = Arc::new(SimDisk::new());
        let path = std::path::Path::new("/unknown_v2.wal");
        {
            let mut wal = Wal::create_on(disk.clone() as Arc<dyn WalStorage>, path, 1).unwrap();
            for r in &records[..at] {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        {
            let mut checked = Vec::new();
            checked.extend_from_slice(&(at as u64 + 1).to_le_bytes());
            checked.extend_from_slice(future);
            let mut frame = Vec::new();
            frame.extend_from_slice(&(future.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&checked).to_le_bytes());
            frame.extend_from_slice(&checked);
            let mut f = disk.open_append(path).unwrap();
            f.append(&frame).unwrap();
            for (i, r) in records[at..].iter().enumerate() {
                f.append(&encode_frame(at as u64 + 2 + i as u64, r).unwrap()).unwrap();
            }
        }
        let scanned = scan(&disk.read(path).unwrap(), 1);
        prop_assert!(scanned.flaw.is_none(), "v2 skip became a flaw: {:?}", scanned.flaw);
        prop_assert_eq!(scanned.skipped, 1);
        prop_assert_eq!(scanned.records.len(), records.len());
        for ((_, got), want) in scanned.records.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }

        // v1 legacy: the same future payload as a plain JSON line.
        let mut bytes = Vec::new();
        for r in &records[..at] {
            bytes.extend_from_slice(serde_json::to_string(r).unwrap().as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(future);
        bytes.push(b'\n');
        for r in &records[at..] {
            bytes.extend_from_slice(serde_json::to_string(r).unwrap().as_bytes());
            bytes.push(b'\n');
        }
        let scanned = scan(&bytes, 1);
        prop_assert!(scanned.flaw.is_none(), "v1 skip became a flaw: {:?}", scanned.flaw);
        prop_assert_eq!(scanned.skipped, 1);
        prop_assert_eq!(scanned.records.len(), records.len());
        for ((_, got), want) in scanned.records.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
    }

    /// Concurrent writers through `SharedLoggedDatabase`: whatever
    /// interleaving the scheduler picks, replaying the log reproduces the
    /// live state byte-for-byte.
    #[test]
    fn concurrent_writers_replay_to_live_state(seed in 0u64..1_000) {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone() as Arc<dyn WalStorage>,
            "/prop_shared",
            DurabilityConfig {
                sync_policy: SyncPolicy::EveryN(8),
                checkpoint_every: Some(48),
                segment_max_bytes: 2048,
            },
        )
        .unwrap();
        ldb.declare("teach", "faculty", "course", Functionality::ManyMany).unwrap();
        ldb.declare("class_list", "course", "student", Functionality::ManyMany).unwrap();
        ldb.declare("pupil", "faculty", "student", Functionality::ManyMany).unwrap();
        ldb.derive("pupil", &[("teach", false), ("class_list", false)]).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);

        let mut handles = Vec::new();
        for w in 0..3u64 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w + 1));
                for i in 0..20 {
                    let x = v(&format!("p{}_{}", w, rng.gen_range(0..8u32)));
                    let y = v(&format!("c{i}"));
                    if rng.gen_range(0..4u32) == 0 {
                        h.delete("teach", x, y).unwrap();
                    } else {
                        h.insert("teach", x, y).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert!(shared.is_consistent());
        let live = shared.read(|db| db.to_snapshot().unwrap());
        drop(shared.try_unwrap().expect("last handle"));

        let (recovered, report) = LoggedDatabase::open_with(
            disk as Arc<dyn WalStorage>,
            "/prop_shared",
            DurabilityConfig::default(),
        )
        .unwrap();
        prop_assert!(!report.damaged());
        prop_assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    }
}
