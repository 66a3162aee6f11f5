//! Recovery publishes metrics that match its own [`RecoveryReport`].
//!
//! One cut point of the crash-matrix harness: a generated workload is
//! driven through a `LoggedDatabase` on a `SimDisk` whose write budget is
//! cut mid-record, the torn image is recovered, and the registry deltas
//! across the recovery must equal the report the recovery itself returned
//! (salvaged records, corruption events, quarantined bytes — and exactly
//! one recovery run; records of a transaction that never committed are
//! counted too), and a checkpoint taken afterwards must show up in
//! `fdb.wal.checkpoint_bytes` / `fdb.wal.checkpoint_ns` and as an
//! `fdb.core.checkpoint` span with exactly the size of the file it
//! installed. This file is its own test binary on purpose: the registry
//! is process-global and the delta assertions need a process to
//! themselves (the flight-dump test below takes no checkpoint through
//! `LoggedDatabase` and runs no successful recovery, so the two tests do
//! not move each other's counters).

use std::path::PathBuf;
use std::sync::Arc;

use fdb::core::{
    install_checkpoint, CheckpointInfo, Database, DurabilityConfig, LoggedDatabase, SimDisk,
    SyncPolicy, Update, WalStorage,
};
use fdb::obs;
use fdb::types::{Derivation, Functionality, Schema, Step, Value};
use fdb::workload::{update_stream, UpdateStreamConfig};

const DIR: &str = "/recovery_metrics_db";

fn dir() -> PathBuf {
    PathBuf::from(DIR)
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        sync_policy: SyncPolicy::Always,
        checkpoint_every: Some(64),
        segment_max_bytes: 4096,
    }
}

fn triangle() -> Database {
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

fn workload() -> Vec<Update> {
    update_stream(
        &triangle(),
        UpdateStreamConfig {
            length: 120,
            domain_size: 8,
            derived_pct: 35,
            delete_pct: 40,
            seed: 17,
        },
    )
}

/// Drives schema setup plus the stream, stopping quietly once the disk's
/// write budget is exhausted.
fn drive(disk: &Arc<SimDisk>, stream: &[Update]) -> u64 {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut written = 0u64;
    let Ok(mut ldb) = LoggedDatabase::create_with(storage, dir(), config()) else {
        return written;
    };
    for (name, dom, rng) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("pupil", "faculty", "student"),
    ] {
        if ldb
            .declare(name, dom, rng, Functionality::ManyMany)
            .is_err()
        {
            return written;
        }
        written = disk.total_written();
    }
    if ldb
        .derive("pupil", &[("teach", false), ("class_list", false)])
        .is_err()
    {
        return written;
    }
    written = disk.total_written();
    for update in stream {
        match ldb.apply_update(update) {
            Ok(()) => written = disk.total_written(),
            Err(_) if disk.crashed() => return written,
            Err(_) => {}
        }
    }
    written
}

#[test]
fn recovery_metrics_match_the_recovery_report() {
    obs::set_enabled(true);
    let stream = workload();

    // Uncut dry run to learn the disk high-water mark, then replay with
    // the budget cut mid-record: a few bytes short of the full image
    // guarantees a torn tail rather than a clean boundary.
    let probe = Arc::new(SimDisk::new());
    let full = drive(&probe, &stream);
    assert!(full > 0, "dry run wrote nothing");

    let disk = Arc::new(SimDisk::new());
    disk.set_write_budget(Some(full - 3));
    drive(&disk, &stream);
    assert!(disk.crashed(), "budget cut did not trip the disk");
    disk.revive();

    let reg = obs::registry();
    let runs0 = reg.recovery_runs.get();
    let salvaged0 = reg.recovery_records_salvaged.get();
    let corrupt0 = reg.recovery_corruption_events.get();
    let quarantined0 = reg.recovery_quarantined_bytes.get();
    let fsyncs_before = reg.wal_fsyncs.get();

    let (mut recovered, report) =
        LoggedDatabase::open_with(disk.clone() as Arc<dyn WalStorage>, dir(), config()).unwrap();
    assert!(recovered.database().is_consistent());
    assert!(report.applied > 0, "cut recovered nothing — bad cut point");

    // The registry deltas across the recovery are exactly the report.
    assert_eq!(reg.recovery_runs.get() - runs0, 1);
    assert_eq!(
        reg.recovery_records_salvaged.get() - salvaged0,
        report.applied as u64
    );
    assert_eq!(
        reg.recovery_corruption_events.get() - corrupt0,
        report.corruption.len() as u64
    );
    assert_eq!(
        reg.recovery_quarantined_bytes.get() - quarantined0,
        report.quarantined_bytes
    );

    // And the workload that produced the image left WAL traffic behind:
    // every logged record was appended and (policy: Always) fsynced.
    assert!(reg.wal_appends.get() > 0);
    assert!(reg.wal_append_bytes.get() > 0);
    assert!(fsyncs_before > 0);

    // A checkpoint is visible from inside: the byte counter moves by
    // exactly the size of the installed file, the timer takes one sample,
    // and the span tree says the same (`STATS JSON` and `SHOW TRACE` read
    // these, so the benchmark's outside view can be reproduced live).
    obs::causal::set_tracing(true);
    let bytes0 = reg.wal_checkpoint_bytes.get();
    let count0 = reg.wal_checkpoints.get();
    let timed0 = reg.wal_checkpoint_ns.snapshot().count;
    recovered.checkpoint().unwrap();
    let size = disk.size_of(dir().join("checkpoint.snap")).unwrap();
    assert_eq!(reg.wal_checkpoint_bytes.get() - bytes0, size);
    assert_eq!(reg.wal_checkpoints.get() - count0, 1);
    assert_eq!(reg.wal_checkpoint_ns.snapshot().count - timed0, 1);
    let spans = obs::causal::recorder().recent();
    let root = spans
        .iter()
        .rfind(|s| s.name == "fdb.core.checkpoint")
        .expect("the checkpoint recorded a span");
    assert!(
        root.detail.contains(&format!("bytes={size}"))
            && root
                .detail
                .contains(&format!("seq={}", recovered.checkpoint_seq())),
        "{}",
        root.detail
    );
    for step in ["encode", "install", "prune"] {
        let name = format!("fdb.core.checkpoint.{step}");
        assert!(
            spans
                .iter()
                .any(|s| s.name == name && s.parent_span == root.span_id),
            "no {name} span under the checkpoint"
        );
    }
    let stats = fdb::lang::Engine::new().execute_line("STATS JSON").unwrap();
    assert!(
        stats.contains("\"fdb.wal.checkpoint_bytes\"") && stats.contains("fdb.wal.checkpoint_ns")
    );

    // A transaction that never committed (the "crash" is the drop) leaves
    // a dangling frame; recovery discards its records and counts them in
    // `fdb.recovery.uncommitted_discarded`, exactly as its report does.
    let mut ldb = LoggedDatabase::create_with(
        disk.clone() as Arc<dyn WalStorage>,
        "/recovery_metrics_dangling",
        config(),
    )
    .unwrap();
    ldb.declare("teach", "faculty", "course", Functionality::ManyMany)
        .unwrap();
    ldb.begin().unwrap();
    for (x, y) in [("euclid", "math"), ("gauss", "algebra")] {
        ldb.insert("teach", Value::atom(x), Value::atom(y)).unwrap();
    }
    drop(ldb);
    let discarded0 = reg.recovery_uncommitted_discarded.get();
    let (_, report) = LoggedDatabase::open_with(
        disk as Arc<dyn WalStorage>,
        "/recovery_metrics_dangling",
        config(),
    )
    .unwrap();
    assert!(report.uncommitted_discarded > 0, "{report:?}");
    assert_eq!(
        reg.recovery_uncommitted_discarded.get() - discarded0,
        report.uncommitted_discarded as u64
    );
}

/// A statement span still open when the disk faults must appear in the
/// flight dump as `interrupted`, and the dump must come from the real
/// fault path: the failed WAL fsync itself triggers it, with no explicit
/// `DUMP TRACE` anywhere. A checkpoint whose checksum does not match its
/// bytes is the other durability fault that dumps.
#[test]
fn open_span_at_fault_is_interrupted_in_flight_dump() {
    obs::set_enabled(true);
    obs::causal::set_tracing(true);

    let dump_dir = std::env::temp_dir().join(format!("fdb-flight-rm-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).unwrap();
    obs::flight::set_dump_dir(Some(dump_dir.clone()));

    let disk = Arc::new(SimDisk::new());
    let mut ldb = LoggedDatabase::create_with(
        disk.clone() as Arc<dyn WalStorage>,
        "/flight_fault_db",
        config(),
    )
    .unwrap();
    ldb.declare("teach", "faculty", "course", Functionality::ManyMany)
        .unwrap();

    // The cut: the statement's span is open when the next fsync fails.
    let span = obs::causal::root_span("fdb.test.crash_statement", || "cut mid-flight".to_string());
    disk.fail_sync(1);
    let err = ldb.insert(
        "teach",
        fdb::types::Value::atom("euclid"),
        fdb::types::Value::atom("math"),
    );
    assert!(err.is_err(), "fsync fault must surface to the writer");
    drop(span);

    let mut found = false;
    for entry in std::fs::read_dir(&dump_dir).unwrap() {
        let body = std::fs::read_to_string(entry.unwrap().path()).unwrap_or_default();
        if body.contains("fsync_failure")
            && body.contains("fdb.test.crash_statement")
            && body.contains("\"status\":\"interrupted\"")
        {
            found = true;
        }
    }
    assert!(
        found,
        "no flight dump shows the open span as interrupted at the fsync fault"
    );

    // One flipped bit in an installed checkpoint: the open fails on the
    // checksum, and that failure dumps too.
    let info = CheckpointInfo {
        seq: ldb.last_seq(),
        term: ldb.term(),
        snapshot: ldb.database().to_snapshot().unwrap(),
    };
    drop(ldb);
    install_checkpoint(disk.as_ref(), "/flight_fault_db".as_ref(), &info).unwrap();
    disk.corrupt("/flight_fault_db/checkpoint.snap", 60, 0x01);
    let err = LoggedDatabase::open_with(
        disk.clone() as Arc<dyn WalStorage>,
        "/flight_fault_db",
        config(),
    )
    .unwrap_err()
    .to_string();
    assert!(
        err.contains("checkpoint.snap") && err.contains("crc32 expected"),
        "{err}"
    );
    let dumped = std::fs::read_dir(&dump_dir).unwrap().any(|entry| {
        std::fs::read_to_string(entry.unwrap().path())
            .unwrap_or_default()
            .contains("checkpoint_corrupt")
    });
    assert!(dumped, "the checksum mismatch left no flight dump");

    obs::flight::set_dump_dir(None);
    std::fs::remove_dir_all(&dump_dir).ok();
}
