//! Crash matrix: exhaustive torn-write recovery over a generated workload.
//!
//! A `fdb-workload` update stream (mixing base and derived INS/DEL, so the
//! state carries NCs, NVCs and a non-trivial null-generator watermark) is
//! driven through a [`LoggedDatabase`] on a [`SimDisk`]. The run is then
//! repeated with the disk's write budget cut
//!
//! * at **every record boundary** of the full run,
//! * at **every byte offset** inside one sampled mid-stream record, and
//! * at **every byte offset** of one checkpoint install (temp file,
//!   rename, rotation, segment removal),
//!
//! and each truncated image is recovered. The recovered database must
//! always be exactly the state after some prefix of the applied updates
//! (the longest whose record survived the cut), `is_consistent()` must
//! hold, the recovery report must show at worst a torn tail — and nothing
//! may panic.
//!
//! The checkpoint file itself is covered at the end: a bit flipped
//! anywhere in it must fail the open (never load a different database),
//! and a directory whose checkpoint is in the JSON layout of earlier
//! versions must open, seed a replica, and be rewritten in the binary
//! layout by the next checkpoint. Last, a segment whose frames an earlier
//! version wrote with JSON payloads is continued with binary frames, cut
//! at every byte of that continuation, and shipped to a replica.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use fdb_core::wal::{frame_crc, raw_frame, scan, Frames, WAL_MAGIC};
use fdb_core::{
    install_checkpoint, read_checkpoint, CheckpointInfo, Database, DurabilityConfig,
    LoggedDatabase, SimDisk, SyncPolicy, Update, WalStorage,
};
use fdb_repl::{ApplyOutcome, Replica, ReplicationSource};
use fdb_types::{Derivation, Functionality, Schema, Step, Value};
use fdb_workload::{update_stream, UpdateStreamConfig};

const DIR: &str = "/crash_db";

fn dir() -> PathBuf {
    PathBuf::from(DIR)
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        sync_policy: SyncPolicy::Always,
        // Small limits so the matrix crosses checkpoint installs and
        // segment rotations, not just plain appends.
        checkpoint_every: Some(64),
        segment_max_bytes: 4096,
    }
}

/// The pupil triangle, as a plain database for stream generation.
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
            length: 220,
            domain_size: 8,
            derived_pct: 35,
            delete_pct: 40,
            seed: 17,
        },
    )
}

/// Deterministically drives the schema setup plus `stream` through a fresh
/// `LoggedDatabase` on `disk`, invoking `after(seq, &ldb)` after each
/// successfully logged record. Returns early (without panicking) once the
/// disk's write budget is exhausted; semantic update failures are skipped,
/// exactly as they are unlogged.
fn drive(disk: &Arc<SimDisk>, stream: &[Update], after: impl FnMut(u64, &LoggedDatabase)) {
    drive_with(disk, config(), stream, after)
}

/// [`drive`] under an explicit durability configuration.
fn drive_with(
    disk: &Arc<SimDisk>,
    config: DurabilityConfig,
    stream: &[Update],
    mut after: impl FnMut(u64, &LoggedDatabase),
) {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = match LoggedDatabase::create_with(storage, dir(), config) {
        Ok(ldb) => ldb,
        Err(_) => {
            assert!(disk.crashed(), "create failed without a crash");
            return;
        }
    };
    let mut seq = 0u64;
    for (name, dom, rng) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("pupil", "faculty", "student"),
    ] {
        if ldb
            .declare(name, dom, rng, Functionality::ManyMany)
            .is_err()
        {
            assert!(disk.crashed(), "declare failed without a crash");
            return;
        }
        seq += 1;
        after(seq, &ldb);
    }
    if ldb
        .derive("pupil", &[("teach", false), ("class_list", false)])
        .is_err()
    {
        assert!(disk.crashed(), "derive failed without a crash");
        return;
    }
    seq += 1;
    after(seq, &ldb);
    for update in stream {
        match ldb.apply_update(update) {
            Ok(()) => {
                seq += 1;
                after(seq, &ldb);
            }
            Err(_) if disk.crashed() => return,
            Err(_) => {} // semantic failure: unlogged, state unchanged
        }
    }
}

/// Runs the workload against a budget-limited disk, recovers from the
/// truncated image, and returns `(recovered_seq, snapshot)`.
fn crash_and_recover(stream: &[Update], budget: u64) -> (u64, Vec<u8>) {
    let disk = Arc::new(SimDisk::new());
    disk.set_write_budget(Some(budget));
    drive(&disk, stream, |_, _| {});
    disk.revive();
    let (recovered, report) =
        LoggedDatabase::open_with(disk.clone() as Arc<dyn WalStorage>, dir(), config())
            .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));
    assert!(
        !report.damaged(),
        "clean torn write reported as interior damage at budget {budget}: {report:?}"
    );
    assert!(
        recovered.database().is_consistent(),
        "inconsistent recovered state at budget {budget}"
    );
    let seq = report.last_seq.or(report.checkpoint_seq).unwrap_or(0);
    (seq, recovered.database().to_snapshot().unwrap())
}

#[test]
fn crash_matrix_every_record_boundary_and_one_record_bytewise() {
    let stream = workload();
    assert!(stream.len() >= 200, "workload must cover >=200 updates");

    // Pass 1: uncut run. Record the disk high-water mark and the live
    // snapshot after every logged record.
    let disk = Arc::new(SimDisk::new());
    let mut bounds: Vec<u64> = Vec::new(); // bounds[k-1] = bytes after record k
    let mut snapshots: Vec<Vec<u8>> = vec![Database::new(Schema::new()).to_snapshot().unwrap()];
    drive(&disk, &stream, |seq, ldb| {
        assert_eq!(seq as usize, bounds.len() + 1);
        bounds.push(disk.total_written());
        snapshots.push(ldb.database().to_snapshot().unwrap());
    });
    let records = bounds.len() as u64;
    assert!(
        records >= 200,
        "expected >=200 logged records, got {records}"
    );

    // The stream must exercise the paper's partial-information machinery:
    // derived deletes leave NCs, derived inserts leave null-valued facts
    // under a moving null-generator watermark.
    let (final_stats, live) = {
        let (recovered, _) =
            LoggedDatabase::open_with(disk.clone() as Arc<dyn WalStorage>, dir(), config())
                .unwrap();
        (
            recovered.database().stats(),
            recovered.database().to_snapshot().unwrap(),
        )
    };
    assert!(final_stats.ncs > 0, "workload produced no NCs");
    assert!(final_stats.null_facts > 0, "workload produced no NVC nulls");
    assert!(
        final_stats.nulls_generated > 0,
        "null watermark never moved"
    );
    assert_eq!(live, snapshots[records as usize], "uncut recovery mismatch");

    // Pass 2: cut at every record boundary. A budget of exactly
    // bounds[k-1] persists record k and all its admin writes (rotation,
    // checkpoint) but nothing of record k+1, so recovery must land on
    // exactly state k.
    for k in 1..=records {
        let (seq, snapshot) = crash_and_recover(&stream, bounds[(k - 1) as usize]);
        assert_eq!(seq, k, "boundary cut after record {k} recovered seq {seq}");
        assert_eq!(
            snapshot, snapshots[k as usize],
            "boundary cut after record {k}: recovered state is not prefix state"
        );
    }

    // Pass 3: cut at every byte offset inside one sampled mid-stream
    // record's span. Inside the frame the cut tears record k (recover to
    // k-1); in the admin bytes after the frame the record survives
    // (recover to k).
    let k = records / 2;
    let (lo, hi) = (bounds[(k - 2) as usize], bounds[(k - 1) as usize]);
    assert!(hi > lo, "sampled record wrote no bytes");
    for budget in lo + 1..hi {
        let (seq, snapshot) = crash_and_recover(&stream, budget);
        assert!(
            seq == k - 1 || seq == k,
            "byte cut at {budget} (record {k} spans {lo}..{hi}) recovered seq {seq}"
        );
        assert_eq!(
            snapshot, snapshots[seq as usize],
            "byte cut at {budget}: recovered state is not prefix state"
        );
    }

    // Zero-budget degenerate case: nothing persisted, empty recovery.
    let (seq, snapshot) = crash_and_recover(&stream, 0);
    assert_eq!(seq, 0);
    assert_eq!(snapshot, snapshots[0]);
}

// ---------------------------------------------------------------------
// Transactional crash matrix: the same torn-write exhaustion, but with
// the workload wrapped in BEGIN/SAVEPOINT/ROLLBACK/COMMIT frames. The
// invariant sharpens from "some prefix state" to *atomicity*: recovery
// must land on the pre-BEGIN or post-COMMIT state of some transaction,
// never between.

/// One step of the transactional workload script.
enum TxnStep<'a> {
    Begin,
    Commit,
    Rollback,
    Savepoint(&'a str),
    RollbackTo(&'a str),
    Update(&'a Update),
}

/// Wraps the update stream into transactions of six updates each. Every
/// fifth chunk sets a mid-chunk savepoint and partially rolls back before
/// committing (so recovery must replay a committed partial rollback), and
/// every fourth is rolled back wholesale (so its records must never
/// surface).
fn txn_script(stream: &[Update]) -> Vec<TxnStep<'_>> {
    let mut steps = Vec::new();
    for (i, chunk) in stream.chunks(6).enumerate() {
        steps.push(TxnStep::Begin);
        match i % 5 {
            3 => {
                let mid = chunk.len() / 2;
                for u in &chunk[..mid] {
                    steps.push(TxnStep::Update(u));
                }
                steps.push(TxnStep::Savepoint("s"));
                for u in &chunk[mid..] {
                    steps.push(TxnStep::Update(u));
                }
                steps.push(TxnStep::RollbackTo("s"));
                steps.push(TxnStep::Commit);
            }
            4 => {
                for u in chunk {
                    steps.push(TxnStep::Update(u));
                }
                steps.push(TxnStep::Rollback);
            }
            _ => {
                for u in chunk {
                    steps.push(TxnStep::Update(u));
                }
                steps.push(TxnStep::Commit);
            }
        }
    }
    steps
}

/// Drives the schema setup plus the transactional script, invoking
/// `after(seq, &ldb)` once per logged record (every step logs exactly
/// one). Returns once the disk crashes; skips semantic update failures.
fn drive_txn(
    disk: &Arc<SimDisk>,
    steps: &[TxnStep<'_>],
    mut after: impl FnMut(u64, &LoggedDatabase),
) {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = match LoggedDatabase::create_with(storage, dir(), config()) {
        Ok(ldb) => ldb,
        Err(_) => {
            assert!(disk.crashed(), "create failed without a crash");
            return;
        }
    };
    let mut seq = 0u64;
    for (name, dom, rng) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("pupil", "faculty", "student"),
    ] {
        if ldb
            .declare(name, dom, rng, Functionality::ManyMany)
            .is_err()
        {
            assert!(disk.crashed(), "declare failed without a crash");
            return;
        }
        seq += 1;
        after(seq, &ldb);
    }
    if ldb
        .derive("pupil", &[("teach", false), ("class_list", false)])
        .is_err()
    {
        assert!(disk.crashed(), "derive failed without a crash");
        return;
    }
    seq += 1;
    after(seq, &ldb);
    for step in steps {
        let result = match step {
            TxnStep::Begin => ldb.begin(),
            TxnStep::Commit => ldb.commit(),
            TxnStep::Rollback => ldb.rollback(),
            TxnStep::Savepoint(name) => ldb.savepoint(name),
            TxnStep::RollbackTo(name) => ldb.rollback_to(name),
            TxnStep::Update(update) => ldb.apply_update(update),
        };
        match result {
            Ok(()) => {
                seq += 1;
                after(seq, &ldb);
            }
            Err(_) if disk.crashed() => return,
            Err(_) => {
                // Semantic update failure: unlogged, state unchanged.
                assert!(
                    matches!(step, TxnStep::Update(_)),
                    "transaction control failed on a healthy disk"
                );
            }
        }
    }
}

/// Runs the transactional script against a budget-limited disk, recovers
/// from the truncated image, and returns the recovered snapshot.
fn txn_crash_and_recover(steps: &[TxnStep<'_>], budget: u64) -> Vec<u8> {
    let disk = Arc::new(SimDisk::new());
    disk.set_write_budget(Some(budget));
    drive_txn(&disk, steps, |_, _| {});
    disk.revive();
    let (recovered, report) =
        LoggedDatabase::open_with(disk.clone() as Arc<dyn WalStorage>, dir(), config())
            .unwrap_or_else(|e| panic!("txn recovery failed at budget {budget}: {e}"));
    assert!(
        !report.damaged(),
        "torn transactional write reported as interior damage at budget {budget}: {report:?}"
    );
    assert!(
        !recovered.txn_active(),
        "recovery left a transaction frame open at budget {budget}"
    );
    assert!(
        recovered.database().is_consistent(),
        "inconsistent recovered state at budget {budget}"
    );
    recovered.database().to_snapshot().unwrap()
}

#[test]
fn txn_crash_matrix_every_record_boundary() {
    let stream = workload();
    let steps = txn_script(&stream);
    let updates = steps
        .iter()
        .filter(|s| matches!(s, TxnStep::Update(_)))
        .count();
    assert!(
        updates >= 200,
        "transactional workload must cover >=200 updates"
    );

    // Pass 1: uncut run. After every logged record, note the disk
    // high-water mark and the state recovery *must* reproduce there: the
    // live state when no frame is open, else the pre-BEGIN state (an
    // uncommitted frame is discarded at recovery).
    let disk = Arc::new(SimDisk::new());
    let mut bounds: Vec<u64> = Vec::new(); // bounds[k-1] = bytes after record k
    let mut expected: Vec<Vec<u8>> = Vec::new(); // expected[k-1] = recovery target after record k
    let mut committed = Database::new(Schema::new()).to_snapshot().unwrap();
    drive_txn(&disk, &steps, |seq, ldb| {
        assert_eq!(seq as usize, bounds.len() + 1);
        bounds.push(disk.total_written());
        if !ldb.txn_active() {
            committed = ldb.database().to_snapshot().unwrap();
        }
        expected.push(committed.clone());
    });
    let records = bounds.len() as u64;
    assert!(records > updates as u64, "control records missing");

    // The workload must still exercise NCs and nulls after the rolled-back
    // chunks are discarded.
    let (recovered, _) =
        LoggedDatabase::open_with(disk.clone() as Arc<dyn WalStorage>, dir(), config()).unwrap();
    let final_stats = recovered.database().stats();
    assert!(
        final_stats.ncs > 0,
        "transactional workload produced no NCs"
    );
    assert!(
        final_stats.null_facts > 0,
        "transactional workload produced no nulls"
    );
    assert_eq!(
        recovered.database().to_snapshot().unwrap(),
        expected[(records - 1) as usize],
        "uncut transactional recovery mismatch"
    );
    drop(recovered);

    // Pass 2: cut at every record boundary. Atomicity: the recovered
    // state is exactly the last committed state at that boundary — the
    // pre-BEGIN state while a frame was open, the post-COMMIT state
    // otherwise — never anything in between.
    for k in 1..=records {
        let snapshot = txn_crash_and_recover(&steps, bounds[(k - 1) as usize]);
        assert_eq!(
            snapshot,
            expected[(k - 1) as usize],
            "boundary cut after record {k}: recovered state is neither pre-BEGIN nor post-COMMIT"
        );
    }

    // Pass 3: cut at every byte offset inside one sampled COMMIT record.
    // Tearing the commit marker discards the whole frame (pre-BEGIN);
    // surviving it (admin bytes after the frame) lands post-COMMIT.
    let k = {
        // Record index of a mid-stream COMMIT: setup contributes 4
        // records, then one per step.
        let mut commits: Vec<u64> = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, TxnStep::Commit))
            .map(|(i, _)| 4 + i as u64 + 1)
            .collect();
        commits.truncate(commits.len() / 2);
        *commits.last().expect("script has commits")
    };
    let (lo, hi) = (bounds[(k - 2) as usize], bounds[(k - 1) as usize]);
    assert!(hi > lo, "sampled commit wrote no bytes");
    for budget in lo + 1..hi {
        let snapshot = txn_crash_and_recover(&steps, budget);
        assert!(
            snapshot == expected[(k - 2) as usize] || snapshot == expected[(k - 1) as usize],
            "byte cut at {budget} inside commit record {k}: \
             recovered state is neither pre-BEGIN nor post-COMMIT"
        );
    }
}

#[test]
fn txn_commit_fsync_fault_aborts_and_recovery_agrees() {
    let disk = Arc::new(SimDisk::new());
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = LoggedDatabase::create_with(storage, dir(), config()).unwrap();
    ldb.declare("teach", "faculty", "course", Functionality::ManyMany)
        .unwrap();
    ldb.insert("teach", Value::atom("euclid"), Value::atom("math"))
        .unwrap();
    let pre = ldb.database().to_snapshot().unwrap();

    // The commit's force-fsync fails: the all-or-nothing contract demands
    // the live state roll back too, with a typed error and no panic.
    ldb.begin().unwrap();
    ldb.insert("teach", Value::atom("turing"), Value::atom("cs"))
        .unwrap();
    disk.fail_sync(1);
    assert!(ldb.commit().is_err(), "commit must surface the sync fault");
    assert!(!ldb.txn_active(), "failed commit must close the frame");
    assert_eq!(ldb.database().to_snapshot().unwrap(), pre);

    // The database stays usable: a fresh transaction commits fine.
    ldb.begin().unwrap();
    ldb.insert("teach", Value::atom("noether"), Value::atom("algebra"))
        .unwrap();
    ldb.commit().unwrap();
    let live = ldb.database().to_snapshot().unwrap();
    drop(ldb);

    let (recovered, report) =
        LoggedDatabase::open_with(disk as Arc<dyn WalStorage>, dir(), config()).unwrap();
    assert!(!report.damaged(), "{report:?}");
    assert_eq!(recovered.database().to_snapshot().unwrap(), live);
}

#[test]
fn txn_soak_with_fsync_faults() {
    // The transactional script under sporadic injected fsync failures: a
    // fault inside a frame aborts that transaction (typed, no panic); the
    // driver keeps going; recovery of the intact image must agree with
    // the live survivor state exactly.
    let stream = workload();
    let steps = txn_script(&stream);
    for fault_round in 0u64..5 {
        let disk = Arc::new(SimDisk::new());
        for j in 0..8u64 {
            disk.fail_sync(11 + fault_round * 7 + j * 53);
        }
        let storage: Arc<dyn WalStorage> = disk.clone();
        let mut ldb = LoggedDatabase::create_with(storage, dir(), config()).unwrap();
        for (name, dom, rng) in [
            ("teach", "faculty", "course"),
            ("class_list", "course", "student"),
            ("pupil", "faculty", "student"),
        ] {
            let _ = ldb.declare(name, dom, rng, Functionality::ManyMany);
        }
        let _ = ldb.derive("pupil", &[("teach", false), ("class_list", false)]);
        for step in &steps {
            // Every failure must be typed; a fault mid-frame aborts the
            // transaction, so later steps of that chunk may legitimately
            // report "without an open BEGIN" — also typed.
            let _ = match step {
                TxnStep::Begin => ldb.begin(),
                TxnStep::Commit => ldb.commit(),
                TxnStep::Rollback => ldb.rollback(),
                TxnStep::Savepoint(name) => ldb.savepoint(name),
                TxnStep::RollbackTo(name) => ldb.rollback_to(name),
                TxnStep::Update(update) => ldb.apply_update(update),
            };
        }
        if ldb.txn_active() {
            let _ = ldb.rollback();
        }
        assert!(ldb.database().is_consistent());
        let live = ldb.database().to_snapshot().unwrap();
        drop(ldb);
        let (recovered, report) =
            LoggedDatabase::open_with(disk as Arc<dyn WalStorage>, dir(), config())
                .unwrap_or_else(|e| panic!("soak round {fault_round}: recovery failed: {e}"));
        assert!(!report.damaged(), "soak round {fault_round}: {report:?}");
        assert!(!recovered.txn_active());
        assert!(recovered.database().is_consistent());
        assert_eq!(
            recovered.database().to_snapshot().unwrap(),
            live,
            "soak round {fault_round}: recovery disagrees with survivor state"
        );
    }
}

// ---------------------------------------------------------------------
// The checkpoint file: a crash at every byte of its install, damage to
// its bytes, and the JSON layout earlier versions wrote.

fn checkpoint_path() -> PathBuf {
    dir().join("checkpoint.snap")
}

#[test]
fn checkpoint_install_cut_at_every_byte() {
    // Checkpoints at records 24 and 48; the second is the one cut. Small
    // numbers keep the ~1,000 cut runs short, small segments make the
    // install prune several of them.
    let config = DurabilityConfig {
        sync_policy: SyncPolicy::Always,
        checkpoint_every: Some(24),
        segment_max_bytes: 1024,
    };
    let stream = workload();
    let k = 48usize;

    // Uncut run: the bytes on disk after each record up to k, the live
    // snapshot there, and the size of the checkpoint record k installs.
    let disk = Arc::new(SimDisk::new());
    let mut bounds: Vec<u64> = Vec::new();
    let mut snapshots: Vec<Vec<u8>> = vec![Vec::new()];
    let mut installed = 0;
    drive_with(&disk, config, &stream, |seq, ldb| {
        if seq as usize <= k {
            bounds.push(disk.total_written());
            snapshots.push(ldb.database().to_snapshot().unwrap());
            installed = disk.size_of(checkpoint_path()).unwrap_or(0);
        }
    });
    assert_eq!(bounds.len(), k, "the stream logged fewer than {k} records");
    let (lo, hi) = (bounds[k - 2], bounds[k - 1]);
    assert!(
        hi - lo > installed,
        "record {k} did not install the checkpoint"
    );
    let stats = Database::from_snapshot(&snapshots[k]).unwrap().stats();
    assert!(
        stats.ncs > 0 && stats.null_facts > 0,
        "the checkpointed state carries no partial information: {stats:?}"
    );

    let (mut pre, mut post, mut torn_tmp) = (0, 0, 0);
    for budget in lo + 1..=hi {
        let disk = Arc::new(SimDisk::new());
        disk.set_write_budget(Some(budget));
        drive_with(&disk, config, &stream, |_, _| {});
        assert!(disk.crashed(), "budget {budget} cut nothing");
        disk.revive();
        torn_tmp += usize::from(disk.is_file(&dir().join("checkpoint.tmp")));
        let (recovered, report) =
            LoggedDatabase::open_with(disk.clone() as Arc<dyn WalStorage>, dir(), config)
                .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));
        assert!(!report.damaged(), "budget {budget}: {report:?}");
        assert!(
            !disk.is_file(&dir().join("checkpoint.tmp")),
            "budget {budget}: stale checkpoint.tmp survived recovery"
        );
        // The record itself may be torn (state k-1); once it is whole,
        // the state is k whichever side of the install the cut fell on,
        // and only the view differs: the previous checkpoint plus its
        // log suffix, or the new checkpoint and nothing to replay.
        let seq = report.last_seq.expect("a checkpoint at least") as usize;
        assert!(seq == k - 1 || seq == k, "budget {budget}: seq {seq}");
        assert_eq!(
            recovered.database().to_snapshot().unwrap(),
            snapshots[seq],
            "budget {budget}: recovered state is not state {seq}"
        );
        match report.checkpoint_seq {
            Some(24) => {
                assert_eq!(report.applied, seq - 24, "budget {budget}");
                pre += 1;
            }
            Some(48) => {
                assert_eq!((report.applied, seq), (0, k), "budget {budget}");
                post += 1;
            }
            other => panic!("budget {budget}: recovered from checkpoint {other:?}"),
        }
    }
    assert!(
        torn_tmp as u64 >= installed && pre >= torn_tmp && post >= 8,
        "cuts missed a phase of the install: {torn_tmp} torn temp files, {pre} pre, {post} post"
    );
}

/// A small log directory with an installed checkpoint and no log tail;
/// returns the live snapshot.
fn checkpointed_directory(disk: &Arc<SimDisk>, tail: usize) -> Vec<u8> {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let config = DurabilityConfig {
        checkpoint_every: None,
        ..config()
    };
    let mut ldb = LoggedDatabase::create_with(storage, dir(), config).unwrap();
    for (name, dom, rng) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("pupil", "faculty", "student"),
    ] {
        ldb.declare(name, dom, rng, Functionality::ManyMany)
            .unwrap();
    }
    ldb.derive("pupil", &[("teach", false), ("class_list", false)])
        .unwrap();
    let v = |s: &str| Value::atom(s);
    ldb.insert("teach", v("euclid"), v("math")).unwrap();
    ldb.insert("class_list", v("math"), v("john")).unwrap();
    ldb.insert("class_list", v("math"), v("bill")).unwrap();
    ldb.delete("pupil", v("euclid"), v("john")).unwrap();
    ldb.insert("pupil", v("gauss"), v("bill")).unwrap();
    ldb.delete("class_list", v("math"), v("bill")).unwrap();
    ldb.checkpoint().unwrap();
    for i in 0..tail {
        ldb.insert("teach", v(&format!("t{i}")), v("logic"))
            .unwrap();
    }
    ldb.database().to_snapshot().unwrap()
}

#[test]
fn checkpoint_bit_flips_never_load_a_different_database() {
    let disk = Arc::new(SimDisk::new());
    let live = checkpointed_directory(&disk, 0);
    let open = || {
        LoggedDatabase::open_with(
            disk.clone() as Arc<dyn WalStorage>,
            dir(),
            DurabilityConfig::default(),
        )
    };
    let len = disk.size_of(checkpoint_path()).unwrap();
    for offset in 0..len {
        // One bit: in an atom, the flip that turns `euclid` into `duclid`.
        disk.corrupt(checkpoint_path(), offset, 0x01);
        match open() {
            Err(e) => {
                let e = e.to_string();
                assert!(e.contains("checkpoint.snap"), "offset {offset}: {e}");
                // Past the magic, the checksum is what catches it.
                assert!(
                    offset < 8 || e.contains("crc32 expected"),
                    "offset {offset}: {e}"
                );
            }
            // Loading is only ever acceptable if nothing changed.
            Ok((recovered, _)) => assert_eq!(
                recovered.database().to_snapshot().unwrap(),
                live,
                "flip at byte {offset} of {len} loaded a different database"
            ),
        }
        disk.corrupt(checkpoint_path(), offset, 0x01);
    }
    let (recovered, report) = open().unwrap();
    assert!(!report.damaged());
    assert_eq!(recovered.database().to_snapshot().unwrap(), live);
}

/// The `checkpoint.snap` a version before the binary layout installed
/// in `checkpointed_directory(_, 3)`: the database as a JSON document,
/// embedded as a string in a second one. Recorded with that database's
/// binary snapshot, and the directory's state after its three tail
/// records.
const JSON_CHECKPOINT: &str = include_str!("fixtures/legacy/crash_matrix_checkpoint.json");
const JSON_CHECKPOINT_STATE: &[u8] = include_bytes!("fixtures/legacy/crash_matrix_checkpoint.snap");
const JSON_CHECKPOINT_LIVE: &[u8] = include_bytes!("fixtures/legacy/crash_matrix_live.snap");

#[test]
fn checkpoint_in_the_json_layout_opens_seeds_and_upgrades() {
    let disk = Arc::new(SimDisk::new());
    let live = checkpointed_directory(&disk, 3);
    assert_eq!(live, JSON_CHECKPOINT_LIVE);
    let storage: Arc<dyn WalStorage> = disk.clone();

    // Replace the installed checkpoint by the JSON one of the same state.
    let info = read_checkpoint(storage.as_ref(), &dir()).unwrap().unwrap();
    assert_eq!(info.snapshot, JSON_CHECKPOINT_STATE);
    assert!(JSON_CHECKPOINT.starts_with(&format!("{{\"seq\":{},", info.seq)));
    disk.create(&checkpoint_path())
        .unwrap()
        .append(JSON_CHECKPOINT.as_bytes())
        .unwrap();

    // It opens to the same state…
    let config = DurabilityConfig {
        checkpoint_every: None,
        ..config()
    };
    let (mut ldb, report) = LoggedDatabase::open_with(storage.clone(), dir(), config).unwrap();
    assert!(!report.damaged(), "{report:?}");
    assert_eq!(report.checkpoint_seq, Some(info.seq));
    assert_eq!(report.applied, 3);
    assert_eq!(ldb.database().to_snapshot().unwrap(), live);

    // …ships as a seed a new replica accepts…
    let mut source = ReplicationSource::for_primary(&ldb);
    let mut replica = Replica::open(Arc::new(SimDisk::new()) as Arc<dyn WalStorage>, "/r").unwrap();
    let batch = source.poll(replica.next_seq(), 1024).unwrap();
    assert!(batch.seed.as_ref().is_some_and(|s| s.snapshot[0] == b'{'));
    assert!(matches!(
        replica.apply_batch(&batch).unwrap(),
        ApplyOutcome::Applied { .. }
    ));
    assert_eq!(
        replica.consistent_view().unwrap().to_snapshot().unwrap(),
        live
    );

    // …and the next checkpoint rewrites the file in the binary layout.
    ldb.checkpoint().unwrap();
    drop(ldb);
    assert!(disk
        .read(&checkpoint_path())
        .unwrap()
        .starts_with(b"FDBCKPT2"));
    let (reopened, report) = LoggedDatabase::open_with(storage, dir(), config).unwrap();
    assert_eq!(report.applied, 0);
    assert_eq!(reopened.database().to_snapshot().unwrap(), live);
}

/// Opens the directory `checkpointed_directory(_, 3)` left, with its
/// checkpoint replaced by `bytes`.
fn open_with_checkpoint(bytes: &[u8]) -> fdb_types::Result<LoggedDatabase> {
    let disk = Arc::new(SimDisk::new());
    checkpointed_directory(&disk, 3);
    disk.create(&checkpoint_path())
        .unwrap()
        .append(bytes)
        .unwrap();
    let storage: Arc<dyn WalStorage> = disk;
    LoggedDatabase::open_with(storage, dir(), DurabilityConfig::default()).map(|(ldb, _)| ldb)
}

/// A legacy JSON checkpoint carries no checksum, so an edited NCL id
/// reaches the snapshot reader, which refuses the NC/NCL duality break:
/// the open fails as it does on a checksum mismatch.
#[test]
fn json_checkpoint_with_an_edited_ncl_is_refused_as_corrupt() {
    assert!(open_with_checkpoint(JSON_CHECKPOINT.as_bytes()).is_ok());
    let edited = JSON_CHECKPOINT.replacen(r#"\"ncl\":[1]"#, r#"\"ncl\":[2]"#, 1);
    assert_ne!(edited, JSON_CHECKPOINT);
    let err = open_with_checkpoint(edited.as_bytes())
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("checkpoint.snap") && err.contains("corrupt:") && err.contains("duality"),
        "{err}"
    );
}

/// A binary checkpoint whose snapshot was edited and re-sealed — both
/// checksums recomputed — so that an NCL entry names no NC is refused
/// the same way (`snapshot::tests` covers the other impossible states).
#[test]
fn resealed_binary_checkpoint_with_an_edited_ncl_is_refused_as_corrupt() {
    let disk = Arc::new(SimDisk::new());
    checkpointed_directory(&disk, 3);
    let info = read_checkpoint(disk.as_ref(), &dir()).unwrap().unwrap();
    // The row `teach(euclid, math)`: two atoms, flags 0b011 (ambiguous,
    // alive), an NCL of one id, g1 — made g2.
    let row = [&[0, 6][..], b"euclid", &[0, 4], b"math", &[0b011, 1, 1]].concat();
    let at = info
        .snapshot
        .windows(row.len())
        .position(|w| w == row.as_slice())
        .expect("the row is in the snapshot");
    let mut snapshot = info.snapshot.clone();
    snapshot[at + row.len() - 1] = 2;
    let body = snapshot.len() - 4;
    let crc = fdb_core::wal::crc32(&snapshot[..body]);
    snapshot[body..].copy_from_slice(&crc.to_le_bytes());
    install_checkpoint(disk.as_ref(), &dir(), &CheckpointInfo { snapshot, ..info }).unwrap();
    let storage: Arc<dyn WalStorage> = disk;
    let err = LoggedDatabase::open_with(storage, dir(), DurabilityConfig::default())
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(err.contains("corrupt:") && err.contains("duality"), "{err}");
}

// ---------------------------------------------------------------------
// A segment an earlier version began: frames with JSON payloads, which
// this version continues with binary ones instead of refusing or
// rewriting them.

/// Durability settings under which everything below stays in one
/// segment and no checkpoint replaces it.
fn one_segment() -> DurabilityConfig {
    DurabilityConfig {
        sync_policy: SyncPolicy::Always,
        checkpoint_every: None,
        segment_max_bytes: 1 << 20,
    }
}

fn first_segment() -> PathBuf {
    dir().join("wal-0000000001.seg")
}

/// Writes the log directory a version with JSON record payloads left
/// behind: the triangle, partial information, a committed transaction
/// with a partial rollback, an aborted one and a term change — logged by
/// this version, then every frame's payload replaced by the record's JSON
/// through its serde derive and re-sealed under the same sequence
/// number. Returns the state the log holds.
fn json_payload_directory(disk: &Arc<SimDisk>) -> Vec<u8> {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = LoggedDatabase::create_with(storage, dir(), one_segment()).unwrap();
    for (name, dom, rng) in [
        ("teach", "faculty", "course"),
        ("class_list", "course", "student"),
        ("pupil", "faculty", "student"),
    ] {
        ldb.declare(name, dom, rng, Functionality::ManyMany)
            .unwrap();
    }
    ldb.derive("pupil", &[("teach", false), ("class_list", false)])
        .unwrap();
    let v = |s: &str| Value::atom(s);
    ldb.insert("teach", v("euclid"), v("math")).unwrap();
    ldb.insert("class_list", v("math"), v("john")).unwrap();
    ldb.delete("pupil", v("euclid"), v("john")).unwrap();
    ldb.insert("pupil", v("gauss"), v("bill")).unwrap();
    ldb.begin().unwrap();
    ldb.insert("teach", v("laplace"), v("physics")).unwrap();
    ldb.savepoint("sp").unwrap();
    ldb.insert("class_list", v("physics"), v("ann")).unwrap();
    ldb.rollback_to("sp").unwrap();
    ldb.commit().unwrap();
    ldb.begin().unwrap();
    ldb.insert("teach", v("noether"), v("algebra")).unwrap();
    ldb.rollback().unwrap();
    ldb.start_term(2).unwrap();
    let live = ldb.database().to_snapshot().unwrap();
    drop(ldb);

    let binary = scan(&disk.read(&first_segment()).unwrap(), 1);
    assert!(binary.flaw.is_none() && binary.skipped == 0);
    let mut json = WAL_MAGIC.to_vec();
    for (seq, record) in &binary.records {
        let payload = serde_json::to_string(record).unwrap();
        let payload = payload.as_bytes();
        json.extend_from_slice(&raw_frame(*seq, frame_crc(*seq, payload), payload));
    }
    disk.create(&first_segment())
        .unwrap()
        .append(&json)
        .unwrap();
    live
}

/// What this version appends to that segment: derived consequences on
/// the old rows, then a derived delete. Stops at the first failed write,
/// as a crashed writer does.
fn continue_in_binary(ldb: &mut LoggedDatabase, mut after: impl FnMut(&LoggedDatabase)) {
    let v = |s: &str| Value::atom(s);
    for i in 0..4 {
        if ldb.insert("teach", v(&format!("t{i}")), v("math")).is_err() {
            return;
        }
        after(ldb);
    }
    if ldb.delete("pupil", v("t0"), v("john")).is_ok() {
        after(ldb);
    }
}

#[test]
fn json_payload_segment_continues_in_binary_recovers_and_ships() {
    let disk = Arc::new(SimDisk::new());
    let storage: Arc<dyn WalStorage> = disk.clone();
    let at_open = json_payload_directory(&disk);
    let json_bytes = disk.read(&first_segment()).unwrap();

    // The old directory opens to its state and its segment continues in
    // binary, the JSON frames before it left as they are.
    let (mut ldb, report) =
        LoggedDatabase::open_with(storage.clone(), dir(), one_segment()).unwrap();
    assert!(!report.damaged(), "{report:?}");
    assert_eq!(ldb.term(), 2);
    assert_eq!(ldb.database().to_snapshot().unwrap(), at_open);
    let json_seq = ldb.last_seq();
    let mut bounds = vec![disk.total_written()];
    let mut states = vec![at_open];
    continue_in_binary(&mut ldb, |ldb| {
        bounds.push(disk.total_written());
        states.push(ldb.database().to_snapshot().unwrap());
    });
    assert_eq!(states.len(), 6);
    let live = ldb.database().to_snapshot().unwrap();
    drop(ldb);
    let mixed = disk.read(&first_segment()).unwrap();
    assert!(mixed.starts_with(&json_bytes));
    let kinds: BTreeSet<u8> = Frames::segment(&mixed, 1).map(|f| f.payload[0]).collect();
    assert_eq!(kinds, BTreeSet::from([0x01, b'{']));
    let (recovered, report) =
        LoggedDatabase::open_with(storage.clone(), dir(), one_segment()).unwrap();
    assert!(report.corruption.is_empty(), "{report:?}");
    assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    drop(recovered);

    // A crash at every byte of the continuation recovers the state after
    // the binary records that landed whole.
    let last = *bounds.last().unwrap();
    for budget in bounds[0] + 1..=last {
        let disk = Arc::new(SimDisk::new());
        let storage: Arc<dyn WalStorage> = disk.clone();
        json_payload_directory(&disk);
        let (mut ldb, _) =
            LoggedDatabase::open_with(storage.clone(), dir(), one_segment()).unwrap();
        disk.set_write_budget(Some(budget));
        continue_in_binary(&mut ldb, |_| {});
        drop(ldb);
        disk.revive();
        let (recovered, report) = LoggedDatabase::open_with(storage, dir(), one_segment())
            .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));
        assert!(!report.damaged(), "budget {budget}: {report:?}");
        let k = (report.last_seq.unwrap() - json_seq) as usize;
        assert!(
            bounds[k] <= budget && bounds.get(k + 1).is_none_or(|&b| budget < b),
            "budget {budget} recovered {k} binary records of {bounds:?}"
        );
        assert_eq!(
            recovered.database().to_snapshot().unwrap(),
            states[k],
            "budget {budget}"
        );
    }

    // The mixed frames ship as they are: a fresh replica accepts them,
    // adopts the term a JSON frame carries, serves the primary's state
    // and stores the primary's bytes.
    let mut source = ReplicationSource::new(storage, dir()).unwrap();
    assert_eq!(source.term(), 2);
    let replica_disk = Arc::new(SimDisk::new());
    let mut replica = Replica::open(replica_disk.clone() as Arc<dyn WalStorage>, "/r").unwrap();
    loop {
        let batch = source.poll(replica.next_seq(), 8).unwrap();
        if batch.is_empty() {
            break;
        }
        assert!(matches!(
            replica.apply_batch(&batch).unwrap(),
            ApplyOutcome::Applied { .. }
        ));
    }
    assert_eq!(replica.term(), 2);
    assert_eq!(
        replica.consistent_view().unwrap().to_snapshot().unwrap(),
        live
    );
    assert_eq!(
        replica_disk
            .read(&PathBuf::from("/r/wal-0000000001.seg"))
            .unwrap(),
        mixed
    );
}
