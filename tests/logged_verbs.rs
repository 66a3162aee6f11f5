//! Golden trace of every `LoggedDatabase` verb on a `SimDisk`.
//!
//! One script calls `declare`, `derive`, `insert`, `delete`, `replace`,
//! `apply_update`, the transaction verbs (misuse included), `start_term`,
//! `checkpoint` and the shared handle's `insert`/`delete` (the grouped
//! path), once under each `SyncPolicy`. Segments are small enough to rotate
//! mid-script and checkpoints also fire on their own. After every call the
//! transcript records the outcome, the disk's fsync count, the last
//! sequence number and the checkpoint's; at the end, the length and CRC-32
//! of every file on the disk, and whether recovery equals the live state.
//!
//! A second part injects one fault into each frame verb — a write cut
//! inside its record, or a failed fsync — and records the error kind,
//! whether a frame is still open, the counters, and that recovery equals
//! the live state.
//!
//! The transcript must equal `tests/scripts/logged_verbs.golden` byte for
//! byte. A failing run writes the actual transcript to
//! `$TMPDIR/logged_verbs.actual` and lists the lines that moved.

use std::fmt::Write as _;
use std::sync::Arc;

use fdb_core::wal::crc32;
use fdb_core::{
    DurabilityConfig, LoggedDatabase, SharedLoggedDatabase, SimDisk, SyncPolicy, Update, WalStorage,
};
use fdb_types::{FdbError, Functionality, Result, Value};

const DIR: &str = "/golden_db";
const GOLDEN: &str = include_str!("scripts/logged_verbs.golden");

fn v(s: &str) -> Value {
    Value::atom(s)
}

fn config(sync_policy: SyncPolicy) -> DurabilityConfig {
    DurabilityConfig {
        sync_policy,
        checkpoint_every: Some(8),
        segment_max_bytes: 160,
    }
}

/// The error's variant name; a `TxnAborted` also names its cause's.
fn kind(e: &FdbError) -> String {
    let name = |e: &FdbError| {
        format!("{e:?}")
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect::<String>()
    };
    match e {
        FdbError::TxnAborted { cause, .. } => format!("TxnAborted({})", name(cause)),
        other => name(other),
    }
}

fn outcome(r: &Result<()>) -> String {
    match r {
        Ok(()) => "ok".to_owned(),
        Err(e) => format!("err {}", kind(e)),
    }
}

/// `(last_seq, checkpoint_seq)`.
fn seqs(ldb: &LoggedDatabase) -> (u64, u64) {
    (ldb.last_seq(), ldb.checkpoint_seq())
}

/// Appends the length and CRC-32 of every file on the disk.
fn files(disk: &SimDisk, out: &mut String) {
    for path in disk.paths() {
        let bytes = disk.read(&path).unwrap();
        writeln!(
            out,
            "  {} len={} crc={:08x}",
            path.display(),
            bytes.len(),
            crc32(&bytes)
        )
        .unwrap();
    }
}

/// Drops `ldb` (a crash: nothing is closed), revives the disk and says
/// whether recovery reproduces `live` with no frame left open.
fn recovers_to(disk: &Arc<SimDisk>, ldb: LoggedDatabase, config: DurabilityConfig) -> bool {
    let live = ldb.database().to_snapshot().unwrap();
    drop(ldb);
    disk.revive();
    let storage: Arc<dyn WalStorage> = disk.clone();
    let (recovered, _) = LoggedDatabase::open_with(storage, DIR, config).unwrap();
    !recovered.txn_active() && recovered.database().to_snapshot().unwrap() == live
}

/// The script's transcript.
struct Trace<'a> {
    disk: Arc<SimDisk>,
    out: &'a mut String,
}

impl Trace<'_> {
    /// One call: its outcome and the counters it may move.
    fn step(&mut self, label: &str, r: Result<()>, (seq, ckpt): (u64, u64)) {
        writeln!(
            self.out,
            "  {label:<28} {:<28} syncs={} seq={seq} ckpt={ckpt}",
            outcome(&r),
            self.disk.syncs()
        )
        .unwrap();
    }

    fn files(&mut self) {
        files(&self.disk, self.out);
    }
}

fn script(policy: SyncPolicy, out: &mut String) {
    let disk = Arc::new(SimDisk::new());
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = LoggedDatabase::create_with(storage, DIR, config(policy)).unwrap();
    let mut t = Trace {
        disk: disk.clone(),
        out,
    };
    let many = Functionality::ManyMany;
    t.step(
        "declare teach",
        ldb.declare("teach", "faculty", "course", many),
        seqs(&ldb),
    );
    t.step(
        "declare class_list",
        ldb.declare("class_list", "course", "student", many),
        seqs(&ldb),
    );
    t.step(
        "declare pupil",
        ldb.declare("pupil", "faculty", "student", many),
        seqs(&ldb),
    );
    t.step(
        "derive pupil",
        ldb.derive("pupil", &[("teach", false), ("class_list", false)]),
        seqs(&ldb),
    );
    t.step(
        "insert teach",
        ldb.insert("teach", v("euclid"), v("math")),
        seqs(&ldb),
    );
    t.step(
        "insert class_list",
        ldb.insert("class_list", v("math"), v("john")),
        seqs(&ldb),
    );
    t.step(
        "insert class_list",
        ldb.insert("class_list", v("math"), v("bill")),
        seqs(&ldb),
    );
    t.step(
        "delete pupil",
        ldb.delete("pupil", v("euclid"), v("john")),
        seqs(&ldb),
    );
    t.step(
        "insert pupil",
        ldb.insert("pupil", v("gauss"), v("bill")),
        seqs(&ldb),
    );
    t.step(
        "replace teach",
        ldb.replace(
            "teach",
            (v("euclid"), v("math")),
            (v("euclid"), v("geometry")),
        ),
        seqs(&ldb),
    );
    let teach = ldb.database().resolve("teach").unwrap();
    t.step(
        "apply_update insert",
        ldb.apply_update(&Update::Insert {
            function: teach,
            x: v("noether"),
            y: v("rings"),
        }),
        seqs(&ldb),
    );
    t.step(
        "insert ghost",
        ldb.insert("ghost", v("x"), v("y")),
        seqs(&ldb),
    );
    t.step("commit (no frame)", ldb.commit(), seqs(&ldb));
    t.step("rollback (no frame)", ldb.rollback(), seqs(&ldb));
    t.step("savepoint (no frame)", ldb.savepoint("s0"), seqs(&ldb));
    t.step("rollback_to (no frame)", ldb.rollback_to("s0"), seqs(&ldb));

    t.step("begin", ldb.begin(), seqs(&ldb));
    t.step("begin (nested)", ldb.begin(), seqs(&ldb));
    t.step(
        "insert teach",
        ldb.insert("teach", v("hilbert"), v("logic")),
        seqs(&ldb),
    );
    t.step("savepoint s1", ldb.savepoint("s1"), seqs(&ldb));
    t.step(
        "insert class_list",
        ldb.insert("class_list", v("logic"), v("kurt")),
        seqs(&ldb),
    );
    t.step(
        "declare proves",
        ldb.declare("proves", "faculty", "theorem", many),
        seqs(&ldb),
    );
    t.step("rollback_to s1", ldb.rollback_to("s1"), seqs(&ldb));
    t.step("rollback_to ghost", ldb.rollback_to("ghost"), seqs(&ldb));
    t.step("checkpoint (in frame)", ldb.checkpoint(), seqs(&ldb));
    t.step("start_term 2 (in frame)", ldb.start_term(2), seqs(&ldb));
    t.step(
        "insert class_list",
        ldb.insert("class_list", v("logic"), v("emmy")),
        seqs(&ldb),
    );
    t.step(
        "insert pupil",
        ldb.insert("pupil", v("hilbert"), v("olga")),
        seqs(&ldb),
    );
    t.step("commit", ldb.commit(), seqs(&ldb));

    t.step("begin", ldb.begin(), seqs(&ldb));
    t.step(
        "insert teach",
        ldb.insert("teach", v("frege"), v("logic")),
        seqs(&ldb),
    );
    t.step(
        "delete teach",
        ldb.delete("teach", v("noether"), v("rings")),
        seqs(&ldb),
    );
    t.step("rollback", ldb.rollback(), seqs(&ldb));

    t.step("start_term 2", ldb.start_term(2), seqs(&ldb));
    t.step("start_term 1 (stale)", ldb.start_term(1), seqs(&ldb));
    t.step(
        "insert teach",
        ldb.insert("teach", v("cantor"), v("sets")),
        seqs(&ldb),
    );
    // The segments since the last checkpoint: where they rotated, and
    // the frames and markers they hold.
    t.files();
    t.step("checkpoint", ldb.checkpoint(), seqs(&ldb));
    t.step(
        "apply_update delete",
        ldb.apply_update(&Update::Delete {
            function: teach,
            x: v("noether"),
            y: v("rings"),
        }),
        seqs(&ldb),
    );
    t.step(
        "apply_update replace",
        ldb.apply_update(&Update::Replace {
            function: teach,
            old: (v("cantor"), v("sets")),
            new: (v("cantor"), v("infinity")),
        }),
        seqs(&ldb),
    );

    // The shared handle: grouped under `Always`, plain otherwise.
    let shared = SharedLoggedDatabase::new(ldb);
    let at = |s: &SharedLoggedDatabase| s.with(|l| seqs(l)).unwrap();
    for (x, y) in [
        ("riemann", "analysis"),
        ("dedekind", "algebra"),
        ("galois", "groups"),
        ("abel", "series"),
        ("jacobi", "elliptic"),
    ] {
        t.step(
            "shared insert",
            shared.insert("teach", v(x), v(y)),
            at(&shared),
        );
    }
    t.files();
    t.step("shared begin", shared.begin(), at(&shared));
    t.step(
        "shared insert (in frame)",
        shared.insert("teach", v("klein"), v("geometry")),
        at(&shared),
    );
    t.step("shared commit", shared.commit(), at(&shared));
    t.step(
        "shared delete",
        shared.delete("teach", v("abel"), v("series")),
        at(&shared),
    );
    let ldb = shared.try_unwrap().expect("last handle");
    writeln!(t.out, "  term={}", ldb.term()).unwrap();
    let recovered = recovers_to(&disk, ldb, config(policy));
    t.files();
    writeln!(t.out, "  recovery == live: {recovered}").unwrap();
}

/// What goes wrong at the faulted call.
enum Fault {
    /// The disk accepts three more bytes, then crashes: a torn record.
    Torn,
    /// The next fsync fails; the disk stays up.
    Fsync,
}

/// One frame verb under one fault: `setup` runs cleanly, then `call`
/// runs with the fault armed; `close` runs after it (to end a frame the
/// fault left open), then the image is recovered.
fn fault_case(
    out: &mut String,
    label: &str,
    fault: Fault,
    setup: impl FnOnce(&mut LoggedDatabase) -> Result<()>,
    call: impl FnOnce(&mut LoggedDatabase) -> Result<()>,
    close: impl FnOnce(&mut LoggedDatabase) -> Result<()>,
) {
    let config = config(SyncPolicy::Always);
    let disk = Arc::new(SimDisk::new());
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = LoggedDatabase::create_with(storage, DIR, config).unwrap();
    ldb.declare("f", "a", "b", Functionality::ManyMany).unwrap();
    ldb.insert("f", v("x0"), v("y0")).unwrap();
    setup(&mut ldb).unwrap();
    match fault {
        Fault::Torn => disk.set_write_budget(Some(disk.total_written() + 3)),
        Fault::Fsync => disk.fail_sync(1),
    }
    let r = call(&mut ldb);
    let open = ldb.txn_active();
    let closed = close(&mut ldb);
    writeln!(
        out,
        "  {label:<30} {:<28} txn_active={open} close={} syncs={} seq={} term={}",
        outcome(&r),
        outcome(&closed),
        disk.syncs(),
        ldb.last_seq(),
        ldb.term()
    )
    .unwrap();
    let recovered = recovers_to(&disk, ldb, config);
    writeln!(out, "    recovery == live: {recovered}").unwrap();
}

fn faults(out: &mut String) {
    let ok = |_: &mut LoggedDatabase| Ok(());
    let begin = |l: &mut LoggedDatabase| l.begin();
    let begin_insert = |l: &mut LoggedDatabase| {
        l.begin()?;
        l.insert("f", v("x1"), v("y1"))
    };
    let close = |l: &mut LoggedDatabase| {
        if l.txn_active() {
            l.commit()
        } else {
            Ok(())
        }
    };
    fault_case(out, "begin / torn", Fault::Torn, ok, begin, close);
    fault_case(
        out,
        "savepoint / torn",
        Fault::Torn,
        begin_insert,
        |l| l.savepoint("s"),
        close,
    );
    fault_case(
        out,
        "rollback_to / torn",
        Fault::Torn,
        |l| {
            begin_insert(l)?;
            l.savepoint("s")?;
            l.insert("f", v("x2"), v("y2"))
        },
        |l| l.rollback_to("s"),
        close,
    );
    fault_case(
        out,
        "commit / torn",
        Fault::Torn,
        begin_insert,
        LoggedDatabase::commit,
        close,
    );
    fault_case(
        out,
        "commit / fsync",
        Fault::Fsync,
        begin_insert,
        LoggedDatabase::commit,
        close,
    );
    fault_case(
        out,
        "insert in frame / torn",
        Fault::Torn,
        begin,
        |l| l.insert("f", v("x1"), v("y1")),
        close,
    );
    fault_case(
        out,
        "insert in frame / fsync",
        Fault::Fsync,
        begin,
        |l| l.insert("f", v("x1"), v("y1")),
        close,
    );
    fault_case(
        out,
        "rollback / torn",
        Fault::Torn,
        begin_insert,
        LoggedDatabase::rollback,
        close,
    );
    fault_case(
        out,
        "start_term / fsync",
        Fault::Fsync,
        ok,
        |l| l.start_term(2),
        close,
    );
}

#[test]
fn every_logged_verb_matches_the_golden() {
    let mut out = String::new();
    for (name, policy) in [
        ("Always", SyncPolicy::Always),
        ("EveryN(3)", SyncPolicy::EveryN(3)),
        ("OnCheckpoint", SyncPolicy::OnCheckpoint),
    ] {
        writeln!(out, "== script under {name}").unwrap();
        script(policy, &mut out);
    }
    writeln!(out, "== one fault per frame verb, under Always").unwrap();
    faults(&mut out);
    if out == GOLDEN {
        return;
    }
    let actual = std::env::temp_dir().join("logged_verbs.actual");
    std::fs::write(&actual, &out).unwrap();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = out.lines().collect();
    let mut moved = String::new();
    for i in 0..golden.len().max(got.len()) {
        let (g, a) = (golden.get(i), got.get(i));
        if g != a {
            writeln!(moved, "line {}:\n-  {:?}\n+  {:?}", i + 1, g, a).unwrap();
        }
    }
    panic!(
        "transcript differs from the golden (actual written to {}):\n{moved}",
        actual.display()
    );
}
