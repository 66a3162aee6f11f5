//! MVCC read-scaling bench: reader throughput at 1/2/4/8 threads with a
//! concurrent writer, the shared handle's snapshot path vs two lock
//! strawmen, written to `BENCH_mvcc.json` (CI's bench-smoke job
//! regenerates it, and annotates the run when `gates_enforced` is false).
//!
//! ```sh
//! cargo run -p fdb-bench --bin mvcc_scaling --release
//! ```
//!
//! Three arms run the identical derived-truth query workload against the
//! identical store while one writer mutates continuously:
//!
//! * **snapshot** — `SharedDatabase::pin()` per query and writes through
//!   `SharedDatabase::write`, the only arm that is a handle of this
//!   repo: no lock on the read side, reads never wait for the writer.
//! * **rwlock** — a plain `std::sync::RwLock<Database>`, not a handle:
//!   what reads cost if they took a shared guard (the shape the shared
//!   handle had before snapshots) — readers share, but stall whenever
//!   the writer holds or wants the exclusive lock.
//! * **mutex** — a plain `std::sync::Mutex<Database>`, not a handle:
//!   every read fully serialised with the writer.
//!
//! Gates are enforced only when the machine has enough cores to make
//! scaling physically possible (≥ 5: four readers plus the writer);
//! below that the numbers are recorded as advisory. With cores, the
//! snapshot path must scale ≥ 2x from 1→4 reader threads and beat the
//! mutex path ≥ 1.3x at 4 threads.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use fdb_core::{Database, SharedDatabase};
use fdb_types::{Derivation, FunctionId, Schema, Step, Value};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MEASURE: Duration = Duration::from_millis(250);
const SCALING_FLOOR: f64 = 2.0;
const CONTENTION_FLOOR: f64 = 1.3;
const DOMAIN: u32 = 24;

fn v(s: impl std::fmt::Display) -> Value {
    Value::atom(s.to_string())
}

/// The pupil triangle, pre-populated so derived truth queries walk real
/// chains.
fn university() -> (Database, FunctionId, FunctionId) {
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .function("pupil", "faculty", "student", "many-many")
        .build()
        .expect("static schema is valid");
    let mut db = Database::new(schema);
    let (t, c, p) = (
        db.resolve("teach").expect("teach"),
        db.resolve("class_list").expect("class_list"),
        db.resolve("pupil").expect("pupil"),
    );
    db.register_derived(
        p,
        vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).expect("valid")],
    )
    .expect("derivable");
    for i in 0..DOMAIN {
        db.insert(t, v(format!("f{i}")), v(format!("c{}", i % 8)))
            .expect("seed teach");
        db.insert(c, v(format!("c{}", i % 8)), v(format!("s{i}")))
            .expect("seed class_list");
    }
    (db, t, p)
}

/// A tiny deterministic generator for the query mix (no allocation, no
/// shared state in the hot loop).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// One derived truth query against whatever view `db` is.
fn query(db: &Database, pupil: FunctionId, rng: &mut Lcg) {
    let x = v(format!("f{}", rng.next() as u32 % DOMAIN));
    let y = v(format!("s{}", rng.next() as u32 % DOMAIN));
    let _ = db.truth(pupil, &x, &y);
}

/// One writer round: toggle a fact so the store churns but stays the
/// same size (every write bumps versions and invalidates chains).
fn churn(db: &mut Database, teach: FunctionId, rng: &mut Lcg) {
    let x = v(format!("w{}", rng.next() as u32 % 8));
    let y = v("cw");
    if db
        .truth(teach, &x, &y)
        .map(|t| t == fdb_storage::Truth::True)
        .unwrap_or(false)
    {
        let _ = db.delete(teach, &x, &y);
    } else {
        let _ = db.insert(teach, x, y);
    }
}

/// Runs `readers` query threads plus one writer for the measurement
/// window; returns aggregate reads/sec. `read_op`/`write_op` capture the
/// arm's locking discipline.
fn run_arm(
    readers: usize,
    read_op: &(dyn Fn(&mut Lcg) + Sync),
    write_op: &(dyn Fn(&mut Lcg) + Sync),
) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for r in 0..readers {
            let stop = &stop;
            let total = &total;
            s.spawn(move || {
                let mut rng = Lcg(0x5EED ^ (r as u64 + 1));
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    read_op(&mut rng);
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        let stop = &stop;
        s.spawn(move || {
            let mut rng = Lcg(0xBAD_CAFE);
            while !stop.load(Ordering::Relaxed) {
                write_op(&mut rng);
            }
        });
        std::thread::sleep(MEASURE);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let enforce = cores >= 5;

    let mut snapshot_tp = Vec::new();
    let mut rwlock_tp = Vec::new();
    let mut mutex_tp = Vec::new();

    for &threads in &THREAD_COUNTS {
        // Snapshot path: pin per query, writes through the shared handle.
        {
            let (db, teach, pupil) = university();
            let shared = SharedDatabase::new(db);
            let h = shared.clone();
            let read = move |rng: &mut Lcg| {
                let pin = h.pin();
                query(&pin, pupil, rng);
            };
            let h = shared.clone();
            let write = move |rng: &mut Lcg| {
                let _ = h.with(|db| churn(db, teach, rng));
            };
            snapshot_tp.push(run_arm(threads, &read, &write));
        }
        // RwLock strawman: shared read guards, exclusive writer.
        {
            let (db, teach, pupil) = university();
            let lock = Arc::new(RwLock::new(db));
            let h = Arc::clone(&lock);
            let read = move |rng: &mut Lcg| {
                let g = h.read().expect("not poisoned");
                query(&g, pupil, rng);
            };
            let h = Arc::clone(&lock);
            let write = move |rng: &mut Lcg| {
                let mut g = h.write().expect("not poisoned");
                churn(&mut g, teach, rng);
            };
            rwlock_tp.push(run_arm(threads, &read, &write));
        }
        // Mutex strawman: every access serialised.
        {
            let (db, teach, pupil) = university();
            let lock = Arc::new(Mutex::new(db));
            let h = Arc::clone(&lock);
            let read = move |rng: &mut Lcg| {
                let g = h.lock().expect("not poisoned");
                query(&g, pupil, rng);
            };
            let h = Arc::clone(&lock);
            let write = move |rng: &mut Lcg| {
                let mut g = h.lock().expect("not poisoned");
                churn(&mut g, teach, rng);
            };
            mutex_tp.push(run_arm(threads, &read, &write));
        }
    }

    let at =
        |tps: &[f64], n: usize| tps[THREAD_COUNTS.iter().position(|&t| t == n).expect("config")];
    let scaling = at(&snapshot_tp, 4) / at(&snapshot_tp, 1).max(1e-9);
    let mutex_scaling = at(&mutex_tp, 4) / at(&mutex_tp, 1).max(1e-9);
    let contention_win = at(&snapshot_tp, 4) / at(&mutex_tp, 4).max(1e-9);

    println!("mvcc read scaling, {cores} cores, one churning writer throughout:");
    println!("  threads   snapshot      rwlock       mutex   (reads/sec)");
    for (i, &t) in THREAD_COUNTS.iter().enumerate() {
        println!(
            "  {t:>7} {:>10.0} {:>11.0} {:>11.0}",
            snapshot_tp[i], rwlock_tp[i], mutex_tp[i]
        );
    }
    println!(
        "  snapshot 1->4 scaling {scaling:.2}x (mutex {mutex_scaling:.2}x), snapshot vs mutex at 4 threads {contention_win:.2}x"
    );

    let fmt_list = |tps: &[f64]| {
        tps.iter()
            .map(|t| format!("{t:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = String::from(
        "{\n  \"workload\": \"derived pupil truth queries (chain search) at 1/2/4/8 reader threads while one writer churns base facts; snapshot pins vs the pre-MVCC RwLock and Mutex read paths\",\n",
    );
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"reader_threads\": [1, 2, 4, 8],");
    let _ = writeln!(
        json,
        "  \"snapshot_reads_per_sec\": [{}],",
        fmt_list(&snapshot_tp)
    );
    let _ = writeln!(
        json,
        "  \"rwlock_reads_per_sec\": [{}],",
        fmt_list(&rwlock_tp)
    );
    let _ = writeln!(
        json,
        "  \"mutex_reads_per_sec\": [{}],",
        fmt_list(&mutex_tp)
    );
    let _ = writeln!(json, "  \"snapshot_scaling_1_to_4\": {scaling:.2},");
    let _ = writeln!(json, "  \"mutex_scaling_1_to_4\": {mutex_scaling:.2},");
    let _ = writeln!(json, "  \"snapshot_vs_mutex_at_4\": {contention_win:.2},");
    let _ = writeln!(json, "  \"scaling_floor\": {SCALING_FLOOR},");
    let _ = writeln!(json, "  \"contention_floor\": {CONTENTION_FLOOR},");
    let _ = writeln!(json, "  \"gates_enforced\": {enforce}");
    json.push_str("}\n");
    std::fs::write("BENCH_mvcc.json", &json).expect("write BENCH_mvcc.json");
    println!("wrote BENCH_mvcc.json");

    if !enforce {
        println!("gates advisory: {cores} core(s) cannot demonstrate 4-thread scaling (need >= 5)");
        return;
    }
    let mut failed = false;
    if scaling < SCALING_FLOOR {
        eprintln!(
            "FAIL: snapshot read scaling 1->4 threads {scaling:.2}x is below the {SCALING_FLOOR}x floor"
        );
        failed = true;
    }
    if contention_win < CONTENTION_FLOOR {
        eprintln!(
            "FAIL: snapshot path {contention_win:.2}x vs mutex at 4 threads is below the {CONTENTION_FLOOR}x floor"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
