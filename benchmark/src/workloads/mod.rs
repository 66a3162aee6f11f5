//! The four workloads and what they share: the trait the runner drives,
//! the correctness sample, and the layer probes of the traced run.

use std::sync::Arc;

use fdb::core::wal::encode_frame;
use fdb::core::{Database, LogRecord, SimDisk, Wal, WalStorage};
use fdb::exec::{Bind, QuerySpec};
use fdb::storage::{ChainLimits, Store, Truth};
use fdb::types::{Derivation, FunctionId, Value};

use crate::gen::{Fun, Op};
use crate::harness::{Hist, Round};
use crate::trace::{Sp, Tracer};

pub mod churn;
pub mod durable;
pub mod engine;

/// One workload: inputs made from the seed, a state built through the
/// workload's own surface, and rounds that replay the script on it.
pub trait Workload {
    type State;

    fn ops_per_round(&self) -> usize;

    /// Builds the initial state through the surface the workload measures
    /// (this is what `setup_s` times).
    fn setup(&self) -> Self::State;

    /// Replays the script once, timing every operation. With `check`, the
    /// sampled `TRUTH` operations are also recomputed by the reference
    /// interpreter; such a round is not used for timing.
    fn round(&self, st: &mut Self::State, check: Option<&mut Check>) -> Round;

    /// Replays the script once, decomposed into spans and layer probes;
    /// returns the nanoseconds from the first operation to the last,
    /// probes included.
    fn traced_round(&self, st: &mut Self::State, tr: &mut Tracer, p: &mut Probes) -> u64;

    /// The database behind the state, as it is now.
    fn database(&self, st: &Self::State) -> Database;

    /// Checks made once after the last round (recovery, replication).
    fn finish(&self, _st: Self::State, _tail: &mut Tail) {}
}

/// Share of `TRUTH` operations the verification pass recomputes.
pub const CHECK_ONE_IN: u32 = 100;

/// Outcome of the reference-interpreter sample.
#[derive(Default)]
pub struct Check {
    pub sampled: u64,
    pub mismatches: u64,
}

impl Check {
    /// Compares `got` with the reference interpreter's verdict on `db`.
    pub fn truth(&mut self, db: &Database, f: FunctionId, x: &Value, y: &Value, got: Truth) {
        let want = fdb::storage::chain::derived_truth(
            db.store(),
            db.derivations(f),
            x,
            y,
            db.chain_limits(),
        );
        self.sampled += 1;
        if want != got {
            self.mismatches += 1;
        }
    }
}

/// What `finish` found and measured after the last round.
#[derive(Default)]
pub struct Tail {
    pub failures: u64,
    pub recovery_s: f64,
    pub recovery_records: u64,
    pub poll_ns: u64,
    pub apply_ns: u64,
    pub shipped_records: u64,
    pub shipped_bytes: u64,
}

pub fn resolve_all(db: &Database) -> [FunctionId; 7] {
    Fun::ALL.map(|f| {
        db.resolve(f.name())
            .expect("the schema declares every function")
    })
}

pub fn flag(t: Truth) -> &'static [u8] {
    match t {
        Truth::True => b"T",
        Truth::Ambiguous => b"A",
        Truth::False => b"F",
    }
}

/// Nanoseconds the traced rounds spent per layer, for the wall-time
/// shares. Each statement's time is split between the layer that was
/// called and the layers a probe found below it.
#[derive(Default)]
pub struct Layers {
    /// Everything `fdb-lang` adds above the call it dispatches to.
    pub lang: u64,
    /// Planning and chain execution of reads.
    pub exec: u64,
    /// `Database::insert/delete`: the §3 update algorithms.
    pub update: u64,
    /// Tables, indexes, undo journal, copy-on-write detach.
    pub storage: u64,
    /// Frame encoding, append and sync.
    pub wal: u64,
    /// Checkpoint stalls.
    pub checkpoint: u64,
    /// Pin, publish and the handle's locking.
    pub shared: u64,
    /// What is left of a logged update: apply and bookkeeping.
    pub core: u64,
}

/// The layer probes of the traced run: public entry points of one layer
/// called on the same input beside the statement.
pub struct Probes {
    fids: [FunctionId; 7],
    derivations: [Vec<Derivation>; 7],
    limits: ChainLimits,
    /// A store that receives only the base writes, through `Store`'s own
    /// `base_insert` / `base_delete`.
    shadow: Store,
    /// A log of its own that receives every record the workload logs.
    wal: Wal,
    pub layers: Layers,
    /// `SharedLoggedDatabase::with` minus its closure.
    pub publish: Hist,
    /// What each update during which a checkpoint ran took beyond an
    /// ordinary one.
    pub checkpoint_stalls: Vec<u64>,
}

impl Probes {
    pub fn new(db: &Database) -> Probes {
        let fids = resolve_all(db);
        let disk: Arc<dyn WalStorage> = Arc::new(SimDisk::new());
        Probes {
            fids,
            derivations: fids.map(|f| db.derivations(f).to_vec()),
            limits: db.chain_limits(),
            shadow: db.store().clone(),
            wal: Wal::create_on(disk, "/probe/wal-1.seg", 1).expect("probe log on a fresh SimDisk"),
            layers: Layers::default(),
            publish: Hist::new(),
            checkpoint_stalls: Vec::new(),
        }
    }

    pub fn fid(&self, f: Fun) -> FunctionId {
        self.fids[f as usize]
    }

    /// Starts the shadow store again from `store`.
    pub fn reset_shadow(&mut self, store: &Store) {
        self.shadow = store.clone();
    }

    /// Plans and executes the read `op` through `fdb-exec` on `store`;
    /// returns the nanoseconds of both.
    pub fn read(&mut self, tr: &mut Tracer, store: &Store, op: &Op) -> u64 {
        let (f, spec, sp) = match op {
            Op::Truth { f, x, y } => (*f, QuerySpec::truth(x, y, true), Sp::ExecTruth),
            Op::Image { f, x } => (
                *f,
                QuerySpec {
                    left: Bind::Exact(x),
                    right: Bind::Unbound,
                    allow_ambiguous: true,
                },
                Sp::ExecImage,
            ),
            Op::InverseImage { f, y } => (
                *f,
                QuerySpec {
                    left: Bind::Unbound,
                    right: Bind::Exact(y),
                    allow_ambiguous: true,
                },
                Sp::ExecInverseImage,
            ),
            _ => unreachable!("read probe on an update"),
        };
        let derivations = &self.derivations[f as usize];
        tr.open_probe(Sp::Plan);
        for d in derivations {
            std::hint::black_box(fdb::exec::plan(store, d, &spec));
        }
        tr.close();
        tr.open_probe(sp);
        match op {
            Op::Truth { x, y, .. } => {
                std::hint::black_box(fdb::exec::derived_truth(
                    store,
                    derivations,
                    x,
                    y,
                    self.limits,
                ));
            }
            Op::Image { x, .. } => {
                std::hint::black_box(fdb::exec::derived_image(store, derivations, x, self.limits));
            }
            Op::InverseImage { y, .. } => {
                std::hint::black_box(fdb::exec::derived_inverse_image(
                    store,
                    derivations,
                    y,
                    self.limits,
                ));
            }
            _ => unreachable!(),
        }
        // The executor plans again inside, so its span already holds a
        // plan: only it counts towards the layer's share.
        let ns = tr.close();
        self.layers.exec += ns;
        ns
    }

    /// Applies a base write to the shadow store; returns its nanoseconds.
    pub fn base_write(&mut self, tr: &mut Tracer, op: &Op) -> u64 {
        let ns = match op {
            Op::Insert { f, x, y } => {
                tr.open_probe(Sp::BaseInsert);
                self.shadow.base_insert(self.fid(*f), x.clone(), y.clone());
                tr.close()
            }
            Op::Delete { f, x, y } => {
                tr.open_probe(Sp::BaseDelete);
                self.shadow.base_delete(self.fid(*f), x, y);
                tr.close()
            }
            _ => unreachable!("base-write probe on {op:?}"),
        };
        self.layers.storage += ns;
        ns
    }

    /// Mirrors transaction control on the shadow store, so that an
    /// aborted insert is as absent there as in the program's store.
    pub fn shadow_txn(&mut self, op: &Op) {
        match op {
            Op::Begin => self.shadow.undo_begin(),
            Op::Commit => self.shadow.undo_commit(),
            Op::Abort => self.shadow.undo_abort(),
            _ => {}
        }
    }

    /// Encodes `record` and appends it to the probe log, syncing when the
    /// workload's log would; returns the nanoseconds of all three.
    pub fn wal_record(&mut self, tr: &mut Tracer, record: &LogRecord, sync: bool) -> u64 {
        tr.open_probe(Sp::WalEncode);
        std::hint::black_box(encode_frame(self.wal.next_seq(), record).expect("a record encodes"));
        let mut ns = tr.close();
        tr.open_probe(Sp::WalAppend);
        self.wal.append(record).expect("append to the probe log");
        ns += tr.close();
        if sync {
            tr.open_probe(Sp::WalSync);
            self.wal.sync().expect("sync the probe log");
            ns += tr.close();
        }
        self.layers.wal += ns;
        ns
    }
}

/// The log record a logged update writes.
pub fn log_record(op: &Op) -> LogRecord {
    match op {
        Op::Insert { f, x, y } => LogRecord::Insert {
            function: f.name().to_owned(),
            x: x.clone(),
            y: y.clone(),
        },
        Op::Delete { f, x, y } => LogRecord::Delete {
            function: f.name().to_owned(),
            x: x.clone(),
            y: y.clone(),
        },
        Op::Begin => LogRecord::TxnBegin { id: 0 },
        Op::Commit => LogRecord::TxnCommit { id: 0 },
        Op::Abort => LogRecord::TxnAbort { id: 0 },
        _ => unreachable!("reads are not logged"),
    }
}

/// First write after `Database::clone`, to the big table and to the small
/// one: what copy-on-write detach costs at each size.
pub fn detach_probe(tr: &mut Tracer, db: &Database) {
    let fids = resolve_all(db);
    for i in 0..5 {
        for (sp, f, x, y) in [
            (Sp::DetachBig, Fun::ClassList, "c0", format!("detach{i}")),
            (Sp::DetachSmall, Fun::Office, "detach", format!("b{i}")),
        ] {
            // The clone and its release are the probe's own scaffolding.
            tr.open_probe(Sp::Scratch);
            let mut copy = db.clone();
            tr.open_probe(sp);
            copy.insert(fids[f as usize], Value::atom(x), Value::atom(&y))
                .expect("insert into a clone");
            tr.close();
            drop(copy);
            tr.close();
        }
    }
}
