//! Workload 3: logged updates through `LoggedDatabase` on a `SimDisk`.
//!
//! The flush policy is the product default and is part of what is
//! measured: `SyncPolicy::Always`, a checkpoint every 1,024 data records,
//! 256 KiB segments. With it the workload is checkpoint-bound, and the
//! layer metrics separate append cost from checkpoint cost.

use std::sync::Arc;
use std::time::Instant;

use fdb::core::{Database, DurabilityConfig, LoggedDatabase, SimDisk, WalStorage};
use fdb::repl::{ApplyOutcome, Replica, ReplicationSource};
use fdb::types::{FunctionId, Functionality};
use rand::Rng;

use crate::gen::{self, Op, Uni, CHECKPOINT_EVERY, DECLARATIONS, DERIVATIONS, SMALL};
use crate::harness::{shape, Round};
use crate::trace::{Sp, Tracer};

use super::{flag, log_record, resolve_all, Check, Probes, Tail, Workload, CHECK_ONE_IN};

const DIR: &str = "/bench";

pub struct DurableCommit {
    load: Vec<Op>,
    /// Each operation and whether the verification pass recomputes it.
    script: Vec<(Op, bool)>,
}

pub struct State {
    disk: Arc<SimDisk>,
    ldb: LoggedDatabase,
    fids: [FunctionId; 7],
}

/// Declares the schema and loads `load` through `LoggedDatabase`'s own
/// logged methods, under `config`.
pub fn load_logged(disk: &Arc<SimDisk>, config: DurabilityConfig, load: &[Op]) -> LoggedDatabase {
    let storage: Arc<dyn WalStorage> = disk.clone();
    let mut ldb = LoggedDatabase::create_with(storage, DIR, config).expect("create on a SimDisk");
    for (f, dom, rng, fun) in DECLARATIONS {
        let fun: Functionality = fun.parse().expect("a functionality");
        ldb.declare(f.name(), dom, rng, fun).expect("declare");
    }
    for (f, steps) in DERIVATIONS {
        let steps: Vec<(&str, bool)> = steps.iter().map(|(g, inv)| (g.name(), *inv)).collect();
        ldb.derive(f.name(), &steps).expect("derive");
    }
    for op in load {
        let Op::Insert { f, x, y } = op else {
            unreachable!("the load is inserts")
        };
        ldb.insert(f.name(), x.clone(), y.clone()).expect("load");
    }
    ldb
}

impl DurableCommit {
    pub fn new(seed: u64) -> DurableCommit {
        let uni = Uni::generate(SMALL, &mut gen::rng_for(seed, 0));
        let mut sample = gen::rng_for(seed, 2);
        let script = gen::durable_script(&uni, &mut gen::rng_for(seed, 1))
            .into_iter()
            .map(|op| {
                let sampled = op.is_read() && sample.gen_range(0..CHECK_ONE_IN) == 0;
                (op, sampled)
            })
            .collect();
        DurableCommit {
            load: uni.load_ops(),
            script,
        }
    }
}

/// Runs one scripted operation; a read returns its verdict's flag.
#[inline]
fn apply(
    ldb: &mut LoggedDatabase,
    fids: &[FunctionId; 7],
    op: &Op,
) -> fdb::types::Result<&'static [u8]> {
    match op {
        Op::Insert { f, x, y } => ldb
            .insert(f.name(), x.clone(), y.clone())
            .map(|()| &b""[..]),
        Op::Delete { f, x, y } => ldb
            .delete(f.name(), x.clone(), y.clone())
            .map(|()| &b""[..]),
        Op::Begin => ldb.begin().map(|()| &b""[..]),
        Op::Commit => ldb.commit().map(|()| &b""[..]),
        Op::Truth { f, x, y } => ldb.database().truth(fids[*f as usize], x, y).map(flag),
        _ => unreachable!("not in the durable script: {op:?}"),
    }
}

impl Workload for DurableCommit {
    type State = State;

    fn ops_per_round(&self) -> usize {
        self.script.len()
    }

    fn setup(&self) -> State {
        let disk = Arc::new(SimDisk::new());
        let mut ldb = load_logged(&disk, DurabilityConfig::default(), &self.load);
        // Start the checkpoint interval at the first scripted record, so
        // that checkpoints fall on the block ends of the script.
        ldb.checkpoint().expect("checkpoint after the load");
        let fids = resolve_all(ldb.database());
        State { disk, ldb, fids }
    }

    fn round(&self, st: &mut State, mut check: Option<&mut Check>) -> Round {
        let disk0 = st.disk.total_written();
        let mut r = Round::start();
        for (op, sampled) in &self.script {
            let t0 = Instant::now();
            let out = apply(&mut st.ldb, &st.fids, op);
            r.record(op.is_read(), t0, out.as_ref().map(|b| *b));
            if let (Some(c), true, Op::Truth { f, x, y }) = (check.as_deref_mut(), *sampled, op) {
                let db = st.ldb.database();
                let fid = st.fids[*f as usize];
                let got = db.truth(fid, x, y).expect("truth of a declared function");
                c.truth(db, fid, x, y, got);
            }
        }
        r.finish();
        r.disk_bytes = st.disk.total_written() - disk0;
        r.shape = shape(&st.ldb.database().stats());
        r
    }

    fn traced_round(&self, st: &mut State, tr: &mut Tracer, p: &mut Probes) -> u64 {
        p.reset_shadow(st.ldb.database().store());
        let started = Instant::now();
        let mut checkpoint_seq = st.ldb.checkpoint_seq();
        let mut path_ns = 0;
        let mut checkpoint_ops = Vec::new();
        let before = (p.layers.wal, p.layers.storage, p.layers.exec);
        for (i, (op, _)) in self.script.iter().enumerate() {
            tr.set_op(i);
            tr.open(Sp::Op);
            tr.open(match op {
                Op::Begin => Sp::LoggedBegin,
                Op::Commit => Sp::LoggedCommit,
                Op::Truth { .. } => Sp::Truth,
                _ => Sp::LoggedUpdate,
            });
            apply(&mut st.ldb, &st.fids, op).expect("scripted operations succeed");
            tr.close();
            let op_ns = tr.close();
            path_ns += op_ns;
            match op {
                Op::Truth { .. } => {
                    p.read(tr, st.ldb.database().store(), op);
                }
                // `begin` appends its marker without a sync of its own.
                Op::Begin => {
                    p.wal_record(tr, &log_record(op), false);
                }
                Op::Commit => {
                    p.wal_record(tr, &log_record(op), true);
                }
                _ => {
                    p.wal_record(tr, &log_record(op), true);
                    p.base_write(tr, op);
                    if st.ldb.checkpoint_seq() != checkpoint_seq {
                        checkpoint_seq = st.ldb.checkpoint_seq();
                        checkpoint_ops.push(op_ns);
                    }
                }
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        // The stall of a checkpointing update is what it took beyond an
        // ordinary one.
        let ordinary = tr.p50_ns(Sp::LoggedUpdate) as u64;
        let stalls: Vec<u64> = checkpoint_ops
            .iter()
            .map(|ns| ns.saturating_sub(ordinary))
            .collect();
        let stalls_ns: u64 = stalls.iter().sum();
        p.checkpoint_stalls.extend(stalls);
        p.layers.checkpoint += stalls_ns;
        let probed =
            (p.layers.wal - before.0) + (p.layers.storage - before.1) + (p.layers.exec - before.2);
        p.layers.core += path_ns.saturating_sub(stalls_ns + probed);
        wall_ns
    }

    fn database(&self, st: &State) -> Database {
        st.ldb.database().clone()
    }

    fn finish(&self, mut st: State, tail: &mut Tail) {
        // Leave a tail of records after the last checkpoint, so that
        // recovery replays a log and not only loads a snapshot.
        let mut in_frame = false;
        for (n, (op, _)) in self.script.iter().enumerate() {
            if n >= CHECKPOINT_EVERY / 2 && !in_frame {
                break;
            }
            in_frame = match op {
                Op::Begin => true,
                Op::Commit => false,
                _ => in_frame,
            };
            apply(&mut st.ldb, &st.fids, op).expect("scripted operations succeed");
        }
        let live = st
            .ldb
            .database()
            .to_snapshot()
            .expect("snapshot of the live state");
        drop(st.ldb);

        let storage: Arc<dyn WalStorage> = st.disk.clone();
        let t0 = Instant::now();
        let (recovered, report) =
            LoggedDatabase::open_with(storage.clone(), DIR, DurabilityConfig::default())
                .expect("recovery opens the log");
        tail.recovery_s = t0.elapsed().as_secs_f64();
        tail.recovery_records = report.applied as u64;
        let same = recovered
            .database()
            .to_snapshot()
            .expect("snapshot of the recovered state")
            == live;
        if !same || report.damaged() {
            eprintln!(
                "durable_commit: recovery differs from the live state (damaged: {})",
                report.damaged()
            );
            tail.failures += 1;
        }

        // A fresh replica catches up from the retained log: the
        // checkpoint as seed, then the tail.
        let mut source = ReplicationSource::new(storage, DIR).expect("source over the log");
        let rdisk: Arc<dyn WalStorage> = Arc::new(SimDisk::new());
        let mut replica = Replica::open(rdisk, "/replica").expect("a fresh replica");
        loop {
            let t0 = Instant::now();
            let batch = source.poll(replica.next_seq(), 256).expect("poll");
            tail.poll_ns += t0.elapsed().as_nanos() as u64;
            if batch.is_empty() {
                break;
            }
            tail.shipped_records += batch.frames.len() as u64;
            tail.shipped_bytes += batch.frames.iter().map(|f| f.encoded_len()).sum::<u64>()
                + batch.seed.as_ref().map_or(0, |s| s.snapshot.len() as u64);
            let t0 = Instant::now();
            let outcome = replica.apply_batch(&batch).expect("apply");
            tail.apply_ns += t0.elapsed().as_nanos() as u64;
            if !matches!(outcome, ApplyOutcome::Applied { .. }) {
                eprintln!("durable_commit: replica refused a batch: {outcome:?}");
                tail.failures += 1;
                break;
            }
        }
        let view = replica.consistent_view().expect("a consistent view");
        if view.to_snapshot().expect("snapshot of the replica") != live {
            eprintln!("durable_commit: replica differs from the primary");
            tail.failures += 1;
        }
    }
}
