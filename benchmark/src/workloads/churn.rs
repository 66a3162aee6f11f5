//! Workload 4: autocommit writes and snapshot reads through
//! `SharedLoggedDatabase`.
//!
//! Every autocommit write publishes a snapshot, and the next write to a
//! table copies it (copy-on-write detach), so a write costs in proportion
//! to its table. The script writes to a 60k-row table and to a 4k-row one
//! in the same run, which makes that slope one number
//! (`fdb-storage.detach_big_us` over `detach_small_us`).
//!
//! One client thread on purpose: on two shared cores a reader thread
//! measures the scheduler. `SyncPolicy::Always` as in the product default,
//! but no automatic checkpoints: a checkpoint of this store would stall
//! one round in seven, and checkpoints are workload 3's subject.

use std::sync::Arc;
use std::time::Instant;

use fdb::core::{Database, DurabilityConfig, SharedLoggedDatabase, SimDisk};
use fdb::types::FunctionId;
use rand::Rng;

use crate::gen::{self, Fun, Op, Uni, CHURN_GROUP_OPS, CHURN_READS, UNI};
use crate::harness::{shape, Round};
use crate::trace::{Sp, Tracer};

use super::durable::load_logged;
use super::{flag, log_record, resolve_all, Check, Probes, Workload, CHECK_ONE_IN};

/// Groups of operations per round.
pub const CHURN_GROUPS: usize = 28;

pub struct SnapshotChurn {
    load: Vec<Op>,
    script: Vec<(Op, bool)>,
}

pub struct State {
    disk: Arc<SimDisk>,
    shared: SharedLoggedDatabase,
    fids: [FunctionId; 7],
}

impl SnapshotChurn {
    pub fn new(seed: u64) -> SnapshotChurn {
        let uni = Uni::generate(UNI, &mut gen::rng_for(seed, 0));
        let mut sample = gen::rng_for(seed, 2);
        let script = gen::churn_script(&uni, &mut gen::rng_for(seed, 1), CHURN_GROUPS)
            .into_iter()
            .map(|op| {
                let sampled = op.is_read() && sample.gen_range(0..CHECK_ONE_IN) == 0;
                (op, sampled)
            })
            .collect();
        SnapshotChurn {
            load: uni.load_ops(),
            script,
        }
    }
}

impl Workload for SnapshotChurn {
    type State = State;

    fn ops_per_round(&self) -> usize {
        self.script.len()
    }

    fn setup(&self) -> State {
        let disk = Arc::new(SimDisk::new());
        let config = DurabilityConfig {
            checkpoint_every: None,
            ..DurabilityConfig::default()
        };
        let ldb = load_logged(&disk, config, &self.load);
        let fids = resolve_all(ldb.database());
        State {
            disk,
            shared: SharedLoggedDatabase::new(ldb),
            fids,
        }
    }

    fn round(&self, st: &mut State, mut check: Option<&mut Check>) -> Round {
        let disk0 = st.disk.total_written();
        // The pin a group's first read takes serves its first burst of
        // reads and stays held over the group's writes.
        let mut held = st.shared.pin();
        let mut r = Round::start();
        for (i, (op, sampled)) in self.script.iter().enumerate() {
            let t0 = Instant::now();
            let out = match op {
                Op::Truth { f, x, y } if i % CHURN_GROUP_OPS < CHURN_READS => {
                    if i % CHURN_GROUP_OPS == 0 {
                        held = st.shared.pin();
                    }
                    held.truth(st.fids[*f as usize], x, y).map(flag)
                }
                Op::Truth { f, x, y } => st.shared.truth(st.fids[*f as usize], x, y).map(flag),
                Op::Insert { f, x, y } => st
                    .shared
                    .insert(f.name(), x.clone(), y.clone())
                    .map(|()| &b""[..]),
                Op::Delete { f, x, y } => st
                    .shared
                    .delete(f.name(), x.clone(), y.clone())
                    .map(|()| &b""[..]),
                _ => unreachable!("not in the churn script: {op:?}"),
            };
            r.record(op.is_read(), t0, out.as_ref().map(|b| *b));
            if let (Some(c), true, Op::Truth { f, x, y }) = (check.as_deref_mut(), *sampled, op) {
                let pin = st.shared.pin();
                let fid = st.fids[*f as usize];
                let got = pin.truth(fid, x, y).expect("truth of a declared function");
                c.truth(&pin, fid, x, y, got);
            }
        }
        r.finish();
        r.disk_bytes = st.disk.total_written() - disk0;
        r.shape = shape(&st.shared.stats().expect("stats of a pinned snapshot"));
        r
    }

    fn traced_round(&self, st: &mut State, tr: &mut Tracer, p: &mut Probes) -> u64 {
        let mut held = st.shared.pin();
        let started = Instant::now();
        for (i, (op, _)) in self.script.iter().enumerate() {
            tr.set_op(i);
            match op {
                Op::Truth { f, x, y } => {
                    let fid = st.fids[*f as usize];
                    tr.open(Sp::Op);
                    if i % CHURN_GROUP_OPS == 0 {
                        tr.open(Sp::Pin);
                        let fresh = st.shared.pin();
                        tr.close();
                        // Letting go of the last pin on a retired snapshot
                        // frees the tables only it still held.
                        tr.open(Sp::Release);
                        drop(std::mem::replace(&mut held, fresh));
                        tr.close();
                    }
                    if i % CHURN_GROUP_OPS < CHURN_READS {
                        tr.open(Sp::Truth);
                        held.truth(fid, x, y).expect("truth on the held pin");
                    } else {
                        tr.open(Sp::SharedTruth);
                        st.shared.truth(fid, x, y).expect("truth on a fresh pin");
                    }
                    tr.close();
                    let op_ns = tr.close();
                    let exec_ns = p.read(tr, held.store(), op);
                    p.layers.shared += op_ns.saturating_sub(exec_ns);
                }
                Op::Insert { f, x, y } | Op::Delete { f, x, y } => {
                    let insert = matches!(op, Op::Insert { .. });
                    tr.open(Sp::Op);
                    tr.open(Sp::With);
                    let mut update_ns = 0;
                    st.shared
                        .with(|ldb| {
                            tr.open(Sp::LoggedUpdate);
                            let r = if insert {
                                ldb.insert(f.name(), x.clone(), y.clone())
                            } else {
                                ldb.delete(f.name(), x.clone(), y.clone())
                            };
                            update_ns = tr.close();
                            r
                        })
                        .and_then(|r| r)
                        .expect("scripted updates succeed");
                    let with_ns = tr.close();
                    tr.close();
                    let publish_ns = with_ns.saturating_sub(update_ns);
                    p.publish.record(publish_ns);
                    p.layers.shared += publish_ns;

                    let wal_ns = p.wal_record(tr, &log_record(op), true);
                    // The same write as the first one after a clone of the
                    // held snapshot: the table copy the update just paid.
                    tr.open_probe(Sp::Scratch);
                    let mut copy: Database = (*held).clone();
                    tr.open_probe(if *f == Fun::ClassList {
                        Sp::DetachBig
                    } else {
                        Sp::DetachSmall
                    });
                    if insert {
                        copy.insert(p.fid(*f), x.clone(), y.clone())
                    } else {
                        copy.delete(p.fid(*f), x, y)
                    }
                    .expect("the copy takes the update");
                    let detach_ns = tr.close();
                    drop(copy);
                    tr.close();
                    p.layers.storage += detach_ns;
                    p.layers.core += update_ns.saturating_sub(wal_ns + detach_ns);
                }
                _ => unreachable!("not in the churn script: {op:?}"),
            }
        }
        started.elapsed().as_nanos() as u64
    }

    fn database(&self, st: &State) -> Database {
        (*st.shared.pin()).clone()
    }
}
