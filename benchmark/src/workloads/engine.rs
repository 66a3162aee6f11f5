//! Workloads 1 and 2: FDBL text through `fdb::lang::Engine::execute_line`.
//!
//! The engine only ever sees lines of text. Every round starts from a
//! copy-on-write clone of the loaded database in a fresh engine, because
//! cost per statement is not stationary under the paper's semantics:
//! derived deletes leave negated conjunctions and derived inserts leave
//! null-valued chains that every later read pays for, and the engine's
//! check log grows with every statement.

use std::hint::black_box;
use std::time::Instant;

use fdb::core::Database;
use fdb::lang::{lower, parse_statement_spanned, Engine};
use fdb::storage::Truth;
use rand::Rng;

use crate::gen::{self, Op, Uni, DECLARATIONS, DERIVATIONS, UNI};
use crate::harness::{shape, Round};
use crate::trace::{Sp, Tracer};

use super::{Check, Probes, Workload, CHECK_ONE_IN};

/// Statements per round of `derived_read_mix`.
pub const READ_MIX_OPS: usize = 2_000;
/// Transactions per round of `derived_update_mix`.
pub const UPDATE_MIX_TXNS: usize = 1_250;

struct Stmt {
    line: String,
    op: Op,
    /// Recomputed by the reference interpreter in the verification pass.
    sampled: bool,
}

pub struct EngineMix {
    /// Declarations, derivations, the base load and, for workload 2, the
    /// derived updates that seed NCs and NVCs.
    load: Vec<String>,
    script: Vec<Stmt>,
}

fn schema_lines() -> Vec<String> {
    let mut lines: Vec<String> = DECLARATIONS
        .iter()
        .map(|(f, dom, rng, fun)| format!("DECLARE {}: {dom} -> {rng} ({fun})", f.name()))
        .collect();
    for (f, steps) in DERIVATIONS {
        let steps: Vec<String> = steps
            .iter()
            .map(|(g, inv)| format!("{}{}", g.name(), if *inv { "^-1" } else { "" }))
            .collect();
        lines.push(format!("DERIVE {} = {}", f.name(), steps.join(" o ")));
    }
    lines
}

impl EngineMix {
    fn new(seed: u64, update_mix: bool) -> EngineMix {
        let uni = Uni::generate(UNI, &mut gen::rng_for(seed, 0));
        let mut load = schema_lines();
        load.extend(uni.load_ops().iter().map(Op::fdbl));
        let mut rng = gen::rng_for(seed, 1);
        let ops = if update_mix {
            load.extend(gen::update_mix_prelude(&uni, &mut rng).iter().map(Op::fdbl));
            gen::update_mix_script(&uni, &mut rng, UPDATE_MIX_TXNS)
        } else {
            gen::read_mix_script(&uni, &mut rng, READ_MIX_OPS)
        };
        let mut sample = gen::rng_for(seed, 2);
        let script = ops
            .into_iter()
            .map(|op| Stmt {
                line: op.fdbl(),
                sampled: matches!(op, Op::Truth { .. }) && sample.gen_range(0..CHECK_ONE_IN) == 0,
                op,
            })
            .collect();
        EngineMix { load, script }
    }

    pub fn read_mix(seed: u64) -> EngineMix {
        EngineMix::new(seed, false)
    }

    pub fn update_mix(seed: u64) -> EngineMix {
        EngineMix::new(seed, true)
    }
}

fn parse_flag(out: &str) -> Option<Truth> {
    match out.trim_end() {
        "T" => Some(Truth::True),
        "A" => Some(Truth::Ambiguous),
        "F" => Some(Truth::False),
        _ => None,
    }
}

impl Workload for EngineMix {
    type State = Database;

    fn ops_per_round(&self) -> usize {
        self.script.len()
    }

    fn setup(&self) -> Database {
        let mut engine = Engine::new();
        for line in &self.load {
            engine
                .execute_line(line)
                .unwrap_or_else(|e| panic!("set-up line `{line}` failed: {e}"));
        }
        engine.into_database()
    }

    fn round(&self, base: &mut Database, mut check: Option<&mut Check>) -> Round {
        let mut engine = Engine::with_database(base.clone());
        let mut r = Round::start();
        for s in &self.script {
            let t0 = Instant::now();
            let out = engine.execute_line(&s.line);
            r.record(s.op.is_read(), t0, out.as_deref().map(str::as_bytes));
            if let (Some(c), true, Op::Truth { f, x, y }) = (check.as_deref_mut(), s.sampled, &s.op)
            {
                let db = engine.database();
                let got = out.ok().as_deref().and_then(parse_flag);
                let f = db.resolve(f.name()).expect("declared");
                match got {
                    Some(got) => c.truth(db, f, x, y, got),
                    None => c.mismatches += 1,
                }
            }
        }
        r.finish();
        r.shape = shape(&engine.database().stats());
        r
    }

    fn traced_round(&self, base: &mut Database, tr: &mut Tracer, p: &mut Probes) -> u64 {
        let mut engine = Engine::with_database(base.clone());
        // The twin takes every update through `Database`'s own methods,
        // so derived updates, transaction control and rollback can be
        // timed below the language layer on the same state.
        let mut twin = base.clone();
        p.reset_shadow(base.store());
        let started = Instant::now();
        for (i, s) in self.script.iter().enumerate() {
            tr.set_op(i);
            tr.open(Sp::Op);
            tr.open(Sp::Parse);
            let spanned = parse_statement_spanned(&s.line, i as u32 + 1);
            tr.close();
            let spanned = spanned.expect("generated statements parse");
            tr.open(Sp::Lower);
            black_box(lower(&spanned));
            tr.close();
            tr.open(Sp::Execute);
            black_box(engine.execute(spanned.stmt)).expect("generated statements execute");
            tr.close();
            let stmt_ns = tr.close();

            let below_ns = match &s.op {
                op if op.is_read() => p.read(tr, engine.database().store(), op),
                Op::Insert { f, x, y } | Op::Delete { f, x, y } => {
                    let insert = matches!(s.op, Op::Insert { .. });
                    let fid = p.fid(*f);
                    tr.open_probe(match (f.is_derived(), insert) {
                        (false, _) => Sp::TwinBase,
                        (true, true) => Sp::DerivedInsert,
                        (true, false) => Sp::DerivedDelete,
                    });
                    if insert {
                        twin.insert(fid, x.clone(), y.clone())
                    } else {
                        twin.delete(fid, x, y)
                    }
                    .expect("the twin takes the update");
                    let twin_ns = tr.close();
                    if f.is_derived() {
                        p.layers.update += twin_ns;
                    } else {
                        let store_ns = p.base_write(tr, &s.op);
                        p.layers.update += twin_ns.saturating_sub(store_ns);
                    }
                    twin_ns
                }
                op => {
                    tr.open_probe(match op {
                        Op::Begin => Sp::TxnBegin,
                        Op::Commit => Sp::TxnCommit,
                        _ => Sp::Rollback,
                    });
                    match op {
                        Op::Begin => twin.txn_begin(),
                        Op::Commit => twin.txn_commit(),
                        _ => twin.txn_rollback(),
                    }
                    .expect("the twin follows the transaction");
                    let ns = tr.close();
                    p.shadow_txn(op);
                    p.layers.storage += ns;
                    ns
                }
            };
            p.layers.lang += stmt_ns.saturating_sub(below_ns);
        }
        started.elapsed().as_nanos() as u64
    }

    fn database(&self, base: &Database) -> Database {
        base.clone()
    }
}
