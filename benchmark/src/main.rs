//! The repo benchmark. See `benchmark/README.md`.
//!
//! `fdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name with its unit, then one JSON line with the
//! result. Everything is measured from outside the fdb crates: by timing
//! calls into their public functions and reading `fdb::obs::registry()`.

mod alloc;
mod gen;
mod harness;
mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{Hist, Reference, Round, RoundStat};
use metrics::{Metric, RegistryDelta};
use trace::Tracer;
use workloads::churn::SnapshotChurn;
use workloads::durable::DurableCommit;
use workloads::engine::EngineMix;
use workloads::{Check, Probes, Tail, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "derived_read_mix",
    "derived_update_mix",
    "durable_commit",
    "snapshot_churn",
];

/// Times the initial state is built in an untraced run; `setup_s` is the
/// median.
const SETUPS: usize = 3;
/// Rounds at the start of the measured phase that are run and discarded.
const WARM_UP: usize = 2;
/// Fewest rounds measured, whatever `--seconds` says.
const MIN_ROUNDS: usize = 8;
/// Change of the allocations per round, last third of the rounds against
/// the first third, beyond which the run fails.
const MAX_WORK_DRIFT_PCT: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdb-benchmark: {e}");
            eprintln!(
                "usage: fdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "derived_read_mix" => run(&EngineMix::read_mix(args.seed), &args),
        "derived_update_mix" => run(&EngineMix::update_mix(args.seed), &args),
        "durable_commit" => run(&DurableCommit::new(args.seed), &args),
        _ => run(&SnapshotChurn::new(args.seed), &args),
    }
}

/// Everything a run counts towards `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// The measured rounds of a run.
struct Measured {
    rounds: Vec<RoundStat>,
    /// Every write latency of those rounds, as measured.
    all_writes: Hist,
}

/// Runs rounds until `budget` is spent (and at least `WARM_UP +
/// MIN_ROUNDS`), holding each against the reference round and timing the
/// machine-speed reference beside each. The first `WARM_UP` are run and
/// dropped.
fn measure<W: Workload>(
    w: &W,
    st: &mut W::State,
    reference: &Round,
    machine: &mut Reference,
    budget: Duration,
    tally: &mut Tally,
) -> Measured {
    let deadline = Instant::now() + budget;
    let mut measured = Measured {
        rounds: Vec::new(),
        all_writes: Hist::new(),
    };
    let mut done = 0;
    let mut before = machine.slowdown();
    while done < WARM_UP + MIN_ROUNDS || Instant::now() < deadline {
        let r = w.round(st, None);
        let after = machine.slowdown();
        tally.attempted += w.ops_per_round() as u64;
        tally.failed += r.errors;
        if r.digest != reference.digest {
            eprintln!("round {done}: outputs differ from the reference round");
            tally.failed += 1;
        }
        if r.shape != reference.shape {
            eprintln!(
                "round {done}: (base_facts, ncs, null_facts) = {:?}, the reference round ended with {:?}",
                r.shape, reference.shape
            );
            tally.failed += 1;
        }
        if done >= WARM_UP {
            measured.all_writes.merge(&r.write);
            measured
                .rounds
                .push(RoundStat::of(&r, (before + after) / 2.0));
        }
        before = after;
        done += 1;
    }
    measured
}

fn run<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let mut tally = Tally::default();
    let mut machine = Reference::new();
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-up, through the workload's own surface. An untraced run builds
    // the state several times and reports the median.
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(state.take());
        let before = machine.slowdown();
        let t0 = Instant::now();
        state = Some(w.setup());
        let s = t0.elapsed().as_secs_f64();
        setup_s.push(s / ((before + machine.slowdown()) / 2.0));
    }
    let mut st = state.expect("at least one set-up");

    // Verification pass, untimed: the reference round every later round
    // is held against, with the sampled reads recomputed by the
    // reference interpreter.
    let mut check = Check::default();
    let reference = w.round(&mut st, Some(&mut check));
    tally.attempted += w.ops_per_round() as u64;
    tally.failed += reference.errors + check.mismatches;
    if check.mismatches > 0 {
        eprintln!(
            "{} of {} sampled TRUTH answers differ from the reference interpreter",
            check.mismatches, check.sampled
        );
    }

    // Measured phase. A traced run spends half its time here, for the
    // registry counters and the untraced rate the traced one is held
    // against, a quarter in traced rounds and the rest in probes.
    let registry0 = metrics::registry_snapshot();
    let measured = measure(
        w,
        &mut st,
        &reference,
        &mut machine,
        if args.trace { budget / 2 } else { budget },
        &mut tally,
    );
    let registry = RegistryDelta::since(
        &registry0,
        (WARM_UP + measured.rounds.len()) * w.ops_per_round(),
    );
    let summary = harness::summarise(&measured.rounds, &measured.all_writes, w.ops_per_round());
    // Every round starts from the same state and replays the same script,
    // so a round that allocates more than the first ones did found state
    // that a previous round left behind.
    if summary.work_drift_pct.abs() > MAX_WORK_DRIFT_PCT {
        eprintln!(
            "allocations per round moved by {:.1} % from the first third of the rounds to the last: the workload is not stationary",
            summary.work_drift_pct
        );
        tally.failed += 1;
    }

    let mut out: Vec<Metric> = Vec::new();
    let mut tail = Tail::default();
    if args.trace {
        let mut tr = Tracer::new();
        let db = w.database(&st);
        let mut probes = Probes::new(&db);
        let deadline = Instant::now() + budget / 4;
        // Per traced round: wall time of its statements (the probes ran
        // beside them), at reference speed.
        let mut path_wall_ns = Vec::new();
        let mut slowdowns = Vec::new();
        let mut before = machine.slowdown();
        while path_wall_ns.len() < 2 || Instant::now() < deadline {
            let probes0 = tr.probe_wall_ns;
            let wall_ns =
                w.traced_round(&mut st, &mut tr, &mut probes) - (tr.probe_wall_ns - probes0);
            let after = machine.slowdown();
            path_wall_ns.push(wall_ns as f64);
            slowdowns.push((before + after) / 2.0);
            before = after;
            tally.attempted += w.ops_per_round() as u64;
        }
        workloads::detach_probe(&mut tr, &db);
        drop(db);
        w.finish(st, &mut tail);
        metrics::per_layer(
            &mut out,
            &summary,
            &registry,
            &tr,
            &probes,
            &tail,
            reference.shape,
            metrics::Traced {
                path_wall_ns,
                slowdowns,
                ops_per_round: w.ops_per_round(),
            },
        );
        let path = format!("benchmark/out/{}.trace.json", args.workload);
        if let Err(e) = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, tr.to_json(&args.workload, args.seed)))
        {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("trace written to {path}");
    } else {
        w.finish(st, &mut tail);
        let failed = tally.failed + tail.failures;
        let ok_share = 1.0 - failed as f64 / tally.attempted as f64;
        metrics::end_to_end(&mut out, &summary, harness::median(&mut setup_s), ok_share);
        println!(
            "rounds measured {} (quiet {}), read samples {}, write samples {}, sampled TRUTH checks {}",
            summary.rounds, summary.rounds_quiet, summary.read_samples, summary.write_samples, check.sampled
        );
        println!(
            "machine_slowdown {:.3}  slow_round_ratio {:.3}  round_cv_pct {:.2}  drift_pct {:.2}  work_drift_pct {:.3}  disk_bytes_per_op {:.1}  write_p99_us {:.1}",
            summary.machine_slowdown,
            summary.slow_round_ratio,
            summary.round_cv_pct,
            summary.drift_pct,
            summary.work_drift_pct,
            summary.disk_bytes_per_op,
            summary.write_p99_us
        );
    }
    tally.failed += tail.failures;

    for m in &out {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, tally.attempted, tally.failed, &out)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
