//! Rounds, latency histograms, the machine-speed reference and the
//! estimators built on them.
//!
//! A run is a sequence of rounds that all replay one script from one
//! state, so every round does the same work and differs only by what else
//! the machine was doing. On the shared two-core box this benchmark was
//! written on, that is a lot: for minutes at a time everything except a
//! dependent arithmetic chain runs up to twice slower (the signature of a
//! busy sibling hardware thread), and whole runs fall inside such a phase.
//! Two things keep the timing metrics comparable between runs:
//!
//! * Beside every round the harness times a *reference kernel* that shares
//!   no code with the program (`Reference`), and divides the round's times
//!   by how much slower than its fixed reference value the kernel ran.
//!   Times are therefore stated for a machine at reference speed.
//! * What normalising leaves is episodic and one-sided, so the estimators
//!   are taken over the *quiet* rounds, the faster half ranked by
//!   normalised duration. The slower half is reported as
//!   `harness.slow_round_ratio`, not hidden.

use std::time::Instant;

use fdb::core::DatabaseStats;

use crate::alloc;

const EXACT: u64 = 256;
const SUB_BITS: u32 = 7;
const MAX_EXP: u32 = 40;
const BUCKETS: usize = EXACT as usize + ((MAX_EXP - 8) as usize + 1) * (1 << SUB_BITS);

/// Nanosecond latencies in fixed log-spaced buckets no wider than 1/128 of
/// their lower edge, so memory does not grow with the number of
/// operations and `peak_rss_mb` measures the program, not the harness.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let ns = ns.min((1 << (MAX_EXP + 1)) - 1);
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        EXACT as usize + (((exp - 8) as usize) << SUB_BITS) + sub as usize
    }

    /// `(lower edge, width)` of bucket `i` in nanoseconds.
    fn edges(i: usize) -> (f64, f64) {
        if i < EXACT as usize {
            return (i as f64, 1.0);
        }
        let k = i - EXACT as usize;
        let exp = (k >> SUB_BITS) as u32 + 8;
        let sub = (k & ((1 << SUB_BITS) - 1)) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        (((1u64 << exp) + sub * width) as f64, width as f64)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q` quantile in nanoseconds, interpolated inside its bucket by
    /// rank; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = f64::from(c);
            if c > 0.0 && below + c >= rank {
                let (lo, width) = Hist::edges(i);
                return lo + width * ((rank - below) / c).clamp(0.0, 1.0);
            }
            below += c;
        }
        Hist::edges(BUCKETS - 1).0
    }
}

/// Folds `bytes` into the running digest `h`, eight bytes at a time.
#[inline]
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = (h ^ u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56)).wrapping_mul(K);
    h.rotate_left(29)
}

/// The three instance statistics the stationarity guard compares.
pub type Shape = (usize, usize, usize);

pub fn shape(s: &DatabaseStats) -> Shape {
    (s.base_facts, s.ncs, s.null_facts)
}

/// What one round measured.
pub struct Round {
    pub dur_ns: u64,
    pub read: Hist,
    pub write: Hist,
    /// Digest of every operation's output, in order.
    pub digest: u64,
    /// Operations that returned an error.
    pub errors: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub disk_bytes: u64,
    /// `(base_facts, ncs, null_facts)` when the round ended.
    pub shape: Shape,
    started: Instant,
    alloc0: (u64, u64),
}

impl Round {
    /// Starts the clock. The histograms are allocated first so that they
    /// do not count as the program's allocations.
    pub fn start() -> Round {
        let (read, write) = (Hist::new(), Hist::new());
        Round {
            dur_ns: 0,
            read,
            write,
            digest: 0,
            errors: 0,
            allocs: 0,
            alloc_bytes: 0,
            disk_bytes: 0,
            shape: (0, 0, 0),
            alloc0: alloc::counters(),
            started: Instant::now(),
        }
    }

    /// Records one operation that began at `t0` and just returned `out`.
    #[inline]
    pub fn record<E>(&mut self, is_read: bool, t0: Instant, out: Result<&[u8], E>) {
        let ns = t0.elapsed().as_nanos() as u64;
        if is_read {
            self.read.record(ns);
        } else {
            self.write.record(ns);
        }
        match out {
            Ok(bytes) => self.digest = fold(self.digest, bytes),
            Err(_) => self.errors += 1,
        }
    }

    /// Stops the clock.
    pub fn finish(&mut self) {
        self.dur_ns = self.started.elapsed().as_nanos() as u64;
        let (a, b) = alloc::counters();
        self.allocs = a - self.alloc0.0;
        self.alloc_bytes = b - self.alloc0.1;
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The machine-speed reference: two fixed kernels over private,
/// preallocated buffers that allocate nothing and call nothing of fdb, so
/// neither the program's heap nor a change to the program can move them.
/// One sorts 16k integers (cache-resident, branchy), the other looks up
/// 40k keys in a 400k-entry hash map (hashing plus cache misses). Busy
/// phases of the machine slow the two by different factors and the
/// workloads by something in between; their geometric mean tracks the
/// workloads best (see the README for the measurement).
pub struct Reference {
    source: Vec<u64>,
    scratch: Vec<u64>,
    map: std::collections::HashMap<u64, u64>,
}

/// The kernels' times on the quiet machine the benchmark was written on.
/// Constants on purpose: a run's times are stated for a machine at this
/// speed, whatever the machine was doing while it ran.
const SORT_REFERENCE_NS: f64 = 250_000.0;
const LOOKUP_REFERENCE_NS: f64 = 1_700_000.0;

const LOOKUP_KEYS: u64 = 400_000;
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Reference {
    pub fn new() -> Reference {
        let mut x = GOLDEN;
        let source: Vec<u64> = (0..16_384)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            scratch: source.clone(),
            source,
            map: (0..LOOKUP_KEYS)
                .map(|i| (i.wrapping_mul(GOLDEN), i))
                .collect(),
        }
    }

    fn sort(&mut self) -> u64 {
        self.scratch.copy_from_slice(&self.source);
        self.scratch.sort_unstable();
        self.scratch[77]
    }

    fn lookups(&self) -> u64 {
        (0..40_000u64).fold(0, |sum, i| {
            let key = (i * 7_919 % LOOKUP_KEYS).wrapping_mul(GOLDEN);
            sum.wrapping_add(self.map[&key])
        })
    }

    /// How many times slower than the reference machine this machine is
    /// right now. Each kernel runs twice and the second run is timed, so
    /// that what the workload left in the caches does not count.
    pub fn slowdown(&mut self) -> f64 {
        let (mut sort_ns, mut lookup_ns) = (0.0, 0.0);
        for _ in 0..2 {
            let t0 = Instant::now();
            std::hint::black_box(self.sort());
            let t1 = Instant::now();
            std::hint::black_box(self.lookups());
            sort_ns = (t1 - t0).as_nanos() as f64;
            lookup_ns = t1.elapsed().as_nanos() as f64;
        }
        ((sort_ns / SORT_REFERENCE_NS) * (lookup_ns / LOOKUP_REFERENCE_NS)).sqrt()
    }
}

/// What is kept of a round once it is over: a few numbers, so that the
/// harness's memory does not grow with the number of rounds. Times are
/// already divided by the machine's slowdown while the round ran.
pub struct RoundStat {
    pub dur_ns: f64,
    pub read_p50_ns: f64,
    pub write_p50_ns: f64,
    pub reads: u64,
    pub writes: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub disk_bytes: u64,
    pub slowdown: f64,
}

impl RoundStat {
    pub fn of(r: &Round, slowdown: f64) -> RoundStat {
        RoundStat {
            dur_ns: r.dur_ns as f64 / slowdown,
            read_p50_ns: r.read.quantile(0.5) / slowdown,
            write_p50_ns: r.write.quantile(0.5) / slowdown,
            reads: r.read.len(),
            writes: r.write.len(),
            allocs: r.allocs,
            alloc_bytes: r.alloc_bytes,
            disk_bytes: r.disk_bytes,
            slowdown,
        }
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// `rounds` split into the faster half (rounded up) and the rest.
fn quiet_and_slow(rounds: &[RoundStat]) -> (Vec<&RoundStat>, Vec<&RoundStat>) {
    let mut by_dur: Vec<&RoundStat> = rounds.iter().collect();
    by_dur.sort_by(|a, b| a.dur_ns.total_cmp(&b.dur_ns));
    let slow = by_dur.split_off(rounds.len().div_ceil(2));
    (by_dur, slow)
}

/// The estimators over the measured rounds of one run.
pub struct Summary {
    pub rounds: usize,
    pub rounds_quiet: usize,
    pub ops_per_s: f64,
    pub read_p50_us: f64,
    pub read_samples: u64,
    pub write_p50_us: f64,
    pub write_samples: u64,
    /// Over all measured rounds, the slow half included: this is the tail.
    pub write_p99_us: f64,
    pub allocs_per_op: f64,
    pub alloc_bytes_per_op: f64,
    pub disk_bytes_per_op: f64,
    /// Median duration of the slower half over that of the quiet half.
    pub slow_round_ratio: f64,
    /// Coefficient of variation of the quiet rounds' durations.
    pub round_cv_pct: f64,
    /// Quiet-round median duration of the last third of the rounds
    /// against the first third.
    pub drift_pct: f64,
    /// Allocations per round, last third against first third: the same
    /// comparison on a count the machine cannot disturb.
    pub work_drift_pct: f64,
    /// Median slowdown of the machine over the rounds.
    pub machine_slowdown: f64,
}

/// `all_writes` holds every write latency of the measured rounds, as
/// measured.
pub fn summarise(rounds: &[RoundStat], all_writes: &Hist, ops_per_round: usize) -> Summary {
    let n = rounds.len();
    let ops = ops_per_round as f64;
    let (quiet, slow) = quiet_and_slow(rounds);
    let quiet_dur = median_of(&quiet, |r| r.dur_ns);
    let machine_slowdown = median_of(rounds, |r| r.slowdown);

    let third = (n / 3).max(1);
    let (first, last) = (&rounds[..third], &rounds[n - third..]);
    let quiet_dur_of = |part| median_of(&quiet_and_slow(part).0, |r| r.dur_ns);
    let allocs_of = |part| median_of(part, |r: &RoundStat| r.allocs as f64);

    let mean = quiet.iter().map(|r| r.dur_ns).sum::<f64>() / quiet.len() as f64;
    let var = quiet.iter().map(|r| (r.dur_ns - mean).powi(2)).sum::<f64>() / quiet.len() as f64;
    Summary {
        rounds: n,
        rounds_quiet: quiet.len(),
        ops_per_s: ops / (quiet_dur / 1e9),
        read_p50_us: median_of(&quiet, |r| r.read_p50_ns) / 1e3,
        read_samples: quiet.iter().map(|r| r.reads).sum(),
        write_p50_us: median_of(&quiet, |r| r.write_p50_ns) / 1e3,
        write_samples: quiet.iter().map(|r| r.writes).sum(),
        write_p99_us: all_writes.quantile(0.99) / machine_slowdown / 1e3,
        allocs_per_op: median_of(rounds, |r| r.allocs as f64) / ops,
        alloc_bytes_per_op: median_of(rounds, |r| r.alloc_bytes as f64) / ops,
        disk_bytes_per_op: median_of(rounds, |r| r.disk_bytes as f64) / ops,
        slow_round_ratio: if slow.is_empty() {
            1.0
        } else {
            median_of(&slow, |r| r.dur_ns) / quiet_dur
        },
        round_cv_pct: var.sqrt() / mean * 100.0,
        drift_pct: (quiet_dur_of(last) / quiet_dur_of(first) - 1.0) * 100.0,
        work_drift_pct: (allocs_of(last) / allocs_of(first) - 1.0) * 100.0,
        machine_slowdown,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The cost of one `Instant::now()` pair, the harness's own share of
/// every operation's latency.
pub fn timer_ns() -> f64 {
    let mut h = Hist::new();
    for _ in 0..20_000 {
        let t0 = Instant::now();
        h.record(std::hint::black_box(t0.elapsed().as_nanos() as u64));
    }
    h.quantile(0.5)
}
