//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced run decomposes every statement into the public calls that
//! make it up and wraps each in a span. Spans on the *statement path*
//! nest under one root per operation and account for the traced wall
//! time; *probes* re-run one layer's public entry point on the same input
//! beside the statement (a plan, an encode, a write to a shadow store) and
//! are kept apart, so they never count as time the statement took.
//!
//! Spans live in memory and are written out when the run ends. Totals are
//! kept for every span; the file holds the first `FILE_SPANS` of them.

use std::fmt::Write as _;
use std::time::Instant;

use crate::harness::Hist;

/// Every span name the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sp {
    // Statement path.
    Op,
    Parse,
    Lower,
    Execute,
    LoggedUpdate,
    LoggedBegin,
    LoggedCommit,
    Truth,
    Pin,
    With,
    SharedTruth,
    Release,
    // Probes.
    Plan,
    ExecTruth,
    ExecImage,
    ExecInverseImage,
    BaseInsert,
    BaseDelete,
    TwinBase,
    DerivedInsert,
    DerivedDelete,
    TxnBegin,
    TxnCommit,
    Rollback,
    WalEncode,
    WalAppend,
    WalSync,
    DetachBig,
    DetachSmall,
    Scratch,
}

const N_SP: usize = Sp::Scratch as usize + 1;

impl Sp {
    pub fn name(self) -> &'static str {
        match self {
            Sp::Op => "op",
            Sp::Parse => "fdb-lang.parse",
            Sp::Lower => "fdb-lang.lower",
            Sp::Execute => "fdb-lang.execute",
            Sp::LoggedUpdate => "fdb-core.durability.update",
            Sp::LoggedBegin => "fdb-core.durability.begin",
            Sp::LoggedCommit => "fdb-core.durability.commit",
            Sp::Truth => "fdb-core.query.truth",
            Sp::Pin => "fdb-core.shared.pin",
            Sp::With => "fdb-core.shared.with",
            Sp::SharedTruth => "fdb-core.shared.truth",
            Sp::Release => "fdb-core.shared.release",
            Sp::Plan => "fdb-exec.plan",
            Sp::ExecTruth => "fdb-exec.truth",
            Sp::ExecImage => "fdb-exec.image",
            Sp::ExecInverseImage => "fdb-exec.inverse_image",
            Sp::BaseInsert => "fdb-storage.base_insert",
            Sp::BaseDelete => "fdb-storage.base_delete",
            Sp::TwinBase => "fdb-core.update.base",
            Sp::DerivedInsert => "fdb-core.update.derived_insert",
            Sp::DerivedDelete => "fdb-core.update.derived_delete",
            Sp::TxnBegin => "fdb-core.txn.begin",
            Sp::TxnCommit => "fdb-core.txn.commit",
            Sp::Rollback => "fdb-storage.rollback",
            Sp::WalEncode => "fdb-core.wal.encode",
            Sp::WalAppend => "fdb-core.wal.append",
            Sp::WalSync => "fdb-core.wal.sync",
            Sp::DetachBig => "fdb-storage.detach_big",
            Sp::DetachSmall => "fdb-storage.detach_small",
            Sp::Scratch => "probe.scratch",
        }
    }
}

struct Span {
    name: Sp,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    trace_id: u32,
    probe: bool,
}

struct Open {
    name: Sp,
    start_ns: u64,
    probe: bool,
    /// Position in `spans`, when this span goes to the file.
    slot: Option<u32>,
}

/// Spans the trace file holds; totals cover every span regardless.
const FILE_SPANS: usize = 50_000;

pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    /// Durations per span name.
    durs: Vec<Hist>,
    trace_id: u32,
    /// Sum of the statement-path root spans, which is also the sum of
    /// the self times of every statement-path span: a span's self time is
    /// its duration minus its children's.
    pub path_ns: u64,
    /// Time spent on probes, the tracer's own work on them included:
    /// what to take off a traced round's wall time to get its statements'.
    pub probe_wall_ns: u64,
    /// When the open root probe was entered.
    probe_entered_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(FILE_SPANS),
            durs: vec![Hist::new(); N_SP],
            trace_id: 0,
            path_ns: 0,
            probe_wall_ns: 0,
            probe_entered_ns: 0,
        }
    }

    /// Spans opened from now on belong to operation `i` of the script.
    pub fn set_op(&mut self, i: usize) {
        self.trace_id = i as u32;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: Sp, probe: bool) {
        let parent = self.stack.last();
        // A span goes to the file when there is room and its parent went.
        let to_file = self.spans.len() < FILE_SPANS && parent.is_none_or(|p| p.slot.is_some());
        let slot = to_file.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: parent.and_then(|p| p.slot),
                trace_id: self.trace_id,
                probe,
            });
            (self.spans.len() - 1) as u32
        });
        let start_ns = self.now();
        self.stack.push(Open {
            name,
            start_ns,
            probe,
            slot,
        });
    }

    /// Opens a statement-path span under the innermost open one.
    pub fn open(&mut self, name: Sp) {
        self.push(name, false);
    }

    /// Opens a probe span; probes are roots and may nest only in probes.
    pub fn open_probe(&mut self, name: Sp) {
        debug_assert!(self.stack.iter().all(|o| o.probe));
        if self.stack.is_empty() {
            self.probe_entered_ns = self.now();
        }
        self.push(name, true);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn close(&mut self) -> u64 {
        let end_ns = self.now();
        let o = self.stack.pop().expect("close without an open span");
        let dur = end_ns - o.start_ns;
        self.durs[o.name as usize].record(dur);
        if let Some(slot) = o.slot {
            let s = &mut self.spans[slot as usize];
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
        if self.stack.is_empty() {
            if o.probe {
                self.probe_wall_ns += self.now() - self.probe_entered_ns;
            } else {
                self.path_ns += dur;
            }
        }
        dur
    }

    /// Median duration of `name` in nanoseconds, 0 when it never ran.
    pub fn p50_ns(&self, name: Sp) -> f64 {
        self.durs[name as usize].quantile(0.5)
    }

    /// The recorded spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{},\"probe\":{}}}",
                s.name.name(),
                s.start_ns,
                s.end_ns,
                s.trace_id,
                s.probe
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
