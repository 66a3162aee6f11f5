//! Causal span tracing with context propagation.
//!
//! The metrics registry answers *how much*; this module answers *why*:
//! every recorded moment belongs to a **trace**
//! (one per sampled statement) and a **span tree** within it, so a
//! commit's latency can be attributed across the undo journal, the
//! group-commit convoy fsync, snapshot publication, and replica apply —
//! the same provenance question the paper's derived-update semantics
//! asks of data ("which base update caused this derived change"),
//! asked of time.
//!
//! # Context propagation
//!
//! A [`SpanCtx`] (trace id + span id) is minted per statement by the
//! language layer and propagated through the engine on a thread-local
//! context stack rather than through function signatures: any layer can
//! open a [`child_span`] and it parents under whatever is innermost on
//! the calling thread. Cross-thread causality (a group-commit follower
//! covered by another writer's leader fsync; a replica applying frames
//! shipped from a primary) is carried explicitly as a **link**: the
//! follower records the covering leader's fsync span id, the shipped
//! batch carries the primary's trace id as an annotation *next to* the
//! frame bytes (never inside — frame bytes are identity-checked by
//! CRC).
//!
//! # Sampling and the hot-path contract
//!
//! Tracing is on by default at 1-in-[`DEFAULT_SAMPLE_RATE`] statements.
//! An **unsampled** statement costs two relaxed atomic loads and one
//! relaxed RMW at mint time and an empty thread-local peek per child
//! span: no allocation, no lock, and the lazy detail closures are never
//! called. Sampled spans pay one short mutex hold each at open and
//! close. `TRACE ON [SAMPLE n]` / `TRACE OFF` adjust this at runtime.
//!
//! # The ring
//!
//! Completed spans land in a bounded pre-allocated ring (the **flight
//! recorder**, see [`crate::flight`] for the crash-dump side); spans
//! still open live in a side table so a dump taken mid-flight can
//! report them as `interrupted` rather than silently dropping them.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default statement sampling rate: 1 in this many statements mints a
/// trace. `TRACE ON` sets the rate to 1 (every statement).
pub const DEFAULT_SAMPLE_RATE: u64 = 64;

/// Default flight-recorder ring capacity (completed spans retained).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Slow-query log retention (entries).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// Default slow-query threshold: statements slower than this are
/// captured in the slow log (`SHOW SLOW`). Configurable via
/// `TRACE SLOW <ms>` / `TRACE SLOW OFF`.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 250_000_000;

// ---------------------------------------------------------------------
// Global tracing configuration (relaxed atomics — hot-path gates).
// ---------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(true);
static SAMPLE_RATE: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_RATE);
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// `true` if causal tracing is currently enabled (`TRACE ON`). Gated
/// additionally by the master [`crate::enabled`] flag.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed) && crate::enabled()
}

/// Turns causal tracing on or off (`TRACE ON` / `TRACE OFF`).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Current statement sampling rate (1 = every statement).
pub fn sample_rate() -> u64 {
    SAMPLE_RATE.load(Ordering::Relaxed)
}

/// Sets the statement sampling rate (clamped to ≥ 1).
pub fn set_sample_rate(n: u64) {
    SAMPLE_RATE.store(n.max(1), Ordering::Relaxed);
}

thread_local! {
    /// The propagation stack: innermost sampled span context on top.
    static CTX: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
    /// Small dense per-thread id, assigned on first sampled span.
    static LANE: Cell<u64> = const { Cell::new(0) };
}

fn lane_id() -> u64 {
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

/// A propagated span context: which trace, and which span within it, is
/// currently executing on this thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// Trace id (one per sampled statement; never 0).
    pub trace_id: u64,
    /// The innermost open span's id (never 0).
    pub span_id: u64,
}

/// The innermost sampled span context on this thread, if any.
pub fn current_ctx() -> Option<SpanCtx> {
    CTX.with(|c| c.borrow().last().copied())
}

/// The current trace id, or 0 when the executing statement is
/// unsampled. Used to annotate cross-boundary carriers (shipped
/// replication batches).
pub fn current_trace_id() -> u64 {
    current_ctx().map_or(0, |c| c.trace_id)
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Completed with an error surfaced to the caller.
    Error,
    /// Still open when the flight recorder dumped (crash / fault cut).
    Interrupted,
}

impl SpanStatus {
    /// Lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
            SpanStatus::Interrupted => "interrupted",
        }
    }
}

/// One completed (or interrupted) span in the flight-recorder ring.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Completion order (monotone; gaps only across `clear`).
    pub seq: u64,
    /// Open order (monotone across all threads) — sorting by this
    /// yields parents before children deterministically.
    pub start_seq: u64,
    /// Owning trace.
    pub trace_id: u64,
    /// This span's id (unique per process run; never 0).
    pub span_id: u64,
    /// Parent span id within the trace; 0 for a root span.
    pub parent_span: u64,
    /// Cross-thread causal link (covering leader fsync span, shipped
    /// primary trace); 0 when none.
    pub link_span: u64,
    /// Dense per-thread lane id (Chrome `tid`).
    pub lane: u64,
    /// Static dotted name (`fdb.commit.group_fsync_lead`).
    pub name: &'static str,
    /// Free-form detail plus ` key=value` annotations.
    pub detail: String,
    /// Nanoseconds since the recorder's epoch at open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// How the span ended.
    pub status: SpanStatus,
}

/// A statement captured by the slow-query log.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Monotone slow-log sequence number.
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch.
    pub at_ns: u64,
    /// Trace id when the statement was sampled, 0 otherwise.
    pub trace_id: u64,
    /// The statement text.
    pub statement: String,
    /// Wall time, nanoseconds.
    pub latency_ns: u64,
    /// Plan / attribution lines captured at close (empty if unsampled).
    pub attribution: String,
}

struct OpenSpan {
    start_seq: u64,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    link_span: u64,
    lane: u64,
    name: &'static str,
    detail: String,
    start_ns: u64,
}

struct CausalRing {
    spans: VecDeque<SpanRecord>,
    next_seq: u64,
    dropped: u64,
}

struct SlowRing {
    entries: VecDeque<SlowEntry>,
    next_seq: u64,
}

/// The causal flight-recorder core: a bounded ring of completed spans,
/// a table of still-open spans, and the slow-query log. Reach the
/// process-wide instance through [`recorder`].
pub struct CausalRecorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<CausalRing>,
    open: Mutex<Vec<OpenSpan>>,
    start_seq: AtomicU64,
    slow: Mutex<SlowRing>,
    slow_threshold_ns: AtomicU64,
}

fn lock_or_inner<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        // Recording plain data can't corrupt the structures; keep
        // tracing through poison (a panicking thread is exactly when
        // the flight recorder matters most).
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl CausalRecorder {
    /// A recorder with [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder retaining at most `capacity` completed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        CausalRecorder {
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(CausalRing {
                spans: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
            open: Mutex::new(Vec::new()),
            start_seq: AtomicU64::new(0),
            slow: Mutex::new(SlowRing {
                entries: VecDeque::with_capacity(SLOW_LOG_CAPACITY),
                next_seq: 0,
            }),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(
        &self,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
        name: &'static str,
        detail: String,
    ) {
        let entry = OpenSpan {
            start_seq: self.start_seq.fetch_add(1, Ordering::Relaxed),
            trace_id,
            span_id,
            parent_span,
            link_span: 0,
            lane: lane_id(),
            name,
            detail,
            start_ns: self.now_ns(),
        };
        lock_or_inner(&self.open).push(entry);
    }

    fn annotate(&self, span_id: u64, key: &str, value: &str) {
        let mut open = lock_or_inner(&self.open);
        if let Some(o) = open.iter_mut().find(|o| o.span_id == span_id) {
            o.detail.push(' ');
            o.detail.push_str(key);
            o.detail.push('=');
            o.detail.push_str(value);
        }
    }

    fn link(&self, span_id: u64, target: u64) {
        let mut open = lock_or_inner(&self.open);
        if let Some(o) = open.iter_mut().find(|o| o.span_id == span_id) {
            o.link_span = target;
        }
    }

    fn push_record(ring: &mut CausalRing, capacity: usize, record: SpanRecord) {
        if ring.spans.len() == capacity {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(record);
    }

    fn finish(&self, span_id: u64, status: SpanStatus) {
        let entry = {
            let mut open = lock_or_inner(&self.open);
            match open.iter().position(|o| o.span_id == span_id) {
                Some(i) => open.swap_remove(i),
                // Cleared mid-flight (STATS RESET): the span vanishes.
                None => return,
            }
        };
        let now = self.now_ns();
        let mut ring = lock_or_inner(&self.ring);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        Self::push_record(
            &mut ring,
            self.capacity,
            SpanRecord {
                seq,
                start_seq: entry.start_seq,
                trace_id: entry.trace_id,
                span_id: entry.span_id,
                parent_span: entry.parent_span,
                link_span: entry.link_span,
                lane: entry.lane,
                name: entry.name,
                detail: entry.detail,
                start_ns: entry.start_ns,
                dur_ns: now.saturating_sub(entry.start_ns),
                status,
            },
        );
    }

    /// Completed spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        lock_or_inner(&self.ring).spans.iter().cloned().collect()
    }

    /// Completed spans belonging to `trace_id`, oldest first.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        lock_or_inner(&self.ring)
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Spans completed-and-overwritten by the ring so far.
    pub fn dropped(&self) -> u64 {
        lock_or_inner(&self.ring).dropped
    }

    /// Still-open spans rendered as `interrupted` records at `now` —
    /// what a crash dump must show for work cut mid-flight.
    pub fn interrupted(&self) -> Vec<SpanRecord> {
        let now = self.now_ns();
        lock_or_inner(&self.open)
            .iter()
            .map(|o| SpanRecord {
                seq: u64::MAX,
                start_seq: o.start_seq,
                trace_id: o.trace_id,
                span_id: o.span_id,
                parent_span: o.parent_span,
                link_span: o.link_span,
                lane: o.lane,
                name: o.name,
                detail: o.detail.clone(),
                start_ns: o.start_ns,
                dur_ns: now.saturating_sub(o.start_ns),
                status: SpanStatus::Interrupted,
            })
            .collect()
    }

    /// Discards all retained spans — completed, open, and slow-log
    /// entries (`STATS RESET`). Guards of open spans become inert.
    pub fn clear(&self) {
        lock_or_inner(&self.ring).spans.clear();
        lock_or_inner(&self.open).clear();
        lock_or_inner(&self.slow).entries.clear();
    }

    /// The slow-query threshold in nanoseconds, or `None` when the slow
    /// log is disabled.
    pub fn slow_threshold_ns(&self) -> Option<u64> {
        match self.slow_threshold_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            n => Some(n),
        }
    }

    /// Sets (or with `None` disables) the slow-query threshold.
    pub fn set_slow_threshold_ns(&self, threshold: Option<u64>) {
        self.slow_threshold_ns
            .store(threshold.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// Captures one slow statement (caller checked the threshold).
    pub fn record_slow(
        &self,
        statement: String,
        latency_ns: u64,
        trace_id: u64,
        attribution: String,
    ) {
        let at_ns = self.now_ns();
        let mut slow = lock_or_inner(&self.slow);
        if slow.entries.len() == SLOW_LOG_CAPACITY {
            slow.entries.pop_front();
        }
        let seq = slow.next_seq;
        slow.next_seq += 1;
        slow.entries.push_back(SlowEntry {
            seq,
            at_ns,
            trace_id,
            statement,
            latency_ns,
            attribution,
        });
    }

    /// The retained slow-query entries, oldest first.
    pub fn slow_entries(&self) -> Vec<SlowEntry> {
        lock_or_inner(&self.slow).entries.iter().cloned().collect()
    }
}

impl Default for CausalRecorder {
    fn default() -> Self {
        CausalRecorder::new()
    }
}

impl std::fmt::Debug for CausalRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalRecorder")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// The process-wide causal recorder / flight-recorder ring.
pub fn recorder() -> &'static CausalRecorder {
    static RECORDER: OnceLock<CausalRecorder> = OnceLock::new();
    RECORDER.get_or_init(CausalRecorder::new)
}

// ---------------------------------------------------------------------
// Span guards and creation.
// ---------------------------------------------------------------------

struct ActiveSpan {
    ctx: SpanCtx,
}

/// Guard for one causal span: pops the propagation stack and records
/// the span on drop. Inert (all methods no-ops) when the owning
/// statement was unsampled.
#[must_use = "a causal span records its duration when dropped"]
pub struct CausalSpan {
    active: Option<ActiveSpan>,
    status: SpanStatus,
}

impl CausalSpan {
    const INERT: CausalSpan = CausalSpan {
        active: None,
        status: SpanStatus::Ok,
    };

    /// `true` when this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.ctx.span_id)
    }

    /// This span's context (None when inert).
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.active.as_ref().map(|a| a.ctx)
    }

    /// Appends a ` key=value` annotation to the span's detail.
    pub fn annotate(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(a) = &self.active {
            recorder().annotate(a.ctx.span_id, key, &value.to_string());
        }
    }

    /// Records a cross-thread causal link to another span (e.g. the
    /// leader fsync that covered this follower).
    pub fn link_to(&self, target_span: u64) {
        if let Some(a) = &self.active {
            if target_span != 0 {
                recorder().link(a.ctx.span_id, target_span);
            }
        }
    }

    /// Marks the span as having ended in an error.
    pub fn set_error(&mut self) {
        self.status = SpanStatus::Error;
    }
}

impl Drop for CausalSpan {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            CTX.with(|c| {
                let mut stack = c.borrow_mut();
                // Pop our own frame; a mid-flight `clear` can't remove
                // it (clear touches the recorder, not the TLS stack),
                // so top-of-stack is ours by construction.
                if stack.last().map(|t| t.span_id) == Some(a.ctx.span_id) {
                    stack.pop();
                }
            });
            recorder().finish(a.ctx.span_id, self.status);
        }
    }
}

impl std::fmt::Debug for CausalSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalSpan")
            .field("recording", &self.is_recording())
            .finish()
    }
}

fn open_under(
    trace_id: u64,
    parent_span: u64,
    name: &'static str,
    detail: impl FnOnce() -> String,
) -> CausalSpan {
    let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let ctx = SpanCtx { trace_id, span_id };
    recorder().open_span(trace_id, span_id, parent_span, name, detail());
    CTX.with(|c| c.borrow_mut().push(ctx));
    CausalSpan {
        active: Some(ActiveSpan { ctx }),
        status: SpanStatus::Ok,
    }
}

/// Mints a statement-level span: the root of a fresh trace when this
/// statement wins the sampling draw, a child span when a sampled
/// context is already on the stack (nested statements, e.g. `SOURCE`),
/// and inert otherwise. The draw consumes one sampling tick either way,
/// so 1-in-N holds statement-wise.
pub fn statement_span(name: &'static str, detail: impl FnOnce() -> String) -> CausalSpan {
    if let Some(parent) = current_ctx() {
        return open_under(parent.trace_id, parent.span_id, name, detail);
    }
    if !tracing_enabled() {
        return CausalSpan::INERT;
    }
    let rate = SAMPLE_RATE.load(Ordering::Relaxed);
    let tick = SAMPLE_TICK.fetch_add(1, Ordering::Relaxed);
    if rate > 1 && !tick.is_multiple_of(rate) {
        return CausalSpan::INERT;
    }
    let trace_id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    open_under(trace_id, 0, name, detail)
}

/// Opens a span that bypasses statement sampling: a child when a
/// context is already on the stack, otherwise the root of a fresh
/// trace whenever tracing is enabled. For rare, load-bearing moments —
/// recovery, failover promotion — that should never lose the draw.
pub fn root_span(name: &'static str, detail: impl FnOnce() -> String) -> CausalSpan {
    if let Some(parent) = current_ctx() {
        return open_under(parent.trace_id, parent.span_id, name, detail);
    }
    if !tracing_enabled() {
        return CausalSpan::INERT;
    }
    let trace_id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    open_under(trace_id, 0, name, detail)
}

/// Opens a child span under the innermost context on this thread; inert
/// when the executing statement is unsampled (no context). The detail
/// closure is only called when recording.
pub fn child_span(name: &'static str, detail: impl FnOnce() -> String) -> CausalSpan {
    match current_ctx() {
        Some(parent) => open_under(parent.trace_id, parent.span_id, name, detail),
        None => CausalSpan::INERT,
    }
}

/// Opens a root span adopted into a foreign trace — a replica applying
/// frames shipped by a primary joins the primary's trace so the whole
/// path renders on one timeline. Falls back to [`statement_span`]
/// sampling when `trace_id` is 0 (unsampled at the source).
pub fn adopted_span(
    trace_id: u64,
    name: &'static str,
    detail: impl FnOnce() -> String,
) -> CausalSpan {
    if trace_id == 0 {
        return statement_span(name, detail);
    }
    if !tracing_enabled() {
        return CausalSpan::INERT;
    }
    open_under(trace_id, 0, name, detail)
}

/// Records an instantaneous (zero-duration) event under the innermost
/// context; a no-op when the statement is unsampled.
pub fn point(name: &'static str, detail: impl FnOnce() -> String) {
    if current_ctx().is_some() {
        drop(child_span(name, detail));
    }
}

// ---------------------------------------------------------------------
// Exporters: text, Chrome trace-event JSON.
// ---------------------------------------------------------------------

/// Escapes `s` into `out` as JSON string *contents* (no quotes).
pub(crate) fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Human-readable rendering of the recorded spans (`SHOW TRACE`):
/// one line per span, oldest first, indented nothing — ids make the
/// tree explicit and greppable.
pub fn render_spans_text(spans: &[SpanRecord]) -> String {
    if spans.is_empty() {
        return "no spans recorded\n".to_string();
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "trace={} span={} parent={} {:<32} {:>10}ns {}",
            s.trace_id,
            s.span_id,
            s.parent_span,
            s.name,
            s.dur_ns,
            s.status.label(),
        ));
        if s.link_span != 0 {
            out.push_str(&format!(" link={}", s.link_span));
        }
        if !s.detail.is_empty() {
            out.push_str("  ");
            out.push_str(&s.detail);
        }
        out.push('\n');
    }
    out
}

/// Renders one slow-log (`SHOW SLOW`) listing.
pub fn render_slow_text(entries: &[SlowEntry]) -> String {
    if entries.is_empty() {
        return "no slow statements recorded\n".to_string();
    }
    let mut out = String::with_capacity(entries.len() * 128);
    for e in entries {
        out.push_str(&format!(
            "#{} {:.3}ms trace={} {}\n",
            e.seq,
            e.latency_ns as f64 / 1e6,
            e.trace_id,
            e.statement,
        ));
        for line in e.attribution.lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Dense first-appearance remapping: raw ids (trace/span/lane) become
/// small integers in encounter order, so the exported JSON is
/// byte-stable for a fixed workload regardless of what else ran in the
/// process before it.
#[derive(Default)]
struct Remap {
    ids: Vec<u64>,
}

impl Remap {
    fn map(&mut self, raw: u64) -> u64 {
        if raw == 0 {
            return 0;
        }
        if let Some(i) = self.ids.iter().position(|&r| r == raw) {
            return i as u64 + 1;
        }
        self.ids.push(raw);
        self.ids.len() as u64
    }
}

/// Exports spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete (`ph:"X"`) event per span — `pid` is the
/// remapped trace id, `tid` the remapped thread lane, timestamps in
/// microseconds — plus `s`/`f` flow events binding cross-thread links
/// (leader fsync → covered follower). Each event sits on its own line
/// with `ts`/`dur` last, so a golden test can normalise timestamps
/// textually. With `redact_times` all `ts`/`dur` are emitted as 0 and
/// events are ordered by open order, making the output byte-stable.
pub fn chrome_trace(spans: &[SpanRecord], redact_times: bool) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| s.start_seq);
    let mut traces = Remap::default();
    let mut lanes = Remap::default();
    let mut ids = Remap::default();
    let link_targets: Vec<u64> = sorted
        .iter()
        .filter(|s| s.link_span != 0)
        .map(|s| s.link_span)
        .collect();
    let mut out = String::with_capacity(spans.len() * 160 + 32);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for s in &sorted {
        let pid = traces.map(s.trace_id);
        let tid = lanes.map(s.lane);
        let id = ids.map(s.span_id);
        let parent = ids.map(s.parent_span);
        let link = ids.map(s.link_span);
        let (ts, dur) = if redact_times {
            (0, 0)
        } else {
            (s.start_ns / 1_000, s.dur_ns / 1_000)
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"fdb\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"span\":{id},\"parent\":{parent},\"link\":{link},\"status\":\"{}\",\"detail\":\"",
            s.name,
            s.status.label(),
        ));
        escape_json_into(&mut out, &s.detail);
        out.push_str(&format!("\"}},\"ts\":{ts},\"dur\":{dur}}}"));
        // Flow events render the causal link as an arrow on the Chrome
        // timeline: a flow starts at the link target (the leader fsync)
        // and finishes at the linking span (the covered follower).
        if link_targets.contains(&s.span_id) {
            out.push_str(&format!(
                ",\n{{\"name\":\"link\",\"cat\":\"fdb\",\"ph\":\"s\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
            ));
        }
        if s.link_span != 0 {
            out.push_str(&format!(
                ",\n{{\"name\":\"link\",\"cat\":\"fdb\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{link},\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset_tls() {
        CTX.with(|c| c.borrow_mut().clear());
    }

    #[test]
    fn unsampled_statement_is_inert_and_lazy() {
        crate::set_enabled(true);
        reset_tls();
        set_tracing(false);
        let span = statement_span("fdb.test.stmt", || unreachable!("detail must stay lazy"));
        assert!(!span.is_recording());
        assert_eq!(span.id(), 0);
        let child = child_span("fdb.test.child", || unreachable!("detail must stay lazy"));
        assert!(!child.is_recording());
        drop(child);
        drop(span);
        set_tracing(true);
    }

    #[test]
    fn sampled_statement_nests_children_and_records() {
        crate::set_enabled(true);
        reset_tls();
        set_tracing(true);
        set_sample_rate(1);
        let before = recorder().recent().len();
        let stmt = statement_span("fdb.test.stmt", || "outer".to_string());
        assert!(stmt.is_recording());
        let trace_id = stmt.ctx().expect("recording").trace_id;
        {
            let child = child_span("fdb.test.child", || "inner".to_string());
            assert_eq!(child.ctx().expect("recording").trace_id, trace_id);
            child.annotate("rows", 7);
        }
        drop(stmt);
        let spans = recorder().recent();
        assert!(spans.len() >= before + 2);
        let child = spans
            .iter()
            .find(|s| s.trace_id == trace_id && s.name == "fdb.test.child")
            .expect("child recorded");
        assert!(child.detail.contains("rows=7"));
        let stmt_rec = spans
            .iter()
            .find(|s| s.trace_id == trace_id && s.name == "fdb.test.stmt")
            .expect("stmt recorded");
        assert_eq!(child.parent_span, stmt_rec.span_id);
        assert_eq!(stmt_rec.parent_span, 0);
        set_sample_rate(DEFAULT_SAMPLE_RATE);
    }

    #[test]
    fn adopted_span_joins_foreign_trace() {
        crate::set_enabled(true);
        reset_tls();
        set_tracing(true);
        let span = adopted_span(999_999, "fdb.test.adopt", || "apply".to_string());
        assert_eq!(span.ctx().expect("recording").trace_id, 999_999);
        drop(span);
        let spans = recorder().trace(999_999);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent_span, 0);
    }

    #[test]
    fn interrupted_spans_surface_open_work() {
        crate::set_enabled(true);
        reset_tls();
        set_tracing(true);
        set_sample_rate(1);
        let stmt = statement_span("fdb.test.open", || "in flight".to_string());
        let open = recorder().interrupted();
        assert!(open
            .iter()
            .any(|s| s.span_id == stmt.id() && s.status == SpanStatus::Interrupted));
        drop(stmt);
        set_sample_rate(DEFAULT_SAMPLE_RATE);
    }

    #[test]
    fn chrome_export_remaps_ids_and_redacts_times() {
        let spans = vec![
            SpanRecord {
                seq: 0,
                start_seq: 10,
                trace_id: 777,
                span_id: 501,
                parent_span: 0,
                link_span: 0,
                lane: 42,
                name: "fdb.test.a",
                detail: "he said \"hi\"\n".to_string(),
                start_ns: 1000,
                dur_ns: 500,
                status: SpanStatus::Ok,
            },
            SpanRecord {
                seq: 1,
                start_seq: 11,
                trace_id: 777,
                span_id: 502,
                parent_span: 501,
                link_span: 501,
                lane: 43,
                name: "fdb.test.b",
                detail: String::new(),
                start_ns: 1200,
                dur_ns: 100,
                status: SpanStatus::Error,
            },
        ];
        let json = chrome_trace(&spans, true);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"span\":1"));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"link\":1"));
        assert!(json.contains("\\\"hi\\\"\\n"));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(!json.contains("777"), "raw ids must be remapped");
        assert!(json.contains("\"ts\":0,\"dur\":0"));
        // Identical modulo raw ids: a second export of renumbered spans
        // is byte-identical.
        let mut renumbered = spans.clone();
        for s in &mut renumbered {
            s.trace_id += 1000;
            s.span_id += 1000;
            if s.parent_span != 0 {
                s.parent_span += 1000;
            }
            if s.link_span != 0 {
                s.link_span += 1000;
            }
            s.lane += 7;
        }
        assert_eq!(json, chrome_trace(&renumbered, true));
    }

    #[test]
    fn slow_log_records_and_clears() {
        let rec = CausalRecorder::with_capacity(8);
        assert_eq!(rec.slow_threshold_ns(), Some(DEFAULT_SLOW_THRESHOLD_NS));
        rec.set_slow_threshold_ns(Some(5));
        rec.record_slow(
            "TRUTH grade ...".to_string(),
            9,
            3,
            "plan: forward".to_string(),
        );
        let entries = rec.slow_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].trace_id, 3);
        let text = render_slow_text(&entries);
        assert!(text.contains("TRUTH grade"));
        assert!(text.contains("plan: forward"));
        rec.clear();
        assert!(rec.slow_entries().is_empty());
        rec.set_slow_threshold_ns(None);
        assert_eq!(rec.slow_threshold_ns(), None);
    }
}
