//! Execution governor: deadlines, budgets, cooperative cancellation.
//!
//! The paper is explicit that dropping the Unique Form Assumption makes
//! cycle enumeration exponential (§2.2) and that even acyclic maintenance
//! is polynomial of non-trivial degree — so a service that evaluates
//! queries and runs schema analysis on behalf of many users must bound
//! *every* search and degrade gracefully instead of hanging on an
//! adversarial schema.
//!
//! A [`Governor`] is a cheap, cloneable execution context carrying:
//!
//! * a **deadline** (absolute instant, armed when the governor is built),
//! * a **step budget** (loop iterations across the whole call tree),
//! * a **memory budget** (caller-charged units, e.g. retained results),
//! * a **cooperative cancellation token** ([`CancelToken`]) that another
//!   thread — or a Ctrl-C handler — can trip at any time.
//!
//! Work loops call [`Governor::tick`] at loop granularity; coarse loops
//! (one iteration does a lot of work) call [`Governor::check`], which
//! always consults the clock. Both return the typed [`StopReason`] that
//! ended the run. Enumeration APIs wrap their result in [`Outcome`] so a
//! truncated run is a first-class `Exhausted { partial, reason }` value —
//! a *sound prefix* of the full result — never a silent truncation and
//! never a hang.
//!
//! The [`Governance`] trait lets hot loops be generic over "governed or
//! not": [`Ungoverned`] compiles to nothing, so pre-existing ungoverned
//! entry points keep their exact cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdb_types::FdbError;

/// Records a stop in the process-wide metrics registry and passes the
/// reason through. Called on the cold `Err` paths only, so a governed
/// run that completes pays nothing here. A run that keeps polling after
/// its first stop signal (rare — loops break on the first `Err`) counts
/// each delivery, so read these as "stop signals delivered".
fn observe_stop(reason: StopReason) -> StopReason {
    let reg = fdb_obs::registry();
    match reason {
        StopReason::Deadline => reg.governor_stop_deadline.inc(),
        StopReason::Steps => reg.governor_stop_steps.inc(),
        StopReason::Memory => reg.governor_stop_memory.inc(),
        StopReason::Cancelled => reg.governor_stop_cancelled.inc(),
        StopReason::Cap => reg.governor_stop_cap.inc(),
    }
    // Attribute the stop to the statement span that owns this governed
    // run, so SHOW TRACE answers "which query did the budget kill".
    fdb_obs::causal::point("fdb.governor.stop", || format!("reason={reason:?}"));
    reason
}

/// Why a governed computation stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The deadline passed.
    Deadline,
    /// The step budget ran out.
    Steps,
    /// The memory (retained-results) budget ran out.
    Memory,
    /// The cancellation token was tripped.
    Cancelled,
    /// A structural result cap (e.g. `max_paths`) was hit with more
    /// results provably remaining.
    Cap,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Deadline => write!(f, "deadline exceeded"),
            StopReason::Steps => write!(f, "step budget exhausted"),
            StopReason::Memory => write!(f, "memory budget exhausted"),
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::Cap => write!(f, "result cap reached"),
        }
    }
}

impl StopReason {
    /// The [`FdbError`] this stop maps to, with `what` naming the
    /// interrupted operation.
    pub fn into_error(self, what: &str) -> FdbError {
        match self {
            StopReason::Deadline => FdbError::DeadlineExceeded(what.to_owned()),
            StopReason::Cancelled => FdbError::Cancelled,
            StopReason::Steps | StopReason::Memory | StopReason::Cap => {
                FdbError::BudgetExhausted(format!("{what}: {self}"))
            }
        }
    }
}

/// A declarative resource budget, turned into a live [`Governor`] by
/// [`Governor::new`]. All limits default to "unlimited".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock allowance, armed (made absolute) when the governor is
    /// built.
    pub deadline: Option<Duration>,
    /// Maximum number of [`Governor::tick`] calls.
    pub max_steps: Option<u64>,
    /// Maximum units charged via [`Governor::charge`].
    pub max_memory_units: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub fn unbounded() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock allowance.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the step cap.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Sets the memory-unit cap.
    pub fn with_max_memory_units(mut self, n: u64) -> Self {
        self.max_memory_units = Some(n);
        self
    }
}

/// A cloneable handle that trips a governor's cooperative cancellation.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation: every governor sharing this token reports
    /// [`StopReason::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Clears the token so it can be reused (REPL-style: one token,
    /// reset between statements). Returns `true` if it was tripped.
    pub fn reset(&self) -> bool {
        self.flag.swap(false, Ordering::AcqRel)
    }
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    max_steps: u64,
    max_memory: u64,
    steps: AtomicU64,
    memory: AtomicU64,
    cancel: Arc<AtomicBool>,
}

/// How often [`Governor::tick`] consults the wall clock: every
/// `TIME_CHECK_STRIDE` ticks. Loop bodies are tens of nanoseconds at the
/// smallest, so the deadline overshoot this introduces is microseconds.
const TIME_CHECK_STRIDE: u64 = 16;

/// A live execution context: budgets armed, counters shared across
/// clones, cancellation shared with its [`CancelToken`].
///
/// Cloning is one `Arc` bump; clones observe the *same* budgets and
/// counters, so a governor handed to helper calls still bounds the whole
/// request.
#[derive(Clone, Debug)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::unbounded()
    }
}

impl Governor {
    /// Arms `budget` now (the deadline becomes absolute) with a fresh
    /// cancellation token.
    pub fn new(budget: Budget) -> Self {
        Governor::with_cancel(budget, &CancelToken::new())
    }

    /// Arms `budget` now, sharing cancellation with `token` — trip the
    /// token and this governor stops.
    pub fn with_cancel(budget: Budget, token: &CancelToken) -> Self {
        Governor {
            inner: Arc::new(Inner {
                deadline: budget.deadline.map(|d| Instant::now() + d),
                max_steps: budget.max_steps.unwrap_or(u64::MAX),
                max_memory: budget.max_memory_units.unwrap_or(u64::MAX),
                steps: AtomicU64::new(0),
                memory: AtomicU64::new(0),
                cancel: Arc::clone(&token.flag),
            }),
        }
    }

    /// A governor with no limits (but still cancellable via its token).
    pub fn unbounded() -> Self {
        Governor::new(Budget::unbounded())
    }

    /// A governor with only a wall-clock deadline.
    pub fn with_deadline(d: Duration) -> Self {
        Governor::new(Budget::unbounded().with_deadline(d))
    }

    /// A governor with only a step cap.
    pub fn with_max_steps(n: u64) -> Self {
        Governor::new(Budget::unbounded().with_max_steps(n))
    }

    /// A child governor for a sub-operation: fresh counters under
    /// `budget`, deadline clamped to not outlive this governor's, and
    /// the *same* cancellation flag (cancelling the parent cancels the
    /// child).
    pub fn child(&self, budget: Budget) -> Governor {
        let child_deadline = budget.deadline.map(|d| Instant::now() + d);
        let deadline = match (self.inner.deadline, child_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Governor {
            inner: Arc::new(Inner {
                deadline,
                max_steps: budget.max_steps.unwrap_or(u64::MAX),
                max_memory: budget.max_memory_units.unwrap_or(u64::MAX),
                steps: AtomicU64::new(0),
                memory: AtomicU64::new(0),
                cancel: Arc::clone(&self.inner.cancel),
            }),
        }
    }

    /// A token that cancels this governor (and every clone/child).
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.inner.cancel),
        }
    }

    /// Steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Time left before the deadline (`None` if no deadline is set;
    /// `Some(ZERO)` once it has passed).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|dl| dl.saturating_duration_since(Instant::now()))
    }

    /// `true` once the deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        matches!(self.inner.deadline, Some(dl) if Instant::now() > dl)
    }

    #[inline]
    fn stop_if_cancelled_or_late(&self, consult_clock: bool) -> Result<(), StopReason> {
        if self.inner.cancel.load(Ordering::Relaxed) {
            return Err(StopReason::Cancelled);
        }
        if consult_clock {
            if let Some(dl) = self.inner.deadline {
                if Instant::now() > dl {
                    return Err(StopReason::Deadline);
                }
            }
        }
        Ok(())
    }
}

/// The interface work loops use; generic code bounds on this so the
/// [`Ungoverned`] instantiation costs nothing.
pub trait Governance {
    /// Hot-path check: counts one step, fails fast on budget/cancel,
    /// consults the clock every few steps. Call once per loop iteration.
    fn tick(&self) -> Result<(), StopReason>;

    /// Coarse check: always consults the clock, never counts a step.
    /// Call in loops whose single iteration does a lot of work.
    fn check(&self) -> Result<(), StopReason>;

    /// Charges `units` against the memory budget (e.g. one retained
    /// result). Call when appending to an output collection.
    fn charge(&self, units: u64) -> Result<(), StopReason>;
}

impl Governance for Governor {
    #[inline]
    fn tick(&self) -> Result<(), StopReason> {
        // Weak increment (load + store instead of an atomic RMW): a `lock
        // xadd` per loop iteration costs more than the whole rest of the
        // check. When several threads tick the *same* governor, increments
        // can be lost and the step budget overshoots by at most the number
        // of concurrent tickers — budgets are resource heuristics, not
        // exact semantics, and single-threaded counting (what the budget
        // monotonicity properties rely on) stays precise.
        let steps = self.inner.steps.load(Ordering::Relaxed) + 1;
        self.inner.steps.store(steps, Ordering::Relaxed);
        if steps > self.inner.max_steps {
            return Err(observe_stop(StopReason::Steps));
        }
        let at_stride = steps.is_multiple_of(TIME_CHECK_STRIDE);
        if at_stride {
            // Flush ticks to the global registry only at the clock-check
            // stride: one shared atomic add per 16 ticks keeps the hot
            // path within the observability overhead contract. Trailing
            // sub-stride ticks of a run go unflushed — the counter is an
            // operational gauge of work volume, not an exact step count.
            fdb_obs::registry().governor_ticks.add(TIME_CHECK_STRIDE);
        }
        self.stop_if_cancelled_or_late(at_stride)
            .map_err(observe_stop)
    }

    #[inline]
    fn check(&self) -> Result<(), StopReason> {
        self.stop_if_cancelled_or_late(true).map_err(observe_stop)
    }

    #[inline]
    fn charge(&self, units: u64) -> Result<(), StopReason> {
        let used = self.inner.memory.fetch_add(units, Ordering::Relaxed) + units;
        if used > self.inner.max_memory {
            return Err(observe_stop(StopReason::Memory));
        }
        Ok(())
    }
}

/// The zero-cost "no governor" instantiation of [`Governance`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Ungoverned;

impl Governance for Ungoverned {
    #[inline(always)]
    fn tick(&self) -> Result<(), StopReason> {
        Ok(())
    }

    #[inline(always)]
    fn check(&self) -> Result<(), StopReason> {
        Ok(())
    }

    #[inline(always)]
    fn charge(&self, _units: u64) -> Result<(), StopReason> {
        Ok(())
    }
}

impl<G: Governance + ?Sized> Governance for &G {
    #[inline]
    fn tick(&self) -> Result<(), StopReason> {
        (**self).tick()
    }

    #[inline]
    fn check(&self) -> Result<(), StopReason> {
        (**self).check()
    }

    #[inline]
    fn charge(&self, units: u64) -> Result<(), StopReason> {
        (**self).charge(units)
    }
}

/// The result of a governed enumeration: either everything, or the sound
/// prefix computed before the budget ran out, tagged with why it
/// stopped. Never a silent truncation.
#[must_use = "an Outcome may carry only a partial result; check it"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The enumeration ran to completion.
    Complete(T),
    /// The enumeration was stopped by the governor (or a structural
    /// cap); `partial` holds everything produced so far — a sound
    /// prefix of the complete result.
    Exhausted {
        /// The results produced before the stop.
        partial: T,
        /// Why the enumeration stopped.
        reason: StopReason,
    },
}

impl<T> Outcome<T> {
    /// Wraps `value`, exhausted iff `reason` is `Some`.
    pub fn new(value: T, reason: Option<StopReason>) -> Self {
        // Structural caps are raised by enumeration callers, never by
        // tick/check/charge, so this is the one place they get counted
        // (other reasons were already observed at their stop site).
        if reason == Some(StopReason::Cap) {
            observe_stop(StopReason::Cap);
        }
        match reason {
            None => Outcome::Complete(value),
            Some(reason) => Outcome::Exhausted {
                partial: value,
                reason,
            },
        }
    }

    /// The carried value, complete or partial.
    pub fn value(self) -> T {
        match self {
            Outcome::Complete(v) | Outcome::Exhausted { partial: v, .. } => v,
        }
    }

    /// A reference to the carried value.
    pub fn get(&self) -> &T {
        match self {
            Outcome::Complete(v) | Outcome::Exhausted { partial: v, .. } => v,
        }
    }

    /// `true` if the enumeration ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The stop reason, if the enumeration was cut short.
    pub fn reason(&self) -> Option<StopReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Exhausted { reason, .. } => Some(*reason),
        }
    }

    /// Maps the carried value, preserving completeness.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::Exhausted { partial, reason } => Outcome::Exhausted {
                partial: f(partial),
                reason,
            },
        }
    }

    /// Converts to a `Result`: `Err` (via [`StopReason::into_error`],
    /// dropping the partial) if exhausted. For callers that need
    /// all-or-nothing semantics.
    pub fn into_result(self, what: &str) -> Result<T, FdbError> {
        match self {
            Outcome::Complete(v) => Ok(v),
            Outcome::Exhausted { reason, .. } => Err(reason.into_error(what)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let g = Governor::unbounded();
        for _ in 0..100_000 {
            g.tick().unwrap();
        }
        g.check().unwrap();
        g.charge(1 << 40).unwrap();
    }

    #[test]
    fn step_budget_trips_exactly() {
        let g = Governor::with_max_steps(10);
        for _ in 0..10 {
            g.tick().unwrap();
        }
        assert_eq!(g.tick(), Err(StopReason::Steps));
        assert_eq!(g.steps(), 11);
    }

    #[test]
    fn deadline_trips_promptly() {
        let g = Governor::with_deadline(Duration::from_millis(10));
        let t0 = Instant::now();
        let reason = loop {
            if let Err(r) = g.tick() {
                break r;
            }
        };
        assert_eq!(reason, StopReason::Deadline);
        // A pure tick loop detects the deadline within a few ms slack.
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert!(g.deadline_exceeded());
        assert_eq!(g.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_from_another_thread() {
        let g = Governor::unbounded();
        let token = g.cancel_token();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        });
        let reason = loop {
            if let Err(r) = g.tick() {
                break r;
            }
        };
        assert_eq!(reason, StopReason::Cancelled);
        handle.join().unwrap();
        // check() reports it too, and reset() re-arms.
        assert_eq!(g.check(), Err(StopReason::Cancelled));
        assert!(g.cancel_token().reset());
        g.check().unwrap();
    }

    #[test]
    fn memory_budget_trips() {
        let g = Governor::new(Budget::unbounded().with_max_memory_units(5));
        g.charge(3).unwrap();
        g.charge(2).unwrap();
        assert_eq!(g.charge(1), Err(StopReason::Memory));
    }

    #[test]
    fn clones_share_budgets() {
        let g = Governor::with_max_steps(10);
        let h = g.clone();
        for _ in 0..5 {
            g.tick().unwrap();
            h.tick().unwrap();
        }
        assert_eq!(g.tick(), Err(StopReason::Steps));
    }

    #[test]
    fn child_shares_cancellation_and_clamps_deadline() {
        let parent = Governor::with_deadline(Duration::from_millis(5));
        let child = parent.child(Budget::unbounded().with_deadline(Duration::from_secs(60)));
        // Child deadline is clamped to the parent's.
        assert!(child.remaining_time().unwrap() <= Duration::from_millis(5));
        parent.cancel_token().cancel();
        assert_eq!(child.check(), Err(StopReason::Cancelled));
        // Fresh counters though.
        let parent = Governor::with_max_steps(1);
        let child = parent.child(Budget::unbounded().with_max_steps(3));
        parent.tick().unwrap();
        assert!(parent.tick().is_err());
        for _ in 0..3 {
            child.tick().unwrap();
        }
        assert_eq!(child.tick(), Err(StopReason::Steps));
    }

    #[test]
    fn outcome_helpers() {
        let o = Outcome::new(vec![1, 2], None);
        assert!(o.is_complete());
        assert_eq!(o.reason(), None);
        assert_eq!(o.clone().value(), vec![1, 2]);
        assert_eq!(o.map(|v| v.len()).value(), 2);

        let o = Outcome::new(vec![1], Some(StopReason::Steps));
        assert!(!o.is_complete());
        assert_eq!(o.reason(), Some(StopReason::Steps));
        assert!(o.clone().into_result("enumeration").is_err());
        assert_eq!(o.get(), &vec![1]);
    }

    #[test]
    fn stop_reasons_map_to_typed_errors() {
        assert!(matches!(
            StopReason::Deadline.into_error("query"),
            FdbError::DeadlineExceeded(_)
        ));
        assert!(matches!(
            StopReason::Cancelled.into_error("query"),
            FdbError::Cancelled
        ));
        assert!(matches!(
            StopReason::Steps.into_error("query"),
            FdbError::BudgetExhausted(_)
        ));
        assert!(matches!(
            StopReason::Cap.into_error("paths"),
            FdbError::BudgetExhausted(_)
        ));
    }

    #[test]
    fn ungoverned_is_a_no_op() {
        let u = Ungoverned;
        for _ in 0..10 {
            u.tick().unwrap();
        }
        u.check().unwrap();
        u.charge(u64::MAX).unwrap();
        // &G forwarding works too.
        fn generic<G: Governance>(g: &G) -> Result<(), StopReason> {
            g.tick()
        }
        generic(&&Ungoverned).unwrap();
        generic(&Governor::unbounded()).unwrap();
    }
}
