//! Process-wide observability for the fdb workspace.
//!
//! The paper's central claims are *cost and behavior* claims — AMS is
//! `O(n²)`, acyclic design-aid maintenance is `O(n³)`, derived updates
//! avoid side effects through NCs rather than base-table rewrites — and a
//! production-shaped engine has to make those costs visible while it
//! runs, not only in after-the-fact benchmark JSON. This crate is the
//! foundation every layer reports into:
//!
//! * a **metrics registry** ([`Registry`], reached via [`registry`]) of
//!   atomic counters and fixed-bucket histograms. Recording is lock-free
//!   (one relaxed atomic RMW) and globally gated by an enable flag
//!   ([`set_enabled`]); when disabled every record call is a relaxed
//!   load + branch — cheap enough that callers never need their own
//!   gating.
//! * **exporters**: a flat text dump ([`render_text`]) for the language
//!   front end's `STATS` statement, a JSON dump ([`render_json`]) for
//!   machines, and a Prometheus text-format exporter
//!   ([`prometheus_text`]) for operators scraping a live process.
//! * a **causal span layer** ([`causal`]): per-statement traces with
//!   context propagation (thread-local stack), sampling, a slow-query
//!   log, and a Chrome trace-event exporter — every expensive moment is
//!   attributable to the statement that paid for it.
//! * a **flight recorder** ([`flight`]): the causal ring doubles as a
//!   crash recorder, dumped to `flight-<seq>.json` on panic, fsync
//!   failure, replica divergence, or `DUMP TRACE`; open spans appear as
//!   `interrupted` so a fault cut is visible, never silently completed.
//!
//! # Conventions
//!
//! Metric keys are dotted lowercase paths, `fdb.<layer>.<what>`
//! (e.g. `fdb.wal.appends`, `fdb.exec.rows_examined`). Counters count
//! *events or units since process start (or the last reset)* and are
//! monotonically non-decreasing between resets. Histograms use
//! power-of-two buckets: bucket `b` holds values whose bit length is `b`,
//! so the upper edge of bucket `b` is `2^b - 1`. The Prometheus exporter
//! rewrites dots to underscores and appends `_total` to counters.
//!
//! # Overhead contract
//!
//! Enabled, the registry must stay within a few percent of the
//! uninstrumented engine on the governed derived-truth benchmark (CI
//! enforces ≤ 3% paired); disabled, record calls compile to a relaxed
//! load and a predictable branch. Hot loops therefore batch: the
//! executor counts rows locally and flushes one `add` per query, and the
//! governor flushes tick counts at its clock-check stride rather than
//! per tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod causal;
mod export;
pub mod flight;
mod metrics;

pub use export::{prometheus_text, render_json, render_text};
pub use metrics::{
    bucket_edge, Counter, CounterSnapshot, Histogram, HistogramSnapshot, HistogramState, Registry,
    Snapshot, BUCKETS,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global gate consulted by every record call. Defaults to **on**: the
/// registry is designed to be cheap enough to leave enabled in
/// production, and `STATS` should show real numbers out of the box.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// `true` if metric/trace recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric and trace recording on or off, process-wide. Disabling
/// does not clear anything — counters freeze at their current values.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry::new();
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flag_gates_recording() {
        // Use a private registry so concurrent tests sharing the global
        // one can't interfere.
        let reg = Registry::new();
        set_enabled(true);
        reg.wal_appends.inc();
        assert_eq!(reg.wal_appends.get(), 1);
        set_enabled(false);
        reg.wal_appends.inc();
        reg.statement_latency_ns.record(42);
        assert_eq!(reg.wal_appends.get(), 1);
        assert_eq!(reg.statement_latency_ns.snapshot().count, 0);
        set_enabled(true);
        reg.wal_appends.inc();
        assert_eq!(reg.wal_appends.get(), 2);
    }

    #[test]
    fn global_accessors_are_stable() {
        set_enabled(true);
        let a = registry() as *const _;
        let b = registry() as *const _;
        assert_eq!(a, b);
    }
}
