//! The lock-free metrics registry: named atomic counters and
//! fixed-bucket histograms.
//!
//! The metric set is *closed*: every metric is a struct field declared
//! in the [`Registry`] macro invocation below, so recording is a direct
//! field access (no hash lookup, no allocation, no lock) and the full
//! key list is statically known to the exporters. Growing the set means
//! adding a line to the macro — the exporters, `STATS`, reset, and the
//! monotonicity property tests pick the new metric up automatically.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically non-decreasing event/unit counter (until
/// [`Registry::reset`]).
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one, if recording is enabled.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, if recording is enabled.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Number of buckets in every [`Histogram`]. Bucket `b` holds recorded
/// values whose bit length is `b` (so bucket 0 is exactly the value 0,
/// bucket 1 is the value 1, bucket 2 is 2–3, …); values with bit length
/// ≥ `BUCKETS` land in the last bucket. With 40 buckets the last finite
/// edge is `2^39 - 1` — about nine minutes when recording nanoseconds.
pub const BUCKETS: usize = 40;

/// A fixed-bucket power-of-two histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes/rows). Recording is three relaxed atomic
/// RMWs; there is no lock and no allocation.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// `AtomicU64` has no const Default; this is the standard trick for
/// initialising an atomic array in a `const fn` on stable Rust.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// The bucket index of `v`: its bit length, clamped.
    #[inline]
    fn index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample, if recording is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramState {
        HistogramState {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A copied-out histogram state (not live).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramState {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`BUCKETS`] for the edges).
    pub buckets: Vec<u64>,
}

impl HistogramState {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge (`2^b - 1`) of the smallest bucket prefix holding at
    /// least `q` (in `0.0..=1.0`) of the samples — a coarse quantile.
    pub fn quantile_edge(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let want = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= want.max(1) {
                return bucket_edge(b);
            }
        }
        u64::MAX
    }
}

/// The inclusive upper edge of bucket `b`.
pub fn bucket_edge(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// One counter in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted metric key (`fdb.layer.what`).
    pub key: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted metric key (`fdb.layer.what`).
    pub key: &'static str,
    /// Copied state.
    pub state: HistogramState,
}

/// A point-in-time copy of the whole registry, keys sorted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Every counter, sorted by key.
    pub counters: Vec<CounterSnapshot>,
    /// Every histogram, sorted by key.
    pub histograms: Vec<HistogramSnapshot>,
}

macro_rules! registry {
    (
        counters { $( $(#[doc = $cdoc:literal])* $cfield:ident => $ckey:literal, )* }
        histograms { $( $(#[doc = $hdoc:literal])* $hfield:ident => $hkey:literal, )* }
    ) => {
        /// The closed set of workspace metrics. Reach the process-wide
        /// instance through [`crate::registry`]; construct a private one
        /// only in tests.
        #[derive(Debug, Default)]
        pub struct Registry {
            $( $(#[doc = $cdoc])* pub $cfield: Counter, )*
            $( $(#[doc = $hdoc])* pub $hfield: Histogram, )*
        }

        impl Registry {
            /// A zeroed registry.
            pub const fn new() -> Self {
                Registry {
                    $( $cfield: Counter::new(), )*
                    $( $hfield: Histogram::new(), )*
                }
            }

            /// Every counter as `(key, counter)`, in declaration order.
            pub fn counters(&self) -> Vec<(&'static str, &Counter)> {
                vec![ $( ($ckey, &self.$cfield), )* ]
            }

            /// Every histogram as `(key, histogram)`, in declaration
            /// order.
            pub fn histograms(&self) -> Vec<(&'static str, &Histogram)> {
                vec![ $( ($hkey, &self.$hfield), )* ]
            }

            /// Every metric's help text — its doc comment, flattened to
            /// one line — as `(key, help)`. Feeds the Prometheus
            /// exporter's `# HELP` lines, so the docs an engineer reads
            /// in this file are the docs an operator sees on a scrape.
            pub fn help() -> Vec<(&'static str, &'static str)> {
                vec![
                    $( ($ckey, concat!($($cdoc),*).trim()), )*
                    $( ($hkey, concat!($($hdoc),*).trim()), )*
                ]
            }

            /// Zeroes every counter and histogram (the `STATS RESET`
            /// statement). Not atomic across metrics: concurrent
            /// recorders may land increments on either side of the
            /// sweep, which is fine for operational counters.
            pub fn reset(&self) {
                $( self.$cfield.reset(); )*
                $( self.$hfield.reset(); )*
            }

            /// A point-in-time copy of everything, keys sorted.
            pub fn snapshot(&self) -> Snapshot {
                let mut counters: Vec<CounterSnapshot> = self
                    .counters()
                    .into_iter()
                    .map(|(key, c)| CounterSnapshot { key, value: c.get() })
                    .collect();
                counters.sort_by_key(|c| c.key);
                let mut histograms: Vec<HistogramSnapshot> = self
                    .histograms()
                    .into_iter()
                    .map(|(key, h)| HistogramSnapshot { key, state: h.snapshot() })
                    .collect();
                histograms.sort_by_key(|h| h.key);
                Snapshot { counters, histograms }
            }
        }
    };
}

registry! {
    counters {
        // ---- fdb-storage: extensional tables, NC store ----
        /// Base-table row insertions (`Store::base_insert`).
        storage_base_inserts => "fdb.storage.base_inserts",
        /// Base-table row deletions that removed a live row.
        storage_base_deletes => "fdb.storage.base_deletes",
        /// Negated conjunctions created (derived deletes).
        storage_ncs_created => "fdb.storage.ncs_created",
        /// Negated conjunctions dismantled (conjunct removed / replaced).
        storage_ncs_dismantled => "fdb.storage.ncs_dismantled",
        /// Null substitutions applied (NVC resolution).
        storage_null_substitutions => "fdb.storage.null_substitutions",
        /// Table compactions (manual or tombstone-triggered).
        storage_compactions => "fdb.storage.compactions",
        /// Full-table scans (`live_indices` enumerations).
        storage_table_scans => "fdb.storage.table_scans",
        /// Point index probes (`rows_with_x` / `rows_with_y`).
        storage_index_probes => "fdb.storage.index_probes",
        /// Pieces a copy-on-write detach cloned because a snapshot still
        /// shared them: one per row chunk, alive-bitmap block, index map
        /// (delta, or base when a delta folds), null-endpoint list or NC
        /// store copied. A write with no snapshot outstanding adds
        /// nothing; one after a publication adds a few, whatever the
        /// table's size.
        storage_cow_copies => "fdb.storage.cow_copies",

        // ---- WAL / recovery (fdb-core durability) ----
        /// Records appended to a write-ahead log.
        wal_appends => "fdb.wal.appends",
        /// Bytes appended to a write-ahead log (frame included).
        wal_append_bytes => "fdb.wal.append_bytes",
        /// Durable syncs issued to the storage layer.
        wal_fsyncs => "fdb.wal.fsyncs",
        /// Durable syncs that failed (the error also surfaces to the
        /// caller; a failed commit-marker fsync lands here too).
        wal_fsync_failures => "fdb.wal.fsync_failures",
        /// Segment rotations.
        wal_rotations => "fdb.wal.rotations",
        /// Well-framed records whose payload was not understood and was
        /// skipped during a scan (forward-compatibility warning).
        wal_skipped_records => "fdb.wal.skipped_records",
        /// Checkpoints installed.
        wal_checkpoints => "fdb.wal.checkpoints",
        /// Bytes written to checkpoint files (header included) — with
        /// `fdb.wal.append_bytes`, everything the log puts on disk.
        wal_checkpoint_bytes => "fdb.wal.checkpoint_bytes",
        /// Recovery passes run (open or replay).
        recovery_runs => "fdb.recovery.runs",
        /// Log records salvaged (applied) across recovery passes.
        recovery_records_salvaged => "fdb.recovery.records_salvaged",
        /// Corruption events found during recovery (torn tails included).
        recovery_corruption_events => "fdb.recovery.corruption_events",
        /// Bytes moved aside into quarantine files during recovery.
        recovery_quarantined_bytes => "fdb.recovery.quarantined_bytes",
        /// Records discarded by recovery because their transaction never
        /// committed (`RecoveryReport.uncommitted_discarded`, e.g. a
        /// replica's catch-up after a primary crash).
        recovery_uncommitted_discarded => "fdb.recovery.uncommitted_discarded",

        // ---- transactions (fdb-core / fdb-storage undo journal) ----
        /// Transactions opened (`BEGIN`).
        txn_begins => "fdb.txn.begins",
        /// Transactions committed (`COMMIT`).
        txn_commits => "fdb.txn.commits",
        /// Transactions rolled back entirely (`ROLLBACK` / `ABORT`,
        /// including automatic rollback after a governed stop).
        txn_rollbacks => "fdb.txn.rollbacks",
        /// Partial rollbacks to a named savepoint (`ROLLBACK TO`).
        txn_savepoint_rollbacks => "fdb.txn.savepoint_rollbacks",
        /// Undo-journal bytes accumulated by transactions at close
        /// (commit or rollback) — a cost measure of transactional churn.
        txn_undo_log_bytes => "fdb.txn.undo_log_bytes",
        /// Statement retries performed by the overload backoff policy
        /// (`Shared::retry_on_overload`).
        txn_overload_retries => "fdb.txn.overload_retries",
        /// Automatic rollbacks triggered by a governed stop (deadline,
        /// budget, cancellation, overload) inside an open transaction.
        txn_governed_aborts => "fdb.txn.governed_aborts",

        // ---- fdb-exec: planner, executor, result cache ----
        /// Chain plans compiled.
        plan_compiled => "fdb.plan.compiled",
        /// Plans that chose forward execution.
        plan_forward => "fdb.plan.forward",
        /// Plans that chose backward execution.
        plan_backward => "fdb.plan.backward",
        /// Plans that chose meet-in-the-middle execution.
        plan_meet_in_middle => "fdb.plan.meet_in_middle",
        /// Candidate rows examined by the chain executor.
        exec_rows_examined => "fdb.exec.rows_examined",
        /// Completed chains emitted by the chain executor.
        exec_chains_emitted => "fdb.exec.chains_emitted",
        /// NC-coverage checks that came back *covered* during truth and
        /// pair evaluation: a chain demoted because a live NC negates it
        /// — the §4.1 side-effect-free delete at work. Not every covered
        /// chain is counted: a truth query checks a chain only while the
        /// outcome could still change its verdict, and a wildcard is
        /// checked only while it could lift a pair; a pair evaluation
        /// checks every non-proving chain that ends in a listed pair.
        exec_nc_demotions => "fdb.exec.nc_demotions",
        /// NCL entries visited by NC-coverage checks during truth and pair
        /// evaluation, added once per check. A check reads only the NCLs
        /// of the rows its chain walked, so this grows with those NCLs and
        /// stays flat however many unrelated NCs the store holds.
        exec_ncl_entries_examined => "fdb.exec.ncl_entries_examined",
        /// Result-cache lookups answered from a valid entry.
        cache_hits => "fdb.cache.hits",
        /// Result-cache lookups that computed fresh.
        cache_misses => "fdb.cache.misses",
        /// Result-cache entries evicted by a support-set write.
        cache_invalidations => "fdb.cache.invalidations",

        // ---- fdb-governor ----
        /// Governor ticks (approximate: flushed every clock-check
        /// stride, so trailing sub-stride ticks of a run are uncounted).
        governor_ticks => "fdb.governor.ticks",
        /// Governed runs stopped by a deadline.
        governor_stop_deadline => "fdb.governor.stops.deadline",
        /// Governed runs stopped by the step budget.
        governor_stop_steps => "fdb.governor.stops.steps",
        /// Governed runs stopped by cancellation.
        governor_stop_cancelled => "fdb.governor.stops.cancelled",
        /// Enumerations stopped by a structural result cap.
        governor_stop_cap => "fdb.governor.stops.cap",
        /// Requests shed by overload admission control.
        governor_overload_sheds => "fdb.governor.overload_sheds",

        // ---- fdb-graph: AMS, cycles, design aid ----
        /// Algorithm AMS runs.
        graph_ams_runs => "fdb.graph.ams_runs",
        /// Edges examined for removability across AMS runs.
        graph_ams_edges_examined => "fdb.graph.ams_edges_examined",
        /// Cycles enumerated (non-UFA analysis).
        graph_cycles_enumerated => "fdb.graph.cycles_enumerated",
        /// Candidate derivation sets offered by the design aid.
        graph_design_candidates => "fdb.graph.design_candidates",

        // ---- fdb-check: static analyzer ----
        /// Static-analysis runs (`CHECK`, `fdb-lint`, strict pre-flights).
        check_runs => "fdb.check.runs",
        /// Error-severity diagnostics emitted by the analyzer.
        check_diags_error => "fdb.check.diags.error",
        /// Warn-severity diagnostics emitted by the analyzer.
        check_diags_warn => "fdb.check.diags.warn",
        /// Info-severity diagnostics emitted by the analyzer.
        check_diags_info => "fdb.check.diags.info",
        /// Data-aware discovery runs (`DISCOVER`, `CHECK DATA`,
        /// `fdb-lint --with-store`).
        check_discover_runs => "fdb.check.discover_runs",
        /// Non-genuine functionality assumptions dropped because a base
        /// write violated them (plans cached against them are invalidated).
        check_nongenuine_invalidations => "fdb.check.nongenuine_invalidations",

        // ---- fdb-lang / fdb-core: statement surface ----
        /// Statements executed (successfully or not).
        lang_statements => "fdb.lang.statements",
        /// Statements that returned an error.
        lang_statement_errors => "fdb.lang.statement_errors",
        /// Result rows/pairs rendered to the user.
        lang_rows_produced => "fdb.lang.rows_produced",
        /// Ambiguous (`A`) truth verdicts returned to queries — the
        /// three-valued logic surfacing partial information.
        query_ambiguous_verdicts => "fdb.query.ambiguous_verdicts",

        // ---- fdb-core: MVCC snapshot reads ----
        /// Snapshots published by the shared handles (one per observable
        /// commit boundary; version-unchanged writes publish nothing).
        mvcc_snapshots_published => "fdb.mvcc.snapshots_published",
        /// Snapshot pins taken by lock-free readers.
        mvcc_snapshot_pins => "fdb.mvcc.snapshot_pins",
        /// Pins taken while a writer was in flight on the same handle —
        /// admitted and not yet returned: awaiting the engine, holding
        /// it, or awaiting its group fsync (`Shared::pin`, the one place
        /// this is counted). An exclusive-lock design would have stalled
        /// these reads; they are served from the last published snapshot.
        mvcc_stale_snapshot_reads => "fdb.mvcc.stale_snapshot_reads",

        // ---- fdb-core: group commit ----
        /// Batched group fsyncs led on behalf of one or more writers.
        commit_group_fsyncs => "fdb.commit.group_fsyncs",
        /// Writers whose records were made durable by another writer's
        /// group fsync — each one is a physical fsync saved.
        commit_group_fsyncs_saved => "fdb.commit.group_fsyncs_saved",
        /// Group fsync attempts that failed (durability of the covered
        /// records unknown until a later sync succeeds).
        commit_group_failures => "fdb.commit.group_failures",

        // ---- fdb-repl: WAL-shipping replication ----
        /// WAL records shipped from a primary to replicas.
        repl_records_shipped => "fdb.repl.records_shipped",
        /// Bytes of WAL frames shipped from a primary to replicas.
        repl_bytes_shipped => "fdb.repl.bytes_shipped",
        /// Shipped records applied on a replica (transaction-consistent).
        repl_records_applied => "fdb.repl.records_applied",
        /// Replica catch-up scans completed (restart recovery).
        repl_catchups => "fdb.repl.catchups",
        /// Replicas promoted to primaries (failover).
        repl_promotions => "fdb.repl.promotions",
        /// Divergences detected between shipped and locally stored frames
        /// (seq/CRC mismatch → quarantine, never silent overwrite).
        repl_divergences => "fdb.repl.divergences",
        /// Batches rejected because they carried a stale term (a fenced
        /// old primary trying to keep writing after failover).
        repl_fenced_rejects => "fdb.repl.fenced_rejects",
    }
    histograms {
        /// Per-statement wall time, nanoseconds.
        statement_latency_ns => "fdb.lang.statement_latency_ns",
        /// WAL record frame sizes, bytes.
        wal_append_size_bytes => "fdb.wal.append_size_bytes",
        /// Wall time of one checkpoint (log sync, snapshot encode, atomic
        /// install, segment prune), nanoseconds — the stall the update
        /// that triggered it pays.
        wal_checkpoint_ns => "fdb.wal.checkpoint_ns",
        /// Chains emitted per executed chain query.
        exec_chains_per_query => "fdb.exec.chains_per_query",
        /// Frontier nodes materialised per executed chain query (arena
        /// footprint of the streaming executor).
        exec_frontier_nodes => "fdb.exec.frontier_nodes",
        /// WAL records covered per group fsync (group size: 1 = no
        /// batching win, N = N−1 fsyncs saved).
        commit_group_size => "fdb.commit.group_size_records",
        /// Replica lag in records behind the primary, sampled per poll.
        repl_lag_records => "fdb.repl.lag_records",
        /// Replica lag in bytes behind the primary, sampled per poll.
        repl_lag_bytes => "fdb.repl.lag_bytes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let _flags = crate::tests::global_flags();
        crate::set_enabled(true);
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _flags = crate::tests::global_flags();
        crate::set_enabled(true);
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1004);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 1); // 2..=3
        assert_eq!(s.buckets[10], 1); // 512..=1023
        assert_eq!(s.quantile_edge(0.5), 1);
        assert_eq!(s.quantile_edge(1.0), 1023);
        assert!((s.mean() - 251.0).abs() < 1e-9);
        // Saturating index: huge values land in the last bucket.
        h.record(u64::MAX);
        assert_eq!(h.snapshot().buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_reset_zeroes() {
        let _flags = crate::tests::global_flags();
        crate::set_enabled(true);
        let reg = Registry::new();
        reg.wal_appends.add(3);
        reg.cache_hits.inc();
        reg.statement_latency_ns.record(500);
        let snap = reg.snapshot();
        assert!(snap.counters.windows(2).all(|w| w[0].key < w[1].key));
        assert!(snap.histograms.windows(2).all(|w| w[0].key < w[1].key));
        let appends = snap
            .counters
            .iter()
            .find(|c| c.key == "fdb.wal.appends")
            .expect("key exists");
        assert_eq!(appends.value, 3);
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.iter().all(|c| c.value == 0));
        assert!(snap.histograms.iter().all(|h| h.state.count == 0));
    }

    #[test]
    fn keys_are_unique_and_well_formed() {
        let reg = Registry::new();
        let mut keys: Vec<&str> = reg.counters().into_iter().map(|(k, _)| k).collect();
        keys.extend(reg.histograms().into_iter().map(|(k, _)| k));
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate metric keys");
        for k in keys {
            assert!(
                k.starts_with("fdb.")
                    && k.chars().all(|c| c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || c == '.'
                        || c == '_'),
                "malformed key {k}"
            );
        }
    }
}
