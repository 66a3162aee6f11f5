//! The metrics a run reports, by name and unit, and the result line.
//!
//! The names here are the names in `BENCHMARK.json`. An untraced run
//! reports every end-to-end metric, a traced run every per-layer metric,
//! on every workload: a layer the workload does not touch reports 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fdb::obs::Snapshot;

use crate::harness::{self, Shape, Summary};
use crate::trace::{Sp, Tracer};
use crate::workloads::{Probes, Tail};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn push(out: &mut Vec<Metric>, name: &'static str, unit: &'static str, value: f64) {
    out.push(Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    });
}

pub fn registry_snapshot() -> Snapshot {
    fdb::obs::registry().snapshot()
}

/// How far the `fdb::obs::registry()` counters moved over some rounds.
pub struct RegistryDelta {
    counters: BTreeMap<&'static str, u64>,
    /// `(count, sum)` of each histogram.
    histograms: BTreeMap<&'static str, (u64, u64)>,
    ops: f64,
}

impl RegistryDelta {
    /// The movement since `before`, over `ops` operations.
    pub fn since(before: &Snapshot, ops: usize) -> RegistryDelta {
        let now = registry_snapshot();
        let counters = now
            .counters
            .iter()
            .zip(&before.counters)
            .map(|(a, b)| (a.key, a.value - b.value))
            .collect();
        let histograms = now
            .histograms
            .iter()
            .zip(&before.histograms)
            .map(|(a, b)| {
                (
                    a.key,
                    (a.state.count - b.state.count, a.state.sum - b.state.sum),
                )
            })
            .collect();
        RegistryDelta {
            counters,
            histograms,
            ops: ops as f64,
        }
    }

    fn count(&self, key: &str) -> f64 {
        *self
            .counters
            .get(key)
            .unwrap_or_else(|| panic!("the registry has no counter {key}")) as f64
    }

    fn per_op(&self, key: &str) -> f64 {
        self.count(key) / self.ops
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.count(den);
        if d == 0.0 {
            0.0
        } else {
            self.count(num) / d
        }
    }

    /// `fdb.*` counters that moved at all.
    fn keys_moved(&self) -> f64 {
        self.counters.values().filter(|&&v| v > 0).count() as f64
    }
}

pub fn end_to_end(out: &mut Vec<Metric>, s: &Summary, setup_s: f64, ok_share: f64) {
    push(out, "setup_s", "s", setup_s);
    push(out, "ops_per_s", "1/s", s.ops_per_s);
    push(out, "read_p50_us", "us", s.read_p50_us);
    push(out, "write_p50_us", "us", s.write_p50_us);
    push(out, "allocs_per_op", "1", s.allocs_per_op);
    push(out, "alloc_bytes_per_op", "B", s.alloc_bytes_per_op);
    push(out, "peak_rss_mb", "MiB", harness::peak_rss_mb());
    push(out, "ok_share", "1", ok_share);
}

/// What the traced rounds took.
pub struct Traced {
    /// Wall time of each traced round's statements, as measured.
    pub path_wall_ns: Vec<f64>,
    /// The machine's slowdown during each traced round.
    pub slowdowns: Vec<f64>,
    pub ops_per_round: usize,
}

#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    out: &mut Vec<Metric>,
    s: &Summary,
    reg: &RegistryDelta,
    tr: &Tracer,
    p: &Probes,
    tail: &Tail,
    last_shape: Shape,
    traced: Traced,
) {
    // Span times are as measured; state them at reference speed, like
    // the end-to-end metrics they are held against.
    let slowdown = harness::median(&mut traced.slowdowns.clone());
    let p50 = |sp: Sp| tr.p50_ns(sp) / slowdown;
    let share = |ns: u64| ns as f64 / tr.path_ns as f64 * 100.0;
    let l = &p.layers;

    push(out, "fdb-lang.parse_ns", "ns", p50(Sp::Parse));
    push(out, "fdb-lang.lower_ns", "ns", p50(Sp::Lower));
    push(out, "fdb-lang.execute_ns", "ns", p50(Sp::Execute));
    push(
        out,
        "fdb-lang.statements",
        "1/op",
        reg.per_op("fdb.lang.statements"),
    );
    push(
        out,
        "fdb-lang.rows_produced",
        "1/op",
        reg.per_op("fdb.lang.rows_produced"),
    );
    push(out, "fdb-lang.wall_share_pct", "%", share(l.lang));

    push(out, "fdb-exec.plan_ns", "ns", p50(Sp::Plan));
    push(out, "fdb-exec.truth_ns", "ns", p50(Sp::ExecTruth));
    push(out, "fdb-exec.image_ns", "ns", p50(Sp::ExecImage));
    push(
        out,
        "fdb-exec.inverse_image_ns",
        "ns",
        p50(Sp::ExecInverseImage),
    );
    push(
        out,
        "fdb-exec.rows_examined_per_result",
        "1",
        reg.ratio("fdb.exec.rows_examined", "fdb.exec.chains_emitted"),
    );
    let (queries, chains) = reg.histograms["fdb.exec.chains_per_query"];
    push(
        out,
        "fdb-exec.chains_per_query",
        "1",
        if queries == 0 {
            0.0
        } else {
            chains as f64 / queries as f64
        },
    );
    push(
        out,
        "fdb-exec.plan_forward",
        "1/op",
        reg.per_op("fdb.plan.forward"),
    );
    push(
        out,
        "fdb-exec.plan_backward",
        "1/op",
        reg.per_op("fdb.plan.backward"),
    );
    push(
        out,
        "fdb-exec.plan_meet_in_middle",
        "1/op",
        reg.per_op("fdb.plan.meet_in_middle"),
    );
    let lookups = reg.count("fdb.cache.hits") + reg.count("fdb.cache.misses");
    push(
        out,
        "fdb-exec.cache_hit_ratio",
        "1",
        if lookups == 0.0 {
            0.0
        } else {
            reg.count("fdb.cache.hits") / lookups
        },
    );
    push(
        out,
        "fdb-exec.cache_invalidations",
        "1/op",
        reg.per_op("fdb.cache.invalidations"),
    );
    push(
        out,
        "fdb-exec.nc_demotions",
        "1/op",
        reg.per_op("fdb.exec.nc_demotions"),
    );
    push(out, "fdb-exec.wall_share_pct", "%", share(l.exec));

    push(out, "fdb-storage.base_insert_ns", "ns", p50(Sp::BaseInsert));
    push(out, "fdb-storage.base_delete_ns", "ns", p50(Sp::BaseDelete));
    push(
        out,
        "fdb-storage.index_probes_per_op",
        "1/op",
        reg.per_op("fdb.storage.index_probes"),
    );
    push(
        out,
        "fdb-storage.table_scans",
        "1/op",
        reg.per_op("fdb.storage.table_scans"),
    );
    push(
        out,
        "fdb-storage.ncs_created",
        "1/op",
        reg.per_op("fdb.storage.ncs_created"),
    );
    push(
        out,
        "fdb-storage.ncs_dismantled",
        "1/op",
        reg.per_op("fdb.storage.ncs_dismantled"),
    );
    push(
        out,
        "fdb-storage.null_substitutions",
        "1/op",
        reg.per_op("fdb.storage.null_substitutions"),
    );
    push(out, "fdb-storage.ncs_live", "count", last_shape.1 as f64);
    push(
        out,
        "fdb-storage.null_facts_live",
        "count",
        last_shape.2 as f64,
    );
    let closed = reg.count("fdb.txn.commits") + reg.count("fdb.txn.rollbacks");
    push(
        out,
        "fdb-storage.undo_bytes_per_txn",
        "B",
        if closed == 0.0 {
            0.0
        } else {
            reg.count("fdb.txn.undo_log_bytes") / closed
        },
    );
    push(out, "fdb-storage.rollback_ns", "ns", p50(Sp::Rollback));
    push(
        out,
        "fdb-storage.detach_big_us",
        "us",
        p50(Sp::DetachBig) / 1e3,
    );
    push(
        out,
        "fdb-storage.detach_small_us",
        "us",
        p50(Sp::DetachSmall) / 1e3,
    );
    push(out, "fdb-storage.wall_share_pct", "%", share(l.storage));

    push(
        out,
        "fdb-core.update.derived_delete_ns",
        "ns",
        p50(Sp::DerivedDelete),
    );
    push(
        out,
        "fdb-core.update.derived_insert_ns",
        "ns",
        p50(Sp::DerivedInsert),
    );
    push(out, "fdb-core.update.wall_share_pct", "%", share(l.update));

    push(out, "fdb-core.wal.encode_ns", "ns", p50(Sp::WalEncode));
    push(out, "fdb-core.wal.append_ns", "ns", p50(Sp::WalAppend));
    push(out, "fdb-core.wal.sync_ns", "ns", p50(Sp::WalSync));
    push(
        out,
        "fdb-core.wal.bytes_per_record",
        "B",
        reg.ratio("fdb.wal.append_bytes", "fdb.wal.appends"),
    );
    push(
        out,
        "fdb-core.wal.fsyncs_per_op",
        "1/op",
        reg.per_op("fdb.wal.fsyncs"),
    );
    push(
        out,
        "fdb-core.wal.rotations",
        "1/op",
        reg.per_op("fdb.wal.rotations"),
    );
    push(
        out,
        "fdb-core.wal.disk_bytes_per_op",
        "B",
        s.disk_bytes_per_op,
    );
    push(out, "fdb-core.wal.wall_share_pct", "%", share(l.wal));

    let mut stalls: Vec<f64> = p.checkpoint_stalls.iter().map(|&ns| ns as f64).collect();
    push(
        out,
        "fdb-core.durability.checkpoint_ms",
        "ms",
        harness::median(&mut stalls) / slowdown / 1e6,
    );
    let checkpoints = reg.count("fdb.wal.checkpoints");
    let disk_bytes = s.disk_bytes_per_op * reg.ops;
    push(
        out,
        "fdb-core.durability.checkpoint_bytes",
        "B",
        if checkpoints == 0.0 {
            0.0
        } else {
            (disk_bytes - reg.count("fdb.wal.append_bytes")).max(0.0) / checkpoints
        },
    );
    push(
        out,
        "fdb-core.durability.checkpoint_time_share",
        "%",
        share(l.checkpoint),
    );
    push(
        out,
        "fdb-core.durability.write_p99_us",
        "us",
        s.write_p99_us,
    );
    let recovery_s = tail.recovery_s / slowdown;
    push(out, "fdb-core.durability.recovery_s", "s", recovery_s);
    push(
        out,
        "fdb-core.durability.recovery_records_per_s",
        "1/s",
        tail.recovery_records as f64 / recovery_s,
    );
    push(
        out,
        "fdb-core.durability.wall_share_pct",
        "%",
        share(l.core),
    );

    push(out, "fdb-core.shared.pin_ns", "ns", p50(Sp::Pin));
    push(
        out,
        "fdb-core.shared.publish_us",
        "us",
        p.publish.quantile(0.5) / slowdown / 1e3,
    );
    push(
        out,
        "fdb-core.shared.release_us",
        "us",
        p50(Sp::Release) / 1e3,
    );
    push(
        out,
        "fdb-core.shared.snapshots_published",
        "1/op",
        reg.per_op("fdb.mvcc.snapshots_published"),
    );
    push(
        out,
        "fdb-core.shared.group_fsyncs",
        "1/op",
        reg.per_op("fdb.commit.group_fsyncs"),
    );
    push(out, "fdb-core.shared.wall_share_pct", "%", share(l.shared));

    let shipped = tail.shipped_records as f64;
    push(
        out,
        "fdb-repl.poll_ns_per_record",
        "ns",
        tail.poll_ns as f64 / slowdown / shipped,
    );
    push(
        out,
        "fdb-repl.apply_ns_per_record",
        "ns",
        tail.apply_ns as f64 / slowdown / shipped,
    );
    push(
        out,
        "fdb-repl.bytes_shipped_per_record",
        "B",
        tail.shipped_bytes as f64 / shipped,
    );

    push(
        out,
        "fdb-governor.ticks_per_op",
        "1/op",
        reg.per_op("fdb.governor.ticks"),
    );
    push(
        out,
        "fdb-obs.registry_delta_keys",
        "count",
        reg.keys_moved(),
    );

    push(out, "harness.slow_round_ratio", "1", s.slow_round_ratio);
    push(out, "harness.rounds_quiet", "count", s.rounds_quiet as f64);
    push(out, "harness.round_cv_pct", "%", s.round_cv_pct);
    push(out, "harness.drift_pct", "%", s.drift_pct);
    push(out, "harness.work_drift_pct", "%", s.work_drift_pct);
    push(out, "harness.machine_slowdown", "1", s.machine_slowdown);
    push(out, "harness.timer_ns", "ns", harness::timer_ns());
    // The traced rate, like the untraced one, over the quiet half of the
    // rounds at reference speed.
    let mut normalised: Vec<f64> = traced
        .path_wall_ns
        .iter()
        .zip(&traced.slowdowns)
        .map(|(ns, slow)| ns / slow)
        .collect();
    normalised.sort_by(f64::total_cmp);
    normalised.truncate(normalised.len().div_ceil(2));
    let traced_ops_per_s = traced.ops_per_round as f64 / (harness::median(&mut normalised) / 1e9);
    push(
        out,
        "harness.trace_overhead_pct",
        "%",
        (s.ops_per_s / traced_ops_per_s - 1.0) * 100.0,
    );
    push(
        out,
        "harness.path_coverage_pct",
        "%",
        tr.path_ns as f64 / traced.path_wall_ns.iter().sum::<f64>() * 100.0,
    );
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}
