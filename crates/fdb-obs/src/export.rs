//! Exporters: flat text for `STATS`, hand-rendered JSON for machines,
//! and Prometheus text format for scrapers.
//!
//! JSON is rendered by hand because this crate is deliberately
//! dependency-free; its only strings, the metric keys, are written
//! through the escaper the trace exporters use.

use crate::causal::escape_json_into;
use crate::metrics::{bucket_edge, HistogramState, Registry};

/// Flat `key value` text dump of every metric, counters first, keys in
/// sorted order. Histograms render count/mean/p50/p99/max-edge on one
/// line. Zero-valued counters are included: seeing `fdb.wal.appends 0`
/// tells an operator the WAL is genuinely idle, not unreported.
pub fn render_text(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let mut out = String::with_capacity(2048);
    let width = snap
        .counters
        .iter()
        .map(|c| c.key.len())
        .chain(snap.histograms.iter().map(|h| h.key.len()))
        .max()
        .unwrap_or(0);
    for c in &snap.counters {
        out.push_str(&format!("{:width$}  {}\n", c.key, c.value));
    }
    for h in &snap.histograms {
        out.push_str(&format!(
            "{:width$}  count={} mean={:.0} p50<={} p99<={}\n",
            h.key,
            h.state.count,
            h.state.mean(),
            h.state.quantile_edge(0.5),
            h.state.quantile_edge(0.99),
        ));
    }
    out
}

fn push_histogram_json(out: &mut String, state: &HistogramState) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"buckets\":[",
        state.count, state.sum
    ));
    // Trailing zero buckets carry no information; trim them to keep the
    // dump readable.
    let last = state
        .buckets
        .iter()
        .rposition(|&n| n != 0)
        .map_or(0, |i| i + 1);
    for (i, n) in state.buckets[..last].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&n.to_string());
    }
    out.push_str("]}");
}

/// The whole registry as one JSON object:
/// `{"counters":{key:value,...},"histograms":{key:{count,sum,buckets},...}}`.
/// Keys are sorted; bucket arrays are trimmed of trailing zeros (bucket
/// `b` spans values of bit length `b`).
pub fn render_json(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let mut out = String::with_capacity(2048);
    out.push_str("{\"counters\":{");
    for (i, c) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(&mut out, c.key);
        out.push_str("\":");
        out.push_str(&c.value.to_string());
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(&mut out, h.key);
        out.push_str("\":");
        push_histogram_json(&mut out, &h.state);
    }
    out.push_str("}}");
    out
}

fn prom_name(key: &str) -> String {
    key.replace('.', "_")
}

/// Escapes a `# HELP` text per the Prometheus text exposition format:
/// backslash and newline only.
fn prom_escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label *value* per the text exposition format: backslash,
/// double quote, and newline.
fn prom_escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus text exposition format. Counter keys become
/// `<key_with_underscores>_total`; histograms emit cumulative
/// `_bucket{le="..."}` series (upper edges `2^b - 1`, then `+Inf`),
/// `_sum`, and `_count`, matching the native histogram text format.
/// Every metric carries a `# HELP` line sourced from its registry doc
/// comment; help text and label values are escaped per the format.
pub fn prometheus_text(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let help = Registry::help();
    let help_for = |key: &str| help.iter().find(|(k, _)| *k == key).map(|(_, h)| *h);
    let mut out = String::with_capacity(8192);
    for c in &snap.counters {
        let name = prom_name(c.key);
        if let Some(help) = help_for(c.key) {
            out.push_str(&format!("# HELP {name}_total {}\n", prom_escape_help(help)));
        }
        out.push_str(&format!("# TYPE {name}_total counter\n"));
        out.push_str(&format!("{name}_total {}\n", c.value));
    }
    for h in &snap.histograms {
        let name = prom_name(h.key);
        if let Some(help) = help_for(h.key) {
            out.push_str(&format!("# HELP {name} {}\n", prom_escape_help(help)));
        }
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        let last = h
            .state
            .buckets
            .iter()
            .rposition(|&n| n != 0)
            .map_or(0, |i| i + 1);
        for (b, n) in h.state.buckets[..last].iter().enumerate() {
            cumulative += n;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                prom_escape_label(&bucket_edge(b).to_string())
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.state.count));
        out.push_str(&format!("{name}_sum {}\n", h.state.sum));
        out.push_str(&format!("{name}_count {}\n", h.state.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let _flags = crate::tests::global_flags();
        crate::set_enabled(true);
        let reg = Registry::new();
        reg.wal_appends.add(7);
        reg.cache_hits.add(2);
        reg.statement_latency_ns.record(100);
        reg.statement_latency_ns.record(900);
        reg
    }

    #[test]
    fn text_dump_lists_every_key() {
        let reg = sample_registry();
        let text = render_text(&reg);
        assert!(text.contains("fdb.wal.appends"));
        assert!(text
            .lines()
            .any(|l| l.starts_with("fdb.wal.appends") && l.ends_with('7')));
        assert!(text.contains("fdb.lang.statement_latency_ns"));
        assert!(text.contains("count=2"));
        // Idle metrics are present, reported as zero.
        assert!(text
            .lines()
            .any(|l| l.starts_with("fdb.governor.ticks") && l.ends_with('0')));
    }

    #[test]
    fn json_is_parseable_shape() {
        let reg = sample_registry();
        let json = render_json(&reg);
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"fdb.wal.appends\":7"));
        assert!(json.contains("\"fdb.lang.statement_latency_ns\":{\"count\":2,\"sum\":1000,"));
        assert!(json.ends_with("}}"));
        // Balanced braces/brackets — cheap structural sanity without a parser.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    /// Line-by-line structural validation of the text exposition
    /// format: every line must be a well-formed `# HELP`, `# TYPE`, or
    /// `name{labels} value` sample; histogram series must be cumulative
    /// with consistent `+Inf`/`_count`; every sample must follow a
    /// `# TYPE` for its family.
    fn validate_prometheus(text: &str) {
        fn valid_name(n: &str) -> bool {
            !n.is_empty()
                && n.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        let mut typed: Vec<(String, String)> = Vec::new();
        let mut bucket_cumulative: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        let mut inf: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                assert!(valid_name(name), "bad HELP name {name:?}");
                assert!(!help.is_empty(), "empty HELP for {name}");
                assert!(!help.contains('\n'));
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
                assert!(valid_name(name), "bad TYPE name {name:?}");
                assert!(
                    kind == "counter" || kind == "histogram",
                    "unexpected TYPE kind {kind:?}"
                );
                typed.push((name.to_string(), kind.to_string()));
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line {line:?}");
            let (series, value) = line.rsplit_once(' ').expect("sample has value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value {value:?}"));
            let (name, labels) = match series.split_once('{') {
                Some((n, l)) => {
                    let l = l.strip_suffix('}').expect("labels close");
                    for pair in l.split(',') {
                        let (k, v) = pair.split_once('=').expect("label k=v");
                        assert!(valid_name(k), "bad label name {k:?}");
                        assert!(
                            v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                            "unquoted label value {v:?}"
                        );
                        let inner = &v[1..v.len() - 1];
                        assert!(
                            !inner.contains('"') && !inner.contains('\n'),
                            "unescaped label value {inner:?}"
                        );
                    }
                    (n, Some(l))
                }
                None => (series, None),
            };
            assert!(valid_name(name), "bad sample name {name:?}");
            // Attribute the sample to its declared family.
            let family = typed
                .iter()
                .find(|(t, kind)| match kind.as_str() {
                    "counter" => name == t,
                    _ => {
                        name == t
                            || name == format!("{t}_bucket")
                            || name == format!("{t}_sum")
                            || name == format!("{t}_count")
                    }
                })
                .unwrap_or_else(|| panic!("sample {name} precedes its # TYPE"));
            if name.ends_with("_bucket") && family.1 == "histogram" {
                let labels = labels.expect("_bucket carries le");
                assert!(labels.contains("le="), "bucket without le label");
                let v: u64 = value.parse().expect("bucket counts are integers");
                let prev = bucket_cumulative.entry(family.0.clone()).or_insert(0);
                assert!(v >= *prev, "bucket series must be cumulative");
                *prev = v;
                if labels.contains("le=\"+Inf\"") {
                    inf.insert(family.0.clone(), v);
                }
            }
            if name.ends_with("_count") && family.1 == "histogram" {
                let v: u64 = value.parse().expect("count is an integer");
                assert_eq!(
                    Some(&v),
                    inf.get(&family.0),
                    "histogram {} _count must equal its +Inf bucket",
                    family.0
                );
            }
        }
        assert!(!typed.is_empty());
    }

    #[test]
    fn prometheus_exposition_is_structurally_valid() {
        let reg = sample_registry();
        let text = prometheus_text(&reg);
        validate_prometheus(&text);
        // Every metric family carries a HELP line.
        let helps = text.lines().filter(|l| l.starts_with("# HELP ")).count();
        let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(helps, types, "every family is documented");
        assert!(
            text.contains("# HELP fdb_wal_appends_total Records appended to a write-ahead log.\n")
        );
        // Multi-line doc comments flatten to one HELP line.
        assert!(text.contains("# HELP fdb_wal_fsync_failures_total Durable syncs that failed"));
    }

    #[test]
    fn prometheus_escaping() {
        assert_eq!(prom_escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn prometheus_format_rewrites_names_and_accumulates_buckets() {
        let reg = sample_registry();
        let prom = prometheus_text(&reg);
        assert!(prom.contains("# TYPE fdb_wal_appends_total counter"));
        assert!(prom.contains("fdb_wal_appends_total 7"));
        assert!(prom.contains("# TYPE fdb_lang_statement_latency_ns histogram"));
        // 100 has bit length 7 (edge 127), 900 has bit length 10 (edge 1023).
        assert!(prom.contains("fdb_lang_statement_latency_ns_bucket{le=\"127\"} 1"));
        assert!(prom.contains("fdb_lang_statement_latency_ns_bucket{le=\"1023\"} 2"));
        assert!(prom.contains("fdb_lang_statement_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("fdb_lang_statement_latency_ns_sum 1000"));
        assert!(prom.contains("fdb_lang_statement_latency_ns_count 2"));
        for line in prom.lines().filter(|l| !l.starts_with("# HELP")) {
            let name = line
                .trim_start_matches("# TYPE ")
                .split([' ', '{'])
                .next()
                .expect("line has a name");
            assert!(
                !name.contains('.'),
                "prometheus names must not contain dots: {line}"
            );
        }
    }
}
