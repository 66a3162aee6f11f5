//! Crash-dump side of the flight recorder: serialising the causal ring
//! to `flight-<seq>.json` on panic, fsync failure, replica divergence,
//! or an explicit `DUMP TRACE`.
//!
//! The recorder itself (see [`crate::causal`]) is always on; *dumping*
//! is armed by configuring a dump directory — explicitly via
//! [`set_dump_dir`], or through the `FDB_FLIGHT_DIR` environment
//! variable (read once, at first use). Unarmed, fault hooks are
//! near-free no-ops, so library users and tests that don't care about
//! dumps never find files appearing beside them.
//!
//! A dump contains the completed span ring, every still-open span
//! rendered with status `interrupted` (work cut mid-flight — exactly
//! what you want to see after a crash), and a full metrics snapshot.

use crate::causal::{self, escape_json_into, SpanRecord};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn dump_dir_cell() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| {
        Mutex::new(
            std::env::var_os("FDB_FLIGHT_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
        )
    })
}

/// Arms (or with `None` disarms) fault-triggered flight dumps, writing
/// them under `dir`. Overrides any `FDB_FLIGHT_DIR` environment value.
pub fn set_dump_dir(dir: Option<PathBuf>) {
    let cell = dump_dir_cell();
    match cell.lock() {
        Ok(mut g) => *g = dir,
        Err(mut poisoned) => **poisoned.get_mut() = dir,
    }
}

/// The currently armed dump directory, if any.
pub fn dump_dir() -> Option<PathBuf> {
    let cell = dump_dir_cell();
    match cell.lock() {
        Ok(g) => g.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

fn push_span_json(out: &mut String, s: &SpanRecord) {
    out.push_str(&format!(
        "{{\"trace\":{},\"span\":{},\"parent\":{},\"link\":{},\"lane\":{},\"name\":\"{}\",\"status\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"detail\":\"",
        s.trace_id,
        s.span_id,
        s.parent_span,
        s.link_span,
        s.lane,
        s.name,
        s.status.label(),
        s.start_ns,
        s.dur_ns,
    ));
    escape_json_into(out, &s.detail);
    out.push_str("\"}");
}

/// Renders the flight-dump JSON body: reason, ring-drop count, all
/// completed spans, all open spans as `interrupted`, and a metrics
/// snapshot.
pub fn render_flight(reason: &str) -> String {
    let rec = causal::recorder();
    let completed = rec.recent();
    let interrupted = rec.interrupted();
    let mut out = String::with_capacity(4096);
    out.push_str("{\"reason\":\"");
    escape_json_into(&mut out, reason);
    out.push_str(&format!(
        "\",\"dropped\":{},\"open\":{},\"spans\":[\n",
        rec.dropped(),
        interrupted.len()
    ));
    let mut first = true;
    for s in completed.iter().chain(interrupted.iter()) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        push_span_json(&mut out, s);
    }
    out.push_str("\n],\"metrics\":");
    out.push_str(&crate::render_json(crate::registry()));
    out.push_str("}\n");
    out
}

/// Writes a flight dump into `dir` as `flight-<seq>.json` and returns
/// its path. Used by `DUMP TRACE` (explicit directory) and by the
/// fault hooks (armed directory).
pub fn dump_to(dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flight-{seq}.json"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, render_flight(reason))?;
    Ok(path)
}

/// Writes a flight dump into the armed directory, if one is configured.
/// Returns the written path, `Ok(None)` when disarmed.
pub fn dump(reason: &str) -> std::io::Result<Option<PathBuf>> {
    match dump_dir() {
        Some(dir) => dump_to(&dir, reason).map(Some),
        None => Ok(None),
    }
}

/// Best-effort fault hook: dumps if armed, swallows I/O errors (the
/// fault being recorded is already surfacing to the caller; a failing
/// dump must not mask it). Called on fsync failure and replica
/// divergence.
pub fn dump_on_fault(reason: &str) {
    let _ = dump(reason);
}

/// Installs a panic hook (once) that writes a flight dump with reason
/// `panic: <message>` before delegating to the previous hook. Safe to
/// call repeatedly; only the first call installs.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            dump_on_fault(&format!("panic: {msg}"));
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_flight_includes_open_spans_as_interrupted() {
        let _flags = crate::tests::global_flags();
        crate::set_enabled(true);
        causal::set_tracing(true);
        causal::set_sample_rate(1);
        let span = causal::statement_span("fdb.test.flight", || "mid-flight".to_string());
        let body = render_flight("unit \"test\"");
        assert!(body.contains("\"reason\":\"unit \\\"test\\\"\""));
        assert!(body.contains("\"name\":\"fdb.test.flight\""));
        assert!(body.contains("\"status\":\"interrupted\""));
        assert!(body.contains("\"metrics\":{\"counters\":{"));
        drop(span);
        causal::set_sample_rate(causal::DEFAULT_SAMPLE_RATE);
    }

    #[test]
    fn disarmed_dump_writes_nothing() {
        set_dump_dir(None);
        assert!(dump("noop").expect("disarmed dump is ok").is_none());
        dump_on_fault("noop");
    }
}
