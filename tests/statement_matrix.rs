//! Transcript oracle for the language engine: `statement_matrix.fdb`
//! holds every statement kind at least once (errors, deadlines, a
//! multi-derivation function, NCs and nulls, `STRICT ON` + `SOURCE`
//! included), and the `Ok`/`Err` text of every line, concatenated, must
//! equal `statement_matrix.golden` byte for byte. A refactor of the
//! engine that changes any answer shows up here as a one-line diff.
//!
//! To regenerate after an intended change, copy the `.actual` file the
//! failing assertion names over the golden and review the diff.

use fdb::lang::Engine;

const FIXTURE: &str = "tests/scripts/statement_matrix.fdb";
const GOLDEN: &str = "tests/scripts/statement_matrix.golden";

/// Statements whose whole output carries timings, span ids or a dump
/// sequence number.
const VOLATILE: [&str; 4] = ["STATS JSON", "SHOW TRACE", "SHOW SLOW", "DUMP TRACE"];

/// Keeps the stable part of one statement's output: registry rows
/// (`fdb.…`, printed by `STATS`) go, and so do the lines of an
/// `EXPLAIN ANALYZE` report mentioning "time", the way
/// `tests/observability.rs` filters them.
fn stable(line: &str, out: &str) -> String {
    if VOLATILE.iter().any(|v| line.starts_with(v)) {
        return "<volatile>\n".to_owned();
    }
    let analyze = line.starts_with("EXPLAIN ANALYZE");
    let dropped = |l: &str| l.starts_with("fdb.") || (analyze && l.contains("time"));
    out.lines()
        .filter(|l| !dropped(l))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Runs the fixture through a fresh engine and renders the transcript:
/// `>> line`, then the statement's output or `!! error`.
fn transcript(tmp: &str) -> String {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let mut engine = Engine::new();
    let mut out = String::new();
    for line in text.lines() {
        out.push_str(&format!(">> {line}\n"));
        let rendered = match engine.execute_line(&line.replace("$TMP", tmp)) {
            Ok(text) => stable(line, &text),
            Err(e) => format!("!! {e}\n"),
        };
        out.push_str(&rendered.replace(tmp, "$TMP"));
    }
    out
}

#[test]
fn statement_matrix_transcript_is_byte_stable() {
    let tmp = std::env::temp_dir().join(format!("fdb_statement_matrix_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    fdb::obs::flight::set_dump_dir(Some(tmp.clone()));
    let actual = transcript(tmp.to_str().expect("utf-8 temp path"));
    std::fs::remove_dir_all(&tmp).ok();

    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let path = std::env::temp_dir().join("statement_matrix.actual");
        std::fs::write(&path, &actual).expect("write actual transcript");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "transcript drifted from {GOLDEN} at line {}; actual written to {}",
            line + 1,
            path.display()
        );
    }
}
