//! Transcript oracle for the language engine: `statement_matrix.fdb`
//! holds every statement kind at least once (errors, deadlines, a
//! multi-derivation function, NCs and nulls, `STRICT ON` + `SOURCE`
//! included), and the `Ok`/`Err` text of every line, concatenated, must
//! equal `statement_matrix.golden` byte for byte. A refactor of the
//! engine that changes any answer shows up here as a one-line diff: the
//! failure message lists every drifting line, so "identical but for
//! these lines" can be read off it.
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

/// Every line that differs between the two transcripts, `- <golden line
/// number>: …` for one only the golden has and `+ <actual line number>:
/// …` for one only the actual run printed: a line diff over their
/// longest common subsequence, so an answer that grew or shrank by a
/// line does not mark everything after it.
fn drift(golden: &str, actual: &str) -> String {
    let (g, a): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    // common[i][j]: length of the longest common subsequence of g[i..], a[j..].
    let mut common = vec![vec![0u32; a.len() + 1]; g.len() + 1];
    for i in (0..g.len()).rev() {
        for j in (0..a.len()).rev() {
            common[i][j] = if g[i] == a[j] {
                common[i + 1][j + 1] + 1
            } else {
                common[i + 1][j].max(common[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < g.len() || j < a.len() {
        if i < g.len() && j < a.len() && g[i] == a[j] {
            (i, j) = (i + 1, j + 1);
        } else if j == a.len() || (i < g.len() && common[i + 1][j] >= common[i][j + 1]) {
            out.push_str(&format!("- {:>4}: {}\n", i + 1, g[i]));
            i += 1;
        } else {
            out.push_str(&format!("+ {:>4}: {}\n", j + 1, a[j]));
            j += 1;
        }
    }
    out
}

#[test]
fn drift_lists_every_changed_line_and_nothing_after_a_length_change() {
    let golden = "a\nb\nc\nd\ne\n";
    assert_eq!(drift(golden, golden), "");
    assert_eq!(
        drift(golden, "a\nB1\nB2\nc\ne\nf\n"),
        "-    2: b\n+    2: B1\n+    3: B2\n-    4: d\n+    6: f\n"
    );
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
        panic!(
            "transcript drifted from {GOLDEN}; actual written to {}\n{}",
            path.display(),
            drift(&golden, &actual)
        );
    }
}
