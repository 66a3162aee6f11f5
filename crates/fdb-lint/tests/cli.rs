//! End-to-end tests of the `fdb-lint` binary: exit codes, formats,
//! baselines and FDB000 syntax recovery.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fdb_lint_{}_{name}", std::process::id()))
}

fn write_script(name: &str, text: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, text).expect("write temp script");
    path
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fdb-lint"))
        .args(args)
        .output()
        .expect("run fdb-lint")
}

const CLEAN: &str = "DECLARE teach: faculty -> course (many-many)\n\
                     INSERT teach(euclid, math)\n\
                     QUERY teach(euclid)\n";

const WARNY: &str = "DECLARE teach: faculty -> course (many-many)\n\
                     INSERT teach(euclid, math)\n\
                     DELETE teach(euclid, math)\n";

const ERRORY: &str = "INSERT ghost(a, b)\n";

#[test]
fn exit_codes_track_worst_severity() {
    let clean = write_script("clean.fdb", CLEAN);
    let warny = write_script("warny.fdb", WARNY);
    let errory = write_script("errory.fdb", ERRORY);

    let out = lint(&[clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("check: 0 errors, 0 warnings, 0 infos"),
        "{text}"
    );

    let out = lint(&[warny.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FDB023 warn 3:8:"), "{text}");

    // --deny warn upgrades warnings to a failing exit.
    let out = lint(&["--deny", "warn", warny.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let out = lint(&[errory.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    for p in [clean, warny, errory] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn unparseable_lines_become_fdb000_not_a_crash() {
    let bad = write_script(
        "bad.fdb",
        "THIS IS NOT FDBL\nDECLARE teach: faculty -> course (many-many)\n",
    );
    let out = lint(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FDB000 error 1:"), "{text}");
    std::fs::remove_file(bad).ok();
}

#[test]
fn json_format_maps_files_to_findings() {
    let warny = write_script("json.fdb", WARNY);
    let out = lint(&["--format", "json", warny.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"FDB023\""), "{text}");
    assert!(text.contains("\"severity\":\"warn\""), "{text}");
    std::fs::remove_file(warny).ok();
}

#[test]
fn sarif_format_is_valid_and_points_at_the_file() {
    let warny = write_script("sarif.fdb", WARNY);
    let out = lint(&["--format", "sarif", warny.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"version\":\"2.1.0\""), "{text}");
    assert!(text.contains("\"ruleId\":\"FDB023\""), "{text}");
    assert!(text.contains("sarif.fdb"), "{text}");
    std::fs::remove_file(warny).ok();
}

#[test]
fn baseline_suppresses_known_findings() {
    let warny = write_script("base.fdb", WARNY);
    let baseline = tmp("baseline.txt");
    let wpath = warny.to_str().unwrap();
    let bpath = baseline.to_str().unwrap();

    // Writing the baseline records the current findings and exits 0.
    let out = lint(&["--baseline", bpath, "--write-baseline", wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let recorded = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(
        recorded.contains(&format!("FDB023 {wpath}:3")),
        "{recorded}"
    );

    // With the baseline applied the same script is clean…
    let out = lint(&["--baseline", bpath, wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // …but a new finding on another line still fails.
    let grown = format!("{WARNY}INSERT teach(gauss, algebra)\nDELETE teach(gauss, algebra)\n");
    std::fs::write(&warny, grown).expect("grow script");
    let out = lint(&["--baseline", bpath, wpath]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FDB023 warn 5:8:"), "{text}");

    std::fs::remove_file(warny).ok();
    std::fs::remove_file(baseline).ok();
}

#[test]
fn replica_mode_marker_turns_on_fdb040_per_file() {
    // Same statements, with and without the marker: the lint is scoped
    // to the file that declares itself a replica script.
    let body = "DECLARE teach: faculty -> course (many-many)\n\
                INSERT teach(euclid, math)\n\
                QUERY teach(euclid)\n";
    let replica = write_script("replica.fdb", &format!("-- mode: replica\n{body}"));
    let primary = write_script("primary.fdb", body);

    let out = lint(&[replica.to_str().unwrap(), primary.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FDB040 error 2:1:"), "{text}");
    assert!(text.contains("FDB040 error 3:1:"), "{text}");
    let fdb040s = text.matches("FDB040").count();
    assert_eq!(fdb040s, 2, "primary file must stay quiet: {text}");

    for p in [replica, primary] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn stale_baseline_keys_are_noted_and_prunable() {
    let warny = write_script("stale.fdb", WARNY);
    let baseline = tmp("stale_baseline.txt");
    let wpath = warny.to_str().unwrap();
    let bpath = baseline.to_str().unwrap();

    // Record the current findings, then fix the script: the recorded
    // key no longer matches anything.
    let out = lint(&["--baseline", bpath, "--write-baseline", wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::write(&warny, CLEAN).expect("fix script");
    let out = lint(&["--baseline", bpath, wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("note: stale baseline entry"), "{err}");
    assert!(err.contains(&format!("FDB023 {wpath}:3")), "{err}");

    // Pruning rewrites the file without the stale key and exits 0.
    let out = lint(&["--baseline", bpath, "--prune-baseline", wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pruned 1 stale baseline entries"), "{text}");
    let rewritten = std::fs::read_to_string(&baseline).expect("baseline kept");
    assert!(!rewritten.contains("FDB023"), "{rewritten}");
    let out = lint(&["--baseline", bpath, wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("stale"),
        "no notes after pruning"
    );

    // --write-baseline output is sorted and deduplicated: two findings
    // on distinct lines come back in line order, once each.
    let doubled = format!("{WARNY}INSERT teach(gauss, algebra)\nDELETE teach(gauss, algebra)\n");
    std::fs::write(&warny, doubled).expect("grow script");
    let out = lint(&["--baseline", bpath, "--write-baseline", wpath]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let rewritten = std::fs::read_to_string(&baseline).expect("baseline rewritten");
    let keys: Vec<&str> = rewritten.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(keys.len(), 2, "{rewritten}");
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted, "{rewritten}");

    std::fs::remove_file(warny).ok();
    std::fs::remove_file(baseline).ok();
}

#[test]
fn with_store_mines_the_replayed_data() {
    // grade is declared many-many but stores a violated many-one-looking
    // extension? No: store a one-one extension (incidental FD, FDB050)
    // plus a declared many-one function violated by a double mapping
    // (FDB051 with a repair).
    let store = write_script(
        "store.fdb",
        "DECLARE teach: faculty -> course (many-many)\n\
         DECLARE office: faculty -> room (many-one)\n\
         INSERT teach(euclid, math)\n\
         INSERT teach(laplace, stat)\n\
         INSERT office(euclid, e101)\n\
         INSERT office(euclid, e202)\n",
    );
    let spath = store.to_str().unwrap();

    let out = lint(&["--with-store", spath]);
    // The violation is warn-severity, so the exit code is 1.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fd teach: observed one-one"), "{text}");
    assert!(
        text.contains("violation office: declared many-one"),
        "{text}"
    );
    assert!(text.contains("delete office(euclid,"), "{text}");
    assert!(text.contains("FDB050"), "{text}");
    assert!(text.contains("FDB051"), "{text}");

    // The same findings flow through SARIF with the store file as the
    // artifact.
    let out = lint(&["--format", "sarif", "--with-store", spath]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"ruleId\":\"FDB051\""), "{text}");
    assert!(text.contains("store.fdb"), "{text}");

    // A replay failure is a usage/IO error, not a lint verdict.
    let broken = write_script("broken_store.fdb", "INSERT ghost(a, b)\n");
    let out = lint(&["--with-store", broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("replay failed"), "{err}");

    std::fs::remove_file(store).ok();
    std::fs::remove_file(broken).ok();
}

#[test]
fn sarif_multi_file_source_points_each_finding_at_its_file() {
    // `outer` SOURCEs `inner`; both carry a dead write, on different
    // lines. Each SARIF result must carry its own file's uri and the
    // column range of its own span.
    let inner = write_script("sarif_inner.fdb", WARNY);
    // The dead write sits *before* the SOURCE: a world-opening statement
    // mutes the closed-world passes from that point on.
    let outer = write_script(
        "sarif_outer.fdb",
        &format!(
            "DECLARE office: faculty -> room (many-one)\n\
             INSERT office(euclid, e101)\n\
             DELETE office(euclid, e101)\n\
             SOURCE \"{}\"\n",
            inner.display()
        ),
    );
    let opath = outer.to_str().unwrap();
    let ipath = inner.to_str().unwrap();

    fn as_u64(c: &serde::Content) -> Option<u64> {
        match c {
            serde::Content::U64(n) => Some(*n),
            _ => None,
        }
    }

    let out = lint(&["--format", "sarif", opath, ipath]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let log = serde_json::parse(&text).expect("valid JSON");
    let runs = log
        .as_map()
        .and_then(|m| serde::map_get(m, "runs"))
        .unwrap();
    let run = &runs.as_seq().unwrap()[0];
    let results = run
        .as_map()
        .and_then(|m| serde::map_get(m, "results"))
        .and_then(serde::Content::as_seq)
        .unwrap();
    // One FDB023 per file; collect (uri, startLine, startColumn).
    let mut found = Vec::new();
    for r in results {
        let m = r.as_map().unwrap();
        if serde::map_get(m, "ruleId").and_then(serde::Content::as_str) != Some("FDB023") {
            continue;
        }
        let loc = serde::map_get(m, "locations")
            .and_then(serde::Content::as_seq)
            .unwrap()[0]
            .as_map()
            .and_then(|m| serde::map_get(m, "physicalLocation"))
            .unwrap();
        let uri = loc
            .as_map()
            .and_then(|m| serde::map_get(m, "artifactLocation"))
            .and_then(serde::Content::as_map)
            .and_then(|m| serde::map_get(m, "uri"))
            .and_then(serde::Content::as_str)
            .unwrap()
            .to_owned();
        let region = loc
            .as_map()
            .and_then(|m| serde::map_get(m, "region"))
            .and_then(serde::Content::as_map)
            .unwrap();
        let line = serde::map_get(region, "startLine")
            .and_then(as_u64)
            .unwrap();
        let start = serde::map_get(region, "startColumn")
            .and_then(as_u64)
            .unwrap();
        let end = serde::map_get(region, "endColumn")
            .and_then(as_u64)
            .unwrap();
        found.push((uri, line, start, end));
    }
    assert_eq!(found.len(), 2, "{text}");
    // Both dead writes sit on line 3 of their own file; each span covers
    // the function name after "DELETE " (col 8).
    assert!(
        found
            .iter()
            .any(|(u, l, s, e)| u == opath && *l == 3 && *s == 8 && *e > *s),
        "{found:?}"
    );
    assert!(
        found
            .iter()
            .any(|(u, l, s, e)| u == ipath && *l == 3 && *s == 8 && *e > *s),
        "{found:?}"
    );

    std::fs::remove_file(outer).ok();
    std::fs::remove_file(inner).ok();
}

/// The CI `lint-self` gate, runnable offline: every shipped script must
/// be clean under `--deny warn` against the checked-in baseline, so a
/// new fixture that is not lint-clean fails `cargo test`.
#[test]
fn shipped_scripts_are_lint_clean_against_the_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut scripts = Vec::new();
    for dir in ["examples/scripts", "tests/scripts"] {
        let mut found: Vec<String> = std::fs::read_dir(root.join(dir))
            .expect("script directory exists")
            .map(|entry| entry.expect("readable entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.ends_with(".fdb"))
            .map(|name| format!("{dir}/{name}"))
            .collect();
        // The order a shell glob gives; baseline keys name these paths.
        found.sort();
        scripts.extend(found);
    }
    assert!(scripts.len() >= 2, "no scripts found: {scripts:?}");
    let out = Command::new(env!("CARGO_BIN_EXE_fdb-lint"))
        .current_dir(&root)
        .args(["--deny", "warn", "--baseline", "lint-baseline.txt"])
        .args(&scripts)
        .output()
        .expect("run fdb-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_errors_exit_three() {
    let out = lint(&[]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let out = lint(&["--format", "yaml", "x.fdb"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let out = lint(&["/nonexistent/definitely_missing.fdb"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}
