//! Golden-output test: the `CHECK` statement's rendering for the paper's
//! Example 1 session must stay byte-stable (`tests/scripts/*.golden`).
//! Editors, baselines and CI gates all match on this text — treat a diff
//! here as a breaking change to the diagnostic format.

mod common;
use common::run_script;

#[test]
fn example1_check_output_is_byte_stable() {
    let (_, check) = run_script("tests/scripts/example1_check.fdb");
    let golden =
        std::fs::read_to_string("tests/scripts/example1_check.golden").expect("golden file exists");
    assert!(
        check == golden,
        "CHECK output drifted from the golden file.\n--- expected ---\n{golden}\n--- actual ---\n{check}"
    );
}

#[test]
fn example1_check_json_carries_the_same_findings() {
    let (mut engine, _) = run_script("tests/scripts/example1_check.fdb");
    let json = engine.execute_line("CHECK JSON").expect("CHECK JSON runs");
    let tree = serde_json::parse(&json).expect("valid JSON");
    let seq = tree.as_seq().expect("array of findings");
    let codes: Vec<&str> = seq
        .iter()
        .filter_map(|d| {
            d.as_map()
                .and_then(|m| serde::map_get(m, "code"))
                .and_then(|c| c.as_str())
        })
        .collect();
    assert!(codes.contains(&"FDB020"), "{codes:?}");
    assert!(codes.contains(&"FDB031"), "{codes:?}");
}
