//! Snapshots in the JSON form earlier versions wrote, recorded by the last
//! version that wrote it, each beside that version's binary snapshot of
//! the same database (`tests/fixtures/legacy/`):
//!
//! * `corpus/NN.json` — nine states of the generator of
//!   `properties_engine::binary_snapshot_round_trip_keeps_bytes_and_structure`:
//!   NCs, NVC nulls, tombstones, an aborted transaction, null
//!   substitution, churn that crossed auto-compaction (03–06, 08) or left
//!   its tombstones (01, 02, 07), and in 08 non-default limits and
//!   policies;
//! * `no_compaction.json` and `no_policies.json` — state 08 without the
//!   optional `store.compaction`, and without both optional policies;
//! * `empty_checkpoint.json` and `crash_matrix_checkpoint.json` — JSON
//!   checkpoint documents, read by `wal.rs` and `crash_matrix.rs`.
//!
//! Loading a JSON snapshot, and re-encoding a binary one, must give the
//! recorded bytes.

use fdb::core::{Database, InsertPolicy};
use fdb::storage::chain::DeletePolicy;

mod common;

macro_rules! corpus_state {
    ($n:literal) => {
        (
            $n,
            include_str!(concat!("fixtures/legacy/corpus/", $n, ".json")),
            include_bytes!(concat!("fixtures/legacy/corpus/", $n, ".snap")),
        )
    };
}

const CORPUS: [(&str, &str, &[u8]); 9] = [
    corpus_state!("00"),
    corpus_state!("01"),
    corpus_state!("02"),
    corpus_state!("03"),
    corpus_state!("04"),
    corpus_state!("05"),
    corpus_state!("06"),
    corpus_state!("07"),
    corpus_state!("08"),
];

/// Loads `json`, asserts it is the database `binary` holds — the
/// recorded bytes, re-encoded unchanged, and the same structure — and
/// returns it.
fn load(name: &str, json: &str, binary: &[u8]) -> Database {
    let from_json =
        Database::from_snapshot(json.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let from_binary = Database::from_snapshot(binary).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(from_json.to_snapshot().unwrap(), binary, "{name}: JSON");
    assert_eq!(from_binary.to_snapshot().unwrap(), binary, "{name}: binary");
    common::assert_same_database(&from_json, &from_binary, name);
    assert!(from_json.is_consistent(), "{name}");
    from_json
}

#[test]
fn json_corpus_loads_to_the_recorded_binary_bytes() {
    let (mut with_ncs, mut with_nulls, mut with_tombstones) = (0, 0, 0);
    for (name, json, binary) in CORPUS {
        let db = load(name, json, binary);
        let store = db.store();
        with_ncs += usize::from(!store.ncs().is_empty());
        with_nulls += usize::from(store.nulls().generated() > 0);
        with_tombstones += usize::from(
            db.base_functions()
                .iter()
                .any(|&f| store.table(f).tombstones() > 0),
        );
    }
    assert_eq!((with_ncs, with_nulls, with_tombstones), (8, 9, 9));
}

#[test]
fn optional_fields_absent_from_older_snapshots_take_their_defaults() {
    let (_, _, full) = CORPUS[8];
    let full = Database::from_snapshot(full).unwrap();
    assert_eq!(
        (
            full.delete_policy(),
            full.insert_policy(),
            full.chain_limits().max_chains
        ),
        (DeletePolicy::Strict, InsertPolicy::ShortestDerivation, 777)
    );
    // Without `store.compaction`: the same database.
    let no_compaction = load(
        "no_compaction",
        include_str!("fixtures/legacy/no_compaction.json"),
        include_bytes!("fixtures/legacy/no_compaction.snap"),
    );
    common::assert_same_database(&no_compaction, &full, "no_compaction");
    // Without both policies: the defaults, everything else unchanged.
    let no_policies = load(
        "no_policies",
        include_str!("fixtures/legacy/no_policies.json"),
        include_bytes!("fixtures/legacy/no_policies.snap"),
    );
    assert_eq!(
        (no_policies.delete_policy(), no_policies.insert_policy()),
        (DeletePolicy::Faithful, InsertPolicy::FirstDerivation)
    );
    common::assert_same_store(no_policies.store(), full.store(), "no_policies");
}

/// The JSON reader builds the store through the constructors the binary
/// decoder uses, so it refuses what they refuse.
#[test]
fn json_snapshot_holding_an_impossible_state_is_refused() {
    let (_, json, _) = CORPUS[7];
    for (from, to, why) in [
        (r#""ncl":[1,2]"#, r#""ncl":[1,99]"#, "duality"),
        (
            r#""truth":"Ambiguous","ncl":[1,2],"alive":true"#,
            r#""truth":"False","ncl":[1,2],"alive":true"#,
            "flagged F",
        ),
        (
            r#""next":12}"#,
            r#""next":3}"#,
            "is not below the next NC id",
        ),
    ] {
        let edited = json.replacen(from, to, 1);
        assert_ne!(edited, json, "{from}");
        let err = Database::from_snapshot(edited.as_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.contains(why), "{why}: {err}");
    }
}
