//! Shared test helpers. The planner differential tests
//! (`properties_planner.rs`, `multi_derivation.rs`) compare pair
//! evaluation through `fdb::exec` against the reference interpreter
//! `fdb::storage::chain`, per-pair truth queries and all; the golden
//! tests (`check_golden.rs`, `check_data.rs`, `statement_matrix.rs`) run
//! script fixtures through the language engine; the state comparisons
//! (`assert_same_store`, `assert_same_database`) hold two states to
//! equal snapshot bytes and equal structure; `legacy_json` lays out log
//! records in the JSON earlier versions wrote.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use std::collections::BTreeSet;

use fdb::core::wal::LogRecord;
use fdb::core::{Database, InsertPolicy};
use fdb::governor::Governor;
use fdb::lang::Engine;
use fdb::storage::chain::DeletePolicy;
use fdb::storage::{chain, ChainLimits, DerivedPair, Fact, NcId, Store, Truth};
use fdb::types::{Derivation, FunctionId, Op, Value};

pub mod legacy_json;

/// One live row: its index, `x`, `y`, truth flag and NCL.
type LiveRow = (usize, Value, Value, Truth, Vec<NcId>);

/// What a store holds, read through its public accessors: per table the
/// live rows and the tombstone count, every NC's conjuncts, and the null
/// watermark.
#[derive(Debug, PartialEq)]
pub struct StoreStructure {
    tables: Vec<(Vec<LiveRow>, usize)>,
    ncs: Vec<(NcId, Vec<Fact>)>,
    null_watermark: u64,
}

pub fn store_structure(store: &Store) -> StoreStructure {
    let tables = (0..store.table_count())
        .map(|f| {
            let table = store.table(FunctionId(f as u32));
            let rows = table
                .live_indices()
                .map(|i| {
                    let row = table.row(i).expect("a live index has a row");
                    let ncl = row.ncl.iter().copied().collect();
                    (i, row.x.clone(), row.y.clone(), row.truth, ncl)
                })
                .collect();
            (rows, table.tombstones())
        })
        .collect();
    StoreStructure {
        tables,
        ncs: store.ncs().iter().map(|(id, c)| (id, c.to_vec())).collect(),
        null_watermark: store.nulls().watermark(),
    }
}

/// `Store::encode` bytes.
pub fn store_bytes(store: &Store) -> Vec<u8> {
    let mut out = Vec::new();
    store.encode(&mut out);
    out
}

/// Asserts that two stores encode to the same bytes and hold the same
/// structure.
pub fn assert_same_store(a: &Store, b: &Store, context: &str) {
    assert_eq!(store_bytes(a), store_bytes(b), "store bytes: {context}");
    assert_eq!(store_structure(a), store_structure(b), "store: {context}");
}

/// Asserts that two databases snapshot to the same bytes and hold the
/// same store, limits and policies.
pub fn assert_same_database(a: &Database, b: &Database, context: &str) {
    assert_eq!(
        a.to_snapshot().expect("snapshot"),
        b.to_snapshot().expect("snapshot"),
        "snapshot bytes: {context}"
    );
    assert_same_store(a.store(), b.store(), context);
    let settings = |db: &Database| -> (usize, DeletePolicy, InsertPolicy) {
        (
            db.chain_limits().max_chains,
            db.delete_policy(),
            db.insert_policy(),
        )
    };
    assert_eq!(settings(a), settings(b), "limits and policies: {context}");
}

/// Runs the script fixture at `path` through a fresh engine, line by
/// line, and returns the engine with the last statement's output. Any
/// failing line panics.
pub fn run_script(path: &str) -> (Engine, String) {
    let text = std::fs::read_to_string(path).expect("script fixture exists");
    let mut engine = Engine::new();
    let mut last = String::new();
    for line in text.lines() {
        last = engine
            .execute_line(line)
            .unwrap_or_else(|e| panic!("`{line}` failed: {e}"));
    }
    (engine, last)
}

/// How many random instances a differential test draws.
/// `FDB_PLANNER_CASES` raises it for the CI release run (the vendored
/// `proptest` does not read `PROPTEST_CASES`).
pub fn planner_cases() -> u32 {
    std::env::var("FDB_PLANNER_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// What the compared instances contained, so a test can assert that the
/// partial-information paths were really exercised.
#[derive(Debug, Default)]
pub struct Tally {
    /// Derivation sets compared (the interpreter enumerated them fully).
    pub compared: usize,
    /// Derivation sets skipped: the interpreter itself hit the chain cap.
    pub capped: usize,
    /// Of the compared: stores holding null facts / NCs.
    pub with_nulls: usize,
    pub with_ncs: usize,
    /// Of the compared: sets with a row that puts a null at a chain
    /// endpoint — the source of wildcard chains.
    pub with_null_endpoints: usize,
    /// Ambiguous pairs over all compared extensions.
    pub ambiguous_pairs: usize,
    /// Of the compared: sets where some chain of a listed pair passes one
    /// row twice (a function used forth and back in adjacent steps) — the
    /// chains whose NC coverage must count rows distinctly.
    pub with_repeated_rows: usize,
    /// Of the compared: sets that list a pair with an atom over 14 bytes
    /// — a value held shared, not inline, so the pair sort orders that
    /// form too.
    pub with_long_atoms: usize,
}

fn has_null_facts(store: &Store, derivations: &[Derivation]) -> bool {
    derivations.iter().flat_map(Derivation::steps).any(|s| {
        let stats = store.table(s.function).stats();
        stats.null_x + stats.null_y > 0
    })
}

fn has_repeated_rows(store: &Store, derivations: &[Derivation], pairs: &[DerivedPair]) -> bool {
    let self_join = |d: &Derivation| d.steps().windows(2).any(|w| w[0].function == w[1].function);
    let repeats = |facts: &[fdb::storage::Fact]| {
        facts
            .iter()
            .enumerate()
            .any(|(i, f)| facts[..i].contains(f))
    };
    derivations.iter().filter(|d| self_join(d)).any(|d| {
        pairs.iter().any(|p| {
            chain::chains_deriving(store, d, &p.x, &p.y, true, ChainLimits::default())
                .iter()
                .any(|c| repeats(&c.facts))
        })
    })
}

fn has_null_endpoints(store: &Store, derivations: &[Derivation]) -> bool {
    derivations.iter().any(|d| {
        let (first, last) = (&d.steps()[0], &d.steps()[d.len() - 1]);
        let (first_stats, last_stats) = (
            store.table(first.function).stats(),
            store.table(last.function).stats(),
        );
        let null_left = match first.op {
            Op::Inverse => first_stats.null_y,
            Op::Identity => first_stats.null_x,
        };
        let null_right = match last.op {
            Op::Inverse => last_stats.null_x,
            Op::Identity => last_stats.null_y,
        };
        null_left + null_right > 0
    })
}

/// Asserts that `fdb::exec` answers the extension of `derivations`, the
/// image of every `x` occurring in it (plus one absent value) and the
/// inverse image of every `y` (plus one absent value) exactly as the
/// interpreter's extension, filtered, does. Sets whose interpreter
/// enumeration hits the chain cap are skipped: a capped prefix depends on
/// the direction walked.
pub fn assert_pairs_match_interpreter(
    store: &Store,
    derivations: &[Derivation],
    tally: &mut Tally,
    context: &str,
) {
    let limits = ChainLimits::default();
    let oracle =
        chain::derived_extension_governed(store, derivations, limits, &Governor::unbounded());
    if !oracle.is_complete() {
        tally.capped += 1;
        return;
    }
    let oracle = oracle.value();
    tally.compared += 1;
    tally.with_nulls += usize::from(has_null_facts(store, derivations));
    tally.with_ncs += usize::from(!store.ncs().is_empty());
    tally.with_null_endpoints += usize::from(has_null_endpoints(store, derivations));
    tally.with_repeated_rows += usize::from(has_repeated_rows(store, derivations, &oracle));
    tally.with_long_atoms += usize::from(
        oracle
            .iter()
            .any(|p| [&p.x, &p.y].iter().any(|v| v.to_string().len() > 14)),
    );
    tally.ambiguous_pairs += oracle
        .iter()
        .filter(|p| p.truth == Truth::Ambiguous)
        .count();

    assert_eq!(
        fdb::exec::derived_extension(store, derivations, limits),
        oracle,
        "extension diverged: {context}"
    );
    let absent = Value::atom("no-such-value");
    let xs: BTreeSet<&Value> = oracle.iter().map(|p| &p.x).chain([&absent]).collect();
    for x in xs {
        let expected: Vec<DerivedPair> = oracle.iter().filter(|p| &p.x == x).cloned().collect();
        assert_eq!(
            fdb::exec::derived_image(store, derivations, x, limits),
            expected,
            "image of {x} diverged: {context}"
        );
    }
    let ys: BTreeSet<&Value> = oracle.iter().map(|p| &p.y).chain([&absent]).collect();
    for y in ys {
        let expected: Vec<DerivedPair> = oracle.iter().filter(|p| &p.y == y).cloned().collect();
        assert_eq!(
            fdb::exec::derived_inverse_image(store, derivations, y, limits),
            expected,
            "inverse image of {y} diverged: {context}"
        );
    }
}
