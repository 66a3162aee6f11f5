//! Property tests for the minimal cardinality repair: on every table of
//! up to 16 distinct pairs, under every declared functionality, the
//! solver must return exactly the repair a brute-force reference picks
//! (the optimum that keeps the smallest row mask) and count the same
//! conflict components.

use proptest::prelude::*;

use fdb::check::minimal_repair;
use fdb::storage::Table;
use fdb::types::{Functionality, Value};

const FUNCTIONALITIES: [Functionality; 4] = [
    Functionality::OneOne,
    Functionality::OneMany,
    Functionality::ManyOne,
    Functionality::ManyMany,
];

/// The live rows of `table`, in log order.
fn live(table: &Table) -> Vec<(Value, Value)> {
    table.rows().map(|r| (r.x.clone(), r.y.clone())).collect()
}

/// Whether rows `i` and `j` may not both stay under `declared`.
fn conflict(rows: &[(Value, Value)], i: usize, j: usize, declared: Functionality) -> bool {
    let ((xi, yi), (xj, yj)) = (&rows[i], &rows[j]);
    (declared.is_functional() && xi == xj && yi != yj)
        || (declared.is_injective() && yi == yj && xi != xj)
}

/// The reference repair: among the largest conflict-free row sets, the
/// one whose mask (bit `i` for the `i`-th live row) is smallest; the
/// rows outside it, sorted by value.
fn brute_force_repair(rows: &[(Value, Value)], declared: Functionality) -> Vec<(Value, Value)> {
    let n = rows.len();
    let edges: Vec<u32> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| conflict(rows, i, j, declared))
                .map(|j| 1 << j)
                .sum()
        })
        .collect();
    let (mut best, mut size) = (0u32, 0u32);
    for mask in 0u32..(1 << n) {
        if mask.count_ones() > size && (0..n).all(|i| mask & (1 << i) == 0 || mask & edges[i] == 0)
        {
            (best, size) = (mask, mask.count_ones());
        }
    }
    let mut repair: Vec<(Value, Value)> = (0..n)
        .filter(|&i| best & (1 << i) == 0)
        .map(|i| rows[i].clone())
        .collect();
    repair.sort();
    repair
}

/// The number of connected components of the conflict graph that hold a
/// conflict.
fn brute_force_groups(rows: &[(Value, Value)], declared: Functionality) -> usize {
    let n = rows.len();
    let mut component: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in 0..n {
            if conflict(rows, i, j, declared) {
                let (a, b) = (component[i], component[j]);
                for c in &mut component {
                    if *c == b {
                        *c = a;
                    }
                }
            }
        }
    }
    let mut conflicted: Vec<usize> = (0..n)
        .filter(|&i| (0..n).any(|j| conflict(rows, i, j, declared)))
        .map(|i| component[i])
        .collect();
    conflicted.sort_unstable();
    conflicted.dedup();
    conflicted.len()
}

/// A table of `n` live distinct pairs, `n` drawn uniformly from 0 to
/// 16, over four `x` and four `y` values (tiny alphabets force
/// conflicts), logged in a random order between pairs deleted again, so
/// the log holds tombstones between live rows.
fn small_table() -> impl Strategy<Value = Table> {
    // The 16 cells, in the order of 16 random sort keys.
    let cells = || {
        prop::collection::vec(any::<u32>(), 16).prop_map(|keys| {
            let mut cells: Vec<u8> = (0..16).collect();
            cells.sort_by_key(|&c| keys[usize::from(c)]);
            cells
        })
    };
    let ghosts = prop::collection::vec(any::<bool>(), 16);
    (cells(), cells(), 0usize..=16, ghosts).prop_map(|(order, pick, n, ghost)| {
        let pair = |c: u8| {
            let [x, y] = [c / 4, c % 4];
            (Value::atom(format!("x{x}")), Value::atom(format!("y{y}")))
        };
        let live = |c: u8| pick[..n].contains(&c);
        let mut table = Table::new();
        for &c in order.iter().filter(|&&c| live(c) || ghost[usize::from(c)]) {
            let (x, y) = pair(c);
            table.insert(x, y);
        }
        for &c in order.iter().filter(|&&c| !live(c) && ghost[usize::from(c)]) {
            let (x, y) = pair(c);
            table.remove(&x, &y);
        }
        table
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_repair_matches_brute_force(table in small_table()) {
        let rows = live(&table);
        for declared in FUNCTIONALITIES {
            let (repair, groups) = minimal_repair(&table, declared);
            prop_assert_eq!(&repair, &brute_force_repair(&rows, declared), "{}", declared);
            prop_assert_eq!(groups, brute_force_groups(&rows, declared), "{}", declared);
        }
    }
}
