//! Property-based tests for the §3.2 / §4 update semantics.
//!
//! A random stream of base/derived inserts and deletes over the paper's
//! `pupil = teach o class_list` shape must preserve the structural
//! invariants of the store and the logical guarantees of each operation.
//! After every step of every stream, NC coverage counted from NCLs
//! (`Store::nc_coverage`) must equal the reference scan of every live NC
//! (`NcStore::chain_covers_some_nc`).

use proptest::prelude::*;

use fdb_storage::chain::{derived_delete, derived_truth, ChainLimits};
use fdb_storage::nvc::derived_insert;
use fdb_storage::{Fact, RowRef, Store, Truth};
use fdb_types::{Derivation, FunctionId, Step, Value};

const TEACH: FunctionId = FunctionId(0);
const CLASS_LIST: FunctionId = FunctionId(1);

fn pupil() -> Derivation {
    Derivation::new(vec![Step::identity(TEACH), Step::identity(CLASS_LIST)]).unwrap()
}

#[derive(Clone, Debug)]
enum OpKind {
    BaseInsertTeach(u8, u8),
    BaseInsertClass(u8, u8),
    BaseDeleteTeach(u8, u8),
    BaseDeleteClass(u8, u8),
    DerivedInsert(u8, u8),
    DerivedDelete(u8, u8),
}

fn faculty(i: u8) -> Value {
    Value::atom(format!("fac{i}"))
}
fn course(i: u8) -> Value {
    Value::atom(format!("crs{i}"))
}
fn student(i: u8) -> Value {
    Value::atom(format!("stu{i}"))
}

fn arb_op() -> impl Strategy<Value = OpKind> {
    let small = 0u8..4;
    prop_oneof![
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseInsertTeach(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseInsertClass(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseDeleteTeach(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseDeleteClass(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::DerivedInsert(a, b)),
        (small.clone(), small).prop_map(|(a, b)| OpKind::DerivedDelete(a, b)),
    ]
}

fn apply(store: &mut Store, op: &OpKind) {
    let d = pupil();
    let lim = ChainLimits::default();
    match *op {
        OpKind::BaseInsertTeach(a, b) => store.base_insert(TEACH, faculty(a), course(b)),
        OpKind::BaseInsertClass(a, b) => store.base_insert(CLASS_LIST, course(a), student(b)),
        OpKind::BaseDeleteTeach(a, b) => {
            store.base_delete(TEACH, &faculty(a), &course(b));
        }
        OpKind::BaseDeleteClass(a, b) => {
            store.base_delete(CLASS_LIST, &course(a), &student(b));
        }
        OpKind::DerivedInsert(a, b) => derived_insert(store, &d, faculty(a), student(b)),
        OpKind::DerivedDelete(a, b) => {
            derived_delete(store, &[d], &faculty(a), &student(b), lim);
        }
    }
}

/// A step of SplitMix64: the pseudo-random picks of
/// [`coverage_matches_the_scan`].
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// NCL coverage of pseudo-random one- to three-row picks of the rows that
/// carry an NC — a row may be picked twice, as a self-join chain passes
/// it — equals the reference scan of their facts; so does that of every
/// NC's own rows plus one more. Needs the duality invariant.
fn coverage_matches_the_scan(store: &Store, salt: u64) -> Result<(), TestCaseError> {
    let mut carriers: Vec<(RowRef, Fact)> = Vec::new();
    for fi in 0..store.table_count() {
        let f = FunctionId(fi as u32);
        let table = store.table(f);
        for i in table.live_indices() {
            let row = table.row(i).expect("live");
            if !row.ncl.is_empty() {
                carriers.push(((f, i), Fact::new(f, row.x.clone(), row.y.clone())));
            }
        }
    }
    if carriers.is_empty() {
        return Ok(());
    }
    let mut state = salt;
    let mut pick = || splitmix(&mut state) as usize % carriers.len();
    let mut picks: Vec<Vec<usize>> = Vec::new();
    for len in [1, 2, 3, 1, 2, 3, 2, 3] {
        picks.push((0..len).map(|_| pick()).collect());
    }
    for (_, conjuncts) in store.ncs().iter() {
        let mut rows: Vec<usize> = conjuncts
            .iter()
            .map(|c| {
                carriers
                    .iter()
                    .position(|(_, fact)| fact == c)
                    .expect("a conjunct's row carries its NC")
            })
            .collect();
        rows.push(pick());
        picks.push(rows);
    }
    for rows in picks {
        let facts: Vec<Fact> = rows.iter().map(|&i| carriers[i].1.clone()).collect();
        prop_assert_eq!(
            store
                .nc_coverage(rows.iter().map(|&i| carriers[i].0))
                .covered,
            store.ncs().chain_covers_some_nc(&facts),
            "rows {:?}",
            facts
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The NC ↔ NCL duality invariant survives any op sequence, and with
    /// it NCL coverage equals the reference scan.
    #[test]
    fn duality_invariant(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut store = Store::new(2);
        for (n, op) in ops.iter().enumerate() {
            apply(&mut store, op);
            prop_assert!(store.check_duality().is_none(),
                "duality violated after {op:?}: {:?}", store.check_duality());
            coverage_matches_the_scan(&store, n as u64)
                .map_err(|e| TestCaseError::fail(format!("after {op:?}: {e}")))?;
        }
    }

    /// Immediately after `derived-insert(x, y)` the derived fact is true.
    #[test]
    fn derived_insert_makes_fact_true(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        derived_insert(&mut store, &pupil(), faculty(a), student(b));
        prop_assert_eq!(
            derived_truth(&store, &[pupil()], &faculty(a), &student(b), ChainLimits::default()),
            Truth::True
        );
    }

    /// Immediately after `derived-delete(x, y)` the derived fact is not
    /// true (it may remain ambiguous through chains with mismatched nulls,
    /// which the delete's NCs do not — and must not — negate).
    #[test]
    fn derived_delete_removes_truth(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        derived_delete(&mut store, &[pupil()], &faculty(a), &student(b), ChainLimits::default());
        prop_assert_ne!(
            derived_truth(&store, &[pupil()], &faculty(a), &student(b), ChainLimits::default()),
            Truth::True
        );
    }

    /// Base inserts make the base fact true; base deletes make it false —
    /// regardless of history.
    #[test]
    fn base_ops_assert_their_fact(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        store.base_insert(TEACH, faculty(a), course(b));
        prop_assert_eq!(
            store.base_truth(&Fact::new(TEACH, faculty(a), course(b))),
            Truth::True
        );
        store.base_delete(TEACH, &faculty(a), &course(b));
        prop_assert_eq!(
            store.base_truth(&Fact::new(TEACH, faculty(a), course(b))),
            Truth::False
        );
    }

    /// Every NC member is flagged ambiguous while its NC is live — and
    /// base facts flagged true belong to no NC.
    #[test]
    fn nc_members_are_ambiguous(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        for (_, facts) in store.ncs().iter() {
            for f in facts {
                prop_assert_eq!(store.base_truth(f), Truth::Ambiguous);
            }
        }
        for fid in [TEACH, CLASS_LIST] {
            for row in store.table(fid).rows() {
                if row.truth == Truth::True {
                    prop_assert!(row.ncl.is_empty());
                }
            }
        }
    }

    /// Derived-insert is idempotent at the instance level: repeating it
    /// changes neither the fact count nor the null count.
    #[test]
    fn derived_insert_idempotent(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        derived_insert(&mut store, &pupil(), faculty(a), student(b));
        let facts = store.fact_count();
        let nulls = store.nulls().generated();
        derived_insert(&mut store, &pupil(), faculty(a), student(b));
        prop_assert_eq!(store.fact_count(), facts);
        prop_assert_eq!(store.nulls().generated(), nulls);
    }

    /// The side-effect-freedom theorem of §3: a derived delete never
    /// changes the truth value of any *other* derived fact from true to
    /// false (it may downgrade true to ambiguous, never to false, and
    /// never invents new truth).
    #[test]
    fn derived_delete_is_side_effect_free(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        let lim = ChainLimits::default();
        // Truth of every derived pair before the delete.
        let mut before = Vec::new();
        for fa in 0..4u8 {
            for st in 0..4u8 {
                before.push((
                    fa,
                    st,
                    derived_truth(&store, &[pupil()], &faculty(fa), &student(st), lim),
                ));
            }
        }
        derived_delete(&mut store, &[pupil()], &faculty(a), &student(b), lim);
        for (fa, st, old) in before {
            if fa == a && st == b {
                continue; // the deleted fact itself
            }
            let new = derived_truth(&store, &[pupil()], &faculty(fa), &student(st), lim);
            // No other fact may be falsified outright…
            if old == Truth::True {
                prop_assert_ne!(new, Truth::False,
                    "side effect: pupil(fac{}, stu{}) went true → false", fa, st);
            }
            // …and nothing false becomes true.
            if old == Truth::False {
                prop_assert_ne!(new, Truth::True);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The copy-on-write table against a flat model.
//
// A random stream of base inserts and deletes (null endpoints among
// them), NC creation and dismantling, transactions with savepoint
// rollbacks and aborts, forced compactions and snapshots drives one
// `Store`. After every step the live table, and every snapshot taken
// before, must read exactly like a flat `Vec` of rows kept beside it —
// the layout the table had before it was split into chunks and layered
// indexes — and a snapshot's encoded bytes never change.

mod flat {
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    use fdb_storage::{NcId, Table, TableStats, Truth};
    use fdb_types::codec::put_uint;
    use fdb_types::Value;

    #[derive(Clone, Debug, PartialEq)]
    pub struct Row {
        pub x: Value,
        pub y: Value,
        pub truth: Truth,
        pub ncl: BTreeSet<NcId>,
        pub alive: bool,
    }

    /// The physical row log and the NC store, as plain collections.
    #[derive(Clone, Debug)]
    pub struct Model {
        pub rows: Vec<Row>,
        pub ncs: BTreeMap<NcId, Vec<(Value, Value)>>,
        pub next_nc: u64,
    }

    impl Model {
        pub fn new() -> Model {
            Model {
                rows: Vec::new(),
                ncs: BTreeMap::new(),
                next_nc: 1,
            }
        }

        pub fn find(&self, x: &Value, y: &Value) -> Option<usize> {
            self.rows
                .iter()
                .position(|r| r.alive && &r.x == x && &r.y == y)
        }

        pub fn live(&self) -> impl Iterator<Item = (usize, &Row)> {
            self.rows.iter().enumerate().filter(|(_, r)| r.alive)
        }

        pub fn insert(&mut self, x: Value, y: Value) {
            match self.find(&x, &y) {
                Some(i) => {
                    for d in self.rows[i].ncl.clone() {
                        self.dismantle(d);
                    }
                    self.rows[i].truth = Truth::True;
                }
                None => self.rows.push(Row {
                    x,
                    y,
                    truth: Truth::True,
                    ncl: BTreeSet::new(),
                    alive: true,
                }),
            }
        }

        pub fn delete(&mut self, x: &Value, y: &Value) -> bool {
            let Some(i) = self.find(x, y) else {
                return false;
            };
            for d in self.rows[i].ncl.clone() {
                self.dismantle(d);
            }
            self.rows[i].alive = false;
            self.rows[i].ncl.clear();
            true
        }

        pub fn create_nc(&mut self, conjuncts: Vec<(Value, Value)>) -> NcId {
            let id = NcId(self.next_nc);
            self.next_nc += 1;
            for (x, y) in &conjuncts {
                let i = self.find(x, y).expect("conjuncts are live rows");
                self.rows[i].ncl.insert(id);
                self.rows[i].truth = Truth::Ambiguous;
            }
            self.ncs.insert(id, conjuncts);
            id
        }

        pub fn dismantle(&mut self, id: NcId) {
            for (x, y) in self.ncs.remove(&id).unwrap_or_default() {
                if let Some(i) = self.find(&x, &y) {
                    self.rows[i].ncl.remove(&id);
                }
            }
        }

        pub fn compact(&mut self) {
            self.rows.retain(|r| r.alive);
        }

        pub fn dead(&self) -> usize {
            self.rows.iter().filter(|r| !r.alive).count()
        }

        /// `Store::encode` of a one-function store starts with these
        /// bytes: the table count, then the table.
        pub fn encoded_prefix(&self) -> Vec<u8> {
            let mut out = Vec::new();
            put_uint(&mut out, 1);
            put_uint(&mut out, self.rows.len() as u64);
            for r in &self.rows {
                r.x.encode(&mut out);
                r.y.encode(&mut out);
                let truth = match r.truth {
                    Truth::False => 0,
                    Truth::Ambiguous => 1,
                    Truth::True => 2,
                };
                out.push(truth << 1 | u8::from(r.alive));
                put_uint(&mut out, r.ncl.len() as u64);
                for nc in &r.ncl {
                    put_uint(&mut out, nc.0);
                }
            }
            out
        }

        /// Every read of `t` against the model; the first difference.
        pub fn differs_from(&self, t: &Table) -> Option<String> {
            let live: Vec<usize> = self.live().map(|(i, _)| i).collect();
            if t.live_indices().collect::<Vec<_>>() != live {
                return Some("live_indices".into());
            }
            let views: Vec<_> = t
                .rows()
                .map(|r| (r.x.clone(), r.y.clone(), r.truth, r.ncl.clone()))
                .collect();
            let expected: Vec<_> = self
                .live()
                .map(|(_, r)| (r.x.clone(), r.y.clone(), r.truth, r.ncl.clone()))
                .collect();
            if views != expected {
                return Some("rows()".into());
            }
            // Live row of each key; per endpoint value, its live rows in
            // order and the number of rows (tombstones included).
            let mut by_key: HashMap<(&Value, &Value), usize> = HashMap::new();
            let mut by_x: BTreeMap<&Value, (Vec<usize>, usize)> = BTreeMap::new();
            let mut by_y: BTreeMap<&Value, (Vec<usize>, usize)> = BTreeMap::new();
            for (i, r) in self.rows.iter().enumerate() {
                for (map, v) in [(&mut by_x, &r.x), (&mut by_y, &r.y)] {
                    let (rows, width) = map.entry(v).or_default();
                    *width += 1;
                    if r.alive {
                        rows.push(i);
                    }
                }
                if r.alive {
                    by_key.insert((&r.x, &r.y), i);
                }
            }
            for (i, r) in self.rows.iter().enumerate() {
                let view = t
                    .row(i)
                    .map(|v| (v.x.clone(), v.y.clone(), v.truth, v.ncl.clone()));
                let want = r
                    .alive
                    .then(|| (r.x.clone(), r.y.clone(), r.truth, r.ncl.clone()));
                if view != want {
                    return Some(format!("row({i})"));
                }
                let position = t.position(&r.x, &r.y);
                if position != by_key.get(&(&r.x, &r.y)).copied() {
                    return Some(format!("position of row {i}: {position:?}"));
                }
            }
            if t.row(self.rows.len()).is_some() {
                return Some("row past the end".into());
            }
            for (x, (rows, width)) in &by_x {
                if t.rows_with_x(x).collect::<Vec<_>>() != *rows || t.x_width(x) != *width {
                    return Some(format!("rows_with_x / x_width({x})"));
                }
            }
            for (y, (rows, width)) in &by_y {
                if t.rows_with_y(y).collect::<Vec<_>>() != *rows || t.y_width(y) != *width {
                    return Some(format!("rows_with_y / y_width({y})"));
                }
            }
            let null_x: Vec<usize> = self
                .live()
                .filter(|(_, r)| r.x.is_null())
                .map(|(i, _)| i)
                .collect();
            let null_y: Vec<usize> = self
                .live()
                .filter(|(_, r)| r.y.is_null())
                .map(|(i, _)| i)
                .collect();
            if t.rows_with_null_x().collect::<Vec<_>>() != null_x
                || t.rows_with_null_y().collect::<Vec<_>>() != null_y
            {
                return Some("rows_with_null_x/y".into());
            }
            let stats = TableStats {
                rows: live.len(),
                distinct_x: by_x.len(),
                distinct_y: by_y.len(),
                null_x: self.rows.iter().filter(|r| r.x.is_null()).count(),
                null_y: self.rows.iter().filter(|r| r.y.is_null()).count(),
            };
            if t.stats() != stats || t.len() != live.len() || t.tombstones() != self.dead() {
                return Some(format!("stats {:?} != {stats:?}", t.stats()));
            }
            let single = |map: &BTreeMap<&Value, (Vec<usize>, usize)>| {
                map.values().all(|(rows, _)| rows.len() < 2)
            };
            if t.single_valuedness() != (single(&by_x), single(&by_y)) {
                return Some("single_valuedness".into());
            }
            None
        }
    }
}

#[derive(Clone, Debug)]
enum TableOp {
    /// A fresh or repeated pair; `null` makes one endpoint a null.
    Insert {
        x: u16,
        y: u16,
        null: u8,
    },
    /// Deletes the `pick`-th live row.
    Delete {
        pick: u16,
    },
    /// Re-inserts the key of the `pick`-th dead row.
    Reinsert {
        pick: u16,
    },
    /// An NC over up to three live rows.
    CreateNc {
        picks: [u16; 3],
        len: u8,
    },
    /// Dismantles the `pick`-th live NC.
    DismantleNc {
        pick: u16,
    },
    Begin,
    Savepoint,
    RollbackTo {
        pick: u16,
    },
    Commit,
    Abort,
    Snapshot,
    DropSnapshot {
        pick: u16,
    },
    Compact,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u16..40, 0u16..4000, 0u8..12).prop_map(|(x, y, null)| TableOp::Insert { x, y, null }),
        (0u16..40, 0u16..4000, 0u8..12).prop_map(|(x, y, null)| TableOp::Insert { x, y, null }),
        any::<u16>().prop_map(|pick| TableOp::Delete { pick }),
        any::<u16>().prop_map(|pick| TableOp::Delete { pick }),
        any::<u16>().prop_map(|pick| TableOp::Reinsert { pick }),
        ((any::<u16>(), any::<u16>(), any::<u16>()), 1u8..4).prop_map(|((a, b, c), len)| {
            TableOp::CreateNc {
                picks: [a, b, c],
                len,
            }
        }),
        // One row listed twice, as a self-join chain's delete lists it.
        (any::<u16>(), any::<u16>(), 2u8..4).prop_map(|(a, b, len)| TableOp::CreateNc {
            picks: [a, a, b],
            len,
        }),
        any::<u16>().prop_map(|pick| TableOp::DismantleNc { pick }),
        Just(TableOp::Begin),
        Just(TableOp::Savepoint),
        any::<u16>().prop_map(|pick| TableOp::RollbackTo { pick }),
        Just(TableOp::Commit),
        Just(TableOp::Abort),
        Just(TableOp::Snapshot),
        any::<u16>().prop_map(|pick| TableOp::DropSnapshot { pick }),
        Just(TableOp::Compact),
    ]
}

/// How many random streams the table differential draws.
/// `FDB_TABLE_CASES` raises it for the CI release run (the vendored
/// `proptest` does not read `PROPTEST_CASES`).
fn table_cases() -> u32 {
    std::env::var("FDB_TABLE_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

const T: FunctionId = FunctionId(0);

fn endpoint(prefix: &str, k: u16, null: bool) -> Value {
    if null {
        Value::Null(fdb_types::NullId(u64::from(k % 5) + 1))
    } else {
        Value::atom(format!("{prefix}{k}"))
    }
}

/// The store under test, its model, and what a transaction restores.
struct Harness {
    store: Store,
    model: flat::Model,
    /// The model at `BEGIN`, and whether a delete deferred a compaction.
    txn: Option<(flat::Model, bool)>,
    /// Savepoints: the store's journal mark and the model there.
    marks: Vec<(usize, flat::Model)>,
    /// Snapshots (store clones) with their model and encoded bytes when
    /// taken.
    snapshots: Vec<(Store, flat::Model, Vec<u8>)>,
}

impl Harness {
    fn new(seed: u64) -> Harness {
        let mut h = Harness {
            store: Store::new(1),
            model: flat::Model::new(),
            txn: None,
            marks: Vec::new(),
            snapshots: Vec::new(),
        };
        // Three chunks' worth and more, with a snapshot held over the
        // second half so that the index deltas fill up and fold.
        let rows = 3 * fdb_storage::table::CHUNK_ROWS + 50;
        for i in 0..rows + fdb_storage::table::DELTA_KEYS + 10 {
            if i == rows {
                h.apply(&TableOp::Snapshot);
            }
            let k = (i as u64).wrapping_mul(seed | 1);
            h.apply(&TableOp::Insert {
                x: (k % 40) as u16,
                y: (k % 60_000) as u16,
                null: (k % 97) as u8,
            });
        }
        // Then down to 160 live rows, compacting on the way, and 63
        // tombstones: a stream that deletes one more row crosses the
        // auto-compaction threshold (64 tombstones, more than half the
        // live rows).
        while h.model.live().count() > 160 {
            h.apply(&TableOp::Delete { pick: 0 });
        }
        h.apply(&TableOp::Compact);
        for _ in 0..63 {
            h.apply(&TableOp::Delete { pick: 0 });
        }
        h.apply(&TableOp::Snapshot);
        h
    }

    fn maybe_compact(&mut self) {
        let dead = self.model.dead();
        let live = self.model.rows.len() - dead;
        if dead >= 64 && dead as f64 > 0.5 * live as f64 {
            self.model.compact();
        }
    }

    fn apply(&mut self, op: &TableOp) {
        let live: Vec<usize> = self.model.live().map(|(i, _)| i).collect();
        let key = |m: &flat::Model, i: usize| (m.rows[i].x.clone(), m.rows[i].y.clone());
        match *op {
            TableOp::Insert { x, y, null } => {
                let (x, y) = (endpoint("x", x, null == 1), endpoint("y", y, null == 2));
                self.store.base_insert(T, x.clone(), y.clone());
                self.model.insert(x, y);
            }
            TableOp::Delete { pick } if !live.is_empty() => {
                let (x, y) = key(&self.model, live[pick as usize % live.len()]);
                self.delete(&x, &y);
            }
            TableOp::Reinsert { pick } => {
                let dead: Vec<usize> = (0..self.model.rows.len())
                    .filter(|i| !live.contains(i))
                    .collect();
                if let Some(&i) = dead.get(pick as usize % dead.len().max(1)) {
                    let (x, y) = key(&self.model, i);
                    self.store.base_insert(T, x.clone(), y.clone());
                    self.model.insert(x, y);
                }
            }
            TableOp::CreateNc { picks, len } if !live.is_empty() => {
                let conjuncts: Vec<(Value, Value)> = picks[..len as usize]
                    .iter()
                    .map(|&p| key(&self.model, live[p as usize % live.len()]))
                    .collect();
                let facts = conjuncts
                    .iter()
                    .map(|(x, y)| Fact::new(T, x.clone(), y.clone()))
                    .collect();
                let id = self.store.create_nc(facts);
                assert_eq!(id, self.model.create_nc(conjuncts));
            }
            TableOp::DismantleNc { pick } if !self.model.ncs.is_empty() => {
                let ids: Vec<_> = self.model.ncs.keys().copied().collect();
                let id = ids[pick as usize % ids.len()];
                self.store.dismantle_nc(id);
                self.model.dismantle(id);
            }
            TableOp::Begin if self.txn.is_none() => {
                self.store.undo_begin();
                self.txn = Some((self.model.clone(), false));
            }
            TableOp::Savepoint if self.txn.is_some() => {
                self.marks
                    .push((self.store.undo_mark(), self.model.clone()));
            }
            TableOp::RollbackTo { pick } if !self.marks.is_empty() => {
                let at = pick as usize % self.marks.len();
                self.marks.truncate(at + 1);
                let (mark, model) = self.marks[at].clone();
                self.store.undo_rollback_to(mark);
                self.model = model;
            }
            TableOp::Commit if self.txn.is_some() => {
                self.store.undo_commit();
                let (_, deferred) = self.txn.take().expect("open");
                self.marks.clear();
                if deferred {
                    self.maybe_compact();
                }
            }
            TableOp::Abort if self.txn.is_some() => {
                self.store.undo_abort();
                self.model = self.txn.take().expect("open").0;
                self.marks.clear();
            }
            TableOp::Snapshot if self.txn.is_none() => {
                let snap = self.store.clone();
                let mut bytes = Vec::new();
                snap.encode(&mut bytes);
                self.snapshots.push((snap, self.model.clone(), bytes));
            }
            TableOp::DropSnapshot { pick } if !self.snapshots.is_empty() => {
                let at = pick as usize % self.snapshots.len();
                self.snapshots.remove(at);
            }
            TableOp::Compact if self.txn.is_none() => {
                self.store.table_mut(T).compact();
                self.model.compact();
            }
            _ => {}
        }
    }

    fn delete(&mut self, x: &Value, y: &Value) {
        let removed = self.store.base_delete(T, x, y);
        assert_eq!(removed, self.model.delete(x, y));
        match self.txn.as_mut() {
            Some((_, deferred)) => *deferred = true,
            None => self.maybe_compact(),
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let mut bytes = Vec::new();
        self.store.encode(&mut bytes);
        let prefix = self.model.encoded_prefix();
        prop_assert!(
            bytes.starts_with(&prefix),
            "live store: encoded bytes differ from the model"
        );
        if let Some(diff) = self.model.differs_from(self.store.table(T)) {
            return Err(TestCaseError::fail(format!("live store: {diff}")));
        }
        prop_assert!(
            self.store.check_duality().is_none(),
            "{:?}",
            self.store.check_duality()
        );
        coverage_matches_the_scan(&self.store, self.store.version())?;
        for (n, (snap, model, taken)) in self.snapshots.iter().enumerate() {
            let mut now = Vec::new();
            snap.encode(&mut now);
            prop_assert!(&now == taken, "snapshot {} changed its bytes", n);
            prop_assert!(
                now.starts_with(&model.encoded_prefix()),
                "snapshot {} bytes",
                n
            );
            if let Some(diff) = model.differs_from(snap.table(T)) {
                return Err(TestCaseError::fail(format!("snapshot {n}: {diff}")));
            }
            coverage_matches_the_scan(snap, n as u64)?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(table_cases()))]

    /// The chunked, layered table reads exactly like the flat row log,
    /// live and in every snapshot, after every step of a random stream —
    /// NC creation and dismantling, base inserts and deletes, transactions
    /// with rollbacks, compactions — and NCL coverage equals the scan.
    #[test]
    fn chunked_table_matches_the_flat_model(
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_table_op(), 60..160),
    ) {
        let mut h = Harness::new(seed);
        h.check()?;
        for op in &ops {
            h.apply(op);
            h.check().map_err(|e| TestCaseError::fail(format!("after {op:?}: {e}")))?;
        }
    }
}
