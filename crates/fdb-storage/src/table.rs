//! Per-function extensional tables of quadruples `<a, b, T/A, NCL>` (§4).
//!
//! Rows keep their insertion order (the paper's worked-example tables are
//! printed in insertion order) and are tombstoned on delete so row indices
//! remain stable within one table. Lookup indexes by domain value, range
//! value, and null-valuedness support the chain traversal of [`crate::chain`].

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use fdb_types::codec::{put_uint, Reader};
use fdb_types::{Result, Value};

use crate::nc::NcId;
use crate::truth::Truth;

/// A stored row (internal representation).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Row {
    x: Value,
    y: Value,
    truth: Truth, // True or Ambiguous; never False while alive
    ncl: BTreeSet<NcId>,
    alive: bool,
}

/// A read-only view of one live row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowView<'t> {
    /// Domain value.
    pub x: &'t Value,
    /// Range value.
    pub y: &'t Value,
    /// Truth flag (`T` or `A`).
    pub truth: Truth,
    /// The row's negated-conjunction list.
    pub ncl: &'t BTreeSet<NcId>,
}

/// The extensional table of one base function.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Table {
    rows: Vec<Row>,
    #[serde(skip)]
    index: HashMap<(Value, Value), usize>,
    #[serde(skip)]
    by_x: HashMap<Value, Vec<usize>>,
    #[serde(skip)]
    by_y: HashMap<Value, Vec<usize>>,
    #[serde(skip)]
    null_x: Vec<usize>,
    #[serde(skip)]
    null_y: Vec<usize>,
    #[serde(skip)]
    live: usize,
    #[serde(skip)]
    dead: usize,
}

/// Cheap per-table statistics for the chain planner (`fdb-exec`).
///
/// `rows` is exact; the distinct and null counts are *estimates*: they
/// count index entries, which may include keys whose rows are all
/// tombstoned. Auto-compaction (see [`crate::store::CompactionPolicy`])
/// bounds the tombstone fraction, and with it the estimation error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of live rows (exact).
    pub rows: usize,
    /// Distinct domain values (index-entry estimate).
    pub distinct_x: usize,
    /// Distinct range values (index-entry estimate).
    pub distinct_y: usize,
    /// Rows with a null domain value (index-entry estimate).
    pub null_x: usize,
    /// Rows with a null range value (index-entry estimate).
    pub null_y: usize,
}

impl Row {
    /// Smallest encoded row: two empty atoms, the flags, an empty NCL.
    const MIN_ENCODED: usize = 6;
    /// Flag bit set on live rows; the two bits above it hold the truth
    /// flag (0 false, 1 ambiguous, 2 true).
    const ALIVE: u8 = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.x.encode(out);
        self.y.encode(out);
        let truth = match self.truth {
            Truth::False => 0,
            Truth::Ambiguous => 1,
            Truth::True => 2,
        };
        out.push(truth << 1 | u8::from(self.alive));
        put_uint(out, self.ncl.len() as u64);
        for nc in &self.ncl {
            put_uint(out, nc.0);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Row> {
        let x = Value::decode(r)?;
        let y = Value::decode(r)?;
        let flags = r.byte()?;
        let truth = match flags >> 1 {
            0 => Truth::False,
            1 => Truth::Ambiguous,
            2 => Truth::True,
            _ => return Err(r.error("unknown row flags")),
        };
        let mut ncl = BTreeSet::new();
        for _ in 0..r.count(1)? {
            ncl.insert(NcId(r.uint()?));
        }
        Ok(Row {
            x,
            y,
            truth,
            ncl,
            alive: flags & Row::ALIVE != 0,
        })
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the table's binary snapshot form: every row in physical
    /// order, tombstones included. Snapshot equality is physical — a
    /// restored table has the row indices, and reaches its compaction
    /// threshold at the same delete, as the one it was taken from.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_uint(out, self.rows.len() as u64);
        for row in &self.rows {
            row.encode(out);
        }
    }

    /// Reads a table written by [`Table::encode`]. The lookup indexes are
    /// left empty: call [`Table::rebuild_index`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Table> {
        let len = r.count(Row::MIN_ENCODED)?;
        let mut rows = Vec::with_capacity(len);
        for _ in 0..len {
            rows.push(Row::decode(r)?);
        }
        Ok(Table {
            rows,
            ..Table::default()
        })
    }

    /// Rebuilds the lookup indexes from the row log (after deserialising).
    pub fn rebuild_index(&mut self) {
        self.index.clear();
        self.by_x.clear();
        self.by_y.clear();
        self.null_x.clear();
        self.null_y.clear();
        self.live = 0;
        self.dead = 0;
        for i in 0..self.rows.len() {
            if self.rows[i].alive {
                self.live += 1;
                self.index_row(i);
            } else {
                self.dead += 1;
            }
        }
    }

    fn index_row(&mut self, i: usize) {
        let (x, y) = (self.rows[i].x.clone(), self.rows[i].y.clone());
        self.index.insert((x.clone(), y.clone()), i);
        self.by_x.entry(x.clone()).or_default().push(i);
        self.by_y.entry(y.clone()).or_default().push(i);
        if x.is_null() {
            self.null_x.push(i);
        }
        if y.is_null() {
            self.null_y.push(i);
        }
    }

    /// Inserts `(x, y)` with flag `T` and empty NCL, or returns the index
    /// of the already-present row. The boolean is `true` if a new row was
    /// created.
    pub fn insert(&mut self, x: Value, y: Value) -> (usize, bool) {
        if let Some(&i) = self.index.get(&(x.clone(), y.clone())) {
            return (i, false);
        }
        let i = self.rows.len();
        self.rows.push(Row {
            x,
            y,
            truth: Truth::True,
            ncl: BTreeSet::new(),
            alive: true,
        });
        self.live += 1;
        self.index_row(i);
        (i, true)
    }

    /// Removes `(x, y)` if present, returning the NCL it carried.
    pub fn remove(&mut self, x: &Value, y: &Value) -> Option<BTreeSet<NcId>> {
        let i = self.index.remove(&(x.clone(), y.clone()))?;
        self.rows[i].alive = false;
        self.live -= 1;
        self.dead += 1;
        Some(std::mem::take(&mut self.rows[i].ncl))
    }

    /// Index of the live row `(x, y)`, if present.
    pub fn position(&self, x: &Value, y: &Value) -> Option<usize> {
        self.index.get(&(x.clone(), y.clone())).copied()
    }

    /// `true` if the pair is present (alive).
    pub fn contains(&self, x: &Value, y: &Value) -> bool {
        self.position(x, y).is_some()
    }

    /// View of the live row at `i`, if alive.
    pub fn row(&self, i: usize) -> Option<RowView<'_>> {
        let r = self.rows.get(i)?;
        r.alive.then_some(RowView {
            x: &r.x,
            y: &r.y,
            truth: r.truth,
            ncl: &r.ncl,
        })
    }

    /// Truth flag of a live pair ([`Truth::False`] if absent — absent base
    /// facts are false, §3.2).
    pub fn truth_of(&self, x: &Value, y: &Value) -> Truth {
        match self.position(x, y) {
            Some(i) => self.rows[i].truth,
            None => Truth::False,
        }
    }

    /// Sets the truth flag of a live row.
    pub fn set_truth(&mut self, i: usize, truth: Truth) {
        debug_assert!(truth != Truth::False, "stored rows are never false");
        if let Some(r) = self.rows.get_mut(i) {
            if r.alive {
                r.truth = truth;
            }
        }
    }

    /// Adds an NC to a live row's NCL (and flags the row ambiguous, per
    /// `create-NC`).
    pub fn attach_nc(&mut self, i: usize, nc: NcId) {
        if let Some(r) = self.rows.get_mut(i) {
            if r.alive {
                r.ncl.insert(nc);
                r.truth = Truth::Ambiguous;
            }
        }
    }

    /// Removes an NC from a live row's NCL. Per the paper's
    /// `dismantle-NC`, the flag is *not* reset: the member facts remain
    /// ambiguous until a direct insert asserts them true.
    pub fn detach_nc(&mut self, i: usize, nc: NcId) {
        if let Some(r) = self.rows.get_mut(i) {
            r.ncl.remove(&nc);
        }
    }

    /// Low-level insert of a row with explicit flag and NCL, used by null
    /// substitution to rebuild rows under a new key. If the pair already
    /// exists the row is left untouched and `None` is returned; otherwise
    /// the new row's index.
    pub fn restore_row(
        &mut self,
        x: Value,
        y: Value,
        truth: Truth,
        ncl: BTreeSet<NcId>,
    ) -> Option<usize> {
        if self.index.contains_key(&(x.clone(), y.clone())) {
            return None;
        }
        let (i, _) = self.insert(x, y);
        self.rows[i].truth = truth;
        self.rows[i].ncl = ncl;
        Some(i)
    }

    /// Undoes the most recent append (transaction rollback): pops the last
    /// row and scrubs its index entries. The caller (the store's undo
    /// journal) applies inverses in reverse order with compaction
    /// suspended, so the row to un-append is always the physically last
    /// one and is always alive.
    pub(crate) fn undo_append(&mut self) {
        let Some(r) = self.rows.pop() else {
            debug_assert!(false, "undo_append on an empty table");
            return;
        };
        debug_assert!(r.alive, "undo_append must target a live row");
        let i = self.rows.len();
        self.index.remove(&(r.x.clone(), r.y.clone()));
        // Bucket vectors hold ascending row indices, so the popped row's
        // entry — if present — is the bucket's last element.
        if let Some(b) = self.by_x.get_mut(&r.x) {
            if b.last() == Some(&i) {
                b.pop();
            }
            if b.is_empty() {
                self.by_x.remove(&r.x);
            }
        }
        if let Some(b) = self.by_y.get_mut(&r.y) {
            if b.last() == Some(&i) {
                b.pop();
            }
            if b.is_empty() {
                self.by_y.remove(&r.y);
            }
        }
        if self.null_x.last() == Some(&i) {
            self.null_x.pop();
        }
        if self.null_y.last() == Some(&i) {
            self.null_y.pop();
        }
        self.live -= 1;
    }

    /// Undoes a tombstoning (transaction rollback): revives the row at `i`
    /// in place, restoring the NCL it carried. Key, flag and physical
    /// position were preserved by [`Table::remove`], so this reproduces
    /// the exact pre-removal serialized layout; the value-bucket indexes
    /// still reference `i` (removal never scrubbed them) and become
    /// valid again the moment `alive` flips back.
    pub(crate) fn resurrect(&mut self, i: usize, ncl: BTreeSet<NcId>) {
        let Some(r) = self.rows.get_mut(i) else {
            debug_assert!(false, "resurrect of unknown row {i}");
            return;
        };
        debug_assert!(!r.alive, "resurrect must target a tombstoned row");
        r.alive = true;
        r.ncl = ncl;
        let key = (r.x.clone(), r.y.clone());
        self.index.insert(key, i);
        self.live += 1;
        self.dead -= 1;
    }

    /// Live rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        self.rows.iter().filter(|r| r.alive).map(|r| RowView {
            x: &r.x,
            y: &r.y,
            truth: r.truth,
            ncl: &r.ncl,
        })
    }

    /// Number of live rows (O(1): maintained incrementally).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Planner statistics (see [`TableStats`] for exactness caveats).
    pub fn stats(&self) -> TableStats {
        TableStats {
            rows: self.live,
            distinct_x: self.by_x.len(),
            distinct_y: self.by_y.len(),
            null_x: self.null_x.len(),
            null_y: self.null_y.len(),
        }
    }

    /// Exact single-valuedness of the current extension, over *live* rows
    /// only: `(functional, injective)`. `functional` holds when no domain
    /// value maps to two live range values, `injective` when no range
    /// value is reached from two live domain values. Unlike
    /// [`Table::stats`] this scans the rows, so tombstoned index entries
    /// cannot inflate the answer; nulls compare by identity (two distinct
    /// unknowns count as distinct values). An empty table is vacuously
    /// both.
    pub fn single_valuedness(&self) -> (bool, bool) {
        let mut seen_x: HashMap<&Value, &Value> = HashMap::new();
        let mut seen_y: HashMap<&Value, &Value> = HashMap::new();
        let mut functional = true;
        let mut injective = true;
        for r in self.rows.iter().filter(|r| r.alive) {
            match seen_x.get(&r.x) {
                Some(y) if *y != &r.y => functional = false,
                _ => {
                    seen_x.insert(&r.x, &r.y);
                }
            }
            match seen_y.get(&r.y) {
                Some(x) if *x != &r.x => injective = false,
                _ => {
                    seen_y.insert(&r.y, &r.x);
                }
            }
            if !functional && !injective {
                break;
            }
        }
        (functional, injective)
    }

    /// Width of the `by_x` index bucket for `v` — an O(1) upper bound on
    /// `rows_with_x(v).count()` (tombstoned entries are not subtracted).
    pub fn x_width(&self, v: &Value) -> usize {
        self.by_x.get(v).map_or(0, Vec::len)
    }

    /// Width of the `by_y` index bucket for `v` — an O(1) upper bound on
    /// `rows_with_y(v).count()`.
    pub fn y_width(&self, v: &Value) -> usize {
        self.by_y.get(v).map_or(0, Vec::len)
    }

    /// `true` if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indices of live rows whose domain value equals `v` exactly.
    pub fn rows_with_x(&self, v: &Value) -> impl Iterator<Item = usize> + '_ {
        fdb_obs::registry().storage_index_probes.inc();
        self.by_x
            .get(v)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&i| self.rows[i].alive)
    }

    /// Indices of live rows whose range value equals `v` exactly.
    pub fn rows_with_y(&self, v: &Value) -> impl Iterator<Item = usize> + '_ {
        fdb_obs::registry().storage_index_probes.inc();
        self.by_y
            .get(v)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&i| self.rows[i].alive)
    }

    /// Indices of live rows whose domain value is a null.
    pub fn rows_with_null_x(&self) -> impl Iterator<Item = usize> + '_ {
        self.null_x
            .iter()
            .copied()
            .filter(move |&i| self.rows[i].alive)
    }

    /// Indices of live rows whose range value is a null.
    pub fn rows_with_null_y(&self) -> impl Iterator<Item = usize> + '_ {
        self.null_y
            .iter()
            .copied()
            .filter(move |&i| self.rows[i].alive)
    }

    /// Indices of all live rows.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        fdb_obs::registry().storage_table_scans.inc();
        (0..self.rows.len()).filter(move |&i| self.rows[i].alive)
    }

    /// Number of tombstoned rows awaiting compaction (O(1)).
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Drops tombstoned rows and rebuilds the indexes. Row indices are
    /// invalidated (they are internal handles only; no NC conjunct stores
    /// an index — conjuncts key by value pair, which compaction
    /// preserves). Insertion order of live rows is kept.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        fdb_obs::registry().storage_compactions.inc();
        self.rows.retain(|r| r.alive);
        self.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::NullId;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = Table::new();
        let (i, fresh) = t.insert(v("euclid"), v("math"));
        assert!(fresh);
        let (j, fresh2) = t.insert(v("euclid"), v("math"));
        assert!(!fresh2);
        assert_eq!(i, j);
        assert_eq!(t.len(), 1);
        assert_eq!(t.truth_of(&v("euclid"), &v("math")), Truth::True);
        assert_eq!(t.truth_of(&v("euclid"), &v("physics")), Truth::False);
    }

    #[test]
    fn remove_tombstones_and_returns_ncl() {
        let mut t = Table::new();
        let (i, _) = t.insert(v("a"), v("b"));
        t.attach_nc(i, NcId(1));
        let ncl = t.remove(&v("a"), &v("b")).unwrap();
        assert_eq!(ncl.into_iter().collect::<Vec<_>>(), vec![NcId(1)]);
        assert!(!t.contains(&v("a"), &v("b")));
        assert!(t.remove(&v("a"), &v("b")).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reinsert_after_remove_is_fresh_and_true() {
        let mut t = Table::new();
        let (i, _) = t.insert(v("a"), v("b"));
        t.attach_nc(i, NcId(1));
        t.remove(&v("a"), &v("b"));
        let (j, fresh) = t.insert(v("a"), v("b"));
        assert!(fresh);
        assert_ne!(i, j);
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::True);
        assert!(t.row(j).unwrap().ncl.is_empty());
    }

    #[test]
    fn attach_nc_flags_ambiguous_detach_keeps_flag() {
        let mut t = Table::new();
        let (i, _) = t.insert(v("a"), v("b"));
        t.attach_nc(i, NcId(7));
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::Ambiguous);
        t.detach_nc(i, NcId(7));
        // dismantle-NC does not reset the flag (§4; see the `math john A {}`
        // state after u3 in the paper's trace).
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::Ambiguous);
        assert!(t.row(i).unwrap().ncl.is_empty());
        t.set_truth(i, Truth::True);
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::True);
    }

    #[test]
    fn value_indexes() {
        let mut t = Table::new();
        t.insert(v("math"), v("john"));
        t.insert(v("math"), v("bill"));
        t.insert(v("physics"), v("bill"));
        assert_eq!(t.rows_with_x(&v("math")).count(), 2);
        assert_eq!(t.rows_with_y(&v("bill")).count(), 2);
        t.remove(&v("math"), &v("bill"));
        assert_eq!(t.rows_with_x(&v("math")).count(), 1);
        assert_eq!(t.rows_with_y(&v("bill")).count(), 1);
    }

    #[test]
    fn null_indexes() {
        let mut t = Table::new();
        let n1 = Value::Null(NullId(1));
        t.insert(v("gauss"), n1.clone());
        t.insert(n1.clone(), v("bill"));
        assert_eq!(t.rows_with_null_x().count(), 1);
        assert_eq!(t.rows_with_null_y().count(), 1);
        t.remove(&n1, &v("bill"));
        assert_eq!(t.rows_with_null_x().count(), 0);
    }

    #[test]
    fn rows_iterate_in_insertion_order() {
        let mut t = Table::new();
        t.insert(v("1"), v("a"));
        t.insert(v("2"), v("b"));
        t.insert(v("3"), v("c"));
        t.remove(&v("2"), &v("b"));
        let xs: Vec<String> = t.rows().map(|r| r.x.to_string()).collect();
        assert_eq!(xs, vec!["1", "3"]);
    }

    #[test]
    fn compact_drops_tombstones_and_keeps_order() {
        let mut t = Table::new();
        t.insert(v("1"), v("a"));
        let (i2, _) = t.insert(v("2"), v("b"));
        t.insert(v("3"), v("c"));
        t.attach_nc(i2, NcId(4));
        t.remove(&v("1"), &v("a"));
        assert_eq!(t.tombstones(), 1);
        t.compact();
        assert_eq!(t.tombstones(), 0);
        assert_eq!(t.len(), 2);
        let xs: Vec<String> = t.rows().map(|r| r.x.to_string()).collect();
        assert_eq!(xs, vec!["2", "3"]);
        // Flags, NCLs and indexes survive compaction.
        let j = t.position(&v("2"), &v("b")).unwrap();
        assert_eq!(t.row(j).unwrap().truth, Truth::Ambiguous);
        assert!(t.row(j).unwrap().ncl.contains(&NcId(4)));
        assert_eq!(t.rows_with_x(&v("3")).count(), 1);
        // Compacting an already-compact table is a no-op.
        t.compact();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stats_and_widths_reflect_live_rows_after_compaction() {
        let mut t = Table::new();
        let n1 = Value::Null(NullId(1));
        t.insert(v("math"), v("john"));
        t.insert(v("math"), v("bill"));
        t.insert(v("physics"), v("bill"));
        t.insert(n1.clone(), v("kim"));
        let s = t.stats();
        assert_eq!(s.rows, 4);
        assert_eq!(s.distinct_x, 3);
        assert_eq!(s.distinct_y, 3);
        assert_eq!(s.null_x, 1);
        assert_eq!(s.null_y, 0);
        assert_eq!(t.x_width(&v("math")), 2);
        assert_eq!(t.y_width(&v("bill")), 2);
        assert_eq!(t.x_width(&v("absent")), 0);
        // Widths are estimates until compaction removes dead entries.
        t.remove(&v("math"), &v("bill"));
        assert_eq!(t.x_width(&v("math")), 2);
        t.compact();
        assert_eq!(t.x_width(&v("math")), 1);
        assert_eq!(t.stats().rows, 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn single_valuedness_is_exact_over_live_rows() {
        let mut t = Table::new();
        assert_eq!(t.single_valuedness(), (true, true));
        t.insert(v("a"), v("x"));
        t.insert(v("b"), v("y"));
        assert_eq!(t.single_valuedness(), (true, true));
        // a second range value for `a` breaks functionality only.
        t.insert(v("a"), v("z"));
        assert_eq!(t.single_valuedness(), (false, true));
        // a second domain value for `y` breaks injectivity too.
        t.insert(v("c"), v("y"));
        assert_eq!(t.single_valuedness(), (false, false));
        // tombstoning the offenders restores both — stats() would still
        // see the dead index entries, single_valuedness must not.
        t.remove(&v("a"), &v("z"));
        t.remove(&v("c"), &v("y"));
        assert_eq!(t.single_valuedness(), (true, true));
    }

    #[test]
    fn rebuild_index_after_serde() {
        let mut t = Table::new();
        t.insert(v("a"), v("b"));
        t.insert(v("c"), v("d"));
        t.remove(&v("a"), &v("b"));
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Table = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert!(back.contains(&v("c"), &v("d")));
        assert!(!back.contains(&v("a"), &v("b")));
        assert_eq!(back.len(), 1);
    }
}
