//! Binary relations chained into a join view.
//!
//! A [`ChainDb`] holds `k` binary relations `r₁ … r_k` understood as a
//! chain schema `r₁(A₀A₁), r₂(A₁A₂), …, r_k(A_{k−1}A_k)`; its *view* is
//! `π_{A₀ A_k}(r₁ ⋈ … ⋈ r_k)` — the relational mirror of the composition
//! `r₁ o … o r_k`.

use std::collections::BTreeSet;

use fdb_types::Value;

/// A binary relation: a set of `(left, right)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BinaryRelation {
    pairs: BTreeSet<(Value, Value)>,
}

impl BinaryRelation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pair; returns `true` if it was new.
    pub fn insert(&mut self, l: impl Into<Value>, r: impl Into<Value>) -> bool {
        self.pairs.insert((l.into(), r.into()))
    }

    /// Removes a pair; returns `true` if it was present.
    pub fn remove(&mut self, l: &Value, r: &Value) -> bool {
        self.pairs.remove(&(l.clone(), r.clone()))
    }

    /// `true` if the pair is present.
    pub fn contains(&self, l: &Value, r: &Value) -> bool {
        self.pairs.contains(&(l.clone(), r.clone()))
    }

    /// Iterates over the pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &(Value, Value)> {
        self.pairs.iter()
    }

    /// Pairs whose left component equals `l`.
    pub fn with_left<'r>(&'r self, l: &'r Value) -> impl Iterator<Item = &'r (Value, Value)> {
        self.pairs.iter().filter(move |(a, _)| a == l)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// A tuple of one base relation: `(relation index, pair)`.
pub type BaseTuple = (usize, (Value, Value));

/// A database of chained binary relations with its join view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainDb {
    relations: Vec<BinaryRelation>,
}

impl ChainDb {
    /// Creates a chain of `k` empty relations.
    pub fn new(k: usize) -> Self {
        ChainDb {
            relations: (0..k).map(|_| BinaryRelation::new()).collect(),
        }
    }

    /// Number of relations in the chain.
    pub fn arity(&self) -> usize {
        self.relations.len()
    }

    /// Access to relation `i`.
    pub fn relation(&self, i: usize) -> &BinaryRelation {
        &self.relations[i]
    }

    /// Inserts a base tuple.
    pub fn insert(&mut self, i: usize, l: impl Into<Value>, r: impl Into<Value>) -> bool {
        self.relations[i].insert(l, r)
    }

    /// Removes a base tuple.
    pub fn remove(&mut self, t: &BaseTuple) -> bool {
        self.relations[t.0].remove(&t.1 .0, &t.1 .1)
    }

    /// Applies a set of deletions.
    pub fn apply_deletions(&mut self, ts: &[BaseTuple]) {
        for t in ts {
            self.remove(t);
        }
    }

    /// Applies a set of insertions.
    pub fn apply_insertions(&mut self, ts: &[BaseTuple]) {
        for (i, (l, r)) in ts {
            self.relations[*i].insert(l.clone(), r.clone());
        }
    }

    /// Total number of base tuples (the "number of facts" of `[9]`).
    pub fn fact_count(&self) -> usize {
        self.relations.iter().map(BinaryRelation::len).sum()
    }

    /// Materialises the view `π_{A₀ A_k}(r₁ ⋈ … ⋈ r_k)`.
    pub fn view(&self) -> BTreeSet<(Value, Value)> {
        let mut out = BTreeSet::new();
        for (a, b) in self.relations[0].iter() {
            self.extend_view(1, a, b, &mut out);
        }
        out
    }

    fn extend_view(
        &self,
        depth: usize,
        start: &Value,
        cur: &Value,
        out: &mut BTreeSet<(Value, Value)>,
    ) {
        if depth == self.relations.len() {
            out.insert((start.clone(), cur.clone()));
            return;
        }
        for (l, r) in self.relations[depth].with_left(cur) {
            debug_assert_eq!(l, cur);
            self.extend_view(depth + 1, start, r, out);
        }
    }

    /// All join chains witnessing the view tuple `(x, y)`: each chain is
    /// one base tuple per relation, adjacent tuples sharing the join
    /// value.
    pub fn chains_for(&self, x: &Value, y: &Value) -> Vec<Vec<BaseTuple>> {
        let mut out = Vec::new();
        let mut acc = Vec::new();
        self.chains_rec(0, x, y, &mut acc, &mut out);
        out
    }

    fn chains_rec(
        &self,
        depth: usize,
        cur: &Value,
        goal: &Value,
        acc: &mut Vec<BaseTuple>,
        out: &mut Vec<Vec<BaseTuple>>,
    ) {
        let last = depth + 1 == self.relations.len();
        let candidates: Vec<(Value, Value)> =
            self.relations[depth].with_left(cur).cloned().collect();
        for (l, r) in candidates {
            if last && &r != goal {
                continue;
            }
            acc.push((depth, (l.clone(), r.clone())));
            if last {
                out.push(acc.clone());
            } else {
                self.chains_rec(depth + 1, &r, goal, acc, out);
            }
            acc.pop();
        }
    }

    /// Every value appearing on the relevant sides of the boundary between
    /// relation `i−1` and relation `i` (candidate intermediate values for
    /// insert translations), 1 ≤ i ≤ k−1.
    pub fn boundary_values(&self, i: usize) -> BTreeSet<Value> {
        let mut vals = BTreeSet::new();
        for (_, r) in self.relations[i - 1].iter() {
            vals.insert(r.clone());
        }
        for (l, _) in self.relations[i].iter() {
            vals.insert(l.clone());
        }
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    /// The §3.1 instance: r1 = {a1b1, a1b2}, r2 = {b1c1, b2c1},
    /// r3 = {c1d1}; v1 = {(a1, d1)}.
    pub(crate) fn paper_31() -> ChainDb {
        let mut db = ChainDb::new(3);
        db.insert(0, "a1", "b1");
        db.insert(0, "a1", "b2");
        db.insert(1, "b1", "c1");
        db.insert(1, "b2", "c1");
        db.insert(2, "c1", "d1");
        db
    }

    #[test]
    fn view_of_paper_instance() {
        let db = paper_31();
        let view = db.view();
        assert_eq!(view.len(), 1);
        assert!(view.contains(&(v("a1"), v("d1"))));
    }

    #[test]
    fn chains_for_view_tuple() {
        let db = paper_31();
        let chains = db.chains_for(&v("a1"), &v("d1"));
        assert_eq!(chains.len(), 2); // via b1 and via b2
        for c in &chains {
            assert_eq!(c.len(), 3);
            assert_eq!(c[0].1 .0, v("a1"));
            assert_eq!(c[2].1 .1, v("d1"));
        }
    }

    #[test]
    fn removing_shared_tail_kills_view() {
        let mut db = paper_31();
        db.remove(&(2, (v("c1"), v("d1"))));
        assert!(db.view().is_empty());
        assert!(db.chains_for(&v("a1"), &v("d1")).is_empty());
    }

    #[test]
    fn fact_count() {
        assert_eq!(paper_31().fact_count(), 5);
    }

    #[test]
    fn boundary_values_cover_both_sides() {
        let db = paper_31();
        let b1 = db.boundary_values(1);
        assert!(b1.contains(&v("b1")));
        assert!(b1.contains(&v("b2")));
        let b2 = db.boundary_values(2);
        assert_eq!(b2.len(), 1);
        assert!(b2.contains(&v("c1")));
    }

    #[test]
    fn two_relation_chain_view() {
        let mut db = ChainDb::new(2);
        db.insert(0, "euclid", "math");
        db.insert(0, "laplace", "math");
        db.insert(1, "math", "john");
        db.insert(1, "math", "bill");
        let view = db.view();
        assert_eq!(view.len(), 4);
    }
}
