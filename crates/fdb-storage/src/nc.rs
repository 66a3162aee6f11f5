//! Negated conjunctions (NC) and their store.
//!
//! §3.2: deleting a derived fact `σ` converts each of its derivations into
//! a *negated conjunction* — a set of base facts whose conjunction is
//! asserted false while each member individually becomes ambiguous. §4
//! implements an NC as "a list of pointers to its component facts"; each
//! fact's NCL points back, forming a dual structure. The store below owns
//! the NC → facts direction; the facts' NCLs live in their tables
//! ([`crate::table`]) and are kept in sync by [`crate::Store`].
//!
//! Whether some NC negates a chain has two answers here, which must
//! agree:
//!
//! * [`crate::Store::nc_coverage`] — the one the executor and `EXPLAIN`
//!   use — asks only the NCLs of the rows the chain walked. By the duality invariant
//!   ([`crate::Store::check_duality`]) the rows whose NCL holds an NC are
//!   exactly its distinct conjuncts, so the NC covers the chain iff it is
//!   on the NCL of as many *distinct* chain rows as it has *distinct*
//!   conjuncts. The store keeps that distinct-conjunct count per NC. The
//!   cost is the NCL entries of the chain's rows, however many NCs live.
//! * [`NcStore::chain_covers_some_nc`] is the reference definition: it
//!   tests every live NC against the chain's facts. Only the reference
//!   interpreter ([`crate::chain`]) and the tests call it.
//!
//! "Distinct" matters when a derivation uses one function twice
//! (`teach o teach^-1`): a chain can pass one row twice, and a derived
//! delete of such a chain lists that fact twice in its NC.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use fdb_types::codec::{put_uint, Reader};
use fdb_types::{FdbError, FunctionId, Result};

use crate::fact::Fact;

/// Unique index of a negated conjunction (the paper writes `NC(d)`; the
/// worked example names its first NC `g₁`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NcId(pub u64);

impl fmt::Display for NcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A stored row as a coverage count names it: its function and its index
/// in that function's table.
pub type RowRef = (FunctionId, usize);

/// What one coverage count found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coverage {
    /// Some live NC has every conjunct among the counted rows.
    pub covered: bool,
    /// NCL entries the count visited before it decided — bounded by the
    /// rows' NCLs, not by the number of live NCs.
    pub examined: u64,
}

/// One live NC: its conjuncts as created, and how many distinct facts
/// they are (a fact a chain passed twice is listed twice).
#[derive(Clone, Debug)]
struct Nc {
    conjuncts: Vec<Fact>,
    distinct: usize,
}

impl Nc {
    fn new(conjuncts: Vec<Fact>) -> Nc {
        let distinct = conjuncts
            .iter()
            .enumerate()
            .filter(|&(i, f)| !conjuncts[..i].contains(f))
            .count();
        Nc {
            conjuncts,
            distinct,
        }
    }
}

/// The NC store: `NcId → component facts`.
///
/// Only the bookkeeping lives here; flag/NCL updates on the component
/// facts are the responsibility of [`crate::Store`], which wraps
/// [`NcStore::create`] / [`NcStore::dismantle`] in the paper's
/// `create-NC` / `dismantle-NC` procedures.
#[derive(Clone, Debug, Default)]
pub struct NcStore {
    ncs: BTreeMap<NcId, Nc>,
    next: u64,
}

impl NcStore {
    /// Creates an empty store whose first NC will be `g1`.
    pub fn new() -> Self {
        NcStore {
            ncs: BTreeMap::new(),
            next: 1,
        }
    }

    /// Appends the store's binary snapshot form: the index counter, then
    /// every live NC (index order) as its id and conjunct list.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_uint(out, self.next);
        put_uint(out, self.ncs.len() as u64);
        for (id, nc) in &self.ncs {
            put_uint(out, id.0);
            put_uint(out, nc.conjuncts.len() as u64);
            for fact in &nc.conjuncts {
                fact.encode(out);
            }
        }
    }

    /// Reads a store written by [`NcStore::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<NcStore> {
        let next = r.uint()?;
        let mut ncs = Vec::new();
        for _ in 0..r.count(2)? {
            let id = NcId(r.uint()?);
            let len = r.count(Fact::MIN_ENCODED)?;
            let mut facts = Vec::with_capacity(len);
            for _ in 0..len {
                facts.push(Fact::decode(r)?);
            }
            ncs.push((id, facts));
        }
        NcStore::from_parts(ncs, next)
    }

    /// A store of the live NCs `ncs` whose next NC is `g<next>` — what a
    /// snapshot holds. A duplicate id, or an id the counter has not
    /// reached (the next `create` would overwrite it), is refused.
    pub fn from_parts(
        ncs: impl IntoIterator<Item = (NcId, Vec<Fact>)>,
        next: u64,
    ) -> Result<NcStore> {
        let mut store = NcStore {
            ncs: BTreeMap::new(),
            next,
        };
        for (id, conjuncts) in ncs {
            let refuse = |why: &str| FdbError::Parse {
                line: 0,
                message: format!("NC {id} {why}"),
            };
            if id.0 >= next {
                return Err(refuse(&format!("is not below the next NC id {next}")));
            }
            if store.ncs.insert(id, Nc::new(conjuncts)).is_some() {
                return Err(refuse("is listed twice"));
            }
        }
        Ok(store)
    }

    /// Registers a new NC over `conjuncts`, returning its fresh index.
    pub fn create(&mut self, conjuncts: Vec<Fact>) -> NcId {
        let id = NcId(self.next);
        self.next += 1;
        self.ncs.insert(id, Nc::new(conjuncts));
        id
    }

    /// Removes `id` and returns its conjuncts (empty if unknown).
    pub fn dismantle(&mut self, id: NcId) -> Vec<Fact> {
        self.ncs
            .remove(&id)
            .map(|nc| nc.conjuncts)
            .unwrap_or_default()
    }

    /// Undoes a create (transaction rollback): removes `id` and rewinds
    /// the index counter so the store's next NC reuses it. Sound only in
    /// reverse creation order — the most recently created NC always holds
    /// the highest index — which the undo journal guarantees.
    pub(crate) fn undo_create(&mut self, id: NcId) {
        debug_assert_eq!(id.0 + 1, self.next, "undo_create out of order");
        self.ncs.remove(&id);
        self.next = id.0;
    }

    /// Undoes a dismantle (transaction rollback): re-registers `id` with
    /// the conjuncts it held. The index counter is untouched — dismantle
    /// never advanced it.
    pub(crate) fn restore(&mut self, id: NcId, conjuncts: Vec<Fact>) {
        debug_assert!(!self.ncs.contains_key(&id), "restore of a live NC");
        self.ncs.insert(id, Nc::new(conjuncts));
    }

    /// Replaces the conjuncts of a live NC verbatim (undo of
    /// [`NcStore::substitute_value`] for one NC during rollback).
    pub(crate) fn rewrite(&mut self, id: NcId, conjuncts: Vec<Fact>) {
        if let Some(nc) = self.ncs.get_mut(&id) {
            *nc = Nc::new(conjuncts);
        } else {
            debug_assert!(false, "rewrite of unknown NC {id}");
        }
    }

    /// The conjuncts of `id`, if it exists.
    pub fn get(&self, id: NcId) -> Option<&[Fact]> {
        self.ncs.get(&id).map(|nc| nc.conjuncts.as_slice())
    }

    /// How many distinct facts the conjuncts of `id` are, if it exists.
    pub fn distinct_conjuncts(&self, id: NcId) -> Option<usize> {
        self.ncs.get(&id).map(|nc| nc.distinct)
    }

    /// `true` if `id` is a live NC.
    pub fn contains(&self, id: NcId) -> bool {
        self.ncs.contains_key(&id)
    }

    /// Number of live NCs.
    pub fn len(&self) -> usize {
        self.ncs.len()
    }

    /// `true` if there are no live NCs.
    pub fn is_empty(&self) -> bool {
        self.ncs.is_empty()
    }

    /// Iterates over the live NCs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NcId, &[Fact])> {
        self.ncs
            .iter()
            .map(|(&id, nc)| (id, nc.conjuncts.as_slice()))
    }

    /// Rewrites every occurrence of `from` in NC conjunct values to `to`
    /// (used by null substitution; see `fdb-core`'s resolution pass). Two
    /// conjuncts of one NC may become the same fact, so the distinct
    /// count of every rewritten NC is taken again.
    pub fn substitute_value(&mut self, from: &fdb_types::Value, to: &fdb_types::Value) {
        for nc in self.ncs.values_mut() {
            let mut rewritten = false;
            for f in nc.conjuncts.iter_mut() {
                if &f.x == from {
                    f.x = to.clone();
                    rewritten = true;
                }
                if &f.y == from {
                    f.y = to.clone();
                    rewritten = true;
                }
            }
            if rewritten {
                *nc = Nc::new(std::mem::take(&mut nc.conjuncts));
            }
        }
    }

    /// Whether some live NC covers a chain, counted from the NCLs of the
    /// rows it walked: `rows` yields each row with its NCL, once per step
    /// that passed it. An NC covers the chain iff it is on the NCL of as
    /// many distinct rows as it has distinct conjuncts — which, under the
    /// duality invariant, is [`NcStore::chain_covers_some_nc`] of the
    /// rows' facts. Nothing is allocated; only NCs on those NCLs are
    /// looked up.
    pub(crate) fn cover<'t, I>(&self, rows: I) -> Coverage
    where
        I: Iterator<Item = (RowRef, &'t BTreeSet<NcId>)> + Clone,
    {
        // A row passed twice is counted at its first pass only.
        let distinct = {
            let all = rows.clone();
            rows.enumerate()
                .filter(move |&(n, (row, _))| !all.clone().take(n).any(|(r, _)| r == row))
                .map(|(_, (_, ncl))| ncl)
        };
        let mut examined = 0;
        for ncl in distinct.clone() {
            for id in ncl {
                examined += 1;
                let hits = distinct.clone().filter(|ncl| ncl.contains(id)).count();
                if self.distinct_conjuncts(*id) == Some(hits) {
                    return Coverage {
                        covered: true,
                        examined,
                    };
                }
            }
        }
        Coverage {
            covered: false,
            examined,
        }
    }

    /// Returns `true` if the facts of `chain` include every conjunct of
    /// some live NC — the §3.2 condition that disqualifies a chain from
    /// making a derived fact ambiguous.
    ///
    /// This is the reference definition, a scan of every live NC; facts
    /// are compared structurally (function + pair), and a fact listed
    /// twice on either side counts once. Evaluation asks
    /// [`crate::Store::nc_coverage`] instead; the interpreter and the tests
    /// that hold the two to one answer call this.
    pub fn chain_covers_some_nc(&self, chain: &[Fact]) -> bool {
        self.ncs
            .values()
            .any(|nc| nc.conjuncts.iter().all(|f| chain.contains(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::FunctionId;

    fn fact(f: u32, x: &str, y: &str) -> Fact {
        Fact::new(FunctionId(f), x, y)
    }

    #[test]
    fn create_assigns_sequential_indices() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        let b = s.create(vec![fact(1, "b", "c")]);
        assert_eq!(a, NcId(1));
        assert_eq!(b, NcId(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dismantle_removes_and_returns_conjuncts() {
        let mut s = NcStore::new();
        let id = s.create(vec![fact(0, "a", "b"), fact(1, "b", "c")]);
        let conj = s.dismantle(id);
        assert_eq!(conj.len(), 2);
        assert!(!s.contains(id));
        assert!(s.dismantle(id).is_empty());
    }

    #[test]
    fn indices_are_never_reused() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        s.dismantle(a);
        let b = s.create(vec![fact(0, "a", "b")]);
        assert_ne!(a, b);
    }

    #[test]
    fn chain_superset_detection() {
        let mut s = NcStore::new();
        s.create(vec![fact(0, "euclid", "math"), fact(1, "math", "john")]);
        // The exact chain is a superset (equal).
        assert!(s.chain_covers_some_nc(&[fact(0, "euclid", "math"), fact(1, "math", "john")]));
        // A longer chain containing the NC is also a superset.
        assert!(s.chain_covers_some_nc(&[
            fact(0, "euclid", "math"),
            fact(1, "math", "john"),
            fact(2, "john", "cs")
        ]));
        // A chain sharing only one conjunct is not.
        assert!(!s.chain_covers_some_nc(&[fact(0, "euclid", "math"), fact(1, "math", "bill")]));
        // The empty chain covers nothing (every NC is non-empty here).
        assert!(!s.chain_covers_some_nc(&[]));
    }

    #[test]
    fn distinct_counts_survive_both_snapshot_forms() {
        let mut s = NcStore::new();
        let twice = s.create(vec![fact(0, "a", "c"), fact(0, "a", "c")]);
        let pair = s.create(vec![fact(0, "a", "c"), fact(1, "c", "d")]);
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        let decoded = NcStore::decode(&mut Reader::new(&bytes)).unwrap();
        // The legacy JSON reader hands the conjunct lists to `from_parts`.
        let listed = NcStore::from_parts(s.iter().map(|(id, c)| (id, c.to_vec())), 3).unwrap();
        for back in [&decoded, &listed] {
            assert_eq!(back.distinct_conjuncts(twice), Some(1));
            assert_eq!(back.distinct_conjuncts(pair), Some(2));
            assert_eq!(back.get(twice), s.get(twice));
        }
    }

    /// An id at or past the counter would be overwritten by the next
    /// `create`; a repeated id would lose an NC.
    #[test]
    fn from_parts_refuses_ids_the_counter_has_not_reached() {
        let one = |id| (NcId(id), vec![fact(0, "a", "b")]);
        assert!(NcStore::from_parts([one(1), one(2)], 3).is_ok());
        for (ncs, next) in [
            (vec![one(3)], 3),
            (vec![one(1), one(7)], 3),
            (vec![one(1), one(1)], 3),
        ] {
            assert!(NcStore::from_parts(ncs, next).is_err());
        }
        let mut bytes = Vec::new();
        NcStore::from_parts([one(1)], 2).unwrap().encode(&mut bytes);
        bytes[0] = 1; // `next`, the first byte written
        assert!(NcStore::decode(&mut Reader::new(&bytes)).is_err());
    }

    /// The NCL count agrees with the scan on hand-built NCLs, with a
    /// repeated conjunct and a chain that passes one row twice.
    #[test]
    fn ncl_count_counts_distinct_rows_against_distinct_conjuncts() {
        let mut s = NcStore::new();
        let (teach_ac, teach_bc) = (fact(0, "a", "c"), fact(0, "b", "c"));
        // `DELETE colleague(a, a)` over `teach o teach^-1`: one fact twice.
        let g1 = s.create(vec![teach_ac.clone(), teach_ac.clone()]);
        let g2 = s.create(vec![teach_ac.clone(), teach_bc.clone()]);
        assert_eq!(s.distinct_conjuncts(g1), Some(1));
        assert_eq!(s.distinct_conjuncts(g2), Some(2));
        let (ac, bc) = ((FunctionId(0), 0), (FunctionId(0), 1));
        let ncl_ac: BTreeSet<NcId> = [g1, g2].into();
        let ncl_bc: BTreeSet<NcId> = [g2].into();
        let with_ncl = |row: RowRef| (row, if row == ac { &ncl_ac } else { &ncl_bc });
        for (rows, facts) in [
            (vec![bc], vec![teach_bc.clone()]),
            (vec![bc, bc], vec![teach_bc.clone(), teach_bc.clone()]),
            (vec![ac], vec![teach_ac.clone()]),
            (vec![ac, bc], vec![teach_ac.clone(), teach_bc.clone()]),
        ] {
            let coverage = s.cover(rows.iter().map(|&row| with_ncl(row)));
            assert_eq!(coverage.covered, s.chain_covers_some_nc(&facts), "{rows:?}");
        }
        s.dismantle(g1);
        let coverage = s.cover([ac, ac].into_iter().map(with_ncl));
        assert!(!coverage.covered, "g2 needs b's row too");
        // Each NCL entry of the one distinct row is looked at once; the
        // hand-built NCL still lists g1, which is no longer live and
        // covers nothing.
        assert_eq!(coverage.examined, 2);
        assert!(s.cover([ac, bc].into_iter().map(with_ncl)).covered);
    }

    #[test]
    fn substitution_that_merges_conjuncts_lowers_the_distinct_count() {
        let mut s = NcStore::new();
        let n = fdb_types::Value::Null(fdb_types::NullId(1));
        let id = s.create(vec![
            Fact::new(FunctionId(0), "a", n.clone()),
            fact(0, "a", "c"),
        ]);
        assert_eq!(s.distinct_conjuncts(id), Some(2));
        s.substitute_value(&n, &fdb_types::Value::atom("c"));
        assert_eq!(s.distinct_conjuncts(id), Some(1));
        s.rewrite(id, vec![fact(0, "a", "b"), fact(0, "a", "c")]);
        assert_eq!(s.distinct_conjuncts(id), Some(2));
    }

    #[test]
    fn iter_in_index_order() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        let b = s.create(vec![fact(1, "c", "d")]);
        let ids: Vec<NcId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
