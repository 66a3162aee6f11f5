//! Negated conjunctions (NC) and their store.
//!
//! §3.2: deleting a derived fact `σ` converts each of its derivations into
//! a *negated conjunction* — a set of base facts whose conjunction is
//! asserted false while each member individually becomes ambiguous. §4
//! implements an NC as "a list of pointers to its component facts"; each
//! fact's NCL points back, forming a dual structure. The store below owns
//! the NC → facts direction; the facts' NCLs live in their tables
//! ([`crate::table`]) and are kept in sync by [`crate::Store`].

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use fdb_types::codec::{put_uint, Reader};
use fdb_types::Result;

use crate::fact::Fact;

/// Unique index of a negated conjunction (the paper writes `NC(d)`; the
/// worked example names its first NC `g₁`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NcId(pub u64);

impl fmt::Display for NcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The NC store: `NcId → component facts`.
///
/// Only the bookkeeping lives here; flag/NCL updates on the component
/// facts are the responsibility of [`crate::Store`], which wraps
/// [`NcStore::create`] / [`NcStore::dismantle`] in the paper's
/// `create-NC` / `dismantle-NC` procedures.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NcStore {
    ncs: BTreeMap<NcId, Vec<Fact>>,
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
        for (id, facts) in &self.ncs {
            put_uint(out, id.0);
            put_uint(out, facts.len() as u64);
            for fact in facts {
                fact.encode(out);
            }
        }
    }

    /// Reads a store written by [`NcStore::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<NcStore> {
        let next = r.uint()?;
        let mut ncs = BTreeMap::new();
        for _ in 0..r.count(2)? {
            let id = NcId(r.uint()?);
            let len = r.count(Fact::MIN_ENCODED)?;
            let mut facts = Vec::with_capacity(len);
            for _ in 0..len {
                facts.push(Fact::decode(r)?);
            }
            if ncs.insert(id, facts).is_some() {
                return Err(r.error("duplicate NC id"));
            }
        }
        Ok(NcStore { ncs, next })
    }

    /// Registers a new NC over `conjuncts`, returning its fresh index.
    pub fn create(&mut self, conjuncts: Vec<Fact>) -> NcId {
        let id = NcId(self.next);
        self.next += 1;
        self.ncs.insert(id, conjuncts);
        id
    }

    /// Removes `id` and returns its conjuncts (empty if unknown).
    pub fn dismantle(&mut self, id: NcId) -> Vec<Fact> {
        self.ncs.remove(&id).unwrap_or_default()
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
        self.ncs.insert(id, conjuncts);
    }

    /// Replaces the conjuncts of a live NC verbatim (undo of
    /// [`NcStore::substitute_value`] for one NC during rollback).
    pub(crate) fn rewrite(&mut self, id: NcId, conjuncts: Vec<Fact>) {
        if let Some(facts) = self.ncs.get_mut(&id) {
            *facts = conjuncts;
        } else {
            debug_assert!(false, "rewrite of unknown NC {id}");
        }
    }

    /// The conjuncts of `id`, if it exists.
    pub fn get(&self, id: NcId) -> Option<&[Fact]> {
        self.ncs.get(&id).map(Vec::as_slice)
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
        self.ncs.iter().map(|(&id, facts)| (id, facts.as_slice()))
    }

    /// Rewrites every occurrence of `from` in NC conjunct values to `to`
    /// (used by null substitution; see `fdb-core`'s resolution pass).
    pub fn substitute_value(&mut self, from: &fdb_types::Value, to: &fdb_types::Value) {
        for facts in self.ncs.values_mut() {
            for f in facts.iter_mut() {
                if &f.x == from {
                    f.x = to.clone();
                }
                if &f.y == from {
                    f.y = to.clone();
                }
            }
        }
    }

    /// Returns `true` if the multiset of facts in `chain` is a superset of
    /// some live NC — the §3.2 condition that disqualifies a chain from
    /// making a derived fact ambiguous.
    ///
    /// Facts are compared structurally (function + pair); a chain never
    /// contains duplicates of the same row, so set semantics suffice.
    pub fn chain_covers_some_nc(&self, chain: &[Fact]) -> bool {
        self.ncs
            .values()
            .any(|nc| nc.iter().all(|f| chain.contains(f)))
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
    fn iter_in_index_order() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        let b = s.create(vec![fact(1, "c", "d")]);
        let ids: Vec<NcId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
