//! Dependency-aware result caching.
//!
//! A derived function's answers are a function of its derivation list
//! and of the base tables those derivations name — the *support set* —
//! with the NC store entries over them. [`fdb_storage::Store`] keeps a
//! per-function mutation counter, bumped by every base insert/delete of
//! that function and by NC creation/dismantling touching a conjunct of
//! it (null substitution bumps every function, conservatively). The
//! cache keeps one *guard* per derived function — the support counters
//! and the derivations its answers were computed from — beside all of
//! the function's answers. They go stale at the same instant, so the
//! first lookup after a counter or the derivation list moved drops them
//! together and refreshes the guard in place: memory is bounded by the
//! live answers.
//!
//! **Soundness.** A chain for a derivation consists only of facts of the
//! derivation's step functions, so every input to §3.2 evaluation — the
//! rows examined and the NCs that can cover a chain (an NC with a
//! conjunct outside the support set can never be a subset of such a
//! chain's facts) — lives in tables whose counters are in the guard.
//! Mutations outside the support set therefore cannot change the answer,
//! and the cache correctly survives them. A `DERIVE` moves no counter,
//! which is why the guard holds the derivations themselves: a lookup
//! under another list (a new derivation, or one rolled back) is stale.
//!
//! **Identity vs state.** Counters only grow, so within one store
//! lineage equal counter vectors imply identical table+NC state. The
//! undo journal preserves this: a transaction rollback *replays inverse
//! operations*, each of which bumps the counters of the functions it
//! touches, rather than restoring the counters to their pre-transaction
//! values — so a rollback is a fresh version event and no answer cached
//! before or inside the rolled-back transaction can satisfy a later
//! lookup. Serving a different store (`LOAD`, a promoted or newly
//! attached replica) breaks the lineage — counters are no longer
//! comparable — so callers must [`ResultCache::clear`] then.
//!
//! **Governed lookups.** `compute` runs under the caller's governor and
//! returns an [`Outcome`]; only `Complete` ones are remembered, and a
//! remembered answer is served whatever the deadline.

use std::collections::HashMap;

use fdb_governor::Outcome;
use fdb_storage::{DerivedPair, Store, Truth};
use fdb_types::{Derivation, FunctionId, Result, Value};

/// Hit/miss/invalidation counters for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a still-valid entry.
    pub hits: u64,
    /// Lookups that had no entry and computed fresh.
    pub misses: u64,
    /// Entries evicted because a support function or the derivation
    /// list changed.
    pub invalidations: u64,
}

/// Both layers of cache statistics in one report: this cache's local
/// counters and entry counts, plus the process-wide registry counters
/// (`fdb.cache.*`, aggregated over every [`ResultCache`] in the
/// process). [`ResultCache::report`] builds one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// This cache's own hit/miss/invalidation counters.
    pub local: CacheStats,
    /// Truth entries currently held (valid or stale).
    pub truth_entries: usize,
    /// Extension entries currently held (valid or stale).
    pub extension_entries: usize,
    /// The process-wide `fdb.cache.*` registry counters.
    pub global: CacheStats,
}

/// The outcome of a non-mutating cache probe ([`ResultCache::probe_truth`]),
/// used by `EXPLAIN ANALYZE` to report what a real execution would find
/// without disturbing the counters it is reporting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheProbe {
    /// A valid entry exists; execution would hit.
    Hit,
    /// An entry exists but its function's support set or derivation list
    /// has moved; execution would drop it and recompute.
    Stale,
    /// No entry; execution would compute fresh.
    Miss,
}

impl std::fmt::Display for CacheProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheProbe::Hit => write!(f, "hit"),
            CacheProbe::Stale => write!(f, "stale"),
            CacheProbe::Miss => write!(f, "miss"),
        }
    }
}

/// Why a function's answers went stale; renders as the eviction cause.
enum Moved {
    /// The mutation counter of this support function moved.
    Support(FunctionId),
    /// The derivation list is not the one the answers were computed from.
    Rederived,
}

impl std::fmt::Display for Moved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Moved::Support(g) => write!(f, "support:{}", g.0),
            Moved::Rederived => write!(f, "rederived"),
        }
    }
}

/// One derived function's answers and the guard they all share.
#[derive(Debug)]
struct Answers {
    /// The store's global version when the guard was last found fresh:
    /// while the store still reports it, *nothing* has changed and no
    /// per-function counter needs examining — the common case under
    /// MVCC, where a statement evaluates against one pinned store clone
    /// whose version never moves.
    store_version: u64,
    /// The support set with each function's mutation counter.
    support: Vec<(FunctionId, u64)>,
    /// The derivations the answers were computed from.
    derivations: Vec<Derivation>,
    truths: HashMap<(Value, Value), Truth>,
    extension: Option<Vec<DerivedPair>>,
}

impl Answers {
    /// No answers yet, behind a guard on `derivations` as of `store`.
    fn new(store: &Store, derivations: &[Derivation]) -> Self {
        let mut support: Vec<(FunctionId, u64)> = Vec::new();
        for step in derivations.iter().flat_map(Derivation::steps) {
            if !support.iter().any(|(g, _)| *g == step.function) {
                support.push((step.function, store.function_version(step.function)));
            }
        }
        Answers {
            store_version: store.version(),
            support,
            derivations: derivations.to_vec(),
            truths: HashMap::new(),
            extension: None,
        }
    }

    /// What has moved since the answers were computed, if anything.
    fn moved(&self, store: &Store, derivations: &[Derivation]) -> Option<Moved> {
        if self.derivations != derivations {
            return Some(Moved::Rederived);
        }
        if store.version() == self.store_version {
            return None;
        }
        self.support
            .iter()
            .find(|(g, version)| store.function_version(*g) != *version)
            .map(|(g, _)| Moved::Support(*g))
    }

    fn len(&self) -> usize {
        self.truths.len() + usize::from(self.extension.is_some())
    }
}

/// A cache of derived truth and extension answers, one guarded set per
/// derived function (see the module documentation). A function with no
/// derivations is a base function: its answers are one index probe, so
/// nothing is remembered for it.
#[derive(Debug, Default)]
pub struct ResultCache {
    functions: HashMap<FunctionId, Answers>,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unified two-layer statistics: this cache's counters and entry
    /// counts next to the process-wide `fdb.cache.*` registry counters.
    pub fn report(&self) -> CacheReport {
        let reg = fdb_obs::registry();
        let extensions = self.functions.values().filter(|a| a.extension.is_some());
        CacheReport {
            local: self.stats,
            truth_entries: self.functions.values().map(|a| a.truths.len()).sum(),
            extension_entries: extensions.count(),
            global: CacheStats {
                hits: reg.cache_hits.get(),
                misses: reg.cache_misses.get(),
                invalidations: reg.cache_invalidations.get(),
            },
        }
    }

    /// What a truth lookup of `f(x) = y` would find right now, without
    /// touching the entry or the counters.
    pub fn probe_truth(
        &self,
        store: &Store,
        f: FunctionId,
        derivations: &[Derivation],
        x: &Value,
        y: &Value,
    ) -> CacheProbe {
        match self.functions.get(&f) {
            Some(a) if a.truths.contains_key(&(x.clone(), y.clone())) => {
                match a.moved(store, derivations) {
                    Some(_) => CacheProbe::Stale,
                    None => CacheProbe::Hit,
                }
            }
            _ => CacheProbe::Miss,
        }
    }

    /// Drops every answer. Callers must do this when a different store
    /// is served (guards are only meaningful within one store lineage)
    /// and when answers may rest on something no guard watches; `cause`
    /// names which (`lineage`, `assumption`) in the eviction event.
    pub fn clear(&mut self, cause: &str) {
        let entries: usize = self.functions.values().map(Answers::len).sum();
        if entries > 0 {
            fdb_obs::causal::point("fdb.cache.evict", || {
                format!("f=* entries={entries} cause={cause}")
            });
        }
        self.functions.clear();
    }

    /// The answers of `f`, fresh: if its support set or derivation list
    /// moved since they were computed they are dropped first, all
    /// together, and the guard is brought up to date.
    fn fresh<'a>(
        functions: &'a mut HashMap<FunctionId, Answers>,
        stats: &mut CacheStats,
        store: &Store,
        f: FunctionId,
        derivations: &[Derivation],
    ) -> &'a mut Answers {
        let answers = functions
            .entry(f)
            .or_insert_with(|| Answers::new(store, derivations));
        let moved = answers.moved(store, derivations);
        if let Some(moved) = &moved {
            let entries = answers.len() as u64;
            if entries > 0 {
                stats.invalidations += entries;
                fdb_obs::registry().cache_invalidations.add(entries);
                fdb_obs::causal::point("fdb.cache.evict", || {
                    format!("f={} entries={entries} cause={moved}", f.0)
                });
            }
        }
        match moved {
            Some(Moved::Rederived) => *answers = Answers::new(store, derivations),
            // Nearly every lookup of a function whose support set takes
            // writes lands here: empty the maps and re-read the counters
            // in place rather than allocate a new guard.
            Some(Moved::Support(_)) => {
                answers.truths.clear();
                answers.extension = None;
                for (g, version) in &mut answers.support {
                    *version = store.function_version(*g);
                }
            }
            None => {}
        }
        // Fresh as of this version: until it moves, the O(1) path.
        answers.store_version = store.version();
        answers
    }

    /// Counts a lookup of `f` answered from memory (`hit`) or computed.
    fn count(stats: &mut CacheStats, hit: bool, kind: &str, f: FunctionId) {
        let reg = fdb_obs::registry();
        let (local, global, event) = if hit {
            (&mut stats.hits, &reg.cache_hits, "fdb.cache.hit")
        } else {
            (&mut stats.misses, &reg.cache_misses, "fdb.cache.miss")
        };
        *local += 1;
        global.inc();
        fdb_obs::causal::point(event, || format!("{kind} f={}", f.0));
    }

    /// The truth of `f(x) = y`: the remembered answer while `f`'s
    /// support set and `derivations` are unchanged, else `compute`'s,
    /// which is remembered when it is `Complete`.
    pub fn truth_or_compute(
        &mut self,
        store: &Store,
        f: FunctionId,
        derivations: &[Derivation],
        x: &Value,
        y: &Value,
        compute: impl FnOnce() -> Result<Outcome<Truth>>,
    ) -> Result<Outcome<Truth>> {
        if derivations.is_empty() {
            return compute();
        }
        let answers = Self::fresh(&mut self.functions, &mut self.stats, store, f, derivations);
        let key = (x.clone(), y.clone());
        let known = answers.truths.get(&key).copied();
        Self::count(&mut self.stats, known.is_some(), "truth", f);
        if let Some(truth) = known {
            return Ok(Outcome::Complete(truth));
        }
        let outcome = compute()?;
        if let Outcome::Complete(truth) = &outcome {
            answers.truths.insert(key, *truth);
        }
        Ok(outcome)
    }

    /// The extension of `f`, remembered and recomputed on the terms of
    /// [`ResultCache::truth_or_compute`].
    pub fn extension_or_compute(
        &mut self,
        store: &Store,
        f: FunctionId,
        derivations: &[Derivation],
        compute: impl FnOnce() -> Result<Outcome<Vec<DerivedPair>>>,
    ) -> Result<Outcome<Vec<DerivedPair>>> {
        if derivations.is_empty() {
            return compute();
        }
        let answers = Self::fresh(&mut self.functions, &mut self.stats, store, f, derivations);
        Self::count(&mut self.stats, answers.extension.is_some(), "extension", f);
        if let Some(pairs) = &answers.extension {
            return Ok(Outcome::Complete(pairs.clone()));
        }
        let outcome = compute()?;
        if let Outcome::Complete(pairs) = &outcome {
            answers.extension = Some(pairs.clone());
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::Step;

    const F0: FunctionId = FunctionId(0);
    const F1: FunctionId = FunctionId(1);
    const OTHER: FunctionId = FunctionId(2);
    const PUPIL: FunctionId = FunctionId(3);

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    /// `PUPIL = F0 o F1`.
    fn pupil() -> Vec<Derivation> {
        vec![Derivation::new(vec![Step::identity(F0), Step::identity(F1)]).unwrap()]
    }

    fn store() -> Store {
        let mut s = Store::new(4);
        s.base_insert(F0, v("a"), v("b"));
        s.base_insert(F1, v("b"), v("c"));
        s
    }

    /// Looks up `PUPIL(a) = c`, counting the computations.
    fn truth(cache: &mut ResultCache, s: &Store, ds: &[Derivation], computes: &mut u32) -> Truth {
        cache
            .truth_or_compute(s, PUPIL, ds, &v("a"), &v("c"), || {
                *computes += 1;
                Ok(Outcome::Complete(Truth::True))
            })
            .unwrap()
            .value()
    }

    #[test]
    fn writes_outside_the_support_set_do_not_invalidate() {
        let mut s = store();
        let ds = pupil();
        let mut cache = ResultCache::new();
        let mut computes = 0;
        for _ in 0..2 {
            truth(&mut cache, &s, &ds, &mut computes);
        }
        assert_eq!(computes, 1);
        assert_eq!(cache.report().local.hits, 1);

        // A write to an unrelated function keeps the entry valid…
        s.base_insert(OTHER, v("x"), v("y"));
        truth(&mut cache, &s, &ds, &mut computes);
        assert_eq!(computes, 1);
        assert_eq!(cache.report().local.invalidations, 0);

        // …while a write inside the support set invalidates it.
        s.base_insert(F0, v("a2"), v("b"));
        truth(&mut cache, &s, &ds, &mut computes);
        assert_eq!(computes, 2);
        assert_eq!(cache.report().local.invalidations, 1);
    }

    #[test]
    fn pinned_snapshot_keeps_hitting_while_live_store_mutates() {
        let mut s = store();
        let snap = s.clone();
        let ds = pupil();
        let mut cache = ResultCache::new();
        let mut computes = 0;
        // Writes to the live store — even inside the support set — are
        // invisible through the snapshot: its stamp is frozen, so every
        // lookup takes the O(1) fast path and hits.
        for _ in 0..3 {
            truth(&mut cache, &snap, &ds, &mut computes);
            s.base_insert(F0, v("mut"), v("mut"));
        }
        assert_eq!(computes, 1);
        assert_eq!(cache.report().local.hits, 2);
        assert_eq!(cache.report().local.invalidations, 0);
        // The same cache consulted against the moved-on live store sees
        // the support-set change and recomputes.
        truth(&mut cache, &s, &ds, &mut computes);
        assert_eq!(computes, 2);
    }

    #[test]
    fn nc_creation_inside_support_invalidates_extension() {
        let mut s = store();
        let ds = pupil();
        let mut cache = ResultCache::new();
        let first = cache
            .extension_or_compute(&s, PUPIL, &ds, || Ok(Outcome::Complete(Vec::new())))
            .unwrap();
        assert!(first.value().is_empty());
        // create_nc bumps the conjuncts' functions.
        s.create_nc(vec![fdb_storage::Fact {
            function: F1,
            x: v("b"),
            y: v("c"),
        }]);
        let mut recomputed = false;
        let second = cache
            .extension_or_compute(&s, PUPIL, &ds, || {
                recomputed = true;
                Ok(Outcome::Complete(Vec::new()))
            })
            .unwrap();
        assert!(recomputed && second.is_complete());
    }

    #[test]
    fn support_is_the_union_over_derivations() {
        let f = |i| FunctionId(i);
        let d1 = Derivation::new(vec![Step::identity(f(0)), Step::inverse(f(1))]).unwrap();
        let d2 = Derivation::new(vec![Step::identity(f(1)), Step::identity(f(3))]).unwrap();
        let answers = Answers::new(&Store::new(4), &[d1, d2]);
        let watched: Vec<FunctionId> = answers.support.iter().map(|(g, _)| *g).collect();
        assert_eq!(watched, vec![f(0), f(1), f(3)]);
        assert!(Answers::new(&Store::new(4), &[]).support.is_empty());
    }

    #[test]
    fn a_changed_derivation_list_drops_every_answer_of_the_function() {
        let s = store();
        let one = pupil();
        let mut two = one.clone();
        two.push(Derivation::single(Step::identity(OTHER)));
        let mut cache = ResultCache::new();
        let mut computes = 0;
        truth(&mut cache, &s, &one, &mut computes);
        assert_eq!(
            cache.probe_truth(&s, PUPIL, &one, &v("a"), &v("c")),
            CacheProbe::Hit
        );
        // No counter moved, yet the answer was computed from another list.
        assert_eq!(
            cache.probe_truth(&s, PUPIL, &two, &v("a"), &v("c")),
            CacheProbe::Stale
        );
        truth(&mut cache, &s, &two, &mut computes);
        assert_eq!(computes, 2);
        assert_eq!(cache.report().local.invalidations, 1);
        // The guard now watches the new list's support set too.
        let mut s = s;
        s.base_insert(OTHER, v("x"), v("y"));
        truth(&mut cache, &s, &two, &mut computes);
        assert_eq!(computes, 3);
        // Going back (a rolled-back DERIVE) is a change like any other.
        truth(&mut cache, &s, &one, &mut computes);
        assert_eq!(computes, 4);
    }

    #[test]
    fn only_complete_outcomes_are_remembered() {
        let s = store();
        let ds = pupil();
        let mut cache = ResultCache::new();
        let partial = cache
            .truth_or_compute(&s, PUPIL, &ds, &v("a"), &v("c"), || {
                Ok(Outcome::Exhausted {
                    partial: Truth::False,
                    reason: fdb_governor::StopReason::Cancelled,
                })
            })
            .unwrap();
        assert!(!partial.is_complete());
        assert_eq!(cache.report().truth_entries, 0);
        let mut computes = 0;
        truth(&mut cache, &s, &ds, &mut computes);
        assert_eq!(computes, 1, "the partial answer was not served");
        assert_eq!(cache.report().truth_entries, 1);
    }
}
