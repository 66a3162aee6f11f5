//! Planned evaluation entry points: truth, extension, image queries and
//! derived-delete chain collection, all routed through the
//! planner/executor pipeline.
//!
//! These mirror the reference implementations in `fdb_storage::chain`
//! result-for-result on complete runs:
//!
//! * truth folds each derivation's chains, as the executor streams them,
//!   into one verdict with three-valued OR: a proving chain ends the run
//!   with `Complete(True)` (True is final on the lattice), a chain covered
//!   by an NC is demoted, and once the verdict is `Ambiguous` no further
//!   coverage check is made — only a proof can still change it;
//! * NC coverage is counted from the NCLs of the rows the chain walked
//!   ([`fdb_storage::Store::nc_coverage`]): an NC covers the chain iff it
//!   is on the NCL of as many distinct chain rows as it has distinct
//!   conjuncts. The check materialises no facts, allocates nothing and
//!   looks at no NC outside those NCLs; `fdb.exec.ncl_entries_examined`
//!   adds up what it visited. The interpreter's scan of every live NC is
//!   the definition this count is tested against; there is no fallback
//!   to it here;
//! * extension / image / inverse-image evaluate **set-at-a-time**: one
//!   enumeration per derivation — the selected endpoint bound by
//!   [`Bind::Matches`], the other unbound — answers every pair. A chain
//!   with two non-null endpoints is evidence for exactly that pair; a
//!   chain with a null endpoint is a *wildcard* that matches, ambiguously,
//!   every pair sharing its other endpoint (see `PairEvidence`). These
//!   are precisely the chains the interpreter's per-pair truth queries
//!   examine, each looked at once. What a stopped run may report is
//!   spelled out on `pairs_impl`;
//! * delete-chain collection is pinned to [`Direction::Forward`]: NC ids
//!   are user-visible in update traces, and the forward (interpreter)
//!   enumeration order is the canonical order for NC numbering.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, DerivedPair, Fact, NcId, Store, Truth};
use fdb_types::{Derivation, Value};

use crate::exec::{chains_with_direction, stream_planned, ChainView};
use crate::plan::{Bind, Direction, QuerySpec};

/// §3.2 truth of the derived fact `(x, y)`, evaluated through the
/// planner (see [`fdb_storage::chain::derived_truth`] for semantics).
pub fn derived_truth(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
) -> Truth {
    derived_truth_impl(store, derivations, x, y, limits, &Ungoverned).value()
}

/// [`derived_truth`] under a [`Governor`]: a stopped evaluation reports a
/// sound lower bound on the `False < Ambiguous < True` lattice; a `True`
/// proof is final and therefore always `Complete`.
pub fn derived_truth_governed(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Truth> {
    derived_truth_impl(store, derivations, x, y, limits, governor)
}

/// Whether some live NC negates `chain` (§3.2: such a chain cannot make
/// its derived fact ambiguous), counted from the NCLs of its rows.
fn covered(store: &Store, chain: &ChainView<'_, '_>) -> bool {
    if store.ncs().is_empty() {
        return false;
    }
    let coverage = store.nc_coverage(chain.rows());
    let reg = fdb_obs::registry();
    reg.exec_ncl_entries_examined.add(coverage.examined);
    if coverage.covered {
        reg.exec_nc_demotions.inc();
    }
    coverage.covered
}

/// Raises `verdict` by the evidence of one chain whose endpoints are the
/// judged pair's own. The coverage check runs only while it can still
/// change the verdict.
fn raise(store: &Store, verdict: &mut Truth, chain: &ChainView<'_, '_>) {
    if chain.proves_true() {
        *verdict = Truth::True;
    } else if *verdict == Truth::False && !covered(store, chain) {
        *verdict = Truth::Ambiguous;
    }
}

fn derived_truth_impl<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Truth> {
    let mut verdict = Truth::False;
    let spec = QuerySpec::truth(x, y, true);
    for derivation in derivations {
        let (_, streamed, _) =
            stream_planned(store, derivation, &spec, limits, governor, |chain| {
                raise(store, &mut verdict, chain);
                if verdict == Truth::True {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        if verdict == Truth::True {
            // Top of the truth lattice: complete even after a stop.
            return Outcome::Complete(Truth::True);
        }
        if !streamed.is_complete() {
            return streamed.map(|_| verdict);
        }
    }
    Outcome::Complete(verdict)
}

/// Per-pair §3.2 evidence gathered from one pass over the chains of an
/// extension, image or inverse image.
///
/// The interpreter judges a pair `(x, y)` by the chains whose left
/// endpoint *matches* `x` and whose right endpoint matches `y`. For
/// non-null `x` and `y` those are the chains ending in exactly `(x, y)`,
/// folded into `verdicts` as they arrive, plus the chains with a null
/// endpoint: a null matches any value ambiguously, so such a chain can
/// never prove a pair true, but — unless an NC covers it — it makes every
/// pair sharing its other endpoint at least ambiguous. Those *wildcards*
/// are remembered by the endpoint they leave fixed and applied when the
/// pass is over.
#[derive(Default)]
struct PairEvidence<'a> {
    /// Every pair some chain ends in with both endpoints non-null — the
    /// only pairs an extension lists — with the verdict of the chains
    /// seen so far that end in exactly that pair. The key order is the
    /// answer's.
    verdicts: BTreeMap<(&'a Value, &'a Value), Truth>,
    /// Left endpoints of uncovered chains whose right endpoint is null.
    wild_left: BTreeSet<&'a Value>,
    /// Right endpoints of uncovered chains whose left endpoint is null.
    wild_right: BTreeSet<&'a Value>,
    /// An uncovered chain with two null endpoints was seen.
    wild_all: bool,
}

impl<'a> PairEvidence<'a> {
    fn fold(&mut self, store: &Store, chain: &ChainView<'a, '_>) {
        let (left, right) = (chain.left, chain.right);
        match (left.is_null(), right.is_null()) {
            (false, false) => {
                let verdict = self.verdicts.entry((left, right)).or_insert(Truth::False);
                raise(store, verdict, chain);
            }
            // A wildcard that lifts nothing new needs no coverage check.
            _ if self.wild_all => {}
            (true, true) => self.wild_all = !covered(store, chain),
            (true, false) => {
                if !self.wild_right.contains(right) && !covered(store, chain) {
                    self.wild_right.insert(right);
                }
            }
            (false, true) => {
                if !self.wild_left.contains(left) && !covered(store, chain) {
                    self.wild_left.insert(left);
                }
            }
        }
    }

    /// The verdict of a discovered pair once every chain has been seen.
    fn settled(&self, x: &Value, y: &Value, verdict: Truth) -> Truth {
        let lifted = self.wild_all || self.wild_left.contains(x) || self.wild_right.contains(y);
        if verdict == Truth::False && lifted {
            Truth::Ambiguous
        } else {
            verdict
        }
    }
}

/// Shared set-at-a-time core for extension / image / inverse-image: one
/// enumeration per derivation with the selected endpoint (if any) bound,
/// every completed chain folded into [`PairEvidence`], and the answer
/// read off it — the discovered pairs whose §3.2 truth is not `False`,
/// sorted by `(x, y)`.
///
/// What a run that did not see every chain may say:
///
/// * **complete** — pairs, order and truths identical to the
///   interpreter's;
/// * **hard stop** (steps, deadline, memory, cancel) — `Exhausted` with
///   only the pairs already proven `True`: that verdict is final, whereas
///   an `Ambiguous` or a missing wildcard could still be overturned by a
///   chain not yet seen;
/// * **`Cap`** is soft — the pairs discovered before the chain cap are
///   kept, and each whose verdict is not yet final is finished by its own
///   truth query (under its own cap): the one place a per-pair query
///   remains.
fn pairs_impl<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    xsel: Option<&Value>,
    ysel: Option<&Value>,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Vec<DerivedPair>> {
    // Only non-null pairs are listed, and binding a null by `Matches`
    // would match every row.
    if xsel.is_some_and(Value::is_null) || ysel.is_some_and(Value::is_null) {
        return Outcome::Complete(Vec::new());
    }
    let spec = QuerySpec {
        left: xsel.map_or(Bind::Unbound, Bind::Matches),
        right: ysel.map_or(Bind::Unbound, Bind::Matches),
        allow_ambiguous: true,
    };
    let mut evidence = PairEvidence::default();
    let mut stop: Option<StopReason> = None;
    for derivation in derivations {
        let (_, streamed, span) =
            stream_planned(store, derivation, &spec, limits, governor, |chain| {
                evidence.fold(store, chain);
                ControlFlow::Continue(())
            });
        span.annotate("pairs", evidence.verdicts.len());
        stop = streamed.reason();
        if stop.is_some() {
            break;
        }
    }
    let pair = |x: &Value, y: &Value, truth| DerivedPair {
        x: x.clone(),
        y: y.clone(),
        truth,
    };
    let Some(reason) = stop else {
        let pairs = evidence
            .verdicts
            .iter()
            .filter_map(|(&(x, y), &verdict)| {
                let truth = evidence.settled(x, y, verdict);
                (truth != Truth::False).then(|| pair(x, y, truth))
            })
            .collect();
        return Outcome::Complete(pairs);
    };
    let mut partial = Vec::new();
    let mut soft = reason == StopReason::Cap;
    for (&(x, y), &verdict) in &evidence.verdicts {
        let truth = match verdict {
            Truth::True => Truth::True,
            _ if !soft => continue,
            _ => {
                let finished = derived_truth_impl(store, derivations, x, y, limits, governor);
                if matches!(finished.reason(), Some(r) if r != StopReason::Cap) {
                    // The governor is spent: this lower bound is not a
                    // verdict, and every later finish would re-trip it.
                    soft = false;
                    continue;
                }
                finished.value()
            }
        };
        if truth != Truth::False {
            partial.push(pair(x, y, truth));
        }
    }
    Outcome::Exhausted { partial, reason }
}

/// The visible extension of a derived function, via the planner (see
/// [`fdb_storage::chain::derived_extension`] for semantics).
pub fn derived_extension(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    pairs_impl(store, derivations, None, None, limits, &Ungoverned).value()
}

/// [`derived_extension`] under a [`Governor`]: a stopped computation
/// reports a sound subset of the full extension.
pub fn derived_extension_governed(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    pairs_impl(store, derivations, None, None, limits, governor)
}

/// The image slice of the extension: pairs with `x` as the exact left
/// endpoint. Equivalent to filtering [`derived_extension`] on `x`, but
/// the planner seeds directly from the bound endpoint (typically via the
/// `by_x`/`by_y` index) instead of enumerating every chain.
pub fn derived_image(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    pairs_impl(store, derivations, Some(x), None, limits, &Ungoverned).value()
}

/// [`derived_image`] under a [`Governor`].
pub fn derived_image_governed(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    pairs_impl(store, derivations, Some(x), None, limits, governor)
}

/// The inverse-image slice of the extension: pairs with `y` as the exact
/// right endpoint.
pub fn derived_inverse_image(
    store: &Store,
    derivations: &[Derivation],
    y: &Value,
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    pairs_impl(store, derivations, None, Some(y), limits, &Ungoverned).value()
}

/// [`derived_inverse_image`] under a [`Governor`].
pub fn derived_inverse_image_governed(
    store: &Store,
    derivations: &[Derivation],
    y: &Value,
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    pairs_impl(store, derivations, None, Some(y), limits, governor)
}

/// Collects the chains a `derived-delete(f, x, y)` negates, deduplicated
/// across derivations. Execution is pinned [`Direction::Forward`] so NC
/// creation order — which is user-visible as NC ids in traces and
/// rendered NCLs — matches the interpreter exactly, even for capped
/// partial enumerations.
pub fn collect_delete_chains<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
    governor: &G,
) -> (Vec<Vec<Fact>>, Option<StopReason>) {
    let allow_ambiguous = policy == DeletePolicy::Strict;
    let spec = QuerySpec::truth(x, y, allow_ambiguous);
    let mut chains: Vec<Vec<Fact>> = Vec::new();
    let mut stop = None;
    for derivation in derivations {
        let outcome = chains_with_direction(
            store,
            derivation,
            &spec,
            limits,
            governor,
            Direction::Forward,
        );
        stop = stop.or(outcome.reason());
        for chain in outcome.value() {
            if !chains.contains(&chain.facts) {
                chains.push(chain.facts);
            }
        }
    }
    (chains, stop)
}

/// §4.1 `derived-delete` through the pipeline: negates every matching
/// chain under `policy`. A capped enumeration negates the chains found
/// so far (historic ungoverned behaviour). Returns the NC ids created.
pub fn derived_delete_with_policy(
    store: &mut Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
) -> Vec<NcId> {
    let (chains, _) = collect_delete_chains(store, derivations, x, y, policy, limits, &Ungoverned);
    chains
        .into_iter()
        .map(|facts| store.create_nc(facts))
        .collect()
}

/// [`derived_delete_with_policy`] under a [`Governor`] —
/// **all-or-nothing**: if the governor (or the chain cap) stops
/// enumeration the store is left untouched and the stop reason returned.
pub fn derived_delete_governed(
    store: &mut Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
    governor: &Governor,
) -> Result<Vec<NcId>, StopReason> {
    let (chains, stop) = collect_delete_chains(store, derivations, x, y, policy, limits, governor);
    if let Some(r) = stop {
        return Err(r);
    }
    Ok(chains
        .into_iter()
        .map(|facts| store.create_nc(facts))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_storage::chain as interp;
    use fdb_types::{FunctionId, Step};

    const TEACH: FunctionId = FunctionId(0);
    const CLASS_LIST: FunctionId = FunctionId(1);

    fn pupil() -> Derivation {
        Derivation::new(vec![Step::identity(TEACH), Step::identity(CLASS_LIST)]).unwrap()
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn paper_instance() -> Store {
        let mut s = Store::new(2);
        s.base_insert(TEACH, v("euclid"), v("math"));
        s.base_insert(TEACH, v("laplace"), v("math"));
        s.base_insert(TEACH, v("laplace"), v("physics"));
        s.base_insert(CLASS_LIST, v("math"), v("john"));
        s.base_insert(CLASS_LIST, v("math"), v("bill"));
        s
    }

    #[test]
    fn truth_matches_interpreter_on_paper_instance() {
        let mut s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        interp::derived_delete(&mut s, &d, &v("euclid"), &v("john"), limits);
        for (x, y) in [
            ("euclid", "john"),
            ("euclid", "bill"),
            ("laplace", "john"),
            ("laplace", "bill"),
            ("gauss", "john"),
        ] {
            assert_eq!(
                derived_truth(&s, &d, &v(x), &v(y), limits),
                interp::derived_truth(&s, &d, &v(x), &v(y), limits),
                "pair ({x}, {y})"
            );
        }
    }

    #[test]
    fn extension_matches_interpreter_after_delete() {
        let mut s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        interp::derived_delete(&mut s, &d, &v("euclid"), &v("john"), limits);
        assert_eq!(
            derived_extension(&s, &d, limits),
            interp::derived_extension(&s, &d, limits)
        );
    }

    #[test]
    fn image_equals_extension_filtered() {
        let s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        let by_filter: Vec<DerivedPair> = derived_extension(&s, &d, limits)
            .into_iter()
            .filter(|p| p.x == v("euclid"))
            .collect();
        assert_eq!(derived_image(&s, &d, &v("euclid"), limits), by_filter);
        let by_filter: Vec<DerivedPair> = derived_extension(&s, &d, limits)
            .into_iter()
            .filter(|p| p.y == v("john"))
            .collect();
        assert_eq!(derived_inverse_image(&s, &d, &v("john"), limits), by_filter);
    }

    /// The soft-`Cap` contract: the pass stops at the chain cap, the
    /// pairs it had discovered are finished by their own truth queries,
    /// and the outcome says `Cap`.
    #[test]
    fn capped_pass_finishes_discovered_pairs_exactly() {
        // x teaches 3 courses, each attended by s0, s1 and s2: 9 chains,
        // 3 per pair. Every chain to s0 is negated on its own; the three
        // to s1 are ambiguous members of one NC none of them covers.
        let mut s = Store::new(2);
        for m in 0..3 {
            s.base_insert(TEACH, v("x"), v(&format!("m{m}")));
            for p in 0..3 {
                s.base_insert(CLASS_LIST, v(&format!("m{m}")), v(&format!("s{p}")));
            }
        }
        let d = [pupil()];
        let attends = |m: usize, p: &str| Fact::new(CLASS_LIST, format!("m{m}"), p);
        for m in 0..3 {
            s.create_nc(vec![attends(m, "s0")]);
        }
        s.create_nc((0..3).map(|m| attends(m, "s1")).collect());
        let limits = ChainLimits { max_chains: 5 };
        let outcome = pairs_impl(&s, &d, Some(&v("x")), None, limits, &Ungoverned);
        assert_eq!(outcome.reason(), Some(StopReason::Cap));
        let pairs = outcome.value();
        for p in &pairs {
            assert_eq!(
                p.truth,
                interp::derived_truth(&s, &d, &p.x, &p.y, ChainLimits::default()),
                "pair ({}, {})",
                p.x,
                p.y
            );
        }
        let flags: Vec<String> = pairs
            .iter()
            .map(|p| format!("{} {}", p.y, p.truth.flag()))
            .collect();
        assert_eq!(flags, ["s1 A", "s2 T"]);
    }

    /// The hard-stop contract: whatever the step budget, a stopped run
    /// reports only pairs proven `True` — never an `Ambiguous` a later
    /// chain could overturn — and a run that completes reports the full
    /// answer.
    #[test]
    fn stopped_pass_reports_only_proven_pairs() {
        let mut s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        interp::derived_delete(&mut s, &d, &v("euclid"), &v("john"), limits);
        let full = interp::derived_extension(&s, &d, limits);
        assert!(full.iter().any(|p| p.truth == Truth::Ambiguous));
        let mut completed = false;
        for budget in 0..40 {
            let governor = Governor::with_max_steps(budget);
            let outcome = derived_extension_governed(&s, &d, limits, &governor);
            if outcome.is_complete() {
                completed = true;
                assert_eq!(outcome.value(), full, "budget {budget}");
            } else {
                assert_eq!(outcome.reason(), Some(StopReason::Steps));
                for p in outcome.value() {
                    assert_eq!(p.truth, Truth::True, "budget {budget}");
                    assert!(full.contains(&p), "budget {budget}");
                }
            }
        }
        assert!(completed);
    }

    /// Only non-null pairs are listed, so a null selector is answered
    /// without touching a table.
    #[test]
    fn null_selector_answers_empty_without_a_scan() {
        let mut s = paper_instance();
        let n1 = s.fresh_null();
        s.base_insert(TEACH, n1.clone(), v("math"));
        let governor = Governor::unbounded();
        let image = derived_image_governed(&s, &[pupil()], &n1, ChainLimits::default(), &governor);
        assert_eq!(image, Outcome::Complete(Vec::new()));
        assert_eq!(governor.steps(), 0);
    }

    #[test]
    fn all_directions_agree_on_truth_chains() {
        let mut s = paper_instance();
        let n1 = s.fresh_null();
        s.base_insert(TEACH, v("gauss"), n1.clone());
        s.base_insert(CLASS_LIST, n1, v("ada"));
        let d = pupil();
        let limits = ChainLimits::default();
        for (x, y) in [("laplace", "john"), ("gauss", "ada"), ("gauss", "john")] {
            let (vx, vy) = (v(x), v(y));
            let spec = QuerySpec::truth(&vx, &vy, true);
            let mut sets: Vec<Vec<_>> = [
                Direction::Forward,
                Direction::Backward,
                Direction::MeetInMiddle { split: 1 },
            ]
            .into_iter()
            .map(|dir| {
                let mut chains =
                    chains_with_direction(&s, &d, &spec, limits, &Ungoverned, dir).value();
                chains.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                chains
            })
            .collect();
            let reference = sets.pop().unwrap();
            for set in sets {
                assert_eq!(set, reference, "pair ({x}, {y})");
            }
            let mut interp_chains = interp::chains_deriving(&s, &d, &v(x), &v(y), true, limits);
            interp_chains.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            assert_eq!(interp_chains, reference, "interp vs planned ({x}, {y})");
        }
    }

    /// `Bind::Exact` is an index probe with no null tolerance: the chains
    /// of the same `Matches` query whose endpoint *is* the value.
    #[test]
    fn exact_bind_keeps_the_chains_ending_in_the_value() {
        let mut s = paper_instance();
        let n1 = s.fresh_null();
        s.base_insert(TEACH, n1.clone(), v("math"));
        s.base_insert(CLASS_LIST, v("math"), n1);
        let d = pupil();
        let limits = ChainLimits::default();
        let (x, y) = (v("euclid"), v("john"));
        for dir in [Direction::Forward, Direction::Backward] {
            let chains = |left, right| {
                let spec = QuerySpec {
                    left,
                    right,
                    allow_ambiguous: true,
                };
                let mut chains = chains_with_direction(&s, &d, &spec, limits, &Ungoverned, dir)
                    .value()
                    .into_iter()
                    .map(|c| c.facts)
                    .collect::<Vec<_>>();
                chains.sort_by_key(|facts| format!("{facts:?}"));
                chains
            };
            let mut from_x = chains(Bind::Matches(&x), Bind::Unbound);
            assert_eq!(from_x.len(), 6, "{dir:?}: 2 teachers of math x 3 attendees");
            from_x.retain(|facts| facts[0].x == x);
            assert_eq!(chains(Bind::Exact(&x), Bind::Unbound), from_x, "{dir:?}");
            let mut to_y = chains(Bind::Unbound, Bind::Matches(&y));
            assert_eq!(to_y.len(), 6, "{dir:?}: 3 teachers of math x 2 attendees");
            to_y.retain(|facts| facts[1].y == y);
            assert_eq!(chains(Bind::Unbound, Bind::Exact(&y)), to_y, "{dir:?}");
        }
    }

    #[test]
    fn forward_capped_prefix_matches_interpreter() {
        let mut s = Store::new(2);
        for i in 0..20 {
            s.base_insert(TEACH, v("x"), v(&format!("m{i}")));
            s.base_insert(CLASS_LIST, v(&format!("m{i}")), v("y"));
        }
        let d = pupil();
        let limits = ChainLimits { max_chains: 5 };
        let (vx, vy) = (v("x"), v("y"));
        let spec = QuerySpec::truth(&vx, &vy, true);
        let planned = chains_with_direction(&s, &d, &spec, limits, &Ungoverned, Direction::Forward);
        let reference = interp::chains_deriving(&s, &d, &v("x"), &v("y"), true, limits);
        assert_eq!(planned.reason(), Some(StopReason::Cap));
        assert_eq!(planned.value(), reference);
    }

    #[test]
    fn delete_through_pipeline_matches_interpreter_ncs() {
        let d = [pupil()];
        let limits = ChainLimits::default();
        let mut s1 = paper_instance();
        let mut s2 = paper_instance();
        let a = derived_delete_with_policy(
            &mut s1,
            &d,
            &v("euclid"),
            &v("john"),
            DeletePolicy::Faithful,
            limits,
        );
        let b = interp::derived_delete(&mut s2, &d, &v("euclid"), &v("john"), limits);
        assert_eq!(a, b);
        let encoded = |s: &Store| {
            let mut out = Vec::new();
            s.encode(&mut out);
            out
        };
        assert_eq!(encoded(&s1), encoded(&s2));
    }
}
