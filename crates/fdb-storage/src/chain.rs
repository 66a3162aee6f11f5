//! Chains of base facts and the §3.2 truth semantics of derived facts.
//!
//! "A derived fact can be obtained by composing a chain of base facts if
//! adjacent pairs of facts in the chain match. […] A derived fact is true
//! if it is obtained from a chain of true base facts which matches
//! exactly. It is ambiguous if it can be obtained from a chain of base
//! facts which is not a superset of a NC and each chain of base facts
//! from which it can be obtained either does not match exactly or
//! contains at least one ambiguous fact. A derived fact is false if it is
//! neither true nor ambiguous."
//!
//! A chain for the derivation `f = u₁f₁ o … o u_k f_k` is a sequence of
//! rows, one from each step's table, oriented by the step's operator (an
//! inverse step reads its table right-to-left). Matching of adjacent
//! links — and of the chain's endpoints against the queried pair — uses
//! [`fdb_types::MatchKind`]: exact, ambiguous (through null values), or
//! none.
//!
//! `derived-delete` also lives here: it converts every *exactly* matching
//! chain that derives the deleted pair into an NC. (Chains that only
//! match ambiguously assert nothing exact about the pair; negating them
//! would falsify base facts the update does not speak about, which is
//! precisely the side-effect behaviour the paper rejects.)

use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
use fdb_types::{Derivation, MatchKind, Op, Step, Value};

use crate::fact::Fact;
use crate::store::Store;
use crate::truth::Truth;

/// Caps on chain enumeration (ambiguous matching through nulls can fan
/// out combinatorially).
#[derive(Clone, Copy, Debug)]
pub struct ChainLimits {
    /// Maximum number of chains collected per query.
    pub max_chains: usize,
}

impl Default for ChainLimits {
    fn default() -> Self {
        ChainLimits { max_chains: 10_000 }
    }
}

/// One chain of base facts deriving some pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// The facts, in derivation-step order.
    pub facts: Vec<Fact>,
    /// Combined match quality of all links and both endpoints.
    pub matching: MatchKind,
    /// Three-valued conjunction of the member facts' truth flags.
    pub flags: Truth,
}

impl Chain {
    /// `true` if this chain proves its derived fact true: exact matching
    /// and all members true.
    pub fn proves_true(&self) -> bool {
        self.matching == MatchKind::Exact && self.flags == Truth::True
    }
}

/// A pair in the computed extension of a derived function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivedPair {
    /// Domain value.
    pub x: Value,
    /// Range value.
    pub y: Value,
    /// Truth of the derived fact `(x, y)`.
    pub truth: Truth,
}

/// How a derivation step reads its table.
#[derive(Clone, Copy, Debug)]
struct StepView {
    function: fdb_types::FunctionId,
    inverted: bool,
}

impl StepView {
    fn of(step: &Step) -> Self {
        StepView {
            function: step.function,
            inverted: step.op == Op::Inverse,
        }
    }

    /// The link's left value (the side matched against the incoming value).
    fn left<'v>(&self, x: &'v Value, y: &'v Value) -> &'v Value {
        if self.inverted {
            y
        } else {
            x
        }
    }

    /// The link's right value (carried to the next step).
    fn right<'v>(&self, x: &'v Value, y: &'v Value) -> &'v Value {
        if self.inverted {
            x
        } else {
            y
        }
    }
}

/// Enumerates chains of stored facts for `derivation` whose left endpoint
/// matches `x` and right endpoint matches `y`.
///
/// With `allow_ambiguous` every link (and endpoint) may match ambiguously
/// through nulls; otherwise only exact matches are followed — the mode
/// `derived-delete` uses.
pub fn chains_deriving(
    store: &Store,
    derivation: &Derivation,
    x: &Value,
    y: &Value,
    allow_ambiguous: bool,
    limits: ChainLimits,
) -> Vec<Chain> {
    chains_deriving_impl(
        store,
        derivation,
        x,
        y,
        allow_ambiguous,
        limits,
        &Ungoverned,
    )
    .value()
}

/// [`chains_deriving`] under a governor: enumeration stops on
/// deadline, step budget, cancellation, or the `max_chains` cap
/// (the cap is reported only when one more chain provably exists), and
/// the chains found so far come back as a sound prefix.
fn chains_deriving_impl<G: Governance>(
    store: &Store,
    derivation: &Derivation,
    x: &Value,
    y: &Value,
    allow_ambiguous: bool,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Vec<Chain>> {
    let views: Vec<StepView> = derivation.steps().iter().map(StepView::of).collect();
    let mut out = Vec::new();
    let mut facts = Vec::with_capacity(views.len());
    let stop = search(
        store,
        &views,
        0,
        x,
        y,
        MatchKind::Exact,
        Truth::True,
        allow_ambiguous,
        limits,
        governor,
        &mut facts,
        &mut out,
    )
    .err();
    Outcome::new(out, stop)
}

#[allow(clippy::too_many_arguments)]
fn search<G: Governance>(
    store: &Store,
    views: &[StepView],
    depth: usize,
    incoming: &Value,
    goal_y: &Value,
    matching: MatchKind,
    flags: Truth,
    allow_ambiguous: bool,
    limits: ChainLimits,
    governor: &G,
    facts: &mut Vec<Fact>,
    out: &mut Vec<Chain>,
) -> Result<(), StopReason> {
    let view = views[depth];
    let table = store.table(view.function);
    // Candidate rows whose left side matches `incoming`.
    let mut candidates: Vec<usize> = if view.inverted {
        table.rows_with_y(incoming).collect()
    } else {
        table.rows_with_x(incoming).collect()
    };
    if allow_ambiguous {
        if incoming.is_null() {
            // A null matches everything at least ambiguously.
            candidates = table.live_indices().collect();
        } else if view.inverted {
            candidates.extend(table.rows_with_null_y());
        } else {
            candidates.extend(table.rows_with_null_x());
        }
    }
    for i in candidates {
        governor.tick()?;
        let Some(row) = table.row(i) else { continue };
        let left = view.left(row.x, row.y);
        let right = view.right(row.x, row.y);
        let link = incoming.matches(left);
        if link == MatchKind::None {
            continue;
        }
        let m = matching.and(link);
        if !allow_ambiguous && m != MatchKind::Exact {
            continue;
        }
        let fl = flags.and(row.truth);
        facts.push(Fact {
            function: view.function,
            x: row.x.clone(),
            y: row.y.clone(),
        });
        let res = if depth + 1 == views.len() {
            let endpoint = right.matches(goal_y);
            let m_final = m.and(endpoint);
            if m_final != MatchKind::None && (allow_ambiguous || m_final == MatchKind::Exact) {
                if out.len() >= limits.max_chains {
                    // Exact cap detection: one more chain provably exists.
                    Err(StopReason::Cap)
                } else {
                    out.push(Chain {
                        facts: facts.clone(),
                        matching: m_final,
                        flags: fl,
                    });
                    Ok(())
                }
            } else {
                Ok(())
            }
        } else {
            search(
                store,
                views,
                depth + 1,
                right,
                goal_y,
                m,
                fl,
                allow_ambiguous,
                limits,
                governor,
                facts,
                out,
            )
        };
        facts.pop();
        res?;
    }
    Ok(())
}

/// §3.2 truth of the derived fact `(x, y)` under a set of derivations
/// (cyclic function graphs can give a derived function several
/// derivations; evidence is combined with three-valued OR).
pub fn derived_truth(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
) -> Truth {
    derived_truth_impl(store, derivations, x, y, limits, &Ungoverned).value()
}

/// [`derived_truth`] under a [`Governor`]. A stopped evaluation reports
/// the truth established so far, which is a sound *lower bound* in the
/// `False < Ambiguous < True` order (more chains can only raise it); a
/// proof of `True` is final, so that answer is always `Complete`.
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

pub(crate) fn derived_truth_impl<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Truth> {
    let mut best = Truth::False;
    let mut stop: Option<StopReason> = None;
    for derivation in derivations {
        let outcome = chains_deriving_impl(store, derivation, x, y, true, limits, governor);
        let reason = outcome.reason();
        for chain in outcome.value() {
            if chain.proves_true() {
                // Top of the truth lattice: no further chain can change
                // the answer, so it is complete even after a stop.
                return Outcome::Complete(Truth::True);
            }
            // The reference scan of every live NC; evaluation counts the
            // chain's NCLs instead (`Store::nc_coverage`).
            if !store.ncs().chain_covers_some_nc(&chain.facts) {
                best = Truth::Ambiguous;
            }
        }
        if let Some(r) = reason {
            stop = Some(r);
            break;
        }
    }
    Outcome::new(best, stop)
}

/// Computes the visible extension of a derived function: every pair of
/// *non-null* endpoint values derivable through some chain, with its
/// §3.2 truth value. Pairs whose truth is [`Truth::False`] (all their
/// chains are negated) are omitted — they are not in the extension.
///
/// The result is sorted by (x, y) for deterministic display.
pub fn derived_extension(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    derived_extension_impl(store, derivations, limits, &Ungoverned).value()
}

/// [`derived_extension`] under a [`Governor`]. A stopped computation
/// reports the pairs whose membership was established before the stop —
/// a sound subset of the full extension (every reported pair really is
/// in it; each reported truth is a lower bound).
pub fn derived_extension_governed(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    derived_extension_impl(store, derivations, limits, governor)
}

pub(crate) fn derived_extension_impl<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Vec<DerivedPair>> {
    let mut stop: Option<StopReason> = None;
    let mut pairs: Vec<(Value, Value)> = Vec::new();
    for derivation in derivations {
        let outcome = all_chains(store, derivation, limits, governor);
        let reason = outcome.reason();
        for chain in outcome.value() {
            let first = &chain.facts[0];
            let last = &chain.facts[chain.facts.len() - 1];
            let sv_first = StepView::of(&derivation.steps()[0]);
            let sv_last = StepView::of(&derivation.steps()[derivation.len() - 1]);
            let x = sv_first.left(&first.x, &first.y).clone();
            let y = sv_last.right(&last.x, &last.y).clone();
            if !x.is_null() && !y.is_null() {
                pairs.push((x, y));
            }
        }
        if let Some(r) = reason {
            stop = Some(r);
            break;
        }
    }
    pairs.sort();
    pairs.dedup();
    let mut out = Vec::new();
    for (x, y) in pairs {
        if stop.is_some() && !matches!(stop, Some(StopReason::Cap)) {
            // Hard stop: don't start further truth evaluations (each one
            // would just re-trip the same exhausted governor).
            break;
        }
        let truth_outcome = derived_truth_impl(store, derivations, &x, &y, limits, governor);
        stop = stop.or(truth_outcome.reason());
        let truth = truth_outcome.value();
        if truth != Truth::False {
            out.push(DerivedPair { x, y, truth });
        }
    }
    Outcome::new(out, stop)
}

/// Enumerates every chain of the derivation regardless of endpoints
/// (links matching at least ambiguously).
fn all_chains<G: Governance>(
    store: &Store,
    derivation: &Derivation,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Vec<Chain>> {
    let views: Vec<StepView> = derivation.steps().iter().map(StepView::of).collect();
    let first = views[0];
    let table = store.table(first.function);
    let mut out = Vec::new();
    let mut facts = Vec::with_capacity(views.len());
    let mut stop: Option<StopReason> = None;
    // live_indices() borrows the table only immutably, so iterate it
    // directly instead of collecting it into a fresh Vec per call.
    for i in table.live_indices() {
        if let Err(r) = governor.tick() {
            stop = Some(r);
            break;
        }
        let Some(row) = table.row(i) else { continue };
        let right = first.right(row.x, row.y);
        facts.push(Fact {
            function: first.function,
            x: row.x.clone(),
            y: row.y.clone(),
        });
        let res = if views.len() == 1 {
            push_chain(
                Chain {
                    facts: facts.clone(),
                    matching: MatchKind::Exact,
                    flags: row.truth,
                },
                limits,
                &mut out,
            )
        } else {
            search_open(
                store,
                &views,
                1,
                right,
                MatchKind::Exact,
                row.truth,
                limits,
                governor,
                &mut facts,
                &mut out,
            )
        };
        facts.pop();
        if let Err(r) = res {
            stop = Some(r);
            break;
        }
    }
    Outcome::new(out, stop)
}

/// Appends a completed chain, enforcing the cap (exact detection).
fn push_chain(chain: Chain, limits: ChainLimits, out: &mut Vec<Chain>) -> Result<(), StopReason> {
    if out.len() >= limits.max_chains {
        return Err(StopReason::Cap);
    }
    out.push(chain);
    Ok(())
}

/// Like [`search`], but with no goal endpoint: collects all full-length
/// chains (used for extension computation).
#[allow(clippy::too_many_arguments)]
fn search_open<G: Governance>(
    store: &Store,
    views: &[StepView],
    depth: usize,
    incoming: &Value,
    matching: MatchKind,
    flags: Truth,
    limits: ChainLimits,
    governor: &G,
    facts: &mut Vec<Fact>,
    out: &mut Vec<Chain>,
) -> Result<(), StopReason> {
    let view = views[depth];
    let table = store.table(view.function);
    let mut candidates: Vec<usize> = if view.inverted {
        table.rows_with_y(incoming).collect()
    } else {
        table.rows_with_x(incoming).collect()
    };
    if incoming.is_null() {
        candidates = table.live_indices().collect();
    } else if view.inverted {
        candidates.extend(table.rows_with_null_y());
    } else {
        candidates.extend(table.rows_with_null_x());
    }
    for i in candidates {
        governor.tick()?;
        let Some(row) = table.row(i) else { continue };
        let left = view.left(row.x, row.y);
        let link = incoming.matches(left);
        if link == MatchKind::None {
            continue;
        }
        let m = matching.and(link);
        let fl = flags.and(row.truth);
        let right = view.right(row.x, row.y);
        facts.push(Fact {
            function: view.function,
            x: row.x.clone(),
            y: row.y.clone(),
        });
        let res = if depth + 1 == views.len() {
            push_chain(
                Chain {
                    facts: facts.clone(),
                    matching: m,
                    flags: fl,
                },
                limits,
                out,
            )
        } else {
            search_open(
                store,
                views,
                depth + 1,
                right,
                m,
                fl,
                limits,
                governor,
                facts,
                out,
            )
        };
        facts.pop();
        res?;
    }
    Ok(())
}

/// Which chains a derived delete negates — an ablation knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeletePolicy {
    /// The paper's procedure: negate every *exactly* matching chain.
    /// Chains that only match ambiguously (through mismatched nulls)
    /// assert nothing exact about the deleted pair, and negating them
    /// would falsify facts the update does not speak about — so they are
    /// left alone, and the deleted fact may remain *ambiguous* when such
    /// chains exist.
    #[default]
    Faithful,
    /// Additionally negate ambiguously matching chains, guaranteeing the
    /// deleted fact evaluates to `False` afterwards — at the cost of
    /// asserting more than the update logically implies. Provided for the
    /// ablation benchmark; not the paper's semantics.
    Strict,
}

/// §4.1 `derived-delete(f, x, y)`: "for each path p of (f, x, y) do
/// create-NC(p)" — every exactly matching chain becomes a negated
/// conjunction (see [`DeletePolicy`] for the ambiguous-chain knob).
/// Returns the ids of the NCs created.
pub fn derived_delete(
    store: &mut Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
) -> Vec<crate::nc::NcId> {
    derived_delete_with_policy(store, derivations, x, y, DeletePolicy::Faithful, limits)
}

/// [`derived_delete`] with an explicit [`DeletePolicy`].
pub fn derived_delete_with_policy(
    store: &mut Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
) -> Vec<crate::nc::NcId> {
    // A capped enumeration negates the chains found so far.
    collect_delete_chains(store, derivations, x, y, policy, limits)
        .into_iter()
        .map(|facts| store.create_nc(facts))
        .collect()
}

fn collect_delete_chains(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
) -> Vec<Vec<Fact>> {
    let allow_ambiguous = policy == DeletePolicy::Strict;
    let mut chains: Vec<Vec<Fact>> = Vec::new();
    for derivation in derivations {
        let outcome = chains_deriving_impl(
            store,
            derivation,
            x,
            y,
            allow_ambiguous,
            limits,
            &Ungoverned,
        );
        for chain in outcome.value() {
            if !chains.contains(&chain.facts) {
                chains.push(chain.facts);
            }
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{FunctionId, Step};

    const TEACH: FunctionId = FunctionId(0);
    const CLASS_LIST: FunctionId = FunctionId(1);

    fn pupil_derivation() -> Derivation {
        Derivation::new(vec![Step::identity(TEACH), Step::identity(CLASS_LIST)]).unwrap()
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    /// The §3 instance: teach = {euclid→math, laplace→math, laplace→physics},
    /// class_list = {math→john, math→bill}.
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
    fn exact_chain_of_true_facts_is_true() {
        let s = paper_instance();
        let d = [pupil_derivation()];
        assert_eq!(
            derived_truth(&s, &d, &v("euclid"), &v("john"), ChainLimits::default()),
            Truth::True
        );
        assert_eq!(
            derived_truth(&s, &d, &v("laplace"), &v("bill"), ChainLimits::default()),
            Truth::False.or(Truth::True)
        );
    }

    #[test]
    fn absent_pair_is_false() {
        let s = paper_instance();
        let d = [pupil_derivation()];
        assert_eq!(
            derived_truth(&s, &d, &v("gauss"), &v("john"), ChainLimits::default()),
            Truth::False
        );
        assert_eq!(
            derived_truth(&s, &d, &v("euclid"), &v("nobody"), ChainLimits::default()),
            Truth::False
        );
    }

    #[test]
    fn derived_delete_negates_the_single_chain() {
        // u1 of the §4.2 trace: DEL(pupil, <euclid, john>).
        let mut s = paper_instance();
        let d = [pupil_derivation()];
        let ncs = derived_delete(&mut s, &d, &v("euclid"), &v("john"), ChainLimits::default());
        assert_eq!(ncs.len(), 1);
        let conj = s.ncs().get(ncs[0]).unwrap();
        assert_eq!(conj.len(), 2);
        // The deleted pair is now false…
        assert_eq!(
            derived_truth(&s, &d, &v("euclid"), &v("john"), ChainLimits::default()),
            Truth::False
        );
        // …its chain-mates became ambiguous (no side-effect deletion)…
        assert_eq!(
            derived_truth(&s, &d, &v("euclid"), &v("bill"), ChainLimits::default()),
            Truth::Ambiguous
        );
        assert_eq!(
            derived_truth(&s, &d, &v("laplace"), &v("john"), ChainLimits::default()),
            Truth::Ambiguous
        );
        // …and the untouched pair stays true.
        assert_eq!(
            derived_truth(&s, &d, &v("laplace"), &v("bill"), ChainLimits::default()),
            Truth::True
        );
    }

    #[test]
    fn extension_reproduces_pupil_after_u1() {
        let mut s = paper_instance();
        let d = [pupil_derivation()];
        derived_delete(&mut s, &d, &v("euclid"), &v("john"), ChainLimits::default());
        let ext = derived_extension(&s, &d, ChainLimits::default());
        let rendered: Vec<String> = ext
            .iter()
            .map(|p| format!("{} {} {}", p.x, p.y, p.truth.flag()))
            .collect();
        assert_eq!(
            rendered,
            vec!["euclid bill A", "laplace bill T", "laplace john A",]
        );
    }

    #[test]
    fn null_links_match_exactly_only_with_same_index() {
        // NVC-style chain through n1 is exact; through mismatched nulls is
        // ambiguous.
        let mut s = Store::new(2);
        let n1 = s.fresh_null();
        let n2 = s.fresh_null();
        s.base_insert(TEACH, v("gauss"), n1.clone());
        s.base_insert(CLASS_LIST, n1.clone(), v("bill"));
        s.base_insert(CLASS_LIST, n2.clone(), v("john"));
        let d = [pupil_derivation()];
        assert_eq!(
            derived_truth(&s, &d, &v("gauss"), &v("bill"), ChainLimits::default()),
            Truth::True
        );
        assert_eq!(
            derived_truth(&s, &d, &v("gauss"), &v("john"), ChainLimits::default()),
            Truth::Ambiguous
        );
    }

    #[test]
    fn inverse_steps_read_tables_backwards() {
        // taught_by = teach⁻¹.
        let mut s = Store::new(1);
        s.base_insert(TEACH, v("euclid"), v("math"));
        let d = [Derivation::single(Step::inverse(TEACH))];
        assert_eq!(
            derived_truth(&s, &d, &v("math"), &v("euclid"), ChainLimits::default()),
            Truth::True
        );
        assert_eq!(
            derived_truth(&s, &d, &v("euclid"), &v("math"), ChainLimits::default()),
            Truth::False
        );
        let ext = derived_extension(&s, &d, ChainLimits::default());
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].x, v("math"));
        assert_eq!(ext[0].y, v("euclid"));
    }

    #[test]
    fn ambiguous_fact_makes_chain_ambiguous_even_if_exact() {
        let mut s = paper_instance();
        let d = [pupil_derivation()];
        // NC over a different derived fact's chain shares <teach,euclid,math>.
        derived_delete(&mut s, &d, &v("euclid"), &v("john"), ChainLimits::default());
        // euclid-bill's chain matches exactly but contains the ambiguous
        // <teach,euclid,math>: not true, not NC-covered → ambiguous.
        let chains = chains_deriving(
            &s,
            &pupil_derivation(),
            &v("euclid"),
            &v("bill"),
            true,
            ChainLimits::default(),
        );
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].matching, MatchKind::Exact);
        assert_eq!(chains[0].flags, Truth::Ambiguous);
    }

    #[test]
    fn chain_limit_caps_enumeration() {
        let mut s = Store::new(2);
        for i in 0..20 {
            s.base_insert(TEACH, v("x"), v(&format!("m{i}")));
            s.base_insert(CLASS_LIST, v(&format!("m{i}")), v("y"));
        }
        let chains = chains_deriving(
            &s,
            &pupil_derivation(),
            &v("x"),
            &v("y"),
            true,
            ChainLimits { max_chains: 5 },
        );
        assert_eq!(chains.len(), 5);
    }

    #[test]
    fn multiple_derivations_combine_with_or() {
        // Derivation A yields ambiguous evidence, derivation B yields true:
        // the fact is true.
        let mut s = Store::new(3);
        let other = FunctionId(2);
        let n1 = s.fresh_null();
        s.base_insert(TEACH, v("gauss"), n1.clone());
        s.base_insert(CLASS_LIST, v("math"), v("john")); // mismatched link → ambiguous
        s.base_insert(other, v("gauss"), v("john"));
        let d = [
            pupil_derivation(),
            Derivation::single(Step::identity(other)),
        ];
        assert_eq!(
            derived_truth(&s, &d, &v("gauss"), &v("john"), ChainLimits::default()),
            Truth::True
        );
    }
}
