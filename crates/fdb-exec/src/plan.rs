//! The plan IR: query shapes, evaluation directions, and the cost model.
//!
//! A chain query constrains the two endpoints of a derivation and walks
//! the intermediate links. The recursive interpreter in
//! `fdb_storage::chain` always seeds from the *left* endpoint; the
//! planner instead compares three physical strategies per derivation and
//! per query shape:
//!
//! * **Forward** — seed from the left endpoint, walk steps left-to-right
//!   (the interpreter's order; chains are emitted in the same
//!   lexicographic order, which keeps capped prefixes identical).
//! * **Backward** — seed from the right endpoint through the `by_y`
//!   index, walk steps right-to-left. Chains come out as the same *set*.
//! * **Meet-in-the-middle** — for fully bound truth queries: walk both
//!   ends toward a split step and hash-join on the boundary value.
//!
//! Costs come from [`fdb_storage::TableStats`] (row counts, distinct and
//! null counts — estimates, see that type's caveats) plus O(1) index
//! width probes for the concrete bound values, which is what detects the
//! "hub endpoint queried toward a rare endpoint" skew that degenerates
//! the interpreter into a near-full scan.

use fdb_storage::Store;
use fdb_types::{Derivation, Op, Value};

/// How the executor walks the derivation's steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Seed from the left endpoint, walk steps first-to-last.
    Forward,
    /// Seed from the right endpoint, walk steps last-to-first.
    Backward,
    /// Walk both ends toward step `split` (the first step of the
    /// backward half) and join on the boundary value.
    MeetInMiddle {
        /// Number of steps executed by the forward half (`1..len`).
        split: usize,
    },
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Forward => write!(f, "forward"),
            Direction::Backward => write!(f, "backward"),
            Direction::MeetInMiddle { split } => write!(f, "meet-in-middle@{split}"),
        }
    }
}

/// How one endpoint of the queried pair is constrained.
#[derive(Clone, Copy, Debug)]
pub enum Bind<'a> {
    /// No constraint (extension-style enumeration).
    Unbound,
    /// The endpoint row value must equal this value exactly: a plain
    /// index probe, with no null tolerance.
    Exact(&'a Value),
    /// The endpoint must §3.2-match this value: nulls match ambiguously.
    /// Truth queries bind both endpoints this way, image and
    /// inverse-image queries the selected one — the chains whose endpoint
    /// is a null are evidence for the selected value's pairs too.
    Matches(&'a Value),
}

impl Bind<'_> {
    /// `true` unless the endpoint is [`Bind::Unbound`].
    pub fn is_bound(&self) -> bool {
        !matches!(self, Bind::Unbound)
    }

    pub(crate) fn value(&self) -> Option<&Value> {
        match self {
            Bind::Unbound => None,
            Bind::Exact(v) | Bind::Matches(v) => Some(v),
        }
    }
}

/// The shape of one chain query over one derivation.
#[derive(Clone, Copy, Debug)]
pub struct QuerySpec<'a> {
    /// Constraint on the left endpoint.
    pub left: Bind<'a>,
    /// Constraint on the right endpoint.
    pub right: Bind<'a>,
    /// Whether links (and `Matches` endpoints) may match ambiguously
    /// through nulls. `false` is the exact-only mode `derived-delete`
    /// uses under the faithful policy.
    pub allow_ambiguous: bool,
}

impl<'a> QuerySpec<'a> {
    /// A fully bound §3.2 truth query.
    pub fn truth(x: &'a Value, y: &'a Value, allow_ambiguous: bool) -> Self {
        QuerySpec {
            left: Bind::Matches(x),
            right: Bind::Matches(y),
            allow_ambiguous,
        }
    }

    /// An unbound extension enumeration.
    pub fn extension() -> Self {
        QuerySpec {
            left: Bind::Unbound,
            right: Bind::Unbound,
            allow_ambiguous: true,
        }
    }
}

/// A compiled plan for enumerating the chains of one derivation.
#[derive(Clone, Debug)]
pub struct ChainPlan {
    /// The chosen walk direction.
    pub direction: Direction,
    /// Estimated rows examined by the seed step of the chosen direction.
    pub est_seed_rows: f64,
    /// Estimated total rows examined (the cost that was minimised).
    pub est_cost: f64,
    /// Estimated chains emitted.
    pub est_chains: f64,
}

/// Per-step statistics, oriented by the step's operator — the abstract
/// input of the cost model.
///
/// [`plan`] derives these from a live [`Store`]; static analyzers (the
/// `fdb-check` cost pass) build them from script-derived estimates and
/// feed them to [`estimate`], sharing the exact same chooser without ever
/// touching a store.
#[derive(Clone, Copy, Debug)]
pub struct StepProfile {
    /// Estimated live rows of the step's table.
    pub rows: f64,
    /// Expected candidates per concrete incoming value, entering from the
    /// left (match side = the step's left value).
    pub fan_fwd: f64,
    /// Same entering from the right.
    pub fan_bwd: f64,
    /// Estimated rows matching the query's bound left endpoint, plus
    /// ambiguous null candidates (`None` when the endpoint is unbound).
    pub seed_left: Option<f64>,
    /// Same for the bound right endpoint.
    pub seed_right: Option<f64>,
}

/// Compiles a plan for `derivation` under `spec`.
pub fn plan(store: &Store, derivation: &Derivation, spec: &QuerySpec<'_>) -> ChainPlan {
    let stats = profiles(store, derivation, spec);
    let best = estimate(&stats);
    let reg = fdb_obs::registry();
    reg.plan_compiled.inc();
    match best.direction {
        Direction::Forward => reg.plan_forward.inc(),
        Direction::Backward => reg.plan_backward.inc(),
        Direction::MeetInMiddle { .. } => reg.plan_meet_in_middle.inc(),
    }
    best
}

/// Derives the per-step [`StepProfile`]s [`plan`] feeds to [`estimate`],
/// without choosing a direction (and without bumping any planner
/// counters). Callers that want to adjust the profiles — e.g. clamping
/// fanouts under a non-genuine functionality assumption — run this, edit
/// the result, and pass it to [`estimate`] themselves.
pub fn profiles(store: &Store, derivation: &Derivation, spec: &QuerySpec<'_>) -> Vec<StepProfile> {
    let amb = spec.allow_ambiguous;
    derivation
        .steps()
        .iter()
        .map(|step| {
            let inverted = step.op == Op::Inverse;
            let t = store.table(step.function);
            let s = t.stats();
            let rows = s.rows as f64;
            let (dl, dr, nl, nr) = if inverted {
                (s.distinct_y, s.distinct_x, s.null_y, s.null_x)
            } else {
                (s.distinct_x, s.distinct_y, s.null_x, s.null_y)
            };
            let fan = |distinct: usize, nulls: usize| {
                let exact = if distinct == 0 {
                    0.0
                } else {
                    rows / distinct as f64
                };
                exact + if amb { nulls as f64 } else { 0.0 }
            };
            let seed_width = |bind: &Bind<'_>, left_side: bool| {
                bind.value().map(|v| {
                    if amb && v.is_null() {
                        return rows;
                    }
                    let width = match (left_side, inverted) {
                        (true, false) | (false, true) => t.x_width(v),
                        (true, true) | (false, false) => t.y_width(v),
                    } as f64;
                    width
                        + if amb {
                            (if left_side { nl } else { nr }) as f64
                        } else {
                            0.0
                        }
                })
            };
            StepProfile {
                rows,
                fan_fwd: fan(dl, nl),
                fan_bwd: fan(dr, nr),
                seed_left: seed_width(&spec.left, true),
                seed_right: seed_width(&spec.right, false),
            }
        })
        .collect()
}

/// Chooses the cheapest direction for a chain described only by abstract
/// per-step statistics — the pure cost model behind [`plan`], usable
/// without a [`Store`] (and without bumping the planner counters: nothing
/// is compiled for execution here).
///
/// Endpoint bound-ness is implied by the seeds: a step-0 `seed_left`
/// means the left endpoint is bound, a step-`k-1` `seed_right` means the
/// right endpoint is bound.
///
/// # Panics
/// Panics on an empty profile slice (derivations are non-empty).
pub fn estimate(stats: &[StepProfile]) -> ChainPlan {
    let k = stats.len();
    assert!(k > 0, "a chain has at least one step");
    let left_bound = stats[0].seed_left.is_some();
    let right_bound = stats[k - 1].seed_right.is_some();

    // Forward: seed at step 0 from the left bind (whole table if
    // unbound), then multiply interior forward fanouts.
    let fwd_seed = stats[0].seed_left.unwrap_or(stats[0].rows);
    let mut width = fwd_seed;
    let mut fwd_cost = width;
    for s in &stats[1..] {
        width *= s.fan_fwd;
        fwd_cost += width;
    }
    let mut fwd_chains = width;
    if right_bound {
        let last = &stats[k - 1];
        fwd_chains = if last.fan_bwd > 0.0 {
            width * (last.fan_bwd / last.rows.max(1.0)).min(1.0)
        } else {
            0.0
        };
    }

    // Backward: seed at step k-1 from the right bind.
    let bwd_seed = stats[k - 1].seed_right.unwrap_or(stats[k - 1].rows);
    let mut width = bwd_seed;
    let mut bwd_cost = width;
    for s in stats[..k - 1].iter().rev() {
        width *= s.fan_bwd;
        bwd_cost += width;
    }

    let mut best = ChainPlan {
        direction: Direction::Forward,
        est_seed_rows: fwd_seed,
        est_cost: fwd_cost,
        est_chains: fwd_chains,
    };
    if bwd_cost < best.est_cost {
        best = ChainPlan {
            direction: Direction::Backward,
            est_seed_rows: bwd_seed,
            est_cost: bwd_cost,
            est_chains: fwd_chains.min(width),
        };
    }

    // Meet-in-the-middle: only for fully bound queries over ≥ 2 steps.
    if k >= 2 && left_bound && right_bound {
        for split in 1..k {
            let mut wf = fwd_seed;
            let mut cf = wf;
            for s in &stats[1..split] {
                wf *= s.fan_fwd;
                cf += wf;
            }
            let mut wb = bwd_seed;
            let mut cb = wb;
            for s in stats[split..k - 1].iter().rev() {
                wb *= s.fan_bwd;
                cb += wb;
            }
            // Join probes: each forward partial probes the hash of the
            // backward partials (plus the ambiguous null bucket).
            let cost = cf + cb + wf + wb;
            if cost < best.est_cost {
                best = ChainPlan {
                    direction: Direction::MeetInMiddle { split },
                    est_seed_rows: fwd_seed.min(bwd_seed),
                    est_cost: cost,
                    est_chains: best.est_chains.min(wf.min(wb)),
                };
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{FunctionId, Step};

    const F0: FunctionId = FunctionId(0);
    const F1: FunctionId = FunctionId(1);

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    /// Hub-to-rare skew: `hub` fans out to `n` middles in f0's range
    /// while the queried right endpoint has a single f1 row.
    fn skewed(n: usize) -> Store {
        let mut s = Store::new(2);
        for i in 0..n {
            s.base_insert(F0, v(&format!("m{i}")), v("hub"));
            s.base_insert(F1, v(&format!("t{i}")), v(&format!("m{i}")));
        }
        s
    }

    #[test]
    fn bound_right_endpoint_of_inverse_heavy_derivation_plans_backward() {
        let s = skewed(100);
        // top = f0⁻¹ o f1⁻¹ : hub-side → t-side.
        let d = Derivation::new(vec![Step::inverse(F0), Step::inverse(F1)]).unwrap();
        let p = plan(&s, &d, &QuerySpec::truth(&v("hub"), &v("t0"), true));
        assert_eq!(p.direction, Direction::Backward);
        assert!(p.est_seed_rows <= 1.0 + f64::EPSILON);
    }

    #[test]
    fn selective_left_endpoint_plans_forward() {
        let mut s = Store::new(2);
        for i in 0..50 {
            s.base_insert(F0, v("a"), v(&format!("b{i}")));
            s.base_insert(F1, v(&format!("b{i}")), v("c"));
        }
        s.base_insert(F0, v("solo"), v("b0"));
        let d = Derivation::new(vec![Step::identity(F0), Step::identity(F1)]).unwrap();
        // solo → c: the left seed is width 1, the right seed width 50.
        let p = plan(&s, &d, &QuerySpec::truth(&v("solo"), &v("c"), true));
        assert_eq!(p.direction, Direction::Forward);
    }

    #[test]
    fn extension_of_inverse_step_still_plans() {
        let s = skewed(10);
        let d = Derivation::new(vec![Step::inverse(F0), Step::inverse(F1)]).unwrap();
        let p = plan(&s, &d, &QuerySpec::extension());
        assert!(p.est_cost > 0.0);
    }

    #[test]
    fn estimate_works_without_a_store() {
        // A narrow left seed against a hub-wide right seed: the shared
        // chooser must pick forward, exactly as `plan` would.
        let profiles = vec![
            StepProfile {
                rows: 100.0,
                fan_fwd: 1.0,
                fan_bwd: 50.0,
                seed_left: Some(1.0),
                seed_right: None,
            },
            StepProfile {
                rows: 100.0,
                fan_fwd: 1.0,
                fan_bwd: 50.0,
                seed_left: None,
                seed_right: Some(50.0),
            },
        ];
        let p = estimate(&profiles);
        assert_eq!(p.direction, Direction::Forward);
        assert!(p.est_cost <= 2.0 + f64::EPSILON);

        // Unbound endpoints estimate a full enumeration.
        let unbound = vec![
            StepProfile {
                rows: 10.0,
                fan_fwd: 10.0,
                fan_bwd: 10.0,
                seed_left: None,
                seed_right: None,
            },
            StepProfile {
                rows: 10.0,
                fan_fwd: 10.0,
                fan_bwd: 10.0,
                seed_left: None,
                seed_right: None,
            },
        ];
        let p = estimate(&unbound);
        assert!(p.est_chains >= 100.0 - f64::EPSILON, "got {}", p.est_chains);
    }
}
