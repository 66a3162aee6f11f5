//! The streaming chain executor.
//!
//! Replaces the one-row-at-a-time recursion of `fdb_storage::chain` with
//! frontier execution over *binding sets*: one level of nodes per
//! derivation step, each node recording the index of the row it consumed,
//! the value it carries to the next step, the endpoint its partial chain
//! started from, and the accumulated match quality and truth flags. Nodes
//! *borrow* their values from the store, candidate rows are walked
//! straight off the table's index and null buckets, and a node's prefix is
//! shared by all of its extensions through parent pointers — so examining
//! a row clones nothing and allocates nothing beyond the node itself.
//!
//! A completed chain is handed to a **sink** as a `ChainView`: its two
//! endpoints, match quality and flags, and its member rows as
//! `(function, row index)` handles read up the parent pointers
//! (`ChainView::rows`). A row's facts and NCL are looked up by its index
//! only when a sink asks: NC coverage reads the NCLs
//! ([`fdb_storage::Store::nc_coverage`]), and the member facts are cloned
//! only by `ChainView::facts`. There are two sinks:
//!
//! * the *streaming* sink — a closure that folds each chain into its own
//!   evidence and may end the run early (`stream_planned`; truth and
//!   pair evaluation in [`crate::eval`]);
//! * the *materialising* sink — collects owned [`Chain`]s
//!   ([`chains_with_direction`] / [`chains_planned`]; derived delete and
//!   `EXPLAIN`, which need every fact of every chain).
//!
//! Semantics are the interpreter's, preserved exactly:
//!
//! * every candidate row examined costs one `Governance::tick`;
//! * the `ChainLimits` cap is *exact*: `StopReason::Cap` is reported only
//!   when one more chain provably exists beyond `max_chains`;
//! * a governed stop leaves the sink holding the chains completed so far
//!   — a sound prefix, so truth answers derived from them remain lower
//!   bounds on the `False < Ambiguous < True` lattice;
//! * in [`Direction::Forward`] chains are emitted in the interpreter's
//!   lexicographic order, so even *capped* prefixes are identical.
//!
//! [`Direction::Backward`] and [`Direction::MeetInMiddle`] emit the same
//! chain *set* (links are symmetric — [`fdb_types::Value::matches`] is a
//! symmetric relation and `MatchKind::and` is commutative), in a
//! different order.

use std::collections::HashMap;
use std::ops::ControlFlow;

use fdb_governor::{Governance, Outcome, StopReason};
use fdb_obs::causal::CausalSpan;
use fdb_storage::{Chain, ChainLimits, Fact, RowRef, Store, Table, Truth};
use fdb_types::{Derivation, MatchKind, Op, Step, Value};

use crate::plan::{Bind, ChainPlan, Direction, QuerySpec};

/// How a derivation step reads its table (mirrors the interpreter).
#[derive(Clone, Copy, Debug)]
struct View {
    function: fdb_types::FunctionId,
    inverted: bool,
}

impl View {
    fn of(step: &Step) -> Self {
        View {
            function: step.function,
            inverted: step.op == Op::Inverse,
        }
    }

    /// Whether the value matched against the incoming binding is the
    /// row's `x` (domain) value, given the walk direction.
    fn match_on_x(&self, backward: bool) -> bool {
        if backward {
            self.inverted
        } else {
            !self.inverted
        }
    }
}

/// The rows of a partial chain, read up the parent pointers from node
/// `at` of the last of `levels`: the last level's row first.
#[derive(Clone, Copy)]
struct Walk<'e, 'a> {
    levels: &'e [Vec<Node<'a>>],
    /// The step view of each level.
    views: &'e [View],
    at: usize,
}

impl Walk<'_, '_> {
    const EMPTY: Self = Walk {
        levels: &[],
        views: &[],
        at: 0,
    };
}

impl Iterator for Walk<'_, '_> {
    type Item = RowRef;

    fn next(&mut self) -> Option<RowRef> {
        let (level, rest) = self.levels.split_last()?;
        let node = &level[self.at];
        self.levels = rest;
        self.at = node.parent;
        Some((self.views[rest.len()].function, node.row))
    }
}

/// One completed chain as a sink sees it. The endpoint values are
/// borrowed from the store the chain was enumerated over, so a sink can
/// keep them for as long as it holds that store.
pub(crate) struct ChainView<'a, 'e> {
    /// The chain's left endpoint: the derived fact's domain side.
    pub left: &'a Value,
    /// The chain's right endpoint: the derived fact's range side.
    pub right: &'a Value,
    /// Combined match quality of all links and of each bound endpoint.
    pub matching: MatchKind,
    /// Three-valued conjunction of the member facts' truth flags.
    pub flags: Truth,
    store: &'a Store,
    /// The member rows in derivation-step order are `before` read
    /// backwards, then `last`, then `after`.
    before: Walk<'e, 'a>,
    last: Option<RowRef>,
    after: Walk<'e, 'a>,
}

impl<'e> ChainView<'_, 'e> {
    /// The member rows, one per derivation step (a row two steps passed
    /// comes twice), in no particular order. Walks parent pointers;
    /// allocates nothing.
    pub fn rows(&self) -> impl Iterator<Item = RowRef> + Clone + 'e {
        self.before.chain(self.last).chain(self.after)
    }

    /// Materialises the member facts, in derivation-step order (clones
    /// each row's values: call it only when the facts themselves are
    /// needed).
    pub fn facts(&self) -> Vec<Fact> {
        let fact = |(function, i): RowRef| {
            let row = self
                .store
                .table(function)
                .row(i)
                .expect("a chain's rows are live");
            Fact {
                function,
                x: row.x.clone(),
                y: row.y.clone(),
            }
        };
        let steps = self.before.levels.len() + 1 + self.after.levels.len();
        let mut facts = Vec::with_capacity(steps);
        facts.extend(self.before.map(fact));
        facts.reverse();
        facts.extend(self.last.into_iter().chain(self.after).map(fact));
        facts
    }

    /// `true` if this chain proves its derived fact true: exact matching
    /// and all members true.
    pub fn proves_true(&self) -> bool {
        self.matching == MatchKind::Exact && self.flags == Truth::True
    }
}

/// Why an enumeration ended before its last candidate row.
enum Halt {
    /// The governor or the chain cap stopped it.
    Stop(StopReason),
    /// The sink has seen enough.
    Done,
}

impl From<StopReason> for Halt {
    fn from(reason: StopReason) -> Self {
        Halt::Stop(reason)
    }
}

/// Delivers completed chains to the sink, enforcing the exact cap
/// (mirrors the interpreter's `push_chain`).
struct Emitter<S> {
    limits: ChainLimits,
    emitted: usize,
    sink: S,
}

impl<'a, S> Emitter<S>
where
    S: FnMut(&ChainView<'a, '_>) -> ControlFlow<()>,
{
    fn emit(&mut self, chain: ChainView<'a, '_>) -> Result<(), Halt> {
        if self.emitted >= self.limits.max_chains {
            return Err(Halt::Stop(StopReason::Cap));
        }
        self.emitted += 1;
        match (self.sink)(&chain) {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(()) => Err(Halt::Done),
        }
    }
}

/// One frontier node: a row consumed at some level plus the accumulated
/// state of the partial chain ending (forward) or starting (backward)
/// at it. All values are borrowed from the store.
struct Node<'a> {
    /// Index into the previous level (`usize::MAX` for seed nodes).
    parent: usize,
    /// The row consumed, as an index into its step's table.
    row: usize,
    /// The boundary value carried to the next step: the row's right value
    /// walking forward, its left value walking backward.
    carried: &'a Value,
    /// The endpoint the partial chain started from: the seed row's
    /// matched-side value.
    origin: &'a Value,
    matching: MatchKind,
    flags: Truth,
}

/// How candidates are selected at one level.
enum Probe<'p> {
    All,
    Exact(&'p Value),
    Matches(&'p Value),
}

/// Calls `each` on every candidate row index of `probe`, straight off
/// the table's index and null buckets, until it fails.
fn try_candidates<E>(
    table: &Table,
    match_on_x: bool,
    probe: &Probe<'_>,
    amb: bool,
    mut each: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    let (value, with_nulls) = match probe {
        Probe::All => return table.live_indices().try_for_each(each),
        // A null matches everything at least ambiguously.
        Probe::Matches(v) if amb && v.is_null() => return table.live_indices().try_for_each(each),
        Probe::Exact(v) => (*v, false),
        Probe::Matches(v) => (*v, amb),
    };
    if match_on_x {
        table.rows_with_x(value).try_for_each(&mut each)?;
        if with_nulls {
            table.rows_with_null_x().try_for_each(&mut each)?;
        }
    } else {
        table.rows_with_y(value).try_for_each(&mut each)?;
        if with_nulls {
            table.rows_with_null_y().try_for_each(&mut each)?;
        }
    }
    Ok(())
}

/// What one level's rows extend: the seed bind, or one node of the
/// previous level.
struct Source<'a, 'p> {
    parent: usize,
    probe: Probe<'p>,
    matching: MatchKind,
    flags: Truth,
    /// `None` at the seed level, where each row is its own origin.
    origin: Option<&'a Value>,
}

impl<'a, 'p> Source<'a, 'p> {
    fn seed(bind: &'p Bind<'p>) -> Self {
        Source {
            parent: usize::MAX,
            probe: match bind {
                Bind::Unbound => Probe::All,
                Bind::Exact(v) => Probe::Exact(v),
                Bind::Matches(v) => Probe::Matches(v),
            },
            matching: MatchKind::Exact,
            flags: Truth::True,
            origin: None,
        }
    }

    fn node(index: usize, node: &'p Node<'a>) -> Self {
        Source {
            parent: index,
            probe: Probe::Matches(node.carried),
            matching: node.matching,
            flags: node.flags,
            origin: Some(node.origin),
        }
    }
}

/// Walks every row `source` links to in `table`, handing `each` the
/// node the row extends the source's partial chain to. One governor tick
/// per candidate examined.
fn expand<'a, G: Governance>(
    table: &'a Table,
    match_on_x: bool,
    amb: bool,
    governor: &G,
    rows: &mut u64,
    source: &Source<'a, '_>,
    mut each: impl FnMut(Node<'a>) -> Result<(), Halt>,
) -> Result<(), Halt> {
    try_candidates(table, match_on_x, &source.probe, amb, |i| {
        *rows += 1;
        governor.tick()?;
        let Some(row) = table.row(i) else {
            return Ok(());
        };
        let (matched, carried) = if match_on_x {
            (row.x, row.y)
        } else {
            (row.y, row.x)
        };
        let link = match source.probe {
            // Unbound seeds and exact index probes constrain nothing
            // beyond row identity, so they contribute an exact "link".
            Probe::All | Probe::Exact(_) => MatchKind::Exact,
            Probe::Matches(v) => v.matches(matched),
        };
        if link == MatchKind::None {
            return Ok(());
        }
        let matching = source.matching.and(link);
        if !amb && matching != MatchKind::Exact {
            return Ok(());
        }
        each(Node {
            parent: source.parent,
            row: i,
            carried,
            origin: source.origin.unwrap_or(matched),
            matching,
            flags: source.flags.and(row.truth),
        })
    })
}

/// Builds every level of `views` (processing order) without emitting:
/// used for both halves of a meet-in-the-middle run.
fn build_levels<'a, G: Governance>(
    store: &'a Store,
    views: &[View],
    seed_bind: &Bind<'_>,
    amb: bool,
    governor: &G,
    backward: bool,
    rows: &mut u64,
) -> Result<Vec<Vec<Node<'a>>>, Halt> {
    let mut levels: Vec<Vec<Node<'a>>> = Vec::with_capacity(views.len());
    for (depth, view) in views.iter().enumerate() {
        let table = store.table(view.function);
        let match_on_x = view.match_on_x(backward);
        let mut next: Vec<Node<'a>> = Vec::new();
        let mut grow = |source: &Source<'a, '_>| {
            expand(table, match_on_x, amb, governor, rows, source, |node| {
                next.push(node);
                Ok(())
            })
        };
        if depth == 0 {
            grow(&Source::seed(seed_bind))?;
        } else {
            for (p, node) in levels[depth - 1].iter().enumerate() {
                grow(&Source::node(p, node))?;
            }
        }
        levels.push(next);
    }
    Ok(levels)
}

/// Forward or backward linear execution: build all interior levels, then
/// stream emissions off the final level.
#[allow(clippy::too_many_arguments)]
fn run_linear<'a, G, S>(
    store: &'a Store,
    views: &[View],
    seed_bind: &Bind<'_>,
    final_bind: &Bind<'_>,
    amb: bool,
    backward: bool,
    governor: &G,
    out: &mut Emitter<S>,
    rows: &mut u64,
) -> Result<(), Halt>
where
    G: Governance,
    S: FnMut(&ChainView<'a, '_>) -> ControlFlow<()>,
{
    let k = views.len();
    let levels = build_levels(
        store,
        &views[..k - 1],
        seed_bind,
        amb,
        governor,
        backward,
        rows,
    )?;
    fdb_obs::registry()
        .exec_frontier_nodes
        .record(levels.iter().map(|l| l.len() as u64).sum());
    let view = views[k - 1];
    let table = store.table(view.function);
    let match_on_x = view.match_on_x(backward);
    let mut finish = |p: usize, source: &Source<'a, '_>| {
        expand(table, match_on_x, amb, governor, rows, source, |last| {
            let matching = match final_bind {
                Bind::Unbound => last.matching,
                Bind::Exact(g) if last.carried == *g => last.matching,
                Bind::Exact(_) => return Ok(()),
                Bind::Matches(g) => {
                    let m = last.matching.and(last.carried.matches(g));
                    if m == MatchKind::None || (!amb && m != MatchKind::Exact) {
                        return Ok(());
                    }
                    m
                }
            };
            let (left, right) = if backward {
                (last.carried, last.origin)
            } else {
                (last.origin, last.carried)
            };
            // Forward processing visits steps first-to-last, so the parent
            // walk yields them last-to-first and the last row ends the
            // chain; backward processing's walk is in step order after the
            // last row, which is step 0.
            let walk = Walk {
                levels: &levels,
                views,
                at: p,
            };
            let (before, after) = if backward {
                (Walk::EMPTY, walk)
            } else {
                (walk, Walk::EMPTY)
            };
            out.emit(ChainView {
                left,
                right,
                matching,
                flags: last.flags,
                store,
                before,
                last: Some((view.function, last.row)),
                after,
            })
        })
    };
    match levels.last() {
        None => finish(usize::MAX, &Source::seed(seed_bind)),
        Some(sources) => sources
            .iter()
            .enumerate()
            .try_for_each(|(p, node)| finish(p, &Source::node(p, node))),
    }
}

/// Meet-in-the-middle execution for fully bound queries: forward half
/// over `views[..split]`, backward half over `views[split..]`, hash-join
/// on the boundary value.
fn run_mitm<'a, G, S>(
    store: &'a Store,
    views: &[View],
    split: usize,
    spec: &QuerySpec<'_>,
    governor: &G,
    out: &mut Emitter<S>,
    rows: &mut u64,
) -> Result<(), Halt>
where
    G: Governance,
    S: FnMut(&ChainView<'a, '_>) -> ControlFlow<()>,
{
    let amb = spec.allow_ambiguous;
    let fwd_views = &views[..split];
    let fwd = build_levels(store, fwd_views, &spec.left, amb, governor, false, rows)?;
    let rev_views: Vec<View> = views[split..].iter().rev().copied().collect();
    let bwd = build_levels(store, &rev_views, &spec.right, amb, governor, true, rows)?;
    fdb_obs::registry().exec_frontier_nodes.record(
        fwd.iter().map(|l| l.len() as u64).sum::<u64>()
            + bwd.iter().map(|l| l.len() as u64).sum::<u64>(),
    );
    let fwd_final = fwd.last().map(Vec::as_slice).unwrap_or(&[]);
    let bwd_final = bwd.last().map(Vec::as_slice).unwrap_or(&[]);

    // Group backward partials by their boundary (left-of-split-step)
    // value for exact probes; null boundaries match anything ambiguously.
    let mut by_val: HashMap<&Value, Vec<usize>> = HashMap::new();
    let mut null_boundary: Vec<usize> = Vec::new();
    for (i, n) in bwd_final.iter().enumerate() {
        if n.carried.is_null() {
            null_boundary.push(i);
        }
        by_val.entry(n.carried).or_default().push(i);
    }

    for (fi, fp) in fwd_final.iter().enumerate() {
        let mut join = |bi: usize| {
            *rows += 1;
            governor.tick()?;
            let bp = &bwd_final[bi];
            let link = fp.carried.matches(bp.carried);
            if link == MatchKind::None {
                return Ok(());
            }
            let matching = fp.matching.and(link).and(bp.matching);
            if !amb && matching != MatchKind::Exact {
                return Ok(());
            }
            out.emit(ChainView {
                left: fp.origin,
                right: bp.origin,
                matching,
                flags: fp.flags.and(bp.flags),
                store,
                before: Walk {
                    levels: &fwd,
                    views: fwd_views,
                    at: fi,
                },
                last: None,
                after: Walk {
                    levels: &bwd,
                    views: &rev_views,
                    at: bi,
                },
            })
        };
        if amb && fp.carried.is_null() {
            (0..bwd_final.len()).try_for_each(&mut join)?;
        } else {
            if let Some(bucket) = by_val.get(fp.carried) {
                bucket.iter().copied().try_for_each(&mut join)?;
            }
            if amb {
                // `fp.carried` is an atom here, so no null boundary was
                // in its bucket.
                null_boundary.iter().copied().try_for_each(&mut join)?;
            }
        }
    }
    Ok(())
}

/// Enumerates the chains of `derivation` under `spec`, walking in the
/// given [`Direction`] and handing each completed chain to `sink`, which
/// may end the run early by breaking (the outcome is then `Complete`:
/// nothing was cut short that the sink wanted). Returns the number of
/// chains emitted. A meet-in-the-middle direction with an invalid split
/// (0, or ≥ the step count) or an unbound endpoint falls back to forward
/// execution.
fn stream_chains<'a, G: Governance>(
    store: &'a Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
    direction: Direction,
    sink: impl FnMut(&ChainView<'a, '_>) -> ControlFlow<()>,
) -> Outcome<usize> {
    let views: Vec<View> = derivation.steps().iter().map(View::of).collect();
    let mut out = Emitter {
        limits,
        emitted: 0,
        sink,
    };
    // Candidate rows are counted in a query-local accumulator and
    // flushed to the registry once per query: one shared atomic add per
    // statement instead of one per row keeps the executor's inner loop
    // within the observability overhead contract.
    let mut rows = 0u64;
    let amb = spec.allow_ambiguous;
    let halt = match direction {
        Direction::MeetInMiddle { split }
            if split >= 1
                && split < views.len()
                && spec.left.is_bound()
                && spec.right.is_bound() =>
        {
            run_mitm(store, &views, split, spec, governor, &mut out, &mut rows)
        }
        Direction::Backward => {
            let rev: Vec<View> = views.iter().rev().copied().collect();
            run_linear(
                store,
                &rev,
                &spec.right,
                &spec.left,
                amb,
                true,
                governor,
                &mut out,
                &mut rows,
            )
        }
        _ => run_linear(
            store,
            &views,
            &spec.left,
            &spec.right,
            amb,
            false,
            governor,
            &mut out,
            &mut rows,
        ),
    };
    let emitted = out.emitted;
    let reg = fdb_obs::registry();
    reg.exec_rows_examined.add(rows);
    reg.exec_chains_emitted.add(emitted as u64);
    reg.exec_chains_per_query.record(emitted as u64);
    let stop = match halt {
        Err(Halt::Stop(reason)) => Some(reason),
        Ok(()) | Err(Halt::Done) => None,
    };
    Outcome::new(emitted, stop)
}

/// The materialising sink: every chain becomes an owned [`Chain`].
fn materialise(out: &mut Vec<Chain>) -> impl FnMut(&ChainView<'_, '_>) -> ControlFlow<()> + '_ {
    |chain| {
        out.push(Chain {
            facts: chain.facts(),
            matching: chain.matching,
            flags: chain.flags,
        });
        ControlFlow::Continue(())
    }
}

/// Enumerates and materialises the chains of `derivation` under `spec`,
/// walking in the given [`Direction`] (see the module docs for the
/// fallback and ordering rules).
pub fn chains_with_direction<G: Governance>(
    store: &Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
    direction: Direction,
) -> Outcome<Vec<Chain>> {
    let mut out = Vec::new();
    let streamed = stream_chains(
        store,
        derivation,
        spec,
        limits,
        governor,
        direction,
        materialise(&mut out),
    );
    streamed.map(|_| out)
}

/// Plans and executes into a streaming sink: compiles a [`ChainPlan`]
/// for the query shape and runs the chosen direction under the
/// `fdb.exec.plan` / `fdb.exec.execute` spans. The execute span comes
/// back still open so the caller can annotate what it made of the
/// chains.
pub(crate) fn stream_planned<'a, G: Governance>(
    store: &'a Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
    sink: impl FnMut(&ChainView<'a, '_>) -> ControlFlow<()>,
) -> (ChainPlan, Outcome<usize>, CausalSpan) {
    let plan = {
        let plan_span = fdb_obs::causal::child_span("fdb.exec.plan", String::new);
        let plan = crate::plan::plan(store, derivation, spec);
        if plan_span.is_recording() {
            plan_span.annotate("dir", format_args!("{:?}", plan.direction));
            plan_span.annotate("est_cost", format_args!("{:.0}", plan.est_cost));
            plan_span.annotate("est_chains", format_args!("{:.1}", plan.est_chains));
        }
        plan
    };
    let mut exec_span = fdb_obs::causal::child_span("fdb.exec.execute", String::new);
    let streamed = stream_chains(
        store,
        derivation,
        spec,
        limits,
        governor,
        plan.direction,
        sink,
    );
    if exec_span.is_recording() {
        exec_span.annotate("est_chains", format_args!("{:.1}", plan.est_chains));
        exec_span.annotate("actual_chains", streamed.get());
        if let Some(stop) = streamed.reason() {
            exec_span.annotate("stop", format_args!("{stop:?}"));
            exec_span.set_error();
        }
    }
    (plan, streamed, exec_span)
}

/// Plans and executes into the materialising sink.
pub fn chains_planned<G: Governance>(
    store: &Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
) -> (ChainPlan, Outcome<Vec<Chain>>) {
    let mut out = Vec::new();
    let (plan, streamed, _span) = stream_planned(
        store,
        derivation,
        spec,
        limits,
        governor,
        materialise(&mut out),
    );
    (plan, streamed.map(|_| out))
}
