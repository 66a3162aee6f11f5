//! Simple-path enumeration over the function graph.
//!
//! Derivations of a derived function correspond to paths between the
//! function's domain and range nodes (§2.2: "To obtain the derivations of
//! a derived function the system will first find all paths between its
//! pair of nodes"). Cycle analysis (§2.2 Method 2.1) also reduces to path
//! enumeration: the cycles created by adding edge `e = (a, b)` are exactly
//! the simple `a`–`b` paths that avoid `e`.
//!
//! Enumeration is exponential in the worst case — the paper itself notes
//! that "addition of an edge may result in an exponential number of
//! cycles" — so every entry point takes [`PathLimits`] caps, and the
//! governed entry points ([`all_simple_paths_governed`]) additionally
//! honour a [`Governor`]'s deadline, step budget and cancellation,
//! returning a typed [`Outcome`] whose `Exhausted { partial, reason }`
//! arm carries the sound prefix enumerated before the stop.

use std::collections::HashSet;

use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
use fdb_types::{Derivation, Functionality, Schema, Step, TypeId};

use crate::graph::{Dir, EdgeId, FunctionGraph};

/// One traversal step of a path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathStep {
    /// The edge traversed.
    pub edge: EdgeId,
    /// Direction of traversal relative to the edge's declared orientation.
    pub dir: Dir,
}

/// A path in the function graph: a start node plus traversal steps.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Path {
    /// The node the path departs from.
    pub start: TypeId,
    /// The steps, in traversal order.
    pub steps: Vec<PathStep>,
}

impl Path {
    /// Number of edges in the path.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The node the path arrives at.
    pub fn end(&self, graph: &FunctionGraph) -> TypeId {
        self.steps
            .last()
            .map_or(self.start, |s| graph.edge(s.edge).target(s.dir))
    }

    /// The node sequence `D_{i₁}, …, D_{i_k}` of the path.
    pub fn nodes(&self, graph: &FunctionGraph) -> Vec<TypeId> {
        let mut nodes = Vec::with_capacity(self.steps.len() + 1);
        nodes.push(self.start);
        for s in &self.steps {
            nodes.push(graph.edge(s.edge).target(s.dir));
        }
        nodes
    }

    /// Composed type functionality of the path (inverse functionality for
    /// edges traversed backwards).
    pub fn functionality(&self, graph: &FunctionGraph) -> Option<Functionality> {
        self.steps
            .iter()
            .map(|s| graph.edge(s.edge).functionality_along(s.dir))
            .reduce(Functionality::compose)
    }

    /// Converts the path into the derivation expression it denotes:
    /// a forward traversal is `identity F`, a backward one `inverse F`.
    pub fn to_derivation(&self, graph: &FunctionGraph) -> Derivation {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                let f = graph.edge(s.edge).function;
                match s.dir {
                    Dir::Forward => Step::identity(f),
                    Dir::Backward => Step::inverse(f),
                }
            })
            .collect();
        Derivation::new(steps).expect("paths used as derivations are non-empty")
    }

    /// Renders the path as the paper prints cycles:
    /// `teach - class_list - lecturer_of` (function names in step order).
    pub fn render(&self, graph: &FunctionGraph, schema: &Schema) -> String {
        self.steps
            .iter()
            .map(|s| schema.function(graph.edge(s.edge).function).name.clone())
            .collect::<Vec<_>>()
            .join(" - ")
    }

    /// The multiset of edge ids, sorted — used to deduplicate closed walks
    /// discovered in both rotational directions.
    pub fn edge_key(&self) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = self.steps.iter().map(|s| s.edge).collect();
        ids.sort_unstable();
        ids
    }
}

/// Caps on path enumeration.
#[derive(Clone, Copy, Debug)]
pub struct PathLimits {
    /// Maximum number of edges in a path.
    pub max_len: usize,
    /// Maximum number of paths returned.
    pub max_paths: usize,
}

impl Default for PathLimits {
    fn default() -> Self {
        PathLimits {
            max_len: 64,
            max_paths: 10_000,
        }
    }
}

impl PathLimits {
    /// Effectively unlimited enumeration.
    ///
    /// **Benchmark/measurement use only**: the name is deliberately
    /// awkward because with these caps an adversarial schema makes
    /// enumeration run forever. Production paths use
    /// [`PathLimits::default`] plus a [`Governor`]; the only legitimate
    /// callers are the exponential-growth measurements (E8), which need
    /// the uncapped curve.
    pub fn unbounded_for_benchmarks() -> Self {
        PathLimits {
            max_len: usize::MAX,
            max_paths: usize::MAX,
        }
    }
}

/// Enumerates the node-simple paths from `from` to `to` that avoid the
/// `excluded` edges.
///
/// "Node-simple" means no intermediate node repeats; when `from == to` the
/// start node may be revisited exactly once, at the end, so the result is
/// the set of simple cycles through `from` (each cycle reported once even
/// though the DFS discovers it in both rotational directions).
///
/// Paths have at least one edge; the empty path is never returned.
///
/// Truncation by `limits` is silent here; use
/// [`all_simple_paths_governed`] for the typed outcome.
pub fn all_simple_paths(
    graph: &FunctionGraph,
    from: TypeId,
    to: TypeId,
    excluded: &HashSet<EdgeId>,
    limits: PathLimits,
) -> Vec<Path> {
    simple_paths_impl(graph, from, to, excluded, limits, &Ungoverned).value()
}

/// [`all_simple_paths`] under a [`Governor`]: the enumeration stops as
/// soon as the governor's deadline, step budget or cancellation token
/// fires — or a structural cap of `limits` bites — and the stop is
/// reported as a typed [`Outcome::Exhausted`] whose partial result is the sound prefix enumerated so far (the DFS is
/// deterministic, so a smaller budget always yields a prefix of a larger
/// budget's result).
///
/// `max_paths` truncation is *exact*: `Exhausted` with
/// [`StopReason::Cap`] is reported only when a `(max_paths + 1)`-th path
/// provably exists. `max_len` pruning is conservative: cutting a branch
/// at the depth cap reports `Exhausted` even if the branch would have
/// dead-ended.
pub fn all_simple_paths_governed(
    graph: &FunctionGraph,
    from: TypeId,
    to: TypeId,
    excluded: &HashSet<EdgeId>,
    limits: PathLimits,
    governor: &Governor,
) -> Outcome<Vec<Path>> {
    simple_paths_impl(graph, from, to, excluded, limits, governor)
}

/// The generic enumeration core: monomorphised with [`Ungoverned`] for
/// the classic API (zero governance overhead) and with [`Governor`] for
/// the governed one.
pub(crate) fn simple_paths_impl<G: Governance>(
    graph: &FunctionGraph,
    from: TypeId,
    to: TypeId,
    excluded: &HashSet<EdgeId>,
    limits: PathLimits,
    governor: &G,
) -> Outcome<Vec<Path>> {
    let mut search = PathSearch {
        graph,
        goal: to,
        excluded,
        limits,
        governor,
        visited: HashSet::new(),
        steps: Vec::new(),
        out: Vec::new(),
        seen_keys: HashSet::new(),
        closed: from == to,
        len_pruned: false,
    };
    search.visited.insert(from);
    let stop = search.dfs(from).err();
    // A depth-cap prune means the enumeration is possibly incomplete
    // even though no hard stop fired.
    let reason = stop.or(if search.len_pruned {
        Some(StopReason::Cap)
    } else {
        None
    });
    Outcome::new(search.out, reason)
}

/// DFS state for one enumeration; bundling it keeps the recursion free
/// of a dozen loose parameters.
struct PathSearch<'a, G: Governance> {
    graph: &'a FunctionGraph,
    goal: TypeId,
    excluded: &'a HashSet<EdgeId>,
    limits: PathLimits,
    governor: &'a G,
    visited: HashSet<TypeId>,
    steps: Vec<PathStep>,
    out: Vec<Path>,
    seen_keys: HashSet<Vec<EdgeId>>,
    closed: bool,
    len_pruned: bool,
}

impl<G: Governance> PathSearch<'_, G> {
    fn dfs(&mut self, cur: TypeId) -> Result<(), StopReason> {
        // Collect incidences first: `neighbors` borrows the graph
        // immutably and the recursion only needs the tuple data.
        let incidences: Vec<(EdgeId, Dir, TypeId)> = self.graph.neighbors(cur).collect();
        for (edge, dir, next) in incidences {
            self.governor.tick()?;
            if self.excluded.contains(&edge) || self.steps.iter().any(|s| s.edge == edge) {
                continue;
            }
            if next == self.goal {
                self.steps.push(PathStep { edge, dir });
                let path = Path {
                    start: self.path_start(),
                    steps: self.steps.clone(),
                };
                self.steps.pop();
                // Closed walks are discovered in both rotational
                // directions; deduplicate by edge multiset.
                if self.closed && !self.seen_keys.insert(path.edge_key()) {
                    continue;
                }
                if self.out.len() >= self.limits.max_paths {
                    // Exact cap detection: this path proves more results
                    // exist beyond max_paths.
                    return Err(StopReason::Cap);
                }
                self.out.push(path);
                // Node-simple paths end at the first arrival at the goal.
                continue;
            }
            if self.visited.contains(&next) {
                continue;
            }
            if self.steps.len() + 1 >= self.limits.max_len {
                // Depth cap: skipping this extension may hide paths.
                self.len_pruned = true;
                continue;
            }
            self.visited.insert(next);
            self.steps.push(PathStep { edge, dir });
            let res = self.dfs(next);
            self.steps.pop();
            self.visited.remove(&next);
            res?;
        }
        Ok(())
    }

    fn path_start(&self) -> TypeId {
        self.steps
            .first()
            .map_or(self.goal, |s| self.graph.edge(s.edge).source(s.dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{schema_s1, schema_s2, Op};

    fn no_excl() -> HashSet<EdgeId> {
        HashSet::new()
    }

    #[test]
    fn parallel_edges_give_two_paths() {
        let s = schema_s1();
        let g = FunctionGraph::from_schema(&s);
        let faculty = s.types().lookup("faculty").unwrap();
        let course = s.types().lookup("course").unwrap();
        let paths = all_simple_paths(&g, faculty, course, &no_excl(), PathLimits::default());
        // teach forward, taught_by backward.
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 1);
            assert_eq!(p.end(&g), course);
        }
    }

    #[test]
    fn s1_grade_paths() {
        let s = schema_s1();
        let g = FunctionGraph::from_schema(&s);
        let grade = s.function_by_name("grade").unwrap();
        // Exclude the grade edge itself, as AMS step 2 does.
        let grade_edge = g.edge_of(grade.id).unwrap().id;
        let excl: HashSet<EdgeId> = [grade_edge].into();
        let paths = all_simple_paths(&g, grade.domain, grade.range, &excl, PathLimits::default());
        // Only score o cutoff remains.
        assert_eq!(paths.len(), 1);
        let d = paths[0].to_derivation(&g);
        assert_eq!(d.render(&s), "score o cutoff");
        assert_eq!(paths[0].functionality(&g), Some(Functionality::ManyOne));
    }

    #[test]
    fn s2_triangle_paths_use_inverses() {
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let lecturer_of = s.function_by_name("lecturer_of").unwrap();
        let excl: HashSet<EdgeId> = [g.edge_of(lecturer_of.id).unwrap().id].into();
        let paths = all_simple_paths(
            &g,
            lecturer_of.domain,
            lecturer_of.range,
            &excl,
            PathLimits::default(),
        );
        assert_eq!(paths.len(), 1);
        let d = paths[0].to_derivation(&g);
        assert_eq!(d.render(&s), "class_list^-1 o teach^-1");
        assert_eq!(d.steps()[0].op, Op::Inverse);
    }

    #[test]
    fn closed_walks_deduplicated() {
        // Triangle: cycles through a node found once, not once per direction.
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let faculty = s.types().lookup("faculty").unwrap();
        let cycles = all_simple_paths(&g, faculty, faculty, &no_excl(), PathLimits::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn limits_cap_enumeration() {
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let faculty = s.types().lookup("faculty").unwrap();
        let course = s.types().lookup("course").unwrap();
        let limits = PathLimits {
            max_len: 1,
            max_paths: 10,
        };
        let paths = all_simple_paths(&g, faculty, course, &no_excl(), limits);
        assert_eq!(paths.len(), 1); // the 2-edge path is cut off
        let limits = PathLimits {
            max_len: 8,
            max_paths: 1,
        };
        let paths = all_simple_paths(&g, faculty, course, &no_excl(), limits);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn nodes_and_render() {
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let student = s.types().lookup("student").unwrap();
        let faculty = s.types().lookup("faculty").unwrap();
        let lecturer_edge = g.edge_of(s.resolve("lecturer_of").unwrap()).unwrap().id;
        let excl: HashSet<EdgeId> = [lecturer_edge].into();
        let paths = all_simple_paths(&g, student, faculty, &excl, PathLimits::default());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        let nodes = p.nodes(&g);
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0], student);
        assert_eq!(nodes[2], faculty);
        assert_eq!(p.render(&g, &s), "class_list - teach");
    }

    #[test]
    fn governed_cap_is_exact() {
        // faculty→course in S2 has exactly 2 simple paths; cap 2 must be
        // Complete (no phantom truncation), cap 1 must be Exhausted(Cap).
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let faculty = s.types().lookup("faculty").unwrap();
        let course = s.types().lookup("course").unwrap();
        let gov = Governor::unbounded();
        let limits = PathLimits {
            max_len: 8,
            max_paths: 2,
        };
        let out = all_simple_paths_governed(&g, faculty, course, &no_excl(), limits, &gov);
        assert!(out.is_complete());
        assert_eq!(out.get().len(), 2);

        let limits = PathLimits {
            max_len: 8,
            max_paths: 1,
        };
        let out = all_simple_paths_governed(&g, faculty, course, &no_excl(), limits, &gov);
        assert_eq!(out.reason(), Some(StopReason::Cap));
        assert_eq!(out.get().len(), 1);
    }

    #[test]
    fn governed_step_budget_yields_prefix() {
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let faculty = s.types().lookup("faculty").unwrap();
        let course = s.types().lookup("course").unwrap();
        let full = all_simple_paths(&g, faculty, course, &no_excl(), PathLimits::default());
        for budget in 0..20 {
            let gov = Governor::with_max_steps(budget);
            let out = all_simple_paths_governed(
                &g,
                faculty,
                course,
                &no_excl(),
                PathLimits::default(),
                &gov,
            );
            let partial = out.get();
            assert!(partial.len() <= full.len());
            assert_eq!(&full[..partial.len()], partial.as_slice(), "prefix");
            if out.is_complete() {
                assert_eq!(partial, &full);
            }
        }
    }

    #[test]
    fn governed_cancellation_stops_enumeration() {
        let s = schema_s2();
        let g = FunctionGraph::from_schema(&s);
        let faculty = s.types().lookup("faculty").unwrap();
        let gov = Governor::unbounded();
        gov.cancel_token().cancel();
        let out = all_simple_paths_governed(
            &g,
            faculty,
            faculty,
            &no_excl(),
            PathLimits::default(),
            &gov,
        );
        assert_eq!(out.reason(), Some(StopReason::Cancelled));
        assert!(out.get().is_empty());
    }

    #[test]
    fn self_loop_cycle_found_once() {
        let mut s = Schema::new();
        let f = s
            .declare("mentor", "person", "person", Functionality::ManyMany)
            .unwrap();
        let mut g = FunctionGraph::new();
        g.add_function(&s, f);
        let person = s.types().lookup("person").unwrap();
        let cycles = all_simple_paths(&g, person, person, &no_excl(), PathLimits::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
    }

    use fdb_types::Schema;
}
