//! Algorithm AMS: the Minimal Schema Problem under the Unique Form
//! Assumption.
//!
//! ```text
//! Input:  schema S of an FDB F.
//! Output: minimal schema M of F.
//! Step 1: construct G_F, the function graph of F.
//! Step 2: M̄ = ∅
//!         for each edge e ∈ E do
//!           if ∃ a path p in G' = (V, E − M̄ − {e}) such that p is
//!              syntactically and type-functionally equivalent to e
//!           then add e to M̄
//! Step 3: M = S − M̄
//! ```
//!
//! The existence check in step 2 uses the product-graph reachability of
//! [`crate::equiv::exists_equivalent_walk`], which is `O(|E|)` per edge,
//! so the whole algorithm is `O(n²)` in the number of functions — the
//! bound claimed by Lemma 3 (and measured by the `ams` bench, experiment
//! E7).
//!
//! After the split, each derived function's derivations are extracted as
//! the simple paths in the *minimal* graph that are syntactically and
//! type-functionally equivalent to it — under the UFA every such path is a
//! genuine derivation (§2.1).

use std::collections::{HashMap, HashSet};

use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
use fdb_types::{Derivation, FunctionId, Functionality, Schema};

use crate::equiv::{exists_equivalent_walk, path_matches};
use crate::graph::{EdgeId, FunctionGraph};
use crate::paths::{simple_paths_impl, PathLimits};

/// A derived function together with its derivations in the minimal schema.
#[derive(Clone, Debug)]
pub struct DerivedFunction {
    /// The derived function.
    pub function: FunctionId,
    /// All simple-path derivations found in the minimal graph (under the
    /// UFA each is semantically valid). Capped by the limits passed to
    /// [`minimal_schema_with_limits`].
    pub derivations: Vec<Derivation>,
}

/// Result of Algorithm AMS.
#[derive(Clone, Debug)]
pub struct AmsOutcome {
    /// The minimal schema `M` — the base functions, in declaration order.
    pub base: Vec<FunctionId>,
    /// The derived functions `S − M` with their derivations.
    pub derived: Vec<DerivedFunction>,
}

impl AmsOutcome {
    /// `true` if `f` was classified base.
    pub fn is_base(&self, f: FunctionId) -> bool {
        self.base.contains(&f)
    }

    /// The derivations of `f`, if it was classified derived.
    pub fn derivations_of(&self, f: FunctionId) -> Option<&[Derivation]> {
        self.derived
            .iter()
            .find(|d| d.function == f)
            .map(|d| d.derivations.as_slice())
    }
}

/// Runs Algorithm AMS with default path limits for derivation extraction.
///
/// ```
/// use fdb_graph::minimal_schema;
/// use fdb_types::schema_s1;
///
/// let s1 = schema_s1(); // the paper's Table 1
/// let out = minimal_schema(&s1);
/// let grade = s1.resolve("grade").unwrap();
/// assert!(!out.is_base(grade));
/// assert_eq!(
///     out.derivations_of(grade).unwrap()[0].render(&s1),
///     "score o cutoff"
/// );
/// ```
pub fn minimal_schema(schema: &Schema) -> AmsOutcome {
    minimal_schema_with_limits(schema, PathLimits::default())
}

/// Runs Algorithm AMS; `limits` caps only the *derivation enumeration* for
/// the derived functions (the base/derived classification itself uses the
/// polynomial walk-existence check and needs no cap).
pub fn minimal_schema_with_limits(schema: &Schema, limits: PathLimits) -> AmsOutcome {
    let order: Vec<FunctionId> = schema.functions().iter().map(|d| d.id).collect();
    minimal_schema_with_order(schema, &order, limits)
}

/// Runs Algorithm AMS with an explicit step-2 iteration order.
///
/// Minimal schemas are not unique: of two mutually derivable functions
/// (`teach` / `taught_by`), AMS classifies as derived whichever it tests
/// *first*. Passing a preference order lets the caller steer those
/// tie-breaks — put the functions you consider derived first. Functions
/// missing from `order` are processed afterwards in declaration order;
/// duplicates are ignored after their first occurrence.
pub fn minimal_schema_with_order(
    schema: &Schema,
    order: &[FunctionId],
    limits: PathLimits,
) -> AmsOutcome {
    ams_impl(schema, order, limits, &Ungoverned, &[]).value()
}

/// Runs Algorithm AMS over a graph whose edges are *advisorily tightened*
/// by data-discovered (non-genuine) functional dependencies.
///
/// Each `(function, functionality)` pair tightens that function's edge via
/// [`FunctionGraph::tighten_advisory`] — the declared schema is never
/// touched, and a pair that would *loosen* a declaration is ignored. A
/// function's classification target is its **effective** functionality, so
/// a `many-many` function observed single-valued can be matched by (and
/// can participate in) `many-one` walks that the declared schema alone
/// would reject. Conclusions drawn from this variant are only as durable
/// as the data: callers must present them as advisory, not as schema
/// facts.
pub fn minimal_schema_with_advisory(
    schema: &Schema,
    advisory: &[(FunctionId, Functionality)],
    limits: PathLimits,
) -> AmsOutcome {
    let order: Vec<FunctionId> = schema.functions().iter().map(|d| d.id).collect();
    ams_impl(schema, &order, limits, &Ungoverned, advisory).value()
}

/// Runs Algorithm AMS under a [`Governor`].
///
/// If the governor stops the run mid-way the partial outcome is still
/// *sound*: functions not yet proven derivable stay classified base
/// (base functions are always safe — they just may not be minimal), and
/// each derived function carries the derivations enumerated so far.
pub fn minimal_schema_governed(
    schema: &Schema,
    limits: PathLimits,
    governor: &Governor,
) -> Outcome<AmsOutcome> {
    let order: Vec<FunctionId> = schema.functions().iter().map(|d| d.id).collect();
    ams_impl(schema, &order, limits, governor, &[])
}

fn ams_impl<G: Governance>(
    schema: &Schema,
    order: &[FunctionId],
    limits: PathLimits,
    governor: &G,
    advisory: &[(FunctionId, Functionality)],
) -> Outcome<AmsOutcome> {
    let mut stop: Option<StopReason> = None;
    fdb_obs::registry().graph_ams_runs.inc();

    // Step 1: construct the function graph, tightened by any advisory FDs.
    let mut graph = FunctionGraph::from_schema(schema);
    for &(f, fun) in advisory {
        graph.tighten_advisory(f, fun);
    }
    // Effective (possibly tightened) functionality per function — the
    // classification target below, and the derivation-match target after
    // the split. Identical to the declarations when `advisory` is empty.
    let effective: HashMap<FunctionId, Functionality> = graph
        .edges()
        .map(|e| (e.function, e.functionality))
        .collect();

    // Normalise the iteration order to a permutation of all functions.
    let mut seen: HashSet<FunctionId> = HashSet::new();
    let mut iteration: Vec<FunctionId> = Vec::with_capacity(schema.len());
    for &f in order.iter().chain(schema.functions().iter().map(|d| &d.id)) {
        if f.index() < schema.len() && seen.insert(f) {
            iteration.push(f);
        }
    }

    // Step 2: greedily mark edges derivable from the not-yet-marked rest.
    // Each iteration runs a polynomial walk-existence check, so the
    // coarse `check` granularity (clock + cancellation per edge) fits.
    // On a stop, the remaining edges stay classified base — conservative
    // and sound, just possibly non-minimal.
    let mut removed_edges: HashSet<EdgeId> = HashSet::new();
    let mut removed_funs: Vec<FunctionId> = Vec::new();
    let mut edges_examined = 0u64;
    for f in iteration {
        if let Err(r) = governor.check() {
            stop = stop.or(Some(r));
            break;
        }
        edges_examined += 1;
        let def = schema.function(f);
        let e = graph
            .edge_of(def.id)
            .expect("every function has an edge in its own graph");
        let mut excluded = removed_edges.clone();
        excluded.insert(e.id);
        if exists_equivalent_walk(&graph, def.domain, def.range, effective[&f], &excluded) {
            removed_edges.insert(e.id);
            removed_funs.push(def.id);
        }
    }
    fdb_obs::registry()
        .graph_ams_edges_examined
        .add(edges_examined);

    // Step 3: M = S − M̄, plus derivation extraction in G_M.
    let mut minimal_graph = FunctionGraph::from_schema(schema);
    for &(f, fun) in advisory {
        minimal_graph.tighten_advisory(f, fun);
    }
    for &f in &removed_funs {
        minimal_graph.remove_function(f);
    }
    let base: Vec<FunctionId> = schema
        .functions()
        .iter()
        .map(|d| d.id)
        .filter(|f| !removed_funs.contains(f))
        .collect();

    // A structural `Cap` is per-enumeration: it truncates one function's
    // derivation list but must not suppress the others. Only global stops
    // (deadline, step budget, cancellation) short-circuit.
    let hard_stop = |s: &Option<StopReason>| matches!(s, Some(r) if *r != StopReason::Cap);
    let derived = removed_funs
        .into_iter()
        .map(|f| {
            let def = schema.function(f);
            let paths = if hard_stop(&stop) {
                // Already exhausted: don't start further enumerations.
                Vec::new()
            } else {
                let outcome = simple_paths_impl(
                    &minimal_graph,
                    def.domain,
                    def.range,
                    &HashSet::new(),
                    limits,
                    governor,
                );
                stop = stop.or(outcome.reason());
                outcome.value()
            };
            let derivations = paths
                .into_iter()
                .filter(|p| path_matches(&minimal_graph, p, def.domain, def.range, effective[&f]))
                .map(|p| p.to_derivation(&minimal_graph))
                .collect();
            DerivedFunction {
                function: f,
                derivations,
            }
        })
        .collect();

    Outcome::new(AmsOutcome { base, derived }, stop)
}

/// Enumerates **all** minimal schemas of `schema` under the UFA, up to
/// `cap` results.
///
/// Lemma 2 guarantees AMS returns *a* minimal schema, but minimal schemas
/// are not unique (S1 has two: one keeps `teach`, the other `taught_by`).
/// This enumerator searches the removal lattice: at each step it picks the
/// first still-removable edge and branches on removing it versus keeping
/// it permanently, pruning branches whose kept edges can no longer all be
/// justified. Results are deduplicated and sorted for determinism.
///
/// Worst case exponential (the set of minimal schemas itself can be
/// exponential — consider `n` parallel equivalent edges, which have `n`
/// minimal schemas); use `cap` accordingly.
pub fn all_minimal_schemas(schema: &Schema, cap: usize) -> Vec<Vec<FunctionId>> {
    let graph = FunctionGraph::from_schema(schema);
    let mut results: Vec<Vec<FunctionId>> = Vec::new();
    let all: Vec<FunctionId> = schema.functions().iter().map(|d| d.id).collect();
    let mut removed: HashSet<FunctionId> = HashSet::new();
    let mut kept: HashSet<FunctionId> = HashSet::new();
    let stop = search_minimal(
        schema,
        &graph,
        &all,
        &mut removed,
        &mut kept,
        &mut results,
        cap,
    )
    .err();
    results.sort();
    results.dedup();
    // `Outcome::new` counts a cap stop in the registry.
    Outcome::new(results, stop).value()
}

fn removable(
    schema: &Schema,
    graph: &FunctionGraph,
    removed: &HashSet<FunctionId>,
    f: FunctionId,
) -> bool {
    let def = schema.function(f);
    let mut excluded: HashSet<EdgeId> = removed
        .iter()
        .filter_map(|&g| graph.edge_of(g).map(|e| e.id))
        .collect();
    if let Some(e) = graph.edge_of(f) {
        excluded.insert(e.id);
    }
    exists_equivalent_walk(graph, def.domain, def.range, def.functionality, &excluded)
}

fn search_minimal(
    schema: &Schema,
    graph: &FunctionGraph,
    all: &[FunctionId],
    removed: &mut HashSet<FunctionId>,
    kept: &mut HashSet<FunctionId>,
    results: &mut Vec<Vec<FunctionId>>,
    cap: usize,
) -> Result<(), StopReason> {
    // Find the first edge that is not yet decided and is removable.
    let next = all.iter().copied().find(|&f| {
        !removed.contains(&f) && !kept.contains(&f) && removable(schema, graph, removed, f)
    });
    let Some(f) = next else {
        // No undecided removable edge left. The base set is minimal only
        // if no *kept* edge is removable either (a kept edge that is
        // still derivable from the rest would make the set non-minimal).
        let minimal = !kept.iter().any(|&g| removable(schema, graph, removed, g));
        if minimal {
            let base: Vec<FunctionId> = all
                .iter()
                .copied()
                .filter(|g| !removed.contains(g))
                .collect();
            if !results.contains(&base) {
                if results.len() >= cap {
                    // Exact cap detection: a (cap + 1)-th distinct
                    // minimal schema provably exists.
                    return Err(StopReason::Cap);
                }
                results.push(base);
            }
        }
        return Ok(());
    };
    // Branch 1: remove f.
    removed.insert(f);
    let res = search_minimal(schema, graph, all, removed, kept, results, cap);
    removed.remove(&f);
    res?;
    // Branch 2: keep f permanently — only sensible if some other edge is
    // still removable afterwards (otherwise this branch duplicates work
    // and can yield non-minimal sets, since f itself stays removable).
    kept.insert(f);
    let any_other_removable = all.iter().copied().any(|g| {
        !removed.contains(&g) && !kept.contains(&g) && removable(schema, graph, removed, g)
    });
    let res = if any_other_removable {
        search_minimal(schema, graph, all, removed, kept, results, cap)
    } else {
        Ok(())
    };
    kept.remove(&f);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{schema_s1, schema_s2};

    #[test]
    fn s1_classification_matches_paper_semantics() {
        // Under UFA on S1: grade is derivable from score o cutoff. AMS
        // visits `teach` before `taught_by`, so of the parallel pair it is
        // `teach` that gets classified derived (minimal schemas are not
        // unique; AMS returns *a* minimal schema, per Lemma 2).
        let s = schema_s1();
        let out = minimal_schema(&s);
        let name = |f: FunctionId| s.function(f).name.clone();
        let base: Vec<String> = out.base.iter().map(|&f| name(f)).collect();
        assert_eq!(base, vec!["score", "cutoff", "taught_by"]);
        let derived: Vec<String> = out.derived.iter().map(|d| name(d.function)).collect();
        assert_eq!(derived, vec!["grade", "teach"]);
    }

    #[test]
    fn s1_derivations_extracted() {
        let s = schema_s1();
        let out = minimal_schema(&s);
        let grade = s.resolve("grade").unwrap();
        let ders = out.derivations_of(grade).unwrap();
        assert_eq!(ders.len(), 1);
        assert_eq!(ders[0].render(&s), "score o cutoff");
        let teach = s.resolve("teach").unwrap();
        let ders = out.derivations_of(teach).unwrap();
        assert_eq!(ders.len(), 1);
        assert_eq!(ders[0].render(&s), "taught_by^-1");
    }

    #[test]
    fn s2_under_ufa_removes_exactly_one_of_the_triangle() {
        // The paper's point: UFA forces one of the three to be classified
        // derived even though semantically only lecturer_of is. AMS (edge
        // order) removes `teach` first and then nothing else (removing a
        // second would break the remaining path equivalences).
        let s = schema_s2();
        let out = minimal_schema(&s);
        assert_eq!(out.derived.len(), 1);
        assert_eq!(out.base.len(), 2);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::new();
        let out = minimal_schema(&s);
        assert!(out.base.is_empty());
        assert!(out.derived.is_empty());
    }

    #[test]
    fn singleton_schema_is_its_own_minimal_schema() {
        let s = Schema::builder()
            .function("f", "a", "b", "many-one")
            .build()
            .unwrap();
        let out = minimal_schema(&s);
        assert_eq!(out.base.len(), 1);
        assert!(out.derived.is_empty());
    }

    #[test]
    fn base_covers_all_derived_functions() {
        // Structural soundness half of Lemma 2: every derived function has
        // at least one derivation over the minimal schema.
        let s = schema_s1();
        let out = minimal_schema(&s);
        for d in &out.derived {
            assert!(
                !d.derivations.is_empty(),
                "derived {} lacks a derivation",
                s.function(d.function).name
            );
            for der in &d.derivations {
                // Each derivation mentions only base functions.
                for step in der.steps() {
                    assert!(out.is_base(step.function));
                }
            }
        }
    }

    #[test]
    fn s1_has_exactly_two_minimal_schemas() {
        // score and cutoff are mandatory; grade is always derivable from
        // them; exactly one of the teach/taught_by alias pair stays.
        let s = schema_s1();
        let all = super::all_minimal_schemas(&s, 100);
        assert_eq!(all.len(), 2);
        let names: Vec<Vec<&str>> = all
            .iter()
            .map(|m| m.iter().map(|&f| s.function(f).name.as_str()).collect())
            .collect();
        assert!(names.contains(&vec!["score", "cutoff", "teach"]));
        assert!(names.contains(&vec!["score", "cutoff", "taught_by"]));
        // The AMS result is one of them.
        let ams: Vec<&str> = minimal_schema(&s)
            .base
            .iter()
            .map(|&f| s.function(f).name.as_str())
            .collect();
        assert!(names.contains(&ams));
    }

    #[test]
    fn parallel_bundle_has_one_minimal_schema_per_edge() {
        // n mutually derivable parallel edges → n minimal schemas of
        // size 1 each.
        let mut s = Schema::new();
        for i in 0..4 {
            s.declare(
                &format!("f{i}"),
                "a",
                "b",
                fdb_types::Functionality::ManyMany,
            )
            .unwrap();
        }
        let all = super::all_minimal_schemas(&s, 100);
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn s2_has_three_minimal_schemas() {
        // Under pure syntax each pair of the triangle derives the third,
        // but a single edge cannot derive the other two (dead-end nodes),
        // so the minimal schemas are the three 2-subsets.
        let s = schema_s2();
        let all = super::all_minimal_schemas(&s, 100);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|m| m.len() == 2));
    }

    #[test]
    fn acyclic_schema_has_unique_minimal_schema_itself() {
        let s = Schema::builder()
            .function("f", "a", "b", "many-one")
            .function("g", "b", "c", "one-many")
            .build()
            .unwrap();
        let all = super::all_minimal_schemas(&s, 100);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), 2);
    }

    #[test]
    fn cap_limits_enumeration() {
        let mut s = Schema::new();
        for i in 0..6 {
            s.declare(
                &format!("f{i}"),
                "a",
                "b",
                fdb_types::Functionality::ManyMany,
            )
            .unwrap();
        }
        let all = super::all_minimal_schemas(&s, 3);
        assert!(all.len() <= 3);
        assert!(!all.is_empty());
    }

    #[test]
    fn preference_order_steers_tie_breaks() {
        // Default order derives `teach` (visited before taught_by); with
        // taught_by preferred first, the paper's intended classification
        // comes out.
        let s = schema_s1();
        let taught_by = s.resolve("taught_by").unwrap();
        let teach = s.resolve("teach").unwrap();
        let out = minimal_schema(&s);
        assert!(!out.is_base(teach));

        let order = vec![s.resolve("grade").unwrap(), taught_by];
        let out = super::minimal_schema_with_order(&s, &order, PathLimits::default());
        assert!(out.is_base(teach));
        assert!(!out.is_base(taught_by));
        assert_eq!(
            out.derivations_of(taught_by).unwrap()[0].render(&s),
            "teach^-1"
        );
        // grade is still derived either way.
        assert!(!out.is_base(s.resolve("grade").unwrap()));
    }

    #[test]
    fn advisory_tightening_enables_extra_derivation() {
        // g: a→b many-one is not derivable from the declared schema —
        // every walk through f: a→b many-many composes to many-many. With
        // the advisory FD "f is observed many-one", the single-edge walk
        // through f matches g exactly.
        let s = Schema::builder()
            .function("g", "a", "b", "many-one")
            .function("f", "a", "b", "many-many")
            .build()
            .unwrap();
        let g = s.resolve("g").unwrap();
        let f = s.resolve("f").unwrap();

        let plain = minimal_schema(&s);
        assert!(plain.is_base(g));

        let advisory = vec![(f, fdb_types::Functionality::ManyOne)];
        let out = super::minimal_schema_with_advisory(&s, &advisory, PathLimits::default());
        assert!(!out.is_base(g), "advisory FD should make g derivable");
        assert!(out.is_base(f));
        assert_eq!(out.derivations_of(g).unwrap()[0].render(&s), "f");
    }

    #[test]
    fn advisory_that_would_loosen_is_ignored() {
        // "grade is observed many-many" would loosen its many-one
        // declaration; the advisory is dropped and the outcome matches the
        // plain run exactly.
        let s = schema_s1();
        let grade = s.resolve("grade").unwrap();
        let advisory = vec![(grade, fdb_types::Functionality::ManyMany)];
        let plain = minimal_schema(&s);
        let out = super::minimal_schema_with_advisory(&s, &advisory, PathLimits::default());
        assert_eq!(plain.base, out.base);
        assert_eq!(
            plain.derived.iter().map(|d| d.function).collect::<Vec<_>>(),
            out.derived.iter().map(|d| d.function).collect::<Vec<_>>()
        );
    }

    #[test]
    fn order_duplicates_and_partial_lists_are_tolerated() {
        let s = schema_s1();
        let taught_by = s.resolve("taught_by").unwrap();
        let order = vec![taught_by, taught_by];
        let out = super::minimal_schema_with_order(&s, &order, PathLimits::default());
        let base: HashSet<_> = out.base.iter().copied().collect();
        let derived: HashSet<_> = out.derived.iter().map(|d| d.function).collect();
        assert_eq!(base.len() + derived.len(), s.len());
        assert!(derived.contains(&taught_by));
    }

    use fdb_types::Schema;
}
