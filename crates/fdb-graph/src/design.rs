//! Method 2.1 — the on-line interactive design methodology.
//!
//! ```text
//! Goal: dynamically maintain the minimal schema.
//! Step 1: add the next function to the function graph.
//! Step 2: identify all cycles formed by this function.
//! Step 3: for each cycle identified do
//!         (i)   identify the candidate derived functions in the cycle;
//!         (ii)  report these (cycle and candidates) to the designer;
//!         (iii) remove the edge specified by the designer.
//! Step 4: if more functions to be added then go to step 1.
//! ```
//!
//! The system also maintains "a data structure that keeps track of the
//! functions in the existing conceptual schema. Any function in this data
//! structure which is not in the function graph is construed as a derived
//! function; all other functions are base." In this implementation that
//! data structure is the [`DesignSession`]'s [`Schema`] (all declared
//! functions) versus the live edges of its [`FunctionGraph`] (the base
//! functions).
//!
//! At the end of the design, derivations of each derived function are
//! extracted as the equivalent paths in the base graph and filtered
//! "through designer intervention" ([`Designer::confirm_derivation`]) —
//! the §2.3 trace ends with the designer confirming three derivations and
//! invalidating `grade = attendance o attendance_eval`.

use std::collections::HashSet;

use fdb_governor::{StopReason, Ungoverned};
use fdb_types::{Derivation, FdbError, FunctionId, Functionality, Result, Schema};

use crate::cycles::{cycles_impl, Cycle};
use crate::equiv::path_matches_function;
use crate::graph::{EdgeId, FunctionGraph};
use crate::paths::{simple_paths_impl, PathLimits};

/// What a designer may do with a reported cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CycleDecision {
    /// Mark this function as derived: remove its edge from the graph.
    Remove(FunctionId),
    /// Disagree with the system; leave the cycle in place (the §2.3 trace
    /// does this for the `grade - attendance - attendance_eval` cycle).
    KeepAll,
}

/// A cycle reported to the designer (step 3(ii)).
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// The function whose addition closed the cycle.
    pub new_function: FunctionId,
    /// Functions around the cycle, the new one first.
    pub cycle: Vec<FunctionId>,
    /// The candidate derived functions of the cycle.
    pub candidates: Vec<FunctionId>,
    /// Paper-style rendering, e.g. `grade - score - cutoff`.
    pub rendered: String,
}

/// The designer in the loop of Method 2.1.
///
/// Implementations range from fully scripted (tests, benches) to
/// interactive (the `design_aid` example reads stdin).
pub trait Designer {
    /// Step 3(iii): decide how to break (or keep) a reported cycle.
    ///
    /// Returning [`CycleDecision::Remove`] with a function that is not one
    /// of the report's candidates is rejected by the session with
    /// [`FdbError::Internal`] — the necessary condition of §2.2 says only
    /// candidates can be derived.
    fn resolve_cycle(&mut self, schema: &Schema, report: &CycleReport) -> CycleDecision;

    /// End-of-design filtering of potential derivations: `true` to confirm
    /// the derivation, `false` to invalidate it.
    fn confirm_derivation(
        &mut self,
        schema: &Schema,
        function: FunctionId,
        derivation: &Derivation,
    ) -> bool;
}

/// Tuning knobs for a design session.
#[derive(Clone, Copy, Debug, Default)]
pub struct DesignConfig {
    /// Caps cycle enumeration per added function (the paper notes cyclic
    /// graphs can create exponentially many cycles).
    pub cycle_limits: PathLimits,
    /// Caps derivation enumeration per derived function.
    pub derivation_limits: PathLimits,
}

/// One entry in the session's audit log.
#[derive(Clone, Debug)]
pub enum DesignEvent {
    /// A function was added to the graph (step 1).
    Added(FunctionId),
    /// A cycle was reported (step 3(ii)) and resolved as recorded.
    CycleResolved {
        /// The report given to the designer.
        report: CycleReport,
        /// The designer's decision.
        decision: CycleDecision,
    },
    /// Cycle enumeration was stopped early by the configured cap, so some
    /// cycles may not have been reported.
    CyclesTruncated {
        /// The function whose addition triggered enumeration.
        new_function: FunctionId,
        /// How many cycles were reported before the stop.
        reported: usize,
        /// Why enumeration stopped.
        reason: StopReason,
    },
}

/// Result of a finished design session.
#[derive(Clone, Debug)]
pub struct DesignOutcome {
    /// The base functions (the dynamic function graph's live edges), in
    /// declaration order.
    pub base: Vec<FunctionId>,
    /// Derived functions with their confirmed derivations.
    pub derived: Vec<(FunctionId, Vec<Derivation>)>,
}

impl DesignOutcome {
    /// `true` if `f` ended up base.
    pub fn is_base(&self, f: FunctionId) -> bool {
        self.base.contains(&f)
    }

    /// Confirmed derivations of `f` if it ended up derived.
    pub fn derivations_of(&self, f: FunctionId) -> Option<&[Derivation]> {
        self.derived
            .iter()
            .find(|(g, _)| *g == f)
            .map(|(_, d)| d.as_slice())
    }
}

/// An in-progress Method 2.1 design session.
///
/// ```
/// use fdb_graph::{DesignSession, ScriptedDesigner};
/// use fdb_types::Functionality;
///
/// let mut session = DesignSession::new();
/// let mut designer = ScriptedDesigner::new();
/// designer.push_decision_by_name("taught_by").default_confirm(true);
///
/// let mm = Functionality::ManyMany;
/// session.add_function("teach", "faculty", "course", mm, &mut designer)?;
/// // Adding the parallel function closes a cycle; the scripted designer
/// // removes taught_by, marking it derived.
/// session.add_function("taught_by", "course", "faculty", mm, &mut designer)?;
///
/// let (outcome, schema) = session.finish(&mut designer);
/// let taught_by = schema.resolve("taught_by")?;
/// assert_eq!(
///     outcome.derivations_of(taught_by).unwrap()[0].render(&schema),
///     "teach^-1"
/// );
/// # Ok::<(), fdb_types::FdbError>(())
/// ```
#[derive(Debug, Default)]
pub struct DesignSession {
    schema: Schema,
    graph: FunctionGraph,
    config: DesignConfig,
    log: Vec<DesignEvent>,
}

impl DesignSession {
    /// Starts an empty session with default config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an empty session with the given config.
    pub fn with_config(config: DesignConfig) -> Self {
        DesignSession {
            config,
            ..Self::default()
        }
    }

    /// The conceptual schema declared so far (base *and* derived).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dynamic function graph (live edges = current base functions).
    pub fn graph(&self) -> &FunctionGraph {
        &self.graph
    }

    /// The audit log of everything that happened so far.
    pub fn log(&self) -> &[DesignEvent] {
        &self.log
    }

    /// Steps 1–3 for one function: declare it, add its edge, report every
    /// cycle it creates to `designer`, and apply the decisions.
    ///
    /// Returns the id of the new function.
    pub fn add_function(
        &mut self,
        name: &str,
        domain: &str,
        range: &str,
        functionality: Functionality,
        designer: &mut dyn Designer,
    ) -> Result<FunctionId> {
        // Step 1.
        let f = self.schema.declare(name, domain, range, functionality)?;
        let new_edge = self.graph.add_function(&self.schema, f);
        self.log.push(DesignEvent::Added(f));

        // Step 2: identify all cycles formed by this function.
        let outcome = cycles_impl(&self.graph, new_edge, self.config.cycle_limits, &Ungoverned);
        let truncated = outcome.reason();
        let cycles = outcome.value();
        if let Some(reason) = truncated {
            self.log.push(DesignEvent::CyclesTruncated {
                new_function: f,
                reported: cycles.len(),
                reason,
            });
        }

        // Step 3: report each (still existing) cycle and act on it.
        for cycle in cycles {
            if !self.cycle_still_alive(&cycle) {
                // An earlier removal this round already broke this cycle.
                continue;
            }
            let report = self.build_report(f, &cycle);
            let decision = designer.resolve_cycle(&self.schema, &report);
            if let CycleDecision::Remove(victim) = decision {
                if !report.candidates.contains(&victim) {
                    return Err(FdbError::Internal(format!(
                        "designer removed {:?}, which is not a candidate of cycle {}",
                        self.schema.function(victim).name,
                        report.rendered
                    )));
                }
                self.graph.remove_function(victim);
            }
            self.log
                .push(DesignEvent::CycleResolved { report, decision });
        }
        Ok(f)
    }

    fn cycle_still_alive(&self, cycle: &Cycle) -> bool {
        cycle.edges().iter().all(|&e| self.graph.is_alive(e))
    }

    fn build_report(&self, new_function: FunctionId, cycle: &Cycle) -> CycleReport {
        let candidates = cycle.candidates(&self.graph);
        fdb_obs::registry()
            .graph_design_candidates
            .add(candidates.len() as u64);
        CycleReport {
            new_function,
            cycle: cycle.functions(&self.graph),
            candidates,
            rendered: cycle.render(&self.graph, &self.schema),
        }
    }

    /// The current minimal schema: functions whose edges are alive.
    pub fn base_functions(&self) -> Vec<FunctionId> {
        self.schema
            .functions()
            .iter()
            .map(|d| d.id)
            .filter(|&f| self.graph.edge_of(f).is_some())
            .collect()
    }

    /// Functions construed as derived: declared but not in the graph.
    pub fn derived_functions(&self) -> Vec<FunctionId> {
        self.schema
            .functions()
            .iter()
            .map(|d| d.id)
            .filter(|&f| self.graph.edge_of(f).is_none())
            .collect()
    }

    /// Potential derivations of a derived function: all equivalent simple
    /// paths in the current base graph (before designer filtering).
    pub fn potential_derivations(&self, f: FunctionId) -> Vec<Derivation> {
        let def = self.schema.function(f);
        let none = HashSet::<EdgeId>::new();
        simple_paths_impl(
            &self.graph,
            def.domain,
            def.range,
            &none,
            self.config.derivation_limits,
            &Ungoverned,
        )
        .value()
        .into_iter()
        .filter(|p| path_matches_function(&self.graph, p, def))
        .map(|p| p.to_derivation(&self.graph))
        .collect()
    }

    /// Finishes the session: extracts each derived function's potential
    /// derivations, filters them through the designer, and returns the
    /// final base/derived split.
    pub fn finish(self, designer: &mut dyn Designer) -> (DesignOutcome, Schema) {
        let mut derived = Vec::new();
        for f in self.derived_functions() {
            let confirmed: Vec<Derivation> = self
                .potential_derivations(f)
                .into_iter()
                .filter(|d| designer.confirm_derivation(&self.schema, f, d))
                .collect();
            derived.push((f, confirmed));
        }
        (
            DesignOutcome {
                base: self.base_functions(),
                derived,
            },
            self.schema,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designers::{FirstCandidateDesigner, KeepAllDesigner, ScriptedDesigner};

    fn add(
        s: &mut DesignSession,
        d: &mut dyn Designer,
        name: &str,
        dom: &str,
        rng: &str,
        f: &str,
    ) -> FunctionId {
        s.add_function(name, dom, rng, f.parse().unwrap(), d)
            .unwrap()
    }

    #[test]
    fn acyclic_additions_never_consult_designer() {
        let mut s = DesignSession::new();
        let mut d = ScriptedDesigner::strict(); // panics if consulted
        add(&mut s, &mut d, "f", "a", "b", "many-one");
        add(&mut s, &mut d, "g", "b", "c", "many-one");
        add(&mut s, &mut d, "h", "c", "d", "one-many");
        assert_eq!(s.base_functions().len(), 3);
        assert!(s.derived_functions().is_empty());
    }

    #[test]
    fn parallel_pair_reports_cycle_with_both_candidates() {
        let mut s = DesignSession::new();
        let mut keep = KeepAllDesigner;
        let teach = add(&mut s, &mut keep, "teach", "faculty", "course", "many-many");
        let mut script = ScriptedDesigner::new();
        script.push_decision_by_name("taught_by");
        let taught_by = add(
            &mut s,
            &mut script,
            "taught_by",
            "course",
            "faculty",
            "many-many",
        );
        assert_eq!(s.base_functions(), vec![teach]);
        assert_eq!(s.derived_functions(), vec![taught_by]);
        // The cycle was logged with both functions as candidates.
        let resolved = s
            .log()
            .iter()
            .filter_map(|e| match e {
                DesignEvent::CycleResolved { report, .. } => Some(report),
                _ => None,
            })
            .next()
            .unwrap();
        assert_eq!(resolved.candidates.len(), 2);
    }

    #[test]
    fn keep_all_leaves_cycle_in_graph() {
        let mut s = DesignSession::new();
        let mut keep = KeepAllDesigner;
        add(&mut s, &mut keep, "teach", "faculty", "course", "many-many");
        add(
            &mut s,
            &mut keep,
            "taught_by",
            "course",
            "faculty",
            "many-many",
        );
        assert_eq!(s.base_functions().len(), 2);
    }

    #[test]
    fn removing_non_candidate_is_an_error() {
        let mut s = DesignSession::new();
        let mut keep = KeepAllDesigner;
        // grade cycle where only `grade` is a candidate; script removal of
        // `score` (not a candidate) and expect an error.
        add(
            &mut s,
            &mut keep,
            "score",
            "[student; course]",
            "marks",
            "many-one",
        );
        add(
            &mut s,
            &mut keep,
            "cutoff",
            "marks",
            "letter_grade",
            "many-one",
        );
        let mut script = ScriptedDesigner::new();
        script.push_decision_by_name("score");
        let err = s
            .add_function(
                "grade",
                "[student; course]",
                "letter_grade",
                Functionality::ManyOne,
                &mut script,
            )
            .unwrap_err();
        assert!(matches!(err, FdbError::Internal(_)));
    }

    #[test]
    fn first_candidate_designer_breaks_every_cycle() {
        let mut s = DesignSession::new();
        let mut d = FirstCandidateDesigner;
        add(&mut s, &mut d, "teach", "faculty", "course", "many-many");
        add(
            &mut s,
            &mut d,
            "taught_by",
            "course",
            "faculty",
            "many-many",
        );
        assert_eq!(s.derived_functions().len(), 1);
    }

    #[test]
    fn finish_extracts_and_filters_derivations() {
        let mut s = DesignSession::new();
        let mut keep = KeepAllDesigner;
        add(
            &mut s,
            &mut keep,
            "score",
            "[student; course]",
            "marks",
            "many-one",
        );
        add(
            &mut s,
            &mut keep,
            "cutoff",
            "marks",
            "letter_grade",
            "many-one",
        );
        let mut script = ScriptedDesigner::new();
        script.push_decision_by_name("grade");
        let grade = add(
            &mut s,
            &mut script,
            "grade",
            "[student; course]",
            "letter_grade",
            "many-one",
        );
        let mut confirm_all = ScriptedDesigner::new();
        confirm_all.default_confirm(true);
        let (outcome, schema) = s.finish(&mut confirm_all);
        let ders = outcome.derivations_of(grade).unwrap();
        assert_eq!(ders.len(), 1);
        assert_eq!(ders[0].render(&schema), "score o cutoff");
    }

    #[test]
    fn broken_cycles_are_skipped_in_same_round() {
        // Adding an edge that closes two cycles sharing an edge: removing
        // the shared edge for the first cycle breaks the second, which must
        // then not be reported.
        let mut s = DesignSession::new();
        let mut keep = KeepAllDesigner;
        // Two parallel edges f, g between a and b...
        add(&mut s, &mut keep, "f", "a", "b", "many-many");
        add(&mut s, &mut keep, "g", "a", "b", "many-many");
        // ...then a third parallel edge h closes two 2-cycles (h-f, h-g).
        // Script: remove h for the first reported cycle. The second cycle
        // still exists (it does not contain h? it does contain h!) — both
        // cycles contain h, so the second is skipped.
        let mut script = ScriptedDesigner::new();
        script.push_decision_by_name("h");
        let h = add(&mut s, &mut script, "h", "a", "b", "many-many");
        // Of the two cycles h closes (h-f and h-g), only the first is
        // reported: removing h breaks the second, which is then skipped.
        let resolved_for_h = s
            .log()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    DesignEvent::CycleResolved { report, .. } if report.new_function == h
                )
            })
            .count();
        assert_eq!(resolved_for_h, 1);
        assert_eq!(s.base_functions().len(), 2);
    }
}
