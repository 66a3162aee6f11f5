//! Provenance: *why* is a fact true, ambiguous, or false?
//!
//! The §3.2 truth semantics makes every verdict traceable to evidence —
//! chains of base facts, their match quality, their flags, and the NCs
//! covering them. [`Database::explain`] surfaces that evidence so a user
//! staring at an `A` flag or a `*` marker can see exactly which negated
//! conjunction or null mismatch produced it. The language front end
//! exposes it as `EXPLAIN f(x, y)`.

use std::time::Instant;

use fdb_exec::{chains_planned, Direction, QuerySpec};
use fdb_governor::{Governor, Ungoverned};
use fdb_storage::{Fact, Truth};
use fdb_types::{FunctionId, MatchKind, Result, Value};

use crate::database::Database;

/// One chain of base facts considered as evidence for a derived fact.
#[derive(Clone, Debug)]
pub struct ChainEvidence {
    /// Which registered derivation (index into
    /// [`Database::derivations`]) produced this chain.
    pub derivation: usize,
    /// The base facts of the chain, in step order.
    pub facts: Vec<Fact>,
    /// Combined match quality (links + endpoints).
    pub matching: MatchKind,
    /// Three-valued conjunction of the member flags.
    pub flags: Truth,
    /// `true` if the chain is a superset of some live NC — evidence that
    /// has been negated by a derived delete.
    pub covered_by_nc: bool,
}

impl ChainEvidence {
    /// What this chain contributes under §3.2.
    pub fn contribution(&self) -> Truth {
        if self.matching == MatchKind::Exact && self.flags == Truth::True {
            Truth::True
        } else if self.covered_by_nc {
            Truth::False
        } else {
            Truth::Ambiguous
        }
    }
}

/// The full explanation of one fact's truth value.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The verdict (identical to [`Database::truth`]).
    pub truth: Truth,
    /// `true` if the function is derived (base facts have no chains).
    pub is_derived: bool,
    /// The evidence chains (empty for base facts and for derived facts
    /// with no supporting chains at all).
    pub chains: Vec<ChainEvidence>,
}

impl Database {
    /// Explains the truth value of `f(x) = y`.
    pub fn explain(&self, f: FunctionId, x: &Value, y: &Value) -> Result<Explanation> {
        let truth = self.truth(f, x, y)?;
        if !self.is_derived(f) {
            return Ok(Explanation {
                truth,
                is_derived: false,
                chains: Vec::new(),
            });
        }
        let mut chains = Vec::new();
        let spec = QuerySpec::truth(x, y, true);
        for (di, derivation) in self.derivations(f).iter().enumerate() {
            let (_, outcome) = chains_planned(
                self.store(),
                derivation,
                &spec,
                self.chain_limits(),
                &Ungoverned,
            );
            for chain in outcome.value() {
                let covered = self.covered_by_nc(&chain.facts);
                chains.push(ChainEvidence {
                    derivation: di,
                    facts: chain.facts,
                    matching: chain.matching,
                    flags: chain.flags,
                    covered_by_nc: covered,
                });
            }
        }
        Ok(Explanation {
            truth,
            is_derived: true,
            chains,
        })
    }

    /// Whether some live NC negates the chain of `facts` — the count
    /// evaluation makes, from the NCLs of the chain's rows.
    fn covered_by_nc(&self, facts: &[Fact]) -> bool {
        let store = self.store();
        store
            .nc_coverage(facts.iter().filter_map(|f| store.row_of(f)))
            .covered
    }

    /// Compiles — and executes — the [`fdb_exec::ChainPlan`] each
    /// derivation of `f` would use for the truth query `(x, y)`, reporting
    /// the chosen direction, the planner's estimates, and the actual chain
    /// count, so estimate quality is visible next to the choice it drove.
    /// Base functions take no plan (a single index probe) and report an
    /// empty list.
    pub fn explain_plan(&self, f: FunctionId, x: &Value, y: &Value) -> Result<Vec<PlanReport>> {
        if !self.is_derived(f) {
            return Ok(Vec::new());
        }
        let spec = QuerySpec::truth(x, y, true);
        let mut reports = Vec::new();
        for (di, derivation) in self.derivations(f).iter().enumerate() {
            let (plan, outcome) = chains_planned(
                self.store(),
                derivation,
                &spec,
                self.chain_limits(),
                &Ungoverned,
            );
            reports.push(PlanReport {
                derivation: di,
                rendered: derivation.render(self.schema()),
                direction: plan.direction,
                est_seed_rows: plan.est_seed_rows,
                est_cost: plan.est_cost,
                est_chains: plan.est_chains,
                actual_chains: outcome.value().len(),
            });
        }
        Ok(reports)
    }

    /// `EXPLAIN ANALYZE`: evaluates the truth query `f(x) = y` for real
    /// and reports, per derivation, the plan the cost model chose, the
    /// planner's estimates against the chains actually visited, how
    /// those chains contributed under §3.2 (exact-true vs NC-demoted),
    /// the governor steps the enumeration charged, and wall time.
    pub fn explain_analyze(&self, f: FunctionId, x: &Value, y: &Value) -> Result<AnalyzeReport> {
        let t0 = Instant::now();
        let verdict = self.truth(f, x, y)?;
        if !self.is_derived(f) {
            return Ok(AnalyzeReport {
                verdict,
                is_derived: false,
                derivations: Vec::new(),
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        let spec = QuerySpec::truth(x, y, true);
        let mut derivations = Vec::new();
        for (di, derivation) in self.derivations(f).iter().enumerate() {
            // A fresh unbounded governor per derivation: its step counter
            // is the charge this enumeration would bill a budgeted run.
            let gov = Governor::unbounded();
            let d0 = Instant::now();
            let (plan, outcome) =
                chains_planned(self.store(), derivation, &spec, self.chain_limits(), &gov);
            let elapsed_ns = d0.elapsed().as_nanos() as u64;
            let stop = outcome.reason().map(|r| r.to_string());
            let chains = outcome.value();
            let mut exact_true_chains = 0;
            let mut nc_demoted_chains = 0;
            for c in &chains {
                if c.matching == MatchKind::Exact && c.flags == Truth::True {
                    exact_true_chains += 1;
                } else if self.covered_by_nc(&c.facts) {
                    nc_demoted_chains += 1;
                }
            }
            derivations.push(DerivationAnalysis {
                derivation: di,
                rendered: derivation.render(self.schema()),
                direction: plan.direction,
                est_cost: plan.est_cost,
                est_chains: plan.est_chains,
                actual_chains: chains.len(),
                exact_true_chains,
                nc_demoted_chains,
                governor_steps: gov.steps(),
                stop,
                elapsed_ns,
            });
        }
        Ok(AnalyzeReport {
            verdict,
            is_derived: true,
            derivations,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        })
    }
}

/// The compiled plan of one derivation for a concrete truth query, with
/// the planner's estimates next to the observed chain count.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Which registered derivation (index into
    /// [`Database::derivations`]).
    pub derivation: usize,
    /// The derivation rendered against the schema.
    pub rendered: String,
    /// The direction the cost model chose.
    pub direction: Direction,
    /// Estimated rows examined by the seed step.
    pub est_seed_rows: f64,
    /// Estimated total rows examined.
    pub est_cost: f64,
    /// Estimated chains emitted.
    pub est_chains: f64,
    /// Chains the executor actually emitted for this query.
    pub actual_chains: usize,
}

/// One derivation's share of an [`AnalyzeReport`]: the executed plan
/// with estimates, actuals, §3.2 chain contributions, governor steps
/// and timing.
#[derive(Clone, Debug)]
pub struct DerivationAnalysis {
    /// Which registered derivation (index into
    /// [`Database::derivations`]).
    pub derivation: usize,
    /// The derivation rendered against the schema.
    pub rendered: String,
    /// The direction the cost model chose.
    pub direction: Direction,
    /// Estimated total rows examined.
    pub est_cost: f64,
    /// Estimated chains emitted.
    pub est_chains: f64,
    /// Chains the executor actually emitted.
    pub actual_chains: usize,
    /// Chains that were exact matches of true facts (each proves the
    /// pair under §3.2).
    pub exact_true_chains: usize,
    /// Chains covered by a live NC (negated evidence).
    pub nc_demoted_chains: usize,
    /// Governor steps the enumeration charged — what a budgeted run of
    /// this query would be billed.
    pub governor_steps: u64,
    /// Stop reason if the enumeration was truncated (structural caps).
    pub stop: Option<String>,
    /// Wall time of this derivation's plan + execution, in nanoseconds.
    pub elapsed_ns: u64,
}

/// The result of [`Database::explain_analyze`]: a truth query executed
/// for real, with per-derivation plan/actual evidence.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// The verdict (identical to [`Database::truth`]).
    pub verdict: Truth,
    /// `true` if the function is derived (base facts take no plan).
    pub is_derived: bool,
    /// Per-derivation analyses (empty for base functions).
    pub derivations: Vec<DerivationAnalysis>,
    /// Total wall time including the verdict evaluation, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Renders an explanation for human consumption.
pub fn render_explanation(db: &Database, f: FunctionId, explanation: &Explanation) -> String {
    use std::fmt::Write as _;
    let name = &db.schema().function(f).name;
    let mut out = format!("verdict: {}\n", explanation.truth.flag());
    if !explanation.is_derived {
        let _ = writeln!(
            out,
            "{name} is a base function: the verdict is its stored flag (F if absent)"
        );
        return out;
    }
    if explanation.chains.is_empty() {
        let _ = writeln!(out, "no chain of base facts derives this pair");
        return out;
    }
    for (i, c) in explanation.chains.iter().enumerate() {
        let facts = c
            .facts
            .iter()
            .map(|fact| {
                format!(
                    "<{}, {}, {}> [{}]",
                    db.schema().function(fact.function).name,
                    fact.x,
                    fact.y,
                    db.store().base_truth(fact).flag()
                )
            })
            .collect::<Vec<_>>()
            .join(" . ");
        let m = match c.matching {
            MatchKind::Exact => "exact",
            MatchKind::Ambiguous => "ambiguous (null mismatch)",
            MatchKind::None => "mismatch",
        };
        let nc = if c.covered_by_nc {
            ", negated by an NC"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "chain {}: via derivation {} — {facts} — match: {m}{nc} ⇒ {}",
            i + 1,
            db.derivations(f)[c.derivation].render(db.schema()),
            c.contribution().flag()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{Derivation, Schema, Step};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn university() -> Database {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.register_derived(
            p,
            vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).unwrap()],
        )
        .unwrap();
        db.insert(t, v("euclid"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        db.insert(c, v("math"), v("bill")).unwrap();
        db
    }

    #[test]
    fn true_fact_explained_by_exact_true_chain() {
        let db = university();
        let p = db.resolve("pupil").unwrap();
        let e = db.explain(p, &v("euclid"), &v("john")).unwrap();
        assert_eq!(e.truth, Truth::True);
        assert_eq!(e.chains.len(), 1);
        assert_eq!(e.chains[0].contribution(), Truth::True);
        assert!(!e.chains[0].covered_by_nc);
        let text = render_explanation(&db, p, &e);
        assert!(text.contains("verdict: T"));
        assert!(text.contains("<teach, euclid, math> [T]"));
    }

    #[test]
    fn negated_fact_shows_nc_coverage() {
        let mut db = university();
        let p = db.resolve("pupil").unwrap();
        db.delete(p, &v("euclid"), &v("john")).unwrap();
        let e = db.explain(p, &v("euclid"), &v("john")).unwrap();
        assert_eq!(e.truth, Truth::False);
        assert_eq!(e.chains.len(), 1);
        assert!(e.chains[0].covered_by_nc);
        assert_eq!(e.chains[0].contribution(), Truth::False);
        let text = render_explanation(&db, p, &e);
        assert!(text.contains("negated by an NC"));
        // The sibling fact: ambiguous through the shared ambiguous fact.
        let e = db.explain(p, &v("euclid"), &v("bill")).unwrap();
        assert_eq!(e.truth, Truth::Ambiguous);
        assert!(!e.chains[0].covered_by_nc);
        assert_eq!(e.chains[0].flags, Truth::Ambiguous);
    }

    #[test]
    fn ambiguous_null_match_is_labelled() {
        let mut db = university();
        let p = db.resolve("pupil").unwrap();
        db.insert(p, v("gauss"), v("bill")).unwrap(); // NVC via n1
        let e = db.explain(p, &v("gauss"), &v("john")).unwrap();
        assert_eq!(e.truth, Truth::Ambiguous);
        assert!(e.chains.iter().any(|c| c.matching == MatchKind::Ambiguous));
        let text = render_explanation(&db, p, &e);
        assert!(text.contains("ambiguous (null mismatch)"));
    }

    #[test]
    fn explain_plan_reports_direction_and_estimates() {
        let db = university();
        let p = db.resolve("pupil").unwrap();
        let reports = db.explain_plan(p, &v("euclid"), &v("john")).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.actual_chains, 1);
        assert!(r.est_cost > 0.0);
        assert!(r.rendered.contains("teach"));
        // Base functions take no plan.
        let t = db.resolve("teach").unwrap();
        assert!(db
            .explain_plan(t, &v("euclid"), &v("math"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn base_and_absent_facts_explained() {
        let db = university();
        let t = db.resolve("teach").unwrap();
        let e = db.explain(t, &v("euclid"), &v("math")).unwrap();
        assert!(!e.is_derived);
        assert_eq!(e.truth, Truth::True);
        let p = db.resolve("pupil").unwrap();
        let e = db.explain(p, &v("nobody"), &v("nothing")).unwrap();
        assert_eq!(e.truth, Truth::False);
        assert!(e.chains.is_empty());
        let text = render_explanation(&db, p, &e);
        assert!(text.contains("no chain"));
    }
}
