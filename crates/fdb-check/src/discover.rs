//! Data-aware discovery: mining stored extensions for incidental
//! functionality, candidate derivations, and minimal cardinality repairs.
//!
//! The paper's Method 2.1 is a designer-interaction loop: the system
//! *proposes* candidate derived functions and functionality constraints
//! and the designer confirms or repairs them. The static passes in this
//! crate look only at the schema and the script text; this module closes
//! the loop by looking at the *data*. For every base function's stored
//! table it mines three kinds of findings:
//!
//! * **Incidental functionality** (FDB050): the extension is
//!   single-valued in a direction the declaration does not guarantee —
//!   a *non-genuine* FD, true today, invalidated by the next violating
//!   write. These feed the AMS advisory pass
//!   ([`fdb_graph::minimal_schema_with_advisory`]) and the planner's
//!   [`fdb_exec::AssumptionSet`].
//! * **Declared-functionality violations** (FDB051): facts the update
//!   machinery would never have admitted (e.g. loaded through a bulk
//!   path) that break a declared constraint. Each violation carries a
//!   *minimal cardinality repair* — the smallest fact set whose deletion
//!   restores the constraint, solved exactly for every declared
//!   functionality ([`minimal_repair`], after Livshits–Kimelfeld–Roy).
//! * **Candidate derivations** (FDB052): the extension of `g` is
//!   reproduced point-for-point by a derivation the catalog's rules
//!   would register for `g` (alias, inverse, or two-step composition),
//!   evaluated through the real chain machinery in `fdb-exec` — a Method
//!   2.1 designer proposal.
//!
//! The whole pass is **read-only** (it never mutates the store — the
//! purity test in `tests/check_data.rs` pins this with mutation-counter
//! deltas) and **deterministic**: for a fixed store the report renders
//! byte-identically (golden test).

use std::collections::{BTreeMap, HashMap, HashSet};

use fdb_storage::{ChainLimits, Store, Table, Truth};
use fdb_types::{
    check_registration, Derivation, FunctionId, Functionality, Schema, Span, Step, Value,
};

use serde::Content;

use crate::diag::{Code, Diagnostic};

/// Minimum live rows before a table's shape is worth reporting
/// (single-row tables satisfy every FD vacuously).
const MIN_SUPPORT: usize = 2;

/// Cap on accepted candidate derivations per function.
const MAX_CANDIDATES: usize = 8;

/// An incidental (non-genuine) FD: the extension is tighter than the
/// declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiscoveredFd {
    /// The function whose table was mined.
    pub function: FunctionId,
    /// Its declared functionality.
    pub declared: Functionality,
    /// The strictly tighter functionality the extension satisfies.
    pub observed: Functionality,
    /// Live rows supporting the observation.
    pub rows: usize,
    /// `Store::function_version` at observation time — the key under
    /// which planner assumptions and cached plans must be registered.
    pub function_version: u64,
}

/// A declared functionality violated by stored facts, with its minimal
/// cardinality repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated function.
    pub function: FunctionId,
    /// Its declared functionality (the constraint being violated).
    pub declared: Functionality,
    /// Number of connected conflict components.
    pub conflict_groups: usize,
    /// Facts whose deletion restores the constraint, sorted by value: a
    /// provable minimum.
    pub repair: Vec<(Value, Value)>,
}

/// A candidate derivation reproducing a base function's extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateDerivation {
    /// The function whose extension is reproduced.
    pub function: FunctionId,
    /// The derivation over other base functions.
    pub derivation: Derivation,
    /// Number of live `True` pairs the derivation reproduced.
    pub matched: usize,
}

/// Everything one discovery pass found, in deterministic order.
#[derive(Clone, Debug, Default)]
pub struct DiscoveryReport {
    /// `Store::version` of the scanned store.
    pub store_version: u64,
    /// Number of base-function tables scanned.
    pub scanned: usize,
    /// Incidental FDs, in function-declaration order.
    pub fds: Vec<DiscoveredFd>,
    /// Declared-functionality violations, in declaration order.
    pub violations: Vec<Violation>,
    /// Candidate derivations, in declaration order of the target.
    pub candidates: Vec<CandidateDerivation>,
    /// Functions AMS classifies derived only when the discovered FDs are
    /// added as advisory edges (never under the declared schema alone).
    pub advisory_derived: Vec<FunctionId>,
}

impl DiscoveryReport {
    /// `true` if nothing was found.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty() && self.violations.is_empty() && self.candidates.is_empty()
    }
}

/// Runs the discovery pass over `store`.
///
/// `derived` maps the functions that are *registered derived* (their
/// derivations, as held by the engine); their tables are skipped — the
/// pass mines base extensions only.
pub fn discover(
    store: &Store,
    schema: &Schema,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
) -> DiscoveryReport {
    fdb_obs::registry().check_discover_runs.inc();
    let mut report = DiscoveryReport {
        store_version: store.version(),
        ..DiscoveryReport::default()
    };

    for def in schema.functions() {
        if derived.contains_key(&def.id) || def.id.index() >= store.table_count() {
            continue;
        }
        let table = store.table(def.id);
        if table.is_empty() {
            continue;
        }
        report.scanned += 1;
        let (functional, injective) = table.single_valuedness();

        // Declared functionality violated: the finding is the violation
        // and its minimal repair. Such a table reports no incidental FD —
        // "observed" would mix a genuine direction with a broken one, and
        // the FD can be re-mined after the repair — and no candidate
        // derivation, which would bake the violation into the schema.
        if (def.functionality.is_functional() && !functional)
            || (def.functionality.is_injective() && !injective)
        {
            let (repair, conflict_groups) = minimal_repair(table, def.functionality);
            report.violations.push(Violation {
                function: def.id,
                declared: def.functionality,
                conflict_groups,
                repair,
            });
            continue;
        }
        if table.len() < MIN_SUPPORT {
            continue;
        }

        // Incidental functionality: tighter than declared.
        let observed = Functionality::from_parts(functional, injective);
        if observed != def.functionality {
            report.fds.push(DiscoveredFd {
                function: def.id,
                declared: def.functionality,
                observed,
                rows: table.len(),
                function_version: store.function_version(def.id),
            });
        }

        // Candidate derivations: those reproducing every true pair.
        let true_pairs: Vec<(&Value, &Value)> = table
            .rows()
            .filter(|r| r.truth == Truth::True)
            .map(|r| (r.x, r.y))
            .collect();
        if true_pairs.len() < MIN_SUPPORT {
            continue;
        }
        let reproduces = |d: &Derivation| {
            true_pairs.iter().all(|&(x, y)| {
                let ders = std::slice::from_ref(d);
                fdb_exec::derived_truth(store, ders, x, y, ChainLimits::default()) == Truth::True
            })
        };
        let found = candidate_shapes(schema, def.id, derived)
            .filter(reproduces)
            .take(MAX_CANDIDATES);
        report
            .candidates
            .extend(found.map(|derivation| CandidateDerivation {
                function: def.id,
                derivation,
                matched: true_pairs.len(),
            }));
    }

    // Advisory AMS: which functions become derivable only once the
    // discovered FDs tighten the graph?
    if !report.fds.is_empty() {
        let advisory: Vec<(FunctionId, Functionality)> = report
            .fds
            .iter()
            .map(|fd| (fd.function, fd.observed))
            .collect();
        let plain = fdb_graph::minimal_schema(schema);
        let tightened = fdb_graph::minimal_schema_with_advisory(
            schema,
            &advisory,
            fdb_graph::PathLimits::default(),
        );
        report.advisory_derived = schema
            .functions()
            .iter()
            .map(|d| d.id)
            .filter(|&f| plain.is_base(f) && !tightened.is_base(f))
            .collect();
    }

    report
}

/// The candidate derivations for `target`: every orientation of one
/// declared function (`f`, then `f^-1`, in declaration order), then every
/// two-step orientation pair (for each `f`, each `g`: `f o g`, `f o
/// g^-1`, `f^-1 o g`, `f^-1 o g^-1`), keeping those the catalog's rules
/// ([`check_registration`]) would register for `target` once its facts
/// are deleted.
fn candidate_shapes<'a>(
    schema: &'a Schema,
    target: FunctionId,
    derived: &'a BTreeMap<FunctionId, Vec<Derivation>>,
) -> impl Iterator<Item = Derivation> + 'a {
    let ids = move || schema.functions().iter().map(|def| def.id);
    let orientations = |f: FunctionId| [Step::identity(f), Step::inverse(f)];
    let one = ids().flat_map(orientations).map(|s| vec![s]);
    let two = ids().flat_map(move |f| {
        ids().flat_map(move |g| {
            orientations(f)
                .into_iter()
                .flat_map(move |sf| orientations(g).map(move |sg| vec![sf, sg]))
        })
    });
    one.chain(two)
        .filter_map(|steps| Derivation::new(steps).ok())
        .filter(move |d| {
            check_registration(schema, derived, target, std::slice::from_ref(d), false).is_ok()
        })
}

/// The minimal cardinality repair of `table` under the `declared`
/// functionality: the fewest live rows whose deletion leaves no two rows
/// in conflict — sharing an `x` under many-one, a `y` under one-many,
/// either under one-one; many-many has no conflicts. Returns the rows to
/// delete, sorted by value, and the number of conflict components.
///
/// Every declared functionality has a polynomial optimum
/// (Livshits–Kimelfeld–Roy, "Computing Optimal Repairs for Functional
/// Dependencies"). A many-one (one-many) component is the rows of one `x`
/// (`y`), and any one of them may stay. A one-one component is a
/// connected piece of the bipartite `x`–`y` graph whose edges are the
/// rows, and the rows that stay are a maximum matching of it.
///
/// Among the optima the repair is the one that deletes the rows of
/// highest index (row order is the table's log order): rows are decided
/// from the highest index down, and a row is deleted whenever some
/// optimum still deletes it given the rows decided before it. For a
/// many-one or one-many component that keeps the lowest-index row.
///
/// Components are collected through the table's `x` and `y` indexes in
/// time linear in the table; a one-one component of `k` rows costs
/// `O(k²)` (at most two augmenting-path searches per matched row).
pub fn minimal_repair(table: &Table, declared: Functionality) -> (Vec<(Value, Value)>, usize) {
    let (by_x, by_y) = (declared.is_functional(), declared.is_injective());
    if !by_x && !by_y {
        return (Vec::new(), 0);
    }
    let row = |i: usize| table.row(i).expect("an indexed row is live");
    let mut seen_x: HashSet<&Value> = HashSet::new();
    let mut seen_y: HashSet<&Value> = HashSet::new();
    let mut deleted: Vec<usize> = Vec::new();
    let mut groups = 0;
    for start in table.live_indices() {
        // A row alone under its keys conflicts with none; a row is in a
        // component already iff one of its keys was expanded.
        let r = row(start);
        let alone = (!by_x || table.x_width(r.x) == 1) && (!by_y || table.y_width(r.y) == 1);
        if alone || (by_x && seen_x.contains(r.x)) || (by_y && seen_y.contains(r.y)) {
            continue;
        }
        // Breadth-first over shared keys; a row may be queued once per key.
        let mut component = vec![start];
        let mut next = 0;
        while let Some(&i) = component.get(next) {
            next += 1;
            let r = row(i);
            if by_x && seen_x.insert(r.x) {
                component.extend(table.rows_with_x(r.x));
            }
            if by_y && seen_y.insert(r.y) {
                component.extend(table.rows_with_y(r.y));
            }
        }
        component.sort_unstable();
        component.dedup();
        if component.len() < 2 {
            continue;
        }
        groups += 1;
        if by_x && by_y {
            let ends = component.iter().map(|&i| {
                let r = row(i);
                (r.x, r.y)
            });
            let kept = Matching::kept(ends);
            deleted.extend(
                component
                    .iter()
                    .zip(kept)
                    .filter(|&(_, k)| !k)
                    .map(|(&i, _)| i),
            );
        } else {
            deleted.extend_from_slice(&component[1..]);
        }
    }
    let mut repair: Vec<(Value, Value)> = deleted
        .into_iter()
        .map(|i| {
            let r = row(i);
            (r.x.clone(), r.y.clone())
        })
        .collect();
    repair.sort();
    (repair, groups)
}

/// A matching of a bipartite graph whose edges are a one-one conflict
/// component's rows. Side 0 is the `x` values, side 1 the `y` values,
/// each numbered densely; `ends[e]` are edge `e`'s two vertices.
struct Matching {
    ends: Vec<[usize; 2]>,
    /// The edges at each vertex, per side.
    at: [Vec<Vec<usize>>; 2],
    /// The matched edge at each vertex, per side.
    mate: [Vec<Option<usize>>; 2],
    /// Edges already decided, deleted or kept: no search steps along one
    /// unmatched, and a kept edge stays matched.
    decided: Vec<bool>,
}

impl Matching {
    /// Which of the edges `ends` (rows in ascending index) a maximum
    /// matching keeps, choosing among the maximum matchings the one that
    /// leaves out the highest-index edges it can (see [`minimal_repair`]).
    fn kept<'t>(ends: impl Iterator<Item = (&'t Value, &'t Value)>) -> Vec<bool> {
        let mut ids: [HashMap<&Value, usize>; 2] = [HashMap::new(), HashMap::new()];
        let mut id = |side: usize, v: &'t Value| {
            let n = ids[side].len();
            *ids[side].entry(v).or_insert(n)
        };
        let ends: Vec<[usize; 2]> = ends.map(|(x, y)| [id(0, x), id(1, y)]).collect();
        let sizes = [ids[0].len(), ids[1].len()];
        let mut at: [Vec<Vec<usize>>; 2] = sizes.map(|n| vec![Vec::new(); n]);
        for (e, &[x, y]) in ends.iter().enumerate() {
            at[0][x].push(e);
            at[1][y].push(e);
        }
        let mut m = Matching {
            decided: vec![false; ends.len()],
            ends,
            at,
            mate: sizes.map(|n| vec![None; n]),
        };
        // A maximum matching: one augmenting-path search per x value.
        for x in 0..sizes[0] {
            m.augment(0, x);
        }
        // The tie-break. Every maximum matching that avoids the edges
        // decided deleted keeps the edges decided kept: each was kept
        // because none avoiding the (fewer) edges deleted then left it out.
        for e in (0..m.ends.len()).rev() {
            m.decided[e] = true;
            let [x, y] = m.ends[e];
            if m.mate[0][x] != Some(e) {
                continue;
            }
            // Unmatched, `e` leaves `x` and `y` free; a path that augments
            // the smaller matching starts at one of them, or it would have
            // augmented the maximum one.
            m.mate[0][x] = None;
            m.mate[1][y] = None;
            if !m.augment(0, x) && !m.augment(1, y) {
                m.mate[0][x] = Some(e);
                m.mate[1][y] = Some(e);
            }
        }
        (0..m.ends.len())
            .map(|e| m.mate[0][m.ends[e][0]] == Some(e))
            .collect()
    }

    /// Searches breadth-first for an augmenting path from the free vertex
    /// `v` of side `a` over edges not decided, and flips it if found.
    fn augment(&mut self, a: usize, v: usize) -> bool {
        let b = 1 - a;
        if self.mate[a][v].is_some() {
            return false;
        }
        // `via[w]`: the edge by which side-b vertex `w` was first reached.
        let mut via: Vec<Option<usize>> = vec![None; self.mate[b].len()];
        let mut queue = vec![v];
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            for &e in &self.at[a][u] {
                let w = self.ends[e][b];
                if self.decided[e] || via[w].is_some() || self.mate[a][u] == Some(e) {
                    continue;
                }
                via[w] = Some(e);
                let Some(m) = self.mate[b][w] else {
                    // `w` is free: flip the path back to `v`.
                    let mut e = e;
                    loop {
                        let [u, w] = [self.ends[e][a], self.ends[e][b]];
                        self.mate[b][w] = Some(e);
                        let Some(p) = self.mate[a][u].replace(e) else {
                            return true;
                        };
                        e = via[self.ends[p][b]].expect("a matched edge on the path was reached");
                    }
                };
                queue.push(self.ends[m][a]);
            }
        }
        false
    }
}

/// Converts a report into FDB05x diagnostics (line-0 spans: discovery
/// findings anchor to the store, not to script text), bumping the
/// `fdb.check.diags_*` counters like every other pass.
pub fn discovery_diagnostics(report: &DiscoveryReport, schema: &Schema) -> Vec<Diagnostic> {
    let span = Span::new(0, 0, 0);
    let name = |f: FunctionId| schema.function(f).name.as_str();
    let mut out: Vec<Diagnostic> = Vec::new();
    for fd in &report.fds {
        let mut d = Diagnostic::new(
            Code::IncidentalFunctionality,
            span,
            format!(
                "`{}` is declared {} but its {} stored rows are {} (non-genuine)",
                name(fd.function),
                fd.declared,
                fd.rows,
                fd.observed
            ),
        );
        if report.advisory_derived.contains(&fd.function) {
            d = d.with_hint(format!(
                "declaring it {} would let AMS classify it derived",
                fd.observed
            ));
        }
        out.push(d);
    }
    for v in &report.violations {
        let facts: Vec<String> = v
            .repair
            .iter()
            .map(|(x, y)| format!("{}({x}, {y})", name(v.function)))
            .collect();
        out.push(
            Diagnostic::new(
                Code::FunctionalityViolated,
                span,
                format!(
                    "`{}` is declared {} but {} conflict group(s) of stored facts violate it",
                    name(v.function),
                    v.declared,
                    v.conflict_groups
                ),
            )
            .with_hint(format!("minimal repair: delete {}", facts.join(", "))),
        );
    }
    for c in &report.candidates {
        out.push(
            Diagnostic::new(
                Code::CandidateDerivation,
                span,
                format!(
                    "the {} stored pairs of `{}` match the derivation `{}`",
                    c.matched,
                    name(c.function),
                    c.derivation.render(schema)
                ),
            )
            .with_hint(format!(
                "DERIVE {} = {}",
                name(c.function),
                c.derivation.render(schema)
            )),
        );
    }
    let reg = fdb_obs::registry();
    for d in &out {
        match d.severity() {
            crate::diag::Severity::Error => reg.check_diags_error.inc(),
            crate::diag::Severity::Warn => reg.check_diags_warn.inc(),
            crate::diag::Severity::Info => reg.check_diags_info.inc(),
        }
    }
    out
}

/// Builds the FDB053 diagnostic for one invalidated planner assumption.
pub fn invalidation_diagnostic(
    schema: &Schema,
    function: FunctionId,
    kind: &str,
    observed_version: u64,
) -> Diagnostic {
    fdb_obs::registry().check_diags_info.inc();
    Diagnostic::new(
        Code::NonGenuineInvalidated,
        Span::new(0, 0, 0),
        format!(
            "non-genuine assumption `{} is {}` (observed at v{}) was invalidated by a base write",
            schema.function(function).name,
            kind,
            observed_version
        ),
    )
    .with_hint("plans and cached results compiled against it were discarded")
}

/// Renders the report as byte-stable plain text (the `DISCOVER` output
/// and the golden-test format).
pub fn render_discovery_text(report: &DiscoveryReport, schema: &Schema) -> String {
    let name = |f: FunctionId| schema.function(f).name.as_str();
    let mut out = format!(
        "discover: store v{}, {} function(s) scanned\n",
        report.store_version, report.scanned
    );
    for fd in &report.fds {
        out.push_str(&format!(
            "fd {}: observed {} (declared {}), {} rows, v{}\n",
            name(fd.function),
            fd.observed,
            fd.declared,
            fd.rows,
            fd.function_version
        ));
    }
    for v in &report.violations {
        out.push_str(&format!(
            "violation {}: declared {}, {} conflict group(s), repair {} fact(s) [exact]\n",
            name(v.function),
            v.declared,
            v.conflict_groups,
            v.repair.len(),
        ));
        for (x, y) in &v.repair {
            out.push_str(&format!("  delete {}({x}, {y})\n", name(v.function)));
        }
    }
    for c in &report.candidates {
        out.push_str(&format!(
            "candidate {} = {} ({} pairs)\n",
            name(c.function),
            c.derivation.render(schema),
            c.matched
        ));
    }
    if !report.advisory_derived.is_empty() {
        let names: Vec<&str> = report.advisory_derived.iter().map(|&f| name(f)).collect();
        out.push_str(&format!("advisory-derived: {}\n", names.join(", ")));
    }
    out.push_str(&format!(
        "discover: {} fd(s), {} violation(s), {} candidate(s)\n",
        report.fds.len(),
        report.violations.len(),
        report.candidates.len()
    ));
    out
}

/// The report as a JSON-ready content tree (the `DISCOVER JSON` output).
pub fn discovery_to_content(report: &DiscoveryReport, schema: &Schema) -> Content {
    let name = |f: FunctionId| Content::Str(schema.function(f).name.clone());
    let fds = report
        .fds
        .iter()
        .map(|fd| {
            Content::Map(vec![
                (Content::Str("function".into()), name(fd.function)),
                (
                    Content::Str("declared".into()),
                    Content::Str(fd.declared.to_string()),
                ),
                (
                    Content::Str("observed".into()),
                    Content::Str(fd.observed.to_string()),
                ),
                (Content::Str("rows".into()), Content::U64(fd.rows as u64)),
                (
                    Content::Str("function_version".into()),
                    Content::U64(fd.function_version),
                ),
            ])
        })
        .collect();
    let violations = report
        .violations
        .iter()
        .map(|v| {
            let repair = v
                .repair
                .iter()
                .map(|(x, y)| {
                    Content::Seq(vec![
                        Content::Str(x.to_string()),
                        Content::Str(y.to_string()),
                    ])
                })
                .collect();
            Content::Map(vec![
                (Content::Str("function".into()), name(v.function)),
                (
                    Content::Str("declared".into()),
                    Content::Str(v.declared.to_string()),
                ),
                (
                    Content::Str("conflict_groups".into()),
                    Content::U64(v.conflict_groups as u64),
                ),
                (Content::Str("repair".into()), Content::Seq(repair)),
                (Content::Str("repair_exact".into()), Content::Bool(true)),
            ])
        })
        .collect();
    let candidates = report
        .candidates
        .iter()
        .map(|c| {
            Content::Map(vec![
                (Content::Str("function".into()), name(c.function)),
                (
                    Content::Str("derivation".into()),
                    Content::Str(c.derivation.render(schema)),
                ),
                (
                    Content::Str("matched".into()),
                    Content::U64(c.matched as u64),
                ),
            ])
        })
        .collect();
    Content::Map(vec![
        (
            Content::Str("store_version".into()),
            Content::U64(report.store_version),
        ),
        (
            Content::Str("scanned".into()),
            Content::U64(report.scanned as u64),
        ),
        (Content::Str("fds".into()), Content::Seq(fds)),
        (Content::Str("violations".into()), Content::Seq(violations)),
        (Content::Str("candidates".into()), Content::Seq(candidates)),
        (
            Content::Str("advisory_derived".into()),
            Content::Seq(report.advisory_derived.iter().map(|&f| name(f)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::schema_s1;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn no_derived() -> BTreeMap<FunctionId, Vec<Derivation>> {
        BTreeMap::new()
    }

    /// S1 store where teach's extension happens to be one-one and
    /// taught_by mirrors it exactly.
    fn s1_store(schema: &Schema) -> Store {
        let mut store = Store::new(schema.len());
        let teach = schema.resolve("teach").unwrap();
        let taught_by = schema.resolve("taught_by").unwrap();
        for (f, c) in [("smith", "cs101"), ("jones", "ma201"), ("lee", "ph301")] {
            store.base_insert(teach, v(f), v(c));
            store.base_insert(taught_by, v(c), v(f));
        }
        store
    }

    #[test]
    fn incidental_fd_detected_on_many_many_table() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let report = discover(&store, &schema, &no_derived());
        let teach = schema.resolve("teach").unwrap();
        let fd = report
            .fds
            .iter()
            .find(|fd| fd.function == teach)
            .expect("teach FD discovered");
        assert_eq!(fd.declared, Functionality::ManyMany);
        assert_eq!(fd.observed, Functionality::OneOne);
        assert_eq!(fd.rows, 3);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn candidate_inverse_derivation_detected() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let report = discover(&store, &schema, &no_derived());
        let taught_by = schema.resolve("taught_by").unwrap();
        assert!(
            report
                .candidates
                .iter()
                .any(|c| c.function == taught_by && c.derivation.render(&schema) == "teach^-1"),
            "taught_by = teach^-1 not proposed: {:?}",
            report
                .candidates
                .iter()
                .map(|c| c.derivation.render(&schema))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn violation_gets_minimal_repair() {
        let schema = schema_s1();
        let mut store = Store::new(schema.len());
        let cutoff = schema.resolve("cutoff").unwrap();
        // cutoff is declared many-one; 90 → both A and B violates it.
        store.base_insert(cutoff, v("90"), v("A"));
        store.base_insert(cutoff, v("90"), v("B"));
        store.base_insert(cutoff, v("80"), v("B"));
        let report = discover(&store, &schema, &no_derived());
        let viol = report
            .violations
            .iter()
            .find(|x| x.function == cutoff)
            .expect("cutoff violation");
        assert_eq!(viol.conflict_groups, 1);
        // Deleting either of the two 90-rows restores the FD; one fact.
        assert_eq!(viol.repair.len(), 1);
        assert_eq!(viol.repair[0].0, v("90"));
        // A violated table proposes no candidate derivations.
        assert!(!report.candidates.iter().any(|c| c.function == cutoff));
    }

    fn table(pairs: &[(&str, &str)]) -> Table {
        let mut table = Table::new();
        for &(x, y) in pairs {
            table.insert(v(x), v(y));
        }
        table
    }

    fn facts(pairs: &[(&str, &str)]) -> Vec<(Value, Value)> {
        pairs.iter().map(|&(x, y)| (v(x), v(y))).collect()
    }

    #[test]
    fn minimal_repair_handles_both_directions() {
        // x-clique of 3 (a→1, a→2, a→3): delete 2 to keep the first.
        let star = table(&[("a", "1"), ("a", "2"), ("a", "3")]);
        let (repair, groups) = minimal_repair(&star, Functionality::ManyOne);
        assert_eq!(groups, 1);
        assert_eq!(repair, facts(&[("a", "2"), ("a", "3")]));

        // Injective-only violation: 1←a, 1←b.
        let pairs = table(&[("a", "1"), ("b", "1")]);
        let (repair, _) = minimal_repair(&pairs, Functionality::OneMany);
        assert_eq!(repair, facts(&[("b", "1")]));

        // No declared direction → nothing to repair.
        let (repair, groups) = minimal_repair(&pairs, Functionality::ManyMany);
        assert!(repair.is_empty() && groups == 0);
    }

    #[test]
    fn one_one_component_of_thirteen_rows_gets_its_optimum() {
        // The path x0 - y0 - x1 - y1 - … - x6 - y6 of 13 rows, its third
        // row logged first. Its one maximum matching keeps the 7 rows
        // (xj, yj), so the optimum deletes the 6 rows (xj+1, yj). Greedy
        // max-degree deletion takes the early middle row (x1, y1) first
        // and ends at 7.
        let row = |i: usize| {
            let j = i / 2;
            (format!("x{}", j + i % 2), format!("y{j}"))
        };
        let mut path = Table::new();
        for i in [2, 0, 1].into_iter().chain(3..13) {
            let (x, y) = row(i);
            path.insert(v(&x), v(&y));
        }
        let (repair, groups) = minimal_repair(&path, Functionality::OneOne);
        assert_eq!(groups, 1);
        let mut optimum: Vec<(Value, Value)> = (0..6)
            .map(|i| row(2 * i + 1))
            .map(|(x, y)| (v(&x), v(&y)))
            .collect();
        optimum.sort();
        assert_eq!(repair, optimum);
    }

    #[test]
    fn candidates_obey_the_functionality_rule() {
        // `pupil` is declared one-one and holds exactly `teach o
        // class_list`, but that composition is many-many: `DERIVE` would
        // refuse it, so discovery does not propose it.
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "one-one")
            .build()
            .unwrap();
        let [teach, class_list, pupil] =
            ["teach", "class_list", "pupil"].map(|f| schema.resolve(f).unwrap());
        let mut store = Store::new(schema.len());
        for (f, c, s) in [("euclid", "math", "john"), ("gauss", "stat", "bill")] {
            store.base_insert(teach, v(f), v(c));
            store.base_insert(class_list, v(c), v(s));
            store.base_insert(pupil, v(f), v(s));
        }
        let report = discover(&store, &schema, &no_derived());
        assert!(
            !report.candidates.iter().any(|c| c.function == pupil),
            "{}",
            render_discovery_text(&report, &schema)
        );
        // Declared many-many, the same table gets the candidate.
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let report = discover(&store, &schema, &no_derived());
        assert!(report
            .candidates
            .iter()
            .any(|c| c.function == pupil && c.derivation.render(&schema) == "teach o class_list"));
    }

    #[test]
    fn candidates_skip_a_target_a_derivation_steps_through() {
        // `teach` and `taught_by` mirror each other, but the derivation
        // of `colleague` steps through `teach`, so `teach` cannot become
        // derived; `taught_by` can.
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("taught_by", "course", "faculty", "many-many")
            .function("colleague", "faculty", "faculty", "many-many")
            .build()
            .unwrap();
        let [teach, taught_by, colleague] =
            ["teach", "taught_by", "colleague"].map(|f| schema.resolve(f).unwrap());
        let mut store = Store::new(schema.len());
        for (f, c) in [("euclid", "math"), ("gauss", "stat")] {
            store.base_insert(teach, v(f), v(c));
            store.base_insert(taught_by, v(c), v(f));
        }
        let mut derived = no_derived();
        derived.insert(
            colleague,
            vec![Derivation::new(vec![Step::identity(teach), Step::inverse(teach)]).unwrap()],
        );
        let report = discover(&store, &schema, &derived);
        assert!(!report.candidates.iter().any(|c| c.function == teach));
        assert!(report.candidates.iter().any(|c| c.function == taught_by));
    }

    #[test]
    fn advisory_derived_surfaces_graph_consequences() {
        // g: a→b many-one, f: a→b many-many with a single-valued
        // extension: with the advisory FD on f, g becomes derivable.
        let schema = Schema::builder()
            .function("g", "a", "b", "many-one")
            .function("f", "a", "b", "many-many")
            .build()
            .unwrap();
        let g = schema.resolve("g").unwrap();
        let f = schema.resolve("f").unwrap();
        let mut store = Store::new(2);
        for i in 0..3 {
            store.base_insert(g, v(&format!("x{i}")), v(&format!("y{i}")));
            store.base_insert(f, v(&format!("x{i}")), v(&format!("y{i}")));
        }
        let report = discover(&store, &schema, &no_derived());
        assert!(report.fds.iter().any(|fd| fd.function == f));
        assert!(report.advisory_derived.contains(&g));
    }

    #[test]
    fn report_renders_deterministically() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let a = render_discovery_text(&discover(&store, &schema, &no_derived()), &schema);
        let b = render_discovery_text(&discover(&store, &schema, &no_derived()), &schema);
        assert_eq!(a, b);
        assert!(a.starts_with("discover: store v"));
        assert!(a.ends_with("candidate(s)\n"));
    }

    #[test]
    fn derived_functions_are_skipped() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let teach = schema.resolve("teach").unwrap();
        let taught_by = schema.resolve("taught_by").unwrap();
        let mut derived = BTreeMap::new();
        derived.insert(taught_by, vec![Derivation::single(Step::inverse(teach))]);
        let report = discover(&store, &schema, &derived);
        assert!(!report.fds.iter().any(|fd| fd.function == taught_by));
        assert!(!report.candidates.iter().any(|c| c.function == taught_by));
    }

    #[test]
    fn empty_store_reports_nothing() {
        let schema = schema_s1();
        let store = Store::new(schema.len());
        let report = discover(&store, &schema, &no_derived());
        assert!(report.is_empty());
        assert_eq!(report.scanned, 0);
    }
}
