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
//!   restores the constraint, per Livshits/Kimelfeld: exact on small
//!   conflict components (complement of a maximum independent set),
//!   greedy beyond [`DiscoverConfig::exact_repair_limit`].
//! * **Candidate derivations** (FDB052): the extension of `g` is
//!   reproduced point-for-point by a derivation over the *other* base
//!   functions (alias, inverse, or two-step composition), evaluated
//!   through the real chain machinery in `fdb-exec` — a Method 2.1
//!   designer proposal.
//!
//! The whole pass is **read-only** (it never mutates the store — the
//! purity test in `tests/check_data.rs` pins this with mutation-counter
//! deltas) and **deterministic**: for a fixed store the report renders
//! byte-identically (golden test). Like every other analysis in this
//! workspace it runs under a [`fdb_governor::Governor`]; a stopped run
//! returns a typed partial with the findings mined so far.

use std::collections::BTreeMap;

use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
use fdb_storage::{ChainLimits, Store, Truth};
use fdb_types::{Derivation, FunctionId, Functionality, Schema, Span, Step, Value};

use serde::Content;

use crate::diag::{Code, Diagnostic};

/// Tuning knobs for the discovery pass.
#[derive(Clone, Copy, Debug)]
pub struct DiscoverConfig {
    /// Minimum live rows before a table's shape is worth reporting
    /// (single-row tables satisfy every FD vacuously).
    pub min_support: usize,
    /// Conflict components up to this size get an exact minimum repair
    /// (maximum-independent-set complement, `O(2^n)`); larger components
    /// fall back to greedy max-degree deletion. Clamped to 16.
    pub exact_repair_limit: usize,
    /// Cap on accepted candidate derivations per function.
    pub max_candidates: usize,
    /// Chain limits for candidate-derivation truth evaluation.
    pub limits: ChainLimits,
}

impl Default for DiscoverConfig {
    fn default() -> Self {
        DiscoverConfig {
            min_support: 2,
            exact_repair_limit: 12,
            max_candidates: 8,
            limits: ChainLimits::default(),
        }
    }
}

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
    /// Facts whose deletion restores the constraint, sorted by value.
    pub repair: Vec<(Value, Value)>,
    /// `true` if every component was solved exactly (the repair is a
    /// provable minimum); `false` if any fell back to greedy.
    pub repair_exact: bool,
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
    config: &DiscoverConfig,
) -> DiscoveryReport {
    discover_impl(store, schema, derived, config, &Ungoverned).value()
}

/// [`discover`] under a [`Governor`]: a stopped pass returns the findings
/// mined so far (functions are scanned in declaration order, so a partial
/// report is a prefix plus possibly a truncated candidate list).
pub fn discover_governed(
    store: &Store,
    schema: &Schema,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
    config: &DiscoverConfig,
    governor: &Governor,
) -> Outcome<DiscoveryReport> {
    discover_impl(store, schema, derived, config, governor)
}

fn discover_impl<G: Governance>(
    store: &Store,
    schema: &Schema,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
    config: &DiscoverConfig,
    governor: &G,
) -> Outcome<DiscoveryReport> {
    fdb_obs::registry().check_discover_runs.inc();
    let mut report = DiscoveryReport {
        store_version: store.version(),
        ..DiscoveryReport::default()
    };
    let mut stop: Option<StopReason> = None;
    let exact_limit = config.exact_repair_limit.min(16);

    'functions: for def in schema.functions() {
        if let Err(r) = governor.check() {
            stop = Some(r);
            break;
        }
        if derived.contains_key(&def.id) || def.id.index() >= store.table_count() {
            continue;
        }
        let table = store.table(def.id);
        let rows: Vec<(&Value, &Value)> = table.rows().map(|r| (r.x, r.y)).collect();
        if rows.is_empty() {
            continue;
        }
        report.scanned += 1;
        let (functional, injective) = table.single_valuedness();
        let viol_functional = def.functionality.is_functional() && !functional;
        let viol_injective = def.functionality.is_injective() && !injective;

        // Incidental functionality: tighter than declared, enough rows to
        // be more than vacuous. A violated table never reports one — its
        // extension contradicts the declaration, so "observed" would mix a
        // genuine direction with a broken one; the violation (below) is
        // the finding, and the FD can be re-mined after the repair.
        if !(viol_functional || viol_injective) && rows.len() >= config.min_support {
            let observed = Functionality::from_parts(functional, injective);
            if observed != def.functionality {
                report.fds.push(DiscoveredFd {
                    function: def.id,
                    declared: def.functionality,
                    observed,
                    rows: rows.len(),
                    function_version: store.function_version(def.id),
                });
            }
        }

        // Declared functionality violated: compute the minimal repair.
        if viol_functional || viol_injective {
            let owned: Vec<(Value, Value)> =
                rows.iter().map(|&(x, y)| (x.clone(), y.clone())).collect();
            let (repair, exact, groups) = minimal_repair(
                &owned,
                def.functionality.is_functional(),
                def.functionality.is_injective(),
                exact_limit,
            );
            report.violations.push(Violation {
                function: def.id,
                declared: def.functionality,
                conflict_groups: groups,
                repair,
                repair_exact: exact,
            });
        }

        // Candidate derivations: only for consistent extensions with
        // support (proposing a derivation for a violated table would bake
        // the violation into the schema).
        if viol_functional || viol_injective || rows.len() < config.min_support {
            continue;
        }
        let true_pairs: Vec<(&Value, &Value)> = table
            .rows()
            .filter(|r| r.truth == Truth::True)
            .map(|r| (r.x, r.y))
            .collect();
        if true_pairs.len() < config.min_support {
            continue;
        }
        let mut accepted = 0usize;
        for cand in candidate_shapes(schema, def.id, derived) {
            if accepted >= config.max_candidates {
                break;
            }
            if let Err(r) = governor.check() {
                stop = Some(r);
                break 'functions;
            }
            let all_reproduced = true_pairs.iter().all(|&(x, y)| {
                fdb_exec::derived_truth(store, std::slice::from_ref(&cand), x, y, config.limits)
                    == Truth::True
            });
            if all_reproduced {
                report.candidates.push(CandidateDerivation {
                    function: def.id,
                    derivation: cand,
                    matched: true_pairs.len(),
                });
                accepted += 1;
            }
        }
    }

    // Advisory AMS: which functions become derivable only once the
    // discovered FDs tighten the graph?
    if !report.fds.is_empty() && stop.is_none() {
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

    Outcome::new(report, stop)
}

/// Enumerates the type-compatible candidate derivations for `target`:
/// single-step aliases and inverses over other base functions, then all
/// two-step identity/inverse compositions, in declaration order.
fn candidate_shapes(
    schema: &Schema,
    target: FunctionId,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
) -> Vec<Derivation> {
    let def = schema.function(target);
    let base: Vec<_> = schema
        .functions()
        .iter()
        .filter(|d| d.id != target && !derived.contains_key(&d.id))
        .collect();
    let mut out: Vec<Derivation> = Vec::new();
    // Length 1: alias (same orientation) and inverse.
    for f in &base {
        if f.domain == def.domain && f.range == def.range {
            out.push(Derivation::single(Step::identity(f.id)));
        }
        if f.domain == def.range && f.range == def.domain {
            out.push(Derivation::single(Step::inverse(f.id)));
        }
    }
    // Length 2: every orientation pair that chains domain → mid → range.
    for f in &base {
        for g in &base {
            for (sf, f_from, f_to) in orientations(f.id, f.domain, f.range) {
                if f_from != def.domain {
                    continue;
                }
                for (sg, g_from, g_to) in orientations(g.id, g.domain, g.range) {
                    if g_from == f_to && g_to == def.range {
                        if let Ok(d) = Derivation::new(vec![sf, sg]) {
                            out.push(d);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The two traversal orientations of a function edge, as `(step, from,
/// to)` triples.
fn orientations(
    f: FunctionId,
    domain: fdb_types::TypeId,
    range: fdb_types::TypeId,
) -> [(Step, fdb_types::TypeId, fdb_types::TypeId); 2] {
    [
        (Step::identity(f), domain, range),
        (Step::inverse(f), range, domain),
    ]
}

/// Computes a minimal cardinality repair of `pairs` under the declared
/// single-valuedness directions: the smallest index set whose deletion
/// leaves no two remaining pairs in conflict (same `x`, different `y`
/// when `functional`; same `y`, different `x` when `injective`).
///
/// Returns `(deleted pairs sorted by value, exact, conflict components)`.
/// Components of size ≤ `exact_limit` are solved exactly as the
/// complement of a maximum independent set of the component's conflict
/// graph (deterministic: the lexicographically-first optimum by ascending
/// bitmask); larger components are repaired greedily by repeated
/// max-conflict-degree deletion (lowest index wins ties) and flip the
/// `exact` flag to `false`.
pub fn minimal_repair(
    pairs: &[(Value, Value)],
    functional: bool,
    injective: bool,
    exact_limit: usize,
) -> (Vec<(Value, Value)>, bool, usize) {
    let n = pairs.len();
    let conflicts = |i: usize, j: usize| -> bool {
        let (xi, yi) = &pairs[i];
        let (xj, yj) = &pairs[j];
        (functional && xi == xj && yi != yj) || (injective && yi == yj && xi != xj)
    };

    // Connected components of the conflict graph via union-find over the
    // shared-x / shared-y groups (O(n²) edge scan is fine at table scale;
    // the exact solver below dominates anyway).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = i;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if conflicts(i, j) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        components.entry(root).or_default().push(i);
    }

    let mut deleted: Vec<usize> = Vec::new();
    let mut exact = true;
    let mut groups = 0usize;
    for comp in components.values() {
        let has_conflict = comp
            .iter()
            .enumerate()
            .any(|(a, &i)| comp[a + 1..].iter().any(|&j| conflicts(i, j)));
        if !has_conflict {
            continue;
        }
        groups += 1;
        let k = comp.len();
        if k <= exact_limit {
            // Exact: maximum independent set by exhaustive bitmask. The
            // first best mask in ascending order is kept, which makes the
            // repair deterministic.
            let mut edges: Vec<u32> = vec![0; k];
            for a in 0..k {
                for b in (a + 1)..k {
                    if conflicts(comp[a], comp[b]) {
                        edges[a] |= 1 << b;
                        edges[b] |= 1 << a;
                    }
                }
            }
            let mut best_mask: u32 = 0;
            let mut best_size: u32 = 0;
            for mask in 0u32..(1 << k) {
                if mask.count_ones() <= best_size {
                    continue;
                }
                let independent = (0..k).all(|a| mask & (1 << a) == 0 || mask & edges[a] == 0);
                if independent {
                    best_mask = mask;
                    best_size = mask.count_ones();
                }
            }
            for (a, &i) in comp.iter().enumerate() {
                if best_mask & (1 << a) == 0 {
                    deleted.push(i);
                }
            }
        } else {
            // Greedy: delete the max-conflict-degree vertex until the
            // component is conflict-free.
            exact = false;
            let mut alive: Vec<usize> = comp.clone();
            loop {
                let mut degrees: Vec<usize> = alive
                    .iter()
                    .map(|&i| alive.iter().filter(|&&j| j != i && conflicts(i, j)).count())
                    .collect();
                let Some((pos, &max_deg)) = degrees
                    .iter()
                    .enumerate()
                    .max_by_key(|&(pos, &d)| (d, std::cmp::Reverse(pos)))
                else {
                    break;
                };
                if max_deg == 0 {
                    break;
                }
                deleted.push(alive.remove(pos));
                degrees.clear();
            }
        }
    }

    let mut out: Vec<(Value, Value)> = deleted.into_iter().map(|i| pairs[i].clone()).collect();
    out.sort();
    (out, exact, groups)
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
        let method = if v.repair_exact { "minimal" } else { "greedy" };
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
            .with_hint(format!("{} repair: delete {}", method, facts.join(", "))),
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
            "violation {}: declared {}, {} conflict group(s), repair {} fact(s) [{}]\n",
            name(v.function),
            v.declared,
            v.conflict_groups,
            v.repair.len(),
            if v.repair_exact { "exact" } else { "greedy" }
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
                (
                    Content::Str("repair_exact".into()),
                    Content::Bool(v.repair_exact),
                ),
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
        let report = discover(&store, &schema, &no_derived(), &DiscoverConfig::default());
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
        let report = discover(&store, &schema, &no_derived(), &DiscoverConfig::default());
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
        let report = discover(&store, &schema, &no_derived(), &DiscoverConfig::default());
        let viol = report
            .violations
            .iter()
            .find(|x| x.function == cutoff)
            .expect("cutoff violation");
        assert!(viol.repair_exact);
        assert_eq!(viol.conflict_groups, 1);
        // Deleting either of the two 90-rows restores the FD; one fact.
        assert_eq!(viol.repair.len(), 1);
        assert_eq!(viol.repair[0].0, v("90"));
        // A violated table proposes no candidate derivations.
        assert!(!report.candidates.iter().any(|c| c.function == cutoff));
    }

    #[test]
    fn minimal_repair_handles_both_directions() {
        // x-clique of 3 (a→1, a→2, a→3): delete 2 to keep 1.
        let pairs: Vec<(Value, Value)> = vec![(v("a"), v("1")), (v("a"), v("2")), (v("a"), v("3"))];
        let (repair, exact, groups) = minimal_repair(&pairs, true, false, 16);
        assert!(exact);
        assert_eq!(groups, 1);
        assert_eq!(repair.len(), 2);

        // Injective-only violation: 1←a, 1←b.
        let pairs: Vec<(Value, Value)> = vec![(v("a"), v("1")), (v("b"), v("1"))];
        let (repair, exact, _) = minimal_repair(&pairs, false, true, 16);
        assert!(exact);
        assert_eq!(repair.len(), 1);

        // No declared direction → nothing to repair.
        let (repair, exact, groups) = minimal_repair(&pairs, false, false, 16);
        assert!(repair.is_empty() && exact && groups == 0);
    }

    #[test]
    fn greedy_fallback_still_repairs() {
        // A star of 9 conflicting facts with exact_limit 4 forces greedy.
        let pairs: Vec<(Value, Value)> = (0..9).map(|i| (v("hub"), v(&format!("y{i}")))).collect();
        let (repair, exact, groups) = minimal_repair(&pairs, true, false, 4);
        assert!(!exact);
        assert_eq!(groups, 1);
        assert_eq!(repair.len(), 8, "greedy must still fully repair");
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
        let report = discover(&store, &schema, &no_derived(), &DiscoverConfig::default());
        assert!(report.fds.iter().any(|fd| fd.function == f));
        assert!(report.advisory_derived.contains(&g));
    }

    #[test]
    fn report_renders_deterministically() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let cfg = DiscoverConfig::default();
        let a = render_discovery_text(&discover(&store, &schema, &no_derived(), &cfg), &schema);
        let b = render_discovery_text(&discover(&store, &schema, &no_derived(), &cfg), &schema);
        assert_eq!(a, b);
        assert!(a.starts_with("discover: store v"));
        assert!(a.ends_with("candidate(s)\n"));
    }

    #[test]
    fn governed_discovery_returns_typed_partial() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let governor = Governor::unbounded();
        governor.cancel_token().cancel();
        let out = discover_governed(
            &store,
            &schema,
            &no_derived(),
            &DiscoverConfig::default(),
            &governor,
        );
        assert!(!out.is_complete());
        assert_eq!(out.reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn derived_functions_are_skipped() {
        let schema = schema_s1();
        let store = s1_store(&schema);
        let teach = schema.resolve("teach").unwrap();
        let taught_by = schema.resolve("taught_by").unwrap();
        let mut derived = BTreeMap::new();
        derived.insert(taught_by, vec![Derivation::single(Step::inverse(teach))]);
        let report = discover(&store, &schema, &derived, &DiscoverConfig::default());
        assert!(!report.fds.iter().any(|fd| fd.function == taught_by));
        assert!(!report.candidates.iter().any(|c| c.function == taught_by));
    }

    #[test]
    fn empty_store_reports_nothing() {
        let schema = schema_s1();
        let store = Store::new(schema.len());
        let report = discover(&store, &schema, &no_derived(), &DiscoverConfig::default());
        assert!(report.is_empty());
        assert_eq!(report.scanned, 0);
    }
}
