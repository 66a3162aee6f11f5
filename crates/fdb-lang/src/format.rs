//! Rendering database state the way the paper prints it.
//!
//! §4.2 prints base tables as quadruple rows (`gauss  n1  T  {}`) and
//! derived extensions with ambiguous facts marked `*` (`laplace john *`).

use std::fmt::Write;

use fdb_core::Database;
use fdb_storage::Truth;
use fdb_types::{FunctionId, Result, Value};

/// Renders the stored table of a base function as the paper does:
/// one `x  y  T/A  {ncs}` row per fact, in insertion order.
pub fn render_base_table(db: &Database, f: FunctionId) -> String {
    let mut out = String::new();
    for row in db.store().table(f).rows() {
        let ncl = row
            .ncl
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "{}  {}  {}  {{{}}}\n",
            row.x,
            row.y,
            row.truth.flag(),
            ncl
        ));
    }
    out
}

/// Renders the computed extension of a derived function: `x y` per line,
/// ambiguous facts marked with a trailing `*` as in the paper's tables.
pub fn render_derived_extension(db: &Database, f: FunctionId) -> Result<String> {
    Ok(render_derived_pairs(&db.extension(f)?))
}

/// Renders already-computed extension pairs (e.g. from a cache) the same
/// way as [`render_derived_extension`], every row straight into one
/// buffer.
pub fn render_derived_pairs(pairs: &[fdb_storage::DerivedPair]) -> String {
    let mut out = String::with_capacity(pairs.len() * 32);
    for p in pairs {
        let end = match p.truth {
            Truth::True => "\n",
            Truth::Ambiguous => "  *\n",
            Truth::False => continue,
        };
        push_value(&mut out, &p.x);
        out.push_str("  ");
        push_value(&mut out, &p.y);
        out.push_str(end);
    }
    out
}

/// Renders the answer of a point query — `QUERY`, `INVERSE`, `EVAL` — as
/// `head = {a, b*, c}`: the members in the given order, the ambiguous
/// ones marked `*`. Everything goes into one buffer, sized from the
/// member count; an image can have hundreds of members.
pub(crate) fn render_set(head: std::fmt::Arguments<'_>, members: &[(Value, Truth)]) -> String {
    let mut out = String::with_capacity(32 + members.len() * 16);
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{head} = {{");
    for (i, (member, truth)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_value(&mut out, member);
        if *truth == Truth::Ambiguous {
            out.push('*');
        }
    }
    out.push_str("}\n");
    out
}

/// Appends `value` as `Display` prints it: an atom's text is copied in,
/// and only a null goes through the formatter.
fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::Atom(atom) => out.push_str(atom.as_str()),
        // Writing to a `String` cannot fail.
        Value::Null(null) => {
            let _ = write!(out, "{null}");
        }
    }
}

/// Renders either kind of function appropriately.
pub fn render_function(db: &Database, f: FunctionId) -> Result<String> {
    if db.is_derived(f) {
        render_derived_extension(db, f)
    } else {
        Ok(render_base_table(db, f))
    }
}

/// Renders the output of `EXPLAIN PLAN f(x, y)`: one line per derivation
/// with the chosen direction and the planner's estimates next to the
/// observed chain count.
pub fn render_plan_reports(
    db: &Database,
    f: FunctionId,
    x: &str,
    y: &str,
    reports: &[fdb_core::PlanReport],
) -> String {
    let name = &db.schema().function(f).name;
    if reports.is_empty() {
        return format!("{name} is a base function: single index probe, no plan\n");
    }
    let mut out = format!("plan for {name}({x}, {y}):\n");
    for r in reports {
        out.push_str(&format!(
            "  derivation {}: {} — direction: {}, est seed rows: {:.1}, est cost: {:.1}, est chains: {:.1}, actual chains: {}\n",
            r.derivation + 1,
            r.rendered,
            r.direction,
            r.est_seed_rows,
            r.est_cost,
            r.est_chains,
            r.actual_chains,
        ));
    }
    out
}

/// Renders the output of `EXPLAIN ANALYZE f(x, y)`. Every timing field
/// is isolated on lines containing the word "time" so tests (and users
/// diffing output) can filter the unstable parts and compare the rest
/// verbatim.
pub fn render_analyze_report(
    db: &Database,
    f: FunctionId,
    x: &str,
    y: &str,
    cache: fdb_exec::CacheProbe,
    report: &fdb_core::AnalyzeReport,
) -> String {
    let name = &db.schema().function(f).name;
    let mut out = format!(
        "analyze {name}({x}, {y}): verdict {}, cache {cache}\n",
        report.verdict.flag()
    );
    if !report.is_derived {
        out.push_str(&format!(
            "  {name} is a base function: single index probe, no plan\n"
        ));
    }
    for r in &report.derivations {
        let stop = match &r.stop {
            Some(reason) => format!(", truncated by {reason}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  derivation {}: {} — direction: {}, est cost: {:.1}, est chains: {:.1}, actual chains: {}, exact true: {}, nc-demoted: {}, governor steps: {}{stop}\n",
            r.derivation + 1,
            r.rendered,
            r.direction,
            r.est_cost,
            r.est_chains,
            r.actual_chains,
            r.exact_true_chains,
            r.nc_demoted_chains,
            r.governor_steps,
        ));
        out.push_str(&format!("    time: {} ns\n", r.elapsed_ns));
    }
    out.push_str(&format!("  total time: {} ns\n", report.elapsed_ns));
    out
}

/// Quotes a value for script output when it is not a bare identifier.
fn script_value(v: &fdb_types::Value) -> String {
    script_word(&v.to_string())
}

/// Quotes a name or value for script output when it is not a bare
/// identifier.
pub(crate) fn script_word(s: &str) -> String {
    let bare = !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '#' | '.' | '-'));
    if bare {
        s.to_owned()
    } else {
        format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// Exports the database as a re-runnable fdb script: `DECLARE` +
/// `DERIVE` statements for the schema, then one `INSERT` per *true*
/// stored fact.
///
/// Partial information — ambiguous facts, NCs, null-valued chains — has
/// no plain-statement representation (it is the product of update
/// *history*, not of inserts), so dumping a database that carries any is
/// refused; use snapshots (`SAVE`/`LOAD`) for full-fidelity persistence.
pub fn dump_script(db: &Database) -> Result<String> {
    let stats = db.stats();
    if stats.ambiguous_facts > 0 || stats.ncs > 0 || stats.null_facts > 0 {
        return Err(fdb_types::FdbError::Internal(
            "cannot DUMP a database with partial information (ambiguous facts, \
             NCs or null chains); use SAVE for a full-fidelity snapshot"
                .into(),
        ));
    }
    let mut out = String::from("-- fdb dump: re-run with SOURCE\n");
    let schema = db.schema();
    for def in schema.functions() {
        out.push_str(&format!(
            "DECLARE {}: {} -> {} ({})\n",
            def.name,
            schema.type_name(def.domain),
            schema.type_name(def.range),
            def.functionality
        ));
    }
    for f in db.derived_functions() {
        let name = &schema.function(f).name;
        for d in db.derivations(f) {
            out.push_str(&format!("DERIVE {name} = {}\n", d.render(schema)));
        }
    }
    for f in db.base_functions() {
        let name = &schema.function(f).name;
        for row in db.store().table(f).rows() {
            out.push_str(&format!(
                "INSERT {name}({}, {})\n",
                script_value(row.x),
                script_value(row.y)
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{Derivation, Schema, Step, Value};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn db() -> Database {
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
        db.insert(t, v("laplace"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        db.insert(c, v("math"), v("bill")).unwrap();
        db
    }

    #[test]
    fn base_table_rendering_matches_paper_shape() {
        let mut database = db();
        let p = database.resolve("pupil").unwrap();
        database.delete(p, &v("euclid"), &v("john")).unwrap();
        let t = database.resolve("teach").unwrap();
        let text = render_base_table(&database, t);
        assert!(text.contains("euclid  math  A  {g1}"));
        assert!(text.contains("laplace  math  T  {}"));
    }

    #[test]
    fn derived_extension_marks_ambiguity_with_star() {
        let mut database = db();
        let p = database.resolve("pupil").unwrap();
        database.delete(p, &v("euclid"), &v("john")).unwrap();
        let text = render_derived_extension(&database, p).unwrap();
        assert!(text.contains("euclid  bill  *"));
        assert!(text.contains("laplace  john  *"));
        assert!(text.contains("laplace  bill\n"));
        assert!(!text.contains("euclid  john"));
    }

    /// Members print as `Display` prints them: atoms inline or shared,
    /// and a null (a base function's slice can hold one) as `n<k>`.
    #[test]
    fn point_answers_and_pairs_print_members_as_display_does() {
        let members = [
            (v("bill"), Truth::True),
            (Value::Null(fdb_types::NullId(7)), Truth::Ambiguous),
            (v("student_with_a_long_name"), Truth::True),
        ];
        assert_eq!(
            render_set(format_args!("teach({})", "x"), &members),
            "teach(x) = {bill, n7*, student_with_a_long_name}\n"
        );
        let pairs: Vec<fdb_storage::DerivedPair> = members
            .iter()
            .map(|(y, truth)| fdb_storage::DerivedPair {
                x: v("x"),
                y: y.clone(),
                truth: *truth,
            })
            .collect();
        assert_eq!(
            render_derived_pairs(&pairs),
            "x  bill\nx  n7  *\nx  student_with_a_long_name\n"
        );
    }

    #[test]
    fn dump_round_trips_through_source() {
        // A clean database dumps to a script that rebuilds it exactly.
        let database = db();
        let script = dump_script(&database).unwrap();
        assert!(script.contains("DECLARE pupil: faculty -> student (many-many)"));
        assert!(script.contains("DERIVE pupil = teach o class_list"));
        assert!(script.contains("INSERT teach(euclid, math)"));

        let mut engine = crate::Engine::new();
        for line in script.lines() {
            engine.execute_line(line).unwrap();
        }
        let rebuilt = engine.database();
        assert_eq!(rebuilt.stats(), database.stats());
        let p = rebuilt.resolve("pupil").unwrap();
        assert_eq!(
            rebuilt.extension(p).unwrap(),
            database
                .extension(database.resolve("pupil").unwrap())
                .unwrap()
        );
    }

    #[test]
    fn dump_refuses_partial_information() {
        let mut database = db();
        let p = database.resolve("pupil").unwrap();
        database.delete(p, &v("euclid"), &v("john")).unwrap();
        assert!(dump_script(&database).is_err());
    }

    #[test]
    fn dump_quotes_non_bare_values() {
        let schema = fdb_types::Schema::builder()
            .function("f", "a", "b", "many-many")
            .build()
            .unwrap();
        let mut database = Database::new(schema);
        let f = database.resolve("f").unwrap();
        database
            .insert(f, Value::atom("Dr. Euclid"), Value::atom("math"))
            .unwrap();
        let script = dump_script(&database).unwrap();
        assert!(script.contains("INSERT f(\"Dr. Euclid\", math)"));
        // And it parses back.
        let mut engine = crate::Engine::new();
        for line in script.lines() {
            engine.execute_line(line).unwrap();
        }
        assert_eq!(engine.database().stats().base_facts, 1);
    }

    #[test]
    fn render_function_dispatches() {
        let database = db();
        let t = database.resolve("teach").unwrap();
        let p = database.resolve("pupil").unwrap();
        assert!(render_function(&database, t).unwrap().contains("T  {}"));
        assert!(render_function(&database, p)
            .unwrap()
            .contains("euclid  john"));
    }
}
