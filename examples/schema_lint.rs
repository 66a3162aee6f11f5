//! Offline schema diagnostics — the batch complement to the interactive
//! design aid, now routed through the `fdb-check` analyzer.
//!
//! Runs `fdb_check::analyze_schema` over the paper's two problem schemas
//! and the full §2.3 university schema, printing typed `FDB0xx`
//! diagnostics (alias pairs, derivability suspects) a designer should
//! review, then lints the shipped university *script* end to end with
//! `analyze_script` — the same passes `CHECK` and `fdb-lint` run.
//!
//! ```sh
//! cargo run --example schema_lint
//! ```

use fdb::check::{analyze_schema, analyze_script, render_text, CheckConfig};
use fdb::lang::parse_script;
use fdb::types::{schema_s1, schema_s2, Schema};
use fdb::workload::UNIVERSITY_TRACE;

fn lint_schema(label: &str, schema: &Schema) {
    println!("== {label} ==");
    let diags = analyze_schema(schema, &CheckConfig::default());
    print!("{}", render_text(&diags));
}

fn main() {
    lint_schema("Table 1 (S1)", &schema_s1());

    println!();
    lint_schema("§2.1 counter-example (S2)", &schema_s2());

    println!();
    let mut uni = Schema::new();
    for (n, d, r, f) in UNIVERSITY_TRACE {
        uni.declare(n, d, r, f.parse().expect("trace functionality"))
            .expect("trace declares cleanly");
    }
    lint_schema("full §2.3 university schema", &uni);

    // The same analyzer, whole-script: statements get spans, and the
    // three-valued and cost passes join the schema-design ones.
    println!("\n== examples/scripts/university.fdb, whole-script ==");
    let text =
        std::fs::read_to_string("examples/scripts/university.fdb").expect("shipped script exists");
    let (stmts, errors) = parse_script(&text, 1);
    assert!(errors.is_empty(), "shipped script parses: {errors:?}");
    let diags = analyze_script(&stmts, &CheckConfig::default());
    print!("{}", render_text(&diags));
    println!(
        "\n(the design aid resolves these suspects interactively; see\n `cargo run --example design_aid`)"
    );
}
