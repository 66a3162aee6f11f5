//! `fdb-lint` — lint FDBL scripts from the command line.
//!
//! ```text
//! fdb-lint [OPTIONS] FILE...
//!
//!   --format text|json|sarif   output format (default text)
//!   --deny warn                exit 2 (not 1) when warnings remain
//!   --baseline FILE            suppress findings listed in FILE
//!   --write-baseline           regenerate the baseline file and exit
//!   --prune-baseline           drop stale baseline keys and exit
//!   --chain-budget N           FDB030 threshold (default 10000)
//!   --with-store FILE          replay FILE, mine its stored data (FDB05x)
//!
//! exit status: 0 clean, 1 warnings, 2 errors (or warnings under
//! `--deny warn`), 3 usage/IO failure.
//! ```
//!
//! Lines that do not parse become `FDB000` findings rather than aborting
//! the run, so one bad line does not hide the rest of the report.
//! `--with-store` goes one step further than the static passes: the file
//! is *executed* (through the normal engine) and the resulting store is
//! mined for incidental FDs, declared-functionality violations with
//! minimal repairs, and candidate derivations — the data-aware `FDB05x`
//! findings. Baseline keys that no longer match any finding are reported
//! as a note on stderr; `--prune-baseline` rewrites the file without
//! them.

use std::collections::BTreeMap;
use std::process::ExitCode;

use fdb_check::{
    analyze_script, detect_replica_mode, render_content, render_sarif_all, sort_diagnostics,
    summary_line, Baseline, CheckConfig, Code, Diagnostic, Severity,
};
use serde::Content;

struct Options {
    format: Format,
    deny_warn: bool,
    baseline_path: Option<String>,
    write_baseline: bool,
    prune_baseline: bool,
    chain_budget: f64,
    with_store: Option<String>,
    files: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "usage: fdb-lint [--format text|json|sarif] [--deny warn] \
                     [--baseline FILE [--write-baseline | --prune-baseline]] \
                     [--chain-budget N] [--with-store FILE] FILE...";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        deny_warn: false,
        baseline_path: None,
        write_baseline: false,
        prune_baseline: false,
        chain_budget: CheckConfig::default().chain_budget,
        with_store: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                opts.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!("--format expects text|json|sarif, got {other:?}"))
                    }
                }
            }
            "--deny" => match it.next().map(String::as_str) {
                Some("warn") => opts.deny_warn = true,
                other => return Err(format!("--deny expects `warn`, got {other:?}")),
            },
            "--baseline" => match it.next() {
                Some(p) => opts.baseline_path = Some(p.clone()),
                None => return Err("--baseline expects a file path".into()),
            },
            "--write-baseline" => opts.write_baseline = true,
            "--prune-baseline" => opts.prune_baseline = true,
            "--with-store" => match it.next() {
                Some(p) => opts.with_store = Some(p.clone()),
                None => return Err("--with-store expects a file path".into()),
            },
            "--chain-budget" => {
                opts.chain_budget = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|b| b.is_finite() && *b > 0.0)
                    .ok_or("--chain-budget expects a positive number")?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            f if !f.starts_with('-') => opts.files.push(f.to_owned()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.files.is_empty() && opts.with_store.is_none() {
        return Err(USAGE.into());
    }
    if opts.write_baseline && opts.baseline_path.is_none() {
        return Err("--write-baseline requires --baseline FILE".into());
    }
    if opts.prune_baseline && opts.baseline_path.is_none() {
        return Err("--prune-baseline requires --baseline FILE".into());
    }
    if opts.prune_baseline && opts.write_baseline {
        return Err("--prune-baseline and --write-baseline are mutually exclusive".into());
    }
    Ok(opts)
}

/// Extracts the `col N:` prefix the parser puts on its messages, so
/// syntax findings point at the offending column.
fn parse_error_span(line_no: u32, message: &str) -> fdb_types::Span {
    let col = message
        .strip_prefix("col ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse::<u32>().ok())
        .unwrap_or(1);
    fdb_types::Span::new(line_no, col.saturating_sub(1), col)
}

fn lint_file(path: &str, config: &CheckConfig) -> Result<Vec<Diagnostic>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (stmts, parse_errors) = fdb_lang::parse_script(&text, 1);
    // A leading `-- mode: replica` comment turns on the FDB040 lint for
    // this file only: writes here would be refused by a replica engine.
    let config = CheckConfig {
        replica_mode: detect_replica_mode(&text),
        ..config.clone()
    };
    let mut diags = analyze_script(&stmts, &config);
    for (line_no, err) in parse_errors {
        let message = match &err {
            fdb_types::FdbError::Parse { message, .. } => message.clone(),
            other => other.to_string(),
        };
        diags.push(Diagnostic::new(
            Code::Syntax,
            parse_error_span(line_no, &message),
            message,
        ));
    }
    sort_diagnostics(&mut diags);
    Ok(diags)
}

/// Replays `path` through a fresh engine and mines the resulting store:
/// the data-aware half of the linter. Returns the byte-stable report
/// text (printed in text mode, and the CI golden format) plus the
/// `FDB05x` diagnostics, which join the normal finding stream.
fn discover_store(path: &str) -> Result<(String, Vec<Diagnostic>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut engine = fdb_lang::Engine::new();
    for (i, line) in text.lines().enumerate() {
        engine
            .execute_line(line)
            .map_err(|e| format!("{path}:{}: replay failed: {e}", i + 1))?;
    }
    let db = engine.database();
    let derived: BTreeMap<fdb_types::FunctionId, Vec<fdb_types::Derivation>> = db
        .derived_functions()
        .into_iter()
        .map(|f| (f, db.derivations(f).to_vec()))
        .collect();
    let report = fdb_check::discover(db.store(), db.schema(), &derived);
    let mut diags = fdb_check::discovery_diagnostics(&report, db.schema());
    sort_diagnostics(&mut diags);
    Ok((
        fdb_check::render_discovery_text(&report, db.schema()),
        diags,
    ))
}

fn run(args: &[String]) -> Result<u8, String> {
    let opts = parse_args(args)?;
    let config = CheckConfig {
        chain_budget: opts.chain_budget,
        ..CheckConfig::default()
    };

    let mut entries: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    for file in &opts.files {
        entries.push((file.clone(), lint_file(file, &config)?));
    }
    let mut store_report = None;
    if let Some(store) = &opts.with_store {
        let (report_text, diags) = discover_store(store)?;
        store_report = Some(report_text);
        entries.push((store.clone(), diags));
    }

    if opts.write_baseline {
        let path = opts.baseline_path.as_deref().unwrap_or_default();
        let mut baseline = Baseline::default();
        for (file, diags) in &entries {
            baseline.merge(Baseline::from_diagnostics(file, diags));
        }
        std::fs::write(path, baseline.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {} baseline entries to {path}", baseline.len());
        return Ok(0);
    }

    if let Some(path) = &opts.baseline_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut baseline = Baseline::parse(&text);
        // Keys matching none of this run's (pre-filter) findings are
        // stale: the underlying finding was fixed but the suppression
        // lives on, and would silently mask a regression.
        let stale = baseline.stale_keys(&entries);
        if opts.prune_baseline {
            let removed = baseline.remove_keys(&stale);
            std::fs::write(path, baseline.render())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "pruned {removed} stale baseline entries from {path} ({} kept)",
                baseline.len()
            );
            return Ok(0);
        }
        for key in &stale {
            eprintln!("note: stale baseline entry `{key}` (--prune-baseline to drop)");
        }
        for (file, diags) in &mut entries {
            *diags = baseline.filter(file, std::mem::take(diags));
        }
    }

    match opts.format {
        Format::Text => {
            if let Some(report) = &store_report {
                print!("{report}");
            }
            let mut all = Vec::new();
            for (file, diags) in &entries {
                for d in diags {
                    // `render` is multi-line when hints are present:
                    // prefix only the first line with the file.
                    let rendered = d.render();
                    let mut lines = rendered.lines();
                    if let Some(first) = lines.next() {
                        println!("{file}:{first}");
                    }
                    for rest in lines {
                        println!("{rest}");
                    }
                    all.push(d.clone());
                }
            }
            println!("{}", summary_line(&all));
        }
        Format::Json => {
            let tree = Content::Map(
                entries
                    .iter()
                    .map(|(file, diags)| {
                        (
                            Content::Str(file.clone()),
                            Content::Seq(diags.iter().map(Diagnostic::to_content).collect()),
                        )
                    })
                    .collect(),
            );
            println!("{}", render_content(&tree));
        }
        Format::Sarif => println!("{}", render_sarif_all(&entries)),
    }

    let worst = entries
        .iter()
        .flat_map(|(_, diags)| diags.iter())
        .map(Diagnostic::severity)
        .max();
    Ok(match worst {
        Some(Severity::Error) => 2,
        Some(Severity::Warn) => {
            if opts.deny_warn {
                2
            } else {
                1
            }
        }
        _ => 0,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("fdb-lint: {msg}");
            ExitCode::from(3)
        }
    }
}
