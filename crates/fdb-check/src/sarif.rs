//! SARIF 2.1.0 output.
//!
//! Builds a structurally valid [SARIF] log as a hand-constructed content
//! tree, as every JSON this workspace writes is built: one run, one tool
//! driver carrying every `FDB0xx` rule, one `result` per diagnostic with
//! a physical location.
//!
//! [SARIF]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use serde::Content;

use crate::diag::{render_content, Code, Diagnostic};

const SARIF_VERSION: &str = "2.1.0";
const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

fn s(text: &str) -> Content {
    Content::Str(text.to_owned())
}

fn map(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (s(k), v)).collect())
}

fn rule(code: Code) -> Content {
    map(vec![
        ("id", s(code.as_str())),
        ("shortDescription", map(vec![("text", s(code.title()))])),
        (
            "defaultConfiguration",
            map(vec![("level", s(code.severity().sarif_level()))]),
        ),
    ])
}

fn result(artifact: &str, d: &Diagnostic) -> Content {
    let region = map(vec![
        ("startLine", Content::U64(u64::from(d.span.line.max(1)))),
        ("startColumn", Content::U64(u64::from(d.span.col()))),
        ("endColumn", Content::U64(u64::from(d.span.end_col()))),
    ]);
    let location = map(vec![(
        "physicalLocation",
        map(vec![
            ("artifactLocation", map(vec![("uri", s(artifact))])),
            ("region", region),
        ]),
    )]);
    let mut text = d.message.clone();
    if let Some(hint) = &d.hint {
        text.push_str(" (hint: ");
        text.push_str(hint);
        text.push(')');
    }
    map(vec![
        ("ruleId", s(d.code.as_str())),
        ("level", s(d.severity().sarif_level())),
        ("message", map(vec![("text", Content::Str(text))])),
        ("locations", Content::Seq(vec![location])),
    ])
}

/// Renders a SARIF 2.1.0 log for one analyzed artifact (script path as it
/// should appear in `artifactLocation.uri`).
pub fn render_sarif(artifact: &str, diags: &[Diagnostic]) -> String {
    render_sarif_all(&[(artifact.to_owned(), diags.to_vec())])
}

/// Renders one SARIF 2.1.0 log covering several artifacts (one run, one
/// result per finding, locations pointing into each file).
pub fn render_sarif_all(entries: &[(String, Vec<Diagnostic>)]) -> String {
    let driver = map(vec![
        ("name", s("fdb-lint")),
        ("informationUri", s("https://example.invalid/fdb")),
        (
            "rules",
            Content::Seq(Code::ALL.iter().map(|c| rule(*c)).collect()),
        ),
    ]);
    let results: Vec<Content> = entries
        .iter()
        .flat_map(|(file, diags)| diags.iter().map(|d| result(file, d)))
        .collect();
    let run = map(vec![
        ("tool", map(vec![("driver", driver)])),
        ("results", Content::Seq(results)),
    ]);
    let log = map(vec![
        ("$schema", s(SARIF_SCHEMA)),
        ("version", s(SARIF_VERSION)),
        ("runs", Content::Seq(vec![run])),
    ]);
    render_content(&log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::Span;
    use serde::map_get;

    fn get<'a>(c: &'a Content, key: &str) -> &'a Content {
        map_get(c.as_map().expect("object"), key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    #[test]
    fn sarif_log_is_structurally_valid() {
        let diags = vec![
            Diagnostic::new(
                Code::UndefinedFunction,
                Span::new(3, 7, 12),
                "unknown function `teach`",
            )
            .with_hint("DECLARE teach first"),
            Diagnostic::new(Code::Derivable, Span::new(1, 8, 13), "derivable"),
        ];
        let text = render_sarif("scripts/demo.fdb", &diags);
        let log = serde_json::parse(&text).expect("SARIF output is valid JSON");

        assert_eq!(get(&log, "version").as_str(), Some(SARIF_VERSION));
        assert_eq!(get(&log, "$schema").as_str(), Some(SARIF_SCHEMA));

        let runs = get(&log, "runs").as_seq().expect("runs array");
        assert_eq!(runs.len(), 1);
        let driver = get(get(&runs[0], "tool"), "driver");
        assert_eq!(get(driver, "name").as_str(), Some("fdb-lint"));

        let rules = get(driver, "rules").as_seq().expect("rules array");
        assert_eq!(rules.len(), Code::ALL.len());
        let ids: Vec<&str> = rules
            .iter()
            .map(|r| get(r, "id").as_str().expect("rule id"))
            .collect();
        assert!(ids.contains(&"FDB001"));
        assert!(ids.contains(&"FDB018"));
        assert!(ids.contains(&"FDB019"));
        assert!(ids.contains(&"FDB031"));

        let results = get(&runs[0], "results").as_seq().expect("results array");
        assert_eq!(results.len(), 2);
        let r0 = &results[0];
        assert_eq!(get(r0, "ruleId").as_str(), Some("FDB001"));
        assert_eq!(get(r0, "level").as_str(), Some("error"));
        let msg = get(get(r0, "message"), "text").as_str().expect("message");
        assert!(msg.contains("unknown function"));
        assert!(msg.contains("hint"));

        let locs = get(r0, "locations").as_seq().expect("locations");
        let phys = get(&locs[0], "physicalLocation");
        assert_eq!(
            get(get(phys, "artifactLocation"), "uri").as_str(),
            Some("scripts/demo.fdb")
        );
        let region = get(phys, "region");
        assert_eq!(get(region, "startLine"), &Content::U64(3));
        assert_eq!(get(region, "startColumn"), &Content::U64(8));
        assert_eq!(get(region, "endColumn"), &Content::U64(13));
    }

    #[test]
    fn empty_diagnostics_still_produce_a_run() {
        let text = render_sarif("x.fdb", &[]);
        let log = serde_json::parse(&text).expect("valid JSON");
        let runs = get(&log, "runs").as_seq().expect("runs");
        assert_eq!(runs.len(), 1);
        let results = get(&runs[0], "results").as_seq().expect("results");
        assert!(results.is_empty());
    }
}
