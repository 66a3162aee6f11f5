//! `CHECK` cites the session's own `line:col`: every `execute_line` call
//! is one session line — failed, blank and comment lines, a `SOURCE` and
//! each line it runs, at any nesting depth — and every diagnostic anchors
//! to the line its statement had in that count.

use fdb::lang::Engine;

#[test]
fn diagnostics_cite_session_lines_across_failures_and_nested_sources() {
    let tmp = std::env::temp_dir().join(format!("fdb_check_session_{}", std::process::id()));
    let (outer, inner) = (
        tmp.with_extension("outer.fdb"),
        tmp.with_extension("inner.fdb"),
    );
    std::fs::write(
        &inner,
        "DECLARE pupil: faculty -> student (many-many)\n\
         DERIVE pupil = teach o class_list\n\
         INSERT teach(euclid, math)\n",
    )
    .unwrap();
    std::fs::write(
        &outer,
        format!(
            "-- sourced at session line 6; this comment is line 7\n\
             DECLARE class_list: course -> student (many-many)\n\
             SOURCE \"{}\"\n\
             INSERT class_list(math, john)\n\
             INSERT class_list(math, bill)\n",
            inner.display()
        ),
    )
    .unwrap();
    let mut e = Engine::new();
    let mut failed = Vec::new();
    for (i, line) in [
        "-- a comment",
        "DECLARE teach: faculty -> course (many-many)",
        "",
        "GIBBERISH",
        "INSERT ghost(a, b)",
        &format!("SOURCE \"{}\"", outer.display()),
        "DELETE pupil(euclid, john)",
        "  TRUTH pupil(euclid, bill)  -- indented: the name is at col 9",
        "INSERT teach(gauss, algebra)",
        "DELETE teach(gauss, algebra)",
        "BEGIN",
        "DECLARE advises: faculty -> student (many-many)",
        "COMMIT",
    ]
    .iter()
    .enumerate()
    {
        if e.execute_line(line).is_err() {
            failed.push(i + 1);
        }
    }
    std::fs::remove_file(&outer).ok();
    std::fs::remove_file(&inner).ok();
    assert_eq!(failed, [4, 5]);
    assert_eq!(
        e.execute_line("CHECK").unwrap(),
        "consistent\n\
FDB010 info 2:9: function `teach` is syntactically derivable from the rest of the schema\n  \
hint: under the Unique Form Assumption this function is derived; DERIVE it or drop it from the conceptual schema\n\
FDB010 info 8:9: function `class_list` is syntactically derivable from the rest of the schema\n  \
hint: under the Unique Form Assumption this function is derived; DERIVE it or drop it from the conceptual schema\n\
FDB031 info 10:9: `pupil` closes a cycle in the function graph (faculty and student were already connected)\n  \
hint: without the Unique Form Assumption, cycle analysis can be exponential; run the design aid to decide which edge is derived\n\
FDB020 warn 16:9: truth of `pupil(euclid, bill)` is guaranteed ambiguous\n  \
hint: a derived DELETE placed this fact in a negated conjunction; RESOLVE or re-INSERT to disambiguate\n\
FDB023 warn 18:8: `teach(gauss, algebra)` was inserted at line 17 and is deleted here without ever being read\n  \
hint: drop both statements, or query the fact in between\n\
FDB010 info 20:9: function `advises` is syntactically derivable from the rest of the schema\n  \
hint: under the Unique Form Assumption this function is derived; DERIVE it or drop it from the conceptual schema\n\
FDB031 info 20:9: `advises` closes a cycle in the function graph (faculty and student were already connected)\n  \
hint: without the Unique Form Assumption, cycle analysis can be exponential; run the design aid to decide which edge is derived\n\
check: 0 errors, 2 warnings, 5 infos\n"
    );
}
