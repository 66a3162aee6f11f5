//! Cross-crate, engine-level property tests: random update streams driven
//! through the full stack must preserve consistency, snapshot round-trip
//! fidelity (bytes and structure, and against damaged bytes; the legacy
//! JSON form is held to recorded bytes in `legacy_snapshots.rs`),
//! WAL-replay equivalence and transaction
//! atomicity; the language engine's three derived reads must agree
//! with each other and with the database after every statement of a
//! random script; and a session's `CHECK` is `fdb-lint` of the lines
//! that ran.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::check::{analyze_script, CheckConfig};
use fdb::core::{replay, resolve_ambiguities, Budget, Database, Governor, LogRecord, Update, Wal};
use fdb::lang::format::render_derived_pairs;
use fdb::lang::{parse_script, Engine};
use fdb::storage::Truth;
use fdb::types::FdbError;
use fdb::types::{Derivation, Schema, Step, Value};
use fdb::workload::{update_stream, UpdateStreamConfig};

mod common;

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
    db
}

/// `grade = score o cutoff` with both steps many-one: the functional
/// dependencies let `resolve_ambiguities` substitute nulls.
fn grading() -> Database {
    let schema = Schema::builder()
        .function("score", "student", "marks", "many-one")
        .function("cutoff", "marks", "letter", "many-one")
        .function("grade", "student", "letter", "many-one")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let (s, c, g) = (
        db.resolve("score").unwrap(),
        db.resolve("cutoff").unwrap(),
        db.resolve("grade").unwrap(),
    );
    db.register_derived(
        g,
        vec![Derivation::new(vec![Step::identity(s), Step::identity(c)]).unwrap()],
    )
    .unwrap();
    db
}

fn stream_for(db: &Database, seed: u64, length: usize) -> Vec<Update> {
    update_stream(
        db,
        UpdateStreamConfig {
            length,
            domain_size: 5,
            derived_pct: 40,
            delete_pct: 45,
            seed,
        },
    )
}

/// Every (x, y) pair of the small value domain, for truth-table probing.
fn probe_pairs(db: &Database) -> Vec<(Value, Value)> {
    let _ = db;
    let mut out = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            out.push((
                Value::atom(format!("faculty#{i}")),
                Value::atom(format!("student#{j}")),
            ));
        }
    }
    out
}

/// One random statement over a 3-value domain per type: base and
/// derived updates, a second derivation for `pupil`, transaction control
/// and the three derived reads.
fn random_statement(rng: &mut StdRng) -> String {
    let (f, c, s) = (
        format!("f{}", rng.gen_range(0..3)),
        format!("c{}", rng.gen_range(0..3)),
        format!("s{}", rng.gen_range(0..3)),
    );
    let verb = if rng.gen_range(0..3) == 0 {
        "DELETE"
    } else {
        "INSERT"
    };
    match rng.gen_range(0..20) {
        0..=3 => format!("{verb} teach({f}, {c})"),
        4..=7 => format!("{verb} class_list({c}, {s})"),
        8..=9 => format!("{verb} advises({f}, {s})"),
        10..=11 => format!("{verb} pupil({f}, {s})"),
        12 => "DERIVE pupil = advises".to_owned(),
        13 => "BEGIN".to_owned(),
        14 => "SAVEPOINT sp".to_owned(),
        15 => "ROLLBACK TO sp".to_owned(),
        16 => "ABORT".to_owned(),
        17 => "COMMIT".to_owned(),
        18 => format!("TRUTH pupil({f}, {s})"),
        _ => "SHOW pupil".to_owned(),
    }
}

/// Asserts that `TRUTH`, `QUERY` and `SHOW` of `pupil` say what the
/// engine's database says, for every pair of the domain.
fn assert_reads_agree(e: &mut Engine, context: &str) {
    let pupil = e.database().resolve("pupil").unwrap();
    let extension = e.database().extension(pupil).unwrap();
    assert_eq!(
        e.execute_line("SHOW pupil").unwrap(),
        render_derived_pairs(&extension),
        "SHOW pupil {context}"
    );
    for i in 0..3 {
        let x = format!("f{i}");
        let image = e.execute_line(&format!("QUERY pupil({x})")).unwrap();
        let members: Vec<&str> = image
            .trim_end()
            .trim_end_matches('}')
            .rsplit('{')
            .next()
            .unwrap()
            .split(", ")
            .collect();
        for j in 0..3 {
            let y = format!("s{j}");
            let want = e
                .database()
                .truth(pupil, &Value::atom(&x), &Value::atom(&y))
                .unwrap();
            let flag = e.execute_line(&format!("TRUTH pupil({x}, {y})")).unwrap();
            assert_eq!(
                flag.trim_end(),
                want.flag().to_string(),
                "TRUTH pupil({x}, {y}) {context}"
            );
            let listed = match want {
                Truth::True => members.contains(&y.as_str()),
                Truth::Ambiguous => members.contains(&format!("{y}*").as_str()),
                Truth::False => !members.iter().any(|m| m.trim_end_matches('*') == y),
            };
            assert!(
                listed,
                "QUERY pupil({x}) = {image:?} but pupil({x}, {y}) is {want:?} {context}"
            );
        }
    }
}

/// One random line of a session: every statement kind the analyzer
/// models, over functions that may or may not be declared (or derived,
/// or populated) by then, transaction control wherever it falls, lines
/// that do not parse, blanks and comments.
fn random_session_line(rng: &mut StdRng) -> String {
    let (f, c, s) = (
        format!("f{}", rng.gen_range(0..3)),
        format!("c{}", rng.gen_range(0..3)),
        format!("s{}", rng.gen_range(0..3)),
    );
    let verb = ["INSERT", "INSERT", "DELETE"][rng.gen_range(0..3usize)];
    let student_of = ["pupil", "advises", "mentor", "ghost"][rng.gen_range(0..4usize)];
    let savepoint = ["a", "b"][rng.gen_range(0..2usize)];
    match rng.gen_range(0..40) {
        0 => "DECLARE mentor: faculty -> student (many-many)".to_owned(),
        1 => "DECLARE office: faculty -> room (many-many)".to_owned(),
        2 => "DERIVE pupil = advises".to_owned(),
        3 => "DERIVE mentor = teach o class_list".to_owned(),
        4 => "DERIVE mentor = teach".to_owned(),
        5..=7 => format!("{verb} teach({f}, {c})"),
        8..=10 => format!("{verb} class_list({c}, {s})"),
        11..=14 => format!("{verb} {student_of}({f}, {s})"),
        15 => format!("REPLACE teach({f}, {c}) WITH ({f}, c9)"),
        16 => format!("  TRUTH {student_of}({f}, {s})  -- indented, with a comment"),
        17 => format!("TRUTH teach({f}, {c})"),
        18 => format!("QUERY {student_of}({f})"),
        19 => format!("INVERSE {student_of}({s})"),
        20 => format!("SHOW {student_of}"),
        21 => format!("DERIVATIONS {student_of}"),
        22 => format!("EVAL {f} : teach o class_list"),
        23 => format!("EXPLAIN {student_of}({f}, {s})"),
        24 => format!("EXPLAIN PLAN {student_of}({f}, {s})"),
        25 => format!("EXPLAIN ANALYZE {student_of}({f}, {s})"),
        26 => "RESOLVE".to_owned(),
        27..=28 => "BEGIN".to_owned(),
        29..=30 => format!("SAVEPOINT {savepoint}"),
        31..=32 => format!("ROLLBACK TO {savepoint}"),
        33 => "ABORT".to_owned(),
        34..=35 => "COMMIT".to_owned(),
        36 => "SCHEMA".to_owned(),
        37 => "GIBBERISH".to_owned(),
        38 => "-- a note".to_owned(),
        _ => "   ".to_owned(),
    }
}

/// An engine and the text `fdb-lint` should read to say what the
/// engine's `CHECK` says: every line that ran, a failed line emptied, a
/// `SOURCE` line empty before the lines it ran.
struct LintedSession {
    engine: Engine,
    lines: String,
}

impl LintedSession {
    fn run(&mut self, line: &str) {
        if self.engine.execute_line(line).is_ok() {
            self.lines.push_str(line);
        }
        self.lines.push('\n');
    }

    /// `SOURCE`s a file of `ok` lines that run whatever the state, then
    /// (if `fails`) one that does not and one that is never reached.
    fn source(&mut self, path: &std::path::Path, ok: &[&str], fails: bool) {
        let mut file = ok.join("\n");
        if fails {
            file.push_str("\nINSERT ghost(a, b)\nINSERT teach(never, reached)");
        }
        std::fs::write(path, file).unwrap();
        let result = self
            .engine
            .execute_line(&format!("SOURCE \"{}\"", path.display()));
        std::fs::remove_file(path).ok();
        assert_eq!(result.is_err(), fails, "{result:?}");
        self.lines.push('\n');
        for line in ok {
            self.lines.push_str(line);
            self.lines.push('\n');
        }
        if fails {
            self.lines.push('\n');
        }
    }

    /// Stops a write inside the open transaction with an expired
    /// deadline: the line reads as the rollback the engine ran.
    fn governed_stop(&mut self) {
        let db = self.engine.database();
        assert!(db.txn_active());
        let ran = match db.txn_last_savepoint() {
            Some(name) => format!("ROLLBACK TO {name}"),
            None => "ABORT".to_owned(),
        };
        self.engine
            .set_statement_deadline(Some(Duration::from_millis(0)));
        let err = self
            .engine
            .execute_line("INSERT teach(f0, c0)")
            .unwrap_err();
        self.engine.set_statement_deadline(None);
        assert!(matches!(err, FdbError::TxnAborted { .. }), "{err}");
        self.lines.push_str(&ran);
        self.lines.push('\n');
    }

    fn assert_check_is_lint(&self, context: &str) {
        let (stmts, errors) = parse_script(&self.lines, 1);
        assert!(errors.is_empty(), "{errors:?} {context}");
        assert_eq!(
            self.engine.analyze(),
            analyze_script(&stmts, &CheckConfig::default()),
            "{context}\n{}",
            self.lines
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine keeps the text of what it ran and `CHECK` lints it, so
    /// the session's diagnostics — codes, messages and `line:col` — are
    /// `fdb-lint`'s on the same lines, rollbacks included: the analyzer
    /// is the only model of them.
    #[test]
    fn session_check_is_lint_of_the_lines_that_ran(
        seed in 0u64..10_000,
        before in 0usize..40,
        after in 0usize..25,
        source_fails in 0usize..2,
    ) {
        let mut session = LintedSession { engine: Engine::new(), lines: String::new() };
        for line in [
            "DECLARE teach: faculty -> course (many-many)",
            "DECLARE class_list: course -> student (many-many)",
            "DECLARE advises: faculty -> student (many-many)",
            "DECLARE pupil: faculty -> student (many-many)",
            "DERIVE pupil = teach o class_list",
        ] {
            session.run(line);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..before {
            session.run(&random_session_line(&mut rng));
        }
        let path = std::env::temp_dir()
            .join(format!("fdb_prop_lint_{}_{seed}_{before}.fdb", std::process::id()));
        session.source(
            &path,
            &[
                "-- sourced in mid-session",
                "INSERT teach(f0, c0)",
                "",
                "  QUERY pupil(f0)",
                "DELETE class_list(c0, s0)",
                "SHOW advises",
                // A dead write (FDB023) that cites two sourced lines.
                "INSERT teach(f9, c9)",
                "DELETE teach(f9, c9)",
            ],
            source_fails == 1,
        );
        for _ in 0..after {
            session.run(&random_session_line(&mut rng));
        }
        session.assert_check_is_lint(&format!("seed {seed}"));

        if !session.engine.database().txn_active() {
            session.run("BEGIN");
            if rng.gen_range(0..2) == 0 {
                session.run("SAVEPOINT b");
            }
            session.run("INSERT advises(f1, s1)");
        }
        session.governed_stop();
        session.assert_check_is_lint(&format!("after a governed stop, seed {seed}"));
        for _ in 0..5 {
            session.run(&random_session_line(&mut rng));
        }
        session.assert_check_is_lint(&format!("five lines after a governed stop, seed {seed}"));
    }

    /// §3.2 makes the truth of a derived fact a function of its chains
    /// and nothing else, so the cached reads (`TRUTH`, `SHOW`), the
    /// uncached one (`QUERY`) and the database agree after every
    /// statement — writes, a new derivation, and rollbacks of either.
    #[test]
    fn derived_reads_agree_after_every_statement(seed in 0u64..10_000, len in 1usize..40) {
        let mut e = Engine::new();
        for line in [
            "DECLARE teach: faculty -> course (many-many)",
            "DECLARE class_list: course -> student (many-many)",
            "DECLARE advises: faculty -> student (many-many)",
            "DECLARE pupil: faculty -> student (many-many)",
            "DERIVE pupil = teach o class_list",
        ] {
            e.execute_line(line).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..len {
            let line = random_statement(&mut rng);
            // Misplaced transaction control and deletes of absent facts
            // are refused; the reads must agree after those too.
            let _ = e.execute_line(&line);
            assert_reads_agree(&mut e, &format!("after step {step} `{line}` of seed {seed}"));
        }
    }

    /// The engine stays consistent under arbitrary update streams.
    #[test]
    fn streams_preserve_consistency(seed in 0u64..10_000, len in 0usize..60) {
        let mut db = university();
        for u in stream_for(&db, seed, len) {
            db.apply(u).unwrap();
            prop_assert!(db.is_consistent());
        }
    }

    /// A snapshot round trip preserves the truth value of every fact.
    #[test]
    fn snapshot_round_trip_preserves_all_truth(seed in 0u64..10_000, len in 0usize..60) {
        let mut db = university();
        for u in stream_for(&db, seed, len) {
            db.apply(u).unwrap();
        }
        let restored = Database::from_snapshot(&db.to_snapshot().unwrap()).unwrap();
        let pupil = db.resolve("pupil").unwrap();
        for (x, y) in probe_pairs(&db) {
            prop_assert_eq!(
                db.truth(pupil, &x, &y).unwrap(),
                restored.truth(pupil, &x, &y).unwrap()
            );
        }
        prop_assert_eq!(db.stats(), restored.stats());
    }

    /// A binary snapshot restores the same bytes and the same structure —
    /// every live row with its flag and NCL, the tombstones, the NCs, the
    /// null watermark, the limits and policies — on states that have seen
    /// everything a store can hold: base and derived inserts and deletes
    /// (NCs, NVC nulls, tombstones), an aborted transaction, null
    /// substitution, and enough churn on one table to cross the
    /// auto-compaction threshold (or, below 64, to leave its tombstones in
    /// place). Equal states encode to equal bytes.
    #[test]
    fn binary_snapshot_round_trip_keeps_bytes_and_structure(
        seed in 0u64..10_000,
        len in 0usize..80,
        churn in 0usize..90,
        functional in 0usize..2,
    ) {
        let mut db = if functional == 1 { grading() } else { university() };
        // Semantic failures (a many-one violation) leave no trace.
        for u in stream_for(&db, seed, len) {
            let _ = db.apply(u);
        }
        db.txn_begin().unwrap();
        for u in stream_for(&db, seed ^ 0xAB0, len / 2) {
            let _ = db.apply(u);
        }
        db.txn_rollback().unwrap();
        resolve_ambiguities(&mut db);
        let first = db.base_functions()[0];
        for i in 0..churn {
            let (x, y) = (Value::atom(format!("x{i}")), Value::atom(format!("y{i}")));
            db.insert(first, x.clone(), y.clone()).unwrap();
            db.delete(first, &x, &y).unwrap();
        }
        prop_assert!(db.is_consistent());

        let bytes = db.to_snapshot().unwrap();
        let restored = Database::from_snapshot(&bytes).unwrap();
        common::assert_same_database(&restored, &db, &format!("seed {seed}"));
        prop_assert_eq!(restored.stats(), db.stats());
        prop_assert_eq!(&db.clone().to_snapshot().unwrap(), &bytes);
    }

    /// No damaged snapshot loads: every truncation and every single-byte
    /// change is an error, not a panic and not a different database.
    #[test]
    fn damaged_snapshots_are_errors(seed in 0u64..10_000, len in 0usize..40, mask in 1u32..256) {
        let mut db = university();
        for u in stream_for(&db, seed, len) {
            db.apply(u).unwrap();
        }
        let bytes = db.to_snapshot().unwrap();
        for cut in 0..bytes.len() {
            prop_assert!(Database::from_snapshot(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        let mut damaged = bytes.clone();
        for i in 0..bytes.len() {
            damaged[i] ^= mask as u8;
            prop_assert!(Database::from_snapshot(&damaged).is_err(), "byte {} ^ {:#04x}", i, mask);
            damaged[i] = bytes[i];
        }
        prop_assert!(Database::from_snapshot(&damaged).is_ok());
    }

    /// Replaying a WAL of the same stream reproduces the same state.
    #[test]
    fn wal_replay_is_equivalent(seed in 0u64..10_000, len in 0usize..50) {
        let mut db = university();
        let path = std::env::temp_dir().join(format!(
            "fdb_prop_wal_{}_{seed}_{len}.log",
            std::process::id()
        ));
        let mut wal = Wal::create(&path).unwrap();
        for (name, dom, rng, f) in [
            ("teach", "faculty", "course", "many-many"),
            ("class_list", "course", "student", "many-many"),
            ("pupil", "faculty", "student", "many-many"),
        ] {
            wal.append(&LogRecord::Declare {
                name: name.into(),
                domain: dom.into(),
                range: rng.into(),
                functionality: f.parse().unwrap(),
            })
            .unwrap();
        }
        wal.append(&LogRecord::Derive {
            name: "pupil".into(),
            steps: vec![("teach".into(), false), ("class_list".into(), false)],
        })
        .unwrap();
        for u in stream_for(&db, seed, len) {
            let record = match &u {
                Update::Insert { function, x, y } => LogRecord::Insert {
                    function: db.schema().function(*function).name.clone(),
                    x: x.clone(),
                    y: y.clone(),
                },
                Update::Delete { function, x, y } => LogRecord::Delete {
                    function: db.schema().function(*function).name.clone(),
                    x: x.clone(),
                    y: y.clone(),
                },
                Update::Replace { function, old, new } => LogRecord::Replace {
                    function: db.schema().function(*function).name.clone(),
                    old: old.clone(),
                    new: new.clone(),
                },
            };
            db.apply(u).unwrap();
            wal.append(&record).unwrap();
        }
        drop(wal);
        let (replayed, report) = replay(&path).unwrap();
        prop_assert!(!report.torn_tail);
        prop_assert_eq!(replayed.to_snapshot().unwrap(), db.to_snapshot().unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// `apply_all` is atomic: appending one failing update to any prefix
    /// leaves the database exactly as before the batch.
    #[test]
    fn batches_are_atomic(seed in 0u64..10_000, len in 1usize..30) {
        let mut db = university();
        // Pre-populate with a deterministic prefix.
        for u in stream_for(&db, seed ^ 0xABCD, 10) {
            db.apply(u).unwrap();
        }
        let before = db.to_snapshot().unwrap();
        let teach = db.resolve("teach").unwrap();
        let mut batch = stream_for(&db, seed, len);
        batch.push(Update::Insert {
            function: teach,
            x: Value::Null(fdb::types::NullId(77)),
            y: Value::atom("boom"),
        });
        prop_assert!(db.apply_all(batch).is_err());
        prop_assert_eq!(db.to_snapshot().unwrap(), before);
    }

    /// A rolled-back transaction is a transaction that never happened:
    /// after `BEGIN; ops; ROLLBACK` the store serializes byte-identically
    /// to the control that never ran the ops — same truth tables, same NC
    /// ids, same null-generator watermark — with a mid-flight savepoint
    /// round trip and governed derived reads under a random (possibly
    /// already-expired) deadline thrown in for interference.
    #[test]
    fn rollback_is_byte_identical_to_never_running(
        seed in 0u64..10_000,
        prefix in 0usize..25,
        len in 2usize..40,
        budget_ms in 0u64..3,
    ) {
        let mut db = university();
        // A committed prefix first, so the rollback has to preserve a
        // non-trivial baseline (existing NCs, nulls, tombstones).
        for u in stream_for(&db, seed ^ 0x5EED, prefix) {
            db.apply(u).unwrap();
        }
        let control = db.to_snapshot().unwrap();
        let pupil = db.resolve("pupil").unwrap();

        db.txn_begin().unwrap();
        for (i, u) in stream_for(&db, seed, len).into_iter().enumerate() {
            if i == len / 2 {
                db.txn_savepoint("s").unwrap();
            }
            if i == len / 2 + len / 4 && i > len / 2 {
                db.txn_rollback_to("s").unwrap();
            }
            // Governed reads inside the transaction: whether they finish
            // or stop exhausted, they must not perturb the store.
            if i % 5 == 0 {
                let gov = Governor::new(
                    Budget::unbounded().with_deadline(Duration::from_millis(budget_ms)),
                );
                let _ = db.truth_governed(
                    pupil,
                    &Value::atom("faculty#0"),
                    &Value::atom("student#0"),
                    &gov,
                );
                let _ = db.extension_governed(pupil, &gov);
            }
            // Semantic failures are fine — they leave no trace either.
            let _ = db.apply(u);
            prop_assert!(db.is_consistent());
        }
        prop_assert!(db.txn_active());
        db.txn_rollback().unwrap();
        prop_assert!(!db.txn_active());
        prop_assert_eq!(db.to_snapshot().unwrap(), control);
        prop_assert!(db.is_consistent());
    }

    /// Derived truth is monotone under base inserts of chain links: adding
    /// a base fact never flips another derived fact from true to false.
    #[test]
    fn base_inserts_never_falsify_derived_facts(seed in 0u64..10_000, len in 0usize..40) {
        let mut db = university();
        for u in stream_for(&db, seed, len) {
            db.apply(u).unwrap();
        }
        let pupil = db.resolve("pupil").unwrap();
        let teach = db.resolve("teach").unwrap();
        let before: Vec<(Value, Value, Truth)> = probe_pairs(&db)
            .into_iter()
            .map(|(x, y)| {
                let t = db.truth(pupil, &x, &y).unwrap();
                (x, y, t)
            })
            .collect();
        db.insert(teach, Value::atom("faculty#0"), Value::atom("course#0"))
            .unwrap();
        for (x, y, old) in before {
            let new = db.truth(pupil, &x, &y).unwrap();
            if old == Truth::True {
                prop_assert_ne!(new, Truth::False, "pupil({}, {}) was falsified", x, y);
            }
        }
    }
}
