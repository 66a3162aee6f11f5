//! Causal tracing end-to-end: the `TRACE`/`SHOW TRACE`/`SHOW SLOW`
//! language surface, per-query span attribution through the executor,
//! the group-commit convoy linkage (follower spans point at the leader
//! fsync that covered them), byte-stable Chrome trace export, and the
//! flight recorder's dump surface.
//!
//! The span recorder is process-global (like the metrics registry), so
//! every test here serializes on a lock and clears the recorder before
//! measuring.

use std::sync::Mutex;
use std::time::Duration;

use fdb::core::GroupCommit;
use fdb::lang::Engine;
use fdb::obs;
use fdb::obs::causal;

/// Serializes the tests in this binary around the global span recorder.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The paper's Example 1 schema with a few facts, tracing every
/// statement.
fn university() -> Engine {
    let mut e = Engine::new();
    for line in [
        "DECLARE teach: faculty -> course (many-many)",
        "DECLARE class_list: course -> student (many-many)",
        "DECLARE pupil: faculty -> student (many-many)",
        "DERIVE pupil = teach o class_list",
        "INSERT teach(euclid, math)",
        "INSERT teach(laplace, math)",
        "INSERT class_list(math, john)",
        "INSERT class_list(math, bill)",
    ] {
        e.execute_line(line).unwrap();
    }
    e
}

/// Zeroes every measured `wait_ns=<n>` annotation, the one time-valued
/// field that lives inside a span's detail string.
fn redact_wait(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("wait_ns=") {
        let j = i + "wait_ns=".len();
        out.push_str(&rest[..j]);
        out.push('0');
        let tail = &rest[j..];
        let k = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        rest = &tail[k..];
    }
    out.push_str(rest);
    out
}

/// Restores the always-on defaults so later tests (and later test
/// binaries sharing this process) see the shipped configuration.
fn restore_defaults() {
    causal::set_tracing(true);
    causal::set_sample_rate(causal::DEFAULT_SAMPLE_RATE);
    causal::recorder().set_slow_threshold_ns(Some(causal::DEFAULT_SLOW_THRESHOLD_NS));
    causal::recorder().clear();
}

#[test]
fn trace_statements_round_trip() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();

    assert_eq!(
        e.execute_line("TRACE ON").unwrap(),
        "tracing on (every statement)\n"
    );
    assert_eq!(
        e.execute_line("TRACE ON SAMPLE 16").unwrap(),
        "tracing on (sampling 1 in 16)\n"
    );
    assert!(e.execute_line("TRACE ON SAMPLE 0").is_err());
    assert_eq!(e.execute_line("TRACE OFF").unwrap(), "tracing off\n");
    assert_eq!(
        e.execute_line("TRACE SLOW 150").unwrap(),
        "slow-query threshold set to 150 ms\n"
    );
    assert_eq!(
        e.execute_line("TRACE SLOW OFF").unwrap(),
        "slow-query log disabled\n"
    );

    restore_defaults();
}

/// A traced statement leaves a causal tree behind: the statement span
/// plus executor plan/execute children and the cache probe, all on one
/// trace id.
#[test]
fn traced_statement_records_exec_attribution() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();
    e.execute_line("TRACE ON").unwrap();
    causal::recorder().clear();

    e.execute_line("TRUTH pupil(euclid, john)").unwrap();

    // Every child shares the statement's trace id (captured before
    // SHOW TRACE adds its own statement span to the ring).
    let spans = causal::recorder().recent();
    let stmt = spans
        .iter()
        .find(|s| s.name == "fdb.lang.statement")
        .expect("statement span");
    for s in &spans {
        assert_eq!(s.trace_id, stmt.trace_id, "span {} off-trace", s.name);
    }

    let out = e.execute_line("SHOW TRACE").unwrap();
    for needle in [
        "fdb.lang.statement",
        "fdb.exec.plan",
        "fdb.exec.execute",
        "fdb.cache.miss",
        "dir=Forward",
        "actual_chains=1",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }

    // A write into pupil's support set: the next lookup drops pupil's
    // answers, and the eviction names the function whose counter moved
    // (class_list is function 1, pupil function 2).
    e.execute_line("INSERT class_list(math, amy)").unwrap();
    e.execute_line("TRUTH pupil(euclid, john)").unwrap();
    let out = e.execute_line("SHOW TRACE").unwrap();
    let evicted = "fdb.cache.evict";
    assert!(out.contains(evicted), "missing {evicted:?} in:\n{out}");
    let cause = "f=2 entries=1 cause=support:1";
    assert!(out.contains(cause), "missing {cause:?} in:\n{out}");

    restore_defaults();
}

/// A point query plans and executes once per derivation, however many
/// pairs its image holds, and the execute span says what was evaluated.
#[test]
fn traced_query_plans_once_per_derivation() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();
    // A second derivation of `pupil`, and an NC so that the image holds
    // an ambiguous pair next to the true one.
    for line in [
        "DECLARE tutor: faculty -> student (many-many)",
        "DERIVE pupil = tutor",
        "INSERT tutor(euclid, ada)",
        "DELETE pupil(euclid, john)",
        "TRACE ON",
    ] {
        e.execute_line(line).unwrap();
    }
    causal::recorder().clear();

    assert_eq!(
        e.execute_line("QUERY pupil(euclid)").unwrap(),
        "pupil(euclid) = {ada, bill*}\n"
    );

    let spans = causal::recorder().recent();
    let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
    let plans = named("fdb.exec.plan");
    let executes = named("fdb.exec.execute");
    assert_eq!(plans.len(), 2, "one plan per derivation: {spans:#?}");
    assert_eq!(
        executes.len(),
        2,
        "one execution per derivation: {spans:#?}"
    );
    for plan in plans {
        for key in ["dir=", "est_cost=", "est_chains="] {
            assert!(plan.detail.contains(key), "{key} in {:?}", plan.detail);
        }
    }
    // teach o class_list ends in john and bill; tutor adds ada.
    let details: Vec<&str> = executes.iter().map(|s| s.detail.trim()).collect();
    assert_eq!(
        details,
        [
            "est_chains=2.0 actual_chains=2 pairs=2",
            "est_chains=1.0 actual_chains=1 pairs=3"
        ]
    );

    restore_defaults();
}

/// The convoy contract, deterministically: a leader fsync covering two
/// sequences is recorded with its span id published as the group
/// watermark, and a later writer whose record that fsync covered
/// returns as a follower *linked to that exact span*. The Chrome
/// export of the resulting trace set is byte-stable across runs even
/// though every raw id differs.
#[test]
fn convoy_follower_links_to_leader_fsync_span() {
    let _guard = lock();
    obs::set_enabled(true);

    let run = || {
        causal::set_tracing(true);
        causal::set_sample_rate(1);
        causal::recorder().clear();
        let gc = std::sync::Arc::new(GroupCommit::new());

        // Writer A leads an fsync that covers seq 1 and seq 2.
        let gc_a = std::sync::Arc::clone(&gc);
        std::thread::spawn(move || {
            let span = causal::statement_span("fdb.test.writer_a", String::new);
            let led = gc_a
                .sync_to(1, Duration::from_secs(5), || (2, Ok(())))
                .unwrap();
            assert!(led, "writer A must lead");
            drop(span);
        })
        .join()
        .unwrap();

        // Writer B's record (seq 2) was covered by A's fsync: it joins
        // the convoy as a follower without touching the disk.
        let gc_b = std::sync::Arc::clone(&gc);
        std::thread::spawn(move || {
            let span = causal::statement_span("fdb.test.writer_b", String::new);
            let led = gc_b
                .sync_to(2, Duration::from_secs(5), || {
                    unreachable!("covered writers never fsync")
                })
                .unwrap();
            assert!(!led, "writer B must follow");
            drop(span);
        })
        .join()
        .unwrap();

        causal::recorder().recent()
    };

    let spans = run();
    let lead = spans
        .iter()
        .find(|s| s.name == "fdb.commit.group_fsync_lead")
        .expect("leader fsync span");
    let follower = spans
        .iter()
        .find(|s| s.name == "fdb.commit.group_sync" && s.detail.contains("role=follower"))
        .expect("follower span");
    assert_eq!(
        follower.link_span, lead.span_id,
        "follower must link to the covering leader fsync"
    );
    assert!(follower.detail.contains("wait_ns="));
    assert_ne!(
        follower.trace_id, lead.trace_id,
        "cross-writer causality is a link, never cross-trace parenting"
    );

    // Byte-stable export: a second identical run mints entirely
    // different raw trace/span/lane ids, but the redacted-timestamp
    // Chrome export is identical byte for byte. The follower's measured
    // convoy wait is the one time-valued annotation; zero it textually
    // the same way `ts`/`dur` are isolated structurally.
    let first = redact_wait(&causal::chrome_trace(&spans, true));
    let second = redact_wait(&causal::chrome_trace(&run(), true));
    assert_eq!(first, second, "chrome export must be byte-stable");

    assert_eq!(
        first,
        concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"fdb.test.writer_a\",\"cat\":\"fdb\",\"ph\":\"X\",\"pid\":1,\"tid\":1,",
            "\"args\":{\"span\":1,\"parent\":0,\"link\":0,\"status\":\"ok\",\"detail\":\"\"},",
            "\"ts\":0,\"dur\":0},\n",
            "{\"name\":\"fdb.commit.group_sync\",\"cat\":\"fdb\",\"ph\":\"X\",\"pid\":1,\"tid\":1,",
            "\"args\":{\"span\":2,\"parent\":1,\"link\":0,\"status\":\"ok\",\"detail\":\"seq=1 role=leader\"},",
            "\"ts\":0,\"dur\":0},\n",
            "{\"name\":\"fdb.commit.group_fsync_lead\",\"cat\":\"fdb\",\"ph\":\"X\",\"pid\":1,\"tid\":1,",
            "\"args\":{\"span\":3,\"parent\":2,\"link\":0,\"status\":\"ok\",\"detail\":\"seq=1 covered=2 group=2\"},",
            "\"ts\":0,\"dur\":0},\n",
            "{\"name\":\"link\",\"cat\":\"fdb\",\"ph\":\"s\",\"id\":3,\"pid\":1,\"tid\":1,\"ts\":0},\n",
            "{\"name\":\"fdb.test.writer_b\",\"cat\":\"fdb\",\"ph\":\"X\",\"pid\":2,\"tid\":2,",
            "\"args\":{\"span\":4,\"parent\":0,\"link\":0,\"status\":\"ok\",\"detail\":\"\"},",
            "\"ts\":0,\"dur\":0},\n",
            "{\"name\":\"fdb.commit.group_sync\",\"cat\":\"fdb\",\"ph\":\"X\",\"pid\":2,\"tid\":2,",
            "\"args\":{\"span\":5,\"parent\":4,\"link\":3,\"status\":\"ok\",\"detail\":\"seq=2 role=follower wait_ns=0\"},",
            "\"ts\":0,\"dur\":0},\n",
            "{\"name\":\"link\",\"cat\":\"fdb\",\"ph\":\"f\",\"bp\":\"e\",\"id\":3,\"pid\":2,\"tid\":2,\"ts\":0}\n",
            "]}\n",
        )
    );

    restore_defaults();
}

/// `TRACE SLOW 0` captures every statement in the slow log with child
/// span attribution when the statement was traced.
#[test]
fn slow_log_attributes_statements() {
    let _guard = lock();
    obs::set_enabled(true);
    let mut e = university();
    e.execute_line("TRACE ON").unwrap();
    e.execute_line("TRACE SLOW 0").unwrap();
    causal::recorder().clear();

    e.execute_line("TRUTH pupil(euclid, john)").unwrap();
    let out = e.execute_line("SHOW SLOW").unwrap();
    assert!(
        out.contains("TRUTH pupil(euclid, john)"),
        "slow log missing statement:\n{out}"
    );
    assert!(
        out.contains("fdb.exec.execute"),
        "slow log missing attribution:\n{out}"
    );

    restore_defaults();
}

/// `DUMP TRACE` writes a flight file into the armed dump directory; the
/// dump names its reason and carries the recorded spans.
#[test]
fn dump_trace_writes_flight_file() {
    let _guard = lock();
    obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("fdb-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    obs::flight::set_dump_dir(Some(dir.clone()));

    let mut e = university();
    e.execute_line("TRACE ON").unwrap();
    e.execute_line("TRUTH pupil(euclid, john)").unwrap();
    let out = e.execute_line("DUMP TRACE").unwrap();
    assert!(out.starts_with("flight dump written to "), "got: {out}");
    let path = out.trim_start_matches("flight dump written to ").trim();
    let body = std::fs::read_to_string(path).unwrap();
    assert!(body.contains("\"reason\":\"manual\""), "{body}");
    assert!(body.contains("fdb.lang.statement"), "{body}");

    obs::flight::set_dump_dir(None);
    std::fs::remove_dir_all(&dir).ok();
    restore_defaults();
}
