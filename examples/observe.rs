//! Observability tour: the metrics registry, `STATS`, `EXPLAIN ANALYZE`
//! and the Prometheus exporter, end to end.
//!
//! ```sh
//! cargo run --example observe
//! ```
//!
//! Every layer of the engine reports into one process-wide registry —
//! WAL appends, planner decisions, cache traffic, governor stops — so a
//! mixed workload leaves a full operational trail without any setup.

use fdb::lang::Engine;
use fdb::obs;
use fdb::types::FdbError;

fn run(engine: &mut Engine, line: &str) -> Result<(), FdbError> {
    println!("fdb> {line}");
    print!("{}", engine.execute_line(line)?);
    Ok(())
}

fn main() -> Result<(), FdbError> {
    obs::set_enabled(true);
    obs::registry().reset();
    let mut e = Engine::new();

    // 1. The paper's Example 1, as a mixed workload: schema, base
    //    inserts, a derived delete (leaving NCs behind), queries.
    println!("-- 1. A mixed workload over the university schema.");
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
        e.execute_line(line)?;
    }
    run(&mut e, "TRUTH pupil(euclid, john)")?;
    run(&mut e, "TRUTH pupil(euclid, john)")?; // cache hit
    run(&mut e, "DELETE pupil(laplace, bill)")?;

    // 2. EXPLAIN ANALYZE actually executes the query and reports what
    //    happened: plan direction, estimates vs actuals, partial
    //    information (NC demotions), governor steps, timing.
    println!();
    println!("-- 2. EXPLAIN ANALYZE: estimates vs what actually ran.");
    run(&mut e, "EXPLAIN ANALYZE pupil(euclid, john)")?;
    run(&mut e, "EXPLAIN ANALYZE pupil(laplace, bill)")?;

    // 3. STATS dumps the whole registry; every layer has left a trail.
    println!();
    println!("-- 3. STATS: the registry after the workload.");
    let stats = e.execute_line("STATS")?;
    print!("{stats}");
    for key in [
        "fdb.lang.statements",
        "fdb.plan.compiled",
        "fdb.cache.hits",
        "fdb.storage.base_inserts",
    ] {
        assert!(stats.contains(key), "STATS lost {key}");
    }

    // 4. Exporters: JSON for machines, Prometheus for scrapers.
    println!();
    println!("-- 4. Prometheus exposition (excerpt).");
    let prom = obs::prometheus_text(obs::registry());
    for line in prom.lines().filter(|l| l.starts_with("fdb_lang")) {
        println!("{line}");
    }
    assert!(prom.contains("fdb_lang_statements_total"));

    // 5. Disabled, recording freezes — the production off-switch.
    println!();
    println!("-- 5. set_enabled(false) freezes the registry.");
    obs::set_enabled(false);
    let before = obs::registry().lang_statements.get();
    e.execute_line("TRUTH pupil(euclid, john)")?;
    assert_eq!(obs::registry().lang_statements.get(), before);
    obs::set_enabled(true);
    println!(
        "statements counter held at {before} while disabled — recording is \
         a relaxed load + branch when off"
    );
    Ok(())
}
