//! Resource governance tour: budgets, deadlines, cancellation and
//! overload shedding, end to end.
//!
//! ```sh
//! cargo run --example governor
//! ```
//!
//! The schemas the paper's design aid has to survive are exponential:
//! a "cycle bomb" ladder puts `width^rungs` cycles through one closing
//! edge. A governor turns that from a hang into a typed partial answer.

use std::collections::HashSet;
use std::thread;
use std::time::Duration;

use fdb::core::{Database, OverloadPolicy, SharedDatabase};
use fdb::governor::{Budget, CancelToken, Governor, Outcome};
use fdb::graph::{
    all_simple_paths_governed, cycles_through_edge_governed, FunctionGraph, PathLimits,
};
use fdb::types::{Derivation, FdbError, Schema, Step, Value};
use fdb::workload::topology::Topology;

fn v(s: &str) -> Value {
    Value::atom(s)
}

fn main() -> Result<(), FdbError> {
    // 1. A schema with 4^8 = 65,536 cycles through its `back` edge.
    let schema = Topology::CycleBomb { width: 4 }.build(33);
    let graph = FunctionGraph::from_schema(&schema);
    let back = graph
        .edge_of(schema.resolve("back")?)
        .expect("back edge")
        .id;
    println!(
        "cycle bomb: {} functions, {} cycles through `back`",
        schema.functions().len(),
        Topology::cycle_bomb_cycle_count(4, 33),
    );

    // 2. A step budget bounds the enumeration. The outcome is typed: a
    //    partial answer says so, and why.
    let gov = Governor::with_max_steps(10_000);
    match cycles_through_edge_governed(&graph, back, PathLimits::unbounded_for_benchmarks(), &gov) {
        Outcome::Complete(cycles) => println!("complete: {} cycles", cycles.len()),
        Outcome::Exhausted { partial, reason } => println!(
            "partial: {} cycles enumerated, stopped by {reason} after {} steps",
            partial.len(),
            gov.steps(),
        ),
    }

    // 3. A wall-clock deadline does the same for open-ended searches.
    let t0 = schema.types().lookup("t0").expect("t0");
    let t8 = schema.types().lookup("t8").expect("t8");
    let gov = Governor::with_deadline(Duration::from_millis(2));
    let outcome = all_simple_paths_governed(
        &graph,
        t0,
        t8,
        &HashSet::new(),
        PathLimits::unbounded_for_benchmarks(),
        &gov,
    );
    let complete = outcome.is_complete();
    println!(
        "2 ms deadline: {} paths, complete = {complete}",
        outcome.value().len(),
    );

    // 4. Cancellation is cooperative and cross-thread: trip the token
    //    from anywhere and the search stops at its next tick.
    let cancel = CancelToken::new();
    let gov = Governor::with_cancel(Budget::unbounded(), &cancel);
    let canceller = thread::spawn(move || {
        thread::sleep(Duration::from_millis(1));
        cancel.cancel();
    });
    let outcome = all_simple_paths_governed(
        &graph,
        t0,
        t8,
        &HashSet::new(),
        PathLimits::unbounded_for_benchmarks(),
        &gov,
    );
    canceller.join().expect("canceller thread");
    let reason = outcome.reason();
    println!(
        "cancelled search: {} paths, stopped by {reason:?}",
        outcome.value().len(),
    );

    // 5. Governed derived-function queries: the truth lattice makes a
    //    found `True` final even under a dead budget, while a disproof
    //    that ran out of budget stays honest about it.
    let schema = Schema::builder()
        .function("teach", "faculty", "course", "many-many")
        .function("class_list", "course", "student", "many-many")
        .function("pupil", "faculty", "student", "many-many")
        .build()?;
    let mut db = Database::new(schema);
    let teach = db.resolve("teach")?;
    let class_list = db.resolve("class_list")?;
    let pupil = db.resolve("pupil")?;
    db.register_derived(
        pupil,
        vec![Derivation::new(vec![
            Step::identity(teach),
            Step::identity(class_list),
        ])?],
    )?;
    db.insert(teach, v("euclid"), v("math"))?;
    db.insert(class_list, v("math"), v("john"))?;
    let outcome = db.truth_governed(pupil, &v("euclid"), &v("john"), &Governor::unbounded())?;
    println!("pupil(euclid, john) unbounded: {:?}", outcome.value());

    // 6. Overload shedding: a tiny admission gate refuses excess writers
    //    immediately instead of queueing them forever.
    let shared = SharedDatabase::with_policy(
        db,
        OverloadPolicy {
            lock_timeout: Duration::from_millis(50),
            max_inflight_writers: 1,
        },
    );
    let blocker = {
        let shared = shared.clone();
        thread::spawn(move || {
            shared
                .with(|db| {
                    thread::sleep(Duration::from_millis(30));
                    db.insert(teach, v("laplace"), v("math"))
                })
                .and_then(|r| r)
        })
    };
    thread::sleep(Duration::from_millis(5));
    for _ in 0..3 {
        match shared.insert(class_list, v("math"), v("bill")) {
            Ok(()) => println!("write admitted"),
            Err(FdbError::Overloaded { what, waited_ms }) => {
                println!("write shed: {what} (waited {waited_ms} ms)")
            }
            Err(e) => return Err(e),
        }
    }
    blocker.join().expect("writer thread")?;

    // 7. A governed write respects the statement deadline too.
    let gov = Governor::with_deadline(Duration::from_millis(10));
    shared.with_governed(&gov, |db| db.insert(class_list, v("math"), v("mary")))??;
    println!("governed write ok, {:?} left", gov.remaining_time());
    Ok(())
}
