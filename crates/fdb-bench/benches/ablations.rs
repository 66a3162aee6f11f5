//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **delete policy** — `Faithful` (the paper: negate exact chains only)
//!   vs `Strict` (also negate ambiguous chains): cost of the extra chain
//!   enumeration, on instances with many null links;
//! * **insert policy** — `FirstDerivation` (longer NVCs) vs
//!   `ShortestDerivation` on a diamond schema.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use fdb_core::database::InsertPolicy;
use fdb_core::Database;
use fdb_storage::chain::DeletePolicy;
use fdb_types::{Derivation, Schema, Step, Value};

fn v(s: String) -> Value {
    Value::atom(s)
}

/// University instance with `n` NVC-backed derived inserts (lots of null
/// links for ambiguous matching to chew on).
fn nullful_university(n: usize) -> Database {
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
    for i in 0..n {
        db.insert(t, v(format!("prof{i}")), v(format!("course{}", i % 10)))
            .unwrap();
        db.insert(c, v(format!("course{}", i % 10)), v(format!("stud{i}")))
            .unwrap();
        db.insert(p, v(format!("ghost{i}")), v(format!("stud{i}")))
            .unwrap(); // NVC
    }
    db
}

fn bench_ablations(c: &mut Criterion) {
    // --- delete policy ---
    let mut group = c.benchmark_group("delete_policy");
    group.sample_size(20);
    for n in [50usize, 200] {
        let base = nullful_university(n);
        let pupil = base.resolve("pupil").unwrap();
        for policy in [DeletePolicy::Faithful, DeletePolicy::Strict] {
            group.bench_with_input(
                BenchmarkId::new(format!("{policy:?}"), n),
                &base,
                |b, base| {
                    b.iter_batched(
                        || {
                            let mut db = base.clone();
                            db.set_delete_policy(policy);
                            db
                        },
                        |mut db| {
                            db.delete(pupil, &v("prof0".into()), &v("stud0".into()))
                                .unwrap();
                            db
                        },
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();

    // --- insert policy on the diamond schema ---
    let mut group = c.benchmark_group("insert_policy");
    group.sample_size(30);
    let diamond = {
        let schema = Schema::builder()
            .function("hop1", "a", "b", "many-many")
            .function("hop2", "b", "c", "many-many")
            .function("direct", "a", "c", "many-many")
            .function("reaches", "a", "c", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (h1, h2, d, r) = (
            db.resolve("hop1").unwrap(),
            db.resolve("hop2").unwrap(),
            db.resolve("direct").unwrap(),
            db.resolve("reaches").unwrap(),
        );
        db.register_derived(
            r,
            vec![
                Derivation::new(vec![Step::identity(h1), Step::identity(h2)]).unwrap(),
                Derivation::single(Step::identity(d)),
            ],
        )
        .unwrap();
        db
    };
    let reaches = diamond.resolve("reaches").unwrap();
    for policy in [
        InsertPolicy::FirstDerivation,
        InsertPolicy::ShortestDerivation,
    ] {
        group.bench_function(BenchmarkId::new(format!("{policy:?}"), 1), |b| {
            let mut i = 0u64;
            b.iter_batched(
                || {
                    let mut db = diamond.clone();
                    db.set_insert_policy(policy);
                    db
                },
                |mut db| {
                    i += 1;
                    db.insert(reaches, v(format!("x{i}")), v(format!("z{i}")))
                        .unwrap();
                    db
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
