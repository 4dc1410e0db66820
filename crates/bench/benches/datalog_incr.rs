//! Criterion micro-benchmarks for the Datalog substrate: incremental
//! maintenance versus recomputation from scratch — the reason incremental
//! computing matters at all (paper §I: "avoid redoing those parts of the
//! computation that have not been affected").

use criterion::{criterion_group, criterion_main, Criterion};
use incr_datalog::{FactEdit, IncrementalEngine};
use incr_sched::{LevelBased, Scheduler};

/// Transitive closure over a grid-ish edge set.
fn program(n: u32) -> String {
    let mut src = String::from(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).\n",
    );
    // A chain of n nodes with a few shortcuts: closure is Θ(n²) facts.
    for i in 0..n {
        src.push_str(&format!("edge(v{}, v{}).\n", i, i + 1));
        if i % 7 == 0 && i + 3 <= n {
            src.push_str(&format!("edge(v{}, v{}).\n", i, i + 3));
        }
    }
    src
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let src = program(60);
    let mut g = c.benchmark_group("tc_chain60_one_edge_insert");
    g.sample_size(10);

    g.bench_function("full_rematerialization", |b| {
        b.iter(|| {
            let engine =
                IncrementalEngine::new(&format!("{src}edge(v5, v40).")).expect("valid program");
            std::hint::black_box(engine.count("path"))
        })
    });

    g.bench_function("incremental_update", |b| {
        b.iter_with_setup(
            || {
                let engine = IncrementalEngine::new(&src).expect("valid program");
                let sched = LevelBased::new(engine.dag().clone());
                (engine, sched)
            },
            |(mut engine, mut sched)| {
                engine
                    .update(&mut sched, &[FactEdit::add("edge", &["v5", "v40"])])
                    .expect("update applies");
                std::hint::black_box(engine.count("path"))
            },
        )
    });

    g.finish();
}

fn bench_scheduler_inside_engine(c: &mut Criterion) {
    // Wide program: many independent derived predicates so the scheduler
    // has real parallel structure to manage.
    let mut src = String::new();
    for i in 0..40 {
        src.push_str(&format!("out{i}(X) :- in{i}(X).\n"));
        src.push_str(&format!("agg{i}(X) :- out{i}(X), flag(X).\n"));
        src.push_str(&format!("in{i}(seed).\n"));
    }
    src.push_str("flag(seed).\n");
    let mut g = c.benchmark_group("engine_wide_update");
    g.sample_size(10);
    for kind in ["LevelBased", "LogicBlox", "Hybrid"] {
        g.bench_function(kind, |b| {
            b.iter_with_setup(
                || {
                    let engine = IncrementalEngine::new(&src).expect("valid program");
                    let dag = engine.dag().clone();
                    let sched: Box<dyn Scheduler> = match kind {
                        "LevelBased" => Box::new(incr_sched::LevelBased::new(dag)),
                        "LogicBlox" => Box::new(incr_sched::LogicBlox::new(dag)),
                        _ => Box::new(incr_sched::Hybrid::new(dag)),
                    };
                    (engine, sched)
                },
                |(mut engine, mut sched)| {
                    let edits: Vec<FactEdit> = (0..40)
                        .map(|i| FactEdit::add(&format!("in{i}"), &["fresh"]))
                        .collect();
                    let rep = engine.update(sched.as_mut(), &edits).expect("update");
                    std::hint::black_box(rep.tasks_executed)
                },
            )
        });
    }
    g.finish();
}

/// Ring + random shortcuts: one big SCC whose closure is n² facts, so
/// semi-naive rounds carry large deltas (the workload `datalog_perf`
/// measures end to end).
fn big_tc_program(n: u64) -> String {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rand = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut src = String::from(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).\n",
    );
    for i in 0..n {
        src.push_str(&format!("edge(v{i}, v{}).\n", (i + 1) % n));
        src.push_str(&format!("edge(v{i}, v{}).\n", rand(n)));
    }
    src
}

fn bench_large_tc_update(c: &mut Criterion) {
    let n = 300u64;
    let src = big_tc_program(n);
    let mut g = c.benchmark_group("tc300_ten_edge_insert");
    g.sample_size(10);
    g.bench_function("update", |b| {
        b.iter_with_setup(
            || {
                let engine = IncrementalEngine::new(&src).expect("valid program");
                let sched = LevelBased::new(engine.dag().clone());
                (engine, sched)
            },
            |(mut engine, mut sched)| {
                let edits: Vec<FactEdit> = (0..10)
                    .map(|j| {
                        let i = j * (n / 10);
                        FactEdit::add(
                            "edge",
                            &[&format!("v{i}"), &format!("v{}", (i + n / 2) % n)],
                        )
                    })
                    .collect();
                engine.update(&mut sched, &edits).expect("update");
                std::hint::black_box(engine.count("path"))
            },
        )
    });
    g.finish();
}

fn bench_multi_bound_join(c: &mut Criterion) {
    // `link`'s first column is unbound at probe time: the planner probes
    // the [1, 2] index.
    let rows = 800u64;
    let mut state = 0x51a7b2c93d4e5f60u64;
    let mut rand = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut src = String::from("joined(A, D) :- fact3(A, B, C), link(D, B, C).\n");
    for i in 0..rows {
        src.push_str(&format!("fact3(a{i}, b{}, c{}).\n", rand(40), rand(40)));
        src.push_str(&format!("link(d{i}, b{}, c{}).\n", rand(40), rand(40)));
    }
    let mut g = c.benchmark_group("multi_bound_join_800");
    g.sample_size(10);
    g.bench_function("materialize", |b| {
        b.iter(|| {
            let engine = IncrementalEngine::new(&src).expect("valid program");
            std::hint::black_box(engine.count("joined"))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_incremental_vs_full,
    bench_scheduler_inside_engine,
    bench_large_tc_update,
    bench_multi_bound_join
);
criterion_main!(benches);
