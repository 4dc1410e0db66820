//! Criterion micro-benchmarks for the executor dispatch core: the batched
//! scheduler→worker pipeline on real threads, and the batched scheduler
//! protocol (`pop_batch`/`complete_batch`) vs
//! one-call-per-task on a pure in-memory drive. The `exec_throughput` bin
//! produces the machine-readable sweep; these give statistically solid
//! point comparisons.

use criterion::{criterion_group, criterion_main, Criterion};
use incr_dag::{random, Dag, NodeId};
use incr_runtime::{Executor, TaskFn};
use incr_sched::{CompletionBatch, LevelBased, Scheduler};
use std::sync::Arc;

fn bench_dag() -> Arc<Dag> {
    Arc::new(random::layered(random::LayeredParams {
        layers: 25,
        width: 80,
        max_in: 4,
        back_span: 2,
        seed: 7,
    }))
}

/// Real threads: full run of a 2k-node fire-all update, 4 workers.
fn bench_executor(c: &mut Criterion) {
    let dag = bench_dag();
    let initial: Vec<NodeId> = dag.sources().collect();
    let task: TaskFn = {
        let dag = dag.clone();
        Arc::new(move |v, fired: &mut Vec<NodeId>| fired.extend_from_slice(dag.children(v)))
    };
    let mut g = c.benchmark_group("executor_2k_tasks");
    g.sample_size(20);
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut s = LevelBased::new(dag.clone());
            let r = Executor::new(4)
                .run(&mut s, &dag, &initial, task.clone())
                .unwrap();
            std::hint::black_box(r.executed)
        });
    });
    g.finish();
}

/// No threads: the scheduler protocol alone. Batched calls amortize the
/// per-call virtual dispatch and cursor re-entry.
fn bench_protocol(c: &mut Criterion) {
    let dag = bench_dag();
    let initial: Vec<NodeId> = dag.sources().collect();
    let fired: Vec<Vec<NodeId>> = dag.nodes().map(|v| dag.children(v).to_vec()).collect();
    let mut g = c.benchmark_group("protocol_2k_tasks");
    g.bench_function("serial_calls", |b| {
        let mut s = LevelBased::new(dag.clone());
        b.iter(|| {
            s.start(&initial);
            let mut n = 0usize;
            while let Some(t) = s.pop_ready() {
                s.on_completed(t, &fired[t.index()]);
                n += 1;
            }
            std::hint::black_box(n)
        });
    });
    g.bench_function("batched_calls", |b| {
        let mut s = LevelBased::new(dag.clone());
        let mut buf = Vec::new();
        let mut done = CompletionBatch::new();
        b.iter(|| {
            s.start(&initial);
            let mut n = 0usize;
            loop {
                buf.clear();
                if s.pop_batch(&mut buf, 256) == 0 {
                    break;
                }
                done.clear();
                for &t in &buf {
                    done.push(t, &fired[t.index()]);
                    n += 1;
                }
                s.complete_batch(&done);
            }
            std::hint::black_box(n)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_executor, bench_protocol);
criterion_main!(benches);
