//! Real threads, not simulation: run an incremental workload through the
//! `incr-runtime` executor with the Hybrid scheduler, with task bodies
//! that actually compute (hashing loops standing in for predicate
//! re-evaluation) and report their own fired edges.
//!
//! Run: `cargo run --release --example threaded_hybrid`

use datalog_sched::dag::{DagBuilder, NodeId};
use datalog_sched::runtime::{infallible, ExecError, Executor, TaskFn};
use datalog_sched::sched::{Hybrid, LevelBased, LogicBlox, Scheduler};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    // 64 independent pipelines of depth 4 — a parallel-friendly update.
    let pipes = 64u32;
    let depth = 4u32;
    let mut b = DagBuilder::new((pipes * depth) as usize);
    let node = |p: u32, d: u32| NodeId(p * depth + d);
    for p in 0..pipes {
        for d in 1..depth {
            b.add_edge(node(p, d - 1), node(p, d));
        }
    }
    let dag = Arc::new(b.build().expect("acyclic"));
    let initial: Vec<NodeId> = (0..pipes).map(|p| node(p, 0)).collect();

    // Task body: burn a few microseconds of real CPU, then fire all
    // children (full recomputation of each pipeline).
    let task: TaskFn = {
        let dag = dag.clone();
        Arc::new(move |v, fired: &mut Vec<NodeId>| {
            let mut acc = v.0 as u64;
            for i in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            fired.extend_from_slice(dag.children(v));
        })
    };

    println!(
        "running {} tasks on real threads ({} pipelines x depth {})\n",
        pipes * depth,
        pipes,
        depth
    );
    for workers in [1usize, 4, 8] {
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(LevelBased::new(dag.clone())),
            Box::new(LogicBlox::new(dag.clone())),
            Box::new(Hybrid::new(dag.clone())),
        ];
        for mut s in schedulers {
            let t0 = Instant::now();
            // A failed run prints a one-line diagnostic and exits nonzero:
            // Stall means a broken scheduler, NonEdge a broken task body,
            // TaskPanicked an isolated worker panic — all typed, no hang.
            let report = match Executor::new(workers).run(
                s.as_mut(),
                &dag,
                &initial,
                infallible(task.clone()),
                None,
            ) {
                Ok(report) => report,
                Err(
                    e @ (ExecError::Stall { .. }
                    | ExecError::NonEdge { .. }
                    | ExecError::TaskPanicked { .. }),
                ) => {
                    eprintln!("threaded_hybrid: {} failed: {e}", s.name());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("threaded_hybrid: {} failed: {e}", s.name());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "  {:>2} workers  {:<12} {:>8.2} ms  ({} tasks executed)",
                workers,
                s.name(),
                t0.elapsed().as_secs_f64() * 1e3,
                report.executed
            );
            assert_eq!(report.executed, (pipes * depth) as usize);
        }
        println!();
    }
    println!("every scheduler executes the same task set; wall time scales with workers.");
    ExitCode::SUCCESS
}
