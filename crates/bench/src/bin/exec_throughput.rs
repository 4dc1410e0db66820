//! Dispatch-core throughput benchmark: the batched scheduler→executor
//! pipeline on zero-work tasks, task-granularity and batch-size sweeps,
//! and the V-independence of per-update dispatch cost on an update stream.
//! (The A/B against the one-task-per-message executor it replaced is
//! frozen in EXPERIMENTS.md, "Dispatch-core throughput".) Written to
//! `results/exec_throughput.json` (ResultsWriter schema v1) so the perf
//! trajectory is machine-readable.
//!
//! Usage: `cargo run --release -p incr-bench --bin exec_throughput [--smoke]`
//!
//! `--smoke` shrinks the instances for CI (seconds, not minutes).

use incr_bench::{fmt_secs, ResultsWriter, Table};
use incr_dag::{random, Dag, NodeId};
use incr_obs::json::obj;
use incr_runtime::{
    infallible, CancelToken, ExecConfig, Executor, RetryPolicy, TaskFn, UpdateJournal,
};
use incr_sched::LevelBased;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Layered DAG with `layers * width` nodes; depth fixed by `layers`.
fn dag(layers: u32, width: u32, seed: u64) -> Arc<Dag> {
    Arc::new(random::layered(random::LayeredParams {
        layers,
        width,
        max_in: 4,
        back_span: 2,
        seed,
    }))
}

/// Task body spinning `task_us` of real CPU, then firing all children
/// (full recomputation — every node in the DAG executes).
fn spin_fire_all(dag: &Arc<Dag>, task_us: u64) -> TaskFn {
    let dag = dag.clone();
    Arc::new(move |v, fired: &mut Vec<NodeId>| {
        if task_us > 0 {
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < task_us as u128 {
                std::hint::spin_loop();
            }
        }
        fired.extend_from_slice(dag.children(v));
    })
}

/// What one configuration measured.
struct Measured {
    /// Best-of-`iters` tasks/sec.
    rate: f64,
    /// Mean coordinator busy fraction.
    busy: f64,
    /// Tasks executed over chunks dispatched (`exec.chunks`), all runs.
    tasks_per_chunk: f64,
}

/// `iters` full runs through one executor.
fn measure(dag: &Arc<Dag>, cfg: &ExecConfig, task: &TaskFn, iters: usize) -> Measured {
    let initial: Vec<NodeId> = dag.sources().collect();
    let exec = Executor::with_config(cfg.clone());
    let chunks = incr_obs::registry().counter("exec.chunks");
    let chunks0 = chunks.get();
    let (mut best, mut busy, mut executed) = (0.0f64, 0.0f64, 0usize);
    for _ in 0..iters {
        let mut s = LevelBased::new(dag.clone());
        let r = exec
            .run(&mut s, dag, &initial, infallible(task.clone()), None)
            .expect("run completes");
        assert_eq!(r.executed, dag.node_count(), "fire-all must execute every node");
        best = best.max(r.executed as f64 / r.wall_seconds.max(1e-9));
        busy += r.coord_busy_fraction;
        executed += r.executed;
    }
    Measured {
        rate: best,
        busy: busy / iters as f64,
        tasks_per_chunk: executed as f64 / (chunks.get() - chunks0).max(1) as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 2 } else { 4 };
    let mut results = ResultsWriter::new("exec_throughput", 0);
    // Real threads, not simulated processors: the headline sections run 8
    // workers (per-row sweeps record their own counts).
    results.set_workers(8);

    // ---- Section 1: dispatch rate on 0µs tasks, 8 workers. ----
    let (layers, width) = if smoke { (40, 50) } else { (50, 400) };
    let ab_dag = dag(layers, width, 7);
    let n = ab_dag.node_count();
    println!("exec_throughput: dispatch on {n} zero-work tasks, 8 workers\n");
    let task = spin_fire_all(&ab_dag, 0);
    let m = measure(&ab_dag, &ExecConfig::new(8), &task, iters);
    println!(
        "{:.0} tasks/sec, coordinator busy {:.1}%, {:.1} tasks per chunk\n",
        m.rate,
        m.busy * 100.0,
        m.tasks_per_chunk
    );
    results.push_row(obj([
        ("workload", "dispatch".into()),
        ("nodes", n.into()),
        ("workers", 8u64.into()),
        ("task_us", 0u64.into()),
        ("tasks_per_sec", m.rate.into()),
        ("coord_busy_fraction", m.busy.into()),
        ("tasks_per_chunk", m.tasks_per_chunk.into()),
    ]));

    // ---- Section 2: task granularity × worker count (batched). ----
    let durations: &[u64] = if smoke { &[0, 10] } else { &[0, 10, 100] };
    let worker_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let (glayers, gwidth) = if smoke { (20, 40) } else { (30, 120) };
    let g_dag = dag(glayers, gwidth, 11);
    println!(
        "granularity sweep: {} tasks, durations {durations:?} us, workers {worker_counts:?}\n",
        g_dag.node_count()
    );
    let mut t = Table::new(&[
        "task_us",
        "workers",
        "tasks/sec",
        "coord busy",
        "tasks/chunk",
    ]);
    for &task_us in durations {
        let task = spin_fire_all(&g_dag, task_us);
        for &w in worker_counts {
            let m = measure(&g_dag, &ExecConfig::new(w), &task, iters.min(2));
            t.row(vec![
                task_us.to_string(),
                w.to_string(),
                format!("{:.0}", m.rate),
                format!("{:.1}%", m.busy * 100.0),
                format!("{:.1}", m.tasks_per_chunk),
            ]);
            results.push_row(obj([
                ("workload", "granularity".into()),
                ("nodes", g_dag.node_count().into()),
                ("task_us", task_us.into()),
                ("workers", w.into()),
                ("tasks_per_sec", m.rate.into()),
                ("coord_busy_fraction", m.busy.into()),
                ("tasks_per_chunk", m.tasks_per_chunk.into()),
            ]));
        }
    }
    println!("{}", t.render());
    println!();

    // ---- Section 3: batch-size sweep (0µs tasks, 8 workers). ----
    let batches: &[usize] = if smoke { &[1, 256] } else { &[1, 8, 64, 256] };
    println!("batch-size sweep on {n} zero-work tasks, 8 workers\n");
    let task = spin_fire_all(&ab_dag, 0);
    let mut t = Table::new(&["batch_max", "tasks/sec", "tasks/chunk"]);
    for &b in batches {
        let mut cfg = ExecConfig::new(8);
        cfg.batch_max = b;
        let m = measure(&ab_dag, &cfg, &task, iters.min(2));
        t.row(vec![
            b.to_string(),
            format!("{:.0}", m.rate),
            format!("{:.1}", m.tasks_per_chunk),
        ]);
        results.push_row(obj([
            ("workload", "batch_size".into()),
            ("nodes", n.into()),
            ("workers", 8u64.into()),
            ("batch_max", b.into()),
            ("tasks_per_sec", m.rate.into()),
            ("tasks_per_chunk", m.tasks_per_chunk.into()),
        ]));
    }
    println!("{}", t.render());
    println!();

    // ---- Section 4: V-independence — 10-node updates streamed over DAGs of
    // growing width but fixed depth. Per-update wall time must stay flat as V
    // grows 100x: dispatch cost tracks the active slice, not the graph. ----
    let vs: &[usize] = if smoke { &[10_000, 100_000] } else { &[10_000, 100_000, 1_000_000] };
    let (u, k) = if smoke { (30usize, 10usize) } else { (100usize, 10usize) };
    println!("V-independence: {u} updates x {k} dirty nodes, fixed depth 20\n");
    let mut t = Table::new(&["nodes", "mean update", "executed/update", "updates/sec"]);
    let mut mean_us = Vec::new();
    for &v in vs {
        let layers = 20u32;
        let width = (v as u32) / layers;
        let s_dag = dag(layers, width, 42);
        let mut rng = Lcg(0xfeed_5eed ^ v as u64);
        // Dirty sets drawn from the first layer; the active cascade fires
        // half of each node's out-edges (a partial incremental change).
        let stream: Vec<Vec<NodeId>> = (0..u)
            .map(|_| (0..k).map(|_| NodeId(rng.next(width as u64) as u32)).collect())
            .collect();
        let sd = s_dag.clone();
        // Fire exactly one child per executed node: the cascade is ~k paths
        // of the DAG's depth, so the active slice per update is the same
        // regardless of V — any growth in update cost is dispatch overhead.
        let task: TaskFn = Arc::new(move |v, out: &mut Vec<NodeId>| {
            if let Some(&c) = sd.children(v).first() {
                out.push(c);
            }
        });
        let mut sched = LevelBased::new(s_dag.clone());
        // Warm run (first start() pays one-time allocation), then measure.
        Executor::new(8)
            .run_stream(&mut sched, &s_dag, &stream[..1.min(stream.len())], task.clone())
            .expect("warmup");
        let report = Executor::new(8)
            .run_stream(&mut sched, &s_dag, &stream, task)
            .expect("stream completes");
        let mean = report.update_seconds.iter().sum::<f64>() / report.updates.max(1) as f64;
        mean_us.push(mean * 1e6);
        t.row(vec![
            s_dag.node_count().to_string(),
            fmt_secs(mean),
            format!("{:.1}", report.executed as f64 / report.updates as f64),
            format!("{:.0}", report.updates as f64 / report.wall_seconds),
        ]);
        results.push_row(obj([
            ("workload", "v_independence".into()),
            ("nodes", s_dag.node_count().into()),
            ("updates", u.into()),
            ("update_size", k.into()),
            ("executed", report.executed.into()),
            ("mean_update_seconds", mean.into()),
            ("updates_per_sec", (report.updates as f64 / report.wall_seconds).into()),
            ("coord_busy_fraction", report.coord_busy_fraction.into()),
        ]));
    }
    println!("{}", t.render());
    let spread = mean_us.iter().cloned().fold(0.0f64, f64::max)
        / mean_us.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-9);
    println!(
        "per-update cost spread across {}x node growth: {spread:.2}x\n",
        vs.last().unwrap() / vs.first().unwrap()
    );
    results.push_row(obj([
        ("workload", "v_independence".into()),
        ("phase", "spread".into()),
        ("node_growth", (vs.last().unwrap() / vs.first().unwrap()).into()),
        ("update_cost_spread", spread.into()),
    ]));

    // ---- Section 5: fault-tolerance overhead — the batched pipeline with
    // retry policy, watchdog deadline, and journaling all armed but no
    // faults injected, vs the bare default. ISSUE 4 acceptance: < 5%
    // regression; asserted leniently (CI noise) and recorded exactly. ----
    println!("fault-tolerance overhead on {n} zero-work tasks, 8 workers\n");
    let task = spin_fire_all(&ab_dag, 0);
    let initial: Vec<NodeId> = ab_dag.sources().collect();
    // One update here is a couple of milliseconds — far too short to time
    // on its own — so each measurement aggregates a burst of consecutive
    // updates through one executor (restarts are O(active)), and the
    // bursts are interleaved bare/armed so both see the same thermal and
    // placement conditions. Best-of across bursts, like `measure`.
    let burst = 20usize;
    let measure_ft = |armed: bool| -> f64 {
        let mut cfg = ExecConfig::new(8);
        if armed {
            cfg.retry = RetryPolicy::retries(3);
            cfg.deadline = Some(Duration::from_secs(600));
            cfg.cancel = Some(CancelToken::new());
        }
        let mut s = LevelBased::new(ab_dag.clone());
        let mut journal = UpdateJournal::new();
        let exec = Executor::with_config(cfg);
        let ft_task = infallible(task.clone());
        let t0 = Instant::now();
        let mut executed = 0usize;
        for _ in 0..burst {
            let journal_arg = armed.then_some(&mut journal);
            let r = exec
                .run(&mut s, &ab_dag, &initial, ft_task.clone(), journal_arg)
                .expect("fault-free run completes");
            assert_eq!(r.executed, n);
            executed += r.executed;
        }
        executed as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };
    let (mut bare, mut armed) = (0.0f64, 0.0f64);
    for _ in 0..iters * 2 {
        bare = bare.max(measure_ft(false));
        armed = armed.max(measure_ft(true));
    }
    let ratio = armed / bare.max(1e-9);
    let mut t = Table::new(&["config", "tasks/sec"]);
    t.row(vec!["bare batched".into(), format!("{bare:.0}")]);
    t.row(vec!["retry+watchdog+journal".into(), format!("{armed:.0}")]);
    println!("{}", t.render());
    println!("fault-tolerance armed / bare throughput ratio: {ratio:.3}\n");
    results.push_row(obj([
        ("workload", "ft_overhead".into()),
        ("nodes", n.into()),
        ("workers", 8u64.into()),
        ("bare_tasks_per_sec", bare.into()),
        ("armed_tasks_per_sec", armed.into()),
        ("armed_over_bare_ratio", ratio.into()),
    ]));
    // The acceptance target is < 5% regression; allow measurement noise in
    // the gate itself, while the exact ratio lands in the results file.
    assert!(
        ratio >= 0.80,
        "fault-tolerance machinery costs too much with no faults injected (ratio {ratio:.3})"
    );

    results.write_default();
}
