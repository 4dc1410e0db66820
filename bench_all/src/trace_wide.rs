//! `trace_wide`: the paper's trace #6 on real threads.
//!
//! `Executor::run_stream` drives the Hybrid scheduler over the trace's
//! DAG with zero-work task bodies that fire the trace's `fired` edges, in
//! a closed loop (a batch job: time from update to quiescence). `core`,
//! `runtime` and `dag` do all the work and the Datalog layers none.
//!
//! `--seed 1` is the preset's own seed — the paper's trace, 126 979 active
//! tasks; other seeds re-draw the DAG with the same shape.

use crate::counters::Counters;
use crate::host::{peak_rss_mb, Host};
use crate::hostprobe::{HostProbe, REFERENCE_MS};
use crate::metrics::Report;
use crate::probe::SchedProbe;
use crate::spans::{Spans, Track};
use crate::stats::{five_numbers, median, InputHash};
use crate::{Outcome, RunOpts};
use incr_dag::{Dag, NodeId};
use incr_runtime::{ExecConfig, Executor, StreamReport, TaskFn};
use incr_sched::{Instance, Scheduler, SchedulerKind};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRACE_ID: u32 = 6;
const SCHEDULER: SchedulerKind = SchedulerKind::Hybrid;
const SETUPS: usize = 5;
/// Host-probe samples on each side of a set-up and of an update.
const PROBES: usize = 3;
/// Updates the scheduler comparison runs under each other scheduler.
const COMPARISON_UPDATES: usize = 2;

/// Run-once bookkeeping shared with the task bodies: the id of the update
/// in flight, the update that last ran each node, and whether any node
/// ran twice in one update.
struct RunOnce {
    current: AtomicU32,
    last_run: Vec<AtomicU32>,
    duplicate: AtomicBool,
    body_ns: AtomicU64,
}

struct Loaded {
    instance: Instance,
    expected: usize,
    sched: Box<dyn Scheduler + Send>,
    generate_ms: f64,
    precompute_ms: f64,
    total_s: f64,
    /// Of the DAG's edges, the fired edges and the initial tasks.
    hash: u64,
}

struct Bench {
    dag: Arc<Dag>,
    initial: Vec<Vec<NodeId>>,
    expected: usize,
    executor: Executor,
    once: Arc<RunOnce>,
    /// Zero-work bodies; `timed_task` also sums the time spent in them.
    task: TaskFn,
    timed_task: TaskFn,
    failed: usize,
    attempted: usize,
}

fn task_fn(fired: Arc<Vec<Vec<NodeId>>>, once: Arc<RunOnce>, timed: bool) -> TaskFn {
    let body = {
        let once = once.clone();
        move |v: NodeId, out: &mut Vec<NodeId>| {
            let id = once.current.load(Ordering::Relaxed);
            if once.last_run[v.index()].swap(id, Ordering::Relaxed) == id {
                once.duplicate.store(true, Ordering::Relaxed);
            }
            out.extend_from_slice(&fired[v.index()]);
        }
    };
    if !timed {
        return Arc::new(body);
    }
    Arc::new(move |v, out| {
        let t = Instant::now();
        body(v, out);
        once.body_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    })
}

fn load(seed: u64) -> Loaded {
    let t0 = Instant::now();
    let mut spec = incr_traces::preset(TRACE_ID);
    spec.seed = spec
        .seed
        .wrapping_add(seed.wrapping_sub(1).wrapping_mul(0x9E37));
    let (instance, _) = incr_traces::generate(&spec);
    let t_gen = Instant::now();
    let sched = SCHEDULER.build(instance.dag.clone());
    let t_sched = Instant::now();
    let expected = instance.active_closure().len();
    let mut hash = InputHash::new();
    for (u, v) in instance.dag.edges() {
        hash.number(((u.0 as u64) << 32) | v.0 as u64);
    }
    for (v, fired) in instance.fired.iter().enumerate() {
        for c in fired {
            hash.number(((v as u64) << 32) | c.0 as u64);
        }
    }
    for v in &instance.initial_active {
        hash.number(v.0 as u64);
    }
    Loaded {
        hash: hash.finish(),
        instance,
        expected,
        sched,
        generate_ms: (t_gen - t0).as_secs_f64() * 1e3,
        precompute_ms: (t_sched - t_gen).as_secs_f64() * 1e3,
        total_s: (t_sched - t0).as_secs_f64(),
    }
}

impl Bench {
    /// One update to quiescence; checks the executed count and run-once.
    fn update(
        &mut self,
        sched: &mut dyn Scheduler,
        timed: bool,
    ) -> Option<(Duration, StreamReport)> {
        self.once.current.fetch_add(1, Ordering::Relaxed);
        self.attempted += 1;
        let task = if timed { &self.timed_task } else { &self.task };
        let t = Instant::now();
        let result = self
            .executor
            .run_stream(sched, &self.dag, &self.initial, task.clone());
        let took = t.elapsed();
        match result {
            Ok(report) if report.executed == self.expected => Some((took, report)),
            Ok(report) => {
                eprintln!(
                    "update executed {} tasks, the trace activates {}",
                    report.executed, self.expected
                );
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("run_stream failed: {}", e.error);
                self.failed += 1;
                None
            }
        }
    }
}

pub fn run(opts: &RunOpts, host: &Host) -> Outcome {
    let setups = if opts.check { 1 } else { SETUPS };
    // End-to-end times are reported at the reference host speed; the
    // traced run's are as measured.
    let mut host_probe = (!opts.traced).then(HostProbe::new);
    let mut totals = Vec::new();
    let mut totals_measured = Vec::new();
    let mut loaded: Option<Loaded> = None;
    for _ in 0..setups {
        drop(loaded.take());
        let (l, correction) = match host_probe.as_mut() {
            Some(h) => h.around(PROBES, || load(opts.seed)),
            None => (load(opts.seed), 1.0),
        };
        totals_measured.push(l.total_s);
        totals.push(l.total_s * correction);
        loaded = Some(l);
    }
    let Loaded {
        instance,
        expected,
        sched,
        generate_ms,
        precompute_ms,
        hash,
        ..
    } = loaded.expect("at least one set-up");
    let dag = instance.dag.clone();
    println!(
        "inputs: trace #{TRACE_ID}, {} nodes, {} edges, {} levels, {} initial, {} active, hash {hash:016x}",
        dag.node_count(),
        dag.edge_count(),
        dag.num_levels(),
        instance.initial_active.len(),
        expected
    );
    if opts.seed == 1 && expected != 126_979 {
        eprintln!("seed 1 is the paper's trace #6 and must activate 126 979 tasks, not {expected}");
    }
    let once = Arc::new(RunOnce {
        current: AtomicU32::new(0),
        last_run: (0..dag.node_count()).map(|_| AtomicU32::new(0)).collect(),
        duplicate: AtomicBool::new(false),
        body_ns: AtomicU64::new(0),
    });
    let workers = host.executor_workers();
    let fired = Arc::new(instance.fired.clone());
    let mut bench = Bench {
        dag: dag.clone(),
        initial: vec![instance.initial_active.clone()],
        expected,
        executor: Executor::with_config(ExecConfig {
            black_box: None,
            ..ExecConfig::new(workers)
        }),
        task: task_fn(fired.clone(), once.clone(), false),
        timed_task: task_fn(fired, once.clone(), true),
        once: once.clone(),
        failed: 0,
        attempted: 0,
    };
    let total = Duration::from_secs_f64(opts.seconds);
    let mut report = Report::default();

    if let Some(mut host) = host_probe {
        let mut sched = sched;
        let mut spans = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < total {
            let from = Instant::now();
            // `update` has checked that it executed `bench.expected` tasks.
            if let Some((took, _)) = bench.update(sched.as_mut(), false) {
                spans.push((from, took));
            }
            // With the workers idle, between two updates.
            host.burst(PROBES);
        }
        let measured_ms: Vec<f64> = spans
            .iter()
            .map(|(_, took)| took.as_secs_f64() * 1e3)
            .collect();
        let makespans_ms: Vec<f64> = spans
            .iter()
            .map(|&(from, took)| {
                took.as_secs_f64() * 1e3 * host.correction(from, from + took, PROBES)
            })
            .collect();
        // Every update is the same work, so the loop's rate is taken at
        // the median makespan: a stall of the host during one update in
        // eighteen is not the loop's speed.
        let (per_s, per_s_measured) = (1e3 / median(&makespans_ms), 1e3 / median(&measured_ms));
        println!("makespans as measured, ms: {}", five_numbers(&measured_ms));
        println!(
            "host probe: median {:.3} ms over {} samples, reference {REFERENCE_MS} ms; every time below is the time measured times reference over probe, update by update",
            host.median_ms(),
            host.len()
        );
        report.num_noted(
            "setup_s",
            median(&totals),
            format!(
                "median of {} set-ups; as measured {:.4} s",
                totals.len(),
                median(&totals_measured)
            ),
        );
        report.num_noted(
            "updates_per_s",
            per_s,
            format!(
                "closed loop at the median makespan, {workers} workers; as measured {per_s_measured:.4}/s"
            ),
        );
        // The makespans: time from an update's start to quiescence.
        report.latency("update_p50_ms", "update_p95_ms", 95.0, &makespans_ms);
        report.also(
            "update_p50_ms",
            format!("as measured {:.3} ms", median(&measured_ms)),
        );
        let tasks = bench.expected as f64;
        report.num_noted(
            "tasks_per_s",
            tasks * per_s,
            format!("as measured {:.1}/s", tasks * per_s_measured),
        );
        // Without the probe's table, which is the benchmark's own.
        report.num("peak_rss_mb", peak_rss_mb() - host.resident_mib());
    } else {
        report.num("traces.generate_ms", generate_ms);
        report.num("core.precompute_ms", precompute_ms);
        traced(&mut bench, &mut report, sched, total, workers, !opts.check);
    }

    // Every node of the active closure ran in the last update, none twice.
    let last = once.current.load(Ordering::Relaxed);
    let missed = instance
        .active_closure()
        .iter()
        .filter(|v| once.last_run[v.index()].load(Ordering::Relaxed) != last)
        .count();
    let mut correct = bench.failed == 0;
    if missed > 0 {
        eprintln!(
            "ORACLE MISMATCH on trace_wide: {missed} active nodes did not run in the last update"
        );
        correct = false;
    }
    if once.duplicate.load(Ordering::Relaxed) {
        eprintln!("ORACLE MISMATCH on trace_wide: a node ran twice in one update");
        correct = false;
    }
    Outcome {
        report,
        attempted: bench.attempted,
        failed: if correct { 0 } else { bench.attempted },
        correct,
    }
}

/// The traced run: half of `total` in the closed loop behind the probe, a
/// quarter in the same loop untraced, then the scheduler comparison.
fn traced(
    bench: &mut Bench,
    report: &mut Report,
    sched: Box<dyn Scheduler + Send>,
    total: Duration,
    workers: usize,
    write_spans: bool,
) {
    let dag = bench.dag.clone();
    let precompute_bytes = sched.precompute_bytes();
    let mut probe = SchedProbe::new(sched);
    let mut spans = Spans::new(Instant::now());
    // Registered by the executor's first run (from 0); never, if renamed.
    let mut wait_counter = None;

    // Traced closed loop under Hybrid.
    let mut makespans_ms = Vec::new();
    let mut busy = Vec::new();
    let (mut executed, mut wait_ns, mut space_peak, mut cost_ops) = (0usize, 0u64, 0usize, 0u64);
    let (mut start_ns, mut pop_ns, mut complete_ns) = (0u64, 0u64, 0u64);
    bench.once.body_ns.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut update_id = 0u64;
    while t0.elapsed() < total.mul_f64(0.5) {
        let wait0 = wait_counter
            .as_ref()
            .map_or(0, |c: &Arc<incr_obs::Counter>| c.get());
        let body0 = bench.once.body_ns.load(Ordering::Relaxed);
        let t = Instant::now();
        let Some((took, r)) = bench.update(&mut probe, true) else {
            continue;
        };
        let sample = probe.take();
        if wait_counter.is_none() && Counters::read().has("exec.coord_wait_ns") {
            wait_counter = Some(incr_obs::registry().counter("exec.coord_wait_ns"));
        }
        let waited = wait_counter.as_ref().map_or(0, |c| c.get() - wait0);
        makespans_ms.push(took.as_secs_f64() * 1e3);
        busy.push(r.coord_busy_fraction);
        executed += r.executed;
        start_ns += sample.start.busy_ns;
        pop_ns += sample.pop.busy_ns;
        complete_ns += sample.complete.busy_ns;
        wait_ns += waited;
        space_peak = space_peak.max(probe.space_bytes());
        cost_ops += probe.cost().total_ops();
        let (a, b) = (spans.ns(t), spans.ns(t + took));
        let parent = spans.push(
            "runtime.run_stream",
            "runtime",
            Track::Driver,
            a,
            b,
            None,
            update_id,
        );
        for (name, calls) in [
            ("core.start", sample.start),
            ("core.pop", sample.pop),
            ("core.complete", sample.complete),
        ] {
            if let Some(first) = calls.first {
                let at = spans.ns(first);
                spans.push_aggregate(
                    name,
                    "core",
                    Track::Driver,
                    at,
                    calls.busy_ns,
                    calls.calls,
                    Some(parent),
                    update_id,
                );
            }
        }
        spans.push_aggregate(
            "runtime.coord_wait",
            "runtime.wait",
            Track::Driver,
            a,
            waited,
            1,
            Some(parent),
            update_id,
        );
        let bodies = bench.once.body_ns.load(Ordering::Relaxed) - body0;
        spans.push_aggregate(
            "runtime.task_bodies",
            "runtime",
            Track::Worker,
            a,
            bodies,
            r.executed as u64,
            None,
            update_id,
        );
        update_id += 1;
    }
    let wall = t0.elapsed();
    let updates = makespans_ms.len().max(1) as f64;
    let sched_ns = start_ns + pop_ns + complete_ns;
    let body_ns = bench.once.body_ns.load(Ordering::Relaxed);

    // The same loop untraced: bare scheduler, untimed bodies.
    let mut bare = SCHEDULER.build(dag.clone());
    let (mut bare_updates, t1) = (0usize, Instant::now());
    while t1.elapsed() < total.mul_f64(0.25) {
        bare_updates += bench.update(bare.as_mut(), false).is_some() as usize;
    }
    let bare_rate = bare_updates as f64 / t1.elapsed().as_secs_f64();
    drop(bare);

    // One more update each under the two schedulers Hybrid combines.
    let mut other_ms = Vec::new();
    for kind in [SchedulerKind::LevelBased, SchedulerKind::LogicBlox] {
        let mut sched = kind.build(dag.clone());
        let times: Vec<f64> = (0..COMPARISON_UPDATES)
            .filter_map(|_| bench.update(sched.as_mut(), false))
            .map(|(took, _)| took.as_secs_f64() * 1e3)
            .collect();
        other_ms.push(median(&times));
    }

    let traced_rate = makespans_ms.len() as f64 / wall.as_secs_f64();
    let hybrid_ms = median(&makespans_ms);
    report.num("dag.nodes", dag.node_count() as f64);
    report.num("dag.levels", dag.num_levels() as f64);
    report.num("core.precompute_bytes", precompute_bytes as f64);
    report.num("core.space_bytes_peak", space_peak as f64);
    report.num("core.sched_us_per_update", sched_ns as f64 / 1e3 / updates);
    report.num_noted(
        "core.start_us",
        start_ns as f64 / 1e3 / updates,
        "per update".into(),
    );
    report.num_noted(
        "core.pop_us",
        pop_ns as f64 / 1e3 / updates,
        "per update".into(),
    );
    report.num_noted(
        "core.complete_us",
        complete_ns as f64 / 1e3 / updates,
        "per update".into(),
    );
    let makespan_total_ns = makespans_ms.iter().sum::<f64>() * 1e6;
    report.num_noted(
        "core.sched_share",
        sched_ns as f64 / makespan_total_ns,
        "scheduler calls over makespan".into(),
    );
    report.num("core.cost_ops_per_update", cost_ops as f64 / updates);
    report.num("core.levelbased_update_ms", other_ms[0]);
    report.num("core.logicblox_update_ms", other_ms[1]);
    report.num_noted(
        "core.hybrid_over_best_ratio",
        hybrid_ms / other_ms[0].min(other_ms[1]),
        format!("Hybrid {hybrid_ms:.1} ms per update"),
    );
    report.num("runtime.coord_busy_fraction", median(&busy));
    report.set(
        "runtime.coord_wait_ms",
        wait_counter
            .as_ref()
            .map(|_| wait_ns as f64 / 1e6 / updates),
    );
    report.num_noted(
        "runtime.task_body_share",
        body_ns as f64 / (workers as f64 * wall.as_nanos() as f64),
        format!("task bodies over {workers} workers x wall"),
    );
    report.num(
        "runtime.dispatch_us_per_task",
        (makespan_total_ns - sched_ns as f64 - wait_ns as f64).max(0.0)
            / 1e3
            / executed.max(1) as f64,
    );
    report.num_noted(
        "obs.trace_overhead_ratio",
        traced_rate / bare_rate,
        format!("traced {traced_rate:.3}/s over untraced {bare_rate:.3}/s"),
    );

    let budget = spans.layer_budget();
    let wall_ns = wall.as_nanos() as f64;
    let covered: u64 = budget.values().sum();
    println!(
        "layer budget of the traced closed loop ({:.1} ms wall):",
        wall_ns / 1e6
    );
    for (layer, ns) in &budget {
        println!(
            "  {layer:<13} {:>10.2} ms  {:>5.1} %",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / wall_ns
        );
    }
    println!(
        "  {:<13} {:>10.2} ms  {:>5.1} %",
        "sum",
        covered as f64 / 1e6,
        100.0 * covered as f64 / wall_ns
    );
    report.num_noted(
        "bench.budget_coverage",
        covered as f64 / wall_ns,
        "layer self times over the traced wall".into(),
    );
    if write_spans {
        crate::write_trace("trace_wide", &spans.to_json());
    }
}
