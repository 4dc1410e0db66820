//! CI gate for observability overhead: the always-on layers must stay
//! cheap. Two checks, both median-of-K to shrug off scheduler noise:
//!
//! * **wrap gate** — the preset-5 scheduler drive (8 in-flight slots)
//!   wrapped in [`Observed`] with tracing *off* must run within 2.5x of
//!   the plain scheduler. The wrapper costs three relaxed counter adds
//!   per protocol call plus one relaxed load per skipped emit site.
//! * **flight gate** — a 200-update executor stream with the flight
//!   recorder *on* (the production default) must run within 1.3x of the
//!   same stream with the recorder off. Recording is a few relaxed
//!   stores per event into a per-thread ring; it must never show up in
//!   stream throughput.
//!
//! Writes `results/obs_overhead.json` and exits nonzero when a gate
//! fails. Usage: `cargo run --release -p incr-bench --bin obs_overhead
//! [--smoke]`.

use incr_bench::{ResultsWriter, Table};
use incr_obs::json::obj;
use incr_obs::{flight, trace};
use incr_runtime::{ExecConfig, Executor, TaskFn};
use incr_sched::{Instance, Observed, Scheduler, SchedulerKind};
use incr_traces::{generate, preset};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// An in-memory environment with 8 in-flight slots.
fn drive(s: &mut dyn Scheduler, inst: &Instance) -> usize {
    s.start(&inst.initial_active);
    let mut in_flight: VecDeque<incr_dag::NodeId> = VecDeque::new();
    let mut executed = 0;
    loop {
        while in_flight.len() < 8 {
            match s.pop_ready() {
                Some(t) => in_flight.push_back(t),
                None => break,
            }
        }
        let Some(t) = in_flight.pop_front() else { break };
        executed += 1;
        s.on_completed(t, &inst.fired[t.index()]);
    }
    executed
}

/// Median of `reps` timings of `f` (seconds). Interleave-friendly: the
/// caller alternates variants so both see the same machine conditions.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps: usize = if smoke { 5 } else { 9 };
    let mut results = ResultsWriter::new("obs_overhead", 0);
    let mut failed = false;

    // ---- Gate 1: Observed wrapper with tracing off vs plain. ----
    let (inst, _) = generate(&preset(5));
    let kind = SchedulerKind::Hybrid;
    let drives = if smoke { 10 } else { 30 };
    trace::disable();
    let mut plain_times = Vec::new();
    let mut wrapped_times = Vec::new();
    for _ in 0..reps {
        let mut s = kind.build(inst.dag.clone());
        let t0 = Instant::now();
        for _ in 0..drives {
            std::hint::black_box(drive(s.as_mut(), &inst));
        }
        plain_times.push(t0.elapsed().as_secs_f64());

        let mut s = Observed::new(kind.build(inst.dag.clone()));
        let t0 = Instant::now();
        for _ in 0..drives {
            std::hint::black_box(drive(&mut s, &inst));
        }
        wrapped_times.push(t0.elapsed().as_secs_f64());
    }
    let plain = median(plain_times);
    let wrapped = median(wrapped_times);
    let wrap_ratio = wrapped / plain.max(1e-9);
    const WRAP_LIMIT: f64 = 2.5;

    // ---- Gate 2: flight recorder on vs off on an executor stream. ----
    let updates = if smoke { 60 } else { 200 };
    let dag = Arc::new(incr_dag::random::layered(incr_dag::random::LayeredParams {
        layers: 20,
        width: 500,
        max_in: 4,
        back_span: 2,
        seed: 42,
    }));
    let mut state = 0xfeed_5eedu64;
    let mut lcg = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let stream: Vec<Vec<incr_dag::NodeId>> = (0..updates)
        .map(|_| (0..10).map(|_| incr_dag::NodeId((lcg() % 500) as u32)).collect())
        .collect();
    let dag2 = dag.clone();
    let task: TaskFn = Arc::new(move |v, out: &mut Vec<incr_dag::NodeId>| {
        for (i, &c) in dag2.children(v).iter().enumerate() {
            if i % 2 == 0 {
                out.push(c);
            }
        }
    });
    // No black-box dir: measure recording cost, not error-path IO.
    let mut cfg = ExecConfig::new(8);
    cfg.black_box = None;
    let run_once = |on: bool| -> f64 {
        flight::set_enabled(on);
        let mut sched = SchedulerKind::LevelBased.build(dag.clone());
        let t0 = Instant::now();
        let r = Executor::with_config(cfg.clone())
            .run_stream(sched.as_mut(), &dag, &stream, task.clone())
            .expect("stream completes");
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(r.executed);
        dt
    };
    run_once(false); // warm-up: page in the DAG and thread stacks
    let mut off_times = Vec::new();
    let mut on_times = Vec::new();
    for _ in 0..reps {
        off_times.push(run_once(false));
        on_times.push(run_once(true));
    }
    flight::set_enabled(true);
    flight::clear();
    let off = median(off_times);
    let on = median(on_times);
    let flight_ratio = on / off.max(1e-9);
    const FLIGHT_LIMIT: f64 = 1.3;

    let mut t = Table::new(&["gate", "baseline", "observed", "ratio", "limit", "pass"]);
    for (gate, base, obs, ratio, limit) in [
        ("wrapped, tracing off", plain, wrapped, wrap_ratio, WRAP_LIMIT),
        ("flight recorder on", off, on, flight_ratio, FLIGHT_LIMIT),
    ] {
        let pass = ratio <= limit;
        failed |= !pass;
        t.row(vec![
            gate.to_string(),
            format!("{:.1} ms", base * 1e3),
            format!("{:.1} ms", obs * 1e3),
            format!("{ratio:.3}x"),
            format!("{limit:.1}x"),
            if pass { "ok" } else { "FAIL" }.to_string(),
        ]);
        results.push_row(obj([
            ("gate", gate.into()),
            ("baseline_seconds", base.into()),
            ("observed_seconds", obs.into()),
            ("ratio", ratio.into()),
            ("limit", limit.into()),
            ("pass", pass.into()),
            ("reps", reps.into()),
            ("smoke", smoke.into()),
        ]));
    }
    println!("obs_overhead gates (median of {reps}):\n");
    println!("{}", t.render());
    results.write_default();
    println!("wrote results/obs_overhead.json");
    if failed {
        eprintln!("observability overhead gate FAILED");
        std::process::exit(1);
    }
}
