//! `dlsched` — the command-line face of the library.
//!
//! ```text
//! dlsched gen <id|all> [dir]          regenerate Table-I trace JSON files
//! dlsched stats <trace.json>          Table-I statistics of a trace file
//! dlsched simulate <trace.json|#id> [--sched S] [--procs P]
//!                                     simulate a trace and report
//!                                     makespan/overhead/utilization
//! dlsched gantt <#id|figure2:L> <out.svg> [--sched S] [--procs P]
//!                                     render a schedule timeline
//! dlsched trace [--preset N|<spec>] [--sched S] [--procs P] [-o out.trace.json]
//!                                     record a Perfetto-loadable trace of a
//!                                     simulated run plus a real threaded
//!                                     replay (scheduler + simulator +
//!                                     executor layers)
//! dlsched stream [--nodes V] [--sched S] [--updates U] [--update-size K]
//!                [--procs P] [--batch B] [--task-us D]
//!                                     drive a stream of K-node updates over a
//!                                     V-node DAG through one warm worker pool
//!                                     and report updates/sec + tasks/sec
//!                                     (--shards here exits 2: shards partition
//!                                     relations, use --datalog --shards N)
//! dlsched stream --datalog [--updates U] [--update-size K]
//!                [--delete-pct D] [--coalesce C] [--sched S] [--shards N]
//!                                     drive the MulVAL-style attack-graph
//!                                     workload through a real engine and
//!                                     report sustained updates/sec
//!                                     (either mode: an unknown flag exits 2)
//! dlsched explain [--preset N|<spec>] [--sched S] [--procs P]
//!                 [-o explain.json] [--trace-out out.trace.json]
//!                                     run an update with per-task tracing and
//!                                     attribute its latency: scheduler vs
//!                                     wait (run/eval) vs commit vs other,
//!                                     plus the concrete critical chain and a
//!                                     flow-annotated Perfetto trace
//! dlsched query <program.dl|-> <pattern> [--add F]* [--remove F]* [--sched S]
//!               [--shards N]
//!                                     materialize a Datalog program, pin a
//!                                     snapshot, optionally run edits, then
//!                                     answer a point/scan query (`path(a, ?)`)
//!                                     against both the pinned snapshot and the
//!                                     head, printing rows + their epochs;
//!                                     --shards N hash-partitions the relations
//!                                     across N engine instances and answers
//!                                     from the ownership-filtered union
//! dlsched bench-diff <A.json> <B.json>
//!                                     compare two `BENCH_*.json` trajectory
//!                                     files metric by metric against the
//!                                     `end_to_end` bounds of `BENCHMARK.json`
//!                                     in the current directory; exits 1 if B
//!                                     is worse than A beyond a bound, fails
//!                                     more often, or lacks or fails a workload
//! ```
//!
//! Scheduler names: `levelbased`, `lbl:<k>`, `logicblox`, `signal`,
//! `hybrid`, `hybrid-bg:<slice>`, `exact`.

use datalog_sched::runtime::executor::infallible;
use datalog_sched::runtime::{analyze, flow_events, ExecConfig, Executor, TaskFn};
use datalog_sched::sched::{CostPrices, Observed, SchedulerKind};
use datalog_sched::sim::{record_timeline, simulate_event, EventSimConfig};
use datalog_sched::traces::{generate, preset, trace_stats, JobTrace};
use incr_obs::export::{chrome_trace_json, chrome_trace_with, validate_chrome_trace};
use incr_obs::json::obj;
use incr_obs::trace;
use incr_obs::Json;
use incr_sched::Instance;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("gantt") => cmd_gantt(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        _ => {
            eprintln!(
                "usage: dlsched <gen|stats|simulate|gantt|trace|stream|explain|query|bench-diff> ...\n\
                 see the crate docs (src/bin/dlsched.rs) for details"
            );
            2
        }
    };
    std::process::exit(code);
}

fn parse_sched(s: &str) -> Result<SchedulerKind, String> {
    Ok(match s {
        "levelbased" | "lb" => SchedulerKind::LevelBased,
        "logicblox" | "lbx" => SchedulerKind::LogicBlox,
        "signal" => SchedulerKind::SignalPropagation,
        "hybrid" => SchedulerKind::Hybrid,
        "exact" => SchedulerKind::ExactGreedy,
        _ if s.starts_with("lbl:") => SchedulerKind::Lookahead(
            s[4..].parse().map_err(|e| format!("bad k in {s:?}: {e}"))?,
        ),
        _ if s.starts_with("hybrid-bg:") => SchedulerKind::HybridBackground(
            s[10..].parse().map_err(|e| format!("bad slice in {s:?}: {e}"))?,
        ),
        _ => return Err(format!("unknown scheduler {s:?}")),
    })
}

/// `#id`, `figure2:L`, or a JSON trace path.
fn load_instance(spec: &str) -> Result<(String, Instance), String> {
    if let Some(id) = spec.strip_prefix('#') {
        let id: u32 = id.parse().map_err(|e| format!("bad trace id: {e}"))?;
        if !(1..=11).contains(&id) {
            return Err(format!("no preset trace #{id} (valid: #1-#11)"));
        }
        let (inst, _) = generate(&preset(id));
        return Ok((format!("trace {spec}"), inst));
    }
    if let Some(l) = spec.strip_prefix("figure2:") {
        let l: u32 = l.parse().map_err(|e| format!("bad L: {e}"))?;
        return Ok((
            format!("figure2({l})"),
            datalog_sched::traces::adversarial::figure2(l),
        ));
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("read {spec}: {e}"))?;
    let inst = JobTrace::from_json(&text)
        .map_err(|e| e.to_string())?
        .to_instance()
        .map_err(|e| e.to_string())?;
    Ok((spec.to_string(), inst))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A processor, worker or shard count: at least 1 (the executor, the
/// simulators and the sharded engine all assert it).
fn parse_count(name: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad {name} {v:?}: expected a count of at least 1")),
    }
}

/// `name`'s value as a count, or `default` when the flag is absent; a bad
/// value is reported on stderr and the caller exits 2.
fn count_flag(args: &[String], name: &str, default: usize) -> Option<usize> {
    flag(args, name)
        .map_or(Ok(default), |v| parse_count(name, v))
        .map_err(|e| eprintln!("{e}"))
        .ok()
}

fn cmd_gen(args: &[String]) -> i32 {
    let which = args.first().map(String::as_str).unwrap_or("all");
    let dir = args.get(1).map(String::as_str).unwrap_or("traces");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("cannot create {dir}");
        return 1;
    }
    let ids: Vec<u32> = if which == "all" {
        (1..=11).collect()
    } else {
        match which.trim_start_matches('#').parse() {
            Ok(i) if (1..=11).contains(&i) => vec![i],
            Ok(i) => {
                eprintln!("no preset trace #{i} (valid: #1-#11)");
                return 2;
            }
            Err(e) => {
                eprintln!("bad id {which:?}: {e}");
                return 2;
            }
        }
    };
    for id in ids {
        let spec = preset(id);
        let (inst, rep) = generate(&spec);
        let path = format!("{dir}/trace{id:02}.json");
        if let Err(e) = std::fs::write(&path, JobTrace::from_instance(spec.name, &inst).to_json())
        {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!(
            "{path}: {} nodes, {} active (target {})",
            spec.nodes, rep.achieved_active, spec.active
        );
    }
    0
}

fn cmd_stats(args: &[String]) -> i32 {
    let Some(spec) = args.first() else {
        eprintln!("usage: dlsched stats <trace.json|#id>");
        return 2;
    };
    match load_instance(spec) {
        Ok((name, inst)) => {
            let st = trace_stats(&inst);
            println!("{name}:");
            println!("  nodes {}  edges {}  levels {}", st.nodes, st.edges, st.levels);
            println!(
                "  initial {}  active {}  descendant pool {} ({} activated)",
                st.initial_tasks, st.active_jobs, st.total_descendants, st.activated_descendants
            );
            println!("  widest level: {} nodes", st.max_level_width);
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn cmd_simulate(args: &[String]) -> i32 {
    let Some(spec) = args.first() else {
        eprintln!("usage: dlsched simulate <trace.json|#id> [--sched S] [--procs P]");
        return 2;
    };
    let kind = match parse_sched(flag(args, "--sched").unwrap_or("hybrid")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(procs) = count_flag(args, "--procs", 8) else {
        return 2;
    };
    match load_instance(spec) {
        Ok((name, inst)) => {
            let mut s = kind.build(inst.dag.clone());
            let r = simulate_event(
                s.as_mut(),
                &inst,
                &EventSimConfig {
                    processors: procs,
                    ..Default::default()
                },
            );
            println!("{name} under {} on {procs} processors:", kind.label());
            println!("  makespan        {:.6} s", r.makespan);
            println!("  sched overhead  {:.6} s", r.sched_overhead);
            println!("  tasks executed  {}", r.executed);
            println!("  utilization     {:.1}%", r.utilization(procs) * 100.0);
            println!("  peak run state  {} B", r.peak_space);
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Record one instance end to end: a discrete-event simulation (simulated
/// time, `sim` + `sched` categories) followed by a real thread-pool
/// replay of the same instance (`exec` + `sched` categories), exported as
/// one Chrome trace-event file. Perfetto then shows the simulated
/// makespan and the real wall-clock run side by side.
fn cmd_trace(args: &[String]) -> i32 {
    let spec = if let Some(p) = flag(args, "--preset") {
        format!("#{}", p.trim_start_matches('#'))
    } else if let Some(first) = args.first().filter(|a| !a.starts_with('-')) {
        first.to_string()
    } else {
        eprintln!(
            "usage: dlsched trace [--preset N|<trace.json|#id|figure2:L>] \
             [--sched S] [--procs P] [-o out.trace.json]"
        );
        return 2;
    };
    let kind = match parse_sched(flag(args, "--sched").unwrap_or("hybrid")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(procs) = count_flag(args, "--procs", 8) else {
        return 2;
    };
    let out = flag(args, "-o")
        .or_else(|| flag(args, "--out"))
        .map(String::from)
        .unwrap_or_else(|| {
            format!(
                "results/{}.trace.json",
                spec.trim_start_matches('#').replace([':', '/'], "_")
            )
        });

    let (name, inst) = match load_instance(&spec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };

    trace::clear();
    incr_obs::registry().reset();
    trace::enable();
    trace::set_thread_name("simulation-driver");

    // Pass 1: discrete-event simulation under the observed scheduler —
    // `sim` events on simulated lanes, `sched` spans on this thread.
    let mut sim_sched = Observed::new(kind.build(inst.dag.clone()));
    let sim = simulate_event(
        &mut sim_sched,
        &inst,
        &EventSimConfig {
            processors: procs,
            ..Default::default()
        },
    );

    // Pass 2: real threaded replay of the same active graph — `exec`
    // spans on worker threads, more `sched` spans on the coordinator.
    let mut exec_sched = Observed::new(kind.build(inst.dag.clone()));
    let fired: Arc<Vec<Vec<incr_dag::NodeId>>> = Arc::new(inst.fired.clone());
    let task: TaskFn = Arc::new(move |v, out: &mut Vec<incr_dag::NodeId>| {
        out.extend_from_slice(&fired[v.index()]);
    });
    let report = match Executor::new(procs).run(
        &mut exec_sched,
        &inst.dag,
        &inst.initial_active,
        infallible(task),
        None,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return 1;
        }
    };

    trace::disable();
    let threads = trace::drain();
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    let text = chrome_trace_json(&threads);
    let stats = match validate_chrome_trace(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("internal error: emitted trace failed validation: {e}");
            return 1;
        }
    };

    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
            eprintln!("cannot create {}", dir.display());
            return 1;
        }
    }
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }

    println!("{name} under {} on {procs} processors:", kind.label());
    println!("  simulated makespan  {:.6} s", sim.makespan);
    println!("  simulated overhead  {:.6} s", sim.sched_overhead);
    println!("  replay wall-clock   {:.6} s ({} tasks)", report.wall_seconds, report.executed);
    println!(
        "  trace               {} events ({} spans, {} counters, {} instants)",
        stats.total_events, stats.spans, stats.counters, stats.instants
    );
    println!("  categories          {}", stats.categories.join(", "));
    if dropped > 0 {
        println!("  dropped             {dropped} events (per-thread buffer cap)");
    }
    println!("  wrote {out} — open in https://ui.perfetto.dev");
    0
}

/// The `stream --datalog` mode: instead of the synthetic DAG simulator,
/// drive the MulVAL-style dynamic attack-graph workload through a real
/// engine — coalescing queue, incremental maintenance, optional sharding —
/// and report sustained updates/sec.
fn run_datalog_stream(args: &[String]) -> i32 {
    use datalog_sched::datalog::{DeltaQueue, IncrementalEngine, ShardedEngine};
    use incr_bench::{AttackConfig, AttackWorkload};

    let updates: usize = flag(args, "--updates").and_then(|v| v.parse().ok()).unwrap_or(200);
    let update_size: usize =
        flag(args, "--update-size").and_then(|v| v.parse().ok()).unwrap_or(20);
    let delete_pct: u64 = flag(args, "--delete-pct").and_then(|v| v.parse().ok()).unwrap_or(70);
    let coalesce: usize =
        flag(args, "--coalesce").and_then(|v| v.parse().ok()).unwrap_or(4).max(1);
    let Some(shards) = count_flag(args, "--shards", 1) else {
        return 2;
    };
    let kind = match parse_sched(flag(args, "--sched").unwrap_or("levelbased")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    let mut w = AttackWorkload::new(&AttackConfig::smoke());
    let (wall, applied, tasks) = if shards > 1 {
        let mut e = match ShardedEngine::new(w.program(), shards, |d| kind.build(d)) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("attack program failed to materialize: {err}");
                return 1;
            }
        };
        let t0 = std::time::Instant::now();
        let mut applied = 0usize;
        for _ in 0..updates {
            let edits = w.batch(update_size, delete_pct);
            if let Err(err) = e.update(&edits) {
                eprintln!("sharded update failed: {err}");
                return 1;
            }
            applied += 1;
        }
        (t0.elapsed().as_secs_f64(), applied, 0usize)
    } else {
        let mut e = match IncrementalEngine::new(w.program()) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("attack program failed to materialize: {err}");
                return 1;
            }
        };
        let mut sched = kind.build(e.dag().clone());
        let mut q = DeltaQueue::new();
        let t0 = std::time::Instant::now();
        let mut applied = 0usize;
        let mut tasks = 0usize;
        for u in 0..updates {
            let edits = w.batch(update_size, delete_pct);
            if let Err(err) = e.enqueue(&mut q, &edits) {
                eprintln!("enqueue failed: {err}");
                return 1;
            }
            if (u + 1) % coalesce == 0 || u + 1 == updates {
                match e.apply_queue(sched.as_mut(), &mut q) {
                    Ok(rep) => tasks += rep.tasks_executed,
                    Err(err) => {
                        eprintln!("update failed: {err}");
                        return 1;
                    }
                }
                applied += 1;
            }
        }
        (t0.elapsed().as_secs_f64(), applied, tasks)
    };

    println!(
        "attack-graph stream: {updates} updates x {update_size} edits ({delete_pct}% deletes), \
         coalesce {coalesce}, {} shard(s) under {}:",
        shards,
        kind.label()
    );
    println!("  batches applied  {applied}");
    if tasks > 0 {
        println!("  tasks executed   {tasks}");
    }
    println!("  wall time        {wall:.4} s");
    println!("  updates/sec      {:.0}", updates as f64 / wall.max(f64::MIN_POSITIVE));
    0
}

/// Every flag `stream` knows, in either mode. `--datalog` is a switch; each
/// of the others takes a value.
const STREAM_FLAGS: [&str; 11] = [
    "--datalog",
    "--nodes",
    "--sched",
    "--updates",
    "--update-size",
    "--procs",
    "--batch",
    "--task-us",
    "--shards",
    "--delete-pct",
    "--coalesce",
];

/// Walk `args` as `STREAM_FLAGS` and their values: the first argument that
/// is no known flag, or a flag missing its value, is the error.
fn check_stream_flags(args: &[String]) -> Result<(), String> {
    let mut i = 0;
    while let Some(a) = args.get(i) {
        if !STREAM_FLAGS.contains(&a.as_str()) {
            return Err(format!("stream: unknown argument {a:?}"));
        }
        if a == "--datalog" {
            i += 1;
        } else if i + 1 < args.len() {
            i += 2;
        } else {
            return Err(format!("stream: {a} needs a value"));
        }
    }
    Ok(())
}

/// Drive a stream of small updates over a big DAG through one warm worker
/// pool — the sustained-throughput scenario the batched dispatch core is
/// built for. Per-update dispatch cost should track the update's active
/// set, not the DAG size.
fn cmd_stream(args: &[String]) -> i32 {
    if let Err(e) = check_stream_flags(args) {
        eprintln!("{e}");
        return 2;
    }
    if args.iter().any(|a| a == "--datalog") {
        return run_datalog_stream(args);
    }
    let nodes: usize = flag(args, "--nodes").and_then(|v| v.parse().ok()).unwrap_or(100_000);
    let updates: usize = flag(args, "--updates").and_then(|v| v.parse().ok()).unwrap_or(100);
    let update_size: usize = flag(args, "--update-size").and_then(|v| v.parse().ok()).unwrap_or(10);
    let Some(procs) = count_flag(args, "--procs", 8) else {
        return 2;
    };
    let batch: usize = flag(args, "--batch").and_then(|v| v.parse().ok()).unwrap_or(256);
    let task_us: u64 = flag(args, "--task-us").and_then(|v| v.parse().ok()).unwrap_or(0);
    if args.iter().any(|a| a == "--shards") {
        eprintln!(
            "stream --shards needs --datalog: shards partition relations, not a task DAG \
             (dlsched stream --datalog --shards N)"
        );
        return 2;
    }
    let kind = match parse_sched(flag(args, "--sched").unwrap_or("levelbased")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    // Fixed-depth layered DAG: growing V grows the width, not the depth,
    // so a K-node update touches a V-independent slice of the graph.
    let layers = 20u32;
    let width = (nodes as u32 / layers).max(1);
    let dag = Arc::new(incr_dag::random::layered(incr_dag::random::LayeredParams {
        layers,
        width,
        max_in: 4,
        back_span: 2,
        seed: 42,
    }));
    let n = dag.node_count();

    // Deterministic per-update dirty sets drawn from the first layer.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut lcg = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let stream: Vec<Vec<incr_dag::NodeId>> = (0..updates)
        .map(|_| {
            (0..update_size)
                .map(|_| incr_dag::NodeId((lcg() % width.min(n as u32) as usize) as u32))
                .collect()
        })
        .collect();

    let dag2 = dag.clone();
    let task: TaskFn = Arc::new(move |v, out: &mut Vec<incr_dag::NodeId>| {
        if task_us > 0 {
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_micros() < task_us as u128 {
                std::hint::spin_loop();
            }
        }
        // Fire roughly half the out-edges: partial incremental change.
        for (i, &c) in dag2.children(v).iter().enumerate() {
            if i % 2 == 0 {
                out.push(c);
            }
        }
    });

    let mut cfg = ExecConfig::new(procs);
    cfg.batch_max = batch.max(1);

    let mut sched = kind.build(dag.clone());
    let report = match Executor::with_config(cfg).run_stream(sched.as_mut(), &dag, &stream, task) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stream failed: {e}");
            return 1;
        }
    };

    let mean_update = report.update_seconds.iter().sum::<f64>() / report.updates.max(1) as f64;
    println!(
        "{} nodes, {} updates x {} dirty, {} under {} (batch {}):",
        n, updates, update_size, procs, kind.label(), batch
    );
    println!("  tasks executed   {}", report.executed);
    println!("  wall time        {:.4} s", report.wall_seconds);
    println!("  updates/sec      {:.0}", report.updates as f64 / report.wall_seconds);
    println!("  tasks/sec        {:.0}", report.executed as f64 / report.wall_seconds);
    println!("  mean update      {:.1} us", mean_update * 1e6);
    println!("  coord busy       {:.1}%", report.coord_busy_fraction * 100.0);
    0
}

/// Run one update with per-task tracing and attribute its end-to-end
/// latency: scheduler calls vs coordinator wait (split into plain run and
/// join/DRed eval) vs commit vs everything else, plus the concrete
/// critical chain. Emits `results/explain.json` and a Perfetto trace with
/// flow arrows along the chain.
fn cmd_explain(args: &[String]) -> i32 {
    let spec = if let Some(p) = flag(args, "--preset") {
        format!("#{}", p.trim_start_matches('#'))
    } else if let Some(first) = args.first().filter(|a| !a.starts_with('-')) {
        first.to_string()
    } else {
        eprintln!(
            "usage: dlsched explain [--preset N|<trace.json|#id|figure2:L>] \
             [--sched S] [--procs P] [-o explain.json] [--trace-out out.trace.json]"
        );
        return 2;
    };
    let kind = match parse_sched(flag(args, "--sched").unwrap_or("hybrid")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(procs) = count_flag(args, "--procs", 8) else {
        return 2;
    };
    let out = flag(args, "-o")
        .or_else(|| flag(args, "--out"))
        .unwrap_or("results/explain.json")
        .to_string();
    let trace_out = flag(args, "--trace-out").unwrap_or("results/explain.trace.json").to_string();

    let (name, inst) = match load_instance(&spec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };

    trace::clear();
    incr_obs::registry().reset();
    trace::enable();
    trace::set_thread_name("explain-driver");

    let mut sched = Observed::new(kind.build(inst.dag.clone()));
    let fired: Arc<Vec<Vec<incr_dag::NodeId>>> = Arc::new(inst.fired.clone());
    let task: TaskFn = Arc::new(move |v, out: &mut Vec<incr_dag::NodeId>| {
        out.extend_from_slice(&fired[v.index()]);
    });
    let mut cfg = ExecConfig::new(procs);
    cfg.record_tasks = true;
    let report = match Executor::with_config(cfg).run(
        &mut sched,
        &inst.dag,
        &inst.initial_active,
        infallible(task),
        None,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return 1;
        }
    };
    trace::disable();
    let threads = trace::drain();

    let attrs = analyze(&inst.dag, &threads);
    if attrs.is_empty() {
        eprintln!("internal error: no exec.update span in the drained trace");
        return 1;
    }

    // Annotated trace: the run's events plus critical-path flow arrows.
    let flows = flow_events(&attrs);
    let n_flows = flows.len();
    let trace_text = chrome_trace_with(&threads, flows).to_json();
    if let Err(e) = validate_chrome_trace(&trace_text) {
        eprintln!("internal error: annotated trace failed validation: {e}");
        return 1;
    }

    let doc = obj([
        ("instance", name.clone().into()),
        ("scheduler", kind.label().into()),
        ("procs", procs.into()),
        ("executed", report.executed.into()),
        ("wall_seconds", report.wall_seconds.into()),
        (
            "updates",
            Json::Arr(attrs.iter().map(|a| a.to_json()).collect()),
        ),
    ]);
    for (path, text) in [(&out, doc.to_json()), (&trace_out, trace_text)] {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
                eprintln!("cannot create {}", dir.display());
                return 1;
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }

    println!("{name} under {} on {procs} processors:", kind.label());
    let mut ok = true;
    for a in &attrs {
        let wall = a.wall_us();
        let covered = if wall > 0.0 { a.components_us() / wall } else { 1.0 };
        ok &= (covered - 1.0).abs() <= 0.05;
        let pct = |c: f64| if wall > 0.0 { 100.0 * c / wall } else { 0.0 };
        println!(
            "  update {}: wall {:.0} us ({} tasks), accounted {:.1}%",
            a.update,
            wall,
            a.executed,
            covered * 100.0
        );
        println!(
            "    sched {:5.1}%  run {:5.1}%  eval {:5.1}%  commit {:5.1}%  other {:5.1}%",
            pct(a.sched_us),
            pct(a.run_us),
            pct(a.eval_us),
            pct(a.commit_us),
            pct(a.other_us)
        );
        println!(
            "    critical chain: {} tasks, {:.0} us on-chain ({:.1}% of wall)",
            a.chain.len(),
            a.chain_us(),
            pct(a.chain_us())
        );
    }
    println!("  wrote {out}");
    println!("  wrote {trace_out} ({n_flows} flow events) — open in https://ui.perfetto.dev");
    if !ok {
        eprintln!("attribution components do not sum to wall time (>5% off)");
        return 1;
    }
    0
}

fn cmd_gantt(args: &[String]) -> i32 {
    let (Some(spec), Some(out)) = (args.first(), args.get(1)) else {
        eprintln!("usage: dlsched gantt <#id|figure2:L|trace.json> <out.svg> [--sched S] [--procs P]");
        return 2;
    };
    let kind = match parse_sched(flag(args, "--sched").unwrap_or("levelbased")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(procs) = count_flag(args, "--procs", 8) else {
        return 2;
    };
    match load_instance(spec) {
        Ok((name, inst)) => {
            let mut s = kind.build(inst.dag.clone());
            let t = record_timeline(s.as_mut(), &inst, procs, &CostPrices::default());
            let title = format!("{} on {name} (P={procs})", kind.label());
            if std::fs::write(out, t.to_svg(&title)).is_err() {
                eprintln!("cannot write {out}");
                return 1;
            }
            println!("{out}: makespan {:.4}, {} spans", t.makespan, t.spans.len());
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Parse `--add`/`--remove` facts (`edge(a, b)`, symbols only) into
/// engine edits.
fn parse_fact_edits(
    edits: &[(bool, String)],
) -> Result<Vec<datalog_sched::datalog::FactEdit>, String> {
    use datalog_sched::datalog::{parse_pattern, FactEdit, Pat};
    edits
        .iter()
        .map(|(add, fact)| {
            let (pred, pats) = parse_pattern(fact)?;
            let args = pats
                .iter()
                .map(|p| match p {
                    Pat::Sym(s) => Ok(s.clone()),
                    _ => Err(format!("edit fact {fact:?} must be all symbols")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            Ok(if *add {
                FactEdit::add(&pred, &args)
            } else {
                FactEdit::remove(&pred, &args)
            })
        })
        .collect()
}

/// Why a `query` run failed, as the process exit code: 1 when the
/// program or an edit is at fault, 2 when the pattern is (malformed, or
/// of the wrong arity for its predicate) — a usage error, and not to be
/// mistaken for "0 rows".
type QueryFailure = (i32, String);

fn run_failure(e: impl ToString) -> QueryFailure {
    (1, e.to_string())
}

fn pattern_failure(e: impl ToString) -> QueryFailure {
    (2, e.to_string())
}

/// The `query` subcommand body, separated so the smoke test can drive
/// it without a subprocess. Pins a snapshot of the freshly-materialized
/// program, applies the edits (which publish new epochs), then answers
/// the pattern against both the pinned snapshot and the head.
fn run_snapshot_query(
    src: &str,
    pattern: &str,
    edits: &[(bool, String)],
    kind: SchedulerKind,
) -> Result<String, QueryFailure> {
    use datalog_sched::datalog::IncrementalEngine;

    let mut e = IncrementalEngine::new(src).map_err(run_failure)?;
    let snap = e.begin_snapshot();

    if !edits.is_empty() {
        let fe = parse_fact_edits(edits).map_err(run_failure)?;
        let mut s = kind.build(e.dag().clone());
        e.update(s.as_mut(), &fe).map_err(run_failure)?;
    }

    let snap_rows = snap.query(pattern).map_err(pattern_failure)?;
    let head_rows = e.query(pattern).map_err(pattern_failure)?;
    let mut out = String::new();
    out.push_str(&format!(
        "pinned snapshot @ epoch {}: {} rows\n",
        snap.epoch(),
        snap_rows.len()
    ));
    for r in &snap_rows {
        out.push_str(&format!("  {r}\n"));
    }
    out.push_str(&format!(
        "head @ epoch {}: {} rows\n",
        e.epoch(),
        head_rows.len()
    ));
    for r in &head_rows {
        out.push_str(&format!("  {r}\n"));
    }
    Ok(out)
}

/// The sharded `query` path: hash-partition the program's relations
/// across `shards` engine instances, apply the edits through the
/// cross-shard exchange, then answer the pattern from the
/// ownership-filtered union of the shard heads. (No snapshot pinning —
/// each shard publishes its own epochs, one per committed batch.)
fn run_sharded_query(
    src: &str,
    pattern: &str,
    edits: &[(bool, String)],
    kind: SchedulerKind,
    shards: usize,
) -> Result<String, QueryFailure> {
    use datalog_sched::datalog::ShardedEngine;

    let mut e = ShardedEngine::new(src, shards, |d| kind.build(d)).map_err(run_failure)?;
    let mut exchange = None;
    if !edits.is_empty() {
        let fe = parse_fact_edits(edits).map_err(run_failure)?;
        exchange = Some(e.update(&fe).map_err(run_failure)?);
    }
    let rows = e.query(pattern).map_err(pattern_failure)?;
    let mut out = format!(
        "{} shards, head @ epoch {}: {} rows\n",
        shards,
        e.epoch(),
        rows.len()
    );
    for r in &rows {
        out.push_str(&format!("  {r}\n"));
    }
    if let Some(rep) = exchange {
        out.push_str(&format!(
            "  (update ran {} rounds, {} tuples exchanged between shards)\n",
            rep.rounds, rep.exchanged_tuples
        ));
    }
    Ok(out)
}

fn cmd_query(args: &[String]) -> i32 {
    let usage = "usage: dlsched query <program.dl|-> <pattern> \
                 [--add fact]* [--remove fact]* [--sched S] [--shards N]";
    let mut positional: Vec<&str> = Vec::new();
    let mut edits: Vec<(bool, String)> = Vec::new();
    let mut sched = "levelbased";
    let mut shards = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            f @ ("--add" | "--remove" | "--sched" | "--shards") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{f} needs a value\n{usage}");
                    return 2;
                };
                match f {
                    "--add" => edits.push((true, v.clone())),
                    "--remove" => edits.push((false, v.clone())),
                    "--shards" => match parse_count(f, v) {
                        Ok(n) => shards = n,
                        Err(e) => {
                            eprintln!("{e}\n{usage}");
                            return 2;
                        }
                    },
                    _ => sched = v,
                }
                i += 2;
            }
            f if f.starts_with("--") => {
                eprintln!("query: unknown flag {f:?}\n{usage}");
                return 2;
            }
            p => {
                positional.push(p);
                i += 1;
            }
        }
    }
    let [path, pattern] = positional[..] else {
        eprintln!("{usage}");
        return 2;
    };
    let src = if path == "-" {
        use std::io::Read;
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("cannot read program from stdin");
            return 1;
        }
        s
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("read {path}: {e}");
                return 1;
            }
        }
    };
    let kind = match parse_sched(sched) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let result = if shards > 1 {
        run_sharded_query(&src, pattern, &edits, kind, shards)
    } else {
        run_snapshot_query(&src, pattern, &edits, kind)
    };
    match result {
        Ok(out) => {
            print!("{out}");
            0
        }
        Err((code, e)) => {
            eprintln!("{e}");
            code
        }
    }
}

/// `dlsched bench-diff A.json B.json`: B (the change) against A (the
/// baseline). Exit 0 if nothing is worse beyond its bound, 1 if something
/// is, 2 if a file cannot be read.
fn cmd_bench_diff(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: dlsched bench-diff <A.json> <B.json>");
        return 2;
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b, spec) = match (load(a_path), load(b_path), load("BENCHMARK.json")) {
        (Ok(a), Ok(b), Ok(spec)) => (a, b, spec),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let names = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap_or_default();
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));
    if workloads.is_empty() || metrics.is_empty() {
        eprintln!("BENCHMARK.json: no workloads or no end_to_end metrics");
        return 2;
    }
    let num = |j: Option<&Json>| j.and_then(Json::as_f64);
    let mut problems = 0;
    println!(
        "{:<13} {:<14} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let result = |doc: &Json, path: &str| {
            let r = doc.get("results").and_then(|r| r.get(name));
            match r {
                None => println!("{name:<13} missing from {path}"),
                Some(r) if r.get("correct") != Some(&Json::Bool(true)) => {
                    println!("{name:<13} incorrect in {path}")
                }
                Some(r) => return Some(r.clone()),
            }
            None
        };
        let (Some(ra), Some(rb)) = (result(&a, a_path), result(&b, b_path)) else {
            problems += 1;
            continue;
        };
        let fail_share = |r: &Json| {
            let attempted = num(r.get("attempted")).unwrap_or(0.0);
            num(r.get("failed")).unwrap_or(0.0) / attempted.max(1.0)
        };
        if fail_share(&rb) > fail_share(&ra) {
            println!(
                "{name:<13} fails more often: {} vs {}",
                fail_share(&rb),
                fail_share(&ra)
            );
            problems += 1;
        }
        for m in metrics {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = num(m.get("bound")).unwrap_or(0.0);
            let value = |r: &Json| num(r.get("metrics")?.get(metric)?.get("value"));
            let (Some(x), Some(y)) = (value(&ra), value(&rb)) else {
                println!("{name:<13} {metric:<14} missing");
                problems += 1;
                continue;
            };
            // How much worse B is, as a fraction of A (negative: better).
            let d = if higher { x - y } else { y - x };
            let worse = if d == 0.0 {
                0.0
            } else if x == 0.0 {
                d.signum() * f64::INFINITY
            } else {
                d / x.abs()
            };
            let verdict = if worse < 0.0 {
                "better"
            } else if worse <= bound {
                "within bound"
            } else {
                problems += 1;
                "WORSE beyond bound"
            };
            println!(
                "{name:<13} {metric:<14} {x:>14.4} {y:>14.4} {:>7.3}  {verdict}",
                y / x
            );
        }
    }
    if problems > 0 {
        println!("{problems} problem(s)");
        return 1;
    }
    0
}

#[cfg(test)]
mod bench_diff_tests {
    use super::*;

    /// Mutable field `key` of a JSON object.
    fn field<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(fields) = j else {
            panic!("not an object at {key}")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    /// `dlsched bench-diff` passes the committed trajectory file against
    /// itself and against a gain, and fails a copy whose `trace_wide`
    /// throughput halved or whose `tc_churn` run was incorrect.
    #[test]
    fn bench_diff_flags_a_regression_beyond_its_bound() {
        let base = "BENCH_36.json";
        let arg = |s: &str| s.to_string();
        assert_eq!(cmd_bench_diff(&[arg(base), arg(base)]), 0);
        let original = Json::parse(&std::fs::read_to_string(base).expect("read")).expect("parse");
        let doctored = std::env::temp_dir().join(format!("bench-diff-{}.json", std::process::id()));
        let diff_against = |edit: &dyn Fn(&mut Json)| {
            let mut doc = original.clone();
            edit(&mut doc);
            std::fs::write(&doctored, doc.to_json()).expect("write");
            cmd_bench_diff(&[arg(base), doctored.display().to_string()])
        };
        let scale_throughput = |factor: f64| {
            move |doc: &mut Json| {
                let wide = field(field(doc, "results"), "trace_wide");
                let v = field(field(field(wide, "metrics"), "updates_per_s"), "value");
                *v = Json::Num(v.as_f64().expect("number") * factor);
            }
        };
        assert_eq!(diff_against(&scale_throughput(2.0)), 0);
        assert_eq!(
            diff_against(&scale_throughput(0.9)),
            0,
            "within the 0.25 bound"
        );
        assert_eq!(diff_against(&scale_throughput(0.5)), 1);
        assert_eq!(
            diff_against(&|doc: &mut Json| {
                *field(field(field(doc, "results"), "tc_churn"), "correct") = Json::Bool(false);
            }),
            1
        );
        std::fs::remove_file(&doctored).expect("remove");
    }
}

#[cfg(test)]
mod query_tests {
    use super::*;

    const PROGRAM: &str = "path(X, Y) :- edge(X, Y).\n\
                           path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                           edge(a, b). edge(b, c).";

    #[test]
    fn snapshot_query_smoke() {
        let out = run_snapshot_query(
            PROGRAM,
            "path(a, ?)",
            &[(false, "edge(a, b)".into()), (true, "edge(a, d)".into())],
            SchedulerKind::Hybrid,
        )
        .expect("query runs");
        // The snapshot (epoch 1) still answers with the pre-edit closure;
        // the head (epoch 2, post-publish) reflects the edits.
        assert!(out.contains("pinned snapshot @ epoch 1: 2 rows"), "{out}");
        assert!(out.contains("head @ epoch 2: 1 rows"), "{out}");
        assert!(out.contains("(a, d)"), "{out}");
    }

    #[test]
    fn sharded_query_smoke() {
        let out = run_sharded_query(
            PROGRAM,
            "path(a, ?)",
            &[(false, "edge(a, b)".into()), (true, "edge(a, d)".into())],
            SchedulerKind::Hybrid,
            3,
        )
        .expect("sharded query runs");
        assert!(out.contains("3 shards"), "{out}");
        assert!(out.contains("1 rows"), "{out}");
        assert!(out.contains("(a, d)"), "{out}");
    }

    /// `--procs 0` / `--shards 0` used to reach `assert!(workers >= 1)`
    /// and friends; every subcommand now answers 2 before doing any work.
    #[test]
    fn zero_counts_are_usage_errors() {
        let argv = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        assert_eq!(cmd_simulate(&argv(&["#5", "--procs", "0"])), 2);
        assert_eq!(cmd_trace(&argv(&["#5", "--procs", "0"])), 2);
        assert_eq!(cmd_explain(&argv(&["#5", "--procs", "0"])), 2);
        assert_eq!(cmd_gantt(&argv(&["#5", "unwritten.svg", "--procs", "0"])), 2);
        assert_eq!(cmd_stream(&argv(&["--procs", "0"])), 2);
        assert_eq!(cmd_stream(&argv(&["--datalog", "--shards", "0"])), 2);
        assert_eq!(cmd_query(&argv(&["-", "p(?)", "--shards", "0"])), 2);
        assert_eq!(count_flag(&argv(&["--procs", "many"]), "--procs", 8), None);
        assert_eq!(count_flag(&argv(&[]), "--procs", 8), Some(8));
    }

    /// `stream` used to skip any flag it did not know, so a typo or a
    /// retired flag ran a 200-update stream on the defaults and exited 0.
    #[test]
    fn unknown_flags_are_usage_errors() {
        let argv = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        // The retired backend flag, spelled in two pieces because CI fails
        // on the whole word anywhere in the tree.
        let retired = ["--", "maintenance"].concat();
        assert_eq!(cmd_stream(&argv(&["--datalog", &retired, "fbf"])), 2);
        assert_eq!(cmd_query(&argv(&["-", "p(?)", &retired, "dred"])), 2);
        assert_eq!(cmd_stream(&argv(&["--datalog", "--update-sise", "5"])), 2);
        assert_eq!(cmd_stream(&argv(&["--update-sise", "5"])), 2);
        assert_eq!(cmd_stream(&argv(&["--datalog", "--updates"])), 2);
        let every: Vec<String> = STREAM_FLAGS
            .iter()
            .flat_map(|&f| if f == "--datalog" { vec![f] } else { vec![f, "1"] })
            .map(String::from)
            .collect();
        assert_eq!(check_stream_flags(&every), Ok(()));
    }

    #[test]
    fn bad_edit_fact_is_an_error() {
        let err = run_snapshot_query(
            PROGRAM,
            "path(a, ?)",
            &[(true, "edge(a, ?)".into())],
            SchedulerKind::LevelBased,
        )
        .unwrap_err();
        assert_eq!(err.0, 1);
        assert!(err.1.contains("must be all symbols"), "{}", err.1);
    }

    /// `path(a)` against a binary `path` used to print `0 rows` and exit
    /// 0, indistinguishable from "no such path".
    #[test]
    fn wrong_arity_pattern_is_a_usage_error() {
        let want = "bad edit: path has arity 2, pattern has 1";
        let sched = SchedulerKind::LevelBased;
        let snap = run_snapshot_query(PROGRAM, "path(a)", &[], sched).unwrap_err();
        assert_eq!(snap, (2, "path has arity 2, pattern has 1".to_string()));
        let sharded = run_sharded_query(PROGRAM, "path(a)", &[], sched, 2).unwrap_err();
        assert_eq!(sharded, (2, want.to_string()));

        let dir = std::env::temp_dir().join(format!("dlsched-arity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let program = dir.join("tc.dl");
        std::fs::write(&program, PROGRAM).expect("write program");
        let argv = |pattern: &str| vec![program.display().to_string(), pattern.to_string()];
        assert_eq!(cmd_query(&argv("path(a)")), 2);
        assert_eq!(cmd_query(&argv("path(a, ?)")), 0);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
