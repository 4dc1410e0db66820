//! One run of a Datalog workload: set-up, open loop, backlog, the traced
//! run's extra passes, oracle, and the metrics built from them.

use crate::counters::Counters;
use crate::host::{peak_rss_mb, Host};
use crate::hostprobe::{HostProbe, REFERENCE_MS};
use crate::layers::{compare_schedulers, rel_probe, shard_pass};
use crate::metrics::{Report, Value};
use crate::probe::SchedProbe;
use crate::service::{
    open_loop_inputs, oracle, quiet_reads, setup, with_reader, Budget, PhaseStats, ReadStats,
    Ready, Sched, Service, SetupTiming, SCHEDULER, WARMUP_UPDATES,
};
use crate::spans::Spans;
use crate::stats::{
    fastest_replay, five_numbers, median, percentile, sorted, tail_percentile, TAIL_MIN_BEYOND,
};
use crate::workloads::{BaseModel, DatalogInput};
use crate::{Outcome, RunOpts};
use incr_datalog::EvalOptions;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per untraced run, each serving one replay of the open loop;
/// `setup_s` is their median.
const REPLAYS: usize = 5;
/// Host-probe samples on each side of a set-up.
const SETUP_PROBES: usize = 3;
/// Set-ups per traced run; the last one serves.
const SETUPS: usize = 5;
/// A read slower than this waited for the writer.
const BLOCKED_READ_US: f64 = 1_000.0;
const QUIET_READS: usize = 400;
const HEAD_QUERIES: usize = 20;
/// The traced run's three backlog passes take turns in this many slices
/// each, so a drift of the stream over time hits all three alike.
const PASS_ROUNDS: u32 = 5;

/// How a run's `--seconds` split over its phases (of one replay).
struct Phases {
    open: Duration,
    /// The backlog pass; in a traced run, each of: the traced pass, the
    /// bare-scheduler pass, the sequential-options pass, the 2-shard pass.
    backlog: Duration,
}

impl Phases {
    /// An untraced run's `--seconds` are shared by its replays.
    fn of(opts: &RunOpts) -> Phases {
        let share = if opts.traced { 1 } else { REPLAYS };
        let total = Duration::from_secs_f64(opts.seconds / share as f64);
        let (open, backlog) = if opts.traced {
            (0.40, 0.15)
        } else {
            (0.75, 0.25)
        };
        Phases {
            open: total.mul_f64(open),
            backlog: total.mul_f64(backlog),
        }
    }
}

fn per(total: Option<f64>, n: usize) -> Option<f64> {
    total.map(|t| t / n.max(1) as f64)
}

fn ns_to_ms(v: Option<f64>) -> Option<f64> {
    v.map(|ns| ns / 1e6)
}

/// Operations attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, phase: &PhaseStats) {
        self.attempted += phase.updates;
        self.failed += phase.failed;
    }
}

pub fn run(name: &'static str, opts: &RunOpts, host: &Host) -> Outcome {
    if opts.traced {
        traced(name, opts, host)
    } else {
        end_to_end(name, opts, host)
    }
}

/// The untraced run: [`REPLAYS`] replays of the same inputs, each on an
/// engine set up afresh. The inputs come from the seed alone, so arrival
/// `i` of the open loop and batch `b` of the backlog are the same work in
/// every replay; what differs between the replays is the host, which only
/// ever adds time, so each is reported by its fastest replay. All times
/// are at the reference host speed (see `hostprobe`).
fn end_to_end(name: &'static str, opts: &RunOpts, host: &Host) -> Outcome {
    let phases = Phases::of(opts);
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut setup_measured_s = Vec::new();
    let mut opens: Vec<PhaseStats> = Vec::new();
    let mut backlogs: Vec<PhaseStats> = Vec::new();
    let mut read_us = Vec::new();
    let mut tally = Tally::default();
    let mut inputs_hash = None;
    let mut last = None;
    for _ in 0..REPLAYS {
        // Phase 1; the engine of the replay before is gone by now.
        drop(last.take());
        let (mut ready, correction) =
            probe.around(SETUP_PROBES, || setup(name, opts.seed, WARMUP_UPDATES));
        setup_measured_s.push(ready.timing.total_s);
        setup_s.push(ready.timing.total_s * correction);
        let (updates, due) = open_loop_inputs(&mut ready, opts.seed, phases.open);
        let hash = ready.hash.finish();
        if inputs_hash.is_none() {
            println!(
                "inputs: {} base facts, {} materialised tuples, {} open-loop arrivals ({}), hash {hash:016x}, replayed {REPLAYS} times",
                ready.input.facts.len(),
                ready.materialized_tuples,
                updates.len(),
                ready.input.arrivals.describe(),
            );
        }
        assert_eq!(
            *inputs_hash.get_or_insert(hash),
            hash,
            "a replay's inputs differ"
        );
        let Ready {
            rules,
            mut model,
            mut input,
            engine,
            sched,
            ..
        } = ready;
        let mut service = Service::new(engine, Sched::Bare(sched), None);

        // Phase 2: open loop, the reader beside it where the workload has
        // one and the host a core for it.
        let with_reader_thread = input.reader_thread && host.multi_core();
        let reader = service.engine.reader();
        let (open, reads) = with_reader(reader, input.queries, with_reader_thread, || {
            service.open_loop(&updates, &due, Some(&mut probe))
        });
        tally.add(&open);
        if let Some(r) = reads {
            tally.attempted += r.read_us.len();
            tally.failed += r.failed;
            read_us.extend(r.read_us);
        }
        opens.push(open);

        // Phase 3: backlog; the first replay fixes how many batches.
        let budget = match backlogs.first() {
            None => Budget::Time(phases.backlog),
            Some(first) => Budget::Batches(first.applies),
        };
        let mut backlog = PhaseStats::default();
        service.backlog(
            &mut backlog,
            &mut input,
            &mut model,
            budget,
            Some(&mut probe),
        );
        tally.add(&backlog);
        backlogs.push(backlog);
        last = Some((service, model, rules));
    }
    // Without the probe's table, which is the benchmark's own.
    let peak_rss = peak_rss_mb() - probe.resident_mib();
    let (service, model, rules) = last.expect("at least one replay");

    let per_replay = |phases: &[PhaseStats], f: &dyn Fn(&PhaseStats) -> Vec<f64>| {
        fastest_replay(&phases.iter().map(f).collect::<Vec<_>>())
    };
    let sojourn_ms = per_replay(&opens, &|o| o.host_corrected_sojourn_ms(&probe));
    let sojourn_measured_ms = per_replay(&opens, &|o| o.sojourn_ms.clone());
    let batch_ms = per_replay(&backlogs, &|b| b.host_corrected_batch_ms(&probe));
    let batch_measured_ms = per_replay(&backlogs, &PhaseStats::batch_ms);
    println!(
        "open-loop sojourn as measured, ms: {}",
        five_numbers(&sojourn_measured_ms)
    );
    println!(
        "backlog batch as measured, ms:     {}",
        five_numbers(&batch_measured_ms)
    );
    if !read_us.is_empty() {
        let s = sorted(&read_us);
        println!(
            "reads beside the writer: n={} p50={:.1} us p99={:.1} us",
            s.len(),
            percentile(&s, 50.0),
            tail_percentile(&s, 99.0, TAIL_MIN_BEYOND).1
        );
    }
    println!(
        "host probe: median {:.3} ms over {} samples, reference {REFERENCE_MS} ms; every time below is the time measured times reference over probe, batch by batch, and the fastest of {REPLAYS} replays",
        probe.median_ms(),
        probe.len()
    );
    let mut report = Report::default();
    report.num_noted(
        "setup_s",
        median(&setup_s),
        format!(
            "median of {} set-ups; as measured {:.4} s",
            setup_s.len(),
            median(&setup_measured_s)
        ),
    );
    // Every replay served the same batches: the first one's counts.
    let (updates, tasks) = (backlogs[0].updates, backlogs[0].tasks_executed);
    let (busy_s, busy_measured_s) = (
        batch_ms.iter().sum::<f64>() / 1e3,
        batch_measured_ms.iter().sum::<f64>() / 1e3,
    );
    report.num_noted(
        "updates_per_s",
        updates as f64 / busy_s,
        format!(
            "{updates} updates in {} batches x {REPLAYS} replays; as measured {:.1}/s",
            batch_ms.len(),
            updates as f64 / busy_measured_s
        ),
    );
    report.latency_of("update_p50_ms", "update_p95_ms", 95.0, &sojourn_ms, REPLAYS);
    let s = sorted(&sojourn_measured_ms);
    report.also(
        "update_p50_ms",
        format!("as measured {:.3} ms", percentile(&s, 50.0)),
    );
    report.also(
        "update_p95_ms",
        format!(
            "as measured {:.3} ms",
            tail_percentile(&s, 95.0, TAIL_MIN_BEYOND.div_ceil(REPLAYS)).1
        ),
    );
    report.num_noted(
        "tasks_per_s",
        tasks as f64 / busy_s,
        format!("as measured {:.1}/s", tasks as f64 / busy_measured_s),
    );
    report.num("peak_rss_mb", peak_rss);

    // Phase 4: the oracle, on the last replay's engine.
    let o = oracle(rules, &model, &service.engine);
    finish(name, report, tally, vec![o.verdict])
}

fn finish(name: &str, report: Report, tally: Tally, verdicts: Vec<Result<(), String>>) -> Outcome {
    let mut correct = true;
    for v in verdicts {
        if let Err(why) = v {
            eprintln!("ORACLE MISMATCH on {name}: {why}");
            correct = false;
        }
    }
    Outcome {
        report,
        attempted: tally.attempted,
        // A workload whose oracle check failed has failed every operation.
        failed: if correct {
            tally.failed
        } else {
            tally.attempted
        },
        correct: correct && tally.failed == 0,
    }
}

/// The traced run: one open loop and the backlog passes on the last of
/// the set-ups, the scheduler behind the probe, spans recorded. Its times
/// are as measured.
fn traced(name: &'static str, opts: &RunOpts, host: &Host) -> Outcome {
    let (setups, warmup) = if opts.check {
        (1, 10)
    } else {
        (SETUPS, WARMUP_UPDATES)
    };
    let phases = Phases::of(opts);

    // Phase 1, several times over; the last one serves the run.
    let mut ready: Option<Ready> = None;
    for _ in 0..setups {
        drop(ready.take());
        ready = Some(setup(name, opts.seed, warmup));
    }
    let mut ready = ready.expect("at least one set-up");
    let (updates, due) = open_loop_inputs(&mut ready, opts.seed, phases.open);
    println!(
        "inputs: {} base facts, {} materialised tuples, {} open-loop arrivals ({}), hash {:016x}",
        ready.input.facts.len(),
        ready.materialized_tuples,
        updates.len(),
        ready.input.arrivals.describe(),
        ready.hash.finish()
    );
    let Ready {
        rules,
        mut model,
        mut input,
        engine,
        timing,
        materialized_tuples,
        ..
    } = ready;

    // A fresh scheduler behind the probe.
    let dag = engine.dag().clone();
    let t = Instant::now();
    let probed = Sched::Probed(SchedProbe::new(SCHEDULER.build(dag.clone())));
    let precompute_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut service = Service::new(engine, probed, Some(Spans::new(Instant::now())));

    // Phase 2: open loop, the reader beside it where the workload has one
    // and the host a core for it.
    let with_reader_thread = input.reader_thread && host.multi_core();
    let c_open0 = Counters::read();
    let reader = service.engine.reader();
    let (open, reads) = with_reader(reader, input.queries, with_reader_thread, || {
        service.open_loop(&updates, &due, None)
    });
    let c_open1 = Counters::read();

    let mut report = Report::default();
    let mut tally = Tally::default();
    tally.add(&open);
    if let Some(r) = &reads {
        tally.attempted += r.read_us.len();
        tally.failed += r.failed;
    }

    setup_metrics(
        &mut report,
        &timing,
        materialized_tuples,
        dag.node_count(),
        dag.num_levels(),
    );
    report.num("core.precompute_ms", precompute_ms);
    report.num(
        "core.precompute_bytes",
        service.sched.precompute_bytes() as f64,
    );
    service_metrics(&mut report, &open, &service.labels);
    counter_metrics(&mut report, &c_open0, &c_open1, &open);
    let mut publish_ns = c_open1.since(&c_open0, "mvcc.publish_ns").unwrap_or(0.0);
    let passes = backlog_passes(
        &mut service,
        &mut input,
        &mut model,
        phases.backlog,
        &mut publish_ns,
    );
    for pass in [&passes.traced, &passes.bare, &passes.sequential] {
        tally.add(pass);
    }
    pass_metrics(&mut report, &passes, host);
    // The bare-scheduler backlog rate, the shard pass's base.
    let bare_per_s = passes.bare.updates_per_s();
    budget(&mut report, &service, &[&open, &passes.traced], publish_ns);
    scheduler_metrics(
        &mut report,
        &mut service,
        &mut input,
        &mut model,
        &mut tally,
    );
    read_metrics(&mut report, &service, &input, reads.as_ref());
    let p = rel_probe(opts.seed);
    report.num("rel.insert_ns", p.insert_ns);
    report.num("rel.remove_ns", p.remove_ns);
    report.num("rel.contains_ns", p.contains_ns);
    report.num("rel.probe_ns", p.probe_ns);
    if !opts.check {
        if let Some(spans) = &service.spans {
            crate::write_trace(name, &spans.to_json());
        }
    }

    // Phase 4: the oracle.
    let o = oracle(rules, &model, &service.engine);
    drop(o.fresh);
    let mut verdicts = vec![o.verdict];
    report.num("eval.rematerialize_ms", o.rematerialize_ms);
    let apply_p50 = report.get("engine.apply_p50_ms").unwrap_or(f64::NAN);
    report.num_noted(
        "incr.update_over_rematerialize",
        apply_p50 / o.rematerialize_ms,
        format!(
            "apply p50 {apply_p50:.3} ms over rematerialise {:.3} ms",
            o.rematerialize_ms
        ),
    );
    if input.shard_pass {
        // On its own engines, built from the model the oracle just
        // confirmed; it carries the stream and the model on.
        verdicts.extend(shard_metrics(
            &mut report,
            rules,
            &mut model,
            &mut input,
            phases.backlog,
            bare_per_s,
            host,
            &mut tally,
        ));
    }
    finish(name, report, tally, verdicts)
}

fn setup_metrics(report: &mut Report, t: &SetupTiming, tuples: usize, nodes: usize, levels: u32) {
    report.num("parser.parse_ms", t.parse_ms);
    report.num("stratify.ms", t.stratify_ms);
    report.num("taskgraph.nodes", nodes as f64);
    report.num("taskgraph.levels", levels as f64);
    report.num_noted("dag.nodes", nodes as f64, "the predicate task graph".into());
    report.num("dag.levels", levels as f64);
    report.num("eval.materialize_ms", t.materialize_ms);
    report.num("eval.materialize_tuples", tuples as f64);
    println!(
        "set-up parts: generate {:.1} ms, parse {:.1} ms, stratify {:.3} ms, materialise {:.1} ms, scheduler {:.3} ms, warm-up {:.1} ms",
        t.generate_ms, t.parse_ms, t.stratify_ms, t.materialize_ms, t.sched_build_ms, t.warmup_ms
    );
}

/// The open loop of the traced run, as the `stream`, `engine` and `core`
/// layers saw it.
fn service_metrics(report: &mut Report, open: &PhaseStats, labels: &[String]) {
    let applies = open.applies.max(1) as f64;
    report.num_noted(
        "stream.enqueue_us",
        median(&open.enqueue_us),
        "per update".into(),
    );
    report.num_noted(
        "stream.coalesce_factor",
        open.updates as f64 / applies,
        format!("{} updates in {} applies", open.updates, open.applies),
    );
    report.num("stream.cancelled_pairs", open.cancelled_pairs as f64);
    report.num("stream.deduped", open.deduped as f64);
    report.latency(
        "engine.apply_p50_ms",
        "engine.apply_p95_ms",
        95.0,
        &open.apply_ms,
    );
    report.latency(
        "engine.queue_wait_p50_ms",
        "engine.queue_wait_p95_ms",
        95.0,
        &open.queue_wait_ms,
    );
    report.num(
        "engine.tasks_per_apply",
        open.tasks_executed as f64 / applies,
    );
    report.num(
        "engine.edges_fired_per_apply",
        open.edges_fired as f64 / applies,
    );
    report.num_noted(
        "engine.task_p50_ms",
        median(&open.task_ms),
        format!("n={}", open.task_ms.len()),
    );
    let task_total: u64 = open.task_ns_by_node.iter().sum();
    if let Some((node, &ns)) = open
        .task_ns_by_node
        .iter()
        .enumerate()
        .max_by_key(|(_, &ns)| ns)
    {
        report.num_noted(
            "engine.task_max_share",
            ns as f64 / task_total.max(1) as f64,
            format!("{} of all task time", labels[node]),
        );
    }
    let apply_total_ms: f64 = open.apply_ms.iter().sum();
    let inside_ms = (open.sched_ns() + task_total) as f64 / 1e6;
    report.num_noted(
        "engine.self_ms_per_apply",
        (apply_total_ms - inside_ms) / applies,
        "apply minus scheduler calls minus task intervals".into(),
    );
    let updates = open.updates.max(1) as f64;
    report.num(
        "core.sched_us_per_update",
        open.sched_ns() as f64 / 1e3 / updates,
    );
    report.num_noted(
        "core.start_us",
        open.sched_start_ns as f64 / 1e3 / applies,
        "per apply".into(),
    );
    report.num_noted(
        "core.pop_us",
        open.sched_pop_ns as f64 / 1e3 / applies,
        "per apply".into(),
    );
    report.num_noted(
        "core.complete_us",
        open.sched_complete_ns as f64 / 1e3 / applies,
        "per apply".into(),
    );
    report.num_noted(
        "core.sched_share",
        open.sched_ns() as f64 / 1e6 / apply_total_ms,
        "scheduler calls over apply time".into(),
    );
    report.num("core.cost_ops_per_update", open.cost_ops as f64 / updates);
    report.num("core.space_bytes_peak", open.space_bytes_peak as f64);
    report.num_noted(
        "bench.wake_lag_p99_us",
        tail_percentile(&sorted(&open.wake_lag_us), 99.0, TAIL_MIN_BEYOND).1,
        format!("n={}", open.wake_lag_us.len()),
    );
}

/// What the always-on counters moved by during the open loop, per apply.
fn counter_metrics(report: &mut Report, c0: &Counters, c1: &Counters, open: &PhaseStats) {
    let n = open.applies;
    let d = |name: &str| c1.since(c0, name);
    report.set("eval.index_hits", per(d("datalog.index.hit"), n));
    report.set("eval.index_misses", per(d("datalog.index.miss"), n));
    report.set("eval.full_scans", per(d("datalog.scan.full"), n));
    report.set("eval.index_builds", per(d("datalog.index.build"), n));
    report.set(
        "incr.overdelete_ms",
        ns_to_ms(per(d("datalog.dred.overdelete_ns"), n)),
    );
    report.set(
        "incr.rederive_ms",
        ns_to_ms(per(d("datalog.dred.rederive_ns"), n)),
    );
    report.set(
        "incr.insert_ms",
        ns_to_ms(per(d("datalog.dred.insert_ns"), n)),
    );
    report.set(
        "fbf.saved_deletes",
        per(d("datalog.fbf.count_saved_deletes"), n),
    );
    report.set(
        "fbf.backward_checks",
        per(d("datalog.fbf.backward_checks"), n),
    );
    report.set(
        "fbf.forward_rederive_ms",
        ns_to_ms(per(d("datalog.fbf.forward_rederive_ns"), n)),
    );
    report.set(
        "mvcc.publish_ms_per_apply",
        ns_to_ms(per(d("mvcc.publish_ns"), n)),
    );
    report.set(
        "mvcc.rows_retained_peak",
        c1.gauge_peak("mvcc.rows_retained"),
    );
    // How much of the task intervals the phase counters account for.
    let counted: f64 = [
        "datalog.dred.overdelete_ns",
        "datalog.dred.rederive_ns",
        "datalog.dred.insert_ns",
        "datalog.dred.reevaluate_ns",
        "datalog.fbf.forward_rederive_ns",
    ]
    .iter()
    .filter_map(|name| d(name))
    .sum();
    println!(
        "open loop: task intervals {:.1} ms, of which the datalog.dred.*/fbf.* phase counters cover {:.1} ms",
        open.task_ns_by_node.iter().sum::<u64>() as f64 / 1e6,
        counted / 1e6
    );
}

struct BacklogPasses {
    /// Default options, scheduler behind the probe, spans recorded.
    traced: PhaseStats,
    /// Default options, bare scheduler.
    bare: PhaseStats,
    /// `EvalOptions::sequential()`, bare scheduler.
    sequential: PhaseStats,
}

/// The traced run's three backlog passes, `budget` each, taking turns.
/// `publish_ns` gathers what `mvcc.publish_ns` moved by in the traced one.
fn backlog_passes(
    service: &mut Service,
    input: &mut DatalogInput,
    model: &mut BaseModel,
    budget: Duration,
    publish_ns: &mut f64,
) -> BacklogPasses {
    let mut passes = BacklogPasses {
        traced: PhaseStats::default(),
        bare: PhaseStats::default(),
        sequential: PhaseStats::default(),
    };
    let slice = Budget::Time(budget / PASS_ROUNDS);
    let mut other = Sched::Bare(SCHEDULER.build(service.engine.dag().clone()));
    let default_options = service.engine.eval_options().clone();
    for _ in 0..PASS_ROUNDS {
        let c0 = Counters::read();
        service.backlog(&mut passes.traced, input, model, slice, None);
        *publish_ns += Counters::read()
            .since(&c0, "mvcc.publish_ns")
            .unwrap_or(0.0);
        std::mem::swap(&mut service.sched, &mut other);
        service.backlog(&mut passes.bare, input, model, slice, None);
        service.engine.set_eval_options(EvalOptions::sequential());
        service.backlog(&mut passes.sequential, input, model, slice, None);
        service.engine.set_eval_options(default_options.clone());
        std::mem::swap(&mut service.sched, &mut other);
    }
    passes
}

fn pass_metrics(report: &mut Report, passes: &BacklogPasses, host: &Host) {
    let (traced, bare, sequential) = (
        passes.traced.updates_per_s(),
        passes.bare.updates_per_s(),
        passes.sequential.updates_per_s(),
    );
    report.num_noted(
        "obs.trace_overhead_ratio",
        traced / bare,
        format!("traced {traced:.1}/s over untraced {bare:.1}/s"),
    );
    if host.multi_core() {
        report.num_noted(
            "par.default_over_sequential",
            bare / sequential,
            format!("default {bare:.1}/s over sequential {sequential:.1}/s"),
        );
    } else {
        report.set("par.default_over_sequential", Value::Unmeasurable);
    }
}

fn scheduler_metrics(
    report: &mut Report,
    service: &mut Service,
    input: &mut DatalogInput,
    model: &mut BaseModel,
    tally: &mut Tally,
) {
    let (comparison, compared) = compare_schedulers(service, input, model);
    tally.add(&compared);
    report.num("core.levelbased_update_ms", comparison.levelbased_ms);
    report.num("core.logicblox_update_ms", comparison.logicblox_ms);
    report.num_noted(
        "core.hybrid_over_best_ratio",
        comparison.hybrid_over_best(),
        format!("Hybrid {:.3} ms per update", comparison.hybrid_ms),
    );
}

fn read_metrics(
    report: &mut Report,
    service: &Service,
    input: &DatalogInput,
    beside: Option<&ReadStats>,
) {
    // Uncontended reads on the driver thread: what a read costs by itself.
    let quiet = quiet_reads(service.engine.reader(), input.queries, QUIET_READS);
    report.num_noted(
        "mvcc.snapshot_open_us",
        median(&quiet.open_us),
        "no writer running".into(),
    );
    report.num_noted(
        "mvcc.point_read_us",
        median(&quiet.point_us),
        "no writer running".into(),
    );
    report.num_noted(
        "mvcc.scan_read_us",
        median(&quiet.scan_us),
        format!("{}, no writer running", input.queries.scan_pattern),
    );
    let times: Vec<f64> = (0..HEAD_QUERIES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                service
                    .engine
                    .query(input.queries.scan_pattern)
                    .map(|rows| rows.len())
                    .ok(),
            );
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.num_noted(
        "query.pattern_ms",
        median(&times),
        format!("head query {}", input.queries.scan_pattern),
    );
    match beside {
        Some(r) => {
            report.latency("mvcc.read_p50_us", "mvcc.read_p99_us", 99.0, &r.read_us);
            let blocked = r.read_us.iter().filter(|&&us| us > BLOCKED_READ_US).count();
            report.num_noted(
                "mvcc.read_blocked_ratio",
                blocked as f64 / r.read_us.len().max(1) as f64,
                format!(
                    "{blocked} of {} reads beside the writer took over 1 ms",
                    r.read_us.len()
                ),
            );
        }
        // The workload has a reader but the host no core for it.
        None if input.reader_thread => {
            for name in [
                "mvcc.read_p50_us",
                "mvcc.read_p99_us",
                "mvcc.read_blocked_ratio",
            ] {
                report.set(name, Value::Unmeasurable);
            }
        }
        None => {}
    }
}

/// The layer budget of the traced open loop and backlog pass: driver-track
/// self times per layer, with `mvcc.publish_ns` moved out of `engine`.
/// Task intervals are `incr` time: the maintenance of one clique, joins
/// included.
fn budget(report: &mut Report, service: &Service, phases: &[&PhaseStats], publish_ns: f64) {
    let Some(spans) = &service.spans else { return };
    let wall_ns = phases.iter().map(|p| p.wall.as_nanos() as f64).sum::<f64>();
    let mut by_layer: BTreeMap<&str, f64> = spans
        .layer_budget()
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    let covered: f64 = by_layer.values().sum();
    let engine = by_layer.entry("engine").or_insert(0.0);
    *engine = (*engine - publish_ns).max(0.0);
    by_layer.insert("mvcc", publish_ns);
    println!(
        "layer budget of the traced open loop + backlog pass ({:.1} ms wall):",
        wall_ns / 1e6
    );
    for (layer, ns) in &by_layer {
        let what = match *layer {
            "bench" => " (idle: waiting for the next arrival)",
            "incr" => " (task intervals: clique maintenance, joins included)",
            _ => "",
        };
        println!(
            "  {layer:<8} {:>10.2} ms  {:>5.1} %{what}",
            ns / 1e6,
            100.0 * ns / wall_ns
        );
    }
    println!(
        "  {:<8} {:>10.2} ms  {:>5.1} %",
        "sum",
        covered / 1e6,
        100.0 * covered / wall_ns
    );
    report.num_noted(
        "bench.budget_coverage",
        covered / wall_ns,
        "layer self times + idle over the traced wall".into(),
    );
}

/// The 2-shard pass and its metrics; returns its verdict.
#[allow(clippy::too_many_arguments)]
fn shard_metrics(
    report: &mut Report,
    rules: &str,
    model: &mut BaseModel,
    input: &mut DatalogInput,
    budget: Duration,
    unsharded_per_s: f64,
    host: &Host,
    tally: &mut Tally,
) -> Option<Result<(), String>> {
    const NAMES: [&str; 4] = [
        "shard.update_p50_ms",
        "shard.rounds_per_update",
        "shard.exchanged_tuples_per_update",
        "shard.over_unsharded_ratio",
    ];
    if !host.multi_core() {
        for name in NAMES {
            report.set(name, Value::Unmeasurable);
        }
        return None;
    }
    let pass = shard_pass(rules, model, input, budget);
    tally.attempted += pass.updates;
    tally.failed += pass.failed;
    let batches = pass.update_ms.len().max(1) as f64;
    report.num_noted(
        NAMES[0],
        median(&pass.update_ms),
        format!("n={}, 16 source updates each", pass.update_ms.len()),
    );
    report.num(NAMES[1], pass.rounds as f64 / batches);
    report.num(NAMES[2], pass.exchanged_tuples as f64 / batches);
    report.num_noted(
        NAMES[3],
        pass.updates_per_s() / unsharded_per_s,
        format!(
            "2 shards {:.1}/s over the bare backlog pass {unsharded_per_s:.1}/s",
            pass.updates_per_s()
        ),
    );
    Some(pass.verdict)
}
