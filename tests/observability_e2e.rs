//! End-to-end observability: run instrumented components with tracing
//! enabled, export, and validate the Chrome trace — including a real
//! multi-threaded executor run whose events land in per-worker shards.
//!
//! Trace state is process-global, so every test here serializes on one
//! lock and drains the buffers before starting.

use datalog_sched::datalog::{FactEdit, IncrementalEngine};
use datalog_sched::runtime::executor::{ExecConfig, ExecError, TaskOutcome, TryTaskFn};
use datalog_sched::runtime::faults::silence_injected_panics;
use datalog_sched::runtime::{analyze, flow_events, infallible, Executor, TaskFn};
use datalog_sched::sched::{Observed, SchedulerKind};
use datalog_sched::sim::{simulate_event, EventSimConfig};
use datalog_sched::traces::{generate, preset};
use incr_obs::export::{chrome_trace_json, chrome_trace_with, jsonl, validate_chrome_trace};
use incr_obs::flight::{self, FlightCode};
use incr_obs::{trace, Json};
use std::sync::{Arc, Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Categories present in a validated export.
fn run_and_validate(f: impl FnOnce()) -> (incr_obs::export::TraceStats, String) {
    trace::clear();
    trace::enable();
    f();
    trace::disable();
    let threads = trace::drain();
    let text = chrome_trace_json(&threads);
    let stats = validate_chrome_trace(&text).expect("emitted trace must validate");
    (stats, text)
}

#[test]
fn executor_run_produces_balanced_multithreaded_trace() {
    let _guard = serial();
    let spec = preset(5);
    let (inst, _) = generate(&spec);
    let (stats, text) = run_and_validate(|| {
        let mut s = Observed::new(SchedulerKind::Hybrid.build(inst.dag.clone()));
        let fired = Arc::new(inst.fired.clone());
        let task: TaskFn = Arc::new(move |v, out: &mut Vec<_>| {
            out.extend_from_slice(&fired[v.index()]);
        });
        let report = Executor::new(4)
            .run(&mut s, &inst.dag, &inst.initial_active, infallible(task), None)
            .expect("run succeeds");
        assert_eq!(report.executed, inst.active_count());
    });
    assert!(stats.spans > 0, "executor run must record spans");
    assert!(
        stats.categories.iter().any(|c| c == "exec"),
        "worker/coordinator spans missing: {:?}",
        stats.categories
    );
    assert!(
        stats.categories.iter().any(|c| c == "sched"),
        "Observed scheduler spans missing: {:?}",
        stats.categories
    );
    // Several distinct real-time tracks: coordinator + ≥2 workers.
    let doc = Json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(1))
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.len() >= 3,
        "expected events from several threads, saw tracks {tids:?}"
    );
}

#[test]
fn simulated_run_exports_both_time_domains() {
    let _guard = serial();
    let spec = preset(5);
    let (inst, _) = generate(&spec);
    let (stats, text) = run_and_validate(|| {
        let mut s = Observed::new(SchedulerKind::LevelBased.build(inst.dag.clone()));
        let r = simulate_event(&mut s, &inst, &EventSimConfig::default());
        assert!(r.makespan > 0.0);
    });
    assert!(stats.categories.iter().any(|c| c == "sim"));
    let doc = Json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_u64);
    assert!(
        events.iter().any(|e| pid_of(e) == Some(1)),
        "real-time events missing"
    );
    assert!(
        events.iter().any(|e| pid_of(e) == Some(2)),
        "simulated-time events missing"
    );
}

#[test]
fn datalog_update_emits_dred_phase_spans() {
    let _guard = serial();
    let program = "\
        path(X, Y) :- edge(X, Y).\n\
        path(X, Z) :- path(X, Y), edge(Y, Z).\n\
        edge(a, b). edge(b, c). edge(c, d).\n";
    let (stats, text) = run_and_validate(|| {
        let mut engine = IncrementalEngine::new(program).expect("valid program");
        let mut sched = SchedulerKind::Hybrid.build(engine.dag().clone());
        engine
            .update(
                &mut *sched,
                &[FactEdit::remove("edge", &["b", "c"]), FactEdit::add("edge", &["b", "d"])],
            )
            .expect("edit applies");
    });
    assert!(stats.categories.iter().any(|c| c == "datalog"));
    for phase in ["dred.overdelete", "dred.insert"] {
        assert!(
            text.contains(phase),
            "missing DRed phase span {phase} in exported trace"
        );
    }
    assert!(!text.contains("dred.rederive"), "the rederive phase is gone");
    assert!(text.contains("eval "), "missing per-stratum eval span");
}

#[test]
fn jsonl_export_is_one_valid_object_per_line() {
    let _guard = serial();
    trace::clear();
    trace::enable();
    {
        let _s = trace::span("test", "outer");
        trace::instant("test", "tick", vec![("k", 1u64.into())]);
    }
    trace::disable();
    let threads = trace::drain();
    let text = jsonl(&threads);
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = Json::parse(line).expect("each JSONL line parses");
        assert!(v.get("name").is_some());
        assert!(v.get("ph").is_some());
    }
}

/// A flight ring that wrapped (more events than capacity) must still dump
/// to a structurally valid Chrome trace, with the loss accounted.
#[test]
fn flight_dump_validates_including_ring_wraparound() {
    let _guard = serial();
    flight::set_enabled(true);
    flight::clear();
    flight::set_thread_name("flight-wrap-e2e");
    for i in 0..(flight::RING_CAPACITY * 2 + 17) {
        flight::instant(FlightCode::PopBatch, i as u64);
    }
    let lanes = flight::snapshot();
    let lane = lanes
        .iter()
        .find(|l| l.name.as_deref() == Some("flight-wrap-e2e"))
        .expect("this thread's lane");
    assert!(lane.overwritten > 0, "ring must have wrapped");
    assert!(lane.events.len() <= flight::RING_CAPACITY);
    let text = flight::chrome_dump(&lanes, &[("scenario", "wraparound".into())]).to_json();
    let stats = validate_chrome_trace(&text).expect("wrapped dump must validate");
    assert!(stats.total_events > 0);
    assert!(text.contains("flight.context"), "context instant missing");
    assert!(text.contains("events_lost"), "wraparound loss not reported");
    flight::clear();
}

/// The executor's black box: a worker panic with tracing OFF must still
/// leave a validator-clean dump naming the error, stitched from the
/// always-on flight rings.
#[test]
fn executor_error_dumps_black_box_without_tracing() {
    let _guard = serial();
    silence_injected_panics();
    trace::clear();
    trace::disable();
    flight::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("dlsched-blackbox-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (inst, _) = generate(&preset(5));
    let fired = Arc::new(inst.fired.clone());
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let task: TryTaskFn = {
        let hits = hits.clone();
        Arc::new(move |v, out: &mut Vec<incr_dag::NodeId>| {
            if hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 40 {
                panic!("injected: flight-dump e2e");
            }
            out.extend_from_slice(&fired[v.index()]);
            TaskOutcome::Done
        })
    };
    let mut s = SchedulerKind::Hybrid.build(inst.dag.clone());
    let mut cfg = ExecConfig::new(4);
    cfg.black_box = Some(dir.clone());
    let err = Executor::with_config(cfg)
        .run(s.as_mut(), &inst.dag, &inst.initial_active, task, None)
        .unwrap_err();
    assert!(matches!(err, ExecError::TaskPanicked { .. }), "got {err:?}");

    let path = flight::last_dump().expect("error path must record a dump");
    assert!(path.starts_with(&dir), "dump {path:?} not under {dir:?}");
    assert!(
        path.file_name().unwrap().to_string_lossy().contains("panic"),
        "dump name should carry the error kind: {path:?}"
    );
    let text = std::fs::read_to_string(&path).expect("dump readable");
    validate_chrome_trace(&text).expect("black box must be a valid Chrome trace");
    assert!(text.contains("exec.error"), "error marker missing from dump");
    assert!(text.contains("flight.context"), "context missing from dump");
    assert!(text.contains("injected: flight-dump e2e"), "panic text missing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `dlsched explain` pipeline: per-task tracing, attribution whose
/// components sum to the wall within 5%, a chain that follows real DAG
/// edges, and flow annotations that keep the trace valid.
#[test]
fn attribution_components_sum_and_chain_follows_edges() {
    let _guard = serial();
    let (inst, _) = generate(&preset(5));
    trace::clear();
    trace::enable();
    let mut s = Observed::new(SchedulerKind::Hybrid.build(inst.dag.clone()));
    let fired = Arc::new(inst.fired.clone());
    let task: TaskFn = Arc::new(move |v, out: &mut Vec<_>| {
        out.extend_from_slice(&fired[v.index()]);
    });
    let mut cfg = ExecConfig::new(4);
    cfg.record_tasks = true;
    cfg.black_box = None;
    let report = Executor::with_config(cfg)
        .run(&mut s, &inst.dag, &inst.initial_active, infallible(task), None)
        .expect("run completes");
    trace::disable();
    let threads = trace::drain();

    let attrs = analyze(&inst.dag, &threads);
    assert_eq!(attrs.len(), 1, "one update span expected");
    let a = &attrs[0];
    assert_eq!(a.executed, report.executed, "every task span must be attributed");
    let wall = a.wall_us();
    assert!(wall > 0.0);
    assert!(
        (a.components_us() - wall).abs() <= 0.05 * wall,
        "components {:.1} us vs wall {wall:.1} us",
        a.components_us()
    );
    assert!((a.run_us + a.eval_us - a.wait_us).abs() <= 1e-6 * wall.max(1.0));
    assert!(!a.chain.is_empty(), "an executed update must yield a chain");
    for w in a.chain.windows(2) {
        assert!(
            inst.dag.parents(w[1].node).contains(&w[0].node),
            "chain hop {:?} -> {:?} is not a DAG edge",
            w[0].node,
            w[1].node
        );
    }
    let flows = flow_events(&attrs);
    let text = chrome_trace_with(&threads, flows).to_json();
    validate_chrome_trace(&text).expect("flow-annotated trace must validate");
}

#[test]
fn tracing_disabled_records_nothing_across_layers() {
    let _guard = serial();
    trace::clear();
    trace::disable();
    let spec = preset(5);
    let (inst, _) = generate(&spec);
    let mut s = Observed::new(SchedulerKind::Hybrid.build(inst.dag.clone()));
    let r = simulate_event(&mut s, &inst, &EventSimConfig::default());
    assert!(r.makespan > 0.0);
    let total: usize = trace::drain().iter().map(|t| t.events.len()).sum();
    assert_eq!(total, 0, "disabled tracing must be a no-op");
}
