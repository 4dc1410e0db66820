//! The chaos suite: deterministic fault injection against the threaded
//! executor, across all five paper schedulers.
//!
//! Every scenario asserts the full fault-model contract, not just "no
//! crash":
//!
//! * **zero double-executions** — a node's task body succeeds at most
//!   once across the whole scenario, including across failed attempts
//!   and journal-driven resumes (the paper's run-once safety invariant,
//!   extended over failure);
//! * **safety audit** — every pop is checked by [`SafetyChecker`]
//!   against ground-truth reachability (no active-uncompleted ancestor,
//!   no task popped twice within an attempt);
//! * **eventual completion** — bounded retry/resume rounds drive every
//!   scenario to quiescence;
//! * **output equivalence** — the set of successful executions is
//!   bit-identical to the fault-free run: exactly the active closure,
//!   each node exactly once.
//!
//! Fault plans are seeded and deterministic (`faults.rs`), so the suite
//! covers 200+ distinct scenarios (panic-at-nth / transient failure /
//! delay × five schedulers × many seeds) with exact assertions.

use datalog_sched::dag::{random, NodeId};
use datalog_sched::runtime::executor::{ExecConfig, ExecError, Executor, RetryPolicy, TryTaskFn, UpdateJournal};
use datalog_sched::runtime::faults::{silence_injected_panics, Fault, FaultPlan};
use datalog_sched::runtime::TaskOutcome;
use datalog_sched::sched::{
    CostMeter, Instance, SafetyChecker, Scheduler, SchedulerKind,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The five paper schedulers under test (ISSUE 4 acceptance set).
const SCHEDS: [SchedulerKind; 5] = [
    SchedulerKind::LevelBased,
    SchedulerKind::Lookahead(4),
    SchedulerKind::LogicBlox,
    SchedulerKind::SignalPropagation,
    SchedulerKind::Hybrid,
];

/// Mid-size layered instance with partial firing — the same shape the
/// restart regressions use, so chaos runs exercise the generation-stamped
/// state the resumes depend on.
fn instance(seed: u64) -> Instance {
    let dag = Arc::new(random::layered(random::LayeredParams {
        layers: 6,
        width: 7,
        max_in: 3,
        back_span: 2,
        seed,
    }));
    let mut inst = Instance::unit(dag.clone(), dag.sources().take(3).collect());
    for v in dag.nodes() {
        inst.fired[v.index()] = dag
            .children(v)
            .iter()
            .copied()
            .filter(|c| !(c.0 ^ seed as u32).is_multiple_of(3))
            .collect();
    }
    inst
}

/// Wrap any scheduler with the ground-truth safety auditor: every pop is
/// checked against reachability, every completion feeds the audit state.
/// Panics (failing the test) on any safety violation.
struct Audited {
    inner: Box<dyn Scheduler>,
    check: SafetyChecker,
}

impl Audited {
    fn new(kind: SchedulerKind, inst: &Instance) -> Audited {
        Audited {
            inner: kind.build(inst.dag.clone()),
            check: SafetyChecker::new(inst.dag.clone()),
        }
    }
}

impl Scheduler for Audited {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn start(&mut self, initial_active: &[NodeId]) {
        self.check.on_start(initial_active);
        self.inner.start(initial_active);
    }
    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.check.on_complete(v, fired);
        self.inner.on_completed(v, fired);
    }
    // pop_batch/complete_batch use the trait defaults, which route through
    // pop_ready/on_completed — every dispatch passes the audit.
    fn pop_ready(&mut self) -> Option<NodeId> {
        let t = self.inner.pop_ready();
        if let Some(v) = t {
            self.check.on_pop(v);
        }
        t
    }
    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
    fn cost(&self) -> CostMeter {
        self.inner.cost()
    }
    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
    fn precompute_bytes(&self) -> usize {
        self.inner.precompute_bytes()
    }
    fn on_external_dispatch(&mut self, v: NodeId) {
        self.inner.on_external_dispatch(v);
    }
}

/// A task body that counts successful executions per node and fires the
/// instance's ground-truth fired sets. The count only increments when the
/// body actually runs to completion, so `counts` is exactly the
/// double-execution ledger.
fn counting_task(inst: &Instance, counts: Arc<Vec<AtomicU32>>) -> TryTaskFn {
    let fired_sets: Arc<Vec<Vec<NodeId>>> = Arc::new(inst.fired.clone());
    Arc::new(move |v, fired: &mut Vec<NodeId>| {
        counts[v.index()].fetch_add(1, Ordering::SeqCst);
        fired.extend_from_slice(&fired_sets[v.index()]);
        TaskOutcome::Done
    })
}

/// Drive one faulted scenario to completion: run, and on failure resume
/// from the journal, up to `max_rounds` attempts. Asserts the full
/// contract (see module docs) and returns how many rounds it took.
fn run_chaos_scenario(
    kind: SchedulerKind,
    inst: &Instance,
    plan: &FaultPlan,
    retry: RetryPolicy,
    max_rounds: usize,
) -> usize {
    silence_injected_panics();
    let counts: Arc<Vec<AtomicU32>> = Arc::new(
        (0..inst.dag.node_count()).map(|_| AtomicU32::new(0)).collect(),
    );
    // Wrap ONCE: the armed plan's disarm flags and attempt counters must
    // persist across resume rounds, exactly like real-world flaky state.
    let task = plan.wrap(counting_task(inst, counts.clone()));
    let mut scheduler = Audited::new(kind, inst);
    let mut journal = UpdateJournal::new();
    let mut cfg = ExecConfig::new(4);
    cfg.retry = retry;
    let exec = Executor::with_config(cfg);

    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(
            rounds <= max_rounds,
            "{kind:?} seed {}: no completion within {max_rounds} rounds",
            plan.seed
        );
        match exec.run(
            &mut scheduler,
            &inst.dag,
            &inst.initial_active,
            task.clone(),
            Some(&mut journal),
        ) {
            Ok(_) => break,
            Err(
                ExecError::TaskPanicked { .. }
                | ExecError::TaskFailed { .. }
                | ExecError::Cancelled { .. },
            ) => continue,
            Err(other) => panic!("{kind:?} seed {}: unexpected {other}", plan.seed),
        }
    }

    // Output equivalence with the fault-free run: the successful-execution
    // ledger is exactly the active closure, each node exactly once.
    let closure = inst.active_closure();
    for v in inst.dag.nodes() {
        let n = counts[v.index()].load(Ordering::SeqCst);
        let expect = u32::from(closure.contains(v));
        assert_eq!(
            n,
            expect,
            "{kind:?} seed {}: node {v} executed {n}× (expected {expect})",
            plan.seed
        );
    }
    rounds
}

/// ≥ 75 scenarios: a one-shot panic lands on the nth execution (victim
/// node varies with interleaving), the run fails typed, and the journaled
/// resume finishes without re-running anything that succeeded.
#[test]
fn chaos_panic_at_nth_execution() {
    for seed in 0..15u64 {
        let inst = instance(0x9A1C ^ seed);
        for kind in SCHEDS {
            let plan = FaultPlan::new(seed).with(Fault::PanicAtNth { n: seed % 23 });
            let rounds =
                run_chaos_scenario(kind, &inst, &plan, RetryPolicy::default(), 3);
            assert!(rounds <= 2, "{kind:?} seed {seed}: one panic, at most one resume");
        }
    }
}

/// ≥ 75 scenarios: a panic targets a specific hash-chosen node, plus a
/// second panic by count — two failure rounds max, then completion.
#[test]
fn chaos_panic_on_node_and_nth_combined() {
    for seed in 0..15u64 {
        let inst = instance(0xB0DE ^ seed);
        let victim = NodeId((seed as u32 * 7) % inst.dag.node_count() as u32);
        for kind in SCHEDS {
            let plan = FaultPlan::new(seed)
                .with(Fault::PanicOnNode { node: victim })
                .with(Fault::PanicAtNth { n: 11 + seed % 17 });
            run_chaos_scenario(kind, &inst, &plan, RetryPolicy::default(), 4);
        }
    }
}

/// ≥ 75 scenarios: 1-in-3 of the nodes fail transiently `k` times and
/// then succeed; with a retry budget of `k` the run completes in ONE
/// round — retries re-run only failed attempts, never successes.
#[test]
fn chaos_transient_failures_absorbed_by_retry() {
    for seed in 0..15u64 {
        let inst = instance(0x7124 ^ seed);
        let k = 1 + (seed % 3) as u32;
        for kind in SCHEDS {
            let plan = FaultPlan::new(seed).with(Fault::FailKThenSucceed { k, every: 3 });
            let rounds = run_chaos_scenario(kind, &inst, &plan, RetryPolicy::retries(k), 2);
            assert_eq!(
                rounds, 1,
                "{kind:?} seed {seed}: retry budget {k} must absorb k={k} transients"
            );
        }
    }
}

/// ≥ 50 scenarios: transient failures with an *insufficient* retry budget
/// — the run fails with `TaskFailed`, and resumes still converge because
/// per-node attempt counts persist across rounds.
#[test]
fn chaos_exhausted_retries_recover_via_resume() {
    for seed in 0..10u64 {
        let inst = instance(0xE4A0 ^ seed);
        for kind in SCHEDS {
            let plan = FaultPlan::new(seed).with(Fault::FailKThenSucceed { k: 3, every: 4 });
            // Budget 1 retry per round against k=3: each failing node needs
            // up to two rounds of attempts; bounded resume converges.
            run_chaos_scenario(kind, &inst, &plan, RetryPolicy::retries(1), 12);
        }
    }
}

/// ≥ 50 scenarios: injected delays jitter the interleaving (shaking out
/// ordering assumptions) without changing any outcome — completion in one
/// round, outputs identical.
#[test]
fn chaos_delays_change_interleaving_not_outcomes() {
    for seed in 0..10u64 {
        let inst = instance(0xDE1A ^ seed);
        for kind in SCHEDS {
            let plan = FaultPlan::new(seed).with(Fault::DelayTask {
                micros: 200,
                every: 4,
            });
            let rounds =
                run_chaos_scenario(kind, &inst, &plan, RetryPolicy::default(), 2);
            assert_eq!(rounds, 1, "{kind:?} seed {seed}: delays must not fail the run");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized compositions of all three fault families over random
    /// instances: the full contract must hold for any mix.
    #[test]
    fn chaos_random_fault_compositions(
        seed in 0u64..1_000_000,
        n in 0u64..40,
        k in 1u32..4,
        every in 2u32..6,
        sched_idx in 0usize..5,
    ) {
        let inst = instance(seed);
        let plan = FaultPlan::new(seed)
            .with(Fault::PanicAtNth { n })
            .with(Fault::FailKThenSucceed { k, every })
            .with(Fault::DelayTask { micros: 50, every });
        run_chaos_scenario(SCHEDS[sched_idx], &inst, &plan, RetryPolicy::retries(k), 8);
    }
}

/// ISSUE 4 acceptance: an injected worker panic on preset 5 returns
/// `Err(ExecError::TaskPanicked)` within the watchdog deadline (no hang),
/// and a subsequent `start()` on the same scheduler object passes the
/// restart-identical regression.
#[test]
fn preset5_worker_panic_fails_fast_and_restarts_identically() {
    silence_injected_panics();
    let (inst, _) = datalog_sched::traces::generate(&datalog_sched::traces::preset(5));
    let fired_sets: Arc<Vec<Vec<NodeId>>> = Arc::new(inst.fired.clone());
    let inner: TryTaskFn = {
        let fired_sets = fired_sets.clone();
        Arc::new(move |v, fired: &mut Vec<NodeId>| {
            fired.extend_from_slice(&fired_sets[v.index()]);
            TaskOutcome::Done
        })
    };
    let deadline = Duration::from_secs(30);

    for kind in SCHEDS {
        let plan = FaultPlan::new(5).with(Fault::PanicAtNth { n: 100 });
        let task = plan.wrap(inner.clone());
        let mut s = kind.build(inst.dag.clone());
        let mut cfg = ExecConfig::new(8);
        cfg.deadline = Some(deadline);
        let t0 = Instant::now();
        let err = Executor::with_config(cfg)
            .run(s.as_mut(), &inst.dag, &inst.initial_active, task, None)
            .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            matches!(err, ExecError::TaskPanicked { .. }),
            "{kind:?}: expected TaskPanicked, got {err:?}"
        );
        assert!(
            elapsed < deadline,
            "{kind:?}: failed run took {elapsed:?}, watchdog deadline is {deadline:?}"
        );

        // Restart-identical: the aborted scheduler object, serially
        // driven, makes exactly the decisions of a never-aborted twin.
        let serial = |s: &mut dyn Scheduler| -> Vec<NodeId> {
            s.start(&inst.initial_active);
            let mut order = Vec::new();
            while let Some(t) = s.pop_ready() {
                order.push(t);
                s.on_completed(t, &fired_sets[t.index()]);
            }
            assert!(s.is_quiescent(), "{} stalled after abort", s.name());
            order
        };
        let after_abort = serial(s.as_mut());
        let mut fresh = kind.build(inst.dag.clone());
        let fresh_order = serial(fresh.as_mut());
        assert_eq!(
            after_abort, fresh_order,
            "{kind:?}: post-abort decisions differ from a fresh scheduler"
        );
    }
}

/// A scheduler that goes mute after `allow` pops while refusing to report
/// quiescence — the executor's stall detector must fire. This models a
/// buggy scheduler losing track of activations, which no task-level fault
/// can reproduce.
struct Mute {
    inner: Box<dyn Scheduler>,
    allow: usize,
}

impl Scheduler for Mute {
    fn name(&self) -> &str {
        "mute"
    }
    fn start(&mut self, initial_active: &[NodeId]) {
        self.inner.start(initial_active);
    }
    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.inner.on_completed(v, fired);
    }
    fn pop_ready(&mut self) -> Option<NodeId> {
        if self.allow == 0 {
            return None;
        }
        self.allow -= 1;
        self.inner.pop_ready()
    }
    fn is_quiescent(&self) -> bool {
        false // never admits it is done: a pop drought here is a stall
    }
    fn cost(&self) -> CostMeter {
        self.inner.cost()
    }
    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
    fn precompute_bytes(&self) -> usize {
        self.inner.precompute_bytes()
    }
    fn on_external_dispatch(&mut self, v: NodeId) {
        self.inner.on_external_dispatch(v);
    }
}

/// ISSUE 6 acceptance: an injected executor stall — and, for contrast, a
/// worker panic — each leave a validator-clean flight-recorder black box
/// on disk with tracing NEVER enabled. The dump is stitched from the
/// always-on per-thread rings alone.
#[test]
fn injected_stall_and_panic_leave_validator_clean_flight_dumps() {
    use incr_obs::export::validate_chrome_trace;
    use incr_obs::{flight, trace};
    silence_injected_panics();
    trace::disable();
    flight::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("dlsched-chaos-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let inst = instance(0xB1AC);
    let fired_sets: Arc<Vec<Vec<NodeId>>> = Arc::new(inst.fired.clone());
    let inner: TryTaskFn = {
        let fired_sets = fired_sets.clone();
        Arc::new(move |v, fired: &mut Vec<NodeId>| {
            fired.extend_from_slice(&fired_sets[v.index()]);
            TaskOutcome::Done
        })
    };
    let mut cfg = ExecConfig::new(4);
    cfg.black_box = Some(dir.clone());

    // Scenario 1: the scheduler stops yielding work mid-update.
    let mut s = Mute {
        inner: SchedulerKind::Hybrid.build(inst.dag.clone()),
        allow: 5,
    };
    let err = Executor::with_config(cfg.clone())
        .run(&mut s, &inst.dag, &inst.initial_active, inner.clone(), None)
        .unwrap_err();
    assert!(matches!(err, ExecError::Stall { .. }), "got {err:?}");

    // Scenario 2: a worker panic through the fault plan.
    let plan = FaultPlan::new(7).with(Fault::PanicAtNth { n: 3 });
    let task = plan.wrap(inner);
    let mut s = SchedulerKind::LevelBased.build(inst.dag.clone());
    let err = Executor::with_config(cfg)
        .run(s.as_mut(), &inst.dag, &inst.initial_active, task, None)
        .unwrap_err();
    assert!(matches!(err, ExecError::TaskPanicked { .. }), "got {err:?}");

    // Both dumps exist (names carry the error kind), validate as Chrome
    // traces, and mark the failure instant.
    for kind in ["stall", "panic"] {
        let path = std::fs::read_dir(&dir)
            .expect("black-box dir created")
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().contains(kind))
            .unwrap_or_else(|| panic!("no {kind} dump in {dir:?}"));
        let text = std::fs::read_to_string(&path).unwrap();
        validate_chrome_trace(&text)
            .unwrap_or_else(|e| panic!("{kind} dump invalid: {e}"));
        assert!(text.contains("exec.error"), "{kind}: failure instant missing");
        assert!(text.contains("flight.context"), "{kind}: context record missing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancelled update leaves the scheduler restartable too — the
/// CancelToken path through the same restart-identical yardstick.
#[test]
fn cancelled_update_leaves_scheduler_restartable() {
    use datalog_sched::runtime::executor::CancelToken;
    let inst = instance(0xCA9CE1);
    let fired_sets: Arc<Vec<Vec<NodeId>>> = Arc::new(inst.fired.clone());
    for kind in SCHEDS {
        let token = CancelToken::new();
        let task: TryTaskFn = {
            let fired_sets = fired_sets.clone();
            let token = token.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                token.cancel(); // first execution requests the abort
                fired.extend_from_slice(&fired_sets[v.index()]);
                TaskOutcome::Done
            })
        };
        let mut s = kind.build(inst.dag.clone());
        let mut cfg = ExecConfig::new(4);
        cfg.cancel = Some(token);
        let err = Executor::with_config(cfg)
            .run(s.as_mut(), &inst.dag, &inst.initial_active, task, None)
            .unwrap_err();
        assert!(
            matches!(err, ExecError::Cancelled { .. }),
            "{kind:?}: expected Cancelled, got {err:?}"
        );

        let serial = |s: &mut dyn Scheduler| -> Vec<NodeId> {
            s.start(&inst.initial_active);
            let mut order = Vec::new();
            while let Some(t) = s.pop_ready() {
                order.push(t);
                s.on_completed(t, &fired_sets[t.index()]);
            }
            order
        };
        let after_cancel = serial(s.as_mut());
        let mut fresh = kind.build(inst.dag.clone());
        assert_eq!(
            after_cancel,
            serial(fresh.as_mut()),
            "{kind:?}: post-cancel decisions differ from a fresh scheduler"
        );
    }
}
