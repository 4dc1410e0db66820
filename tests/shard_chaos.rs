//! Multi-shard chaos: deterministic fault injection against the sharded
//! Datalog engine's atomic cross-shard commit (ISSUE 9 acceptance).
//!
//! The sweep covers every scheduler × {2,3} shards × fault site
//! (panic at round entry / panic mid-cascade / stall past the round
//! deadline / delayed exchange under the deadline / fail-k-then-succeed)
//! × injection round {0,1}, and asserts the full failure-model contract
//! per scenario:
//!
//! * **atomic rollback** — a failed batch leaves every shard's queryable
//!   state and every shard's published epoch exactly at pre-batch;
//! * **typed surface** — the failure is `EngineError::ShardFailed` with
//!   the victim shard, the failing round, a classified cause, and a
//!   per-shard snapshot (never a hang, never a panic escaping `update`);
//! * **recovery** — a disarmed retry converges bit-identically to the
//!   fault-free sharded run *and* to the unsharded reference engine;
//! * **liveness** — stall scenarios finish within the watchdog deadline
//!   (plus slack), not the 30 s injected sleep.
//!
//! Fault sites are armed positionally through `FaultPlan::arm_sharded`
//! (`runtime/src/faults.rs`), so every scenario is reproducible from its
//! `(scheduler, shards, site, round)` coordinates alone.

use datalog_sched::datalog::engine::EngineError;
use datalog_sched::datalog::{
    FactEdit, IncrementalEngine, ShardCause, ShardFault, ShardFaultHook, ShardedEngine,
};
use datalog_sched::dag::NodeId;
use datalog_sched::runtime::faults::{
    silence_injected_panics, ArmedShardPlan, Fault, FaultPlan, ShardAction, INJECTED_PANIC,
};
use datalog_sched::sched::{CostMeter, Scheduler, SchedulerKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The five paper schedulers (same acceptance set as `tests/chaos.rs`).
const SCHEDS: [SchedulerKind; 5] = [
    SchedulerKind::LevelBased,
    SchedulerKind::Lookahead(4),
    SchedulerKind::LogicBlox,
    SchedulerKind::SignalPropagation,
    SchedulerKind::Hybrid,
];

/// `rev` mirror-reads the derived `path`, so updates exchange deltas for
/// at least two rounds — round-1 injection lands after round 0 already
/// applied engine deltas and mirror feeds on every shard.
const SRC: &str = "path(X, Y) :- edge(X, Y).\n\
                   path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                   rev(Y, X) :- path(X, Y).\n\
                   edge(a, b). edge(b, c). edge(c, d).";

const PATTERNS: [&str; 3] = ["edge(?, ?)", "path(?, ?)", "rev(?, ?)"];

fn edits() -> Vec<FactEdit> {
    vec![
        FactEdit::add("edge", &["d", "e"]),
        FactEdit::remove("edge", &["b", "c"]),
    ]
}

fn mk_engine(kind: SchedulerKind, shards: usize) -> ShardedEngine {
    mk_engine_with_switches(kind, shards).0
}

/// The scheduler under test; while its switch is on, panics on the next
/// completion — mid-cascade, with the completed task's deltas already in
/// the shard's relations and no round result to report — and turns the
/// switch off.
struct PanicMidCascade {
    inner: Box<dyn Scheduler + Send>,
    switch: Arc<AtomicBool>,
}

impl Scheduler for PanicMidCascade {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn start(&mut self, initial: &[NodeId]) {
        self.inner.start(initial);
    }
    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        if self.switch.swap(false, Ordering::SeqCst) {
            panic!("{INJECTED_PANIC}: mid-cascade, completing {v}");
        }
        self.inner.on_completed(v, fired);
    }
    fn pop_ready(&mut self) -> Option<NodeId> {
        self.inner.pop_ready()
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

/// [`mk_engine`] plus one [`PanicMidCascade`] switch per shard, all off.
fn mk_engine_with_switches(
    kind: SchedulerKind,
    shards: usize,
) -> (ShardedEngine, Vec<Arc<AtomicBool>>) {
    let mut switches = Vec::new();
    let mut e = ShardedEngine::new(SRC, shards, |d| {
        let switch = Arc::new(AtomicBool::new(false));
        switches.push(switch.clone());
        Box::new(PanicMidCascade { inner: kind.build(d), switch })
    })
    .expect("program builds");
    e.set_black_box(None);
    (e, switches)
}

/// Full queryable state, canonically ordered — the bit-identity witness.
fn state(e: &ShardedEngine) -> Vec<String> {
    let mut rows = Vec::new();
    for pat in PATTERNS {
        let mut r = e.query(pat).expect(pat);
        r.sort();
        rows.push(format!("-- {pat}"));
        rows.append(&mut r);
    }
    rows
}

/// The unsharded reference: one engine, same scheduler kind, same batch.
fn unsharded_state(kind: SchedulerKind, batch: &[FactEdit]) -> Vec<String> {
    let mut e = IncrementalEngine::new(SRC).expect("program builds");
    if !batch.is_empty() {
        let mut s: Box<dyn Scheduler> = kind.build(e.dag().clone());
        e.update(s.as_mut(), batch).expect("reference update");
    }
    let mut rows = Vec::new();
    for pat in PATTERNS {
        let mut r = e.query(pat).expect(pat);
        r.sort();
        rows.push(format!("-- {pat}"));
        rows.append(&mut r);
    }
    rows
}

/// Adapt an armed positional fault plan to the engine's per-round hook.
/// Given `mid_cascade` switches, a planned panic is not raised at round
/// entry: it turns the shard's switch on, and the shard's scheduler
/// panics at its first completion of that round.
fn hook(armed: &Arc<ArmedShardPlan>, mid_cascade: Option<Vec<Arc<AtomicBool>>>) -> ShardFaultHook {
    let armed = armed.clone();
    Arc::new(move |shard, round| match armed.action(shard, round) {
        ShardAction::None => None,
        ShardAction::Panic(m) => match &mid_cascade {
            Some(switches) => {
                switches[shard].store(true, Ordering::SeqCst);
                None
            }
            None => Some(ShardFault::Panic(m)),
        },
        ShardAction::Delay(us) => Some(ShardFault::Delay(Duration::from_micros(us))),
        ShardAction::Fail(m) => Some(ShardFault::Fail(m)),
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Site {
    /// Panic at round entry of the victim shard.
    Panic,
    /// Panic inside the victim's engine, after the round's first task
    /// completed: the shard has changed its relations and reports
    /// nothing.
    PanicMidCascade,
    /// 30 s sleep — far past the 100 ms round deadline; only the barrier
    /// watchdog plus cancellation keep the scenario fast.
    Stall,
    /// 2 ms sleep — jitters the exchange barrier without breaching the
    /// deadline; the batch must still commit.
    DelayedExchange,
    /// Typed error on the shard's first `round + 1` interrogations, then
    /// success — exercises repeated rollback without explicit disarm.
    FailThenSucceed,
}

const SITES: [Site; 5] = [
    Site::Panic,
    Site::PanicMidCascade,
    Site::Stall,
    Site::DelayedExchange,
    Site::FailThenSucceed,
];

#[test]
fn chaos_sweep_aborts_atomically_and_recovers_bit_identically() {
    silence_injected_panics();
    for kind in SCHEDS {
        let want = unsharded_state(kind, &edits());
        for shards in [2usize, 3] {
            // Fault-free sharded run: the second recovery witness.
            let mut ff = mk_engine(kind, shards);
            ff.update(&edits()).expect("fault-free batch");
            let want_sharded = state(&ff);
            assert_eq!(
                want_sharded, want,
                "{kind:?} x {shards}: sharded fault-free must match unsharded"
            );

            for round in [0usize, 1] {
                for site in SITES {
                    run_scenario(kind, shards, site, round, &want);
                }
            }
        }
    }
}

fn run_scenario(kind: SchedulerKind, shards: usize, site: Site, round: usize, want: &[String]) {
    let label = format!("{kind:?} x {shards} shards, {site:?} at round {round}");
    let victim = (round + 1) % shards;
    let (mut e, switches) = mk_engine_with_switches(kind, shards);
    let pre = state(&e);
    let epoch = e.epoch();

    let plan = match site {
        Site::Panic | Site::PanicMidCascade => {
            FaultPlan::new(9).with(Fault::ShardPanic { shard: victim, round })
        }
        Site::Stall => {
            e.set_round_deadline(Duration::from_millis(100));
            FaultPlan::new(9).with(Fault::ShardDelay { shard: victim, round, micros: 30_000_000 })
        }
        Site::DelayedExchange => {
            FaultPlan::new(9).with(Fault::ShardDelay { shard: victim, round, micros: 2_000 })
        }
        Site::FailThenSucceed => {
            FaultPlan::new(9).with(Fault::ShardFailK { shard: victim, k: round as u32 + 1 })
        }
    };
    let armed = plan.arm_sharded();
    e.set_fault_hook(Some(hook(&armed, (site == Site::PanicMidCascade).then_some(switches))));

    let t0 = Instant::now();
    let first = e.update(&edits());
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "{label}: no scenario may hang (took {:?})",
        t0.elapsed()
    );

    if site == Site::DelayedExchange {
        // Under-deadline jitter is not a failure: the batch commits.
        first.unwrap_or_else(|e| panic!("{label}: jitter must commit, got {e}"));
        assert_eq!(state(&e), want, "{label}: jittered commit state");
        assert_eq!(e.epoch(), epoch + 1, "{label}: one epoch per batch");
        return;
    }

    // Typed failure naming the victim, the round, and a classified cause,
    // with a full per-shard snapshot.
    let err = first.expect_err(&label);
    match &err {
        EngineError::ShardFailed { shard, round: r, cause, snapshot } => {
            assert_eq!(*shard, victim, "{label}: victim shard");
            assert_eq!(snapshot.len(), shards, "{label}: snapshot covers all shards");
            match site {
                Site::Panic | Site::PanicMidCascade => {
                    assert_eq!(*r, round, "{label}: failing round");
                    assert!(matches!(cause, ShardCause::Panicked(_)), "{label}: {cause}");
                }
                Site::Stall => {
                    assert_eq!(*r, round, "{label}: failing round");
                    assert!(matches!(cause, ShardCause::Barrier { .. }), "{label}: {cause}");
                }
                Site::FailThenSucceed => {
                    assert!(matches!(cause, ShardCause::Engine(_)), "{label}: {cause}");
                }
                Site::DelayedExchange => unreachable!(),
            }
        }
        other => panic!("{label}: expected ShardFailed, got {other}"),
    }

    // Atomic rollback: queryable state and every shard's published epoch
    // are exactly pre-batch.
    assert_eq!(state(&e), pre, "{label}: rollback to pre-batch state");
    for s in 0..shards {
        assert_eq!(e.shard(s).epoch(), epoch, "{label}: shard {s} published no epoch");
    }

    // Recovery: retry until the fault is spent (FailThenSucceed clears
    // itself after k failures; panic fires once; the stall needs the
    // explicit disarm a real operator would perform).
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 4, "{label}: retry did not converge");
        if site == Site::Stall {
            armed.disarm();
        }
        match e.update(&edits()) {
            Ok(_) => break,
            Err(EngineError::ShardFailed { .. }) => {
                assert_eq!(state(&e), pre, "{label}: repeated rollback is idempotent");
            }
            Err(other) => panic!("{label}: unexpected retry error {other}"),
        }
    }
    assert_eq!(state(&e), want, "{label}: recovered state is bit-identical");
    assert_eq!(e.epoch(), epoch + 1, "{label}: exactly one epoch for the whole saga");
}

/// Satellite: an aborted batch leaves flight-recorder black boxes behind
/// — one dump carrying every shard's ring plus the multi-shard snapshot
/// as its context record.
#[test]
fn abort_dumps_a_multi_shard_black_box() {
    use incr_obs::flight;
    flight::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("shard-chaos-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut e = mk_engine(SchedulerKind::Hybrid, 2);
    e.set_black_box(Some(dir.clone()));
    e.set_fault_hook(Some(Arc::new(|s, r| {
        (s == 1 && r == 1).then(|| ShardFault::Fail("chaos: dump me".into()))
    })));
    e.update(&edits()).expect_err("injected failure");

    let path = std::fs::read_dir(&dir)
        .expect("black-box dir created")
        .map(|f| f.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().contains("shard-failed"))
        .expect("a shard-failed dump exists");
    let text = std::fs::read_to_string(&path).unwrap();
    incr_obs::export::validate_chrome_trace(&text)
        .unwrap_or_else(|e| panic!("dump invalid: {e}"));
    assert!(text.contains("shard.abort"), "abort instant recorded");
    assert!(text.contains("flight.context"), "context record present");
    assert!(text.contains("chaos: dump me"), "cause rides in the context");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: retry-after-shard-failure. For a random edit batch, a
    /// random scheduler, and a random victim, a `ShardFailed` update
    /// retried with the fault spent succeeds and matches the unsharded
    /// reference — the cross-shard rollback is idempotent — at both 2
    /// and 3 shards.
    #[test]
    fn retry_after_shard_failure_matches_unsharded(
        adds in proptest::collection::vec((0usize..5, 0usize..5), 1..4),
        rm in 0usize..3,
        sched_i in 0usize..SCHEDS.len(),
        victim_pick in 0usize..3,
    ) {
        let kind = SCHEDS[sched_i];
        let names = ["a", "b", "c", "d", "e"];
        let chain = [("a", "b"), ("b", "c"), ("c", "d")];
        let mut batch: Vec<FactEdit> = adds
            .iter()
            .map(|&(x, y)| FactEdit::add("edge", &[names[x], names[y]]))
            .collect();
        let (rx, ry) = chain[rm];
        batch.push(FactEdit::remove("edge", &[rx, ry]));
        let want = unsharded_state(kind, &batch);

        for shards in [2usize, 3] {
            let mut e = mk_engine(kind, shards);
            let pre = state(&e);
            let epoch = e.epoch();
            let armed = FaultPlan::new(11)
                .with(Fault::ShardFailK { shard: victim_pick % shards, k: 1 })
                .arm_sharded();
            e.set_fault_hook(Some(hook(&armed, None)));

            let err = e.update(&batch).expect_err("armed first attempt fails");
            prop_assert!(
                matches!(err, EngineError::ShardFailed { .. }),
                "typed failure, got {err}"
            );
            prop_assert_eq!(state(&e), pre.clone(), "{} x {}: rollback", sched_i, shards);
            prop_assert_eq!(e.epoch(), epoch, "no epoch published");

            // The fault is spent (k = 1): the retry needs no disarm.
            e.update(&batch).expect("retry succeeds");
            prop_assert_eq!(state(&e), want.clone(), "{} x {}: retry", sched_i, shards);
            prop_assert_eq!(e.epoch(), epoch + 1, "one epoch for the saga");
        }
    }
}
