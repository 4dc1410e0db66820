//! Deterministic fault injection for the execution core.
//!
//! A [`FaultPlan`] wraps any [`TryTaskFn`] and perturbs its execution:
//! panics at a chosen point, transient failures that succeed after `k`
//! attempts, artificial delays. Everything is driven by a seed and pure
//! functions of `(seed, node)` — **never** wall-clock time or a global
//! RNG — so the same plan injects the same faults at the same tasks on
//! every run, regardless of thread interleaving. That determinism is what
//! lets the chaos suite assert exact properties (zero double-executions,
//! output equivalence with the fault-free run) across hundreds of seeded
//! scenarios rather than merely "it didn't crash".
//!
//! Node-targeted selection uses a splitmix-style hash of `(seed, node)`,
//! so which tasks a plan hits varies with the seed but not with execution
//! order. Count-targeted faults ([`Fault::PanicAtNth`]) use a shared
//! atomic execution counter: which *node* the nth execution lands on is
//! interleaving-dependent, but the plan still fires exactly once, and the
//! suite's invariants are written to hold for any victim.
//!
//! Panic faults disarm after firing so a retried/resumed update can
//! complete — modeling a crash, not a permanently poisoned task. The
//! per-node attempt counters behind [`Fault::FailKThenSucceed`] persist
//! across resumes of the same wrapped task for the same reason.

use crate::executor::{TaskOutcome, TryTaskFn};
use incr_dag::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Marker embedded in every injected panic message; the chaos suite's
/// panic hook uses it to keep expected unwinds out of test output.
pub const INJECTED_PANIC: &str = "fault-injected panic";

/// One injected failure mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic on the `n`th task execution (0-based, counted across the
    /// whole plan lifetime), whatever node that turns out to be. Fires
    /// once, then disarms.
    PanicAtNth { n: u64 },
    /// Panic the first time `node` executes, then disarm.
    PanicOnNode { node: NodeId },
    /// Selected tasks return [`TaskOutcome::Retryable`] on their first
    /// `k` attempts and succeed on attempt `k + 1`. A task is selected
    /// when `hash(seed, node) % every == 0`.
    FailKThenSucceed { k: u32, every: u32 },
    /// Selected tasks sleep `micros` before executing — jitters the
    /// interleaving to shake out ordering assumptions without changing
    /// any outcome.
    DelayTask { micros: u64, every: u32 },
    /// Shard-targeted: panic shard `shard` at the entry of exchange
    /// round `round` of a sharded batch. Fires once, then disarms.
    ShardPanic { shard: usize, round: usize },
    /// Shard-targeted: delay shard `shard` by `micros` at the entry of
    /// exchange round `round`. Below the round deadline this only
    /// jitters the barrier; above it, it models a stuck shard the
    /// watchdog must catch. Fires on every matching round until the
    /// plan is disarmed.
    ShardDelay { shard: usize, round: usize, micros: u64 },
    /// Shard-targeted: shard `shard` returns a typed error (no panic)
    /// on its first `k` interrogations, then succeeds.
    ShardFailK { shard: usize, k: u32 },
}

/// What a shard-targeted plan injects at one `(shard, round)` site.
/// Task-targeted faults never map to an action — they belong to the
/// executor layer, not the cross-shard exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardAction {
    /// Nothing injected at this site.
    None,
    /// Panic with this message (contains [`INJECTED_PANIC`]).
    Panic(String),
    /// Sleep this many microseconds before evaluating the round.
    Delay(u64),
    /// Return a typed shard error carrying this message.
    Fail(String),
}

/// An armed instantiation of a [`FaultPlan`] for sharded runtimes.
/// Where [`FaultPlan::wrap`] intercepts individual task executions, an
/// armed shard plan is interrogated once per `(shard, round)` at the
/// entry of each exchange round. Selection is purely positional —
/// `(shard, round)` — so the same plan injects the same fault at the
/// same site on every run regardless of barrier interleaving.
///
/// [`ArmedShardPlan::disarm`] turns every remaining fault off at once;
/// the retry-after-failure suite uses it to assert that a rolled-back
/// batch, retried with faults disarmed, converges bit-identically to
/// the fault-free run.
pub struct ArmedShardPlan {
    plan: FaultPlan,
    /// One fire-once flag per fault (indexed like `FaultPlan::faults`);
    /// meaningful only for `ShardPanic`.
    armed: Vec<AtomicBool>,
    /// Interrogation counts per shard, for `ShardFailK`.
    attempts: Mutex<HashMap<usize, u32>>,
    disarmed: AtomicBool,
}

impl ArmedShardPlan {
    /// What this plan injects at `(shard, round)`. The first matching
    /// fault wins; panic faults disarm after firing so a retried batch
    /// can complete.
    pub fn action(&self, shard: usize, round: usize) -> ShardAction {
        if self.disarmed.load(Ordering::SeqCst) {
            return ShardAction::None;
        }
        for (i, fault) in self.plan.faults.iter().enumerate() {
            match *fault {
                Fault::ShardPanic {
                    shard: victim,
                    round: at,
                } => {
                    if shard == victim
                        && round == at
                        && self.armed[i].swap(false, Ordering::SeqCst)
                    {
                        return ShardAction::Panic(format!(
                            "{INJECTED_PANIC}: shard {shard} at round {round}"
                        ));
                    }
                }
                Fault::ShardDelay {
                    shard: victim,
                    round: at,
                    micros,
                } => {
                    if shard == victim && round == at {
                        return ShardAction::Delay(micros);
                    }
                }
                Fault::ShardFailK { shard: victim, k } => {
                    if shard == victim {
                        let mut attempts = self
                            .attempts
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        let a = attempts.entry(shard).or_insert(0);
                        if *a < k {
                            *a += 1;
                            return ShardAction::Fail(format!(
                                "injected shard fault: shard {shard} attempt {a} of {k}"
                            ));
                        }
                    }
                }
                Fault::PanicAtNth { .. }
                | Fault::PanicOnNode { .. }
                | Fault::FailKThenSucceed { .. }
                | Fault::DelayTask { .. } => {}
            }
        }
        ShardAction::None
    }

    /// Turn every remaining fault off. Subsequent interrogations return
    /// [`ShardAction::None`] — the disarmed-retry path of the chaos
    /// suite.
    pub fn disarm(&self) {
        self.disarmed.store(true, Ordering::SeqCst);
    }
}

/// Shared mutable state of an armed plan. Lives behind an `Arc` inside
/// the wrapped closure, so state survives as long as the closure does —
/// including across resume attempts that reuse the same wrapped task.
struct PlanState {
    /// Total executions observed (successful or not).
    executions: AtomicU64,
    /// One disarm flag per fault (indexed like `FaultPlan::faults`);
    /// meaningful only for the panic faults.
    armed: Vec<AtomicBool>,
    /// Attempt counts per node, for `FailKThenSucceed`.
    attempts: Mutex<HashMap<NodeId, u32>>,
}

/// A seeded, deterministic set of faults to inject into a task function.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    pub seed: u64,
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Is `node` selected by a `1-in-every` node-targeted fault under
    /// this plan's seed? Pure — same answer on every call.
    pub fn selects(&self, node: NodeId, every: u32) -> bool {
        mix(self.seed, node.0 as u64).is_multiple_of(every.max(1) as u64)
    }

    /// Arm this plan for a sharded runtime. The result is interrogated
    /// with [`ArmedShardPlan::action`] at each `(shard, round)` site;
    /// task-targeted faults in the plan are ignored. Each call arms a
    /// fresh state (counters at zero, everything re-armed).
    pub fn arm_sharded(&self) -> Arc<ArmedShardPlan> {
        Arc::new(ArmedShardPlan {
            plan: self.clone(),
            armed: self.faults.iter().map(|_| AtomicBool::new(true)).collect(),
            attempts: Mutex::new(HashMap::new()),
            disarmed: AtomicBool::new(false),
        })
    }

    /// Wrap `inner` with this plan's faults. The returned task is what
    /// you hand to the executor; `inner` only runs when no panic fault
    /// claims the execution, so its side effects count *successful*
    /// executions. Each call to `wrap` arms a fresh state (counters at
    /// zero); clone the returned closure — don't re-wrap — to share one
    /// armed plan across runs.
    pub fn wrap(&self, inner: TryTaskFn) -> TryTaskFn {
        let plan = self.clone();
        let state = Arc::new(PlanState {
            executions: AtomicU64::new(0),
            armed: plan.faults.iter().map(|_| AtomicBool::new(true)).collect(),
            attempts: Mutex::new(HashMap::new()),
        });
        Arc::new(move |node, fired: &mut Vec<NodeId>| {
            let exec_no = state.executions.fetch_add(1, Ordering::SeqCst);
            for (i, fault) in plan.faults.iter().enumerate() {
                match *fault {
                    Fault::PanicAtNth { n } => {
                        if exec_no == n && state.armed[i].swap(false, Ordering::SeqCst) {
                            panic!("{INJECTED_PANIC}: execution {n} at {node}");
                        }
                    }
                    Fault::PanicOnNode { node: victim } => {
                        if node == victim && state.armed[i].swap(false, Ordering::SeqCst) {
                            panic!("{INJECTED_PANIC}: node {node}");
                        }
                    }
                    Fault::FailKThenSucceed { k, every } => {
                        if plan.selects(node, every) {
                            let mut attempts = state
                                .attempts
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner);
                            let a = attempts.entry(node).or_insert(0);
                            if *a < k {
                                *a += 1;
                                return TaskOutcome::Retryable;
                            }
                        }
                    }
                    Fault::DelayTask { micros, every } => {
                        if plan.selects(node, every) {
                            std::thread::sleep(std::time::Duration::from_micros(micros));
                        }
                    }
                    // Shard-targeted faults fire at exchange-round
                    // entry via `arm_sharded`, never per task.
                    Fault::ShardPanic { .. }
                    | Fault::ShardDelay { .. }
                    | Fault::ShardFailK { .. } => {}
                }
            }
            inner(node, fired)
        })
    }
}

/// splitmix64-style mixer: avalanche `seed ⊕ node` into uniform bits.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Install a process-wide panic hook that silences injected-fault panics
/// (identified by [`INJECTED_PANIC`] in the payload) while chaining to
/// the previous hook for everything else. Idempotent; call it at the top
/// of chaos tests so hundreds of expected unwinds don't bury real output.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn counting_inner(counter: Arc<AtomicU32>) -> TryTaskFn {
        Arc::new(move |_node, _fired: &mut Vec<NodeId>| {
            counter.fetch_add(1, Ordering::SeqCst);
            TaskOutcome::Done
        })
    }

    #[test]
    fn selection_is_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        let picks = |p: &FaultPlan| -> Vec<bool> {
            (0..64).map(|i| p.selects(NodeId(i), 3)).collect()
        };
        assert_eq!(picks(&a), picks(&a), "same seed, same picks");
        assert_ne!(picks(&a), picks(&b), "different seed, different picks");
        let hit = picks(&a).iter().filter(|&&x| x).count();
        assert!((8..=40).contains(&hit), "1-in-3 selection wildly off: {hit}/64");
    }

    #[test]
    fn panic_on_node_fires_once_then_disarms() {
        silence_injected_panics();
        let count = Arc::new(AtomicU32::new(0));
        let task = FaultPlan::new(7)
            .with(Fault::PanicOnNode { node: NodeId(3) })
            .wrap(counting_inner(count.clone()));
        let mut fired = Vec::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            task(NodeId(3), &mut fired)
        }));
        assert!(unwound.is_err());
        assert_eq!(count.load(Ordering::SeqCst), 0, "inner must not run on panic");
        assert_eq!(task(NodeId(3), &mut fired), TaskOutcome::Done, "disarmed");
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fail_k_then_succeed_counts_per_node() {
        let count = Arc::new(AtomicU32::new(0));
        // every=1 selects all nodes.
        let task = FaultPlan::new(9)
            .with(Fault::FailKThenSucceed { k: 2, every: 1 })
            .wrap(counting_inner(count.clone()));
        let mut fired = Vec::new();
        for _ in 0..2 {
            assert_eq!(task(NodeId(5), &mut fired), TaskOutcome::Retryable);
        }
        assert_eq!(task(NodeId(5), &mut fired), TaskOutcome::Done);
        // A different node gets its own budget of failures.
        assert_eq!(task(NodeId(6), &mut fired), TaskOutcome::Retryable);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shard_plan_fires_positionally_and_disarms() {
        let plan = FaultPlan::new(3)
            .with(Fault::ShardPanic { shard: 1, round: 2 })
            .with(Fault::ShardFailK { shard: 0, k: 2 })
            .with(Fault::ShardDelay { shard: 2, round: 0, micros: 5 });
        let armed = plan.arm_sharded();
        assert_eq!(armed.action(1, 0), ShardAction::None, "wrong round");
        assert_eq!(armed.action(3, 7), ShardAction::None, "untargeted shard");
        assert_eq!(armed.action(2, 0), ShardAction::Delay(5));
        assert_eq!(armed.action(2, 0), ShardAction::Delay(5), "delays repeat");
        assert!(matches!(armed.action(0, 0), ShardAction::Fail(_)));
        assert!(matches!(armed.action(0, 1), ShardAction::Fail(_)));
        assert_eq!(armed.action(0, 2), ShardAction::None, "k exhausted");
        match armed.action(1, 2) {
            ShardAction::Panic(msg) => assert!(msg.contains(INJECTED_PANIC)),
            other => panic!("expected panic action, got {other:?}"),
        }
        assert_eq!(armed.action(1, 2), ShardAction::None, "panic fires once");

        // A fresh arm starts over; disarm turns everything off at once.
        let rearmed = plan.arm_sharded();
        assert!(matches!(rearmed.action(1, 2), ShardAction::Panic(_)));
        rearmed.disarm();
        assert_eq!(rearmed.action(0, 0), ShardAction::None);
        assert_eq!(rearmed.action(2, 0), ShardAction::None);
    }

    #[test]
    fn task_wrap_ignores_shard_faults() {
        let count = Arc::new(AtomicU32::new(0));
        let task = FaultPlan::new(5)
            .with(Fault::ShardPanic { shard: 0, round: 0 })
            .with(Fault::ShardFailK { shard: 0, k: 9 })
            .wrap(counting_inner(count.clone()));
        let mut fired = Vec::new();
        assert_eq!(task(NodeId(0), &mut fired), TaskOutcome::Done);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panic_at_nth_counts_executions() {
        silence_injected_panics();
        let count = Arc::new(AtomicU32::new(0));
        let task = FaultPlan::new(11)
            .with(Fault::PanicAtNth { n: 2 })
            .wrap(counting_inner(count.clone()));
        let mut fired = Vec::new();
        assert_eq!(task(NodeId(0), &mut fired), TaskOutcome::Done);
        assert_eq!(task(NodeId(1), &mut fired), TaskOutcome::Done);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            task(NodeId(2), &mut fired)
        }));
        assert!(unwound.is_err(), "third execution panics");
        assert_eq!(task(NodeId(2), &mut fired), TaskOutcome::Done, "disarmed after firing");
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }
}
