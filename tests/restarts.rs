//! Restart regression tests: `start()` must be reusable indefinitely.
//!
//! The generation-stamped state tables make restarts O(|active|) instead
//! of O(V); these tests pin down that the *observable behavior* of every
//! scheduler is bit-identical across a thousand consecutive `start()`
//! calls on one object — decisions, order, charged costs — and that the
//! claimed state size stays put instead of accumulating per restart.

use datalog_sched::dag::{random, NodeId};
use datalog_sched::sched::{CostMeter, Instance, Scheduler, SchedulerKind};
use std::sync::Arc;

const ALL_KINDS: [SchedulerKind; 7] = [
    SchedulerKind::LevelBased,
    SchedulerKind::Lookahead(4),
    SchedulerKind::LogicBlox,
    SchedulerKind::LogicBloxFaithful,
    SchedulerKind::SignalPropagation,
    SchedulerKind::Hybrid,
    SchedulerKind::ExactGreedy,
];

/// A mid-size instance with partial firing so restarts exercise both the
/// touched and untouched regions of every per-level side table.
fn instance(seed: u64) -> Instance {
    let dag = Arc::new(random::layered(random::LayeredParams {
        layers: 8,
        width: 9,
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

/// Serial drive to quiescence; returns the executed order.
fn drive(s: &mut dyn Scheduler, inst: &Instance) -> Vec<NodeId> {
    s.start(&inst.initial_active);
    let mut order = Vec::new();
    while let Some(t) = s.pop_ready() {
        order.push(t);
        s.on_completed(t, &inst.fired[t.index()]);
    }
    assert!(s.is_quiescent(), "{} stalled", s.name());
    order
}

/// 1000 consecutive updates through one scheduler object: every run must
/// repeat the first run's decisions and charges exactly.
#[test]
fn thousand_restarts_are_observably_identical() {
    let inst = instance(0xC0FFEE);
    for kind in ALL_KINDS {
        let mut s = kind.build(inst.dag.clone());
        let first = drive(s.as_mut(), &inst);
        let first_cost: CostMeter = s.cost();
        assert!(!first.is_empty(), "{kind:?}: empty baseline run");
        for i in 1..1000 {
            let run = drive(s.as_mut(), &inst);
            assert_eq!(run, first, "{kind:?}: decisions drifted at restart {i}");
            assert_eq!(s.cost(), first_cost, "{kind:?}: cost drifted at restart {i}");
        }
    }
}

/// Alternating between two different dirty sets must not leak state from
/// one update shape into the other (stale buckets, stale queued flags).
#[test]
fn alternating_updates_do_not_contaminate_each_other() {
    let a = instance(0xA11CE);
    let mut b = a.clone();
    b.initial_active = a.dag.sources().skip(3).take(3).collect();
    if b.initial_active.is_empty() {
        b.initial_active = vec![NodeId(0)];
    }
    for kind in ALL_KINDS {
        let mut s = kind.build(a.dag.clone());
        let first_a = drive(s.as_mut(), &a);
        let first_b = drive(s.as_mut(), &b);
        for i in 0..200 {
            assert_eq!(drive(s.as_mut(), &a), first_a, "{kind:?}: A drifted at cycle {i}");
            assert_eq!(drive(s.as_mut(), &b), first_b, "{kind:?}: B drifted at cycle {i}");
        }
    }
}

/// Restarting must not grow the scheduler's claimed run state: the
/// reported byte count after 1000 updates matches the first update's
/// (quiescent states claim the same space they started with).
#[test]
fn space_claim_is_stable_across_restarts() {
    let inst = instance(0xBEEF);
    for kind in ALL_KINDS {
        let mut s = kind.build(inst.dag.clone());
        drive(s.as_mut(), &inst);
        let baseline = s.space_bytes();
        for _ in 1..1000 {
            drive(s.as_mut(), &inst);
        }
        assert_eq!(
            s.space_bytes(),
            baseline,
            "{kind:?}: state accumulated across restarts"
        );
    }
}

/// The claim counts what each scheduler keeps, at every restart alike.
/// With the first wavefront popped and nothing completed, LBL(k) has moved
/// each popped bucket entry into its running list (the look-ahead's
/// blocking set), so its claim stands where it stood after `start`; plain
/// LevelBased keeps no such list and its claim drops by one `NodeId` per
/// popped task. LBL(k)'s per-node position table is in its idle claim.
#[test]
fn running_list_is_claimed_by_lookahead_only_and_never_accumulates() {
    let inst = instance(0xBEEF);
    let node = std::mem::size_of::<NodeId>();
    let mut idle = Vec::new();
    for (kind, keeps_running_list) in [
        (SchedulerKind::LevelBased, false),
        (SchedulerKind::Lookahead(4), true),
    ] {
        let mut s = kind.build(inst.dag.clone());
        let mut settled_mid = None;
        let mut popped = Vec::new();
        for i in 0..1000 {
            s.start(&inst.initial_active);
            let started = s.space_bytes();
            popped.clear();
            while let Some(t) = s.pop_ready() {
                popped.push(t);
            }
            assert!(!popped.is_empty());
            let mid = s.space_bytes();
            let expected = if keeps_running_list {
                started
            } else {
                started - popped.len() * node
            };
            assert_eq!(mid, expected, "{kind:?}: mid-run claim at restart {i}");
            // LBL(k)'s BFS scratch reaches its final size during the first
            // update; from the second on the claim may not move.
            if i > 0 {
                assert_eq!(
                    *settled_mid.get_or_insert(mid),
                    mid,
                    "{kind:?}: mid-run claim drifted at restart {i}"
                );
            }
            // Finish the update, so every restart starts from quiescence.
            let mut next = 0;
            while next < popped.len() {
                let t = popped[next];
                next += 1;
                s.on_completed(t, &inst.fired[t.index()]);
                while let Some(t) = s.pop_ready() {
                    popped.push(t);
                }
            }
            assert!(s.is_quiescent(), "{kind:?} stalled");
        }
        s.start(&[]);
        idle.push(s.space_bytes());
    }
    assert!(
        idle[1] >= idle[0] + inst.dag.node_count() * std::mem::size_of::<u32>(),
        "LBL(k) claims {} idle, LevelBased {}: the position table is missing",
        idle[1],
        idle[0]
    );
}

/// An aborted threaded update (injected panic and cancellation, the two
/// fault-tolerance abort paths) leaves every scheduler restartable:
/// `start()` after the abort behaves exactly like a fresh update — the
/// generation-stamped state tables make the abandoned generation inert.
#[test]
fn aborted_updates_restart_identically() {
    use datalog_sched::runtime::executor::{
        CancelToken, ExecConfig, ExecError, Executor, TryTaskFn,
    };
    use datalog_sched::runtime::faults::silence_injected_panics;
    use datalog_sched::runtime::TaskOutcome;
    use std::sync::atomic::{AtomicU32, Ordering};

    silence_injected_panics();
    let inst = instance(0xAB0B7);
    let fired_sets = Arc::new(inst.fired.clone());
    for kind in ALL_KINDS {
        let mut s = kind.build(inst.dag.clone());
        let baseline = drive(s.as_mut(), &inst);

        // Abort path 1: a task panic partway through the update.
        let panicking: TryTaskFn = {
            let fired_sets = fired_sets.clone();
            let budget = AtomicU32::new(4);
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                if budget.fetch_sub(1, Ordering::SeqCst) == 1 {
                    panic!("fault-injected panic: restart regression");
                }
                fired.extend_from_slice(&fired_sets[v.index()]);
                TaskOutcome::Done
            })
        };
        let err = Executor::new(4)
            .run(s.as_mut(), &inst.dag, &inst.initial_active, panicking, None)
            .unwrap_err();
        assert!(
            matches!(err, ExecError::TaskPanicked { .. }),
            "{kind:?}: {err:?}"
        );
        assert_eq!(
            drive(s.as_mut(), &inst),
            baseline,
            "{kind:?}: decisions drifted after panic-aborted update"
        );

        // Abort path 2: cooperative cancellation mid-update.
        let token = CancelToken::new();
        let cancelling: TryTaskFn = {
            let fired_sets = fired_sets.clone();
            let token = token.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                token.cancel();
                fired.extend_from_slice(&fired_sets[v.index()]);
                TaskOutcome::Done
            })
        };
        let mut cfg = ExecConfig::new(4);
        cfg.cancel = Some(token);
        let err = Executor::with_config(cfg)
            .run(s.as_mut(), &inst.dag, &inst.initial_active, cancelling, None)
            .unwrap_err();
        assert!(matches!(err, ExecError::Cancelled { .. }), "{kind:?}: {err:?}");
        assert_eq!(
            drive(s.as_mut(), &inst),
            baseline,
            "{kind:?}: decisions drifted after cancelled update"
        );
    }
}

/// An empty update between real updates is a no-op: nothing executes and
/// the following real update is unaffected.
#[test]
fn empty_updates_between_real_ones_are_noops() {
    let inst = instance(0xD00D);
    for kind in ALL_KINDS {
        let mut s = kind.build(inst.dag.clone());
        let first = drive(s.as_mut(), &inst);
        for _ in 0..5 {
            s.start(&[]);
            assert!(s.is_quiescent(), "{kind:?}: empty update not quiescent");
            assert!(s.pop_ready().is_none(), "{kind:?}: empty update offered work");
            assert_eq!(drive(s.as_mut(), &inst), first, "{kind:?}: drift after empty update");
        }
    }
}
