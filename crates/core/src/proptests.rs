//! Cross-scheduler property tests: on random instances, every scheduler
//! must execute exactly the active closure, exactly once, safely — and the
//! cost/behaviour claims that differentiate them must hold.

use crate::instance::Instance;
use crate::scheduler::{CompletionBatch, SafetyChecker, Scheduler};
use crate::SchedulerKind;
use incr_dag::{random, Dag, NodeId};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Random instance: random DAG + random firing behaviour + random dirty set.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (2usize..28, 0.05f64..0.4, any::<u64>(), 1usize..4).prop_map(|(n, p, seed, dirt)| {
        let dag: Arc<Dag> = Arc::new(random::gnp_ordered(n, p, seed));
        let mut inst = Instance::unit(dag.clone(), Vec::new());
        // Deterministic pseudo-random firing: node v fires child c iff a
        // hash of (seed, v, c) is even-ish.
        for v in dag.nodes() {
            let fires: Vec<NodeId> = dag
                .children(v)
                .iter()
                .copied()
                .filter(|c| !(seed ^ (v.0 as u64 * 31 + c.0 as u64 * 17)).is_multiple_of(3))
                .collect();
            inst.fired[v.index()] = fires;
        }
        // Dirty a few sources (plus possibly interior nodes).
        let mut initial: Vec<NodeId> = dag.sources().take(dirt).collect();
        if initial.is_empty() {
            initial.push(NodeId(0));
        }
        inst.initial_active = initial;
        inst
    })
}

/// Drive a scheduler over an instance with `p` in-flight slots, FIFO
/// completions, auditing with the SafetyChecker. Returns executed tasks in
/// order.
fn drive(s: &mut dyn Scheduler, inst: &Instance, p: usize) -> Vec<NodeId> {
    let mut check = SafetyChecker::new(inst.dag.clone());
    s.start(&inst.initial_active);
    check.on_start(&inst.initial_active);
    let mut in_flight: VecDeque<NodeId> = VecDeque::new();
    let mut order = Vec::new();
    loop {
        while in_flight.len() < p {
            match s.pop_ready() {
                Some(t) => {
                    check.on_pop(t);
                    order.push(t);
                    in_flight.push_back(t);
                }
                None => break,
            }
        }
        let Some(t) = in_flight.pop_front() else {
            break;
        };
        let fired = &inst.fired[t.index()];
        s.on_completed(t, fired);
        check.on_complete(t, fired);
    }
    check.on_finish();
    assert!(s.is_quiescent(), "{} not quiescent at end", s.name());
    order
}

/// Drive a scheduler through the *batched* protocol (`pop_batch` +
/// `complete_batch`), audited by the SafetyChecker exactly like the serial
/// driver. In-flight tasks complete in FIFO order, whole chunks at a time.
fn drive_batched(
    s: &mut dyn Scheduler,
    inst: &Instance,
    p: usize,
    batch_max: usize,
) -> Vec<NodeId> {
    let mut check = SafetyChecker::new(inst.dag.clone());
    s.start(&inst.initial_active);
    check.on_start(&inst.initial_active);
    let mut in_flight: VecDeque<NodeId> = VecDeque::new();
    let mut order = Vec::new();
    let mut popped = Vec::new();
    let mut done = CompletionBatch::new();
    loop {
        while in_flight.len() < p {
            popped.clear();
            if s.pop_batch(&mut popped, batch_max.min(p - in_flight.len())) == 0 {
                break;
            }
            for &t in &popped {
                check.on_pop(t);
                order.push(t);
                in_flight.push_back(t);
            }
        }
        if in_flight.is_empty() {
            break;
        }
        // Flush up to batch_max completions in one complete_batch call.
        done.clear();
        while done.len() < batch_max {
            let Some(t) = in_flight.pop_front() else { break };
            done.push(t, &inst.fired[t.index()]);
        }
        for (t, fired) in done.iter() {
            check.on_complete(t, fired);
        }
        s.complete_batch(&done);
    }
    check.on_finish();
    assert!(s.is_quiescent(), "{} not quiescent at end", s.name());
    order
}

const ALL_KINDS: [SchedulerKind; 8] = [
    SchedulerKind::LevelBased,
    SchedulerKind::Lookahead(3),
    SchedulerKind::Lookahead(100),
    SchedulerKind::LogicBlox,
    SchedulerKind::LogicBloxFaithful,
    SchedulerKind::SignalPropagation,
    SchedulerKind::Hybrid,
    SchedulerKind::ExactGreedy,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each scheduler is safe (audited), executes exactly the active
    /// closure, and terminates — for serial and parallel drivers.
    #[test]
    fn all_schedulers_execute_exactly_the_active_closure(
        inst in arb_instance(),
        p in 1usize..5,
    ) {
        let closure = inst.active_closure();
        for kind in ALL_KINDS {
            let mut s = kind.build(inst.dag.clone());
            let order = drive(s.as_mut(), &inst, p);
            prop_assert_eq!(order.len(), closure.len(),
                "{:?} executed {} of {} active tasks", kind, order.len(), closure.len());
            for t in &order {
                prop_assert!(closure.contains(*t), "{:?} executed inactive {}", kind, t);
            }
        }
    }

    /// The two LogicBlox scan modes make identical decisions under an
    /// identical driver.
    #[test]
    fn logicblox_scan_modes_agree(inst in arb_instance(), p in 1usize..5) {
        let mut a = SchedulerKind::LogicBloxFaithful.build(inst.dag.clone());
        let mut b = SchedulerKind::LogicBlox.build(inst.dag.clone());
        let oa = drive(a.as_mut(), &inst, p);
        let ob = drive(b.as_mut(), &inst, p);
        prop_assert_eq!(oa, ob);
    }

    /// Theorem 2: LevelBased scheduling work is O(n + L) — concretely,
    /// bucket operations ≤ 3n + L and queries/messages are zero.
    #[test]
    fn levelbased_cost_is_linear(inst in arb_instance(), p in 1usize..5) {
        let mut s = crate::LevelBased::new(inst.dag.clone());
        let order = drive(&mut s, &inst, p);
        let n = order.len() as u64;
        let l = inst.dag.num_levels() as u64;
        let c = s.cost();
        prop_assert!(c.bucket_ops <= 3 * n + l + 1,
            "bucket_ops {} > 3n+L = {}", c.bucket_ops, 3 * n + l);
        prop_assert_eq!(c.ancestor_queries, 0);
        prop_assert_eq!(c.messages, 0);
        // Space: peak tracked active tasks never exceeds n.
        prop_assert!(s.peak_tracked() as u64 <= n);
    }

    /// Signal propagation sends exactly one message per edge reachable in
    /// the settle cascade — bounded by |E| overall.
    #[test]
    fn signal_messages_bounded_by_edges(inst in arb_instance(), p in 1usize..5) {
        let mut s = crate::SignalPropagation::new(inst.dag.clone());
        drive(&mut s, &inst, p);
        prop_assert!(s.cost().messages <= inst.dag.edge_count() as u64);
    }

    /// CostModeled charges are within a constant factor of the Faithful
    /// charges on the same run (they model the same naive loop).
    #[test]
    fn costmodel_tracks_faithful_charges(inst in arb_instance()) {
        let mut a = crate::LogicBlox::with_mode(inst.dag.clone(), crate::ScanMode::Faithful);
        let mut b = crate::LogicBlox::with_mode(inst.dag.clone(), crate::ScanMode::CostModeled);
        drive(&mut a, &inst, 2);
        drive(&mut b, &inst, 2);
        let qa = a.cost().ancestor_queries;
        let qb = b.cost().ancestor_queries;
        if qa >= 20 {
            // Small counts are all constant-factor noise; compare real runs.
            let ratio = qb as f64 / qa as f64;
            prop_assert!((0.2..=5.0).contains(&ratio),
                "modeled {} vs faithful {} (ratio {:.2})", qb, qa, ratio);
        }
    }

    /// The batched protocol (`pop_batch` + `complete_batch`) executes the
    /// same set of tasks as the one-at-a-time path for every scheduler,
    /// and every batched schedule passes the SafetyChecker's greedy-
    /// validity audit (asserted inside `drive_batched`).
    #[test]
    fn batched_protocol_matches_serial_executed_set(
        inst in arb_instance(),
        p in 1usize..5,
        batch_max in 1usize..9,
    ) {
        for kind in ALL_KINDS {
            let mut serial = kind.build(inst.dag.clone());
            let mut batched = kind.build(inst.dag.clone());
            let os = drive(serial.as_mut(), &inst, p);
            let ob = drive_batched(batched.as_mut(), &inst, p, batch_max);
            let mut a: Vec<u32> = os.iter().map(|v| v.0).collect();
            let mut b: Vec<u32> = ob.iter().map(|v| v.0).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b,
                "{:?}: batched executed set diverges from serial (p={}, batch={})",
                kind, p, batch_max);
        }
    }

    /// Restarts are cheap *and correct*: driving the same instance twice
    /// through one scheduler object gives the identical executed set and
    /// identical charged cost both times (generation stamps must make the
    /// second run indistinguishable from the first).
    #[test]
    fn restarted_run_is_identical(inst in arb_instance(), p in 1usize..5) {
        for kind in ALL_KINDS {
            let mut s = kind.build(inst.dag.clone());
            let first = drive(s.as_mut(), &inst, p);
            let first_cost = s.cost();
            let second = drive(s.as_mut(), &inst, p);
            prop_assert_eq!(&first, &second, "{:?}: restart changed decisions", kind);
            prop_assert_eq!(first_cost, s.cost(), "{:?}: restart changed costs", kind);
        }
    }

    /// The hybrid executes everything the exact oracle executes, with
    /// LevelBased-side cost staying linear.
    #[test]
    fn hybrid_matches_oracle_coverage(inst in arb_instance(), p in 1usize..5) {
        let mut h = crate::Hybrid::new(inst.dag.clone());
        let oh = drive(&mut h, &inst, p);
        let mut e = crate::ExactGreedy::new(inst.dag.clone());
        let oe = drive(&mut e, &inst, p);
        let mut a: Vec<u32> = oh.iter().map(|v| v.0).collect();
        let mut b: Vec<u32> = oe.iter().map(|v| v.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        let n = oh.len() as u64;
        let l = inst.dag.num_levels() as u64;
        prop_assert!(h.levelbased_cost().bucket_ops <= 3 * n + l + 1);
    }
}
