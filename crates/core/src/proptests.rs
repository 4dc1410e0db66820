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

/// Hybrid as it stood with two state tables: a whole LevelBased and a
/// whole LogicBlox, each resetting, completing and activating in its own
/// table, every dispatch mirrored into the other side. The reference for
/// `one_table_hybrid_matches_the_two_table_reference`.
struct TwoTableHybrid {
    lb: crate::LevelBased,
    lbx: crate::LogicBlox,
    config: crate::HybridConfig,
}

impl TwoTableHybrid {
    fn background_scan(&mut self) {
        if self.config.background_scan {
            self.lbx.side.scan(&self.lbx.state, self.config.scan_slice);
        }
    }
}

impl Scheduler for TwoTableHybrid {
    fn name(&self) -> &str {
        "TwoTableHybrid"
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.lb.start(initial_active);
        self.lbx.start(initial_active);
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.lb.on_completed(v, fired);
        self.lbx.on_completed(v, fired);
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        self.lb.complete_batch(batch);
        self.lbx.complete_batch(batch);
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        if let Some(t) = self.lb.pop_ready() {
            self.lbx.on_external_dispatch(t);
            self.background_scan();
            return Some(t);
        }
        let t = self.lbx.pop_ready()?;
        self.lb.on_external_dispatch(t);
        Some(t)
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        let before = out.len();
        self.lb.pop_batch(out, max);
        for &t in &out[before..] {
            self.lbx.on_external_dispatch(t);
        }
        if out.len() > before {
            self.background_scan();
        }
        if out.len() - before < max {
            let lb_end = out.len();
            self.lbx.pop_batch(out, max - (lb_end - before));
            for &t in &out[lb_end..] {
                self.lb.on_external_dispatch(t);
            }
        }
        out.len() - before
    }

    fn is_quiescent(&self) -> bool {
        self.lb.is_quiescent() && self.lbx.is_quiescent()
    }

    fn cost(&self) -> crate::CostMeter {
        self.lb.cost().plus(&self.lbx.cost())
    }

    fn space_bytes(&self) -> usize {
        self.lb.space_bytes() + self.lbx.space_bytes()
    }

    fn precompute_bytes(&self) -> usize {
        self.lb.precompute_bytes() + self.lbx.precompute_bytes()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        self.lb.on_external_dispatch(v);
        self.lbx.on_external_dispatch(v);
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        let mut g = self.lb.gauges();
        g.extend(self.lbx.gauges());
        g
    }
}

/// Everything a caller can read off the two Hybrids must agree.
fn same_hybrid_state(
    one: &crate::Hybrid,
    two: &TwoTableHybrid,
    step: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(one.levelbased_cost(), two.lb.cost(), "LevelBased, {}", step);
    prop_assert_eq!(one.logicblox_cost(), two.lbx.cost(), "LogicBlox, {}", step);
    prop_assert_eq!(one.gauges(), two.gauges(), "gauges, {}", step);
    prop_assert_eq!(one.is_quiescent(), two.is_quiescent(), "quiesced, {}", step);
    // One state table fewer, nothing else.
    let space = two.space_bytes() - two.lbx.state.bytes();
    prop_assert_eq!(one.space_bytes(), space, "space, {}", step);
    Ok(())
}

/// splitmix64: the driver's choices, reproducible from the case's seed.
fn next_choice(state: &mut u64, n: usize) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n as u64) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one-table Hybrid makes the decisions, and charges the costs,
    /// of the two-table Hybrid it replaced, with the background scan on
    /// and off. The driver mixes single pops with batches of random caps,
    /// and completes random subsets of the tasks in flight, in random
    /// order, one at a time or as one batch. Each instance runs twice on
    /// the same objects, the first run possibly abandoned half-way, so
    /// restarts are covered too.
    #[test]
    fn one_table_hybrid_matches_the_two_table_reference(
        inst in arb_instance(),
        background_scan in any::<bool>(),
        scan_slice in 1usize..6,
        seed in any::<u64>(),
    ) {
        let config = crate::HybridConfig { background_scan, scan_slice };
        let mut one = crate::Hybrid::with_config(inst.dag.clone(), config);
        let mut two = TwoTableHybrid {
            lb: crate::LevelBased::new(inst.dag.clone()),
            lbx: crate::LogicBlox::new(inst.dag.clone()),
            config,
        };
        let mut rng = seed;
        for round in 0..2 {
            one.start(&inst.initial_active);
            two.start(&inst.initial_active);
            same_hybrid_state(&one, &two, "start")?;
            let abandon_after = if round == 0 { next_choice(&mut rng, 40) } else { usize::MAX };
            let mut in_flight: Vec<NodeId> = Vec::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut done = CompletionBatch::new();
            for step in 0.. {
                if step == abandon_after {
                    break;
                }
                let action = next_choice(&mut rng, 3);
                if action < 2 || in_flight.is_empty() {
                    a.clear();
                    b.clear();
                    if action == 0 {
                        let popped = one.pop_ready();
                        prop_assert_eq!(popped, two.pop_ready(), "pop_ready");
                        a.extend(popped);
                    } else {
                        let cap = 1 + next_choice(&mut rng, 8);
                        one.pop_batch(&mut a, cap);
                        two.pop_batch(&mut b, cap);
                        prop_assert_eq!(&a, &b, "pop_batch({})", cap);
                    }
                    same_hybrid_state(&one, &two, "a pop")?;
                    if a.is_empty() && in_flight.is_empty() {
                        prop_assert!(one.is_quiescent(), "stalled with nothing in flight");
                        break;
                    }
                    in_flight.extend_from_slice(&a);
                    continue;
                }
                // Complete a random subset of the tasks in flight, in a
                // random order.
                let k = 1 + next_choice(&mut rng, in_flight.len());
                for i in 0..k {
                    let j = i + next_choice(&mut rng, in_flight.len() - i);
                    in_flight.swap(i, j);
                }
                let finished: Vec<NodeId> = in_flight.drain(..k).collect();
                if next_choice(&mut rng, 2) == 0 {
                    for &t in &finished {
                        one.on_completed(t, &inst.fired[t.index()]);
                        two.on_completed(t, &inst.fired[t.index()]);
                        same_hybrid_state(&one, &two, "on_completed")?;
                    }
                } else {
                    done.clear();
                    for &t in &finished {
                        done.push(t, &inst.fired[t.index()]);
                    }
                    one.complete_batch(&done);
                    two.complete_batch(&done);
                    same_hybrid_state(&one, &two, "complete_batch")?;
                }
            }
        }
    }
}
