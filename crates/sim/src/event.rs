//! Discrete-event simulation of duration-based tasks on `P` processors.
//!
//! Each task occupies one processor for its trace-supplied duration (the
//! production traces attach a processing time to every task, §VI-A). The
//! scheduler is modelled as a single sequential resource: every protocol
//! call (pop, completion handling) consumes simulated time according to
//! the operations it charged to its [`CostMeter`], priced by
//! [`CostPrices`]. A dispatch therefore cannot start before the scheduler
//! clock reaches it — slow scans visibly delay work, which is exactly how
//! scheduling overhead inflates the total execution times in Tables II
//! and III.

use incr_obs::trace;
use incr_sched::{CostMeter, CostPrices, Instance, SafetyChecker, Scheduler};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configuration for one event-simulation run.
#[derive(Clone, Debug)]
pub struct EventSimConfig {
    /// Number of processors `P` (the paper simulates with 8).
    pub processors: usize,
    /// Prices converting scheduler operation counts to simulated seconds.
    pub prices: CostPrices,
    /// Audit every pop against ground-truth reachability (`O(V+E)` per
    /// pop — test-scale instances only).
    pub audit: bool,
    /// Abort when the scheduler's run-state memory exceeds this many
    /// bytes (the meta-scheduler's budget, Theorem 10).
    pub space_budget: Option<usize>,
}

impl Default for EventSimConfig {
    fn default() -> Self {
        EventSimConfig {
            processors: 8,
            prices: CostPrices::default(),
            audit: false,
            space_budget: None,
        }
    }
}

/// Outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Total execution time including scheduling overhead (what Tables II
    /// and III call "total makespan").
    pub makespan: f64,
    /// Total simulated time the scheduler resource was busy ("scheduling
    /// overhead" in Table III).
    pub sched_overhead: f64,
    /// Tasks executed (must equal `|W|`).
    pub executed: usize,
    /// Final cost counters.
    pub cost: CostMeter,
    /// Peak run-state memory observed (bytes).
    pub peak_space: usize,
    /// Scheduler precomputation memory (bytes).
    pub precompute_space: usize,
    /// Real wall-clock seconds spent inside scheduler calls (reported
    /// alongside the modeled overhead; not used in the makespan).
    pub wall_sched_seconds: f64,
    /// True if the run was aborted because `space_budget` was exceeded
    /// (makespan is then the abort time, a lower bound).
    pub over_budget: bool,
    /// Total task execution time (sum of executed durations).
    pub busy_seconds: f64,
}

/// Min-heap entry: a running task completing at `time`.
struct Completion {
    time: f64,
    node: incr_dag::NodeId,
    /// Simulated processor index the task ran on (trace lane).
    lane: u32,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.node == other.node
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap; ties broken by node id for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Run `scheduler` over `instance` and return the measured result.
///
/// Panics if the scheduler stalls (claims no ready work while active tasks
/// remain and nothing is running) — that is a scheduler bug, not a
/// workload property.
pub fn simulate_event(
    scheduler: &mut dyn Scheduler,
    instance: &Instance,
    cfg: &EventSimConfig,
) -> SimResult {
    debug_assert!(instance.validate().is_ok());
    assert!(cfg.processors >= 1, "need at least one processor");

    let mut audit = cfg.audit.then(|| SafetyChecker::new(instance.dag.clone()));

    let mut now = 0.0f64;
    let mut sched_clock = 0.0f64;
    let mut overhead = 0.0f64;
    let mut wall = 0.0f64;
    let mut peak_space = 0usize;
    let mut executed = 0usize;
    let mut busy = 0.0f64;
    let mut makespan = 0.0f64;
    let mut idle = cfg.processors;
    let mut heap: BinaryHeap<Completion> = BinaryHeap::new();

    // Charge a scheduler call: advance the scheduler clock by the delta of
    // weighted cost, starting no earlier than `now`. When tracing is on,
    // each nonzero charge becomes a span on the simulated scheduler-clock
    // lane, so Perfetto shows exactly where overhead delays dispatches.
    macro_rules! charge {
        ($name:literal, $before:expr, $t0:expr) => {{
            wall += $t0.elapsed().as_secs_f64();
            let delta = scheduler.cost().weighted(&cfg.prices) - $before;
            debug_assert!(delta >= -1e-12, "cost must be monotone");
            if sched_clock < now {
                sched_clock = now;
            }
            if delta > 0.0 && trace::enabled() {
                trace::sim_complete(
                    trace::SIM_SCHED_LANE,
                    $name,
                    sched_clock * 1e6,
                    delta * 1e6,
                    Vec::new(),
                );
            }
            sched_clock += delta.max(0.0);
            overhead += delta.max(0.0);
        }};
    }

    let mut free_lanes: Vec<u32> = (0..cfg.processors as u32).rev().collect();

    let before = scheduler.cost().weighted(&cfg.prices);
    let t0 = std::time::Instant::now();
    scheduler.start(&instance.initial_active);
    charge!("sched.start", before, t0);
    if let Some(a) = audit.as_mut() {
        a.on_start(&instance.initial_active);
    }

    let mut over_budget = false;
    'outer: loop {
        // Dispatch onto idle processors.
        while idle > 0 {
            let before = scheduler.cost().weighted(&cfg.prices);
            let t0 = std::time::Instant::now();
            let popped = scheduler.pop_ready();
            charge!("sched.pop_ready", before, t0);
            let Some(t) = popped else { break };
            if let Some(a) = audit.as_mut() {
                a.on_pop(t);
            }
            // The dispatch leaves the scheduler no earlier than the
            // scheduler clock: overhead delays work.
            let start = now.max(sched_clock);
            busy += instance.durations[t.index()];
            let finish = start + instance.durations[t.index()];
            makespan = makespan.max(finish);
            #[allow(clippy::expect_used, reason = "the loop pops only while a lane is idle")]
            let lane = free_lanes.pop().expect("idle count tracks free lanes");
            if trace::enabled() {
                trace::sim_complete(
                    lane,
                    format!("task {}", t.0),
                    start * 1e6,
                    instance.durations[t.index()] * 1e6,
                    vec![
                        ("node", (t.0 as u64).into()),
                        ("level", (instance.dag.level(t) as u64).into()),
                    ],
                );
            }
            heap.push(Completion {
                time: finish,
                node: t,
                lane,
            });
            idle -= 1;
        }

        peak_space = peak_space.max(scheduler.space_bytes());
        if let Some(budget) = cfg.space_budget {
            if scheduler.space_bytes() > budget {
                over_budget = true;
                break 'outer;
            }
        }

        let Some(c) = heap.pop() else {
            assert!(
                scheduler.is_quiescent(),
                "{} stalled: no running tasks but active work remains",
                scheduler.name()
            );
            break;
        };
        now = c.time;
        idle += 1;
        free_lanes.push(c.lane);
        executed += 1;
        let fired = &instance.fired[c.node.index()];
        let before = scheduler.cost().weighted(&cfg.prices);
        let t0 = std::time::Instant::now();
        scheduler.on_completed(c.node, fired);
        charge!("sched.on_completed", before, t0);
        if let Some(a) = audit.as_mut() {
            a.on_complete(c.node, fired);
        }
    }

    if !over_budget {
        if let Some(a) = audit.as_mut() {
            a.on_finish();
        }
    }

    if trace::enabled() {
        trace::sim_instant(
            trace::SIM_SCHED_LANE,
            "makespan",
            makespan.max(now) * 1e6,
            vec![
                ("executed", executed.into()),
                ("sched_overhead_s", overhead.into()),
            ],
        );
    }

    SimResult {
        makespan: makespan.max(now),
        sched_overhead: overhead,
        executed,
        cost: scheduler.cost(),
        peak_space,
        precompute_space: scheduler.precompute_bytes(),
        wall_sched_seconds: wall,
        over_budget,
        busy_seconds: busy,
    }
}

impl SimResult {
    /// Processor utilization: executed work over `P · makespan` capacity.
    /// Low utilization = processors idled at barriers or behind the
    /// scheduler clock.
    pub fn utilization(&self, processors: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.busy_seconds / (processors as f64 * self.makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::{DagBuilder, NodeId};
    use incr_sched::{LevelBased, SchedulerKind};
    use std::sync::Arc;

    fn two_chains() -> Instance {
        // 0 -> 2 -> 4 ; 1 -> 3 -> 5 (levels 0,1,2).
        let mut b = DagBuilder::new(6);
        for (u, v) in [(0, 2), (2, 4), (1, 3), (3, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let dag = Arc::new(b.build().unwrap());
        let mut inst = Instance::unit(dag, vec![NodeId(0), NodeId(1)]);
        for v in 0..4u32 {
            if v < 4 {
                inst.fired[v as usize] = vec![NodeId(v + 2)];
            }
        }
        inst
    }

    fn free_cfg(p: usize) -> EventSimConfig {
        EventSimConfig {
            processors: p,
            prices: incr_sched::CostPrices::free(),
            audit: true,
            space_budget: None,
        }
    }

    #[test]
    fn serial_execution_sums_durations() {
        let inst = two_chains();
        let mut s = LevelBased::new(inst.dag.clone());
        let r = simulate_event(&mut s, &inst, &free_cfg(1));
        assert_eq!(r.executed, 6);
        assert!((r.makespan - 6.0).abs() < 1e-9, "makespan {}", r.makespan);
        assert_eq!(r.sched_overhead, 0.0);
    }

    #[test]
    fn two_processors_halve_the_chains() {
        let inst = two_chains();
        let mut s = LevelBased::new(inst.dag.clone());
        let r = simulate_event(&mut s, &inst, &free_cfg(2));
        // Perfectly parallel chains of length 3.
        assert!((r.makespan - 3.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn overhead_delays_dispatch() {
        let inst = two_chains();
        let mut s = LevelBased::new(inst.dag.clone());
        let heavy = EventSimConfig {
            processors: 2,
            prices: incr_sched::CostPrices::default().scaled(1e7), // absurd prices
            audit: false,
            space_budget: None,
        };
        let r = simulate_event(&mut s, &inst, &heavy);
        assert!(r.sched_overhead > 0.0);
        assert!(
            r.makespan > 3.0 + r.sched_overhead / 2.0,
            "makespan {} must absorb overhead {}",
            r.makespan,
            r.sched_overhead
        );
    }

    #[test]
    fn all_schedulers_agree_on_executed_count() {
        let inst = two_chains();
        for kind in [
            SchedulerKind::LevelBased,
            SchedulerKind::Lookahead(4),
            SchedulerKind::LogicBlox,
            SchedulerKind::SignalPropagation,
            SchedulerKind::Hybrid,
            SchedulerKind::ExactGreedy,
        ] {
            let mut s = kind.build(inst.dag.clone());
            let r = simulate_event(s.as_mut(), &inst, &free_cfg(3));
            assert_eq!(r.executed, 6, "{kind:?}");
        }
    }

    #[test]
    fn barrier_vs_exact_makespan_gap() {
        // Straggler demo: chain A's level-1 task is long; chain B's
        // level-2 task is long too. Exact readiness overlaps them;
        // LevelBased's barrier serializes them.
        let mut inst = two_chains();
        inst.durations = vec![1.0, 1.0, 10.0, 1.0, 1.0, 10.0];
        let mut lb = incr_sched::LevelBased::new(inst.dag.clone());
        let mut ex = incr_sched::ExactGreedy::new(inst.dag.clone());
        let rl = simulate_event(&mut lb, &inst, &free_cfg(2));
        let re = simulate_event(&mut ex, &inst, &free_cfg(2));
        assert!(
            rl.makespan > re.makespan,
            "LB {} should exceed exact {}",
            rl.makespan,
            re.makespan
        );
    }

    #[test]
    fn utilization_reflects_barrier_idling() {
        let inst = two_chains();
        let mut lb = LevelBased::new(inst.dag.clone());
        let r = simulate_event(&mut lb, &inst, &free_cfg(2));
        assert!((r.busy_seconds - 6.0).abs() < 1e-9, "6 unit tasks");
        // Two perfectly parallel chains on 2 processors: full utilization.
        assert!((r.utilization(2) - 1.0).abs() < 1e-9);
        // Same work on 4 processors: half the slots idle.
        let mut lb = LevelBased::new(inst.dag.clone());
        let r = simulate_event(&mut lb, &inst, &free_cfg(4));
        assert!((r.utilization(4) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn budget_aborts_run() {
        let inst = two_chains();
        let mut s = LevelBased::new(inst.dag.clone());
        let cfg = EventSimConfig {
            space_budget: Some(1), // absurdly small
            audit: false,
            ..free_cfg(2)
        };
        let r = simulate_event(&mut s, &inst, &cfg);
        assert!(r.over_budget);
    }

    #[test]
    fn zero_active_instance_is_trivial() {
        let inst = Instance::unit(two_chains().dag, vec![]);
        let mut s = LevelBased::new(inst.dag.clone());
        let r = simulate_event(&mut s, &inst, &free_cfg(2));
        assert_eq!(r.executed, 0);
        assert_eq!(r.makespan, 0.0);
    }
}
