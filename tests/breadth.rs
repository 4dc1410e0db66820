//! Breadth tests: secondary claims and stress paths not covered by the
//! per-crate suites — LBL's cost envelope, generator exactness on
//! arbitrary feasible specs, threaded execution at scale, and the Hybrid
//! configurations under the audited event simulator.

use datalog_sched::dag::{DagBuilder, NodeId};
use datalog_sched::runtime::{infallible, Executor, TaskFn};
use datalog_sched::sched::{
    CostPrices, Hybrid, HybridConfig, LevelBased, LevelBasedLookahead, Scheduler, SchedulerKind,
};
use datalog_sched::sim::{simulate_event, EventSimConfig};
use datalog_sched::traces::spec::CompClass;
use datalog_sched::traces::{generate, TraceSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// LBL's scheduling work stays within its O(n²) envelope even when the
/// look-ahead fires on every pop (paper §VI-B: "the worst-case running
/// time of the LBL algorithm is O(n²)").
#[test]
fn lbl_cost_within_quadratic_envelope() {
    // Chain of n: every pop past the first stalls at the barrier with one
    // candidate in the next level — maximal look-ahead invocations.
    for n in [50u32, 100, 200] {
        let mut b = DagBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(NodeId(i - 1), NodeId(i));
        }
        let dag = Arc::new(b.build().unwrap());
        let mut s = LevelBasedLookahead::new(dag, 8);
        s.start(&[NodeId(0)]);
        let mut done = 0;
        while let Some(t) = s.pop_ready() {
            let fired: Vec<NodeId> = if t.0 + 1 < n { vec![NodeId(t.0 + 1)] } else { vec![] };
            s.on_completed(t, &fired);
            done += 1;
        }
        assert_eq!(done, n);
        let c = s.cost();
        let bound = 4 * (n as u64) * (n as u64) + 100;
        assert!(
            c.bfs_steps + c.scan_steps <= bound,
            "n={n}: {} + {} exceeds O(n²) envelope {bound}",
            c.bfs_steps,
            c.scan_steps
        );
    }
}

/// LBL makespan sits between LevelBased and ExactGreedy on the barrier
/// stress instance, monotone in k.
#[test]
fn lbl_monotone_in_k_on_figure2() {
    let inst = datalog_sched::traces::adversarial::figure2(32);
    let cfg = EventSimConfig {
        processors: 32,
        prices: CostPrices::free(),
        audit: false,
        space_budget: None,
    };
    let run = |kind: SchedulerKind| {
        let mut s = kind.build(inst.dag.clone());
        simulate_event(s.as_mut(), &inst, &cfg).makespan
    };
    let lb = run(SchedulerKind::LevelBased);
    let mut prev = lb;
    for k in [1u32, 2, 4, 8, 16] {
        let m = run(SchedulerKind::Lookahead(k));
        assert!(
            m <= prev * 1.001,
            "LBL({k}) makespan {m} worse than shallower look-ahead {prev}"
        );
        prev = m;
    }
    let exact = run(SchedulerKind::ExactGreedy);
    assert!(prev >= exact - 1e-9, "no scheduler beats exact greedy here");
    assert!(lb > 2.0 * exact, "the instance separates LB from exact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary feasible specs generate with exact structural counts.
    #[test]
    fn generator_is_exact_on_arbitrary_specs(
        comps in 1u32..20,
        depth in 2u32..10,
        width in 1u32..4,
        extra_levels in 0u32..20,
        filler_nodes in 0u32..2000,
        density_pct in 40u32..220,
        seed in any::<u64>(),
    ) {
        let levels = depth + extra_levels;
        let comp_nodes = comps * (1 + (depth - 1) * width);
        let nodes = comp_nodes + levels + filler_nodes;
        // Edge budget: anchors + spine, plus density-scaled filler.
        let min_edges = comps * ((depth - 1) * width) + (levels - 1);
        let max_extra = (filler_nodes / 2).pow(2).min(10_000);
        let edges = min_edges + (max_extra * density_pct / 220).min(max_extra);
        let active = (comp_nodes as f64 * 0.6) as u32 + comps; // reachable target
        let spec = TraceSpec {
            name: "prop",
            id: 77,
            seed,
            nodes,
            edges,
            initial: comps,
            active: active.min(comp_nodes),
            levels,
            classes: vec![CompClass { count: comps, depth, width, dirty: true }],
            second_parent: 0.0,
            comp_scale_sigma: 0.0,
            duration: datalog_sched::traces::durations::DurationModel::new(1.0, 0.5),
            paper: Default::default(),
        };
        prop_assume!(spec.validate().is_ok());
        let (inst, rep) = generate(&spec);
        prop_assert_eq!(inst.dag.node_count() as u32, nodes);
        prop_assert_eq!(inst.dag.edge_count() as u32, edges);
        prop_assert_eq!(inst.dag.num_levels(), levels);
        prop_assert_eq!(inst.initial_active.len() as u32, comps);
        // The closure always covers at least the initial set.
        prop_assert!(rep.achieved_active >= comps as usize);
    }
}

/// Threaded executor at moderate scale: 5000 tasks across LevelBased,
/// Hybrid, and LBL(3).
#[test]
fn executor_stress_five_thousand_tasks() {
    let pipes = 1000u32;
    let depth = 5u32;
    let mut b = DagBuilder::new((pipes * depth) as usize);
    let node = |p: u32, d: u32| NodeId(p * depth + d);
    for p in 0..pipes {
        for d in 1..depth {
            b.add_edge(node(p, d - 1), node(p, d));
        }
    }
    let dag = Arc::new(b.build().unwrap());
    let initial: Vec<NodeId> = (0..pipes).map(|p| node(p, 0)).collect();
    let task: TaskFn = {
        let dag = dag.clone();
        Arc::new(move |v, fired: &mut Vec<NodeId>| fired.extend_from_slice(dag.children(v)))
    };
    let expected = (pipes * depth) as usize;

    let mut lb = LevelBased::new(dag.clone());
    let r = Executor::new(8)
        .run(&mut lb, &dag, &initial, infallible(task.clone()), None)
        .expect("run succeeds");
    assert_eq!(r.executed, expected);

    let mut hybrid = Hybrid::new(dag.clone());
    let r = Executor::new(8)
        .run(&mut hybrid, &dag, &initial, infallible(task.clone()), None)
        .expect("run succeeds");
    assert_eq!(r.executed, expected);

    let mut lbl = LevelBasedLookahead::new(dag.clone(), 3);
    let r = Executor::new(8)
        .run(&mut lbl, &dag, &initial, infallible(task), None)
        .expect("run succeeds");
    assert_eq!(r.executed, expected);
}

/// Event and step simulators agree on the makespan *bound* for unit
/// instances (both are greedy; both must respect w/P + L).
#[test]
fn event_and_step_agree_on_unit_bounds() {
    use datalog_sched::sched::{Instance, TaskShape};
    use datalog_sched::sim::{simulate_step, StepSimConfig};
    for seed in 0..8u64 {
        let dag = Arc::new(datalog_sched::dag::random::layered(
            datalog_sched::dag::random::LayeredParams {
                layers: 6,
                width: 5,
                max_in: 2,
                back_span: 2,
                seed,
            },
        ));
        let mut inst = Instance::unit(dag.clone(), dag.sources().collect());
        for v in dag.nodes() {
            inst.fired[v.index()] = dag.children(v).to_vec();
            inst.shapes[v.index()] = TaskShape::Unit;
        }
        let w = inst.active_work_units();
        let l = dag.num_levels() as u64;
        for p in [2usize, 4] {
            let bound = w.div_ceil(p as u64) + l;
            let mut s1 = LevelBased::new(dag.clone());
            let ev = simulate_event(
                &mut s1,
                &inst,
                &EventSimConfig {
                    processors: p,
                    prices: CostPrices::free(),
                    audit: false,
                    space_budget: None,
                },
            );
            let mut s2 = LevelBased::new(dag.clone());
            let st = simulate_step(
                &mut s2,
                &inst,
                &StepSimConfig {
                    processors: p,
                    audit: false,
                    batch_pops: false,
                },
            );
            assert!(ev.makespan as u64 <= bound, "event sim broke the bound");
            assert!(st.makespan <= bound, "step sim broke the bound");
            assert_eq!(ev.executed, st.executed);
        }
    }
}

/// Hybrid preserves safety under the event simulator with auditing, with
/// the background scan off and on.
#[test]
fn hybrid_configurations_audited() {
    let spec = TraceSpec {
        name: "hybrid",
        id: 78,
        seed: 99,
        nodes: 1_500,
        edges: 2_200,
        initial: 8,
        active: 150,
        levels: 25,
        classes: vec![CompClass {
            count: 8,
            depth: 10,
            width: 2,
            dirty: true,
        }],
        second_parent: 0.5,
        comp_scale_sigma: 0.0,
        duration: datalog_sched::traces::durations::DurationModel::new(0.5, 1.0),
        paper: Default::default(),
    };
    let (inst, _) = generate(&spec);
    let expected = inst.active_count();
    let cfg = EventSimConfig {
        processors: 4,
        prices: CostPrices::free(),
        audit: true,
        space_budget: None,
    };
    let mut quiet = Hybrid::new(inst.dag.clone());
    assert_eq!(simulate_event(&mut quiet, &inst, &cfg).executed, expected);
    let mut busy = Hybrid::with_config(
        inst.dag.clone(),
        HybridConfig {
            background_scan: true,
            scan_slice: 16,
        },
    );
    assert_eq!(simulate_event(&mut busy, &inst, &cfg).executed, expected);
}
