//! The trace generator.
//!
//! Assembly plan for a [`TraceSpec`] (all deterministic in the seed):
//!
//! 1. **Spine** — a chain of exactly `levels` nodes pins the DAG's level
//!    count (Table I column 5).
//! 2. **Active components** — each dirtied component has a single root
//!    (a genuine source; these roots are the trace's *initial tasks*) and
//!    `width` nodes per deeper layer, every node anchored to the previous
//!    layer so the component's depth is exact; optional second parents add
//!    realistic fan-in.
//! 3. **Filler** — the remaining node/edge budget, made of chains (sparse
//!    remainder) or a two-layer bipartite block (dense remainder), so the
//!    published node and edge counts are matched *exactly*.
//! 4. **Firing calibration** — every edge gets a fixed uniform draw from
//!    the seed; an edge fires iff its draw is below a global threshold
//!    `q`. The activation closure is monotone in `q`, so a binary search
//!    lands the active-job count on the Table I target (within the
//!    granularity the draws allow).
//! 5. **Durations** — log-normal per task (see [`crate::durations`]).

use crate::spec::TraceSpec;
use incr_dag::{Dag, DagBuilder, NodeId};
use incr_sched::{Instance, TaskShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Generation outcome: the instance plus calibration diagnostics.
#[derive(Clone, Debug)]
pub struct GenReport {
    /// Fire threshold the calibration settled on.
    pub fire_threshold: f64,
    /// Achieved active-job count (target: `spec.active`).
    pub achieved_active: usize,
}

/// Generate the instance for `spec`. Panics on an infeasible spec (the
/// presets are all feasible; `TraceSpec::validate` catches most problems
/// up front).
#[allow(clippy::expect_used, reason = "the documented panic on an infeasible spec")]
pub fn generate(spec: &TraceSpec) -> (Instance, GenReport) {
    spec.validate().expect("invalid trace spec");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.nodes as usize;
    let mut b = DagBuilder::with_edge_capacity(n, spec.edges as usize + 16);
    let mut edge_count: u64 = 0;
    let mut next: u32 = 0;
    let alloc = |count: u32, next: &mut u32| -> u32 {
        let base = *next;
        *next += count;
        assert!(*next as usize <= n, "node budget exceeded");
        base
    };

    // 1. Spine.
    let spine = alloc(spec.levels, &mut next);
    for i in 0..spec.levels.saturating_sub(1) {
        b.add_edge(NodeId(spine + i), NodeId(spine + i + 1));
        edge_count += 1;
    }

    // 2. Components.
    let mut initial: Vec<NodeId> = Vec::with_capacity(spec.initial as usize);
    // Per-component duration multipliers applied after sampling: record
    // each component's node range.
    let mut comp_ranges: Vec<(u32, u32)> = Vec::new();
    for class in &spec.classes {
        for _ in 0..class.count {
            let comp_start = next;
            let root = NodeId(alloc(1, &mut next));
            if class.dirty {
                initial.push(root);
            }
            let mut prev_layer: Vec<NodeId> = vec![root];
            let mut prev_prev: Vec<NodeId> = Vec::new();
            for _layer in 1..class.depth {
                let base = alloc(class.width, &mut next);
                let layer: Vec<NodeId> = (0..class.width).map(|i| NodeId(base + i)).collect();
                for &v in &layer {
                    // Anchor to the previous layer: depth is exact.
                    let anchor = prev_layer[rng.gen_range(0..prev_layer.len())];
                    b.add_edge(anchor, v);
                    edge_count += 1;
                    if rng.gen_bool(spec.second_parent) {
                        let pool = if !prev_prev.is_empty() && rng.gen_bool(0.5) {
                            &prev_prev
                        } else {
                            &prev_layer
                        };
                        let extra = pool[rng.gen_range(0..pool.len())];
                        if extra != anchor {
                            b.add_edge(extra, v);
                            edge_count += 1;
                        }
                    }
                }
                prev_prev = std::mem::replace(&mut prev_layer, layer);
            }
            comp_ranges.push((comp_start, next));
        }
    }
    assert_eq!(initial.len(), spec.initial as usize);

    // 3. Filler: exact node and edge budgets.
    let nodes_left = (n as u32) - next;
    let edges_left = (spec.edges as u64)
        .checked_sub(edge_count)
        .unwrap_or_else(|| {
            panic!(
                "{}: components already exceed edge budget ({edge_count} > {})",
                spec.name, spec.edges
            )
        });
    fill(&mut b, &mut next, nodes_left, edges_left, spec.levels, n);

    let dag: Arc<Dag> = Arc::new(b.build().expect("generated graph must be acyclic"));
    assert_eq!(dag.node_count(), n, "{}: node count", spec.name);
    assert_eq!(
        dag.edge_count(),
        spec.edges as usize,
        "{}: edge count (duplicate edges generated?)",
        spec.name
    );
    assert_eq!(
        dag.num_levels(),
        spec.levels,
        "{}: level count",
        spec.name
    );

    // 4. Firing calibration: binary-search the threshold.
    let draw = |u: NodeId, v: NodeId| edge_draw(spec.seed, u, v);
    let closure_size = |q: f64| -> usize {
        let mut seen = vec![false; n];
        let mut stack: Vec<NodeId> = initial.clone();
        for v in &initial {
            seen[v.index()] = true;
        }
        let mut count = 0usize;
        while let Some(u) = stack.pop() {
            count += 1;
            for &c in dag.children(u) {
                if !seen[c.index()] && draw(u, c) < q {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        count
    };
    let target = spec.active as usize;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut best_q = 1.0;
    let mut best_diff = usize::MAX;
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        let size = closure_size(mid);
        let diff = size.abs_diff(target);
        if diff < best_diff {
            best_diff = diff;
            best_q = mid;
        }
        if size < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // The closure jumps in steps (whole firing cascades); take the better
    // endpoint of the final bracket too.
    for q in [lo, hi, 1.0] {
        let diff = closure_size(q).abs_diff(target);
        if diff < best_diff {
            best_diff = diff;
            best_q = q;
        }
    }
    let q = best_q;
    let achieved = closure_size(q);

    // 5. Materialize fired lists and durations.
    let mut fired: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for u in dag.nodes() {
        for &c in dag.children(u) {
            if draw(u, c) < q {
                fired[u.index()].push(c);
            }
        }
    }
    let mut durations = spec.duration.sample_vec(&mut rng, n);
    if spec.comp_scale_sigma > 0.0 {
        let sc = spec.comp_scale_sigma;
        for &(lo, hi) in &comp_ranges {
            let z = crate::durations::standard_normal(&mut rng);
            let mult = (sc * z - sc * sc / 2.0).exp();
            for d in &mut durations[lo as usize..hi as usize] {
                *d *= mult;
            }
        }
    }
    let shapes = vec![TaskShape::Unit; n];

    let inst = Instance {
        dag,
        durations,
        shapes,
        initial_active: initial,
        fired,
    };
    debug_assert!(inst.validate().is_ok());
    (
        inst,
        GenReport {
            fire_threshold: q,
            achieved_active: achieved,
        },
    )
}

/// Uniform draw in `[0, 1)` fixed by `(seed, u, v)` — splitmix64 finalizer.
fn edge_draw(seed: u64, u: NodeId, v: NodeId) -> f64 {
    let mut x = seed ^ (u.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (v.0 as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Emit filler consuming exactly `nodes` nodes and `edges` edges.
///
/// Sparse remainder (`edges < nodes`): chains capped at `levels` deep plus
/// singletons. Dense remainder: one two-layer bipartite block (capacity
/// `⌊b/2⌋·⌈b/2⌉` is ample for every preset).
fn fill(
    b: &mut DagBuilder,
    next: &mut u32,
    mut nodes: u32,
    mut edges: u64,
    levels: u32,
    total: usize,
) {
    let alloc = |count: u32, next: &mut u32| -> u32 {
        let base = *next;
        *next += count;
        assert!(*next as usize <= total, "filler exceeded node budget");
        base
    };
    if edges >= nodes as u64 && nodes >= 2 {
        // Dense: one bipartite block over all remaining nodes.
        let w1 = nodes / 2;
        let w2 = nodes - w1;
        let cap = w1 as u64 * w2 as u64;
        assert!(
            edges <= cap,
            "filler block cannot absorb {edges} edges over {nodes} nodes"
        );
        let base = alloc(nodes, next);
        let left = |i: u32| NodeId(base + i);
        let right = |j: u32| NodeId(base + w1 + j);
        'outer: for i in 0..w1 {
            for j in 0..w2 {
                if edges == 0 {
                    break 'outer;
                }
                b.add_edge(left(i), right(j));
                edges -= 1;
            }
        }
        return;
    }
    // Sparse: chains then singletons.
    while nodes > 0 {
        if edges == 0 {
            let _ = alloc(nodes, next); // singletons
            break;
        }
        let k = (edges + 1).min(nodes as u64).min(levels.max(2) as u64) as u32;
        let base = alloc(k, next);
        for i in 0..k - 1 {
            b.add_edge(NodeId(base + i), NodeId(base + i + 1));
        }
        nodes -= k;
        edges -= (k - 1) as u64;
    }
    assert_eq!(edges, 0, "filler could not place every edge");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{preset, presets};
    use crate::stats::trace_stats;

    /// Small smoke spec for fast unit tests (the full presets are covered
    /// by the slower integration tests / benches).
    fn small_spec() -> TraceSpec {
        TraceSpec {
            name: "small",
            id: 99,
            seed: 42,
            nodes: 600,
            edges: 900,
            initial: 4,
            active: 80,
            levels: 20,
            classes: vec![crate::spec::CompClass {
                count: 4,
                depth: 10,
                width: 3,
                dirty: true,
            }],
            second_parent: 0.5,
            comp_scale_sigma: 0.0,
            duration: crate::durations::DurationModel::new(1.0, 1.0),
            paper: Default::default(),
        }
    }

    #[test]
    fn exact_structure_counts() {
        let spec = small_spec();
        let (inst, _) = generate(&spec);
        assert_eq!(inst.dag.node_count(), 600);
        assert_eq!(inst.dag.edge_count(), 900);
        assert_eq!(inst.dag.num_levels(), 20);
        assert_eq!(inst.initial_active.len(), 4);
    }

    #[test]
    fn active_count_calibrated() {
        let spec = small_spec();
        let (inst, rep) = generate(&spec);
        let actual = inst.active_count();
        assert_eq!(actual, rep.achieved_active);
        let err = actual.abs_diff(80) as f64 / 80.0;
        assert!(err <= 0.1, "active {actual} vs target 80 (err {err:.2})");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let (a, _) = generate(&spec);
        let (b, _) = generate(&spec);
        assert_eq!(a.initial_active, b.initial_active);
        assert_eq!(a.durations, b.durations);
        assert_eq!(
            a.dag.edges().collect::<Vec<_>>(),
            b.dag.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn initial_tasks_are_sources() {
        let (inst, _) = generate(&small_spec());
        for &v in &inst.initial_active {
            assert_eq!(inst.dag.in_degree(v), 0, "{v} is not a source");
        }
    }

    #[test]
    fn small_presets_match_table1_exactly() {
        // #5 is small enough for a unit test; the rest are exercised in
        // integration tests.
        let spec = preset(5);
        let (inst, rep) = generate(&spec);
        let st = trace_stats(&inst);
        assert_eq!(st.nodes, 1_719);
        assert_eq!(st.edges, 2_430);
        assert_eq!(st.initial_tasks, 6);
        assert_eq!(st.levels, 39);
        let err = rep.achieved_active.abs_diff(296) as f64 / 296.0;
        assert!(err <= 0.05, "active {} vs 296", rep.achieved_active);
    }

    #[test]
    fn shared_dag_pairs_have_identical_structure() {
        let (a, _) = generate(&preset(7));
        let (b, _) = generate(&preset(8));
        assert_eq!(
            a.dag.edges().collect::<Vec<_>>(),
            b.dag.edges().collect::<Vec<_>>()
        );
        assert_ne!(a.initial_active.len(), b.initial_active.len());
    }

    #[test]
    fn all_presets_validate_structurally() {
        for spec in presets() {
            spec.validate().unwrap();
        }
    }
}
