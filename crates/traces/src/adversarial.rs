//! Pathological instances from the paper's analysis sections.
//!
//! * [`figure2`] — the Theorem 9 tight example where LevelBased is
//!   `Θ(ML)` against an optimal `Θ(M + L)`.
//! * [`lbx_cubic`] — drives the LogicBlox scheduler to its `Θ(n³)`
//!   scheduling-cost worst case (§II-C).
//! * [`interval_blowup`] — drives the interval-list preprocessing to its
//!   `Θ(V²)` space worst case (§II-C).
//! * [`hundred_x`] — a synthetic instance in the spirit of §VI's anecdote
//!   ("we even managed to design a synthetic instance on which the hybrid
//!   scheduler was performing 100× faster than the LogicBlox scheduler"):
//!   shallow, wide, with a huge active queue that makes the scan the
//!   bottleneck while LevelBased dispatches in O(1).

use incr_dag::{Dag, DagBuilder, NodeId};
use incr_sched::{Instance, TaskShape};
use std::sync::Arc;

/// The Figure 2 tight example with `l` levels.
///
/// Unit tasks `j_1 … j_l` form a chain; for `i = 2 … l` a task `k_i`
/// depends on `j_{i-1}` and has work *and span* `l - i + 1` (a sequential
/// chain, no internal parallelism). Everything activates. LevelBased
/// waits for each `k_i` to finish before advancing past level `i`, giving
/// makespan `Θ(l²)`; a scheduler with exact readiness runs each `k_i` on
/// its own processor for `Θ(l + M)` total (Theorem 9, `M = max span = l - 1`).
#[allow(clippy::unwrap_used, reason = "a fixed construction whose edges all point forward")]
pub fn figure2(l: u32) -> Instance {
    assert!(l >= 2, "the example needs at least two levels");
    // Nodes: j_1..j_l are 0..l-1 ; k_i (i=2..=l) are l..2l-2.
    let n = (2 * l - 1) as usize;
    let mut b = DagBuilder::new(n);
    let j = |i: u32| NodeId(i - 1); // j_i, i in 1..=l
    let k = |i: u32| NodeId(l + i - 2); // k_i, i in 2..=l
    for i in 2..=l {
        b.add_edge(j(i - 1), j(i));
        b.add_edge(j(i - 1), k(i));
    }
    let dag: Arc<Dag> = Arc::new(b.build().unwrap());
    let mut inst = Instance::unit(dag, vec![j(1)]);
    for i in 2..=l {
        inst.fired[j(i - 1).index()] = vec![j(i), k(i)];
        inst.shapes[k(i).index()] = TaskShape::Chain { len: l - i + 1 };
        // Durations mirror the shapes for the event simulator.
        inst.durations[k(i).index()] = (l - i + 1) as f64;
    }
    debug_assert!(inst.validate().is_ok());
    inst
}

/// `Θ(n³)` scheduling cost for the LogicBlox scan.
///
/// A source fans out to `n` children that also form a chain: when the
/// source completes, all `n` children are active but only the chain head
/// is safe. Every completion triggers a rescan of the whole active queue,
/// and every candidate check walks the whole blocker set: `n` scans ×
/// `n` candidates × `Θ(n)` blockers.
#[allow(clippy::unwrap_used, reason = "a fixed construction whose edges all point forward")]
pub fn lbx_cubic(n: u32) -> Instance {
    assert!(n >= 1);
    let mut b = DagBuilder::new(n as usize + 1);
    let c = |i: u32| NodeId(1 + i); // c_0..c_{n-1}
    for i in 0..n {
        b.add_edge(NodeId(0), c(i));
        if i + 1 < n {
            b.add_edge(c(i), c(i + 1));
        }
    }
    let dag: Arc<Dag> = Arc::new(b.build().unwrap());
    let mut inst = Instance::unit(dag, vec![NodeId(0)]);
    inst.fired[0] = (0..n).map(c).collect();
    // The chain itself need not re-fire (children already active).
    debug_assert!(inst.validate().is_ok());
    inst
}

/// `Θ(k²)` interval-list space: source 0 covers every sink, pinning sink
/// postorders contiguously; each other source covers only even-indexed
/// sinks, whose postorders are pairwise non-adjacent — `Θ(k)` intervals
/// per source.
#[allow(clippy::unwrap_used, reason = "a fixed construction whose edges all point forward")]
pub fn interval_blowup(k: u32) -> Arc<Dag> {
    let mut b = DagBuilder::new((2 * k) as usize);
    for j in 0..k {
        b.add_edge(NodeId(0), NodeId(k + j));
    }
    for i in 1..k {
        for j in (0..k).step_by(2) {
            b.add_edge(NodeId(i), NodeId(k + j));
        }
    }
    Arc::new(b.build().unwrap())
}

/// The "100×" anecdote instance: `n` independent microsecond point
/// updates, all dirty at once (a bulk of single-predicate edits). Every
/// task is trivially safe, yet the LogicBlox scan verifies each of the
/// `n` candidates against all `n` blockers — `Θ(n²)` simulated scheduler
/// time before anything runs — while LevelBased (and therefore the
/// Hybrid, which never needs the scan here) dispatches each task in
/// `O(1)`.
#[allow(clippy::unwrap_used, reason = "a fixed construction whose edges all point forward")]
pub fn hundred_x(n: u32) -> Instance {
    let b = DagBuilder::new(n as usize);
    let dag: Arc<Dag> = Arc::new(b.build().unwrap());
    let mut inst = Instance::unit(dag, (0..n).map(NodeId).collect());
    for d in &mut inst.durations {
        *d = 5e-6;
    }
    debug_assert!(inst.validate().is_ok());
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::IntervalList;

    #[test]
    fn figure2_shape() {
        let inst = figure2(6);
        assert_eq!(inst.dag.node_count(), 11);
        assert_eq!(inst.dag.num_levels(), 6);
        // k_2 has span l-1 = 5; k_l has span 1.
        assert_eq!(inst.shapes[6], TaskShape::Chain { len: 5 });
        assert_eq!(inst.shapes[10], TaskShape::Chain { len: 1 });
        assert_eq!(inst.active_count(), 11, "everything activates");
    }

    #[test]
    fn figure2_work_is_quadratic() {
        let l = 10;
        let inst = figure2(l);
        // Total work: l units (chain) + sum_{i=2..l} (l-i+1) = l + l(l-1)/2.
        let expect = l as u64 + (l as u64) * (l as u64 - 1) / 2;
        assert_eq!(inst.active_work_units(), expect);
    }

    #[test]
    fn lbx_cubic_activates_everything_at_once() {
        let inst = lbx_cubic(20);
        assert_eq!(inst.active_count(), 21);
        assert_eq!(inst.fired[0].len(), 20);
        assert_eq!(inst.dag.num_levels(), 21);
    }

    #[test]
    fn interval_blowup_is_superlinear() {
        let small = IntervalList::build(&interval_blowup(8)).total_intervals();
        let large = IntervalList::build(&interval_blowup(16)).total_intervals();
        assert!(large as f64 >= 3.0 * small as f64, "{small} -> {large}");
    }

    #[test]
    fn hundred_x_is_shallow_and_wide() {
        let inst = hundred_x(100);
        assert_eq!(inst.dag.num_levels(), 1);
        assert_eq!(inst.initial_active.len(), 100);
        assert_eq!(inst.active_count(), 100);
    }
}
