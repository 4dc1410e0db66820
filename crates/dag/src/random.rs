//! Seeded random DAG generators shared by property tests and benches.
//!
//! Only the *structural* generators live here; the workload-level trace
//! generators (durations, activation behaviour, Table-I presets) are in the
//! `incr-traces` crate, which builds on these.

use crate::builder::DagBuilder;
use crate::graph::{Dag, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for a layered random DAG: `layers` levels with `width` nodes
/// each; each node at layer `l > 0` receives `1..=max_in` parents drawn from
/// layers `[l - back_span, l)`, guaranteeing the level structure.
#[derive(Clone, Copy, Debug)]
pub struct LayeredParams {
    pub layers: u32,
    pub width: u32,
    pub max_in: u32,
    pub back_span: u32,
    pub seed: u64,
}

impl Default for LayeredParams {
    fn default() -> Self {
        LayeredParams {
            layers: 10,
            width: 8,
            max_in: 3,
            back_span: 2,
            seed: 0,
        }
    }
}

/// Generate a layered random DAG. Deterministic for a fixed seed. Every
/// node at layer `l` has at least one parent at layer `l - 1`, so the DAG's
/// computed levels equal the construction layers.
#[allow(clippy::expect_used, reason = "edges only run from lower to higher node ids")]
pub fn layered(p: LayeredParams) -> Dag {
    assert!(p.layers >= 1 && p.width >= 1, "degenerate layered params");
    let mut rng = StdRng::seed_from_u64(p.seed);
    let n = (p.layers * p.width) as usize;
    let mut b = DagBuilder::with_edge_capacity(n, n * p.max_in as usize);
    let node = |layer: u32, i: u32| NodeId(layer * p.width + i);
    for l in 1..p.layers {
        for i in 0..p.width {
            let v = node(l, i);
            // Guaranteed parent at the previous layer pins the level.
            let anchor = node(l - 1, rng.gen_range(0..p.width));
            b.add_edge(anchor, v);
            let extra = if p.max_in == 0 {
                0
            } else {
                rng.gen_range(0..p.max_in)
            };
            for _ in 0..extra {
                let span = p.back_span.max(1).min(l);
                let pl = l - rng.gen_range(1..=span);
                b.add_edge(node(pl, rng.gen_range(0..p.width)), v);
            }
        }
    }
    b.build().expect("layered construction is acyclic")
}

/// Random DAG over `n` nodes where each ordered pair `(i, j)` with `i < j`
/// becomes an edge with probability `p` — the classic random-order DAG used
/// by property tests for reachability / interval-list equivalence.
#[allow(clippy::expect_used, reason = "edges only run from lower to higher node ids")]
pub fn gnp_ordered(n: usize, p: f64, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DagBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    b.build().expect("ordered construction is acyclic")
}

/// A simple path `0 -> 1 -> ... -> n-1`.
#[allow(clippy::expect_used, reason = "edges only run from lower to higher node ids")]
pub fn chain(n: usize) -> Dag {
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    b.build().expect("chain is acyclic")
}

/// A star: one source fanning out to `n - 1` sinks (shallow-and-wide, the
/// regime of traces #6 and #11).
#[allow(clippy::expect_used, reason = "edges only run from lower to higher node ids")]
pub fn fan(n: usize) -> Dag {
    assert!(n >= 1);
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(0), NodeId(i as u32));
    }
    b.build().expect("fan is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_levels_match_layers() {
        let p = LayeredParams {
            layers: 7,
            width: 5,
            max_in: 2,
            back_span: 3,
            seed: 42,
        };
        let d = layered(p);
        assert_eq!(d.node_count(), 35);
        assert_eq!(d.num_levels(), 7);
        for v in d.nodes() {
            assert_eq!(d.level(v), v.0 / 5, "layer assignment pins level");
        }
    }

    #[test]
    fn layered_is_deterministic() {
        let p = LayeredParams::default();
        let a = layered(p);
        let b = layered(p);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn gnp_respects_order() {
        let d = gnp_ordered(30, 0.3, 7);
        for (u, v) in d.edges() {
            assert!(u < v);
        }
    }

    #[test]
    fn chain_shape() {
        let d = chain(5);
        assert_eq!(d.num_levels(), 5);
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn fan_shape() {
        let d = fan(9);
        assert_eq!(d.num_levels(), 2);
        assert_eq!(d.sources().count(), 1);
        assert_eq!(d.sinks().count(), 8);
    }
}
