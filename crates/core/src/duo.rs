//! Generic two-scheduler combinator — the full generality of §V.
//!
//! The paper's Theorem 10 and the practical hybrid of §VI are stated for
//! *any* heuristic `A` run alongside LevelBased: "the LevelBased
//! algorithm identifies tasks that are ready to be scheduled ... The
//! method is oblivious to how those tasks were completed and, therefore,
//! LevelBased can be run alongside any scheduling algorithm" (§III).
//! [`Duo`] realizes that: it combines any two [`Scheduler`]s with a
//! shared notion of dispatched work, consulting the `primary` first on
//! every pop and falling back to the `secondary` when the primary has
//! nothing safe to offer. Completions are delivered to both sides;
//! cross-dispatches are reconciled through
//! [`Scheduler::on_external_dispatch`].
//!
//! [`crate::Hybrid`] is the production-tuned LevelBased + LogicBlox
//! instance of this idea (with the background-scan knob the paper's
//! deployment implies); `Duo` is the general construction used by the
//! §V experiments and available to users with their own heuristics.

use crate::cost::CostMeter;
use crate::scheduler::{CompletionBatch, Scheduler};
use incr_dag::NodeId;

/// Any-two-schedulers combination with a shared dispatch view.
pub struct Duo<A: Scheduler, B: Scheduler> {
    primary: A,
    secondary: B,
    name: String,
}

impl<A: Scheduler, B: Scheduler> Duo<A, B> {
    pub fn new(primary: A, secondary: B) -> Self {
        let name = format!("Duo({}+{})", primary.name(), secondary.name());
        Duo {
            primary,
            secondary,
            name,
        }
    }

    /// The primary sub-scheduler (consulted first on every pop).
    pub fn primary(&self) -> &A {
        &self.primary
    }

    /// The secondary sub-scheduler (the fallback).
    pub fn secondary(&self) -> &B {
        &self.secondary
    }
}

impl<A: Scheduler, B: Scheduler> Scheduler for Duo<A, B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.primary.start(initial_active);
        self.secondary.start(initial_active);
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.primary.on_completed(v, fired);
        self.secondary.on_completed(v, fired);
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        self.primary.complete_batch(batch);
        self.secondary.complete_batch(batch);
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        if let Some(t) = self.primary.pop_ready() {
            self.secondary.on_external_dispatch(t);
            return Some(t);
        }
        if let Some(t) = self.secondary.pop_ready() {
            self.primary.on_external_dispatch(t);
            return Some(t);
        }
        None
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        let before = out.len();
        self.primary.pop_batch(out, max);
        for &t in &out[before..] {
            self.secondary.on_external_dispatch(t);
        }
        if out.len() - before < max {
            let primary_end = out.len();
            self.secondary.pop_batch(out, max - (primary_end - before));
            for &t in &out[primary_end..] {
                self.primary.on_external_dispatch(t);
            }
        }
        out.len() - before
    }

    fn is_quiescent(&self) -> bool {
        self.primary.is_quiescent()
    }

    fn cost(&self) -> CostMeter {
        self.primary.cost().plus(&self.secondary.cost())
    }

    fn space_bytes(&self) -> usize {
        self.primary.space_bytes() + self.secondary.space_bytes()
    }

    fn precompute_bytes(&self) -> usize {
        self.primary.precompute_bytes() + self.secondary.precompute_bytes()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        self.primary.on_external_dispatch(v);
        self.secondary.on_external_dispatch(v);
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        let mut g = self.primary.gauges();
        g.extend(self.secondary.gauges());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ExactGreedy, LevelBased, LevelBasedLookahead, LogicBlox, SignalPropagation,
    };
    use incr_dag::{Dag, DagBuilder, NodeId};
    use std::sync::Arc;

    /// Two chains 0->2->4, 1->3->5 (levels 0,1,2).
    fn ladder() -> Arc<Dag> {
        let mut b = DagBuilder::new(6);
        for (u, v) in [(0, 2), (2, 4), (1, 3), (3, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    /// Drive serially with full firing; count executions.
    fn drive(s: &mut dyn Scheduler, dag: &Arc<Dag>, initial: &[NodeId]) -> usize {
        s.start(initial);
        let mut n = 0;
        let mut in_flight = Vec::new();
        loop {
            while let Some(t) = s.pop_ready() {
                in_flight.push(t);
            }
            let Some(t) = in_flight.pop() else { break };
            n += 1;
            let fired: Vec<NodeId> = dag.children(t).to_vec();
            s.on_completed(t, &fired);
        }
        assert!(s.is_quiescent());
        n
    }

    #[test]
    fn arbitrary_pairings_execute_everything() {
        let dag = ladder();
        let initial = [NodeId(0), NodeId(1)];
        // LBL + LogicBlox
        let mut a = Duo::new(
            LevelBasedLookahead::new(dag.clone(), 4),
            LogicBlox::new(dag.clone()),
        );
        assert_eq!(drive(&mut a, &dag, &initial), 6);
        // LevelBased + SignalPropagation
        let mut b = Duo::new(
            LevelBased::new(dag.clone()),
            SignalPropagation::new(dag.clone()),
        );
        assert_eq!(drive(&mut b, &dag, &initial), 6);
        // ExactGreedy + LevelBased (oracle as the heuristic)
        let mut c = Duo::new(ExactGreedy::new(dag.clone()), LevelBased::new(dag.clone()));
        assert_eq!(drive(&mut c, &dag, &initial), 6);
    }

    #[test]
    fn secondary_rescues_primary_barrier() {
        let dag = ladder();
        let mut s = Duo::new(LevelBased::new(dag.clone()), LogicBlox::new(dag.clone()));
        s.start(&[NodeId(0), NodeId(1)]);
        let a = s.pop_ready().unwrap();
        let b = s.pop_ready().unwrap();
        // Complete one source, firing its level-1 child; the other source
        // still runs, stalling the LevelBased primary at the barrier.
        s.on_completed(a, &[NodeId(a.0 + 2)]);
        let rescued = s
            .pop_ready()
            .expect("secondary must find the safe cross-level task");
        assert_eq!(rescued, NodeId(a.0 + 2));
        s.on_completed(rescued, &[NodeId(rescued.0 + 2)]);
        s.on_completed(b, &[NodeId(b.0 + 2)]);
        while let Some(t) = s.pop_ready() {
            s.on_completed(t, &[]);
        }
        assert!(s.is_quiescent());
    }

    #[test]
    fn duo_is_nestable() {
        let dag = ladder();
        // (LB + LBX) + Signal: three-way combination via nesting.
        let inner = Duo::new(LevelBased::new(dag.clone()), LogicBlox::new(dag.clone()));
        let mut trio = Duo::new(inner, SignalPropagation::new(dag.clone()));
        assert_eq!(drive(&mut trio, &dag, &[NodeId(0), NodeId(1)]), 6);
        assert!(trio.name().contains("Duo(Duo("));
    }

    #[test]
    fn costs_aggregate_both_sides() {
        let dag = ladder();
        let mut s = Duo::new(LevelBased::new(dag.clone()), LogicBlox::new(dag.clone()));
        drive(&mut s, &dag, &[NodeId(0)]);
        let total = s.cost();
        let parts = s.primary().cost().plus(&s.secondary().cost());
        assert_eq!(total, parts);
        assert!(total.bucket_ops > 0, "primary worked");
    }
}
