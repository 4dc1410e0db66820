//! The Hybrid scheduler — the paper's main result (§V, evaluated in §VI).
//!
//! Runs the LevelBased scheduler *alongside* the production LogicBlox
//! scheduler with a shared notion of dispatched work: "both schedulers
//! independently identify ready-to-run tasks and add them to the shared
//! queue" (§VI-B). On instances where LogicBlox shines, its deep-ready
//! discovery keeps processors saturated across level barriers; on its
//! pathological instances (shallow-wide DAGs like traces #6 and #11,
//! where scanning the huge active queue dominates) the LevelBased side
//! hands out ready work in O(1), so the expensive scans rarely or never
//! run.
//!
//! One state table serves both sides, as the paper's one record of
//! dispatched work. The LevelBased side owns it; the LogicBlox side is
//! LogicBlox without its table (its queues, blockers, cost meter and scan
//! scratch), hears of each activation and retirement from LevelBased's
//! loop, and dispatches in the same table when it pops. Neither side
//! mirrors the other's dispatches or repeats its writes.
//!
//! Every pop first consults LevelBased (cheap). Only when LevelBased is
//! stalled at a level barrier does the LogicBlox side scan. With
//! [`HybridConfig::background_scan`] the LogicBlox side additionally
//! advances its scan a bounded number of candidates per pop even when
//! LevelBased supplied the task — modelling the production deployment
//! where both schedulers genuinely run in parallel and both burn cycles.
//! The `ablation_hybrid` bench sweeps this knob.

use crate::cost::CostMeter;
use crate::levelbased::LevelBased;
use crate::logicblox::{ScanMode, ScanSide};
use crate::scheduler::{CompletionBatch, Scheduler};
use incr_dag::{Dag, NodeId};
use std::sync::Arc;

/// Tuning for the hybrid interleave.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// If true, the LogicBlox side keeps scanning (bounded per pop) even
    /// while LevelBased supplies work — the paper's "run in parallel"
    /// deployment. If false, LogicBlox scans only when LevelBased stalls.
    pub background_scan: bool,
    /// Max candidates the background scan examines per pop.
    pub scan_slice: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            background_scan: false,
            scan_slice: 64,
        }
    }
}

/// LevelBased + LogicBlox's scan side over LevelBased's state table.
pub struct Hybrid {
    lb: LevelBased,
    lbx: ScanSide,
    config: HybridConfig,
}

impl Hybrid {
    pub fn new(dag: Arc<Dag>) -> Self {
        Self::with_config(dag, HybridConfig::default())
    }

    pub fn with_config(dag: Arc<Dag>, config: HybridConfig) -> Self {
        Hybrid {
            lb: LevelBased::new(dag.clone()),
            lbx: ScanSide::new(dag, ScanMode::CostModeled),
            config,
        }
    }

    /// Cost charged by the LevelBased side alone.
    pub fn levelbased_cost(&self) -> CostMeter {
        self.lb.cost()
    }

    /// Cost charged by the LogicBlox side alone.
    pub fn logicblox_cost(&self) -> CostMeter {
        self.lbx.cost()
    }

    fn background_scan(&mut self) {
        if self.config.background_scan {
            self.lbx.scan(&self.lb.state, self.config.scan_slice);
        }
    }
}

impl Scheduler for Hybrid {
    fn name(&self) -> &str {
        "Hybrid"
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.lb.start_with(initial_active, &mut self.lbx);
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.lb.complete_with(v, fired, &mut self.lbx);
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        self.lb.complete_batch_with(batch, &mut self.lbx);
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        // LevelBased first: O(1) supply whenever the current level has work.
        if let Some(t) = self.lb.pop_ready() {
            // Model the parallel production deployment: the LogicBlox
            // side burns a bounded slice of scan work concurrently.
            self.background_scan();
            return Some(t);
        }
        // LevelBased stalled at a barrier (or drained): let LogicBlox find
        // cross-level ready work the barrier is hiding.
        self.lbx.pop_ready(&mut self.lb.state)
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        let before = out.len();
        // LevelBased drains its whole frontier in one inner batch.
        if self.lb.pop_batch(out, max) > 0 {
            // One slice per batch, not per node: the batch models a single
            // concurrent pop round of the parallel deployment.
            self.background_scan();
        }
        // Remaining capacity: cross-level work hidden behind the barrier.
        let taken = out.len() - before;
        if taken < max {
            self.lbx.pop_batch(&mut self.lb.state, out, max - taken);
        }
        out.len() - before
    }

    fn is_quiescent(&self) -> bool {
        self.lb.is_quiescent()
    }

    fn cost(&self) -> CostMeter {
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
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        let mut g = self.lb.gauges();
        g.extend(self.lbx.gauges());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SafetyChecker;
    use incr_dag::DagBuilder;

    /// Two chains: 0 -> 2 -> 4 and 1 -> 3 -> 5.
    fn ladder() -> Arc<Dag> {
        let mut b = DagBuilder::new(6);
        for (u, v) in [(0, 2), (2, 4), (1, 3), (3, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn rescues_levelbased_barrier() {
        let mut s = Hybrid::new(ladder());
        s.start(&[NodeId(0), NodeId(1)]);
        let a = s.pop_ready().unwrap();
        let b = s.pop_ready().unwrap();
        // Finish chain A's source, firing its level-1 task; keep chain B's
        // source running. LevelBased alone would stall at the barrier.
        s.on_completed(a, &[NodeId(a.0 + 2)]);
        let t = s
            .pop_ready()
            .expect("hybrid must find the cross-level ready task");
        assert_eq!(t, NodeId(a.0 + 2), "the fired child is safe to run");
        s.on_completed(t, &[]);
        s.on_completed(b, &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn no_task_issued_twice() {
        let dag = ladder();
        let mut s = Hybrid::new(dag.clone());
        let mut check = SafetyChecker::new(dag);
        let initial = [NodeId(0), NodeId(1)];
        s.start(&initial);
        check.on_start(&initial);
        let mut in_flight: Vec<NodeId> = Vec::new();
        let mut executed = 0;
        loop {
            while let Some(t) = s.pop_ready() {
                check.on_pop(t);
                in_flight.push(t);
            }
            let Some(t) = in_flight.pop() else { break };
            let fired: Vec<NodeId> = if t.0 + 2 < 6 { vec![NodeId(t.0 + 2)] } else { vec![] };
            s.on_completed(t, &fired);
            check.on_complete(t, &fired);
            executed += 1;
        }
        check.on_finish();
        assert_eq!(executed, 6);
        assert!(s.is_quiescent());
    }

    #[test]
    fn background_scan_charges_logicblox_side() {
        let mut quiet = Hybrid::with_config(
            ladder(),
            HybridConfig {
                background_scan: false,
                scan_slice: 16,
            },
        );
        let mut busy = Hybrid::with_config(
            ladder(),
            HybridConfig {
                background_scan: true,
                scan_slice: 16,
            },
        );
        for s in [&mut quiet, &mut busy] {
            s.start(&[NodeId(0), NodeId(1)]);
            let mut in_flight = Vec::new();
            loop {
                while let Some(t) = s.pop_ready() {
                    in_flight.push(t);
                }
                let Some(t) = in_flight.pop() else { break };
                let fired: Vec<NodeId> =
                    if t.0 + 2 < 6 { vec![NodeId(t.0 + 2)] } else { vec![] };
                s.on_completed(t, &fired);
            }
        }
        assert!(
            busy.logicblox_cost().scan_steps >= quiet.logicblox_cost().scan_steps,
            "background scanning must not reduce LogicBlox-side work"
        );
    }

    #[test]
    fn per_side_costs_sum_to_total() {
        let mut s = Hybrid::new(ladder());
        s.start(&[NodeId(0)]);
        let t = s.pop_ready().unwrap();
        s.on_completed(t, &[]);
        let total = s.cost();
        let sum = s.levelbased_cost().plus(&s.logicblox_cost());
        assert_eq!(total, sum);
    }
}
