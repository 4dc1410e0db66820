//! The LevelBased scheduler (paper §III, analysed in §IV).
//!
//! Precomputation: node levels, already cached on the [`Dag`] (`O(V + E)`
//! time, `O(V)` space). At runtime the scheduler keeps active tasks in
//! per-level buckets and maintains a monotone cursor `cur` at the lowest
//! level with unfinished active tasks. By Lemma 1, *every* active task at
//! `cur` is safe, so readiness checks are O(1) bucket pops — the whole run
//! costs `O(n + L)` bucket operations (Theorem 2) — in time as well as in
//! charged operations: no protocol call loops over anything it does not
//! charge, and the scheduler keeps no list of what is in flight (the state
//! byte and the level of a node are all a completion needs).
//!
//! The deliberate limitation (fixed by [`crate::lookahead`]): the cursor
//! does not advance past a level until every active task on it has
//! *completed*, so stragglers at a level idle the processors — the
//! Figure 2 / Theorem 9 `Θ(ML)` worst case.

use crate::cost::CostMeter;
use crate::scheduler::{CompletionBatch, NodeState, Scheduler, StateTable};
use incr_dag::{Dag, NodeId};
use std::sync::Arc;

/// LevelBased scheduler state. Create once per DAG; reuse across runs via
/// [`Scheduler::start`].
pub struct LevelBased {
    pub(crate) dag: Arc<Dag>,
    pub(crate) state: StateTable,
    /// Per level: activated, not yet dispatched (entries may be stale if a
    /// task was dispatched externally, e.g. by the look-ahead extension or
    /// the hybrid's other sub-scheduler; stale entries are skipped on pop).
    pub(crate) buckets: Vec<Vec<NodeId>>,
    /// Per level: activated, not yet completed.
    pub(crate) unfinished: Vec<u32>,
    /// Lowest level that may still hold unfinished active tasks; advances
    /// monotonically.
    pub(crate) cur: u32,
    pub(crate) cost: CostMeter,
    /// High-water mark of simultaneously tracked active tasks (the `O(n)`
    /// space bound of Theorem 2 counts these).
    pub(crate) peak_tracked: usize,
    /// Levels whose bucket/unfinished slot was written this run — the only
    /// ones the next [`Scheduler::start`] needs to clear, making restarts
    /// O(levels touched by the previous update) instead of O(L).
    pub(crate) touched: Vec<u32>,
    /// `level_stamp[l] == state.generation()` ⇔ `l` is already in `touched`.
    pub(crate) level_stamp: Vec<u32>,
}

/// A scheduler that shares LevelBased's state table and follows it: told
/// of each reset, each new activation and each retirement right after the
/// table records it. [`crate::Hybrid`]'s LogicBlox side is one; plain
/// LevelBased passes `()`, which ignores all three.
pub(crate) trait Partner {
    /// The table was reset for a new run; no activation has happened yet.
    fn reset(&mut self, state: &StateTable);
    /// `v` was activated.
    fn activated(&mut self, v: NodeId, state: &StateTable);
    /// `v` went Running → Done.
    fn retired(&mut self, v: NodeId);
}

impl Partner for () {
    fn reset(&mut self, _: &StateTable) {}
    fn activated(&mut self, _: NodeId, _: &StateTable) {}
    fn retired(&mut self, _: NodeId) {}
}

impl LevelBased {
    pub fn new(dag: Arc<Dag>) -> Self {
        let n = dag.node_count();
        let l = dag.num_levels() as usize;
        LevelBased {
            dag,
            state: StateTable::new(n),
            buckets: vec![Vec::new(); l],
            unfinished: vec![0; l],
            cur: 0,
            cost: CostMeter::default(),
            peak_tracked: 0,
            touched: Vec::new(),
            level_stamp: vec![0; l],
        }
    }

    fn activate(&mut self, v: NodeId, partner: &mut impl Partner) {
        if self.state.activate(v) {
            self.cost.activations += 1;
            self.cost.bucket_ops += 1;
            let l = self.dag.level(v) as usize;
            let gen = self.state.generation();
            if self.level_stamp[l] != gen {
                self.level_stamp[l] = gen;
                self.touched.push(l as u32);
            }
            self.buckets[l].push(v);
            self.unfinished[l] += 1;
            self.peak_tracked = self.peak_tracked.max(self.state.active_unexecuted());
            partner.activated(v, &self.state);
        }
    }

    fn activate_fired(&mut self, fired: &[NodeId], partner: &mut impl Partner) {
        for &c in fired {
            debug_assert!(
                self.dag.level(c) > self.cur || self.unfinished[self.cur as usize] > 0,
                "activation below the cursor would violate Lemma 1"
            );
            self.activate(c, partner);
        }
    }

    /// Advance the cursor past fully-completed levels.
    pub(crate) fn advance_cursor(&mut self) {
        let l = self.buckets.len() as u32;
        while self.cur < l && self.unfinished[self.cur as usize] == 0 {
            self.cur += 1;
            self.cost.bucket_ops += 1;
        }
    }

    /// Pop the next safe task at the current level, or `None` if the level
    /// is drained-but-running (the barrier) or everything is done.
    pub(crate) fn pop_at_cursor(&mut self) -> Option<NodeId> {
        loop {
            self.advance_cursor();
            if (self.cur as usize) >= self.buckets.len() {
                return None;
            }
            let bucket = &mut self.buckets[self.cur as usize];
            while let Some(v) = bucket.pop() {
                self.cost.bucket_ops += 1;
                // Skip entries dispatched externally (look-ahead / hybrid).
                if self.state.get(v) == NodeState::Active {
                    self.state.dispatch(v);
                    return Some(v);
                }
            }
            if self.unfinished[self.cur as usize] > 0 {
                // Drained of poppable tasks but stragglers are running:
                // the LevelBased barrier.
                return None;
            }
            // Every task at this level completed via external dispatch;
            // the cursor can move on.
        }
    }

    /// [`Scheduler::start`], telling `partner` of the reset and of each
    /// activation.
    pub(crate) fn start_with(&mut self, initial_active: &[NodeId], partner: &mut impl Partner) {
        // O(active of the previous run): only levels the previous update
        // wrote (every bucket push and `unfinished` bump goes through
        // `activate`, which records the level) need clearing.
        for &l in &self.touched {
            self.buckets[l as usize].clear();
            self.unfinished[l as usize] = 0;
        }
        self.touched.clear();
        self.state.reset();
        if self.state.generation() == 1 {
            // Stamp generation wrapped: old stamps could alias the new one.
            self.level_stamp.fill(0);
        }
        self.cur = 0;
        self.cost = CostMeter::default();
        self.peak_tracked = 0;
        partner.reset(&self.state);
        for &v in initial_active {
            self.activate(v, partner);
        }
    }

    /// [`Scheduler::on_completed`], telling `partner` of the retirement
    /// and of each activation.
    pub(crate) fn complete_with(
        &mut self,
        v: NodeId,
        fired: &[NodeId],
        partner: &mut impl Partner,
    ) {
        if !self.state.complete_running(v, "LevelBased") {
            return;
        }
        self.cost.completions += 1;
        self.unfinished[self.dag.level(v) as usize] -= 1;
        partner.retired(v);
        self.activate_fired(fired, partner);
    }

    /// [`Scheduler::complete_batch`], telling `partner` of each
    /// retirement and activation.
    pub(crate) fn complete_batch_with(
        &mut self,
        batch: &CompletionBatch,
        partner: &mut impl Partner,
    ) {
        // A worker's batch is a run of same-level tasks almost always, so
        // the level counter takes one subtraction per run, not per node.
        // Deferring it is invisible: only the cursor reads `unfinished`,
        // and it does not move during this call.
        let (mut run_level, mut run_len) = (0usize, 0u32);
        for (v, fired) in batch.iter() {
            if !self.state.complete_running(v, "LevelBased") {
                continue;
            }
            self.cost.completions += 1;
            let l = self.dag.level(v) as usize;
            if l != run_level {
                if run_len > 0 {
                    self.unfinished[run_level] -= run_len;
                }
                (run_level, run_len) = (l, 0);
            }
            run_len += 1;
            partner.retired(v);
            self.activate_fired(fired, partner);
        }
        if run_len > 0 {
            self.unfinished[run_level] -= run_len;
        }
    }

    /// The current cursor level (for the look-ahead extension and tests).
    pub fn current_level(&self) -> u32 {
        self.cur
    }

    /// High-water mark of tracked active tasks (Theorem 2 space check).
    pub fn peak_tracked(&self) -> usize {
        self.peak_tracked
    }
}

impl Scheduler for LevelBased {
    fn name(&self) -> &str {
        "LevelBased"
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.start_with(initial_active, &mut ());
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.complete_with(v, fired, &mut ());
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        self.complete_batch_with(batch, &mut ());
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        self.cost.pops += 1;
        self.pop_at_cursor()
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        // Drain the current level bucket (by Lemma 1 everything in it is
        // safe) in one trait crossing; one `pops` charge per batch, the
        // per-node bucket_ops charges are identical to the serial path.
        self.cost.pops += 1;
        let before = out.len();
        while out.len() - before < max {
            match self.pop_at_cursor() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out.len() - before
    }

    fn is_quiescent(&self) -> bool {
        self.state.active_unexecuted() == 0
    }

    fn cost(&self) -> CostMeter {
        self.cost
    }

    fn space_bytes(&self) -> usize {
        let entries: usize = self.buckets.iter().map(Vec::len).sum();
        entries * std::mem::size_of::<NodeId>()
            + self.unfinished.len() * std::mem::size_of::<u32>()
            + self.state.bytes()
    }

    fn precompute_bytes(&self) -> usize {
        // One level number per node of G (paper §II-B: "the scheduler only
        // needs to store one number for each node").
        self.dag.node_count() * std::mem::size_of::<u32>()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        if self.state.get(v) == NodeState::Active {
            // The bucket entry becomes stale and is skipped at pop time;
            // `unfinished` still gates the cursor until completion arrives.
            self.state.dispatch(v);
        }
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        let frontier_depth = self
            .buckets
            .get(self.cur as usize)
            .map_or(0, |b| b.len() as i64);
        vec![
            ("lb.level_frontier", self.cur as i64),
            ("lb.frontier_bucket_depth", frontier_depth),
            ("lb.tracked_active", self.state.active_unexecuted() as i64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::DagBuilder;

    /// 0 -> {1,2} -> 3 ; plus an independent source 4 -> 5.
    fn dag() -> Arc<Dag> {
        let mut b = DagBuilder::new(6);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn pops_level_by_level() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0), NodeId(4)]);
        // Level 0: both sources poppable before anything completes.
        let a = s.pop_ready().unwrap();
        let b = s.pop_ready().unwrap();
        assert_eq!(s.dag.level(a), 0);
        assert_eq!(s.dag.level(b), 0);
        assert!(s.pop_ready().is_none(), "level 0 drained; barrier");
        s.on_completed(a, &[]);
        s.on_completed(b, &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn barrier_blocks_next_level_until_completion() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0)]);
        let t0 = s.pop_ready().unwrap();
        assert_eq!(t0, NodeId(0));
        s.on_completed(t0, &[NodeId(1), NodeId(2)]);
        let t1 = s.pop_ready().unwrap();
        let t2 = s.pop_ready().unwrap();
        assert_eq!(s.dag.level(t1), 1);
        assert_eq!(s.dag.level(t2), 1);
        // Complete only one of the two level-1 tasks and fire level 2.
        s.on_completed(t1, &[NodeId(3)]);
        assert!(
            s.pop_ready().is_none(),
            "level-1 straggler must block level 2 (the LevelBased barrier)"
        );
        s.on_completed(t2, &[NodeId(3)]);
        assert_eq!(s.pop_ready(), Some(NodeId(3)));
        s.on_completed(NodeId(3), &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn duplicate_activations_ignored() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0)]);
        let t0 = s.pop_ready().unwrap();
        // Both parents fire node 3's input eventually; here both level-1
        // tasks fire the same child.
        s.on_completed(t0, &[NodeId(1), NodeId(2)]);
        let a = s.pop_ready().unwrap();
        let b = s.pop_ready().unwrap();
        s.on_completed(a, &[NodeId(3)]);
        s.on_completed(b, &[NodeId(3)]);
        assert_eq!(s.pop_ready(), Some(NodeId(3)));
        assert!(s.pop_ready().is_none());
        s.on_completed(NodeId(3), &[]);
        assert!(s.is_quiescent());
        assert_eq!(s.state.activated_total(), 4);
    }

    #[test]
    fn cost_is_linear_in_n_plus_l() {
        // Chain of 200: n = 200 active, L = 200 levels.
        let n = 200u32;
        let mut b = DagBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(NodeId(i - 1), NodeId(i));
        }
        let dag = Arc::new(b.build().unwrap());
        let mut s = LevelBased::new(dag);
        s.start(&[NodeId(0)]);
        let mut done = 0u32;
        while let Some(t) = {
            
            s.pop_ready()
        } {
            let fired: Vec<NodeId> = if t.0 + 1 < n { vec![NodeId(t.0 + 1)] } else { vec![] };
            s.on_completed(t, &fired);
            done += 1;
        }
        assert_eq!(done, n);
        let c = s.cost();
        // Bucket ops: one push + one pop per node + <= L cursor advances.
        assert!(
            c.bucket_ops <= 3 * n as u64 + n as u64,
            "bucket_ops {} not O(n + L)",
            c.bucket_ops
        );
        assert_eq!(c.scan_steps, 0);
        assert_eq!(c.ancestor_queries, 0);
    }

    #[test]
    fn peak_tracked_counts_active_set() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0)]);
        let t = s.pop_ready().unwrap();
        s.on_completed(t, &[NodeId(1), NodeId(2)]);
        assert_eq!(s.peak_tracked(), 2);
    }

    #[test]
    fn restart_resets_state() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0)]);
        let t = s.pop_ready().unwrap();
        s.on_completed(t, &[]);
        assert!(s.is_quiescent());
        s.start(&[NodeId(4)]);
        assert_eq!(s.pop_ready(), Some(NodeId(4)));
        assert_eq!(s.cost().pops, 1);
    }

    #[test]
    fn restart_clears_stale_external_dispatch_leftovers() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0)]);
        // Externally dispatch node 0: its bucket entry goes stale and the
        // run is abandoned mid-flight (never completed).
        s.on_external_dispatch(NodeId(0));
        // The restart must clear that leftover entry even though the level
        // was never drained, and the node must be schedulable again.
        s.start(&[NodeId(0)]);
        assert_eq!(s.pop_ready(), Some(NodeId(0)));
        s.on_completed(NodeId(0), &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn pop_batch_drains_level_and_respects_barrier() {
        let mut s = LevelBased::new(dag());
        s.start(&[NodeId(0)]);
        let mut out = Vec::new();
        assert_eq!(s.pop_batch(&mut out, 16), 1);
        s.on_completed(NodeId(0), &[NodeId(1), NodeId(2)]);
        out.clear();
        // Both level-1 tasks come out in one batch; level 2 stays behind
        // the barrier until they complete.
        assert_eq!(s.pop_batch(&mut out, 16), 2);
        assert_eq!(s.pop_batch(&mut out, 16), 0);
        s.on_completed(out[0], &[NodeId(3)]);
        s.on_completed(out[1], &[NodeId(3)]);
        out.clear();
        assert_eq!(s.pop_batch(&mut out, 16), 1);
        assert_eq!(out, vec![NodeId(3)]);
    }
}
