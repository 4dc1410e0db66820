//! LevelBased with LookAhead — LBL(k) (paper §III "Extending the
//! algorithm" and §VI-B).
//!
//! Plain LevelBased refuses to dispatch past the current level until every
//! task on it completes; a single long straggler idles all processors. LBL
//! adds a look-ahead: when the current level is drained but still running,
//! it searches the next `k` levels for active tasks that are *provably
//! safe* — not descendants "of either running nodes or nodes that are yet
//! to be run" — via a bounded breadth-first search, exactly as §VI-B
//! describes. Worst-case `O(n²)` scheduling work, but cheap when levels
//! are sparse, which is precisely when LevelBased alone stalls.

use crate::cost::CostMeter;
use crate::levelbased::LevelBased;
use crate::scheduler::{NodeState, Scheduler};
use incr_dag::reach::NodeSet;
use incr_dag::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// LBL(k): LevelBased plus a `k`-level look-ahead.
pub struct LevelBasedLookahead {
    base: LevelBased,
    k: u32,
    /// Tasks proven safe by a previous look-ahead, not yet handed out.
    /// Safety is stable: a task with no active-uncompleted ancestor can
    /// never acquire one, because new activations descend only from nodes
    /// that were active-uncompleted at proof time (Lemma 1's argument).
    stash: Vec<NodeId>,
    /// Dispatched-but-uncompleted tasks: the look-ahead's blocking set
    /// needs them, plain LevelBased does not, so the list lives here.
    running: Vec<NodeId>,
    /// `running_pos[v]` is `v`'s index in `running`, valid only while `v`
    /// is `Running` (never cleared) — O(1) removal on completion.
    running_pos: Vec<u32>,
    /// BFS scratch, reused across calls.
    reached: NodeSet,
    enqueued: NodeSet,
    queue: VecDeque<NodeId>,
    /// Cleared whenever scheduler state changes; set after a fruitless
    /// look-ahead so idle processors re-polling during the same stall do
    /// not repeat (and re-charge) an identical scan + BFS.
    lookahead_exhausted: bool,
}

impl LevelBasedLookahead {
    pub fn new(dag: Arc<incr_dag::Dag>, k: u32) -> Self {
        let n = dag.node_count();
        LevelBasedLookahead {
            base: LevelBased::new(dag),
            k,
            stash: Vec::new(),
            running: Vec::new(),
            running_pos: vec![0; n],
            reached: NodeSet::new(n),
            enqueued: NodeSet::new(n),
            queue: VecDeque::new(),
            lookahead_exhausted: false,
        }
    }

    /// The look-ahead depth `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Search levels `(cur, cur + k]` for provably safe active tasks.
    ///
    /// Blocking set `B`: every active-or-running (uncompleted) task at
    /// level ≤ `cur + k` — including the candidates themselves, since a
    /// candidate may block another candidate below it. A candidate is safe
    /// iff no member of `B` reaches it along a directed path of length
    /// ≥ 1. One BFS computes this: seed the queue with all of `B`
    /// *unmarked*, and mark nodes only when reached across an edge.
    fn lookahead(&mut self) -> Option<NodeId> {
        if self.k == 0 {
            return None;
        }
        let dag = self.base.dag.clone();
        let cur = self.base.cur;
        let horizon = cur.saturating_add(self.k); // deepest level, inclusive
        let top = ((horizon as usize) + 1).min(self.base.buckets.len());

        // Candidates: active, undispatched, level in (cur, horizon].
        let mut candidates: Vec<NodeId> = Vec::new();
        for l in (cur as usize + 1)..top {
            for &v in &self.base.buckets[l] {
                self.base.cost.scan_steps += 1;
                if self.base.state.get(v) == NodeState::Active {
                    candidates.push(v);
                }
            }
        }
        if candidates.is_empty() {
            return None;
        }

        self.reached.clear();
        self.enqueued.clear();
        self.queue.clear();
        // Seeds: undispatched actives at levels [cur, horizon] ...
        for l in (cur as usize)..top {
            for &v in &self.base.buckets[l] {
                if self.base.state.get(v) == NodeState::Active && self.enqueued.insert(v) {
                    self.queue.push_back(v);
                }
            }
        }
        // ... plus running tasks (dispatched, not completed). Those within
        // the horizon pay a `bfs_step` when dequeued; the rest (dispatched
        // from outside, through `on_external_dispatch`) are charged for the
        // visit here.
        for &v in &self.running {
            if dag.level(v) > horizon {
                self.base.cost.scan_steps += 1;
            } else if self.enqueued.insert(v) {
                self.queue.push_back(v);
            }
        }
        // Flow marks downward; `reached` = has an incoming path from B.
        while let Some(u) = self.queue.pop_front() {
            self.base.cost.bfs_steps += 1;
            for &c in dag.children(u) {
                if dag.level(c) > horizon {
                    continue;
                }
                self.reached.insert(c);
                if self.enqueued.insert(c) {
                    self.queue.push_back(c);
                }
            }
        }

        // Unreached candidates are safe; hand out one, stash the rest.
        let mut first: Option<NodeId> = None;
        for &cnd in &candidates {
            if self.reached.contains(cnd) {
                continue;
            }
            if first.is_none() {
                first = Some(cnd);
            } else {
                self.stash.push(cnd);
            }
        }
        if let Some(t) = first {
            self.base.state.dispatch(t);
        }
        first
    }

    fn pop_stash(&mut self) -> Option<NodeId> {
        while let Some(t) = self.stash.pop() {
            if self.base.state.get(t) == NodeState::Active {
                self.base.state.dispatch(t);
                return Some(t);
            }
        }
        None
    }

    /// The pop cascade shared by `pop_ready` and `pop_batch`: cursor level
    /// → stash → look-ahead. Whatever it hands out joins `running`.
    fn pop_one(&mut self) -> Option<NodeId> {
        let mut found = self.base.pop_at_cursor();
        if found.is_none() {
            found = self.pop_stash();
        }
        if found.is_none()
            && self.base.state.active_unexecuted() > 0
            && !self.lookahead_exhausted
        {
            found = self.lookahead();
            // Nothing safe within the horizon: identical until state changes.
            self.lookahead_exhausted = found.is_none();
        }
        if let Some(t) = found {
            self.track(t);
        }
        found
    }

    fn track(&mut self, v: NodeId) {
        self.running_pos[v.index()] = self.running.len() as u32;
        self.running.push(v);
    }

    /// Remove `v`, which must have been `Running` until just now.
    fn untrack(&mut self, v: NodeId) {
        let pos = self.running_pos[v.index()] as usize;
        self.running.swap_remove(pos);
        if let Some(&moved) = self.running.get(pos) {
            self.running_pos[moved.index()] = pos as u32;
        }
    }
}

impl Scheduler for LevelBasedLookahead {
    fn name(&self) -> &str {
        "LBL"
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.base.start(initial_active);
        self.stash.clear();
        self.running.clear();
        self.lookahead_exhausted = false;
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        // Anything else is not in `running` and its position slot is
        // stale; the base counts and drops such a completion.
        if self.base.state.get(v) == NodeState::Running {
            self.untrack(v);
            self.lookahead_exhausted = false;
        }
        self.base.on_completed(v, fired);
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        self.base.cost.pops += 1;
        self.pop_one()
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        // Same cascade as pop_ready, but one `pops` charge and one trait
        // crossing for the whole wavefront.
        self.base.cost.pops += 1;
        let before = out.len();
        while out.len() - before < max {
            match self.pop_one() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out.len() - before
    }

    fn is_quiescent(&self) -> bool {
        self.base.is_quiescent()
    }

    fn cost(&self) -> CostMeter {
        self.base.cost
    }

    fn space_bytes(&self) -> usize {
        self.base.space_bytes()
            + (self.stash.len() + self.running.len()) * std::mem::size_of::<NodeId>()
            + self.running_pos.len() * std::mem::size_of::<u32>()
            // Persistent BFS scratch: two bitsets over V plus the queue.
            + 2 * self.reached_bytes()
            + self.queue.capacity() * std::mem::size_of::<NodeId>()
    }

    fn precompute_bytes(&self) -> usize {
        self.base.precompute_bytes()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        if self.base.state.get(v) == NodeState::Active {
            self.base.on_external_dispatch(v);
            self.track(v);
        }
        self.lookahead_exhausted = false;
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        let mut g = self.base.gauges();
        g.push(("lbl.stash_depth", self.stash.len() as i64));
        g.push(("lbl.bfs_visits", self.base.cost.bfs_steps as i64));
        g
    }
}

impl LevelBasedLookahead {
    /// Bytes of one BFS scratch bitset (V bits).
    fn reached_bytes(&self) -> usize {
        self.base.dag.node_count().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::{Dag, DagBuilder};

    /// Level 0: two sources a=0, b=1.
    /// a -> x (level 1) -> y (level 2); b -> z (level 2, via dummy chain).
    /// Instance: a long task at level 1 (x) plus an independent task at
    /// level 2 (w, child of b through c) that plain LevelBased would hold
    /// back behind the barrier.
    fn ladder() -> Arc<Dag> {
        // 0 -> 2 -> 4   (chain A: levels 0,1,2)
        // 1 -> 3 -> 5   (chain B: levels 0,1,2)
        let mut b = DagBuilder::new(6);
        for (u, v) in [(0, 2), (2, 4), (1, 3), (3, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    /// Drive both chains active, complete chain B's level-1 task, and keep
    /// chain A's level-1 task running: LB stalls, LBL(k>=1) must hand out
    /// chain B's level-2 task.
    fn stall_setup(s: &mut dyn Scheduler) -> (NodeId, NodeId) {
        s.start(&[NodeId(0), NodeId(1)]);
        let a = s.pop_ready().unwrap();
        let b = s.pop_ready().unwrap();
        s.on_completed(a, &[NodeId(a.0 + 2)]);
        s.on_completed(b, &[NodeId(b.0 + 2)]);
        // Level 1 now: nodes 2 and 3 active.
        let t1 = s.pop_ready().unwrap();
        let t2 = s.pop_ready().unwrap();
        (t1, t2)
    }

    #[test]
    fn plain_levelbased_stalls_at_barrier() {
        let mut s = LevelBased::new(ladder());
        let (t1, _t2) = stall_setup(&mut s);
        // Complete t1 (fires its level-2 child); t2 still running.
        s.on_completed(t1, &[NodeId(t1.0 + 2)]);
        assert!(s.pop_ready().is_none(), "LB must stall behind straggler");
    }

    #[test]
    fn lookahead_breaks_the_barrier() {
        let mut s = LevelBasedLookahead::new(ladder(), 5);
        let (t1, t2) = stall_setup(&mut s);
        let child = NodeId(t1.0 + 2);
        s.on_completed(t1, &[child]);
        // t2 (level 1) still running; its own child is NOT active. The
        // fired child of t1 at level 2 is safe: its only ancestor chain is
        // completed. LBL must find it.
        let found = s.pop_ready().expect("LBL should find the safe level-2 task");
        assert_eq!(found, child);
        s.on_completed(found, &[]);
        s.on_completed(t2, &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn lookahead_rejects_descendants_of_running_tasks() {
        let mut s = LevelBasedLookahead::new(ladder(), 5);
        let (t1, t2) = stall_setup(&mut s);
        // Complete t2 firing ITS child; t1 still running. The fired child
        // (t2's) is safe; but if instead the child of the *running* t1
        // were active, it must not be offered. Construct that: fire t2's
        // child and also consider that t1 runs.
        let safe_child = NodeId(t2.0 + 2);
        s.on_completed(t2, &[safe_child]);
        let found = s.pop_ready().unwrap();
        assert_eq!(found, safe_child, "only the non-descendant is safe");
        // Nothing else: t1's child is not active, t1 still running.
        assert!(s.pop_ready().is_none());
        s.on_completed(found, &[]);
        s.on_completed(t1, &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn candidates_can_block_each_other() {
        // 0 -> 1, 0 -> 2, 1 -> 2, fan-in at 3. Node 2 is a descendant of
        // node 1, so when both are activated by node 0's completion, the
        // look-ahead must not offer 2 while 1 is uncompleted.
        let mut b = DagBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let dag: Arc<Dag> = Arc::new(b.build().unwrap());
        let mut s = LevelBasedLookahead::new(dag, 5);
        s.start(&[NodeId(0)]);
        let t0 = s.pop_ready().unwrap();
        // Keep ANOTHER task running? No: complete 0 firing both 1 and 2.
        s.on_completed(t0, &[NodeId(1), NodeId(2)]);
        // Level cursor moves to level 1: node 1 pops normally.
        let t1 = s.pop_ready().unwrap();
        assert_eq!(t1, NodeId(1));
        // Node 2 (level 2) is active but is a descendant of running node 1:
        // the look-ahead must NOT offer it.
        assert!(s.pop_ready().is_none());
        s.on_completed(t1, &[NodeId(2)]);
        assert_eq!(s.pop_ready(), Some(NodeId(2)));
        s.on_completed(NodeId(2), &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn k_zero_behaves_like_levelbased() {
        let mut s = LevelBasedLookahead::new(ladder(), 0);
        let (t1, _t2) = stall_setup(&mut s);
        s.on_completed(t1, &[NodeId(t1.0 + 2)]);
        assert!(s.pop_ready().is_none(), "LBL(0) keeps the barrier");
    }

    #[test]
    fn horizon_limits_search_depth() {
        // Chain 0->1->2->3->4 plus side source 5 -> 6 where 6 sits at a
        // deep level: 5 -> 6 with extra paddings to push 6 to level 4.
        // Simpler: candidates deeper than k are invisible.
        let mut b = DagBuilder::new(7);
        // main chain at levels 0..4
        for i in 0..4u32 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        // independent chain: 5 (level 0) -> 6 (level 1)
        b.add_edge(NodeId(5), NodeId(6));
        let dag = Arc::new(b.build().unwrap());
        let mut s = LevelBasedLookahead::new(dag, 1);
        s.start(&[NodeId(0), NodeId(5)]);
        let a = s.pop_ready().unwrap();
        let c = s.pop_ready().unwrap();
        assert_eq!([a, c].iter().filter(|v| v.0 == 0 || v.0 == 5).count(), 2);
        // Complete source 5 firing node 6 (level 1); keep source 0 running.
        s.on_completed(NodeId(5), &[NodeId(6)]);
        // Look-ahead depth 1 covers level 1: node 6 is safe (parent done).
        assert_eq!(s.pop_ready(), Some(NodeId(6)));
    }
}
