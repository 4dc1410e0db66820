//! The scheduler protocol shared by every algorithm in this crate, plus a
//! reference *exact-readiness* scheduler used as ground truth in tests.
//!
//! The environment (event simulator, step simulator, threaded runtime, or
//! the Datalog engine) drives a scheduler through three entry points:
//!
//! 1. [`Scheduler::start`] — delivers the initially-dirty tasks.
//! 2. [`Scheduler::pop_ready`] — called whenever a processor is idle; the
//!    scheduler may do internal work (scans, look-ahead BFS) and must
//!    charge it to its [`CostMeter`].
//! 3. [`Scheduler::on_completed`] — reports an executed task together with
//!    the children whose input actually changed (`fired`), which is how the
//!    hidden active graph `H` is revealed (paper §II-A).
//!
//! # The safety invariant
//!
//! A popped task must be **safe**: active, not yet executed, and with no
//! active-and-uncompleted node among its ancestors in `G` — otherwise it
//! might have to be re-executed, which the model forbids. The
//! [`SafetyChecker`] verifies this invariant against ground-truth
//! reachability and is wired into every simulator run in tests.

use crate::cost::CostMeter;
use incr_dag::reach::{self, NodeSet};
use incr_dag::{Dag, NodeId};
use std::sync::Arc;

/// Lifecycle of a node during one scheduling run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeState {
    /// Not (yet) activated.
    Clean = 0,
    /// Activated, waiting to be deemed safe.
    Active = 1,
    /// Popped by the environment; executing.
    Running = 2,
    /// Execution finished.
    Done = 3,
}

/// The scheduling protocol. See the module docs for the driving contract.
pub trait Scheduler: Send {
    /// Human-readable algorithm name (table row labels).
    fn name(&self) -> &str;

    /// Reset all run state and deliver the initially-activated tasks.
    ///
    /// Implementations are expected to make this O(|active set of the
    /// previous run|), not O(V), so a stream of small updates on a huge
    /// DAG pays per-update cost proportional to the work, realizing
    /// Theorem 2's bound *across* updates (see [`StateTable::reset`]).
    fn start(&mut self, initial_active: &[NodeId]);

    /// Report that `v` finished executing and that the children in `fired`
    /// received changed input (and are therefore now active).
    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]);

    /// Ask for one safe task. `None` means "none known right now" — more
    /// may surface after future completions.
    fn pop_ready(&mut self) -> Option<NodeId>;

    /// Ask for up to `max` safe tasks at once, appended to `out`; returns
    /// how many were added. Semantically identical to calling
    /// [`Scheduler::pop_ready`] in a loop (which is the default impl) —
    /// specialized implementations drain an internal ready structure so
    /// the caller crosses the trait boundary once per wavefront instead
    /// of once per node, and charge one `pops` unit per *batch* rather
    /// than per node (per-node bucket/scan charges are unchanged, so
    /// Theorem 2 cost accounting still holds).
    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        let before = out.len();
        while out.len() - before < max {
            match self.pop_ready() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out.len() - before
    }

    /// Report a whole batch of completions at once. Semantically identical
    /// to calling [`Scheduler::on_completed`] per entry in order (the
    /// default impl does exactly that); exists so batching executors make
    /// one virtual call per flushed completion buffer. LevelBased and
    /// Hybrid override it with one pass over the flat batch, charging
    /// exactly what the per-node calls would.
    fn complete_batch(&mut self, batch: &CompletionBatch) {
        for (v, fired) in batch.iter() {
            self.on_completed(v, fired);
        }
    }

    /// True when every activated task has completed.
    fn is_quiescent(&self) -> bool;

    /// Accumulated scheduling cost for this run.
    fn cost(&self) -> CostMeter;

    /// Current run-state memory footprint estimate in bytes (excludes
    /// precomputed structures; see [`Scheduler::precompute_bytes`]).
    fn space_bytes(&self) -> usize;

    /// Memory held by precomputed structures (levels, interval lists).
    fn precompute_bytes(&self) -> usize;

    /// Another scheduler sharing the run (the Hybrid of §V) dispatched `v`;
    /// update bookkeeping so this scheduler never offers `v` itself. The
    /// task still blocks descendants until its completion is reported.
    fn on_external_dispatch(&mut self, v: NodeId);

    /// Named instantaneous levels worth graphing — queue depths, the
    /// level frontier, interval-list size. Sampled by
    /// [`crate::obs::Observed`] after each protocol call when tracing is
    /// on; schedulers with nothing interesting inherit the empty default.
    fn gauges(&self) -> Vec<(&'static str, i64)> {
        Vec::new()
    }
}

/// A flat, reusable buffer of `(node, fired-children)` completions.
///
/// Fired lists are concatenated into one arena (`fired`) with an offsets
/// array (`ends`), so recording a completion never allocates once the
/// buffers have warmed up — the executor's workers fill one of these per
/// dispatch chunk and ship the whole thing to the coordinator.
#[derive(Clone, Debug, Default)]
pub struct CompletionBatch {
    nodes: Vec<NodeId>,
    /// All fired lists back to back; entry `i` owns
    /// `fired[ends[i-1]..ends[i]]`.
    fired: Vec<NodeId>,
    ends: Vec<u32>,
}

impl CompletionBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the batch, keeping capacity (for reuse across flushes).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.fired.clear();
        self.ends.clear();
    }

    /// Number of completions recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total fired children across all entries (= activations delivered).
    #[inline]
    pub fn total_fired(&self) -> usize {
        self.fired.len()
    }

    /// Record one completion with its fired children.
    pub fn push(&mut self, node: NodeId, fired: &[NodeId]) {
        self.fired.extend_from_slice(fired);
        self.commit(node);
    }

    /// The tail of the fired arena: a task body appends its fired children
    /// here directly (no intermediate Vec), then the caller seals the entry
    /// with [`CompletionBatch::commit`].
    #[inline]
    pub fn fired_buf(&mut self) -> &mut Vec<NodeId> {
        &mut self.fired
    }

    /// Seal an entry for `node` whose fired children were appended to
    /// [`CompletionBatch::fired_buf`] since the previous commit/push.
    pub fn commit(&mut self, node: NodeId) {
        self.nodes.push(node);
        self.ends.push(self.fired.len() as u32);
    }

    /// Entry `i`: the node and its fired-children slice.
    pub fn get(&self, i: usize) -> (NodeId, &[NodeId]) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        let hi = self.ends[i] as usize;
        (self.nodes[i], &self.fired[lo..hi])
    }

    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        (0..self.nodes.len()).map(move |i| self.get(i))
    }
}

/// Shared per-node state table with the bookkeeping every scheduler needs.
///
/// Reset is O(1) via generation stamps: a slot's state is only believed
/// when its stamp matches the current generation, so `reset` just bumps
/// the generation and every node reads `Clean` again. This is what makes
/// `start()` on update *i+1* cost O(|active_i|) instead of O(V).
#[derive(Clone, Debug)]
pub struct StateTable {
    states: Vec<NodeState>,
    /// `stamp[i] == generation` ⇔ `states[i]` belongs to the current run.
    stamp: Vec<u32>,
    generation: u32,
    active_unexecuted: usize,
    activated_total: usize,
}

impl StateTable {
    pub fn new(n: usize) -> Self {
        StateTable {
            states: vec![NodeState::Clean; n],
            stamp: vec![0; n],
            generation: 1,
            active_unexecuted: 0,
            activated_total: 0,
        }
    }

    /// O(1) (amortized): bump the generation so every slot reads `Clean`.
    /// On u32 wrap-around the stamp array is rewritten once — one O(V)
    /// pass every 2³²−1 resets.
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.active_unexecuted = 0;
        self.activated_total = 0;
    }

    /// Current generation. Schedulers keeping their own stamped side
    /// tables compare against this; `generation() == 1` right after a
    /// reset signals wrap-around (their stamps must be rewritten too).
    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    #[inline]
    pub fn get(&self, v: NodeId) -> NodeState {
        if self.stamp[v.index()] == self.generation {
            self.states[v.index()]
        } else {
            NodeState::Clean
        }
    }

    /// Mark `v` active; returns true if this is a new activation.
    /// Panics (debug) if `v` already ran — activation-after-execution is a
    /// model violation (the task would need re-execution).
    pub fn activate(&mut self, v: NodeId) -> bool {
        match self.get(v) {
            NodeState::Clean => {
                self.states[v.index()] = NodeState::Active;
                self.stamp[v.index()] = self.generation;
                self.active_unexecuted += 1;
                self.activated_total += 1;
                true
            }
            NodeState::Active => false,
            s => {
                debug_assert!(false, "activated {v} in state {s:?} (already executed)");
                false
            }
        }
    }

    /// Transition Active -> Running when the environment pops `v`.
    pub fn dispatch(&mut self, v: NodeId) {
        debug_assert_eq!(self.get(v), NodeState::Active, "double pop of {v}");
        self.states[v.index()] = NodeState::Running;
        self.stamp[v.index()] = self.generation;
    }

    /// Transition Running -> Done.
    pub fn complete(&mut self, v: NodeId) {
        debug_assert_eq!(self.get(v), NodeState::Running, "completion of non-running {v}");
        self.states[v.index()] = NodeState::Done;
        self.stamp[v.index()] = self.generation;
        self.active_unexecuted -= 1;
    }

    /// [`StateTable::complete`] for a completion the scheduler has yet to
    /// trust: Running → Done and true if `v` is Running. Otherwise — a
    /// duplicate completion, or a journal replay of a node that was never
    /// dispatched — nothing changes, `sched.protocol_violations` counts it
    /// and the caller must drop the completion whole: acting on it would
    /// wrap a level counter or follow a stale position slot. Debug builds
    /// also fail loudly, since the driver has a bug.
    pub fn complete_running(&mut self, v: NodeId, scheduler: &str) -> bool {
        let state = self.get(v);
        if state != NodeState::Running {
            protocol_violation(scheduler, v, state);
            return false;
        }
        self.complete(v);
        true
    }

    /// Activated tasks not yet completed (includes running ones): the
    /// scheduler is quiescent when this hits zero.
    #[inline]
    pub fn active_unexecuted(&self) -> usize {
        self.active_unexecuted
    }

    /// Total activations over the run (`n = |W|` once quiescent).
    #[inline]
    pub fn activated_total(&self) -> usize {
        self.activated_total
    }

    /// Bytes held by the table itself (state byte + stamp word per node).
    pub fn bytes(&self) -> usize {
        self.states.len()
            * (std::mem::size_of::<NodeState>() + std::mem::size_of::<u32>())
    }
}

#[cold]
fn protocol_violation(scheduler: &str, v: NodeId, state: NodeState) {
    incr_obs::registry().counter("sched.protocol_violations").inc();
    debug_assert!(
        false,
        "{scheduler}: completion of {v} in state {state:?}, not Running"
    );
}

/// Reference scheduler with *exact* readiness: a task is offered as soon
/// as no active-uncompleted node is its ancestor, computed from ground
/// truth reachability (precomputed descendant bitsets). It is the
/// quality ceiling for greedy schedules — the LogicBlox baseline matches
/// its decisions, just with different discovery cost — and serves as the
/// "optimal scheduler" comparator of the Figure 2 analysis, where greedy
/// exact readiness achieves the `Θ(M + L)` schedule.
///
/// Memory is `O(V²/64)` bits; use on test- and bench-scale instances only.
pub struct ExactGreedy {
    dag: Arc<Dag>,
    /// descendants[a] as a bitset, precomputed.
    descendants: Vec<NodeSet>,
    state: StateTable,
    /// Active tasks currently blocked (superset; re-filtered on pops).
    blocked: Vec<NodeId>,
    ready: Vec<NodeId>,
    /// Active-uncompleted nodes, list + membership for the readiness test.
    blockers: Vec<NodeId>,
    cost: CostMeter,
}

impl ExactGreedy {
    pub fn new(dag: Arc<Dag>) -> Self {
        let descendants = dag
            .nodes()
            .map(|v| reach::descendants(&dag, v))
            .collect();
        let n = dag.node_count();
        ExactGreedy {
            dag,
            descendants,
            state: StateTable::new(n),
            blocked: Vec::new(),
            ready: Vec::new(),
            blockers: Vec::new(),
            cost: CostMeter::default(),
        }
    }

    fn is_safe(&self, t: NodeId) -> bool {
        self.blockers
            .iter()
            .all(|&a| a == t || !self.descendants[a.index()].contains(t))
    }

    /// Re-derive the ready set from scratch (exact, eager).
    fn refresh(&mut self) {
        let mut still_blocked = Vec::new();
        let blocked = std::mem::take(&mut self.blocked);
        for t in blocked {
            if self.state.get(t) != NodeState::Active {
                continue;
            }
            if self.is_safe(t) {
                self.ready.push(t);
            } else {
                still_blocked.push(t);
            }
        }
        self.blocked = still_blocked;
    }
}

impl Scheduler for ExactGreedy {
    fn name(&self) -> &str {
        "ExactGreedy"
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.state.reset();
        self.blocked.clear();
        self.ready.clear();
        self.blockers.clear();
        self.cost = CostMeter::default();
        for &v in initial_active {
            if self.state.activate(v) {
                self.cost.activations += 1;
                self.blocked.push(v);
                self.blockers.push(v);
            }
        }
        self.refresh();
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.cost.completions += 1;
        self.state.complete(v);
        self.blockers.retain(|&b| b != v);
        for &c in fired {
            if self.state.activate(c) {
                self.cost.activations += 1;
                self.blocked.push(c);
                self.blockers.push(c);
            }
        }
        self.refresh();
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        self.cost.pops += 1;
        while let Some(t) = self.ready.pop() {
            // Skip entries dispatched externally (hybrid runs).
            if self.state.get(t) == NodeState::Active {
                self.state.dispatch(t);
                return Some(t);
            }
        }
        None
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        self.cost.pops += 1;
        let before = out.len();
        while out.len() - before < max {
            let Some(t) = self.ready.pop() else { break };
            if self.state.get(t) == NodeState::Active {
                self.state.dispatch(t);
                out.push(t);
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
        self.state.bytes()
            + (self.blocked.len() + self.ready.len() + self.blockers.len())
                * std::mem::size_of::<NodeId>()
    }

    fn precompute_bytes(&self) -> usize {
        // V bitsets of V bits.
        self.dag.node_count() * self.dag.node_count() / 8
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        if self.state.get(v) == NodeState::Active {
            self.state.dispatch(v);
        }
    }
}

/// Ground-truth auditor: wraps the environment side and asserts the safety
/// invariant for every popped task, that no task is popped twice, and (at
/// quiescence) that exactly the active closure was executed.
pub struct SafetyChecker {
    dag: Arc<Dag>,
    state: StateTable,
    executed: Vec<NodeId>,
}

impl SafetyChecker {
    pub fn new(dag: Arc<Dag>) -> Self {
        let n = dag.node_count();
        SafetyChecker {
            dag,
            state: StateTable::new(n),
            executed: Vec::new(),
        }
    }

    pub fn on_start(&mut self, initial_active: &[NodeId]) {
        self.state.reset();
        self.executed.clear();
        for &v in initial_active {
            self.state.activate(v);
        }
    }

    /// Assert `t` is safe at pop time.
    pub fn on_pop(&mut self, t: NodeId) {
        assert_eq!(
            self.state.get(t),
            NodeState::Active,
            "popped {t} in state {:?}",
            self.state.get(t)
        );
        // No active-uncompleted ancestor.
        for v in self.dag.nodes() {
            let st = self.state.get(v);
            if (st == NodeState::Active || st == NodeState::Running)
                && reach::is_ancestor(&self.dag, v, t)
            {
                panic!("unsafe pop: {t} has active-uncompleted ancestor {v}");
            }
        }
        self.state.dispatch(t);
        self.executed.push(t);
    }

    pub fn on_complete(&mut self, v: NodeId, fired: &[NodeId]) {
        self.state.complete(v);
        for &c in fired {
            self.state.activate(c);
        }
    }

    /// Assert at end of run: everything activated was executed exactly once.
    pub fn on_finish(&mut self) {
        assert_eq!(
            self.state.active_unexecuted(),
            0,
            "run finished with unexecuted active tasks"
        );
        assert_eq!(
            self.executed.len(),
            self.state.activated_total(),
            "executed count != activated count"
        );
    }

    /// Number of tasks executed so far.
    pub fn executed_count(&self) -> usize {
        self.executed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::DagBuilder;

    fn diamond() -> Arc<Dag> {
        let mut b = DagBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn state_table_lifecycle() {
        let mut st = StateTable::new(2);
        assert!(st.activate(NodeId(0)));
        assert!(!st.activate(NodeId(0)));
        assert_eq!(st.active_unexecuted(), 1);
        st.dispatch(NodeId(0));
        assert_eq!(st.get(NodeId(0)), NodeState::Running);
        st.complete(NodeId(0));
        assert_eq!(st.get(NodeId(0)), NodeState::Done);
        assert_eq!(st.active_unexecuted(), 0);
        assert_eq!(st.activated_total(), 1);
    }

    #[test]
    fn exact_greedy_runs_diamond_in_safe_order() {
        let dag = diamond();
        let mut s = ExactGreedy::new(dag.clone());
        let mut check = SafetyChecker::new(dag.clone());
        s.start(&[NodeId(0)]);
        check.on_start(&[NodeId(0)]);
        // Drive serially: node 0 fires both children; they fire node 3.
        let fired: Vec<Vec<NodeId>> = vec![
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(3)],
            vec![NodeId(3)],
            vec![],
        ];
        let mut order = Vec::new();
        while !s.is_quiescent() {
            let t = s.pop_ready().expect("no stall expected");
            check.on_pop(t);
            order.push(t);
            s.on_completed(t, &fired[t.index()]);
            check.on_complete(t, &fired[t.index()]);
        }
        check.on_finish();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[3], NodeId(3));
    }

    #[test]
    fn exact_greedy_offers_independent_actives_together() {
        let dag = diamond();
        let mut s = ExactGreedy::new(dag);
        // Both middle nodes dirty, no data dependency between them.
        s.start(&[NodeId(1), NodeId(2)]);
        let a = s.pop_ready().unwrap();
        let b = s.pop_ready().unwrap();
        assert_ne!(a, b);
        assert!(s.pop_ready().is_none());
    }

    #[test]
    fn exact_greedy_blocks_descendant_until_ancestor_done() {
        let dag = diamond();
        let mut s = ExactGreedy::new(dag);
        s.start(&[NodeId(1), NodeId(3)]);
        let first = s.pop_ready().unwrap();
        assert_eq!(first, NodeId(1), "3 must wait for its active ancestor 1");
        assert!(s.pop_ready().is_none());
        s.on_completed(NodeId(1), &[]);
        assert_eq!(s.pop_ready(), Some(NodeId(3)));
        s.on_completed(NodeId(3), &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "unsafe pop")]
    fn safety_checker_catches_unsafe_pop() {
        let dag = diamond();
        let mut check = SafetyChecker::new(dag);
        check.on_start(&[NodeId(1), NodeId(3)]);
        check.on_pop(NodeId(3)); // 1 is an active uncompleted ancestor
    }

    /// A completion for a node that is not Running (here: a duplicate
    /// for a Done node, then one for a node still waiting in Active) is
    /// dropped whole — no counter underflow, no stale position slot
    /// followed, its fired children not activated — and counted once, by
    /// the one state table even under Hybrid. Debug
    /// builds panic before touching anything; release builds return.
    #[test]
    fn out_of_protocol_completion_changes_nothing() {
        use crate::SchedulerKind;
        let violations = incr_obs::registry().counter("sched.protocol_violations");
        for kind in [
            SchedulerKind::LevelBased,
            SchedulerKind::Lookahead(2),
            SchedulerKind::LogicBlox,
            SchedulerKind::Hybrid,
        ] {
            let mut s = kind.build(diamond());
            s.start(&[NodeId(0)]);
            assert_eq!(s.pop_ready(), Some(NodeId(0)));
            s.on_completed(NodeId(0), &[NodeId(1), NodeId(2)]);
            let running = s.pop_ready().expect("a level-1 task");
            let waiting = NodeId(3 - running.0);
            for bogus in [NodeId(0), waiting] {
                let seen = violations.get();
                let before = (s.cost(), s.space_bytes(), s.gauges(), s.is_quiescent());
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.on_completed(bogus, &[NodeId(3)]);
                }));
                assert_eq!(outcome.is_err(), cfg!(debug_assertions), "{kind:?}");
                assert_eq!(violations.get(), seen + 1, "{kind:?}: not counted once");
                let after = (s.cost(), s.space_bytes(), s.gauges(), s.is_quiescent());
                assert_eq!(before, after, "{kind:?}: {bogus} changed the scheduler");
            }
            // The run carries on as if nothing had happened.
            s.on_completed(running, &[NodeId(3)]);
            assert_eq!(s.pop_ready(), Some(waiting), "{kind:?}");
            assert_eq!(s.pop_ready(), None, "{kind:?}: 3 waits for {waiting}");
            s.on_completed(waiting, &[NodeId(3)]);
            assert_eq!(s.pop_ready(), Some(NodeId(3)), "{kind:?}");
            s.on_completed(NodeId(3), &[]);
            assert!(s.is_quiescent(), "{kind:?}");
        }
    }

    #[test]
    fn state_table_reset_is_generational() {
        let mut st = StateTable::new(3);
        st.activate(NodeId(0));
        st.dispatch(NodeId(0));
        st.complete(NodeId(0));
        st.activate(NodeId(1));
        st.reset();
        // Every slot reads Clean without any per-slot write.
        for i in 0..3 {
            assert_eq!(st.get(NodeId(i)), NodeState::Clean);
        }
        assert_eq!(st.active_unexecuted(), 0);
        assert_eq!(st.activated_total(), 0);
        // Full lifecycle works again in the new generation.
        assert!(st.activate(NodeId(0)));
        st.dispatch(NodeId(0));
        st.complete(NodeId(0));
        assert_eq!(st.get(NodeId(0)), NodeState::Done);
    }

    #[test]
    fn state_table_generation_wrap_rewrites_stamps() {
        let mut st = StateTable::new(2);
        st.activate(NodeId(0));
        // Force the wrap path directly.
        st.generation = u32::MAX;
        st.reset();
        assert_eq!(st.generation(), 1);
        assert_eq!(st.get(NodeId(0)), NodeState::Clean);
        assert!(st.activate(NodeId(0)));
        assert_eq!(st.get(NodeId(0)), NodeState::Active);
    }

    #[test]
    fn state_table_bytes_counts_states_and_stamps() {
        let st = StateTable::new(100);
        // 1 state byte + 4 stamp bytes per node: bytes() must account for
        // everything the table actually holds per node.
        assert_eq!(st.bytes(), 100 * 5);
    }

    #[test]
    fn completion_batch_roundtrip() {
        let mut b = CompletionBatch::new();
        b.push(NodeId(0), &[NodeId(1), NodeId(2)]);
        b.fired_buf().push(NodeId(3));
        b.commit(NodeId(1));
        b.push(NodeId(2), &[]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_fired(), 3);
        let entries: Vec<(NodeId, Vec<NodeId>)> =
            b.iter().map(|(v, f)| (v, f.to_vec())).collect();
        assert_eq!(
            entries,
            vec![
                (NodeId(0), vec![NodeId(1), NodeId(2)]),
                (NodeId(1), vec![NodeId(3)]),
                (NodeId(2), vec![]),
            ]
        );
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.total_fired(), 0);
    }

    #[test]
    fn exact_greedy_pop_batch_matches_serial_pops() {
        let dag = diamond();
        let mut s = ExactGreedy::new(dag.clone());
        s.start(&[NodeId(1), NodeId(2)]);
        let mut batch = Vec::new();
        assert_eq!(s.pop_batch(&mut batch, 8), 2);
        let mut sorted = batch.clone();
        sorted.sort();
        assert_eq!(sorted, vec![NodeId(1), NodeId(2)]);
        assert_eq!(s.pop_batch(&mut batch, 8), 0);
        let mut done = CompletionBatch::new();
        done.push(NodeId(1), &[NodeId(3)]);
        done.push(NodeId(2), &[NodeId(3)]);
        s.complete_batch(&done);
        assert_eq!(s.pop_ready(), Some(NodeId(3)));
        s.on_completed(NodeId(3), &[]);
        assert!(s.is_quiescent());
    }
}
