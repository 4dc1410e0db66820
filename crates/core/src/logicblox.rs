//! Reimplementation of the production LogicBlox scheduler (paper §II-C,
//! §VI-B).
//!
//! Preprocessing: the interval-list transitive closure of the whole DAG
//! (`O(V²)` space in the worst case). At runtime the scheduler keeps a
//! queue of active tasks; whenever its ready queue runs dry it *scans* the
//! active queue, and for each candidate checks the interval lists to
//! decide whether any active-uncompleted task is an ancestor. That scan is
//! the `O(n³)` worst case the paper identifies: `O(n)` scans × `O(n)`
//! candidates × `O(n)` ancestor checks.
//!
//! # Scan modes
//!
//! * [`ScanMode::Faithful`] executes the naive candidate × blocker loop
//!   literally. Decisions and charged costs are exact; wall time can be
//!   quadratic in the active count, which is unusable on the ~130k-active
//!   production-scale traces (#6, #11).
//! * [`ScanMode::CostModeled`] makes the *same decisions* via a
//!   level-pruned check (only blockers at strictly lower levels can be
//!   ancestors) but charges the meter what the naive loop would have paid.
//!   For a candidate found ready the naive loop inspects every blocker —
//!   charged exactly. For a blocked candidate the naive loop early-exits
//!   at the first blocking ancestor; the charge is the pruned-scan
//!   position scaled by the fraction of blockers the pruned scan skips
//!   (an estimate, capped at the blocker count). Equivalence of decisions
//!   and closeness of charges are property-tested.
//!
//!   A candidate is first checked from its own side: a walk up its
//!   ancestors, skipping those below the lowest level holding a blocker,
//!   reading at most as many parent entries as the pruned loop would test
//!   blockers. A walk that finishes without meeting an `Active`/`Running`
//!   ancestor decides "ready" — and is charged exactly as above. A walk
//!   that meets one, or runs out of budget, falls through to the pruned
//!   loop, which decides and charges as before. On shallow-wide DAGs the
//!   walk is O(in-degree) where the loop is O(blockers).

use crate::cost::CostMeter;
use crate::levelbased::Partner;
use crate::scheduler::{NodeState, Scheduler, StateTable};
use incr_dag::{Dag, IntervalList, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// How the active-queue scan computes readiness. See module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanMode {
    /// Naive candidate × blocker loop, literal costs.
    Faithful,
    /// Level-pruned loop with identical decisions and modeled naive costs.
    CostModeled,
}

/// The production-baseline scheduler: a state table and the scan side
/// that reads it.
pub struct LogicBlox {
    pub(crate) state: StateTable,
    pub(crate) side: ScanSide,
}

/// Everything LogicBlox keeps besides its state table. Its methods take
/// the table as a parameter, so [`crate::Hybrid`] runs it over the table
/// its LevelBased side owns: the side hears of each activation and
/// retirement through [`Partner`] and dispatches in the shared table.
pub(crate) struct ScanSide {
    dag: Arc<Dag>,
    il: IntervalList,
    mode: ScanMode,
    /// Active tasks not yet moved to the ready queue, in activation order;
    /// entries go stale when tasks are dispatched externally.
    active_queue: VecDeque<NodeId>,
    ready: VecDeque<NodeId>,
    /// In `ready` already (avoid rescanning / double-queueing); stamped
    /// against the table's generation so restarts need no O(V) clear.
    queued_stamp: Vec<u32>,
    /// Active-or-running (uncompleted) tasks, bucketed by level for the
    /// pruned check; total count mirrors the naive blocker list length.
    blockers_by_level: Vec<Vec<NodeId>>,
    /// Position of each node inside its level bucket (for O(1) removal);
    /// valid only while the node is Active or Running, never cleared.
    blocker_pos: Vec<u32>,
    blocker_count: usize,
    /// Levels whose blocker bucket was written this run (the only ones the
    /// next `start` clears — O(active) restarts instead of O(L)).
    touched_levels: Vec<u32>,
    /// `blocker_level_stamp[l] == generation` ⇔ `l` in `touched_levels`.
    blocker_level_stamp: Vec<u32>,
    /// Something changed since the last scan; a new scan may find work.
    dirty: bool,
    cost: CostMeter,
    /// Cached `il.total_intervals()` — the structure is immutable after
    /// build, and the gauge is sampled on hot paths.
    interval_count: usize,
    /// Blockers tested plus parent entries walked this run — the wall work
    /// behind the modelled `ancestor_queries` (`lbx.inspected`).
    inspected: u64,
    /// Reused stack of the ancestor walk; never longer than one walk's
    /// budget.
    walk: Vec<NodeId>,
}

impl ScanSide {
    pub(crate) fn new(dag: Arc<Dag>, mode: ScanMode) -> Self {
        let il = IntervalList::build(&dag);
        let interval_count = il.total_intervals();
        let n = dag.node_count();
        let l = dag.num_levels() as usize;
        ScanSide {
            dag,
            il,
            interval_count,
            mode,
            active_queue: VecDeque::new(),
            ready: VecDeque::new(),
            queued_stamp: vec![0; n],
            blockers_by_level: vec![Vec::new(); l],
            blocker_pos: vec![0; n],
            blocker_count: 0,
            touched_levels: Vec::new(),
            blocker_level_stamp: vec![0; l],
            dirty: false,
            cost: CostMeter::default(),
            inspected: 0,
            walk: Vec::new(),
        }
    }

    #[inline]
    fn is_queued(&self, v: NodeId, state: &StateTable) -> bool {
        self.queued_stamp[v.index()] == state.generation()
    }

    fn add_blocker(&mut self, v: NodeId, gen: u32) {
        let l = self.dag.level(v) as usize;
        if self.blocker_level_stamp[l] != gen {
            self.blocker_level_stamp[l] = gen;
            self.touched_levels.push(l as u32);
        }
        self.blocker_pos[v.index()] = self.blockers_by_level[l].len() as u32;
        self.blockers_by_level[l].push(v);
        self.blocker_count += 1;
    }

    fn remove_blocker(&mut self, v: NodeId) {
        let l = self.dag.level(v) as usize;
        let pos = self.blocker_pos[v.index()] as usize;
        let bucket = &mut self.blockers_by_level[l];
        bucket.swap_remove(pos);
        if pos < bucket.len() {
            let moved = bucket[pos];
            self.blocker_pos[moved.index()] = pos as u32;
        }
        self.blocker_count -= 1;
    }

    /// Is candidate `t` safe, and what does the check cost?
    ///
    /// Returns `(safe, charged_queries, charged_probes)`.
    fn check_candidate(&mut self, t: NodeId, state: &StateTable) -> (bool, u64, u64) {
        match self.mode {
            ScanMode::Faithful => {
                let mut queries = 0u64;
                let mut probes = 0u64;
                for bucket in &self.blockers_by_level {
                    for &a in bucket {
                        if a == t {
                            continue;
                        }
                        queries += 1;
                        let (anc, p) = self.il.is_descendant_counted(a, t);
                        probes += p;
                        if anc {
                            self.inspected += queries;
                            return (false, queries, probes);
                        }
                    }
                }
                self.inspected += queries;
                (true, queries, probes)
            }
            ScanMode::CostModeled => {
                let lt = self.dag.level(t) as usize;
                let total = self.blocker_count as u64;
                let below = &self.blockers_by_level[..lt];
                let lower: u64 = below.iter().map(|b| b.len() as u64).sum();
                // Ready: the naive loop would have inspected every blocker
                // (minus self if it is one).
                let ready_charge = total.saturating_sub(1).max(lower);
                let floor = below.iter().position(|b| !b.is_empty()).unwrap_or(lt) as u32;
                if lower > 0 && self.ancestors_clear(t, floor, lower, state) {
                    return (true, ready_charge, 2 * ready_charge);
                }
                let mut inspected = 0u64;
                for bucket in &self.blockers_by_level[..lt] {
                    for &a in bucket {
                        inspected += 1;
                        let (anc, _) = self.il.is_descendant_counted(a, t);
                        if anc {
                            self.inspected += inspected;
                            // Naive early-exit position estimate: scale the
                            // pruned position by the skip ratio, cap at the
                            // full blocker count.
                            let scale = if lower == 0 { 1 } else { total.div_ceil(lower) };
                            let charged = (inspected * scale).min(total.max(1));
                            return (false, charged, 2 * charged);
                        }
                    }
                }
                self.inspected += inspected;
                (true, ready_charge, 2 * ready_charge)
            }
        }
    }

    /// Walk up from `t` through its ancestors at level `floor` or above,
    /// reading at most `budget` parent entries. True iff the walk finishes
    /// without meeting an `Active`/`Running` ancestor: then no blocker is
    /// an ancestor of `t`, since no blocker sits below `floor` and every
    /// ancestor of a node sits lower than it. False when a blocker is met
    /// or the budget runs out. No visited set: a shared ancestor is read
    /// once per path to it, which the budget bounds.
    fn ancestors_clear(&mut self, t: NodeId, floor: u32, budget: u64, state: &StateTable) -> bool {
        self.walk.clear();
        self.walk.push(t);
        let mut read = 0u64;
        let clear = 'walk: loop {
            let Some(v) = self.walk.pop() else {
                break true;
            };
            for &p in self.dag.parents(v) {
                if read == budget {
                    break 'walk false;
                }
                read += 1;
                if self.dag.level(p) < floor {
                    continue;
                }
                if matches!(state.get(p), NodeState::Active | NodeState::Running) {
                    break 'walk false;
                }
                self.walk.push(p);
            }
        };
        self.inspected += read;
        clear
    }

    /// Examine up to `budget` candidates from the front of the active
    /// queue, moving every safe one to the ready queue (paper §II-C: "the
    /// scheduler scans the queue of active tasks ... if [ready], it is
    /// added to the queue of ready work"). A clean queue is not scanned;
    /// `dirty` is cleared only when a full pass completes within the
    /// budget. Plain pops scan without a budget; Hybrid's background scan
    /// passes its slice.
    pub(crate) fn scan(&mut self, state: &StateTable, budget: usize) {
        if !self.dirty {
            return;
        }
        let mut examined = 0usize;
        for _ in 0..self.active_queue.len() {
            if examined >= budget {
                return; // budget exhausted; dirty stays set
            }
            let Some(t) = self.active_queue.pop_front() else {
                break;
            };
            // Drop stale entries (already dispatched/queued elsewhere).
            if state.get(t) != NodeState::Active || self.is_queued(t, state) {
                continue;
            }
            examined += 1;
            self.cost.scan_steps += 1;
            let (safe, queries, probes) = self.check_candidate(t, state);
            self.cost.ancestor_queries += queries;
            self.cost.interval_probes += probes;
            if safe {
                self.queued_stamp[t.index()] = state.generation();
                self.ready.push_back(t);
            } else {
                self.active_queue.push_back(t);
            }
        }
        self.dirty = false;
    }

    /// Pop from the ready queue without triggering a scan.
    fn pop_ready_no_scan(&mut self, state: &mut StateTable) -> Option<NodeId> {
        while let Some(t) = self.ready.pop_front() {
            if state.get(t) == NodeState::Active {
                state.dispatch(t);
                return Some(t);
            }
        }
        None
    }

    pub(crate) fn pop_ready(&mut self, state: &mut StateTable) -> Option<NodeId> {
        self.cost.pops += 1;
        if let Some(t) = self.pop_ready_no_scan(state) {
            return Some(t);
        }
        self.scan(state, usize::MAX);
        self.pop_ready_no_scan(state)
    }

    pub(crate) fn pop_batch(
        &mut self,
        state: &mut StateTable,
        out: &mut Vec<NodeId>,
        max: usize,
    ) -> usize {
        // Drain the ready queue, scan at most once if it runs dry, then
        // drain again — one `pops` charge and one trait crossing per
        // wavefront; the scan charges stay per-candidate as always.
        self.cost.pops += 1;
        let before = out.len();
        while out.len() - before < max {
            match self.pop_ready_no_scan(state) {
                Some(t) => out.push(t),
                None => {
                    if !self.dirty {
                        break;
                    }
                    self.scan(state, usize::MAX);
                    match self.pop_ready_no_scan(state) {
                        Some(t) => out.push(t),
                        None => break,
                    }
                }
            }
        }
        out.len() - before
    }

    pub(crate) fn cost(&self) -> CostMeter {
        self.cost
    }

    /// Run-state bytes, the state table excluded.
    pub(crate) fn space_bytes(&self) -> usize {
        (self.active_queue.len() + self.ready.len() + self.blocker_count)
            * std::mem::size_of::<NodeId>()
            + self.queued_stamp.len() * std::mem::size_of::<u32>()
            + self.blocker_pos.len() * std::mem::size_of::<u32>()
    }

    pub(crate) fn precompute_bytes(&self) -> usize {
        self.il.memory_bytes()
    }

    pub(crate) fn gauges(&self) -> Vec<(&'static str, i64)> {
        vec![
            ("lbx.active_queue_depth", self.active_queue.len() as i64),
            ("lbx.ready_depth", self.ready.len() as i64),
            ("lbx.blockers", self.blocker_count as i64),
            ("lbx.interval_list_size", self.interval_count as i64),
            ("lbx.inspected", self.inspected as i64),
        ]
    }
}

impl Partner for ScanSide {
    fn reset(&mut self, state: &StateTable) {
        // O(active of the previous run): queue leftovers and touched
        // blocker levels only; `queued_stamp` resets for free via the
        // table's generation bump.
        self.active_queue.clear();
        self.ready.clear();
        for &l in &self.touched_levels {
            self.blockers_by_level[l as usize].clear();
        }
        self.touched_levels.clear();
        if state.generation() == 1 {
            // Stamp generation wrapped: old stamps could alias the new one.
            self.queued_stamp.fill(0);
            self.blocker_level_stamp.fill(0);
        }
        self.blocker_count = 0;
        self.dirty = false;
        self.cost = CostMeter::default();
        self.inspected = 0;
    }

    fn activated(&mut self, v: NodeId, state: &StateTable) {
        self.cost.activations += 1;
        self.active_queue.push_back(v);
        self.add_blocker(v, state.generation());
        self.dirty = true;
    }

    fn retired(&mut self, v: NodeId) {
        self.remove_blocker(v);
        self.cost.completions += 1;
        // A completion can unblock candidates even without new activations.
        self.dirty = true;
    }
}

impl LogicBlox {
    pub fn new(dag: Arc<Dag>) -> Self {
        Self::with_mode(dag, ScanMode::CostModeled)
    }

    pub fn with_mode(dag: Arc<Dag>, mode: ScanMode) -> Self {
        LogicBlox {
            state: StateTable::new(dag.node_count()),
            side: ScanSide::new(dag, mode),
        }
    }

    /// The scan mode in force.
    pub fn mode(&self) -> ScanMode {
        self.side.mode
    }

    fn activate(&mut self, v: NodeId) {
        if self.state.activate(v) {
            self.side.activated(v, &self.state);
        }
    }

    /// Number of uncompleted active tasks currently blocking.
    pub fn blocker_count(&self) -> usize {
        self.side.blocker_count
    }

    /// Total intervals held by the preprocessing structure.
    pub fn interval_count(&self) -> usize {
        self.side.interval_count
    }
}

impl Scheduler for LogicBlox {
    fn name(&self) -> &str {
        "LogicBlox"
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.state.reset();
        self.side.reset(&self.state);
        for &v in initial_active {
            self.activate(v);
        }
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        if !self.state.complete_running(v, "LogicBlox") {
            return;
        }
        self.side.retired(v);
        for &c in fired {
            self.activate(c);
        }
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        self.side.pop_ready(&mut self.state)
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        self.side.pop_batch(&mut self.state, out, max)
    }

    fn is_quiescent(&self) -> bool {
        self.state.active_unexecuted() == 0
    }

    fn cost(&self) -> CostMeter {
        self.side.cost
    }

    fn space_bytes(&self) -> usize {
        self.side.space_bytes() + self.state.bytes()
    }

    fn precompute_bytes(&self) -> usize {
        self.side.precompute_bytes()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        if self.state.get(v) == NodeState::Active {
            // Queue entries go stale and are dropped on the next scan;
            // the blocker entry stays until completion.
            self.state.dispatch(v);
        }
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        self.side.gauges()
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

    fn run_serial(s: &mut dyn Scheduler, initial: &[NodeId], fired: &[Vec<NodeId>]) -> Vec<NodeId> {
        s.start(initial);
        let mut order = Vec::new();
        while !s.is_quiescent() {
            let t = s.pop_ready().expect("stall");
            order.push(t);
            s.on_completed(t, &fired[t.index()]);
        }
        order
    }

    #[test]
    fn respects_active_ancestors() {
        for mode in [ScanMode::Faithful, ScanMode::CostModeled] {
            let mut s = LogicBlox::with_mode(diamond(), mode);
            s.start(&[NodeId(1), NodeId(3)]);
            assert_eq!(s.pop_ready(), Some(NodeId(1)), "{mode:?}");
            assert!(s.pop_ready().is_none(), "{mode:?}: 3 blocked by 1");
            s.on_completed(NodeId(1), &[]);
            assert_eq!(s.pop_ready(), Some(NodeId(3)), "{mode:?}");
            s.on_completed(NodeId(3), &[]);
            assert!(s.is_quiescent());
        }
    }

    #[test]
    fn modes_make_identical_decisions() {
        let fired: Vec<Vec<NodeId>> = vec![
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(3)],
            vec![NodeId(3)],
            vec![],
        ];
        let mut a = LogicBlox::with_mode(diamond(), ScanMode::Faithful);
        let mut b = LogicBlox::with_mode(diamond(), ScanMode::CostModeled);
        let oa = run_serial(&mut a, &[NodeId(0)], &fired);
        let ob = run_serial(&mut b, &[NodeId(0)], &fired);
        assert_eq!(oa, ob);
    }

    #[test]
    fn faithful_charges_grow_with_blockers() {
        // Wide fan: 1 source firing many independent sinks. Verifying each
        // sink ready requires consulting every other blocker.
        let width = 20u32;
        let mut bld = DagBuilder::new(1 + width as usize);
        for i in 0..width {
            bld.add_edge(NodeId(0), NodeId(1 + i));
        }
        let dag = Arc::new(bld.build().unwrap());
        let mut s = LogicBlox::with_mode(dag, ScanMode::Faithful);
        s.start(&[NodeId(0)]);
        let t = s.pop_ready().unwrap();
        let fired: Vec<NodeId> = (1..=width).map(NodeId).collect();
        s.on_completed(t, &fired);
        while let Some(t) = s.pop_ready() {
            s.on_completed(t, &[]);
        }
        assert!(s.is_quiescent());
        let q = s.cost().ancestor_queries;
        // First scan alone: ~width * (width - 1) pairwise checks.
        assert!(
            q >= (width as u64 - 1) * (width as u64 - 1),
            "queries {q} too low for quadratic scan"
        );
    }

    #[test]
    fn no_rescan_when_not_dirty() {
        let mut s = LogicBlox::new(diamond());
        s.start(&[NodeId(1), NodeId(3)]);
        let _ = s.pop_ready().unwrap(); // scan happens; 1 dispatched
        let scans_after_first = s.cost().scan_steps;
        assert!(s.pop_ready().is_none());
        assert!(s.pop_ready().is_none());
        assert_eq!(
            s.cost().scan_steps,
            scans_after_first,
            "idle pops must not rescan"
        );
    }

    #[test]
    fn external_dispatch_goes_stale() {
        let mut s = LogicBlox::new(diamond());
        s.start(&[NodeId(1), NodeId(2)]);
        s.on_external_dispatch(NodeId(1));
        let t = s.pop_ready().unwrap();
        assert_eq!(t, NodeId(2), "externally dispatched task never re-offered");
        s.on_completed(NodeId(2), &[]);
        s.on_completed(NodeId(1), &[]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn interval_preprocessing_reported() {
        let s = LogicBlox::new(diamond());
        assert!(s.interval_count() >= 4);
        assert!(s.precompute_bytes() > 0);
    }
}
