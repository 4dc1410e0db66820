//! # incr-sched — the paper's scheduling algorithms
//!
//! Rust reproduction of the schedulers from *"A Scheduling Approach to
//! Incremental Maintenance of Datalog Programs"* (IPDPS 2020):
//!
//! | Type | Paper section | Guarantee |
//! |---|---|---|
//! | [`LevelBased`] | §III, §IV | scheduling cost `O(n + L)`, space `O(n)`; makespan `≤ w/P + L` (unit / fully-parallel tasks), `≤ w/P + Σ Sᵢ` (arbitrary) |
//! | [`LevelBasedLookahead`] (LBL(k)) | §III, §VI-B | repairs the per-level barrier; worst case `O(n²)` |
//! | [`LogicBlox`] | §II-C, §VI-B | the production baseline: interval-list ancestor queries, `O(n³)` worst-case scheduling time, `O(V²)` worst-case space |
//! | [`SignalPropagation`] | §II-C | no precomputation, `Θ(V + E)` messages regardless of `n` |
//! | [`Hybrid`] | §V, §VI | best of both: LogicBlox's typical makespan with LevelBased's worst-case robustness |
//! | [`ExactGreedy`] | — | test oracle: exact readiness from ground-truth reachability |
//!
//! All schedulers speak one event protocol ([`Scheduler`]): the
//! environment delivers the initially-dirty tasks, asks for safe tasks
//! when processors idle, and reports completions together with which
//! out-edges *fired* (carried changed data) — the dynamic revelation of
//! the active graph `H` that makes this problem different from classic
//! precedence-constrained scheduling.
//!
//! Scheduling *overhead* is accounted in abstract operation counts
//! ([`CostMeter`]) priced into simulated seconds by the simulator
//! ([`CostPrices`]); the meta-scheduler of Theorem 10 is implemented in
//! `incr-sim` on top of these primitives.
//!
//! ```
//! use incr_sched::{LevelBased, Scheduler};
//! use incr_dag::{DagBuilder, NodeId};
//! use std::sync::Arc;
//!
//! // A two-level diamond; only the source is dirty.
//! let mut b = DagBuilder::new(4);
//! for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
//!     b.add_edge(NodeId(u), NodeId(v));
//! }
//! let dag = Arc::new(b.build().unwrap());
//!
//! let mut sched = LevelBased::new(dag);
//! sched.start(&[NodeId(0)]);
//! let t = sched.pop_ready().unwrap();
//! assert_eq!(t, NodeId(0));
//! // Executing the source changed only node 1's input:
//! sched.on_completed(t, &[NodeId(1)]);
//! assert_eq!(sched.pop_ready(), Some(NodeId(1)));
//! sched.on_completed(NodeId(1), &[]);
//! assert!(sched.is_quiescent());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod hybrid;
pub mod instance;
pub mod levelbased;
pub mod logicblox;
pub mod lookahead;
pub mod obs;
pub mod scheduler;
pub mod signal;

pub use cost::{CostMeter, CostPrices};
pub use obs::Observed;
pub use hybrid::{Hybrid, HybridConfig};
pub use instance::{Instance, TaskShape};
pub use levelbased::LevelBased;
pub use logicblox::{LogicBlox, ScanMode};
pub use lookahead::LevelBasedLookahead;
pub use scheduler::{
    CompletionBatch, ExactGreedy, NodeState, SafetyChecker, Scheduler, StateTable,
};
pub use signal::SignalPropagation;

use incr_dag::Dag;
use std::sync::Arc;

/// Scheduler constructors addressable by name — the benches and examples
/// build their scheduler line-ups from these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    LevelBased,
    /// LBL(k).
    Lookahead(u32),
    LogicBlox,
    LogicBloxFaithful,
    SignalPropagation,
    Hybrid,
    /// Hybrid with the production-style concurrent background scan
    /// (slice = candidates examined per pop).
    HybridBackground(usize),
    ExactGreedy,
}

impl SchedulerKind {
    /// Instantiate the scheduler over `dag` (runs any precomputation).
    pub fn build(self, dag: Arc<Dag>) -> Box<dyn Scheduler + Send> {
        match self {
            SchedulerKind::LevelBased => Box::new(LevelBased::new(dag)),
            SchedulerKind::Lookahead(k) => Box::new(LevelBasedLookahead::new(dag, k)),
            SchedulerKind::LogicBlox => Box::new(LogicBlox::new(dag)),
            SchedulerKind::LogicBloxFaithful => {
                Box::new(LogicBlox::with_mode(dag, ScanMode::Faithful))
            }
            SchedulerKind::SignalPropagation => Box::new(SignalPropagation::new(dag)),
            SchedulerKind::Hybrid => Box::new(Hybrid::new(dag)),
            SchedulerKind::HybridBackground(slice) => Box::new(Hybrid::with_config(
                dag,
                HybridConfig {
                    background_scan: true,
                    scan_slice: slice,
                },
            )),
            SchedulerKind::ExactGreedy => Box::new(ExactGreedy::new(dag)),
        }
    }

    /// Display label used in table rows.
    pub fn label(self) -> String {
        match self {
            SchedulerKind::LevelBased => "LevelBased".into(),
            SchedulerKind::Lookahead(k) => format!("LBL(k={k})"),
            SchedulerKind::LogicBlox => "LogicBlox".into(),
            SchedulerKind::LogicBloxFaithful => "LogicBlox(faithful)".into(),
            SchedulerKind::SignalPropagation => "SignalPropagation".into(),
            SchedulerKind::Hybrid => "Hybrid".into(),
            SchedulerKind::HybridBackground(s) => format!("Hybrid(bg={s})"),
            SchedulerKind::ExactGreedy => "ExactGreedy".into(),
        }
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;
    use incr_dag::{DagBuilder, NodeId};

    #[test]
    fn every_kind_builds_and_runs_a_trivial_instance() {
        let mut b = DagBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        let dag = Arc::new(b.build().unwrap());
        for kind in [
            SchedulerKind::LevelBased,
            SchedulerKind::Lookahead(5),
            SchedulerKind::LogicBlox,
            SchedulerKind::LogicBloxFaithful,
            SchedulerKind::SignalPropagation,
            SchedulerKind::Hybrid,
            SchedulerKind::HybridBackground(8),
            SchedulerKind::ExactGreedy,
        ] {
            let mut s = kind.build(dag.clone());
            s.start(&[NodeId(0)]);
            let t = s.pop_ready().unwrap_or_else(|| panic!("{:?} stalled", kind));
            assert_eq!(t, NodeId(0));
            s.on_completed(t, &[NodeId(1)]);
            let t2 = s.pop_ready().unwrap();
            assert_eq!(t2, NodeId(1));
            s.on_completed(t2, &[]);
            assert!(s.is_quiescent(), "{kind:?}");
            assert!(!kind.label().is_empty());
        }
    }
}

#[cfg(test)]
mod proptests;
