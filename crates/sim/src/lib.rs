//! # incr-sim — scheduling simulators
//!
//! The paper evaluates its schedulers with a C++/Boost scheduling
//! simulator (§VI-A): "The simulator reconstructs the DAG from a job
//! trace, attaching meta-information, such as its processing time, to each
//! task ... runs the scheduler simulation ... and outputs the makespan."
//! This crate is that simulator, rebuilt in Rust, in two granularities:
//!
//! * [`event`] — a discrete-event simulator over *durations* (seconds per
//!   task, one processor per task), used for the production-trace
//!   experiments (Tables II and III). Scheduler decisions consume
//!   *simulated* time through the [`incr_sched::CostPrices`] model, so
//!   the reported makespan includes scheduling overhead exactly as the
//!   paper's totals do.
//! * [`step`] — a unit-step simulator over the paper's DAG model of
//!   computation (§IV): each task is a DAG of unit subtasks with a work
//!   and a span; `P` processors execute unit subtasks greedily. Used to
//!   check the Lemma 3/5/7 makespan bounds and the Figure 2 / Theorem 9
//!   tight example.
//! * [`meta`] — the meta-scheduler `A'` of Theorem 10: run a heuristic on
//!   `P/2` processors alongside LevelBased on the other `P/2` with a
//!   memory budget, finishing when either finishes.
//! * [`timeline`] — record per-task schedules and export Gantt SVG/CSV
//!   (the `schedviz` binary renders LevelBased's barrier idling against
//!   exact-readiness overlap on the Figure 2 instance).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod meta;
pub mod step;
pub mod timeline;

pub use event::{simulate_event, EventSimConfig, SimResult};
pub use meta::{simulate_meta, MetaConfig, MetaResult};
pub use step::{simulate_step, StepResult, StepSimConfig};
pub use timeline::{record_timeline, Span, Timeline};
