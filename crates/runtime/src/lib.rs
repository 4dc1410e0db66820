//! # incr-runtime — a real multi-threaded executor for the schedulers
//!
//! The simulators in `incr-sim` replay traces; this crate *actually runs*
//! tasks. A pool of worker threads executes user closures per DAG node
//! while a scheduler (any [`incr_sched::Scheduler`]) decides dispatch
//! order under the paper's safety rule. The Datalog engine uses this to
//! re-derive predicates after base-data updates; the examples use it to
//! demonstrate the hybrid's shared ready supply on real threads.
//!
//! * [`executor`] — the batched dispatch pipeline: the coordinator owns
//!   the scheduler and pulls whole wavefronts (`pop_batch`), workers are
//!   fed each wavefront split evenly across them, a fixed window of tasks
//!   in flight is the backpressure, and workers flush completions in
//!   reusable batches with the fired-edge sets the task functions
//!   compute. Execution is fault-tolerant: panics are isolated
//!   per task, transient failures retry under a bounded backoff policy, a
//!   watchdog deadline and a [`executor::CancelToken`] bound every
//!   update's latency, and an [`executor::UpdateJournal`] makes failed
//!   updates resumable without re-running committed work.
//! * [`faults`] — the deterministic chaos harness: seeded fault plans
//!   (panic-at-nth, fail-k-then-succeed, delay) that wrap any task
//!   function, used by the chaos test suite to prove the run-once safety
//!   invariant holds under injected failure.

//! * [`attribution`] — post-hoc critical-path analysis: replay drained
//!   trace events against the DAG to split each update's latency into
//!   scheduler / wait (run + eval) / commit / other components and
//!   recover the concrete critical chain (the `dlsched explain`
//!   subcommand).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attribution;
pub mod executor;
pub mod faults;

pub use attribution::{analyze, flow_events, TaskSpan, UpdateAttribution};
pub use executor::{
    infallible, CancelToken, ExecConfig, ExecError, ExecReport, ExecSnapshot, Executor,
    RetryPolicy, StreamError, StreamReport, TaskFn, TaskOutcome, TryTaskFn, UpdateJournal,
};
pub use faults::{Fault, FaultPlan};
