//! # datalog-sched — incremental maintenance of Datalog programs as DAG scheduling
//!
//! Umbrella crate for the workspace reproducing *"A Scheduling Approach to
//! Incremental Maintenance of Datalog Programs"* (IPDPS 2020). It
//! re-exports the member crates so examples, integration tests, and
//! downstream users need a single dependency:
//!
//! * [`dag`] — CSR DAGs, levels, reachability, interval-list transitive
//!   closure (the substrate of every scheduler).
//! * [`sched`] — the paper's schedulers: LevelBased, LBL(k), the
//!   LogicBlox production baseline, signal propagation, and the Hybrid.
//! * [`sim`] — discrete-event and unit-step simulators with the
//!   scheduling-overhead cost model.
//! * [`traces`] — the job-trace corpus: Table-I presets, generators,
//!   adversarial instances, serialization.
//! * [`datalog`] — a from-scratch Datalog engine whose incremental
//!   maintenance compiles to scheduling instances.
//! * [`runtime`] — a real thread-pool executor driven by the schedulers.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use incr_dag as dag;
pub use incr_datalog as datalog;
pub use incr_runtime as runtime;
pub use incr_sched as sched;
pub use incr_sim as sim;
pub use incr_traces as traces;
