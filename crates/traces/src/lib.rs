//! # incr-traces — the job-trace corpus
//!
//! The paper evaluates on eleven job traces: ten proprietary production
//! workloads from LogicBlox plus one synthetic instance (Table I). The
//! proprietary traces were never released, so this crate *regenerates* a
//! corpus whose every published statistic matches Table I — node count,
//! edge count, number of initial (dirtied) tasks, number of active jobs,
//! and number of levels — plus task-duration distributions calibrated so
//! the simulated baseline makespans land near the published totals
//! (Tables II/III). See DESIGN.md §2 for the substitution argument.
//!
//! * [`spec`] — the per-trace parameter sheets (`#1`–`#11`).
//! * [`gen`] — the generator: a spine chain pins the level count, dirtied
//!   "active components" carry the incremental update, filler components
//!   make up the node/edge budget exactly, and the firing probability is
//!   binary-searched so the activation closure hits the published active
//!   count.
//! * [`durations`] — log-normal task durations (heavy-tailed, as
//!   production task times are).
//! * [`stats`] — recompute the Table I columns from any instance
//!   (plus the Figure 1 descendant census).
//! * [`adversarial`] — the pathological instances: the Figure 2 tight
//!   example, the LogicBlox `O(n³)` scan blow-up, the interval-list
//!   `O(V²)` space blow-up, and the "100×" anecdote instance (§VI).
//! * [`format`](mod@format) — versioned JSON serialization of instances, standing in
//!   for the paper's trace files.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adversarial;
pub mod durations;
pub mod format;
pub mod gen;
pub mod spec;
pub mod stats;

pub use format::JobTrace;
pub use gen::generate;
pub use spec::{preset, presets, TraceSpec};
pub use stats::{trace_stats, TraceStats};
