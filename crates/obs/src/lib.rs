//! `incr-obs`: zero-dependency observability for the scheduling stack.
//!
//! Three pieces, all usable independently:
//!
//! * [`metrics`] — atomic [`Counter`]s, peak-tracking [`Gauge`]s and
//!   log₂ [`Histogram`]s behind a process-global named [`Registry`].
//! * [`trace`] — span/instant/counter events recorded into per-thread
//!   buffers. Recording is gated on one relaxed atomic load, so with
//!   tracing disabled ([`trace::enabled`] == false, the default) every
//!   instrumentation point is a near-free no-op. Events carry either a
//!   real wall-clock timestamp or an explicit *simulated* timestamp
//!   ([`Track::Sim`]), letting one trace file show the simulated
//!   makespan and the real scheduler wall-clock side by side.
//! * [`export`] — Chrome trace-event JSON (loadable in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`), flat
//!   JSONL, and a structural validator used by tests and CI.
//!
//! One always-on production layer sits alongside them:
//!
//! * [`flight`] — a flight recorder: fixed-capacity per-thread lock-free
//!   ring buffers of recent coded events (a few relaxed stores each, no
//!   allocation), dumped to a valid Perfetto "black box" file when the
//!   executor fails. On by default, unlike [`trace`].
//!
//! [`json`] is the hand-rolled JSON value/parser/serializer that backs
//! the exporters; other crates in the workspace reuse it instead of
//! pulling in serde.
//!
//! Typical use:
//!
//! ```
//! incr_obs::trace::enable();
//! {
//!     let _span = incr_obs::trace::span("pop_ready", "sched");
//!     // ... work ...
//! }
//! incr_obs::registry().counter("sched.pops").inc();
//! let threads = incr_obs::trace::drain();
//! let json = incr_obs::export::chrome_trace_json(&threads);
//! assert!(incr_obs::export::validate_chrome_trace(&json).is_ok());
//! incr_obs::trace::disable();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use trace::{SpanGuard, Track};
