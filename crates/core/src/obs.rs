//! Observability wrapper for schedulers.
//!
//! [`Observed`] wraps any [`Scheduler`] and, when `incr_obs` tracing is
//! enabled, emits a real-time span (category `"sched"`) around every
//! `start`/`pop_ready`/`on_completed` call and samples the scheduler's
//! [`Scheduler::gauges`] — queue depths, the level frontier, interval-list
//! size — as Perfetto counter tracks and registry gauges (so peak values
//! survive into metric snapshots). Protocol-level totals (`sched.pops`,
//! `sched.completions`, `sched.activations`) are always counted; those are
//! single relaxed atomic adds. With tracing disabled every other emit site
//! reduces to one relaxed load, so wrapping costs next to nothing — the
//! `obs_overhead` bin in `incr-bench` checks exactly this.

use crate::cost::CostMeter;
use crate::scheduler::{CompletionBatch, Scheduler};
use incr_obs::{trace, Counter};
use incr_dag::NodeId;
use std::sync::Arc;

/// Sample gauges on every Nth scheduler call (plus the first): dense
/// enough for Perfetto counter tracks, sparse enough that million-task
/// runs don't exhaust the per-thread trace buffer.
const GAUGE_SAMPLE_EVERY: u32 = 16;

/// A scheduler decorated with spans, gauges and counters.
pub struct Observed {
    inner: Box<dyn Scheduler>,
    pops: Arc<Counter>,
    completions: Arc<Counter>,
    activations: Arc<Counter>,
    batch_pops: Arc<Counter>,
    batch_popped_tasks: Arc<Counter>,
    gauge_tick: u32,
}

impl Observed {
    pub fn new(inner: Box<dyn Scheduler>) -> Observed {
        let r = incr_obs::registry();
        Observed {
            pops: r.counter("sched.pops"),
            completions: r.counter("sched.completions"),
            activations: r.counter("sched.activations"),
            batch_pops: r.counter("sched.batch_pops"),
            batch_popped_tasks: r.counter("sched.batch_popped_tasks"),
            gauge_tick: 0,
            inner,
        }
    }

    /// Unwrap back to the inner scheduler.
    pub fn into_inner(self) -> Box<dyn Scheduler> {
        self.inner
    }

    /// Sample every gauge the inner scheduler exposes into the metrics
    /// registry (for peaks) and as Perfetto counter tracks. Decimated to
    /// one sample per [`GAUGE_SAMPLE_EVERY`] calls.
    fn sample_gauges(&mut self) {
        if !trace::enabled() {
            return;
        }
        self.gauge_tick = self.gauge_tick.wrapping_add(1);
        if self.gauge_tick % GAUGE_SAMPLE_EVERY != 1 {
            return;
        }
        let r = incr_obs::registry();
        for (name, v) in self.inner.gauges() {
            r.gauge(name).set(v);
            trace::counter("sched", name, v as f64);
        }
    }
}

impl Scheduler for Observed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        let span = trace::span_with(
            "sched",
            "sched.start",
            vec![("initial_active", initial_active.len().into())],
        );
        self.inner.start(initial_active);
        drop(span);
        self.activations.add(initial_active.len() as u64);
        self.sample_gauges();
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.completions.inc();
        self.activations.add(fired.len() as u64);
        let span = trace::span_with(
            "sched",
            "sched.on_completed",
            vec![("node", (v.0 as u64).into()), ("fired", fired.len().into())],
        );
        self.inner.on_completed(v, fired);
        drop(span);
        self.sample_gauges();
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        self.pops.inc();
        let span = trace::span("sched", "sched.pop_ready");
        let popped = self.inner.pop_ready();
        match popped {
            Some(t) => span.end_args(vec![("popped", (t.0 as u64).into())]),
            None => drop(span),
        }
        self.sample_gauges();
        popped
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        self.batch_pops.inc();
        let span = trace::span("sched", "sched.pop_batch");
        let got = self.inner.pop_batch(out, max);
        span.end_args(vec![("popped", got.into()), ("max", max.into())]);
        self.batch_popped_tasks.add(got as u64);
        if trace::enabled() {
            incr_obs::registry()
                .histogram("sched.pop_batch_size")
                .record(got as u64);
        }
        self.sample_gauges();
        got
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        self.completions.add(batch.len() as u64);
        self.activations.add(batch.total_fired() as u64);
        let span = trace::span_with(
            "sched",
            "sched.complete_batch",
            vec![
                ("completions", batch.len().into()),
                ("fired", batch.total_fired().into()),
            ],
        );
        self.inner.complete_batch(batch);
        drop(span);
        if trace::enabled() {
            incr_obs::registry()
                .histogram("sched.complete_batch_size")
                .record(batch.len() as u64);
        }
        self.sample_gauges();
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }

    fn cost(&self) -> CostMeter {
        self.inner.cost()
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }

    fn precompute_bytes(&self) -> usize {
        self.inner.precompute_bytes()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        self.inner.on_external_dispatch(v);
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        self.inner.gauges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LevelBased, SchedulerKind};
    use incr_dag::{DagBuilder, NodeId};
    use std::sync::Arc;

    fn diamond() -> Arc<incr_dag::Dag> {
        let mut b = DagBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    fn drive(s: &mut dyn Scheduler) -> usize {
        s.start(&[NodeId(0)]);
        let fired: Vec<Vec<NodeId>> = vec![
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(3)],
            vec![NodeId(3)],
            vec![],
        ];
        let mut done = 0;
        while !s.is_quiescent() {
            let t = s.pop_ready().expect("stall");
            s.on_completed(t, &fired[t.index()]);
            done += 1;
        }
        done
    }

    #[test]
    fn wrapping_does_not_change_decisions() {
        let dag = diamond();
        let mut plain = LevelBased::new(dag.clone());
        let mut wrapped = Observed::new(Box::new(LevelBased::new(dag)));
        assert_eq!(drive(&mut plain), drive(&mut wrapped));
        assert_eq!(plain.cost(), wrapped.cost());
        assert_eq!(wrapped.name(), "LevelBased");
    }

    #[test]
    fn counters_accumulate_even_without_tracing() {
        let before = incr_obs::registry().counter("sched.completions").get();
        let mut s = Observed::new(SchedulerKind::Hybrid.build(diamond()));
        let done = drive(&mut s);
        assert_eq!(done, 4);
        let after = incr_obs::registry().counter("sched.completions").get();
        assert_eq!(after - before, 4);
    }

    #[test]
    fn every_kind_exposes_gauges_or_none() {
        for kind in [
            SchedulerKind::LevelBased,
            SchedulerKind::Lookahead(3),
            SchedulerKind::LogicBlox,
            SchedulerKind::SignalPropagation,
            SchedulerKind::Hybrid,
            SchedulerKind::ExactGreedy,
        ] {
            let mut s = kind.build(diamond());
            s.start(&[NodeId(0)]);
            for (name, v) in s.gauges() {
                assert!(!name.is_empty());
                assert!(v >= 0, "{kind:?} gauge {name} negative at start");
            }
        }
    }
}
