//! A benchmark-owned [`Scheduler`] wrapper that times every protocol call
//! from outside. Passed as `&mut dyn Scheduler` in traced runs only;
//! untraced runs drive the bare scheduler.
//!
//! Under the engine's serial drive, the interval from `pop_ready`
//! returning a node to `on_completed` being called for it is that task's
//! time. Under the threaded executor the coordinator thread makes all
//! scheduler calls, so the timings are coordinator time.

use incr_dag::NodeId;
use incr_sched::{CompletionBatch, CostMeter, Scheduler};
use std::time::Instant;

/// Calls of one kind since the last [`SchedProbe::take`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub first: Option<Instant>,
}

impl CallStats {
    fn record(&mut self, start: Instant, end: Instant) {
        self.calls += 1;
        self.busy_ns += (end - start).as_nanos() as u64;
        self.first.get_or_insert(start);
    }
}

#[derive(Clone, Copy, Debug)]
pub struct TaskInterval {
    pub node: NodeId,
    pub start: Instant,
    pub end: Instant,
}

/// What the probe saw during one update.
#[derive(Debug, Default)]
pub struct ProbeSample {
    pub start: CallStats,
    pub pop: CallStats,
    pub complete: CallStats,
    pub tasks: Vec<TaskInterval>,
}

pub struct SchedProbe {
    inner: Box<dyn Scheduler + Send>,
    sample: ProbeSample,
    /// The node last handed out by `pop_ready` and when.
    open: Option<(NodeId, Instant)>,
}

impl SchedProbe {
    pub fn new(inner: Box<dyn Scheduler + Send>) -> SchedProbe {
        SchedProbe {
            inner,
            sample: ProbeSample::default(),
            open: None,
        }
    }

    /// Hand back everything recorded since the previous call.
    pub fn take(&mut self) -> ProbeSample {
        std::mem::take(&mut self.sample)
    }
}

impl Scheduler for SchedProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        let t = Instant::now();
        self.inner.start(initial_active);
        self.sample.start.record(t, Instant::now());
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        let t = Instant::now();
        if let Some((node, start)) = self.open.take() {
            if node == v {
                self.sample.tasks.push(TaskInterval {
                    node,
                    start,
                    end: t,
                });
            }
        }
        self.inner.on_completed(v, fired);
        self.sample.complete.record(t, Instant::now());
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        let t = Instant::now();
        let node = self.inner.pop_ready();
        let end = Instant::now();
        self.sample.pop.record(t, end);
        self.open = node.map(|n| (n, end));
        node
    }

    // The batch calls forward to the inner scheduler's own (possibly
    // specialised) implementations, so wrapping changes no behaviour.
    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        let t = Instant::now();
        let n = self.inner.pop_batch(out, max);
        self.sample.pop.record(t, Instant::now());
        n
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        let t = Instant::now();
        self.inner.complete_batch(batch);
        self.sample.complete.record(t, Instant::now());
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
    use incr_dag::DagBuilder;
    use incr_sched::SchedulerKind;
    use std::sync::Arc;

    #[test]
    fn probe_counts_calls_and_times_tasks_without_changing_the_order() {
        let mut b = DagBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let dag = Arc::new(b.build().unwrap());
        let mut probe = SchedProbe::new(SchedulerKind::LevelBased.build(dag));
        probe.start(&[NodeId(0)]);
        let mut order = Vec::new();
        while let Some(v) = probe.pop_ready() {
            order.push(v);
            let fired: Vec<NodeId> = if v.0 < 2 {
                vec![NodeId(v.0 + 1)]
            } else {
                vec![]
            };
            probe.on_completed(v, &fired);
        }
        assert!(probe.is_quiescent());
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let s = probe.take();
        assert_eq!(s.start.calls, 1);
        assert_eq!(s.pop.calls, 4, "three tasks and the final None");
        assert_eq!(s.complete.calls, 3);
        assert_eq!(s.tasks.len(), 3);
        assert!(s.tasks.iter().all(|t| t.end >= t.start));
        assert_eq!(probe.take().pop.calls, 0, "take resets");
    }
}
