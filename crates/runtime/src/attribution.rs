//! Critical-path attribution: where did an update's latency go?
//!
//! [`analyze`] replays drained trace events ([`incr_obs::trace::drain`])
//! against the DAG and, per `exec.update` span, splits end-to-end wall
//! time into named components:
//!
//! * **sched** — time inside `sched.*` scheduler calls on the
//!   coordinator (pop_batch, start, on_completed, …);
//! * **wait** — time the coordinator blocked in
//!   `coordinator.wait_completion`, further split into
//!   * **run** — waiting on plain task execution, and
//!   * **eval** — the share of task time spent inside `datalog`-category
//!     spans (join evaluation, DRed phases), scaled into the wait;
//! * **commit** — `exec.commit` (journal append, fired-edge validation,
//!   scheduler completion);
//! * **other** — the remainder (chunk assembly, channel sends, drains).
//!
//! Depth-1 children of `exec.update` on the coordinator thread are
//! disjoint, so `sched + wait + commit + other == wall` by construction —
//! the attribution always accounts for the whole update.
//!
//! A concrete critical *chain* is recovered from per-task spans (workers
//! record them when [`ExecConfig::record_tasks`](crate::ExecConfig) is
//! set) via [`incr_dag::critical::critical_chain`]: walk back from the
//! last-finishing task through the latest-finishing executed parent.
//! [`flow_events`] renders that chain as Chrome flow arrows that Perfetto
//! draws across worker tracks when appended to the exported trace
//! ([`incr_obs::export::chrome_trace_with`]).

use incr_dag::{Dag, NodeId};
use incr_obs::json::obj;
use incr_obs::trace::{ArgValue, Event, Phase, ThreadEvents};
use incr_obs::Json;

/// One executed task occurrence, as observed on a worker thread.
#[derive(Clone, Debug)]
pub struct TaskSpan {
    pub node: NodeId,
    /// Trace thread id of the worker that ran it (a Perfetto `tid`).
    pub tid: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl TaskSpan {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Latency attribution for one `exec.update` span.
#[derive(Clone, Debug)]
pub struct UpdateAttribution {
    /// Index in start-time order across the drained trace.
    pub update: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Scheduler calls on the coordinator (`sched.*`).
    pub sched_us: f64,
    /// Coordinator blocked on completions (`coordinator.wait_completion`).
    pub wait_us: f64,
    /// Share of `wait_us` attributed to join/DRed evaluation.
    pub eval_us: f64,
    /// Share of `wait_us` attributed to plain task execution.
    pub run_us: f64,
    /// Commit + validation (`exec.commit`).
    pub commit_us: f64,
    /// Everything else on the coordinator: `wall - sched - wait - commit`.
    pub other_us: f64,
    /// Tasks observed inside this update's window.
    pub executed: usize,
    /// Total task-span time across workers (parallel time, can exceed wall).
    pub task_us: f64,
    /// The recovered critical chain, in execution order.
    pub chain: Vec<TaskSpan>,
}

impl UpdateAttribution {
    pub fn wall_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// Sum of the attribution components; equals [`wall_us`](Self::wall_us)
    /// up to float rounding (`run + eval == wait` by definition).
    pub fn components_us(&self) -> f64 {
        self.sched_us + self.run_us + self.eval_us + self.commit_us + self.other_us
    }

    /// Sum of task time along the critical chain (lower-bounds the wall).
    pub fn chain_us(&self) -> f64 {
        self.chain.iter().map(TaskSpan::dur_us).sum()
    }

    pub fn to_json(&self) -> Json {
        let wall = self.wall_us();
        let pct = |c: f64| if wall > 0.0 { 100.0 * c / wall } else { 0.0 };
        obj([
            ("update", self.update.into()),
            ("wall_us", wall.into()),
            (
                "components_us",
                obj([
                    ("sched", self.sched_us.into()),
                    ("run", self.run_us.into()),
                    ("eval", self.eval_us.into()),
                    ("commit", self.commit_us.into()),
                    ("other", self.other_us.into()),
                ]),
            ),
            (
                "components_pct",
                obj([
                    ("sched", pct(self.sched_us).into()),
                    ("run", pct(self.run_us).into()),
                    ("eval", pct(self.eval_us).into()),
                    ("commit", pct(self.commit_us).into()),
                    ("other", pct(self.other_us).into()),
                ]),
            ),
            ("executed", self.executed.into()),
            ("task_us", self.task_us.into()),
            ("chain_us", self.chain_us().into()),
            (
                "chain",
                Json::Arr(
                    self.chain
                        .iter()
                        .map(|t| {
                            obj([
                                ("node", t.node.index().into()),
                                ("tid", t.tid.into()),
                                ("start_us", t.start_us.into()),
                                ("dur_us", t.dur_us().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A Begin/End pair reconstructed from one thread's event stream.
struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    end_us: f64,
    depth: usize,
    /// Category of the enclosing span, if any (detects nested `datalog`
    /// spans so evaluation time is not double-counted).
    parent_cat: Option<&'static str>,
    args: Vec<(&'static str, ArgValue)>,
}

/// Rebuild completed spans from a thread's Begin/End stream. Spans left
/// open (error paths that never closed) are dropped.
fn reconstruct(events: &[Event]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for e in events {
        match e.phase {
            Phase::Begin => {
                let parent_cat = stack.last().map(|&i| out[i].cat);
                stack.push(out.len());
                out.push(Span {
                    name: e.name.to_string(),
                    cat: e.cat,
                    start_us: e.ts_us,
                    end_us: f64::NAN,
                    depth: stack.len() - 1,
                    parent_cat,
                    args: e.args.clone(),
                });
            }
            Phase::End => {
                if let Some(i) = stack.pop() {
                    out[i].end_us = e.ts_us;
                    out[i].args.extend(e.args.iter().cloned());
                }
            }
            _ => {}
        }
    }
    out.retain(|s| s.end_us.is_finite());
    out
}

fn num_arg(args: &[(&'static str, ArgValue)], key: &str) -> Option<f64> {
    args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        ArgValue::Num(n) => Some(*n),
        ArgValue::Str(_) => None,
    })
}

/// Attribute every `exec.update` in the drained trace. Returns one entry
/// per update, ordered by start time. Requires tracing to have been
/// enabled during the run; per-task chains additionally need
/// [`ExecConfig::record_tasks`](crate::ExecConfig).
pub fn analyze(dag: &Dag, threads: &[ThreadEvents]) -> Vec<UpdateAttribution> {
    struct Window {
        start: f64,
        end: f64,
        sched: f64,
        wait: f64,
        commit: f64,
    }
    let mut windows: Vec<Window> = Vec::new();
    let mut tasks: Vec<TaskSpan> = Vec::new();
    // [start, end) of top-level datalog-category spans (join evaluation,
    // DRed phases) on any thread; nested datalog spans are excluded.
    let mut eval_ranges: Vec<(f64, f64)> = Vec::new();

    for t in threads {
        let spans = reconstruct(&t.events);
        for (i, s) in spans.iter().enumerate() {
            if s.cat == "exec" && s.name == "exec.update" {
                let mut w = Window {
                    start: s.start_us,
                    end: s.end_us,
                    sched: 0.0,
                    wait: 0.0,
                    commit: 0.0,
                };
                // Direct children are disjoint sub-intervals of the
                // update, so these sums can never exceed the wall.
                for c in spans[i + 1..]
                    .iter()
                    .take_while(|c| c.start_us < s.end_us)
                    .filter(|c| c.depth == s.depth + 1 && c.end_us <= s.end_us)
                {
                    let d = c.end_us - c.start_us;
                    if c.name.starts_with("sched.") {
                        w.sched += d;
                    } else if c.name == "coordinator.wait_completion" {
                        w.wait += d;
                    } else if c.name == "exec.commit" {
                        w.commit += d;
                    }
                }
                windows.push(w);
            } else if s.cat == "exec" && s.name == "task" {
                if let Some(node) = num_arg(&s.args, "node") {
                    let node = node as usize;
                    if node < dag.node_count() {
                        tasks.push(TaskSpan {
                            node: NodeId(node as u32),
                            tid: t.tid,
                            start_us: s.start_us,
                            end_us: s.end_us,
                        });
                    }
                }
            } else if s.cat == "datalog" && s.parent_cat != Some("datalog") {
                eval_ranges.push((s.start_us, s.end_us));
            }
        }
    }

    windows.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut out = Vec::with_capacity(windows.len());
    for (update, w) in windows.iter().enumerate() {
        let in_window = |start: f64| start >= w.start && start < w.end;
        let wtasks: Vec<&TaskSpan> = tasks.iter().filter(|t| in_window(t.start_us)).collect();
        let task_us: f64 = wtasks.iter().map(|t| t.dur_us()).sum();
        // `+ 0.0` renormalizes the -0.0 an empty f64 `sum()` yields, so
        // a run with no evaluation spans reports eval as +0.0.
        let eval_raw: f64 = eval_ranges
            .iter()
            .filter(|(s, _)| in_window(*s))
            .map(|(s, e)| e - s)
            .sum::<f64>()
            + 0.0;
        // The coordinator's wait covers task execution in parallel; split
        // it by the *measured* evaluation share of worker task time. When
        // task spans are off, fall back to raw eval time capped at the
        // wait (still a lower bound on evaluation's contribution).
        let eval_frac = if task_us > 0.0 {
            (eval_raw / task_us).min(1.0)
        } else if w.wait > 0.0 {
            (eval_raw / w.wait).min(1.0)
        } else {
            0.0
        };
        let eval_us = w.wait * eval_frac;
        let run_us = w.wait - eval_us;
        let wall = w.end - w.start;
        let other_us = (wall - w.sched - w.wait - w.commit).max(0.0);

        // Latest finish per node inside the window, then the chain walk.
        let mut end_of = vec![f64::NEG_INFINITY; dag.node_count()];
        let mut latest: Vec<Option<&TaskSpan>> = vec![None; dag.node_count()];
        for &t in &wtasks {
            let i = t.node.index();
            if t.end_us > end_of[i] {
                end_of[i] = t.end_us;
                latest[i] = Some(t);
            }
        }
        let chain = incr_dag::critical::critical_chain(dag, &end_of, |v| {
            latest[v.index()].is_some()
        })
        .into_iter()
        .filter_map(|v| latest[v.index()].cloned())
        .collect();

        out.push(UpdateAttribution {
            update,
            start_us: w.start,
            end_us: w.end,
            sched_us: w.sched,
            wait_us: w.wait,
            eval_us,
            run_us,
            commit_us: w.commit,
            other_us,
            executed: wtasks.len(),
            task_us,
            chain,
        });
    }
    out
}

/// Chrome flow events (`ph: "s"`/`"f"`) tracing each update's critical
/// chain across worker tracks. Append to a trace via
/// [`incr_obs::export::chrome_trace_with`]; Perfetto draws them as arrows
/// from each chain task's end to its successor's start.
pub fn flow_events(attrs: &[UpdateAttribution]) -> Vec<Json> {
    let mut out = Vec::new();
    for a in attrs {
        for (hop, pair) in a.chain.windows(2).enumerate() {
            let id = (a.update as u64) << 20 | hop as u64;
            let common = |t: &TaskSpan, ph: &str, ts: f64| {
                obj([
                    ("name", "critical path".into()),
                    ("cat", "flow".into()),
                    ("ph", ph.into()),
                    ("id", id.into()),
                    ("pid", incr_obs::export::REAL_PID.into()),
                    ("tid", t.tid.into()),
                    ("ts", ts.into()),
                ])
            };
            // Arrow leaves just before the producer's end and lands at the
            // consumer's start (Perfetto binds flows to enclosing slices).
            out.push(common(&pair[0], "s", pair[0].end_us));
            out.push(common(&pair[1], "f", pair[1].start_us));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::DagBuilder;
    use incr_obs::trace::{Event, Phase, Track};
    use std::borrow::Cow;

    fn ev(
        name: &'static str,
        cat: &'static str,
        phase: Phase,
        ts_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Event {
        Event {
            name: Cow::Borrowed(name),
            cat,
            phase,
            ts_us,
            dur_us: 0.0,
            track: Track::Real { tid: 0 },
            args,
        }
    }

    fn diamond() -> Dag {
        let mut b = DagBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build().unwrap()
    }

    /// A synthetic coordinator timeline: update [0, 100] with sched 10,
    /// wait 60, commit 20 — other must come out as 10 and the components
    /// must sum exactly to the wall.
    #[test]
    fn components_sum_to_wall() {
        let threads = vec![ThreadEvents {
            tid: 1,
            thread_name: Some("executor-coordinator".into()),
            dropped: 0,
            events: vec![
                ev("exec.update", "exec", Phase::Begin, 0.0, vec![]),
                ev("sched.pop_batch", "sched", Phase::Begin, 5.0, vec![]),
                ev("", "", Phase::End, 15.0, vec![]),
                ev("coordinator.wait_completion", "exec", Phase::Begin, 20.0, vec![]),
                ev("", "", Phase::End, 80.0, vec![]),
                ev("exec.commit", "exec", Phase::Begin, 80.0, vec![]),
                ev("", "", Phase::End, 100.0, vec![]),
                ev("", "", Phase::End, 100.0, vec![]),
            ],
        }];
        let attrs = analyze(&diamond(), &threads);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert_eq!(a.wall_us(), 100.0);
        assert_eq!(a.sched_us, 10.0);
        assert_eq!(a.wait_us, 60.0);
        assert_eq!(a.commit_us, 20.0);
        assert_eq!(a.other_us, 10.0);
        assert!((a.components_us() - a.wall_us()).abs() < 1e-9);
        // No datalog spans: the whole wait is plain run time. The eval
        // component must be *positive* zero (an empty f64 sum is -0.0,
        // which would leak "-0.0%" into reports if not renormalized).
        assert_eq!(a.run_us, 60.0);
        assert_eq!(a.eval_us, 0.0);
        assert!(!a.eval_us.is_sign_negative());
    }

    /// Worker task spans drive the chain walk and the eval split.
    #[test]
    fn chain_and_eval_split() {
        let coord = ThreadEvents {
            tid: 1,
            thread_name: Some("executor-coordinator".into()),
            dropped: 0,
            events: vec![
                ev("exec.update", "exec", Phase::Begin, 0.0, vec![]),
                ev("coordinator.wait_completion", "exec", Phase::Begin, 0.0, vec![]),
                ev("", "", Phase::End, 100.0, vec![]),
                ev("", "", Phase::End, 100.0, vec![]),
            ],
        };
        let task = |node: u64, b: f64, e: f64| {
            vec![
                ev("task", "exec", Phase::Begin, b, vec![("node", node.into())]),
                ev("", "", Phase::End, e, vec![]),
            ]
        };
        // Node 2 is the slow branch: chain must be 0 -> 2 -> 3. Half of
        // node 2's time is a nested datalog span (with a doubly-nested
        // child that must not double-count).
        let mut w_events = Vec::new();
        w_events.extend(task(0, 0.0, 10.0));
        w_events.extend(task(1, 10.0, 20.0));
        let worker2 = ThreadEvents {
            tid: 3,
            thread_name: Some("worker-1".into()),
            dropped: 0,
            events: vec![
                ev("task", "exec", Phase::Begin, 10.0, vec![("node", 2u64.into())]),
                ev("dred.overdelete", "datalog", Phase::Begin, 20.0, vec![]),
                ev("join.step", "datalog", Phase::Begin, 25.0, vec![]),
                ev("", "", Phase::End, 45.0, vec![]),
                ev("", "", Phase::End, 60.0, vec![]),
                ev("", "", Phase::End, 90.0, vec![]),
            ],
        };
        w_events.extend(task(3, 90.0, 100.0));
        let worker1 = ThreadEvents {
            tid: 2,
            thread_name: Some("worker-0".into()),
            dropped: 0,
            events: w_events,
        };
        let attrs = analyze(&diamond(), &[coord, worker1, worker2]);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert_eq!(a.executed, 4);
        let chain: Vec<u32> = a.chain.iter().map(|t| t.node.0).collect();
        assert_eq!(chain, vec![0, 2, 3]);
        // task_us = 10 + 10 + 80 + 10 = 110; eval_raw = 40 (nested join
        // ignored); eval = 100 * 40/110.
        assert!((a.task_us - 110.0).abs() < 1e-9);
        assert!((a.eval_us - 100.0 * (40.0 / 110.0)).abs() < 1e-9);
        assert!((a.eval_us + a.run_us - a.wait_us).abs() < 1e-9);
        assert!((a.components_us() - a.wall_us()).abs() < 1e-9);
        // Flow events: 2 hops, an "s"/"f" pair each, ids unique per hop.
        let flows = flow_events(&attrs);
        assert_eq!(flows.len(), 4);
        assert!(flows.iter().all(|f| f.get("id").is_some()));
        let s_count = flows
            .iter()
            .filter(|f| f.get("ph").and_then(Json::as_str) == Some("s"))
            .count();
        assert_eq!(s_count, 2);
    }

    /// Two sequential updates on one coordinator produce two windows with
    /// tasks assigned by start time.
    #[test]
    fn multiple_updates_partition_tasks() {
        let coord = ThreadEvents {
            tid: 1,
            thread_name: None,
            dropped: 0,
            events: vec![
                ev("exec.update", "exec", Phase::Begin, 0.0, vec![]),
                ev("", "", Phase::End, 50.0, vec![]),
                ev("exec.update", "exec", Phase::Begin, 60.0, vec![]),
                ev("", "", Phase::End, 100.0, vec![]),
            ],
        };
        let worker = ThreadEvents {
            tid: 2,
            thread_name: None,
            dropped: 0,
            events: vec![
                ev("task", "exec", Phase::Begin, 10.0, vec![("node", 0u64.into())]),
                ev("", "", Phase::End, 20.0, vec![]),
                ev("task", "exec", Phase::Begin, 70.0, vec![("node", 1u64.into())]),
                ev("", "", Phase::End, 80.0, vec![]),
            ],
        };
        let attrs = analyze(&diamond(), &[coord, worker]);
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].executed, 1);
        assert_eq!(attrs[1].executed, 1);
        assert_eq!(attrs[0].chain[0].node, NodeId(0));
        assert_eq!(attrs[1].chain[0].node, NodeId(1));
    }

    /// Unbalanced streams (open spans at drain time) must not panic or
    /// produce phantom windows.
    #[test]
    fn open_spans_are_dropped() {
        let t = ThreadEvents {
            tid: 1,
            thread_name: None,
            dropped: 0,
            events: vec![ev("exec.update", "exec", Phase::Begin, 0.0, vec![])],
        };
        assert!(analyze(&diamond(), &[t]).is_empty());
    }
}
