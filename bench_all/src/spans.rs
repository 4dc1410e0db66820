//! The benchmark's own in-memory spans, recorded around calls into each
//! layer's public functions. In-program tracing (`incr_obs::trace`) stays
//! off in every run.
//!
//! Two kinds of span share one list. *Driver* spans partition the service
//! loop's (or the coordinator's) wall clock — `idle`, `stream.enqueue`,
//! `engine.apply` and its children — and make up the layer budget.
//! *Request* spans (`update`, `queue_wait`) follow one source update from
//! its due time to its publish; they overlap each other and stay out of
//! the budget.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    Request,
    Driver,
    /// Work on other threads (executor workers), aggregated.
    Worker,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Module the time belongs to (`core`, `engine`, `stream`, ...).
    pub layer: &'static str,
    pub track: Track,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Source update this span belongs to (the oldest of a batch).
    pub update: u64,
    /// Calls folded into this span (aggregated spans), else 1.
    pub calls: u64,
    /// Free-form detail, e.g. a task node's clique label.
    pub label: Option<String>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            list: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span and return its id (for use as a parent).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        track: Track,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        update: u64,
    ) -> usize {
        self.list.push(Span {
            name,
            layer,
            track,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            update,
            calls: 1,
            label: None,
        });
        self.list.len() - 1
    }

    /// An aggregated span: `calls` calls that together took `busy_ns`,
    /// the first starting at `start_ns`.
    #[allow(clippy::too_many_arguments)]
    pub fn push_aggregate(
        &mut self,
        name: &'static str,
        layer: &'static str,
        track: Track,
        start_ns: u64,
        busy_ns: u64,
        calls: u64,
        parent: Option<usize>,
        update: u64,
    ) -> usize {
        let id = self.push(
            name,
            layer,
            track,
            start_ns,
            start_ns + busy_ns,
            parent,
            update,
        );
        self.list[id].calls = calls;
        id
    }

    /// Self time per span: duration minus what its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.list.iter().map(Span::duration_ns).collect();
        for s in &self.list {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Driver-track self time summed per layer, in nanoseconds.
    pub fn layer_budget(&self) -> BTreeMap<&'static str, u64> {
        let mut budget = BTreeMap::new();
        for (s, own) in self.list.iter().zip(self.self_times()) {
            if s.track == Track::Driver {
                *budget.entry(s.layer).or_insert(0) += own;
            }
        }
        budget
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let track = match s.track {
                Track::Request => "request",
                Track::Driver => "driver",
                Track::Worker => "worker",
            };
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"track\":\"{track}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"update\":{},\"calls\":{}",
                s.name, s.layer, s.start_ns, s.end_ns, s.update, s.calls
            );
            if let Some(label) = &s.label {
                let _ = write!(
                    out,
                    ",\"label\":{}",
                    incr_obs::Json::Str(label.clone()).to_json()
                );
            }
            out.push_str(if id + 1 == self.list.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(Instant::now());
        let apply = s.push("engine.apply", "engine", Track::Driver, 100, 1_100, None, 7);
        s.push_aggregate(
            "core.pop",
            "core",
            Track::Driver,
            110,
            50,
            12,
            Some(apply),
            7,
        );
        let task = s.push(
            "engine.task",
            "engine",
            Track::Driver,
            200,
            900,
            Some(apply),
            7,
        );
        s.push("inner", "incr", Track::Driver, 300, 800, Some(task), 7);
        s.push("idle", "bench", Track::Driver, 1_100, 1_500, None, 7);
        s.push("update", "bench", Track::Request, 0, 1_100, None, 7);
        assert_eq!(s.self_times(), vec![250, 50, 200, 500, 400, 1_100]);
        let budget = s.layer_budget();
        assert_eq!(budget["engine"], 450);
        assert_eq!(budget["core"], 50);
        assert_eq!(budget["incr"], 500);
        assert_eq!(budget["bench"], 400, "request spans stay out of the budget");
        // Driver self times partition the driver's wall: 100..1500.
        assert_eq!(budget.values().sum::<u64>(), 1_400);
    }

    #[test]
    fn children_longer_than_the_parent_do_not_underflow() {
        let mut s = Spans::new(Instant::now());
        let p = s.push("p", "engine", Track::Driver, 0, 10, None, 0);
        s.push_aggregate("c", "core", Track::Driver, 0, 25, 3, Some(p), 0);
        assert_eq!(s.self_times()[p], 0);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut s = Spans::new(Instant::now());
        let p = s.push("engine.apply", "engine", Track::Driver, 0, 10, None, 3);
        let c = s.push("engine.task", "engine", Track::Driver, 1, 5, Some(p), 3);
        s.list[c].label = Some("path \"x\"".into());
        let parsed = incr_obs::Json::parse(&s.to_json()).expect("valid JSON");
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|j| j.as_u64()), Some(0));
        assert_eq!(
            arr[1].get("label").and_then(|j| j.as_str()),
            Some("path \"x\"")
        );
    }
}
