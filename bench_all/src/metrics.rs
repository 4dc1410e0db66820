//! The metric tables — every name and unit the benchmark reports, in the
//! order `BENCHMARK.json` lists them (a test holds the two together) — and
//! the report that carries one run's values.

use crate::stats::{percentile, sorted, tail_percentile, TAIL_MIN_BEYOND};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The measuring window of one run, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

pub const WORKLOADS: [&str; 4] = ["attack_churn", "tc_churn", "retail_burst", "trace_wide"];

/// Measured with tracing off, bare scheduler, no wrappers.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("updates_per_s", "1/s"),
    m("update_p50_ms", "ms"),
    m("update_p95_ms", "ms"),
    m("tasks_per_s", "1/s"),
    m("peak_rss_mb", "MiB"),
];

/// Measured in the traced run; the prefix is the layer (module) name.
pub const PER_LAYER: &[MetricDef] = &[
    m("parser.parse_ms", "ms"),
    m("stratify.ms", "ms"),
    m("taskgraph.nodes", "count"),
    m("taskgraph.levels", "count"),
    m("eval.materialize_ms", "ms"),
    m("eval.materialize_tuples", "count"),
    m("eval.rematerialize_ms", "ms"),
    m("eval.index_hits", "count"),
    m("eval.index_misses", "count"),
    m("eval.full_scans", "count"),
    m("eval.index_builds", "count"),
    m("rel.insert_ns", "ns"),
    m("rel.remove_ns", "ns"),
    m("rel.contains_ns", "ns"),
    m("rel.probe_ns", "ns"),
    m("stream.enqueue_us", "us"),
    m("stream.coalesce_factor", "ratio"),
    m("stream.cancelled_pairs", "count"),
    m("stream.deduped", "count"),
    m("engine.apply_p50_ms", "ms"),
    m("engine.apply_p95_ms", "ms"),
    m("engine.queue_wait_p50_ms", "ms"),
    m("engine.queue_wait_p95_ms", "ms"),
    m("engine.tasks_per_apply", "count"),
    m("engine.edges_fired_per_apply", "count"),
    m("engine.task_p50_ms", "ms"),
    m("engine.task_max_share", "ratio"),
    m("engine.self_ms_per_apply", "ms"),
    m("incr.overdelete_ms", "ms"),
    m("incr.rederive_ms", "ms"),
    m("incr.insert_ms", "ms"),
    m("incr.update_over_rematerialize", "ratio"),
    m("fbf.saved_deletes", "count"),
    m("fbf.backward_checks", "count"),
    m("fbf.forward_rederive_ms", "ms"),
    m("par.default_over_sequential", "ratio"),
    m("mvcc.publish_ms_per_apply", "ms"),
    m("mvcc.snapshot_open_us", "us"),
    m("mvcc.point_read_us", "us"),
    m("mvcc.scan_read_us", "us"),
    m("mvcc.read_p50_us", "us"),
    m("mvcc.read_p99_us", "us"),
    m("mvcc.read_blocked_ratio", "ratio"),
    m("mvcc.rows_retained_peak", "count"),
    m("query.pattern_ms", "ms"),
    m("shard.update_p50_ms", "ms"),
    m("shard.rounds_per_update", "count"),
    m("shard.exchanged_tuples_per_update", "count"),
    m("shard.over_unsharded_ratio", "ratio"),
    m("core.sched_us_per_update", "us"),
    m("core.start_us", "us"),
    m("core.pop_us", "us"),
    m("core.complete_us", "us"),
    m("core.sched_share", "ratio"),
    m("core.cost_ops_per_update", "count"),
    m("core.precompute_ms", "ms"),
    m("core.precompute_bytes", "bytes"),
    m("core.space_bytes_peak", "bytes"),
    m("core.levelbased_update_ms", "ms"),
    m("core.logicblox_update_ms", "ms"),
    m("core.hybrid_over_best_ratio", "ratio"),
    m("runtime.coord_busy_fraction", "ratio"),
    m("runtime.coord_wait_ms", "ms"),
    m("runtime.task_body_share", "ratio"),
    m("runtime.dispatch_us_per_task", "us"),
    m("dag.nodes", "count"),
    m("dag.levels", "count"),
    m("traces.generate_ms", "ms"),
    m("obs.trace_overhead_ratio", "ratio"),
    m("bench.wake_lag_p99_us", "us"),
    m("bench.budget_coverage", "ratio"),
];

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    /// The `incr_obs` counter behind the metric no longer exists.
    Null,
    /// Needs more than one core; this host has one.
    Unmeasurable,
}

impl Value {
    pub fn text(&self) -> String {
        match self {
            Value::Num(v) => format!("{v}"),
            Value::Null => "null".into(),
            Value::Unmeasurable => "\"unmeasurable\"".into(),
        }
    }
}

impl From<Option<f64>> for Value {
    /// `None` = the counter the value is read from vanished.
    fn from(v: Option<f64>) -> Value {
        v.map_or(Value::Null, Value::Num)
    }
}

/// One run's metric values, with a free-form note per metric (sample
/// counts, which percentile, the base of a ratio).
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (Value, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: impl Into<Value>) {
        self.set_noted(name, value, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: impl Into<Value>, note: String) {
        self.values.insert(name, (value.into(), note));
    }

    pub fn num(&mut self, name: &'static str, value: f64) {
        self.set(name, Value::Num(value));
    }

    pub fn num_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set_noted(name, Value::Num(value), note);
    }

    /// The median of a latency sample under `p50`, and under `tail` its
    /// `cap`th percentile or the highest one the sample supports.
    pub fn latency(&mut self, p50: &'static str, tail: &'static str, cap: f64, samples: &[f64]) {
        self.latency_of(p50, tail, cap, samples, 1);
    }

    /// [`Self::latency`] of samples that each stand for `each`
    /// measurements of the same work.
    pub fn latency_of(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        cap: f64,
        samples: &[f64],
        each: usize,
    ) {
        let s = sorted(samples);
        let n = if each == 1 {
            format!("n={}", s.len())
        } else {
            format!("n={} x {each} replays", s.len())
        };
        self.num_noted(p50, percentile(&s, 50.0), n.clone());
        let (pct, value) = tail_percentile(&s, cap, TAIL_MIN_BEYOND.div_ceil(each));
        let note = if pct == cap {
            n
        } else {
            format!(
                "{n}: p{pct:.1}, the highest percentile with {TAIL_MIN_BEYOND} measurements beyond it"
            )
        };
        self.num_noted(tail, value, note);
    }

    /// Add `text` to the note of a metric already set.
    pub fn also(&mut self, name: &str, text: String) {
        if let Some((_, note)) = self.values.get_mut(name) {
            *note = format!("{note}; {text}");
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        match self.values.get(name) {
            Some((Value::Num(v), _)) => Some(*v),
            _ => None,
        }
    }

    /// Metrics of `table` this report holds no finite number for.
    pub fn missing(&self, table: &[MetricDef]) -> Vec<&'static str> {
        table
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// Every metric of `table` on its own line: name, value, unit, note.
    /// A metric nobody set — the workload never crosses that layer —
    /// prints `n/a`.
    pub fn print(&self, table: &[MetricDef]) {
        for d in table {
            let (value, note) = match self.values.get(d.name) {
                Some((v, n)) => (v.text(), n.as_str()),
                None => ("n/a".to_string(), ""),
            };
            let sep = if note.is_empty() { "" } else { "  # " };
            println!("  {:<36} {:>16} {:<6}{sep}{note}", d.name, value, d.unit);
        }
    }

    /// The `metrics` object of the result line. The contract wants a
    /// number for every metric, so `null`, `"unmeasurable"` and `n/a` read
    /// 0 here; the lines above the result tell them apart.
    pub fn json(&self, table: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, d) in table.iter().enumerate() {
            let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{comma}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_obs::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_and_units(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let j = benchmark_json();
        assert_eq!(names_and_units(&j, "end_to_end"), table(END_TO_END));
        assert_eq!(names_and_units(&j, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names_and_units(&j, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            j.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn result_json_has_a_number_for_every_metric() {
        let mut r = Report::default();
        r.num("setup_s", 1.25);
        r.set("updates_per_s", Value::Unmeasurable);
        let parsed = Json::parse(&r.json(END_TO_END)).expect("valid JSON");
        assert_eq!(parsed.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            parsed
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(
            parsed
                .get("updates_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(r.missing(END_TO_END).len(), END_TO_END.len() - 1);
    }
}
