//! Machine-readable bench results: every table/figure binary writes a
//! versioned `results/<bin>.json` next to its human-readable table, so
//! runs can be diffed, plotted and regression-checked without scraping
//! stdout.
//!
//! File layout (schema v1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bin": "table3",
//!   "processors": 8,
//!   "host": { "available_parallelism": 8, "workers": 8 },
//!   "rows": [
//!     {
//!       "trace": "#6", "scheduler": "Hybrid",
//!       "makespan_s": 1.23, "sched_overhead_s": 0.04,
//!       "executed": 50000, "utilization": 0.87,
//!       "wall_seconds": 0.011, "precompute_seconds": 0.002,
//!       "peak_space_bytes": 400000, "over_budget": false,
//!       "overhead_ops": { "bucket_ops": 1, ... , "total_ops": 9 },
//!       "peak_gauges": { "lb.frontier_bucket_depth": 17, ... }
//!     }
//!   ],
//!   "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} }
//! }
//! ```

use crate::Measurement;
use incr_obs::json::obj;
use incr_obs::Json;
use std::io;
use std::path::{Path, PathBuf};

/// Bump on any incompatible change to the row layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Default output directory, relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// Accumulates rows for one binary's `results/<bin>.json`.
pub struct ResultsWriter {
    bin: String,
    processors: usize,
    workers: Option<usize>,
    rows: Vec<Json>,
}

/// Detected hardware parallelism of the machine the bench ran on (1 if
/// detection fails). Recorded in every results document so A/B numbers
/// stay interpretable across machines.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ResultsWriter {
    /// `bin` names the experiment (and the output file); `processors` is
    /// the common simulated processor count (0 when it varies per row or
    /// the experiment does not simulate).
    pub fn new(bin: &str, processors: usize) -> ResultsWriter {
        ResultsWriter {
            bin: bin.to_string(),
            processors,
            workers: None,
            rows: Vec::new(),
        }
    }

    /// Record the real executor worker-thread count the experiment ran
    /// with (as opposed to `processors`, the paper's *simulated* count).
    /// Unset means the experiment did not run real threads.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = Some(workers);
    }

    /// Append the standard row for one scheduler-on-trace measurement.
    pub fn push_measurement(&mut self, trace: &str, m: &Measurement) {
        let row = measurement_row(trace, self.processors, m);
        self.rows.push(row);
    }

    /// Append a custom row (experiments with extra columns build their
    /// own objects; keep `trace` and `scheduler` fields for uniformity).
    pub fn push_row(&mut self, row: Json) {
        self.rows.push(row);
    }

    /// The full document, including a snapshot of the global metrics
    /// registry (peak gauges, protocol counters) at call time.
    pub fn to_value(&self) -> Json {
        let host = obj([
            ("available_parallelism", available_parallelism().into()),
            (
                "workers",
                self.workers.map_or(Json::Null, |w| w.into()),
            ),
        ]);
        obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("bin", self.bin.as_str().into()),
            ("processors", self.processors.into()),
            ("host", host),
            ("rows", Json::Arr(self.rows.clone())),
            ("metrics", incr_obs::registry().snapshot()),
        ])
    }

    /// Write `dir/<bin>.json`, creating `dir` if needed.
    ///
    /// Refuses to overwrite an existing results file whose
    /// `schema_version` differs from [`SCHEMA_VERSION`]: a stale file
    /// from an older layout must be migrated (or deleted) consciously,
    /// not silently clobbered — and, symmetrically, an old binary must
    /// not downgrade a newer file.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.bin));
        if let Ok(existing) = std::fs::read_to_string(&path) {
            let found = Json::parse(&existing)
                .ok()
                .and_then(|doc| doc.get("schema_version").and_then(Json::as_u64));
            if found != Some(SCHEMA_VERSION) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "{} has schema_version {:?}, this binary writes v{}; \
                         delete the stale file to regenerate it",
                        path.display(),
                        found,
                        SCHEMA_VERSION
                    ),
                ));
            }
        }
        std::fs::write(&path, self.to_value().to_json())?;
        Ok(path)
    }

    /// Write to the default `results/` directory and report the path on
    /// stdout (non-fatal on failure: the human-readable table already
    /// went out, so a read-only filesystem only costs the JSON copy).
    pub fn write_default(&self) {
        match self.write_to(Path::new(RESULTS_DIR)) {
            Ok(path) => println!("results: {}", path.display()),
            Err(e) => eprintln!("results: cannot write {RESULTS_DIR}/{}.json: {e}", self.bin),
        }
    }
}

/// The standard per-measurement row (see the module docs for the schema).
pub fn measurement_row(trace: &str, processors: usize, m: &Measurement) -> Json {
    obj([
        ("trace", trace.into()),
        ("scheduler", m.label.as_str().into()),
        ("makespan_s", m.result.makespan.into()),
        ("sched_overhead_s", m.result.sched_overhead.into()),
        ("executed", m.result.executed.into()),
        ("utilization", m.result.utilization(processors).into()),
        ("wall_seconds", m.wall_seconds.into()),
        ("precompute_seconds", m.precompute_seconds.into()),
        ("peak_space_bytes", m.result.peak_space.into()),
        ("precompute_space_bytes", m.result.precompute_space.into()),
        ("over_budget", m.result.over_budget.into()),
        ("overhead_ops", m.result.cost.to_value()),
        ("peak_gauges", peak_gauges()),
    ])
}

/// Current peak of every gauge in the global registry, as one flat
/// object — queue depths, level frontier, interval-list size at their
/// high-water marks.
pub fn peak_gauges() -> Json {
    let snap = incr_obs::registry().snapshot();
    let mut peaks: Vec<(String, Json)> = Vec::new();
    if let Some(gauges) = snap.get("gauges").and_then(Json::as_obj) {
        for (name, g) in gauges {
            if let Some(p) = g.get("peak") {
                peaks.push((name.clone(), p.clone()));
            }
        }
    }
    Json::Obj(peaks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use incr_dag::{DagBuilder, NodeId};
    use incr_sched::{Instance, SchedulerKind};
    use incr_sim::EventSimConfig;
    use std::sync::Arc;

    fn tiny_measurement() -> Measurement {
        let mut b = DagBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        let dag = Arc::new(b.build().unwrap());
        let mut inst = Instance::unit(dag, vec![NodeId(0)]);
        inst.fired[0] = vec![NodeId(1)];
        measure(SchedulerKind::Hybrid, &inst, &EventSimConfig::default())
    }

    #[test]
    fn document_round_trips_and_carries_schema() {
        let mut w = ResultsWriter::new("unit_test", 8);
        w.push_measurement("#0", &tiny_measurement());
        let doc = Json::parse(&w.to_value().to_json()).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("bin").unwrap().as_str(), Some("unit_test"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.get("scheduler").unwrap().as_str(), Some("Hybrid"));
        assert!(row.get("makespan_s").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(row.get("executed").unwrap().as_u64(), Some(2));
        let ops = row.get("overhead_ops").unwrap();
        assert!(ops.get("total_ops").unwrap().as_u64().unwrap() > 0);
        assert!(row.get("peak_gauges").unwrap().as_obj().is_some());
    }

    #[test]
    fn host_metadata_records_parallelism_and_workers() {
        let mut w = ResultsWriter::new("host_test", 0);
        let doc = Json::parse(&w.to_value().to_json()).unwrap();
        let host = doc.get("host").unwrap();
        let ap = host.get("available_parallelism").unwrap().as_u64().unwrap();
        assert!(ap >= 1, "detected parallelism must be at least 1");
        assert!(matches!(host.get("workers"), Some(Json::Null)));
        w.set_workers(4);
        let doc = Json::parse(&w.to_value().to_json()).unwrap();
        let host = doc.get("host").unwrap();
        assert_eq!(host.get("workers").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn writes_a_parseable_file() {
        let dir = std::env::temp_dir().join("incr_bench_results_test");
        let mut w = ResultsWriter::new("write_test", 8);
        w.push_measurement("#0", &tiny_measurement());
        let path = w.write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuses_to_clobber_mismatched_schema() {
        let dir = std::env::temp_dir().join("incr_bench_schema_guard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let w = ResultsWriter::new("guard_test", 8);
        let path = dir.join("guard_test.json");

        // Stale versioned file (older schema) → refused.
        std::fs::write(&path, "{\"schema_version\": 0, \"rows\": []}").unwrap();
        assert!(w.write_to(&dir).is_err(), "must refuse schema_version 0");
        // Unversioned junk (legacy .txt renamed, hand-edited) → refused.
        std::fs::write(&path, "not json at all").unwrap();
        assert!(w.write_to(&dir).is_err(), "must refuse unparseable file");
        // Matching schema → overwritten in place.
        std::fs::write(&path, "{\"schema_version\": 1}").unwrap();
        let written = w.write_to(&dir).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(doc.get("bin").unwrap().as_str(), Some("guard_test"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
