//! # incr-bench — table/figure regeneration harness
//!
//! One binary per table or figure in the paper's evaluation (see
//! DESIGN.md §5 for the experiment index), the trace tools, and the two
//! A/B bins that measure what the repository's benchmark (`bench_all/`,
//! `BENCHMARK.json`) has no workload for:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I — trace statistics |
//! | `table2` | Table II — LBL(k) sweep vs LogicBlox, traces #1–#5 |
//! | `table3` | Table III — makespan + overhead for LogicBlox / LevelBased / Hybrid, traces #6–#11 |
//! | `figure1` | Figure 1 — anatomy of trace #1 (+ DOT excerpt) |
//! | `figure2` | Figure 2 / Theorem 9 — the tight example sweep |
//! | `ablation_cost` | Theorem 2 cost scaling, LogicBlox `O(n³)` blow-up, price-vector sensitivity |
//! | `ablation_hybrid` | hybrid background-scan interleave sweep |
//! | `hundredx` | §VI's "100×" synthetic-instance anecdote |
//! | `meta_guarantee` | Theorem 10 / Corollary 11 meta-scheduler checks |
//! | `robustness` | Table II/III orderings across reseeded trace replicas |
//! | `export_traces` | the eleven presets as trace JSON files |
//! | `schedviz` | Gantt SVGs of the Figure 2 instance under LevelBased, LBL(5) and the exact oracle |
//! | `exec_throughput` | threaded-executor tasks/s on zero-work tasks across worker counts, batch sizes and DAG sizes |
//! | `obs_overhead` | flight recorder on/off and wrapped/plain scheduler overhead gate |
//!
//! This library holds the shared measurement helpers so every binary
//! reports the same quantities the same way.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attack;
pub mod results;

pub use attack::{AttackConfig, AttackWorkload};
pub use results::{measurement_row, peak_gauges, ResultsWriter, SCHEMA_VERSION};

use incr_sched::{Instance, SchedulerKind};
use incr_sim::{simulate_event, EventSimConfig, SimResult};
use std::time::Instant;

/// The paper's experimental setup: "All of the traces were simulated to
/// run with eight processors" (§VI-C).
pub const PAPER_PROCESSORS: usize = 8;

/// One scheduler's measurements on one instance.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub label: String,
    pub result: SimResult,
    /// Wall-clock seconds for the whole simulation.
    pub wall_seconds: f64,
    /// Wall-clock seconds spent building the scheduler (precomputation:
    /// levels, interval lists).
    pub precompute_seconds: f64,
}

/// Run one scheduler kind over an instance and collect measurements.
pub fn measure(kind: SchedulerKind, inst: &Instance, cfg: &EventSimConfig) -> Measurement {
    let t0 = Instant::now();
    let mut s = kind.build(inst.dag.clone());
    let precompute_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = simulate_event(s.as_mut(), inst, cfg);
    Measurement {
        label: kind.label(),
        result,
        wall_seconds: t1.elapsed().as_secs_f64(),
        precompute_seconds,
    }
}

/// Format seconds the way the paper's tables do (value + unit).
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s < 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s < 1.0 {
        format!("{:.3} s", s)
    } else if s < 100.0 {
        format!("{:.2} s", s)
    } else {
        format!("{:.1} s", s)
    }
}

/// Percentage difference `measured` vs `reference` (+ means larger).
pub fn pct_delta(measured: f64, reference: f64) -> String {
    if reference == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (measured - reference) / reference * 100.0)
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::{DagBuilder, NodeId};
    use std::sync::Arc;

    #[test]
    fn measure_runs_end_to_end() {
        let mut b = DagBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        let dag = Arc::new(b.build().unwrap());
        let mut inst = Instance::unit(dag, vec![NodeId(0)]);
        inst.fired[0] = vec![NodeId(1)];
        let m = measure(
            SchedulerKind::LevelBased,
            &inst,
            &EventSimConfig::default(),
        );
        assert_eq!(m.result.executed, 2);
        assert_eq!(m.label, "LevelBased");
    }

    #[test]
    fn fmt_secs_scales() {
        assert_eq!(fmt_secs(0.0), "0");
        assert!(fmt_secs(2e-5).ends_with("ms"));
        assert!(fmt_secs(0.5).ends_with('s'));
        assert!(fmt_secs(1234.5).starts_with("1234.5"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let out = t.render();
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn pct_delta_signs() {
        assert_eq!(pct_delta(110.0, 100.0), "+10.0%");
        assert_eq!(pct_delta(90.0, 100.0), "-10.0%");
        assert_eq!(pct_delta(1.0, 0.0), "n/a");
    }
}
