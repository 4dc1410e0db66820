//! Datalog evaluation hot-path benchmark: materialise / delete / reinsert
//! on an n≈300 transitive closure (the delete-vs-rematerialise yardstick),
//! and the planner's index-hit / full-scan counters on a multi-bound join,
//! written to `results/datalog_perf.json` (ResultsWriter schema v1) so the
//! perf trajectory is machine-readable.
//!
//! Usage: `cargo run --release -p incr-bench --bin datalog_perf [--smoke]`
//!
//! `--smoke` shrinks the instances for CI (seconds, not minutes).

use incr_bench::{fmt_secs, ResultsWriter, Table};
use incr_datalog::{FactEdit, IncrementalEngine};
use incr_obs::json::obj;
use incr_obs::Json;
use incr_sched::LevelBased;
use std::time::Instant;

/// Deterministic LCG (same constants as Numerical Recipes) — the graph
/// must be identical across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Ring of `n` nodes (one big SCC, closure = n² paths) plus two random
/// out-edges per node (small diameter, so semi-naive rounds carry large
/// deltas).
fn tc_graph(n: u64) -> (String, Vec<(String, String)>) {
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let mut src = String::from(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).\n",
    );
    let mut edges = Vec::new();
    for i in 0..n {
        let mut push = |a: u64, b: u64| {
            src.push_str(&format!("edge(v{a}, v{b}).\n"));
            edges.push((format!("v{a}"), format!("v{b}")));
        };
        push(i, (i + 1) % n);
        push(i, rng.next(n));
        push(i, rng.next(n));
    }
    (src, edges)
}

/// The incremental edit: delete `k` spread-out ring edges (heavy DRed —
/// overdeletion cascades through the closure, rederivation probes for
/// surviving alternatives), then re-insert them.
fn edit_set(n: u64, k: u64) -> Vec<(String, String)> {
    (0..k)
        .map(|j| {
            let i = j * (n / k);
            (format!("v{i}"), format!("v{}", (i + 1) % n))
        })
        .collect()
}

struct TcTimings {
    materialize: f64,
    delete: f64,
    reinsert: f64,
    path_tuples: usize,
}

fn run_tc(src: &str, edits: &[(String, String)]) -> TcTimings {
    let t0 = Instant::now();
    let mut engine = IncrementalEngine::new(src).expect("valid program");
    let materialize = t0.elapsed().as_secs_f64();

    let removes: Vec<FactEdit> = edits
        .iter()
        .map(|(a, b)| FactEdit::remove("edge", &[a, b]))
        .collect();
    let mut sched = LevelBased::new(engine.dag().clone());
    let t0 = Instant::now();
    engine.update(&mut sched, &removes).expect("delete applies");
    let delete = t0.elapsed().as_secs_f64();

    let adds: Vec<FactEdit> = edits
        .iter()
        .map(|(a, b)| FactEdit::add("edge", &[a, b]))
        .collect();
    let mut sched = LevelBased::new(engine.dag().clone());
    let t0 = Instant::now();
    engine.update(&mut sched, &adds).expect("insert applies");
    let reinsert = t0.elapsed().as_secs_f64();

    TcTimings {
        materialize,
        delete,
        reinsert,
        path_tuples: engine.count("path"),
    }
}

/// Multi-bound join: `link`'s first column is unbound when it is reached,
/// so the planner must probe the `[1, 2]` index — a plan that could only
/// index column 0 would scan `link` once per outer row.
fn multi_bound_src(rows: u64) -> String {
    let mut rng = Lcg(0x51a7b2c93d4e5f60);
    let mut src = String::from("joined(A, D) :- fact3(A, B, C), link(D, B, C).\n");
    // Join keys from a fixed 50x50 domain: ~rows²/2500 result tuples, so
    // probes hit real buckets instead of missing everywhere.
    let dom = 50;
    for i in 0..rows {
        let b = rng.next(dom);
        let c = rng.next(dom);
        src.push_str(&format!("fact3(a{i}, b{b}, c{c}).\n"));
        let b2 = rng.next(dom);
        let c2 = rng.next(dom);
        src.push_str(&format!("link(d{i}, b{b2}, c{c2}).\n"));
    }
    src
}

fn counter(snap: &Json, name: &str) -> u64 {
    snap.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, k, join_rows) = if smoke { (80, 8, 500) } else { (300, 10, 2000) };
    let mut results = ResultsWriter::new("datalog_perf", 0);

    // ---- Workload 1: transitive-closure materialise, delete, reinsert. ----
    println!("datalog_perf: transitive closure n={n}, {k} edges deleted+reinserted\n");
    let (src, _edges) = tc_graph(n);
    let edits = edit_set(n, k);
    incr_obs::registry().reset();
    let tm = run_tc(&src, &edits);
    let mut t = Table::new(&["materialize", "delete", "reinsert", "path"]);
    t.row(vec![
        fmt_secs(tm.materialize),
        fmt_secs(tm.delete),
        fmt_secs(tm.reinsert),
        tm.path_tuples.to_string(),
    ]);
    println!("{}", t.render());
    results.push_row(obj([
        ("workload", "tc_incremental".into()),
        ("n", n.into()),
        ("deleted_edges", k.into()),
        ("materialize_seconds", tm.materialize.into()),
        ("delete_seconds", tm.delete.into()),
        ("reinsert_seconds", tm.reinsert.into()),
        ("path_tuples", tm.path_tuples.into()),
    ]));

    // ---- Workload 2: multi-bound join, planner counters. ----
    println!("multi-bound join: {join_rows} rows per relation\n");
    let join_src = multi_bound_src(join_rows);
    incr_obs::registry().reset();
    let t0 = Instant::now();
    let engine = IncrementalEngine::new(&join_src).expect("valid program");
    let wall = t0.elapsed().as_secs_f64();
    let joined = engine.count("joined");
    let snap = incr_obs::registry().snapshot();
    let (hits, misses, scans, builds) = (
        counter(&snap, "datalog.index.hit"),
        counter(&snap, "datalog.index.miss"),
        counter(&snap, "datalog.scan.full"),
        counter(&snap, "datalog.index.build"),
    );
    let mut t = Table::new(&["wall", "index_hits", "misses", "full_scans", "joined"]);
    t.row(vec![
        fmt_secs(wall),
        hits.to_string(),
        misses.to_string(),
        scans.to_string(),
        joined.to_string(),
    ]);
    println!("{}", t.render());
    results.push_row(obj([
        ("workload", "multi_bound_join".into()),
        ("rows", join_rows.into()),
        ("wall_seconds", wall.into()),
        ("index_hits", hits.into()),
        ("index_misses", misses.into()),
        ("full_scans", scans.into()),
        ("index_builds", builds.into()),
        ("joined_tuples", joined.into()),
    ]));
    assert!(hits > 0, "the join must hit the [1, 2] index");
    assert!(
        scans < join_rows,
        "index probes must replace per-row scans ({scans} full scans over {join_rows} outer rows)"
    );

    results.write_default();
}
