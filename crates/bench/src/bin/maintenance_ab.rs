//! Maintenance-backend A/B: DRed vs counting (FBF) on the MulVAL-style
//! dynamic attack-graph workload, swept across insert:delete ratios and
//! schedulers. Writes `results/maintenance_ab.json` (ResultsWriter
//! schema v1).
//!
//! Usage: `cargo run --release -p incr-bench --bin maintenance_ab [--smoke]`
//!
//! `--smoke` shrinks the instance for CI. Either way the run asserts that
//! DRed and FBF leave the same database, and *records* FBF's updates/s
//! over DRed's per delete share (aggregated over all schedulers) without
//! asserting it: which backend is faster is a measurement for the perf
//! ledger to track, not a property of correct code.

use incr_bench::{fmt_secs, AttackConfig, AttackWorkload, ResultsWriter, Table};
use incr_datalog::{EvalOptions, FactEdit, IncrementalEngine, MaintenanceStrategy};
use incr_obs::json::obj;
use incr_sched::SchedulerKind;
use std::time::Instant;

const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::LevelBased,
    SchedulerKind::LogicBlox,
    SchedulerKind::SignalPropagation,
    SchedulerKind::Hybrid,
];

const STRATEGIES: [MaintenanceStrategy; 2] = [MaintenanceStrategy::DRed, MaintenanceStrategy::Fbf];

/// Replay the same batches through one engine; returns wall seconds and
/// the final derived-tuple counts (for cross-strategy agreement checks).
fn run_one(
    program: &str,
    strategy: MaintenanceStrategy,
    kind: SchedulerKind,
    batches: &[Vec<FactEdit>],
) -> (f64, [usize; 3]) {
    let opts = EvalOptions::default().with_maintenance(strategy);
    let mut engine =
        IncrementalEngine::with_options(program, opts).expect("attack program compiles");
    let mut sched = kind.build(engine.dag().clone());
    let t0 = Instant::now();
    for b in batches {
        engine.update(sched.as_mut(), b).expect("update applies");
    }
    let wall = t0.elapsed().as_secs_f64();
    let counts = [
        engine.count("vulnerable") + engine.count("exposed"),
        engine.count("two_hop") + engine.count("wide_open"),
        engine.count("compromised"),
    ];
    (wall, counts)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        AttackConfig::smoke()
    } else {
        AttackConfig::full()
    };
    let (nbatches, batch_size) = if smoke { (50, 20) } else { (100, 40) };
    println!(
        "maintenance A/B: {} hosts, {} batches x {} edits{}",
        cfg.hosts,
        nbatches,
        batch_size,
        if smoke { " (smoke)" } else { "" }
    );

    let mut writer = ResultsWriter::new("maintenance_ab", 0);
    writer.set_workers(1);
    let mut table = Table::new(&[
        "delete%",
        "scheduler",
        "strategy",
        "updates/s",
        "wall",
        "speedup",
    ]);

    // Per delete share: FBF's updates/s over DRed's, all schedulers.
    let mut ratios: Vec<(u64, f64)> = Vec::new();

    for pct in [10u64, 50, 90] {
        let mut pct_wall = [0.0f64; 2];
        // One workload per ratio: every strategy x scheduler replays the
        // IDENTICAL program and edit stream.
        let mut w = AttackWorkload::new(&cfg);
        let program = w.program().to_string();
        let batches: Vec<Vec<FactEdit>> =
            (0..nbatches).map(|_| w.batch(batch_size, pct)).collect();

        for kind in SCHEDULERS {
            let mut walls = [0.0f64; 2];
            let mut finals: [[usize; 3]; 2] = [[0; 3]; 2];
            for (si, strategy) in STRATEGIES.iter().enumerate() {
                let (wall, counts) = run_one(&program, *strategy, kind, &batches);
                walls[si] = wall;
                finals[si] = counts;
                pct_wall[si] += wall;
            }
            assert_eq!(
                finals[0], finals[1],
                "DRed and FBF disagree on the final database ({} @ {pct}%)",
                kind.label()
            );
            for (si, strategy) in STRATEGIES.iter().enumerate() {
                let ups = nbatches as f64 / walls[si];
                let speedup = walls[0] / walls[si];
                table.row(vec![
                    format!("{pct}"),
                    kind.label(),
                    strategy.label().to_string(),
                    format!("{ups:.0}"),
                    fmt_secs(walls[si]),
                    format!("{speedup:.2}x"),
                ]);
                writer.push_row(obj([
                    ("trace", format!("delete={pct}%").as_str().into()),
                    ("scheduler", kind.label().as_str().into()),
                    ("strategy", strategy.label().into()),
                    ("delete_pct", pct.into()),
                    ("batches", (nbatches as u64).into()),
                    ("edits_per_batch", (batch_size as u64).into()),
                    ("wall_seconds", walls[si].into()),
                    ("updates_per_s", ups.into()),
                    ("speedup_vs_dred", speedup.into()),
                    ("smoke", smoke.into()),
                ]));
            }
        }
        let ratio = pct_wall[0] / pct_wall[1];
        ratios.push((pct, ratio));
        writer.push_row(obj([
            ("trace", format!("delete={pct}%").as_str().into()),
            ("scheduler", "all".into()),
            ("delete_pct", pct.into()),
            ("fbf_over_dred_updates_per_s", ratio.into()),
            ("smoke", smoke.into()),
        ]));
    }

    println!("\n{}", table.render());
    for (pct, ratio) in ratios {
        println!("{pct}% deletes, all schedulers: FBF {ratio:.2}x DRed updates/s (recorded)");
    }
    writer.write_default();
}
