//! Per-layer measurements that need a pass of their own in the traced
//! run: the `rel` micro-probe, the 2-shard pass and the scheduler
//! comparison.

use crate::service::{PhaseStats, Sched, Service, MAX_COALESCE, SCHEDULER};
use crate::stats::{median, Rng};
use crate::workloads::{BaseModel, DatalogInput};
use incr_datalog::rel::PredId;
use incr_datalog::{FactEdit, IncrementalEngine, Relation, ShardedEngine, Value};
use incr_sched::SchedulerKind;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per operation on a standalone 100k-tuple binary relation.
pub struct RelProbe {
    pub insert_ns: f64,
    pub remove_ns: f64,
    pub contains_ns: f64,
    pub probe_ns: f64,
}

const REL_TUPLES: usize = 100_000;
const REL_OPS: usize = 20_000;

pub fn rel_probe(seed: u64) -> RelProbe {
    let mut rng = Rng::new(seed ^ 0x2e1);
    // Distinct tuples: the first column spreads over 1000 keys, so an
    // index probe on it returns about 100 rows.
    let tuple = |i: usize| vec![Value::Int((i % 1000) as i64), Value::Int((i / 1000) as i64)];
    let mut rel = Relation::new(2);
    rel.ensure_index(&[0]);
    for i in 0..REL_TUPLES {
        rel.insert(tuple(i));
    }
    let fresh: Vec<_> = (0..REL_OPS).map(|i| tuple(REL_TUPLES + i)).collect();
    let picks: Vec<_> = (0..REL_OPS).map(|_| tuple(rng.below(REL_TUPLES))).collect();
    let per_op = |t: Instant| t.elapsed().as_nanos() as f64 / REL_OPS as f64;

    let t = Instant::now();
    for p in &picks {
        black_box(rel.contains(p));
    }
    let contains_ns = per_op(t);
    let t = Instant::now();
    for p in &picks {
        black_box(rel.probe(&[0], &p[..1]).map(|rows| rows.len()));
    }
    let probe_ns = per_op(t);
    let t = Instant::now();
    for f in &fresh {
        black_box(rel.insert(f.clone()));
    }
    let insert_ns = per_op(t);
    let t = Instant::now();
    for f in &fresh {
        black_box(rel.remove(f));
    }
    let remove_ns = per_op(t);
    RelProbe {
        insert_ns,
        remove_ns,
        contains_ns,
        probe_ns,
    }
}

pub struct ShardPass {
    pub update_ms: Vec<f64>,
    pub updates: usize,
    pub rounds: usize,
    pub exchanged_tuples: usize,
    pub wall: Duration,
    pub failed: usize,
    pub verdict: Result<(), String>,
}

impl ShardPass {
    pub fn updates_per_s(&self) -> f64 {
        self.updates as f64 / self.wall.as_secs_f64()
    }
}

/// Names of every predicate in `engine`'s database.
fn pred_names(engine: &IncrementalEngine) -> Vec<String> {
    let db = engine.database();
    (0..db.pred_count())
        .map(|i| db.pred_name(PredId(i as u32)).to_string())
        .collect()
}

/// The backlog stream through a 2-shard `ShardedEngine`, in the same
/// batches of [`MAX_COALESCE`] updates the unsharded loop absorbs, then a
/// cardinality check of every predicate against a from-scratch engine.
pub fn shard_pass(
    rules: &str,
    model: &mut BaseModel,
    input: &mut DatalogInput,
    budget: Duration,
) -> ShardPass {
    let mut sharded = ShardedEngine::new(&model.program(rules), 2, |dag| SCHEDULER.build(dag))
        .expect("model program shards");
    sharded.set_black_box(None);
    let mut pass = ShardPass {
        update_ms: Vec::new(),
        updates: 0,
        rounds: 0,
        exchanged_tuples: 0,
        wall: Duration::ZERO,
        failed: 0,
        verdict: Ok(()),
    };
    while pass.wall < budget {
        let mut edits: Vec<FactEdit> = Vec::new();
        for _ in 0..MAX_COALESCE {
            let update = input.stream.next_update();
            model.apply(&update);
            edits.extend(update);
        }
        let t = Instant::now();
        let result = sharded.update(&edits);
        let took = t.elapsed();
        pass.wall += took;
        pass.update_ms.push(took.as_secs_f64() * 1e3);
        pass.updates += MAX_COALESCE;
        match result {
            Ok(report) => {
                pass.rounds += report.rounds;
                pass.exchanged_tuples += report.exchanged_tuples;
            }
            Err(e) => {
                eprintln!("sharded update failed: {e}");
                pass.failed += MAX_COALESCE;
            }
        }
    }
    let fresh = IncrementalEngine::new(&model.program(rules)).expect("model program builds");
    for pred in pred_names(&fresh) {
        let (got, want) = (sharded.count(&pred), fresh.count(&pred));
        if got != want {
            pass.verdict = Err(format!(
                "sharded {pred} holds {got} tuples, from-scratch {want}"
            ));
            break;
        }
    }
    pass
}

/// Median milliseconds of one update under each scheduler.
pub struct SchedulerComparison {
    pub levelbased_ms: f64,
    pub logicblox_ms: f64,
    pub hybrid_ms: f64,
}

impl SchedulerComparison {
    /// Hybrid over the better of the two it combines (Theorem 10: ≤ 2).
    pub fn hybrid_over_best(&self) -> f64 {
        self.hybrid_ms / self.levelbased_ms.min(self.logicblox_ms)
    }
}

const COMPARISON_ROUNDS: usize = 5;

/// A few extra single updates under LevelBased, LogicBlox and Hybrid in
/// turn, each on a bare scheduler. They are real updates: the model
/// follows them and the oracle covers them.
pub fn compare_schedulers(
    service: &mut Service,
    input: &mut DatalogInput,
    model: &mut BaseModel,
) -> (SchedulerComparison, PhaseStats) {
    let kinds = [
        SchedulerKind::LevelBased,
        SchedulerKind::LogicBlox,
        SchedulerKind::Hybrid,
    ];
    let dag = service.engine.dag().clone();
    let mut scheds: Vec<Sched> = kinds
        .iter()
        .map(|k| Sched::Bare(k.build(dag.clone())))
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut all = PhaseStats::default();
    for _ in 0..COMPARISON_ROUNDS {
        for (sched, times) in scheds.iter_mut().zip(&mut times) {
            let update = input.stream.next_update();
            model.apply(&update);
            std::mem::swap(&mut service.sched, sched);
            let before = all.apply_ms.len();
            service.serve_batch(&mut all, std::slice::from_ref(&update), None);
            std::mem::swap(&mut service.sched, sched);
            times.extend_from_slice(&all.apply_ms[before..]);
        }
    }
    let comparison = SchedulerComparison {
        levelbased_ms: median(&times[0]),
        logicblox_ms: median(&times[1]),
        hybrid_ms: median(&times[2]),
    };
    (comparison, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_probe_reports_positive_times() {
        let p = rel_probe(1);
        for v in [p.insert_ns, p.remove_ns, p.contains_ns, p.probe_ns] {
            assert!(v > 0.0 && v.is_finite());
        }
    }
}
