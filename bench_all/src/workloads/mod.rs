//! The Datalog workloads' input generators. Each builds its rules, its
//! initial base facts and an endless, deterministic edit stream from
//! `--seed`; the program under test only ever sees the generated text and
//! edits.
//!
//! The generators are owned by the benchmark (the attack-graph one is a
//! copy of `crates/bench/src/attack.rs`, not an import) so that later
//! edits to `incr-bench` cannot change what a workload name means.

pub mod attack;
pub mod retail;
pub mod tc;

use crate::stats::{burst_schedule, jittered_schedule, InputHash, Rng};
use incr_datalog::FactEdit;
use std::collections::BTreeSet;
use std::time::Duration;

/// One base fact: predicate and argument texts.
pub type Fact = (&'static str, Vec<String>);

/// An endless stream of logical updates (each a list of base-table edits).
pub trait EditStream {
    fn next_update(&mut self) -> Vec<FactEdit>;
}

/// How updates arrive in the open-loop phase.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    Jittered { per_s: f64 },
    Bursts { size: usize, period: Duration },
}

impl Arrivals {
    pub fn schedule(self, rng: &mut Rng, horizon: Duration) -> Vec<Duration> {
        match self {
            Arrivals::Jittered { per_s } => jittered_schedule(rng, per_s, horizon),
            Arrivals::Bursts { size, period } => burst_schedule(size, period, horizon),
        }
    }

    pub fn describe(self) -> String {
        match self {
            Arrivals::Jittered { per_s } => {
                format!("open loop, {per_s}/s, gaps 0.5-1.5 of the mean")
            }
            Arrivals::Bursts { size, period } => format!(
                "open loop, bursts of {size} every {} ms ({}/s mean)",
                period.as_millis(),
                size as f64 / period.as_secs_f64()
            ),
        }
    }
}

/// The read side: a point lookup cycling over `k`, and a pattern scan.
#[derive(Clone, Copy)]
pub struct Queries {
    pub point_pred: &'static str,
    pub point_args: fn(usize) -> Vec<String>,
    pub scan_pattern: &'static str,
}

/// A Datalog workload's generated inputs.
pub struct DatalogInput {
    pub rules: &'static str,
    pub facts: Vec<Fact>,
    pub stream: Box<dyn EditStream>,
    pub arrivals: Arrivals,
    pub queries: Queries,
    /// Run a snapshot reader thread beside the writer in the open loop.
    pub reader_thread: bool,
    /// In the traced run, also stream the backlog through a 2-shard
    /// `ShardedEngine`.
    pub shard_pass: bool,
}

/// Build the inputs of the Datalog workload `name` (`None`: not one).
pub fn datalog_input(name: &str, seed: u64) -> Option<DatalogInput> {
    match name {
        "attack_churn" => Some(attack::input(seed)),
        "tc_churn" => Some(tc::input(seed)),
        "retail_burst" => Some(retail::input(seed)),
        _ => None,
    }
}

fn render_fact(out: &mut String, pred: &str, args: &[String]) {
    out.push_str(pred);
    out.push('(');
    out.push_str(&args.join(", "));
    out.push_str(").\n");
}

/// Rules plus facts as one Datalog source text.
pub fn program_text<'a>(
    rules: &str,
    facts: impl IntoIterator<Item = (&'a str, &'a [String])>,
) -> String {
    let mut src = String::from(rules);
    for (pred, args) in facts {
        render_fact(&mut src, pred, args);
    }
    src
}

/// The benchmark's own model of the base tables: the oracle rebuilds the
/// database from this, never from the engine under test.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BaseModel(BTreeSet<(String, Vec<String>)>);

impl BaseModel {
    pub fn new(facts: &[Fact]) -> BaseModel {
        BaseModel(
            facts
                .iter()
                .map(|(p, a)| (p.to_string(), a.clone()))
                .collect(),
        )
    }

    pub fn apply(&mut self, edits: &[FactEdit]) {
        for e in edits {
            match e {
                FactEdit::Add { pred, args } => {
                    self.0.insert((pred.clone(), args.clone()));
                }
                FactEdit::Remove { pred, args } => {
                    self.0.remove(&(pred.clone(), args.clone()));
                }
            }
        }
    }

    pub fn program(&self, rules: &str) -> String {
        program_text(
            rules,
            self.0.iter().map(|(p, a)| (p.as_str(), a.as_slice())),
        )
    }
}

pub fn hash_edits(h: &mut InputHash, edits: &[FactEdit]) {
    for e in edits {
        h.text(match e {
            FactEdit::Add { .. } => "+",
            FactEdit::Remove { .. } => "-",
        });
        h.text(e.pred_name());
        for a in e.arg_texts() {
            h.text(a);
        }
    }
    h.text(";");
}

pub fn hash_schedule(h: &mut InputHash, due: &[Duration]) {
    for d in due {
        h.number(d.as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Program text, the first 200 updates and a 10 s schedule, hashed.
    fn fingerprint(name: &str, seed: u64) -> u64 {
        let mut input = datalog_input(name, seed).unwrap();
        let mut h = InputHash::new();
        h.text(&program_text(
            input.rules,
            input.facts.iter().map(|(p, a)| (*p, a.as_slice())),
        ));
        for _ in 0..200 {
            hash_edits(&mut h, &input.stream.next_update());
        }
        let mut rng = Rng::new(seed);
        hash_schedule(
            &mut h,
            &input.arrivals.schedule(&mut rng, Duration::from_secs(10)),
        );
        h.finish()
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for name in ["attack_churn", "tc_churn", "retail_burst"] {
            assert_eq!(fingerprint(name, 5), fingerprint(name, 5), "{name}");
            assert_ne!(fingerprint(name, 5), fingerprint(name, 6), "{name}");
        }
    }

    /// The attack graph's base tables keep their starting sizes to within
    /// the edits of one update, however long the stream runs.
    #[test]
    fn attack_stream_keeps_every_base_table_at_its_starting_size() {
        let mut input = datalog_input("attack_churn", 4).unwrap();
        let count = |model: &BaseModel, pred: &str| model.0.iter().filter(|f| f.0 == pred).count();
        let mut model = BaseModel::new(&input.facts);
        let start: Vec<usize> = ["service", "hacl", "vuln"]
            .iter()
            .map(|p| count(&model, p))
            .collect();
        let (mut deletes, mut edits) = (0usize, 0usize);
        for _ in 0..2_000 {
            let update = input.stream.next_update();
            edits += update.len();
            deletes += update
                .iter()
                .filter(|e| matches!(e, FactEdit::Remove { .. }))
                .count();
            model.apply(&update);
            for (pred, &at_start) in ["service", "hacl", "vuln"].iter().zip(&start) {
                assert!(count(&model, pred).abs_diff(at_start) <= 1, "{pred}");
            }
        }
        let share = deletes as f64 / edits as f64;
        assert!(
            (share - 0.5).abs() < 0.01,
            "deletes are {share} of all edits"
        );
    }

    #[test]
    fn streams_only_delete_present_and_insert_absent_facts() {
        for name in ["attack_churn", "tc_churn", "retail_burst"] {
            let mut input = datalog_input(name, 2).unwrap();
            let mut model = BaseModel::new(&input.facts);
            assert_eq!(
                model.0.len(),
                input.facts.len(),
                "{name}: duplicate initial facts"
            );
            for _ in 0..500 {
                for e in input.stream.next_update() {
                    let key = (e.pred_name().to_string(), e.arg_texts().to_vec());
                    match e {
                        FactEdit::Add { .. } => assert!(model.0.insert(key), "{name}: re-add"),
                        FactEdit::Remove { .. } => assert!(model.0.remove(&key), "{name}: absent"),
                    }
                }
            }
        }
    }
}
