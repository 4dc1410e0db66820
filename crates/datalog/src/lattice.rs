//! One oracle over the configuration lattice. A seeded generator writes a
//! program of at most 20 predicates — an arity mix; linear, non-linear and
//! mutual recursion; negation; aggregates, each its predicate's only rule;
//! multi-bound joins and constants; program facts of derived predicates —
//! and a stream of steps: edit batches with duplicate, no-op,
//! insert-then-delete and malformed edits, and `add_rule` / `remove_rule`
//! changes, some of which must be refused. Each run takes one point of the
//! lattice (scheduler × 1, 2 or 3 shards × fault — a stall, a scheduler
//! panic, a panic inside a clique task or on a shard — × a snapshot pinned
//! mid-cascade), and after every step [`Run::check`] holds the engine to
//! stratified from-scratch evaluation of a model of its program and base
//! rows: eval(db ⊕ Δ) = eval(db) ⊕ maintain(db, Δ).
//!
//! A failure names its seed and point. Put the seed in [`SEEDS`], or a
//! program that needs its own shape in [`CORPUS`], and every test run
//! replays it.

use crate::ast::{Program, Rule};
use crate::engine::tests::QuotaStall;
use crate::engine::{EngineError, FactEdit, IncrementalEngine};
use crate::eval::{compile_program, load_facts, naive_fixpoint, CRule};
use crate::incr::tests::PANIC_AFTER_PHASE_1;
use crate::mvcc::{ReaderHandle, Snapshot};
use crate::parser::parse_program;
use crate::proptests::{AGG_RULES, NEG_RULES, PARITY_RULES, RTC_RULES, TRI_RULES};
use crate::rel::{Database, PredId};
use crate::shard::tests::silence_test_panics;
use crate::shard::{ShardFault, ShardedEngine};
use crate::stratify::stratify;
use incr_dag::{Dag, NodeId};
use incr_sched::{CostMeter, Scheduler, SchedulerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Generated programs per test run, each at one lattice point.
const CASES: u64 = 160;
/// Runs of each [`CORPUS`] program, at as many points.
const REPLAYS: u64 = 6;
/// Steps of every stream.
const STEPS: usize = 8;
/// The constants of facts, edits and rules: symbols and integers, so
/// every aggregate folds over both.
const DOMAIN: [&str; 6] = ["n0", "n1", "n2", "n3", "1", "-2"];

/// Generated cases that each caught a seeded defect, run first: 1 an
/// `end_epoch` that keeps a refused update, 4 a publish that vacuums past
/// the oldest pin, 9 a rule change that skips an added rule's output, 35
/// one that skips a removed rule's output, 207 an added aggregate folded
/// as if it had held before.
const SEEDS: &[u64] = &[1, 4, 9, 35, 207];

/// Programs with a shape worth keeping: ten rule sets over every shape of
/// recursion, negation, the attack graph and every aggregate operator;
/// then templates `ShardPlan` accepts, so the shard dimension meets them.
/// Base facts and streams are generated per run.
const CORPUS: &[&str] = &[
    // Left-linear closure, and negation over an upstream recursive clique.
    "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z). node(X) :- edge(X, Y).
     node(Y) :- edge(X, Y). reach(X) :- start(X). reach(Y) :- reach(X), edge(X, Y).
     cut(X) :- node(X), !reach(X). start(n0).",
    // Right-linear and non-linear closure.
    "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).",
    "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), path(Y, Z).",
    // Same generation.
    "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
    // Mutual recursion: a two-predicate clique.
    "even(X) :- zero(X). odd(Y) :- even(X), edge(X, Y). even(Y) :- odd(X), edge(X, Y).",
    // Two clique atoms in one body.
    "a(X, Y) :- edge(X, Y). b(X, Y) :- a(X, Y), mark(Y). a(X, Z) :- a(X, Y), b(Y, Z).",
    // Negation over a non-linear clique.
    "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), path(Y, Z). node(X) :- edge(X, Y).
     node(Y) :- edge(X, Y). apart(X, Y) :- node(X), node(Y), !path(X, Y).",
    // A program fact of the derived predicate itself, on a cycle.
    "reach(n0). reach(Y) :- reach(X), edge(X, Y). reach(Y) :- reach(X), hop(X, Y).",
    // The MulVAL attack graph: tuples with many derivations each.
    "vulnerable(H) :- service(H, P), vuln(P). exposed(D) :- hacl(S, D), vulnerable(D).
     compromised(H) :- attacker(H).
     compromised(D) :- compromised(S), hacl(S, D), vulnerable(D).",
    // Every aggregate operator: over an upstream negation and one in its
    // own body, over a join, with no group column, and over symbols.
    "blocked(X) :- edge(X, X). spend(X, V) :- amount(X, V), !blocked(X).
     total(X, sum(V)) :- spend(X, V). low(X, min(V)) :- spend(X, V).
     free(X, count(Y)) :- edge(X, Y), !blocked(Y). deg(X, count(Y)) :- edge(X, Y).
     peak(Y, max(V)) :- edge(X, Y), amount(X, V). grand(sum(V)) :- amount(X, V).
     labels(X, sum(Y)) :- edge(X, Y).",
    // A negated literal before the atoms that bind it.
    "far(X, Y) :- !near(X, Y), edge(X, Y). near(X, Y) :- edge(X, Z), edge(Z, Y).",
    RTC_RULES,
    AGG_RULES,
    PARITY_RULES,
    TRI_RULES,
    NEG_RULES,
];

/// A random program of at most 20 predicates: 2–4 base tables and 2–14
/// derived predicates of arity 1–3, each derived from the base tables,
/// the ones before it, itself and the next one; negation and aggregates
/// read only the ones before it. Drawn again until the engine takes it.
fn program(rng: &mut StdRng) -> String {
    loop {
        let preds = |n: usize, prefix: &str, rng: &mut StdRng| -> Vec<(String, usize)> {
            (0..n).map(|i| (format!("{prefix}{i}"), rng.gen_range(1..=3))).collect()
        };
        let base = preds(rng.gen_range(2..=4), "b", rng);
        let derived = preds(rng.gen_range(2..=14), "d", rng);
        let mut src = String::new();
        for (i, head) in derived.iter().enumerate() {
            let below: Vec<_> = base.iter().chain(&derived[..i]).collect();
            if rng.gen_bool(0.15) {
                src += &rule(rng, head, &below, &below, true);
                continue;
            }
            let inputs: Vec<_> = base.iter().chain(&derived[..derived.len().min(i + 2)]).collect();
            for _ in 0..rng.gen_range(1..=3) {
                src += &rule(rng, head, &inputs, &below, false);
            }
            if rng.gen_bool(0.2) {
                src += &fact(rng, head);
            }
        }
        if IncrementalEngine::new(&src).is_ok() {
            return src;
        }
    }
}

fn constant(rng: &mut StdRng) -> String {
    DOMAIN[rng.gen_range(0..DOMAIN.len())].to_string()
}

fn fact(rng: &mut StdRng, (pred, arity): &(String, usize)) -> String {
    let args: Vec<String> = (0..*arity).map(|_| constant(rng)).collect();
    format!("{pred}({}).\n", args.join(", "))
}

/// A safe rule for `head`: 1–3 atoms over `inputs`, whose shared variables
/// make multi-bound joins, perhaps a negated atom over `below`, and head
/// terms drawn from the bound variables or constants — the last one an
/// aggregate over a bound variable if `agg`.
fn rule(
    rng: &mut StdRng,
    (head, arity): &(String, usize),
    inputs: &[&(String, usize)],
    below: &[&(String, usize)],
    agg: bool,
) -> String {
    const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
    let mut bound = BTreeSet::from(["X"]);
    let mut body = Vec::new();
    for k in 0..rng.gen_range(1..=3) {
        let (p, a) = inputs[rng.gen_range(0..inputs.len())];
        let args: Vec<&str> = (0..*a)
            .map(|i| match (k == 0 && i == 0, rng.gen_bool(0.1)) {
                (true, _) => "X",
                (false, true) => DOMAIN[rng.gen_range(0..DOMAIN.len())],
                _ => VARS[rng.gen_range(0..VARS.len())],
            })
            .collect();
        bound.extend(args.iter().filter(|t| VARS.contains(t)));
        body.push(format!("{p}({})", args.join(", ")));
    }
    let bound: Vec<&str> = bound.into_iter().collect();
    let term = |rng: &mut StdRng| match rng.gen_bool(0.1) {
        true => constant(rng),
        false => bound[rng.gen_range(0..bound.len())].to_string(),
    };
    if !below.is_empty() && rng.gen_bool(0.25) {
        let (p, a) = below[rng.gen_range(0..below.len())];
        let negated = format!("!{p}({})", (0..*a).map(|_| term(rng)).collect::<Vec<_>>().join(", "));
        body.insert(rng.gen_range(0..=body.len()), negated);
    }
    let mut terms: Vec<String> = (0..*arity).map(|_| term(rng)).collect();
    if agg {
        let op = ["count", "sum", "min", "max"][rng.gen_range(0..4usize)];
        terms[*arity - 1] = format!("{op}({})", bound[rng.gen_range(0..bound.len())]);
    }
    format!("{head}({}) :- {}.\n", terms.join(", "), body.join(", "))
}

/// A base row: predicate and argument texts.
type Row = (String, Vec<String>);

/// What the engine should hold: its program (rules, and the facts it
/// states of derived predicates) and its base rows, changed the way the
/// engine documents, step by step.
#[derive(Clone)]
struct Model {
    program: Program,
    rows: BTreeSet<Row>,
    /// Every predicate of the first program, with its arity: what the
    /// engine's database holds for the whole run.
    known: BTreeMap<String, usize>,
}

impl Model {
    fn new(src: &str) -> Model {
        let parsed = parse_program(src).expect("a valid program");
        let known = parsed.predicate_arities().expect("consistent arities").into_iter().collect();
        let mut model = Model { program: parsed, rows: BTreeSet::new(), known };
        let derived = model.derived();
        let (facts, rules): (Vec<Rule>, Vec<Rule>) =
            model.program.rules.drain(..).partition(|r| r.is_fact() && !derived.contains(&r.head.pred));
        (model.rows, model.program.rules) = (facts.iter().map(row_of).collect(), rules);
        model
    }

    fn derived(&self) -> BTreeSet<String> {
        self.program.derived_predicates().into_iter().map(str::to_string).collect()
    }

    fn base(&self) -> Vec<(&String, &usize)> {
        let derived = self.derived();
        self.known.iter().filter(|(p, _)| !derived.contains(*p)).collect()
    }

    /// The model after `edits`, or `None` if the engine must refuse them.
    fn edited(&self, edits: &[FactEdit]) -> Option<Model> {
        let mut m = self.clone();
        let base = self.base();
        for e in edits {
            let row = (e.pred_name().to_string(), e.arg_texts().to_vec());
            base.iter().find(|&&(p, &a)| *p == row.0 && a == row.1.len())?;
            match e {
                FactEdit::Add { .. } => m.rows.insert(row),
                FactEdit::Remove { .. } => m.rows.remove(&row),
            };
        }
        Some(m)
    }

    /// The model after adding (or removing) the clause `text`, or `None` if
    /// the engine must refuse the change: a base row or an absent rule, an
    /// arity clash, an aggregate beside another rule or fact, or a program
    /// that is not stratified.
    fn changed(&self, text: &str, add: bool) -> Option<Model> {
        let rule = <[Rule; 1]>::try_from(parse_program(text).ok()?.rules).ok()?[0].clone();
        let head = rule.head.pred.clone();
        let mut m = self.clone();
        if add {
            let derived = self.derived().contains(&head);
            if rule.is_fact() && !derived {
                return None;
            }
            if !derived {
                let facts = m.rows.iter().filter(|(p, _)| *p == head).map(|(p, a)| fact_of(p, a));
                m.program.rules.extend(facts.collect::<Vec<_>>());
                m.rows.retain(|(p, _)| *p != head);
            }
            m.program.rules.push(rule);
        } else {
            let at = m.program.rules.iter().position(|r| *r == rule)?;
            m.program.rules.remove(at);
            if !m.derived().contains(&head) {
                let (facts, rules): (Vec<Rule>, Vec<Rule>) =
                    m.program.rules.drain(..).partition(|r| r.head.pred == head);
                m.program.rules = rules;
                m.rows.extend(facts.iter().map(row_of));
            }
        }
        let arities = m.program.predicate_arities().ok()?;
        let clash = arities.iter().any(|(p, a)| self.known.get(p).is_some_and(|k| k != a));
        (!clash && m.program.shared_aggregate().is_none() && stratify(&m.program).is_ok()).then_some(m)
    }

    /// Every extent, evaluated from scratch: `naive_fixpoint` once per
    /// clique, in `stratify`'s topological order, over the base rows.
    fn reference(&self) -> Vec<String> {
        let mut program = self.program.clone();
        program.rules.extend(self.rows.iter().map(|(p, a)| fact_of(p, a)));
        let strat = stratify(&program).expect("a stratified program");
        let mut db = Database::new();
        let rules = compile_program(&program, &mut db);
        load_facts(&program, &mut db);
        for &c in &strat.topo {
            let name = |r: &CRule| db.pred_name(r.head.pred).to_string();
            let in_clique = |r: &&CRule| strat.sccs[c].iter().any(|&p| strat.preds[p] == name(r));
            let clique: Vec<CRule> = rules.iter().filter(in_clique).cloned().collect();
            naive_fixpoint(&mut db, &clique);
        }
        db.image_at(None)
    }
}

fn row_of(fact: &Rule) -> Row {
    (fact.head.pred.clone(), fact.head.terms.iter().map(ToString::to_string).collect())
}

fn fact_of(pred: &str, args: &[String]) -> Rule {
    let text = format!("{pred}({}).", args.join(", "));
    parse_program(&text).expect("a fact").rules.remove(0)
}

/// One step of a stream.
#[derive(Debug)]
enum Step {
    Batch(Vec<FactEdit>),
    Change { text: String, add: bool },
}

/// The next step for `model`: a batch of one to five edits — inserts,
/// deletes of held rows, duplicates, no-ops, an insert taken back in the
/// same batch, now and then a malformed edit — or, where rule changes
/// run, removing a rule, putting back one removed, adding a random one or
/// one that must be refused.
fn step(rng: &mut StdRng, model: &Model, removed: &[String], changes: bool) -> Step {
    if changes && rng.gen_bool(0.3) {
        let rules = &model.program.rules;
        let known: Vec<(String, usize)> = model.known.iter().map(|(p, &a)| (p.clone(), a)).collect();
        let pick = rng.gen_range(0..known.len());
        let (text, add) = match rng.gen_range(0..10) {
            0..=2 if !rules.is_empty() => (rules[rng.gen_range(0..rules.len())].to_string(), false),
            3..=5 if !removed.is_empty() => (removed[rng.gen_range(0..removed.len())].clone(), true),
            6 => (fact(rng, &known[pick]), true),
            7 => (fact(rng, &(known[pick].0.clone(), known[pick].1 + 1)), true),
            _ => {
                let inputs: Vec<_> = known.iter().collect();
                let agg = rng.gen_bool(0.3);
                (rule(rng, &known[pick], &inputs, &inputs, agg), true)
            }
        };
        return Step::Change { text: text.trim().to_string(), add };
    }
    let base = model.base();
    if base.is_empty() {
        return Step::Batch(vec![FactEdit::add("nope", &["n0"])]);
    }
    let held: Vec<&Row> = model.rows.iter().collect();
    let mut edits: Vec<FactEdit> = Vec::new();
    // A third of the batches mostly delete, to stress prove-or-delete.
    let deletes = rng.gen_bool(0.3);
    for _ in 0..rng.gen_range(1..=5) {
        let (p, &a) = base[rng.gen_range(0..base.len())];
        let args: Vec<String> = (0..a).map(|_| constant(rng)).collect();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        match if deletes && rng.gen_bool(0.7) { 8 } else { rng.gen_range(0..20) } {
            0..=7 => edits.push(FactEdit::add(p, &args)),
            8..=12 if !held.is_empty() => {
                let (p, args) = held[rng.gen_range(0..held.len())];
                edits.push(FactEdit::remove(p, &args.iter().map(String::as_str).collect::<Vec<_>>()));
            }
            13..=14 if !edits.is_empty() => edits.push(edits[rng.gen_range(0..edits.len())].clone()),
            15..=16 => edits.extend([FactEdit::add(p, &args), FactEdit::remove(p, &args)]),
            17 if rng.gen_bool(0.5) => edits.push(FactEdit::add(p, &args[1..])),
            17 => {
                let bad = model.known.keys().find(|k| base.iter().all(|&(b, _)| b != *k));
                edits.push(FactEdit::add(bad.map_or("nope", String::as_str), &args));
            }
            _ => edits.push(FactEdit::remove(p, &args)),
        }
    }
    Step::Batch(edits)
}

/// A fault, armed on about half the steps of a run.
#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// The scheduler stalls after this many pops.
    Stall(usize),
    /// The scheduler panics at the pop after this many.
    Panic(usize),
    /// `ShardFault::Panic` at this (shard, round).
    ShardPanic(usize, usize),
    /// The first clique task that takes rows out of its heads panics right
    /// after (`incr::tests::PANIC_AFTER_PHASE_1`; unsharded points only,
    /// as the trip is per thread).
    TaskPanic,
}

/// A point of the configuration lattice.
#[derive(Clone, Copy, Debug)]
struct Point {
    kind: SchedulerKind,
    shards: usize,
    fault: Fault,
    /// Pin a snapshot at the first task of every update.
    pin: bool,
}

impl Point {
    fn pick(rng: &mut StdRng) -> Point {
        use SchedulerKind::*;
        let kinds = [LevelBased, Lookahead(4), LogicBlox, Hybrid, SignalPropagation];
        let shards = [1, 1, 2, 3][rng.gen_range(0..4usize)];
        let quota = rng.gen_range(0..4);
        let fault = match rng.gen_range(0..4) {
            0 => Fault::None,
            1 => Fault::Stall(quota),
            2 if shards > 1 => Fault::ShardPanic(rng.gen_range(0..shards), rng.gen_range(0..2)),
            3 if shards == 1 => Fault::TaskPanic,
            _ => Fault::Panic(quota),
        };
        let kind = kinds[rng.gen_range(0..kinds.len())];
        Point { kind, shards, fault, pin: shards == 1 && rng.gen_bool(0.5) }
    }
}

/// A snapshot and its image when it was pinned.
type Pin = (Snapshot, Vec<String>);

/// Wraps a scheduler and pins a snapshot at its first popped task — after
/// the cascade has started mutating the head, before anything publishes.
struct PinAtFirstPop {
    inner: Box<dyn Scheduler>,
    reader: ReaderHandle,
    pins: Arc<Mutex<Vec<Pin>>>,
    pinned: bool,
}

impl Scheduler for PinAtFirstPop {
    fn name(&self) -> &str {
        "PinAtFirstPop"
    }
    fn start(&mut self, initial: &[NodeId]) { self.inner.start(initial) }
    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) { self.inner.on_completed(v, fired) }
    fn pop_ready(&mut self) -> Option<NodeId> {
        let t = self.inner.pop_ready();
        if t.is_some() && !std::mem::replace(&mut self.pinned, true) {
            let snap = self.reader.snapshot();
            let image = snap.image();
            self.pins.lock().expect("pins").push((snap, image));
        }
        t
    }
    fn is_quiescent(&self) -> bool { self.inner.is_quiescent() }
    fn cost(&self) -> CostMeter { self.inner.cost() }
    fn space_bytes(&self) -> usize { self.inner.space_bytes() }
    fn precompute_bytes(&self) -> usize { self.inner.precompute_bytes() }
    fn on_external_dispatch(&mut self, v: NodeId) { self.inner.on_external_dispatch(v) }
}

/// How a run builds its schedulers: each carries the point's fault,
/// which acts only while `armed` is on.
struct Rig {
    point: Point,
    armed: Arc<AtomicBool>,
    reader: Option<ReaderHandle>,
    pins: Arc<Mutex<Vec<Pin>>>,
}

impl Rig {
    fn scheduler(&self, dag: Arc<Dag>) -> Box<dyn Scheduler> {
        let inner = self.point.kind.build(dag);
        let inner: Box<dyn Scheduler> = match self.point.fault {
            Fault::Stall(q) => Box::new(QuotaStall::over(inner, q, false).gated(self.armed.clone())),
            Fault::Panic(q) => Box::new(QuotaStall::over(inner, q, true).gated(self.armed.clone())),
            _ => inner,
        };
        match &self.reader {
            Some(r) if self.point.pin => {
                Box::new(PinAtFirstPop { inner, reader: r.clone(), pins: self.pins.clone(), pinned: false })
            }
            _ => inner,
        }
    }
}

enum Engine {
    One(IncrementalEngine),
    Sharded(ShardedEngine),
}

/// One seeded run: a program, a lattice point, a stream.
struct Run {
    rng: StdRng,
    ctx: String,
    model: Model,
    engine: Engine,
    rig: Rig,
    /// Every snapshot pinned so far, held to the end of the run.
    pins: Vec<Pin>,
}

impl Run {
    /// A run of `src` (a generated program if `None`) with random base
    /// rows, at a point drawn from `seed`. A sharded point whose program
    /// `ShardPlan` refuses runs unsharded.
    fn play(seed: u64, src: Option<&str>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let point = Point::pick(&mut rng);
        let mut src = src.map_or_else(|| program(&mut rng), str::to_string);
        let model = Model::new(&src);
        for (p, &a) in model.base() {
            for _ in 0..rng.gen_range(0..6) {
                src += &fact(&mut rng, &(p.clone(), a));
            }
        }
        let model = Model::new(&src);
        let mut rig = Rig { point, armed: Arc::default(), reader: None, pins: Arc::default() };
        let sharded =
            (point.shards > 1).then(|| ShardedEngine::new(&src, point.shards, |d| rig.scheduler(d)));
        let engine = match sharded {
            Some(Ok(mut e)) => {
                if let Fault::ShardPanic(shard, round) = point.fault {
                    let on = rig.armed.clone();
                    e.set_fault_hook(Some(Arc::new(move |s, r| {
                        let hit = on.load(Ordering::SeqCst) && (s, r) == (shard, round);
                        hit.then(|| ShardFault::Panic("fault-injected panic: lattice".into()))
                    })));
                }
                e.set_black_box(None);
                Engine::Sharded(e)
            }
            _ => {
                rig.point.shards = 1;
                let e = IncrementalEngine::new(&src).expect("the model's program");
                rig.reader = Some(e.reader());
                Engine::One(e)
            }
        };
        let head = format!("seed {seed}, {:?}, program:\n{src}", rig.point);
        let mut run = Run { rng, ctx: head.clone(), model, engine, rig, pins: Vec::new() };
        run.check(None);
        let mut removed: Vec<String> = Vec::new();
        for i in 0..STEPS {
            let changes = matches!(run.engine, Engine::One(_));
            let step = step(&mut run.rng, &run.model, &removed, changes);
            run.ctx = format!("{head}\nstep {i}: {step:?}");
            if let (Step::Change { text, add: false }, Some(_)) = (&step, run.apply(&step)) {
                removed.push(text.clone());
            }
        }
    }

    /// Apply `step`, armed with the run's fault about half the time; check
    /// the outcome, and after a faulted refusal retry unarmed. Returns the
    /// model it committed, if any.
    fn apply(&mut self, step: &Step) -> Option<Model> {
        let want = match step {
            Step::Batch(edits) => self.model.edited(edits),
            Step::Change { text, add } => self.model.changed(text, *add),
        };
        let armed = !matches!(self.rig.point.fault, Fault::None) && self.rng.gen_bool(0.5);
        let pre = self.image();
        let pre_state = self.state();
        let mut result = self.attempt(step, armed);
        use EngineError::{Panicked, ShardFailed, Stall};
        let faulted = matches!(result, Err(Stall { .. } | Panicked(_) | ShardFailed { .. }));
        if armed && want.is_some() && faulted {
            self.check_refused(&pre, &pre_state);
            result = self.attempt(step, false);
        }
        match (result, want) {
            (Ok(()), Some(m)) => {
                self.model = m.clone();
                self.check(Some(&pre));
                Some(m)
            }
            (Err(_), None) => {
                self.check_refused(&pre, &pre_state);
                None
            }
            (Ok(()), None) => panic!("committed what must be refused; {}", self.ctx),
            (Err(e), Some(_)) => panic!("refused ({e}) what must commit; {}", self.ctx),
        }
    }

    fn attempt(&mut self, step: &Step, armed: bool) -> Result<(), EngineError> {
        let rig = &self.rig;
        rig.armed.store(armed, Ordering::SeqCst);
        PANIC_AFTER_PHASE_1.set(armed && matches!(rig.point.fault, Fault::TaskPanic));
        let result = match (&mut self.engine, step) {
            (Engine::One(e), Step::Batch(edits)) => {
                e.update(rig.scheduler(e.dag().clone()).as_mut(), edits).map(drop)
            }
            (Engine::One(e), Step::Change { text, add }) => {
                let sched = |d| rig.scheduler(d);
                if *add { e.add_rule(text, sched) } else { e.remove_rule(text, sched) }.map(drop)
            }
            (Engine::Sharded(e), Step::Batch(edits)) => e.update(edits).map(drop),
            (Engine::Sharded(_), Step::Change { .. }) => unreachable!("sharded runs change no rules"),
        };
        PANIC_AFTER_PHASE_1.set(false);
        result
    }

    /// Every extent at the head, rendered: the unsharded database, or the
    /// union of the shards' owned slices.
    fn image(&self) -> Vec<String> {
        match &self.engine {
            Engine::One(e) => e.database().image_at(None),
            Engine::Sharded(e) => {
                let mut image = Vec::new();
                for (p, &a) in &self.model.known {
                    let pattern = format!("{p}({})", vec!["?"; a].join(", "));
                    let rows = e.query(&pattern).expect("a known predicate");
                    assert_eq!(e.count(p), rows.len(), "count() disagrees with query() on {p}; {}", self.ctx);
                    image.extend(rows.into_iter().map(|r| format!("{p}{r}")));
                }
                image.sort();
                image
            }
        }
    }

    /// What a refused step must leave alone besides the extents: the
    /// epoch, and the program and task graph of an unsharded engine.
    fn state(&self) -> (u64, String) {
        match &self.engine {
            Engine::One(e) => {
                let g = e.task_graph();
                (e.epoch(), format!("{:?} {:?} {:?}", e.program, g.kinds, g.reads))
            }
            Engine::Sharded(e) => (e.epoch(), String::new()),
        }
    }

    /// After a committed step (the first check has no `pre`): every extent
    /// equals the reference, a new snapshot sees the head, snapshots pinned
    /// during the step saw `pre`, and every [`Run::invariants`] holds.
    fn check(&mut self, pre: Option<&[String]>) {
        let image = self.image();
        assert_eq!(image, self.model.reference(), "extents differ from the reference; {}", self.ctx);
        if let Engine::One(e) = &self.engine {
            assert_eq!(e.begin_snapshot().image(), image, "a new snapshot is not the head; {}", self.ctx);
        }
        self.invariants(pre);
    }

    fn check_refused(&mut self, pre: &[String], pre_state: &(u64, String)) {
        assert_eq!(self.image(), pre, "a refused step moved an extent; {}", self.ctx);
        let what = "a refused step moved the epoch, program or task graph";
        assert_eq!(&self.state(), pre_state, "{what}; {}", self.ctx);
        self.invariants(Some(pre));
    }

    /// Snapshots pinned mid-cascade saw `pre`; every snapshot pinned so
    /// far still reads its image at pin time; every relation of every
    /// engine passes [`crate::rel::Relation::check_accounting`].
    fn invariants(&mut self, pre: Option<&[String]>) {
        for (snap, image) in std::mem::take(&mut *self.rig.pins.lock().expect("pins")) {
            assert_eq!(Some(image.as_slice()), pre, "a mid-cascade snapshot saw the update; {}", self.ctx);
            self.pins.push((snap, image));
        }
        for (snap, image) in &self.pins {
            assert_eq!(&snap.image(), image, "a pinned snapshot moved; {}", self.ctx);
        }
        let engines: Vec<&IncrementalEngine> = match &self.engine {
            Engine::One(e) => vec![e],
            Engine::Sharded(e) => (0..e.shards()).map(|s| e.shard(s)).collect(),
        };
        for e in engines {
            let db = e.database();
            (0..db.pred_count()).for_each(|p| db.rel(PredId(p as u32)).check_accounting());
        }
    }
}

#[test]
fn generated_programs_match_the_reference_at_every_point() {
    silence_test_panics();
    for seed in SEEDS.iter().copied().chain(0..CASES) {
        Run::play(seed, None);
    }
}

#[test]
fn corpus_programs_match_the_reference_at_every_point() {
    silence_test_panics();
    for (i, src) in CORPUS.iter().enumerate() {
        for k in 0..REPLAYS {
            Run::play(1_000_000 + 100 * i as u64 + k, Some(src));
        }
    }
}

/// Arbitrary text, and valid programs with a few characters changed, go
/// into the parser, the engine and `add_rule`: each may refuse them, none
/// may panic.
#[test]
fn malformed_programs_are_refused_without_a_panic() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let generated = (0..8).map(|_| program(&mut rng));
    let valid: Vec<String> = CORPUS.iter().map(|s| s.to_string()).chain(generated).collect();
    for i in 0..2_000 {
        let mut text: Vec<char> = valid[i % valid.len()].chars().collect();
        if i % 4 == 0 {
            text = (0..rng.gen_range(0..48)).map(|_| char::from(rng.gen_range(0u8..128))).collect();
        }
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..=text.len());
            let c = "(),.:-!?_ XYZab019\"'%\n".chars().nth(rng.gen_range(0..22)).unwrap_or('x');
            match rng.gen_range(0..3) {
                0 => text.insert(at, c),
                _ if at == text.len() => {}
                1 => drop(text.remove(at)),
                _ => text[at] = c,
            }
        }
        let text: String = text.into_iter().collect();
        let clause = text.split_inclusive('.').nth(rng.gen_range(0..4)).unwrap_or(&text).to_string();
        let host = &valid[(i + 1) % valid.len()];
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_program(&text);
            let _ = IncrementalEngine::new(&text);
            let mut e = IncrementalEngine::new(host).expect("a valid program");
            let _ = e.add_rule(&clause, |dag| SchedulerKind::Hybrid.build(dag));
            let _ = e.remove_rule(&clause, |dag| SchedulerKind::LevelBased.build(dag));
        }));
        assert!(run.is_ok(), "panicked on {text:?} (clause {clause:?})");
    }
}
