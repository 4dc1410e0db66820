//! Hash-partitioned sharded runtime: N independent scheduler+engine
//! instances over one logical database.
//!
//! Every relation is partitioned by a stable content hash of its first
//! column: shard `s` *owns* the tuples whose first value hashes to `s`.
//! Each shard runs a full [`IncrementalEngine`] (scheduler, task DAG,
//! arena, MVCC epochs) over a rewritten copy of the program, and a batch
//! of base edits fans out to the owning shards, which then update in
//! parallel.
//!
//! ## Rule classification
//!
//! At analysis time every rule is classified by its join structure
//! against the *anchor* — the head's first argument, when it is a plain
//! variable:
//!
//! * **Local** — the anchor is a variable and at least one positive body
//!   atom has it in first position. Those *anchored* atoms are read from
//!   the shard's own partition; every other atom (non-anchored
//!   positives, and all negated atoms) is rewritten to read a **mirror**
//!   (see below). Each shard then derives roughly `1/N` of the head:
//!   all bindings whose anchor value it owns.
//! * **Replicated** — no anchored atom exists (constant or aggregate
//!   first head arg, or no positive atom leads with the anchor). Every
//!   body atom reads a mirror, so each shard derives the rule's full
//!   global output. Correct everywhere, parallel nowhere — the analysis
//!   exists to make these rare.
//!
//! ## Mirrors and cross-shard delta exchange
//!
//! A predicate read non-anchored gets a companion base predicate
//! `p__mirror` on every shard holding the *global* extent of `p`. Base
//! mirrors are fed directly at edit-routing time. Derived mirrors are
//! fed by rounds of delta exchange: after each parallel update round,
//! every shard extracts the net delta of its *owned* slice of each
//! exchanged predicate (the delta-restriction trick — only deltas ever
//! cross shards, never full foreign relations) and broadcasts it as
//! [`TypedEdit`]s over a bounded channel; the next round applies them to
//! every mirror. Rounds repeat until no shard produces new deltas.
//! Owned-slice filtering makes the broadcasts a disjoint exact cover,
//! so mirrors converge to precisely the global extent.
//!
//! One shape is excluded from the exchange: a recursive component whose
//! cycle would pass *through* a mirror (e.g. right-recursive closure,
//! whose recursive atom is not anchored). There, deletion deadlocks —
//! the owner's DRed rederives the doomed tuple from the stale mirror
//! copy, so no retraction is ever broadcast and the mirror never
//! changes. Such components are **forced replicated**: every shard runs
//! the full recursion locally against exact lower-stratum mirrors, and
//! same-component atoms read the local copy, so the cycle lives inside
//! one engine where DRed already handles it (see [`ShardPlan::cyclic`]).
//!
//! ## Invariants
//!
//! With `local(s, p)` the extent of `p` on shard `s` at exchange
//! fixpoint and `owned(s, p)` the globally-true tuples whose first
//! value hashes to `s`:
//!
//! * **Owned-slice exactness**: `local(s, p) ∩ owned-keys(s) =
//!   owned(s, p)`. Non-owned slices may hold extra garbage (from joins
//!   over non-owned tuples that leaked into a local partition), but
//!   never pollute an owned slice: anchored reads bind the head anchor
//!   to the garbage's non-owned key, so derived garbage stays in
//!   non-owned slices, and mirrors/queries filter by ownership.
//! * **Queries**: point lookups route to the owner (whose slice is
//!   exact); scans take the ownership-filtered union over shards.
//! * **Publish point**: per-round engine publishes are suppressed; all
//!   shards publish exactly once per committed batch, so every shard's
//!   epoch counts whole batches and snapshot readers see consistent
//!   cuts. A failed round leaves epochs unpublished — readers keep the
//!   last committed batch.
//! * **Atomic batches**: a shard failure (typed error, panic, or a
//!   barrier miss caught by the round watchdog) aborts the whole batch:
//!   every shard aborts its open epoch, which all rounds of the batch
//!   stamped at, so each is back at its pre-batch state — partial
//!   mirror feeds included — whatever it did or failed to report; no
//!   epoch publishes, and the caller gets [`EngineError::ShardFailed`]
//!   with a per-shard snapshot. Retrying the batch is idempotent.
//!
//! Typed edits ([`TypedEdit`], [`PortableValue`]) carry values across
//! shards without rendering to text, so the symbol `"42"` and the
//! integer `42` survive the trip distinct.

use crate::ast::{Literal, Program, Rule, Term};
use crate::engine::{EngineError, FactEdit, IncrementalEngine, TypedEdit, UpdateReport};
use crate::hash::Map;
use crate::incr::Delta;
use crate::parser::parse_program;
use crate::query::parse_pattern;
use crate::rel::Database;
use crate::value::{Tuple, Value};
use incr_dag::Dag;
use incr_obs::flight::{self, FlightCode};
use incr_obs::json::Json;
use incr_sched::Scheduler;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Suffix of the per-shard companion predicates holding global extents.
pub const MIRROR_SUFFIX: &str = "__mirror";

fn mirror_name(pred: &str) -> String {
    format!("{pred}{MIRROR_SUFFIX}")
}

/// A self-contained constant: what a [`crate::value::Value`] is once
/// detached from a database's interner. The routing hash and the
/// cross-shard exchange both run on these.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortableValue {
    Int(i64),
    Text(String),
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl PortableValue {
    /// Read edit-argument text: integer literals become ints,
    /// everything else a symbol. Every string edit goes through here
    /// ([`FactEdit::typed`]), so the routing hash agrees with the stored
    /// value.
    pub fn parse(text: &str) -> PortableValue {
        match text.parse::<i64>() {
            Ok(i) => PortableValue::Int(i),
            Err(_) => PortableValue::Text(text.to_string()),
        }
    }

    /// Detach a stored value from its database.
    pub fn of_value(v: Value, db: &Database) -> PortableValue {
        match v {
            Value::Int(i) => PortableValue::Int(i),
            Value::Sym(s) => PortableValue::Text(db.interner.name(s).to_string()),
        }
    }

    /// Re-attach to a (different) database's interner.
    pub(crate) fn intern(&self, db: &mut Database) -> Value {
        match self {
            PortableValue::Int(i) => Value::Int(*i),
            PortableValue::Text(s) => db.sym(s),
        }
    }

    /// Stable content hash: identical across processes, databases, and
    /// interner states. Ints and symbols hash in disjoint streams, so
    /// the symbol `"42"` (quoted in source) and the integer `42` land
    /// independently.
    pub fn shard_hash(&self) -> u64 {
        match self {
            PortableValue::Int(i) => fnv1a(FNV_OFFSET ^ 0x49, &i.to_le_bytes()),
            PortableValue::Text(s) => fnv1a(FNV_OFFSET ^ 0x53, s.as_bytes()),
        }
    }

    fn shard(&self, shards: usize) -> usize {
        (self.shard_hash() % shards as u64) as usize
    }
}

/// Owning shard of a tuple identified by its first argument's text
/// (zero-arity tuples belong to shard 0 by convention).
pub fn shard_of_first(args: &[String], shards: usize) -> usize {
    args.first()
        .map_or(0, |a| PortableValue::parse(a).shard(shards))
}

/// Owning shard of a stored tuple.
pub(crate) fn tuple_shard(t: &[Value], db: &Database, shards: usize) -> usize {
    match t.first() {
        None => 0,
        Some(v) => PortableValue::of_value(*v, db).shard(shards),
    }
}

/// Sliced sleep that aborts as soon as `cancel` is raised; returns
/// `false` when cancelled. This is what keeps an injected "stuck
/// shard" from wedging the round's thread join after the barrier
/// watchdog fires.
fn sleep_unless_cancelled(total: Duration, cancel: &AtomicBool) -> bool {
    let end = Instant::now() + total;
    loop {
        if cancel.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        if now >= end {
            return true;
        }
        std::thread::sleep((end - now).min(Duration::from_millis(1)));
    }
}

/// Partition a flat edit list by owning shard, preserving relative
/// order within each shard. `DeltaQueue` coalescing commutes with this
/// split: a tuple's edits all route to one shard, so coalescing then
/// splitting equals splitting then coalescing per shard.
pub fn split_by_shard(edits: &[FactEdit], shards: usize) -> Vec<Vec<FactEdit>> {
    let mut per: Vec<Vec<FactEdit>> = vec![Vec::new(); shards];
    for e in edits {
        per[shard_of_first(e.arg_texts(), shards)].push(e.clone());
    }
    per
}

/// How a rule executes under partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleClass {
    /// Anchored on the head's first variable: each shard computes its
    /// owned 1/N of the head from its own partition plus mirrors.
    Local,
    /// Every shard computes the rule's full global output: either no
    /// anchored positive atom exists, or the head sits in a recursive
    /// component that would otherwise recurse through a mirror (see
    /// [`ShardPlan::cyclic`]).
    Replicated,
}

/// The partitioning analysis of one program: the rewritten per-shard
/// program (identical on every shard) plus everything the router and
/// the exchange loop need.
pub struct ShardPlan {
    pub shards: usize,
    /// Rewritten program: facts stripped, non-anchored reads redirected
    /// to `*__mirror` predicates.
    pub program: Program,
    /// Per non-fact rule of the source program: head predicate and class.
    pub classes: Vec<(String, RuleClass)>,
    /// Initial facts as typed edits, routed like any other batch.
    pub facts: Vec<TypedEdit>,
    /// Base (editable) predicates of the source program.
    pub base: BTreeSet<String>,
    /// Predicates some rewritten rule reads through a mirror.
    pub mirrored: BTreeSet<String>,
    /// Mirrored *derived* predicates: their owned deltas are exchanged
    /// between shards each round (base mirrors are fed at routing time).
    pub exchanged: BTreeSet<String>,
    /// Derived predicates in a recursive component that would otherwise
    /// recurse through a mirror; their rules are forced [`RuleClass::Replicated`]
    /// with same-component atoms reading the local copy, so DRed handles
    /// the cycle inside each engine instead of deadlocking on a stale
    /// mirror.
    pub cyclic: BTreeSet<String>,
    /// Every predicate each shard must register even if no rewritten
    /// rule mentions it (original name + arity, plus mirrors).
    pub declared: Vec<(String, usize)>,
    /// Arity of every source-program predicate.
    pub arity: BTreeMap<String, usize>,
}

fn anchor_var(rule: &Rule) -> Option<&str> {
    match rule.head.terms.first() {
        Some(Term::Var(v)) => Some(v.as_str()),
        _ => None,
    }
}

fn is_anchored(lit: &Literal, anchor: &str) -> bool {
    !lit.negated && matches!(lit.atom.terms.first(), Some(Term::Var(v)) if v == anchor)
}

impl ShardPlan {
    /// Classify every rule and rewrite the program for per-shard
    /// execution.
    pub fn analyze(program: &Program, shards: usize) -> Result<ShardPlan, EngineError> {
        if shards == 0 {
            return Err(EngineError::Edit("shard count must be at least 1".into()));
        }
        let arities = program.predicate_arities().map_err(EngineError::Edit)?;
        if let Some((p, _)) = arities.iter().find(|(p, _)| p.ends_with(MIRROR_SUFFIX)) {
            return Err(EngineError::Edit(format!(
                "predicate name {p} collides with the reserved {MIRROR_SUFFIX} suffix"
            )));
        }
        let derived: BTreeSet<String> = program
            .derived_predicates()
            .into_iter()
            .map(str::to_string)
            .collect();

        // Derived-predicate dependency closure, to find recursion that
        // would otherwise route through a mirror. A rule whose body
        // mirror-reads a predicate in its own recursive component closes
        // a derivation cycle through the exchange, and DRed then
        // deadlocks on deletion: the owner cannot retract a tuple whose
        // local rederivation is supported by the stale mirror copy, and
        // the mirror is never retracted because the owner broadcasts no
        // delta. Such components are *forced replicated* — every shard
        // runs the full recursion locally (same-component atoms read the
        // local copy, which each shard keeps at the full global extent),
        // so the cycle lives inside one engine where DRed handles it.
        let mut deps: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for r in &program.rules {
            if r.is_fact() {
                continue;
            }
            let entry = deps.entry(r.head.pred.as_str()).or_default();
            entry.extend(
                r.body
                    .iter()
                    .map(|l| l.atom.pred.as_str())
                    .filter(|p| derived.contains(*p)),
            );
        }
        let reach: BTreeMap<&str, BTreeSet<&str>> = derived
            .iter()
            .map(|p| {
                let mut seen: BTreeSet<&str> = BTreeSet::new();
                let mut stack: Vec<&str> =
                    deps.get(p.as_str()).into_iter().flatten().copied().collect();
                while let Some(q) = stack.pop() {
                    if seen.insert(q) {
                        stack.extend(deps.get(q).into_iter().flatten().copied());
                    }
                }
                (p.as_str(), seen)
            })
            .collect();
        let same_scc = |a: &str, b: &str| {
            reach.get(a).is_some_and(|r| r.contains(b))
                && reach.get(b).is_some_and(|r| r.contains(a))
        };
        let mut cyclic: BTreeSet<String> = BTreeSet::new();
        for r in &program.rules {
            if r.is_fact() {
                continue;
            }
            let anchor = anchor_var(r);
            let local = anchor.is_some_and(|a| r.body.iter().any(|l| is_anchored(l, a)));
            for l in &r.body {
                // `local` implies the anchor exists, so the is_some_and
                // can never silently mis-classify.
                let kept = local && anchor.is_some_and(|a| is_anchored(l, a));
                if !kept && same_scc(&r.head.pred, &l.atom.pred) {
                    cyclic.insert(r.head.pred.clone());
                }
            }
        }
        let cyclic: BTreeSet<String> = derived
            .iter()
            .filter(|p| cyclic.iter().any(|c| same_scc(c, p)))
            .cloned()
            .collect();

        let mut facts = Vec::new();
        let mut rewritten = Vec::new();
        let mut classes = Vec::new();
        let mut mirrored: BTreeSet<String> = BTreeSet::new();
        for r in &program.rules {
            if r.is_fact() {
                if derived.contains(&r.head.pred) {
                    return Err(EngineError::Edit(format!(
                        "sharded mode does not support ground facts on derived predicate {}",
                        r.head.pred
                    )));
                }
                let mut args = Vec::with_capacity(r.head.terms.len());
                for t in &r.head.terms {
                    match t {
                        Term::Int(i) => args.push(PortableValue::Int(*i)),
                        Term::Sym(s) => args.push(PortableValue::Text(s.clone())),
                        // `is_fact` excludes variable heads, but surface
                        // a typed error rather than trusting that here.
                        Term::Var(_) | Term::Agg(..) => {
                            return Err(EngineError::Edit(format!(
                                "fact {} has a non-ground argument",
                                r.head.pred
                            )))
                        }
                    }
                }
                facts.push(TypedEdit {
                    pred: r.head.pred.clone(),
                    args,
                    adding: true,
                });
                continue;
            }
            let forced = cyclic.contains(&r.head.pred);
            let anchor = anchor_var(r);
            let local =
                !forced && anchor.is_some_and(|a| r.body.iter().any(|l| is_anchored(l, a)));
            let body = r
                .body
                .iter()
                .map(|l| {
                    // Forced-replicated rules keep same-component atoms
                    // on the local (full-global) copy; everything else
                    // follows the anchoring rule.
                    let keep = if forced {
                        !l.negated && same_scc(&r.head.pred, &l.atom.pred)
                    } else {
                        local && anchor.is_some_and(|a| is_anchored(l, a))
                    };
                    if keep {
                        l.clone()
                    } else {
                        mirrored.insert(l.atom.pred.clone());
                        let mut atom = l.atom.clone();
                        atom.pred = mirror_name(&l.atom.pred);
                        Literal {
                            atom,
                            negated: l.negated,
                        }
                    }
                })
                .collect();
            classes.push((
                r.head.pred.clone(),
                if local {
                    RuleClass::Local
                } else {
                    RuleClass::Replicated
                },
            ));
            rewritten.push(Rule {
                head: r.head.clone(),
                body,
            });
        }

        let exchanged: BTreeSet<String> = mirrored.intersection(&derived).cloned().collect();
        let base: BTreeSet<String> = arities
            .iter()
            .filter(|(p, _)| !derived.contains(p))
            .map(|(p, _)| p.clone())
            .collect();
        let mut declared = arities.clone();
        for m in &mirrored {
            // Every mirrored predicate came from a body atom of the same
            // program `arities` was computed from.
            let a = arities
                .iter()
                .find(|(p, _)| p == m)
                .ok_or_else(|| {
                    EngineError::Edit(format!("mirrored predicate {m} has no known arity"))
                })?
                .1;
            declared.push((mirror_name(m), a));
        }
        Ok(ShardPlan {
            shards,
            program: Program { rules: rewritten },
            classes,
            facts,
            base,
            mirrored,
            exchanged,
            cyclic,
            declared,
            arity: arities.into_iter().collect(),
        })
    }

    fn class_count(&self, c: RuleClass) -> usize {
        self.classes.iter().filter(|(_, k)| *k == c).count()
    }
}

/// What one sharded batch did, summed over shards and rounds.
#[derive(Clone, Debug, Default)]
pub struct ShardUpdateReport {
    /// Parallel update rounds run (1 = no cross-shard propagation).
    pub rounds: usize,
    /// Rounds beyond the first, i.e. rounds triggered by exchanged
    /// deltas.
    pub exchange_rounds: usize,
    /// Mirror delta tuples broadcast between shards.
    pub exchanged_tuples: usize,
    /// Scheduler tasks dispatched, summed over shards and rounds.
    pub tasks_executed: usize,
    /// Activation edges fired, summed over shards and rounds.
    pub edges_fired: usize,
}

/// Why one shard failed its round of a sharded batch (the `cause` of
/// [`EngineError::ShardFailed`]).
#[derive(Debug)]
pub enum ShardCause {
    /// The shard's engine returned a typed error.
    Engine(Box<EngineError>),
    /// The shard's round panicked; the payload message is preserved.
    Panicked(String),
    /// The shard never reached the exchange barrier within the round
    /// deadline — stuck or dead, caught by the barrier watchdog.
    Barrier { waited_ms: u64 },
}

impl std::fmt::Display for ShardCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCause::Engine(e) => write!(f, "{e}"),
            ShardCause::Panicked(m) => write!(f, "panicked: {m}"),
            ShardCause::Barrier { waited_ms } => {
                write!(f, "missed the exchange barrier (waited {waited_ms} ms)")
            }
        }
    }
}

/// One shard's state in the multi-shard snapshot an abort carries.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    pub shard: usize,
    /// Rounds this shard completed within the failed batch.
    pub rounds_done: usize,
    /// Edits queued to this shard in the round that failed.
    pub queued_edits: usize,
    /// Exchange tuples this shard broadcast during the batch.
    pub exchanged_tuples: usize,
    /// `"ok"`, `"failed"`, `"cancelled"`, or `"missed-barrier"`.
    pub state: &'static str,
}

/// An injected fault at one `(shard, round)` site — what a
/// [`ShardFaultHook`] may ask a shard to do at round entry, before the
/// shard's engine runs.
#[derive(Clone, Debug)]
pub enum ShardFault {
    /// Panic with this message.
    Panic(String),
    /// Sleep this long before evaluating the round (cancellable: the
    /// sleep is sliced and aborts as soon as a sibling failure or the
    /// barrier watchdog cancels the round).
    Delay(Duration),
    /// Return a typed error.
    Fail(String),
}

/// Fault-injection hook interrogated by every shard at the entry of
/// every exchange round, as `(shard, round)`. Test-only in spirit, but
/// a plain field so chaos harnesses outside this crate can arm it.
pub type ShardFaultHook = Arc<dyn Fn(usize, usize) -> Option<ShardFault> + Send + Sync>;

/// Default per-round barrier deadline; generous because a round may
/// re-evaluate large cliques, but finite so a dead shard surfaces as
/// [`EngineError::ShardFailed`] instead of a hang.
pub const DEFAULT_ROUND_DEADLINE: Duration = Duration::from_secs(30);

/// N hash-partitioned [`IncrementalEngine`]s behind one logical
/// database: batches fan out to owning shards, shards update in
/// parallel (each under its own scheduler), cross-shard rules converge
/// by delta exchange, and all shards publish one MVCC epoch per batch.
///
/// Batches are all-or-nothing across shards: any shard failure (typed
/// error, panic, or missed barrier) aborts the open epoch on every
/// shard and publishes none — see [`Self::apply_batch`].
pub struct ShardedEngine {
    plan: ShardPlan,
    engines: Vec<IncrementalEngine>,
    scheds: Vec<Box<dyn Scheduler + Send>>,
    /// Barrier watchdog: how long the coordinator waits for all shards
    /// to report one round before declaring the batch failed.
    round_deadline: Duration,
    /// Chaos-harness hook; `None` in production.
    fault_hook: Option<ShardFaultHook>,
    /// Where to dump flight-recorder black boxes on abort; `None`
    /// disables.
    black_box: Option<PathBuf>,
}

/// Safety cap on exchange rounds; real programs converge in a handful
/// (bounded by strata plus recursive path length through mirrors).
const MAX_ROUNDS: usize = 100_000;

impl ShardedEngine {
    /// Parse, analyze, build one engine per shard, and materialize the
    /// program's facts as the first committed batch.
    pub fn new(
        src: &str,
        shards: usize,
        mut make_sched: impl FnMut(Arc<Dag>) -> Box<dyn Scheduler + Send>,
    ) -> Result<ShardedEngine, EngineError> {
        let program = parse_program(src).map_err(EngineError::Parse)?;
        let plan = ShardPlan::analyze(&program, shards)?;
        let engines = (0..shards)
            .map(|_| IncrementalEngine::from_program_declared(plan.program.clone(), &plan.declared))
            .collect::<Result<Vec<_>, _>>()?;
        let scheds = engines
            .iter()
            .map(|e| make_sched(e.dag().clone()))
            .collect();
        let reg = incr_obs::registry();
        reg.gauge("shard.count").set(shards as i64);
        reg.gauge("shard.rules.local")
            .set(plan.class_count(RuleClass::Local) as i64);
        reg.gauge("shard.rules.replicated")
            .set(plan.class_count(RuleClass::Replicated) as i64);
        reg.gauge("shard.preds.mirrored").set(plan.mirrored.len() as i64);
        let mut this = ShardedEngine {
            plan,
            engines,
            scheds,
            round_deadline: DEFAULT_ROUND_DEADLINE,
            fault_hook: None,
            black_box: flight::default_black_box_dir(),
        };
        if !this.plan.facts.is_empty() {
            let facts = std::mem::take(&mut this.plan.facts);
            let routed = this.route(&facts)?;
            this.plan.facts = facts;
            this.apply_batch(routed)?;
            // Each shard decided its plans over the empty relations it was
            // built with: decide them again over the rows just loaded, as
            // the unsharded engine decides them over its materialisation.
            // The program is the same, so is the task graph each scheduler
            // was built over.
            for e in &mut this.engines {
                e.rebuild()?;
            }
        }
        Ok(this)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.plan.shards
    }

    /// The partitioning analysis.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Direct access to one shard's engine (snapshots, per-shard stats).
    pub fn shard(&self, s: usize) -> &IncrementalEngine {
        &self.engines[s]
    }

    /// The published epoch (identical on every shard: one publish per
    /// committed batch).
    pub fn epoch(&self) -> u64 {
        self.engines[0].epoch()
    }

    /// Set the barrier watchdog's per-round deadline (default
    /// [`DEFAULT_ROUND_DEADLINE`]). A shard that has not reached the
    /// exchange barrier by then fails the batch with
    /// [`ShardCause::Barrier`] and cancels its siblings.
    pub fn set_round_deadline(&mut self, deadline: Duration) {
        self.round_deadline = deadline;
    }

    /// Install (or clear) a fault-injection hook interrogated by every
    /// shard at round entry. Chaos harnesses arm this; production
    /// leaves it `None`.
    pub fn set_fault_hook(&mut self, hook: Option<ShardFaultHook>) {
        self.fault_hook = hook;
    }

    /// Override where abort-path flight-recorder black boxes go
    /// (default: the `INCR_BLACKBOX_DIR` convention shared with the
    /// executor). `None` disables dumping.
    pub fn set_black_box(&mut self, dir: Option<PathBuf>) {
        self.black_box = dir;
    }

    /// Apply one batch of base-table edits across all shards.
    pub fn update(&mut self, edits: &[FactEdit]) -> Result<ShardUpdateReport, EngineError> {
        let typed: Vec<TypedEdit> = edits.iter().map(FactEdit::typed).collect();
        self.update_typed(&typed)
    }

    /// [`Self::update`] with pre-typed values (no text parsing).
    pub fn update_typed(&mut self, edits: &[TypedEdit]) -> Result<ShardUpdateReport, EngineError> {
        let routed = self.route(edits)?;
        self.apply_batch(routed)
    }

    /// Fan a batch out: each edit goes to its owner's partition, and —
    /// when the predicate is mirror-read anywhere — to every shard's
    /// mirror.
    fn route(&self, edits: &[TypedEdit]) -> Result<Vec<Vec<TypedEdit>>, EngineError> {
        let n = self.plan.shards;
        let mut per: Vec<Vec<TypedEdit>> = vec![Vec::new(); n];
        for e in edits {
            let Some(&arity) = self.plan.arity.get(&e.pred) else {
                return Err(EngineError::Edit(format!("unknown predicate {}", e.pred)));
            };
            if !self.plan.base.contains(&e.pred) {
                return Err(EngineError::Edit(format!(
                    "{} is a derived predicate; only base tables can be edited",
                    e.pred
                )));
            }
            if arity != e.args.len() {
                return Err(EngineError::Edit(format!(
                    "{} has arity {arity}, edit has {}",
                    e.pred,
                    e.args.len()
                )));
            }
            let owner = e.args.first().map_or(0, |v| v.shard(n));
            per[owner].push(e.clone());
            if self.plan.mirrored.contains(&e.pred) {
                let m = TypedEdit {
                    pred: mirror_name(&e.pred),
                    args: e.args.clone(),
                    adding: e.adding,
                };
                for slot in &mut per {
                    slot.push(m.clone());
                }
            }
        }
        Ok(per)
    }

    /// The round loop: update every shard in parallel, collect the net
    /// deltas of exchanged predicates restricted to each shard's owned
    /// slice, broadcast them to every mirror, repeat until no shard
    /// produces deltas — then publish one epoch on every shard.
    ///
    /// **All-or-nothing.** Rounds publish nothing, so every round of a
    /// batch stamps at the same open epoch on its shard. When any
    /// shard's round returns an error or panics, or misses the barrier
    /// watchdog's per-round deadline, sibling shards are cancelled
    /// (cooperatively, at round entry and inside delay slices) and every
    /// shard aborts that epoch — restoring pre-batch state bit-for-bit,
    /// stale mirror feeds included, and exactly so whatever a shard did
    /// before it failed, panicked mid-cascade or went silent. No epoch
    /// publishes, so snapshot readers pinned on any shard keep the last
    /// committed batch and a retry of the same batch is idempotent. The
    /// failure surfaces as [`EngineError::ShardFailed`] carrying a
    /// multi-shard [`ShardStatus`] snapshot, plus a flight-recorder
    /// black box spanning all shards' lanes when dumping is enabled.
    fn apply_batch(&mut self, mut inbox: Vec<Vec<TypedEdit>>) -> Result<ShardUpdateReport, EngineError> {
        let n = self.plan.shards;
        let mut report = ShardUpdateReport::default();
        let mut rounds_done = vec![0usize; n];
        let mut exch_sent = vec![0usize; n];
        loop {
            report.rounds += 1;
            let round = report.rounds - 1;
            if report.rounds > MAX_ROUNDS {
                let snapshot: Vec<ShardStatus> = (0..n)
                    .map(|s| ShardStatus {
                        shard: s,
                        rounds_done: rounds_done[s],
                        queued_edits: inbox[s].len(),
                        exchanged_tuples: exch_sent[s],
                        state: "ok",
                    })
                    .collect();
                let cause = ShardCause::Engine(Box::new(EngineError::Edit(
                    "cross-shard exchange did not converge".into(),
                )));
                return Err(self.abort(0, round, cause, false, snapshot));
            }
            let batches = std::mem::replace(&mut inbox, vec![Vec::new(); n]);
            let queued: Vec<usize> = batches.iter().map(Vec::len).collect();
            let exchanged = &self.plan.exchanged;
            let hook = self.fault_hook.clone();
            let deadline = self.round_deadline;

            /// Report and owned-slice broadcasts.
            type RoundDone = (UpdateReport, Vec<TypedEdit>);
            enum RoundOutcome {
                Done(Box<RoundDone>),
                Failed(EngineError),
                Panicked(String),
                Cancelled,
            }
            // Outcomes are deposited in per-shard slots; the bounded
            // channel is only the completion signal the watchdog waits
            // on.
            let slots: Vec<Mutex<Option<RoundOutcome>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let cancel = AtomicBool::new(false);
            let mut on_time = vec![false; n];
            let mut barrier_timeout = false;
            let mut waited_ms = 0u64;
            {
                let slots = &slots;
                let cancel = &cancel;
                let (tx, rx) = crossbeam::channel::bounded::<usize>(n);
                std::thread::scope(|scope| {
                    for (s, ((eng, sched), batch)) in self
                        .engines
                        .iter_mut()
                        .zip(self.scheds.iter_mut())
                        .zip(batches)
                        .enumerate()
                    {
                        let tx = tx.clone();
                        let hook = hook.clone();
                        scope.spawn(move || {
                            flight::set_shard(s as u64 + 1);
                            let fspan = flight::span_arg(FlightCode::ShardRound, round as u64);
                            let body = || -> RoundOutcome {
                                if cancel.load(Ordering::SeqCst) {
                                    return RoundOutcome::Cancelled;
                                }
                                if let Some(h) = &hook {
                                    match h(s, round) {
                                        None => {}
                                        Some(ShardFault::Panic(msg)) => panic!("{msg}"),
                                        Some(ShardFault::Fail(msg)) => {
                                            return RoundOutcome::Failed(EngineError::Edit(msg))
                                        }
                                        Some(ShardFault::Delay(d))
                                            if !sleep_unless_cancelled(d, cancel) =>
                                        {
                                            return RoundOutcome::Cancelled;
                                        }
                                        Some(ShardFault::Delay(_)) => {}
                                    }
                                }
                                if cancel.load(Ordering::SeqCst) {
                                    return RoundOutcome::Cancelled;
                                }
                                let mut collected: Map<_, Delta> = Map::default();
                                let run = eng.update_full(
                                    sched.as_mut(),
                                    &batch,
                                    false,
                                    Some(&mut collected),
                                );
                                match run {
                                    Err(EngineError::Panicked(m)) => RoundOutcome::Panicked(m),
                                    Err(e) => RoundOutcome::Failed(e),
                                    Ok(rep) => {
                                        let db = eng.database();
                                        let mut out = Vec::new();
                                        for (pid, delta) in &collected {
                                            let name = db.pred_name(*pid);
                                            if !exchanged.contains(name) {
                                                continue;
                                            }
                                            let mpred = mirror_name(name);
                                            for (tuples, adding) in
                                                [(&delta.added, true), (&delta.removed, false)]
                                            {
                                                for t in tuples.iter() {
                                                    if tuple_shard(t, &db, n) != s {
                                                        continue;
                                                    }
                                                    out.push(TypedEdit {
                                                        pred: mpred.clone(),
                                                        args: t
                                                            .iter()
                                                            .map(|v| {
                                                                PortableValue::of_value(*v, &db)
                                                            })
                                                            .collect(),
                                                        adding,
                                                    });
                                                }
                                            }
                                        }
                                        // Hash-set iteration order is
                                        // arbitrary; sort so replays are
                                        // deterministic.
                                        out.sort_by(|a, b| {
                                            (&a.pred, &a.args, a.adding)
                                                .cmp(&(&b.pred, &b.args, b.adding))
                                        });
                                        RoundOutcome::Done(Box::new((rep, out)))
                                    }
                                }
                            };
                            let outcome =
                                match std::panic::catch_unwind(AssertUnwindSafe(body)) {
                                    Ok(o) => o,
                                    Err(p) => RoundOutcome::Panicked(flight::panic_message(p)),
                                };
                            drop(fspan);
                            *slots[s].lock().unwrap_or_else(PoisonError::into_inner) =
                                Some(outcome);
                            // Capacity n with one message per shard: the
                            // send cannot block, but keep the timeout
                            // flavor so no refactor can reintroduce an
                            // unbounded wait on this path.
                            let _ = tx.send_timeout(s, Duration::from_secs(1));
                        });
                    }
                    drop(tx);
                    // Barrier watchdog: wait for each shard's completion
                    // signal under a hard per-round deadline instead of
                    // blocking forever on a stuck or dead shard. A
                    // received failure — or deadline expiry — raises the
                    // cancel flag, and sibling shards abandon the round
                    // at their next cooperative check.
                    let started = Instant::now();
                    let hard = started + deadline;
                    let mut received = 0usize;
                    while received < n {
                        let now = Instant::now();
                        if now >= hard {
                            barrier_timeout = true;
                            break;
                        }
                        match rx.recv_timeout(hard - now) {
                            Ok(s) => {
                                received += 1;
                                on_time[s] = true;
                                let failed = matches!(
                                    &*slots[s].lock().unwrap_or_else(PoisonError::into_inner),
                                    Some(
                                        RoundOutcome::Failed(_) | RoundOutcome::Panicked(_)
                                    )
                                );
                                if failed {
                                    cancel.store(true, Ordering::SeqCst);
                                }
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                barrier_timeout = true;
                                break;
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    if barrier_timeout {
                        waited_ms = started.elapsed().as_millis() as u64;
                        cancel.store(true, Ordering::SeqCst);
                    }
                    // Leaving the scope joins the shard threads:
                    // cancelled shards return at their next cooperative
                    // check, and an engine round always terminates, so
                    // the join is bounded.
                });
            }

            let mut broadcasts: Vec<TypedEdit> = Vec::new();
            let mut failure: Option<(usize, ShardCause)> = None;
            let mut states: Vec<&'static str> = Vec::with_capacity(n);
            for (s, slot) in slots.into_iter().enumerate() {
                let outcome = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                match outcome {
                    Some(RoundOutcome::Done(b)) => {
                        let (rep, out) = *b;
                        rounds_done[s] += 1;
                        exch_sent[s] += out.len();
                        report.tasks_executed += rep.tasks_executed;
                        report.edges_fired += rep.edges_fired;
                        broadcasts.extend(out);
                        states.push(if on_time[s] { "ok" } else { "missed-barrier" });
                    }
                    Some(RoundOutcome::Failed(e)) => {
                        states.push("failed");
                        if failure.is_none() {
                            failure = Some((s, ShardCause::Engine(Box::new(e))));
                        }
                    }
                    Some(RoundOutcome::Panicked(m)) => {
                        states.push("failed");
                        if failure.is_none() {
                            failure = Some((s, ShardCause::Panicked(m)));
                        }
                    }
                    Some(RoundOutcome::Cancelled) => states.push("cancelled"),
                    // The scope join means every shard thread finished;
                    // an empty slot can only mean the thread died before
                    // its deposit. Treat it like a missed barrier.
                    None => states.push("missed-barrier"),
                }
            }
            if failure.is_none() && states.iter().any(|st| *st != "ok") {
                // No shard reported a hard failure, yet the round is
                // incomplete: the watchdog expired (or a shard vanished).
                // Blame the first shard that missed the barrier.
                let victim = states
                    .iter()
                    .position(|st| *st == "missed-barrier")
                    .or_else(|| states.iter().position(|st| *st != "ok"))
                    .unwrap_or(0);
                failure = Some((victim, ShardCause::Barrier { waited_ms }));
            }
            if let Some((shard, cause)) = failure {
                let snapshot: Vec<ShardStatus> = (0..n)
                    .map(|s| ShardStatus {
                        shard: s,
                        rounds_done: rounds_done[s],
                        queued_edits: queued[s],
                        exchanged_tuples: exch_sent[s],
                        state: states[s],
                    })
                    .collect();
                return Err(self.abort(shard, round, cause, barrier_timeout, snapshot));
            }
            if broadcasts.is_empty() {
                break;
            }
            report.exchange_rounds += 1;
            report.exchanged_tuples += broadcasts.len();
            for slot in &mut inbox {
                slot.extend(broadcasts.iter().cloned());
            }
        }
        for eng in &mut self.engines {
            eng.publish();
        }
        let reg = incr_obs::registry();
        reg.counter("shard.updates").inc();
        reg.counter("shard.exchange.rounds")
            .add(report.exchange_rounds as u64);
        reg.counter("shard.exchange.tuples")
            .add(report.exchanged_tuples as u64);
        Ok(report)
    }

    /// Cross-shard abort: abort the open epoch on every shard — all the
    /// batch's rounds stamped at it, so each shard is back at its
    /// pre-batch state — count the abort, dump a flight-recorder black
    /// box spanning all shards' lanes, and build the typed error.
    /// Nothing publishes — readers pinned on any shard keep the last
    /// committed batch.
    fn abort(
        &mut self,
        shard: usize,
        round: usize,
        cause: ShardCause,
        barrier: bool,
        snapshot: Vec<ShardStatus>,
    ) -> EngineError {
        let t0 = Instant::now();
        for eng in &mut self.engines {
            eng.abort_open_epoch();
        }
        let reg = incr_obs::registry();
        reg.counter("shard.rollback_ns")
            .add(t0.elapsed().as_nanos() as u64);
        reg.counter("shard.aborts").inc();
        if barrier {
            reg.counter("shard.exchange_timeouts").inc();
        }
        flight::instant(FlightCode::ShardAbort, shard as u64);
        self.dump_black_box(shard, round, &cause, &snapshot);
        EngineError::ShardFailed {
            shard,
            round,
            cause,
            snapshot,
        }
    }

    /// Dump the flight recorder's rings — every shard's lanes, tagged
    /// by [`flight::set_shard`] — with the abort's context record
    /// ([`flight::black_box`]).
    fn dump_black_box(
        &self,
        shard: usize,
        round: usize,
        cause: &ShardCause,
        snapshot: &[ShardStatus],
    ) {
        flight::black_box(self.black_box.as_deref(), "shard-failed", || {
            let shards_json = Json::Arr(
                snapshot
                    .iter()
                    .map(|st| {
                        Json::Obj(vec![
                            ("shard".to_string(), st.shard.into()),
                            ("rounds_done".to_string(), st.rounds_done.into()),
                            ("queued_edits".to_string(), st.queued_edits.into()),
                            ("exchanged_tuples".to_string(), st.exchanged_tuples.into()),
                            ("state".to_string(), st.state.into()),
                        ])
                    })
                    .collect(),
            );
            vec![
                ("error", cause.to_string().into()),
                ("kind", "shard-failed".into()),
                ("shard", shard.into()),
                ("round", round.into()),
                ("shards", shards_json),
            ]
        });
    }

    /// Does `pred(args…)` hold (symbols only)? Routed to the owner,
    /// whose owned slice is exact.
    pub fn has(&self, pred: &str, args: &[&str]) -> bool {
        let owner = args
            .first()
            .map_or(0, |a| PortableValue::parse(a).shard(self.plan.shards));
        self.engines[owner].has(pred, args)
    }

    /// Number of tuples in `pred`: ownership-filtered union over shards.
    pub fn count(&self, pred: &str) -> usize {
        let n = self.plan.shards;
        self.engines
            .iter()
            .enumerate()
            .map(|(s, eng)| {
                let db = eng.database();
                db.pred_id(pred).map_or(0, |id| {
                    db.rel(id)
                        .iter()
                        .filter(|t| tuple_shard(t, &db, n) == s)
                        .count()
                })
            })
            .sum()
    }

    /// Pattern query, e.g. `path(a, ?)`: ownership-filtered union over
    /// shards, rendered and sorted.
    pub fn query(&self, pattern: &str) -> Result<Vec<String>, EngineError> {
        let (pred, pats) = parse_pattern(pattern).map_err(EngineError::Edit)?;
        let n = self.plan.shards;
        let mut rows = Vec::new();
        for (s, eng) in self.engines.iter().enumerate() {
            let db = eng.database();
            let owned: Vec<Tuple> = crate::query::query(&db, &pred, &pats)
                .map_err(EngineError::Edit)?
                .into_iter()
                .filter(|t| tuple_shard(t, &db, n) == s)
                .collect();
            rows.extend(crate::query::render(&db, &owned));
        }
        rows.sort();
        rows.dedup();
        Ok(rows)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stream::DeltaQueue;
    use incr_sched::{Hybrid, LevelBased};

    fn mk_sched(dag: Arc<Dag>) -> Box<dyn Scheduler + Send> {
        Box::new(LevelBased::new(dag))
    }

    /// Keep expected injected-panic unwinds out of test output. Same
    /// contract as the runtime crate's `silence_injected_panics` (which
    /// this crate cannot depend on): chained, idempotent, message-keyed.
    pub(crate) fn silence_test_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let text = payload.downcast_ref::<String>().map(String::as_str);
                let injected = text
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .is_some_and(|s| s.contains("fault-injected panic"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    const TC: &str = "path(X, Y) :- edge(X, Y).\n\
                      path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                      edge(a, b). edge(b, c).";

    #[test]
    fn hash_is_type_tagged_and_stable() {
        assert_ne!(
            PortableValue::Int(42).shard_hash(),
            PortableValue::Text("42".into()).shard_hash()
        );
        assert_eq!(
            PortableValue::parse("42"),
            PortableValue::Int(42),
            "routing parse matches the engine's string-edit interning"
        );
        assert_eq!(PortableValue::parse("a"), PortableValue::Text("a".into()));
    }

    #[test]
    fn tc_classifies_local_with_one_mirror() {
        let p = parse_program(TC).unwrap();
        let plan = ShardPlan::analyze(&p, 4).unwrap();
        assert_eq!(
            plan.classes,
            vec![
                ("path".to_string(), RuleClass::Local),
                ("path".to_string(), RuleClass::Local),
            ]
        );
        // Only `edge` is mirror-read (second atom of the recursive
        // rule); it is base, so nothing is exchanged between rounds.
        assert_eq!(plan.mirrored.iter().collect::<Vec<_>>(), vec!["edge"]);
        assert!(plan.exchanged.is_empty());
    }

    #[test]
    fn right_recursion_is_forced_replicated() {
        // `path` recurses through a non-anchored self-read: exchanging
        // it would let deleted tuples survive on stale mirror support,
        // so the whole component is replicated and reads itself locally.
        let p = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        let plan = ShardPlan::analyze(&p, 2).unwrap();
        assert_eq!(plan.cyclic.iter().collect::<Vec<_>>(), vec!["path"]);
        assert!(plan
            .classes
            .iter()
            .all(|(_, c)| *c == RuleClass::Replicated));
        // No mirror of `path` remains, so nothing is exchanged.
        assert!(plan.exchanged.is_empty());
        assert_eq!(plan.mirrored.iter().collect::<Vec<_>>(), vec!["edge"]);
    }

    #[test]
    fn acyclic_derived_consumer_is_exchanged() {
        // `path` is anchored left recursion (local), and `rev` reads it
        // non-anchored — an acyclic mirror of a derived predicate, fed
        // by the round-based delta exchange.
        let p = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             rev(Y, X) :- path(X, Y).",
        )
        .unwrap();
        let plan = ShardPlan::analyze(&p, 2).unwrap();
        assert!(plan.cyclic.is_empty());
        assert!(plan.exchanged.contains("path"));
    }

    #[test]
    fn sharded_tc_matches_unsharded() {
        for shards in [1, 2, 3, 5] {
            let mut e = ShardedEngine::new(TC, shards, mk_sched).unwrap();
            assert_eq!(e.count("path"), 3, "{shards} shards");
            e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap();
            assert_eq!(e.count("path"), 6, "{shards} shards");
            assert!(e.has("path", &["a", "d"]), "{shards} shards");
            e.update(&[FactEdit::remove("edge", &["b", "c"])]).unwrap();
            // Remaining edges a->b, c->d: two disconnected paths.
            assert_eq!(e.count("path"), 2, "{shards} shards");
            assert!(!e.has("path", &["a", "c"]), "{shards} shards");
        }
    }

    #[test]
    fn program_fact_of_a_derived_predicate_is_refused_not_lost() {
        // One engine keeps such a fact as a rule with an empty body. Here
        // facts travel as base-table edits, which a derived predicate does
        // not take, so the program is refused before any shard exists
        // rather than loaded and later forgotten.
        let src = "reach(n0).\n\
                   reach(Y) :- reach(X), edge(X, Y).\n\
                   edge(n0, n1). edge(n1, n0).";
        let err = ShardedEngine::new(src, 2, mk_sched).err();
        assert!(
            matches!(&err, Some(EngineError::Edit(m)) if m.contains("derived predicate reach")),
            "{err:?}"
        );
        // With the seed in a base table the same cut keeps both tuples.
        let src = src.replace("reach(n0).", "start(n0).\nreach(X) :- start(X).");
        let mut e = ShardedEngine::new(&src, 2, mk_sched).unwrap();
        e.update(&[FactEdit::remove("edge", &["n1", "n0"])]).unwrap();
        assert_eq!(e.query("reach(?)").unwrap(), ["(n0)", "(n1)"]);
    }

    #[test]
    fn negation_and_aggregates_match_unsharded() {
        let src = "lone(X) :- node(X, Y), !edge(X, Y).\n\
                   deg(X, count(Y)) :- edge(X, Y).\n\
                   node(a, b). node(b, a). node(c, a).\n\
                   edge(a, b). edge(a, c).";
        let reference = IncrementalEngine::new(src).unwrap();
        for shards in [1, 2, 4] {
            let mut e = ShardedEngine::new(src, shards, |d| {
                Box::new(Hybrid::new(d)) as Box<dyn Scheduler + Send>
            })
            .unwrap();
            for pat in ["lone(?)", "deg(?, ?)"] {
                let mut want = reference.query(pat).unwrap();
                want.sort();
                assert_eq!(e.query(pat).unwrap(), want, "{shards} shards, {pat}");
            }
            e.update(&[
                FactEdit::remove("edge", &["a", "b"]),
                FactEdit::add("edge", &["c", "a"]),
            ])
            .unwrap();
            let mut reference = IncrementalEngine::new(src).unwrap();
            let dag = reference.dag().clone();
            let mut s: Box<dyn Scheduler> = Box::new(LevelBased::new(dag));
            reference
                .update(
                    s.as_mut(),
                    &[
                        FactEdit::remove("edge", &["a", "b"]),
                        FactEdit::add("edge", &["c", "a"]),
                    ],
                )
                .unwrap();
            for pat in ["lone(?)", "deg(?, ?)"] {
                let mut want = reference.query(pat).unwrap();
                want.sort();
                assert_eq!(e.query(pat).unwrap(), want, "{shards} shards, {pat}");
            }
        }
    }

    #[test]
    fn quoted_numeric_symbol_stays_distinct_from_int() {
        // "42" (symbol) and 42 (int) must partition independently and
        // survive the typed-edit path without collapsing.
        let src = "has(X) :- rel(X, Y).\nrel(\"42\", a). rel(42, b).";
        let mut e = ShardedEngine::new(src, 3, mk_sched).unwrap();
        assert_eq!(e.count("has"), 2);
        e.update(&[FactEdit::remove("rel", &["42", "b"])]).unwrap();
        // The string-edit path parses "42" as the *integer*, matching
        // unsharded semantics: only the int row dies.
        assert_eq!(e.count("has"), 1);
    }

    #[test]
    fn epochs_publish_once_per_batch_on_every_shard() {
        let mut e = ShardedEngine::new(TC, 3, mk_sched).unwrap();
        let before = e.epoch();
        e.update(&[
            FactEdit::add("edge", &["c", "d"]),
            FactEdit::add("edge", &["d", "e"]),
        ])
        .unwrap();
        for s in 0..3 {
            assert_eq!(e.shard(s).epoch(), before + 1, "shard {s}");
        }
    }

    #[test]
    fn derived_predicate_edit_rejected() {
        let mut e = ShardedEngine::new(TC, 2, mk_sched).unwrap();
        assert!(e.update(&[FactEdit::add("path", &["x", "y"])]).is_err());
        assert!(e.update(&[FactEdit::add("nope", &["x"])]).is_err());
    }

    #[test]
    fn injected_failure_rolls_back_all_shards_and_publishes_nothing() {
        // `rev` mirror-reads `path`, so updates take ≥2 rounds and the
        // injected round-1 failure lands *after* round 0 already applied
        // engine deltas and mirror feeds on every shard.
        let src = "path(X, Y) :- edge(X, Y).\n\
                   path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                   rev(Y, X) :- path(X, Y).\n\
                   edge(a, b). edge(b, c).";
        let mut e = ShardedEngine::new(src, 2, mk_sched).unwrap();
        e.set_black_box(None);
        let before_path = e.query("path(?, ?)").unwrap();
        let before_rev = e.query("rev(?, ?)").unwrap();
        let epoch = e.epoch();
        e.set_fault_hook(Some(Arc::new(|s, r| {
            (s == 1 && r == 1).then(|| ShardFault::Fail("boom".into()))
        })));
        let err = e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap_err();
        match &err {
            EngineError::ShardFailed {
                shard,
                round,
                cause,
                snapshot,
            } => {
                assert_eq!(*shard, 1);
                assert_eq!(*round, 1);
                assert!(matches!(cause, ShardCause::Engine(_)), "{cause}");
                assert_eq!(snapshot.len(), 2);
                assert_eq!(snapshot[1].state, "failed");
            }
            other => panic!("expected ShardFailed, got {other}"),
        }
        assert_eq!(e.query("path(?, ?)").unwrap(), before_path, "rolled back");
        assert_eq!(e.query("rev(?, ?)").unwrap(), before_rev, "rolled back");
        for s in 0..2 {
            assert_eq!(e.shard(s).epoch(), epoch, "shard {s}: no epoch published");
        }
        // Disarmed retry converges bit-identically to fault-free.
        e.set_fault_hook(None);
        e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap();
        assert!(e.has("path", &["a", "d"]));
        assert!(e.has("rev", &["d", "a"]));
        assert_eq!(e.epoch(), epoch + 1);
    }

    #[test]
    fn injected_panic_is_isolated_and_typed() {
        silence_test_panics();
        let mut e = ShardedEngine::new(TC, 2, mk_sched).unwrap();
        e.set_black_box(None);
        let before = e.query("path(?, ?)").unwrap();
        e.set_fault_hook(Some(Arc::new(|s, _| {
            (s == 0).then(|| ShardFault::Panic("fault-injected panic: unit".into()))
        })));
        let err = e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap_err();
        match &err {
            EngineError::ShardFailed {
                shard: 0,
                cause: ShardCause::Panicked(m),
                ..
            } => assert!(m.contains("unit"), "payload preserved: {m}"),
            other => panic!("expected panicked shard 0, got {other}"),
        }
        assert_eq!(e.query("path(?, ?)").unwrap(), before);
        e.set_fault_hook(None);
        e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap();
        assert_eq!(e.count("path"), 6);
    }

    /// Delegates to LevelBased; while armed, panics on the next
    /// completion — mid-cascade, with the completed task's deltas
    /// already in the relations — and disarms.
    struct PanicMidCascade {
        inner: LevelBased,
        armed: Arc<AtomicBool>,
    }

    impl Scheduler for PanicMidCascade {
        fn name(&self) -> &str {
            "PanicMidCascade"
        }
        fn start(&mut self, initial: &[incr_dag::NodeId]) {
            self.inner.start(initial);
        }
        fn on_completed(&mut self, v: incr_dag::NodeId, fired: &[incr_dag::NodeId]) {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("fault-injected panic: {}", self.name());
            }
            self.inner.on_completed(v, fired);
        }
        fn pop_ready(&mut self) -> Option<incr_dag::NodeId> {
            self.inner.pop_ready()
        }
        fn is_quiescent(&self) -> bool {
            self.inner.is_quiescent()
        }
        fn cost(&self) -> incr_sched::CostMeter {
            self.inner.cost()
        }
        fn space_bytes(&self) -> usize {
            self.inner.space_bytes()
        }
        fn precompute_bytes(&self) -> usize {
            self.inner.precompute_bytes()
        }
        fn on_external_dispatch(&mut self, v: incr_dag::NodeId) {
            self.inner.on_external_dispatch(v);
        }
    }

    #[test]
    fn panic_mid_cascade_rolls_back_the_panicking_shard_too() {
        silence_test_panics();
        let batch = [FactEdit::add("edge", &["c", "d"])];
        let mut fresh = ShardedEngine::new(TC, 2, mk_sched).unwrap();
        fresh.update(&batch).unwrap();
        // Every shard takes part in the batch (`edge` is mirrored). The
        // victim dies right after its first completed task: the edit is
        // in its `edge` or `edge__mirror`, and no round result exists.
        for victim in 0..2 {
            // One switch per shard, in shard order; all off while the
            // program's own facts load.
            let mut armed: Vec<Arc<AtomicBool>> = Vec::new();
            let mut e = ShardedEngine::new(TC, 2, |dag| {
                let switch = Arc::new(AtomicBool::new(false));
                armed.push(switch.clone());
                Box::new(PanicMidCascade {
                    inner: LevelBased::new(dag),
                    armed: switch,
                })
            })
            .unwrap();
            e.set_black_box(None);
            let before = (e.query("edge(?, ?)").unwrap(), e.query("path(?, ?)").unwrap());
            let epoch = e.epoch();

            armed[victim].store(true, Ordering::SeqCst);
            match e.update(&batch).unwrap_err() {
                EngineError::ShardFailed {
                    shard,
                    cause: ShardCause::Panicked(m),
                    ..
                } => {
                    assert_eq!(shard, victim);
                    assert!(m.contains("PanicMidCascade"), "payload preserved: {m}");
                }
                other => panic!("expected a panicked shard, got {other}"),
            }
            assert_eq!(
                (e.query("edge(?, ?)").unwrap(), e.query("path(?, ?)").unwrap()),
                before,
                "victim {victim}"
            );
            for s in 0..2 {
                assert_eq!(e.shard(s).epoch(), epoch, "shard {s}: no epoch published");
            }

            // The panic disarmed itself; the retry must land where an
            // engine that never failed lands.
            e.update(&batch).unwrap();
            for pat in ["edge(?, ?)", "path(?, ?)"] {
                assert_eq!(
                    e.query(pat).unwrap(),
                    fresh.query(pat).unwrap(),
                    "victim {victim}, {pat}"
                );
            }
            assert_eq!(e.epoch(), epoch + 1);
        }
    }

    #[test]
    fn barrier_watchdog_fires_and_cancels_siblings() {
        let mut e = ShardedEngine::new(TC, 3, mk_sched).unwrap();
        e.set_black_box(None);
        e.set_round_deadline(Duration::from_millis(50));
        let epoch = e.epoch();
        let before = e.query("path(?, ?)").unwrap();
        // A 30 s "stuck shard": only the watchdog + cancellation keep
        // this test fast.
        e.set_fault_hook(Some(Arc::new(|s, r| {
            (s == 2 && r == 0).then(|| ShardFault::Delay(Duration::from_secs(30)))
        })));
        let t0 = Instant::now();
        let err = e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "watchdog must fire within the deadline, not hang"
        );
        match &err {
            EngineError::ShardFailed { shard, cause, .. } => {
                assert_eq!(*shard, 2);
                assert!(matches!(cause, ShardCause::Barrier { .. }), "{cause}");
            }
            other => panic!("expected ShardFailed, got {other}"),
        }
        assert_eq!(e.query("path(?, ?)").unwrap(), before);
        assert_eq!(e.epoch(), epoch, "no epoch published");
        e.set_fault_hook(None);
        e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap();
        assert_eq!(e.count("path"), 6);
        assert_eq!(e.epoch(), epoch + 1);
    }

    #[test]
    fn short_delay_under_deadline_still_commits() {
        let mut e = ShardedEngine::new(TC, 2, mk_sched).unwrap();
        e.set_black_box(None);
        e.set_round_deadline(Duration::from_secs(10));
        e.set_fault_hook(Some(Arc::new(|s, r| {
            (s == 0 && r == 0).then(|| ShardFault::Delay(Duration::from_millis(20)))
        })));
        e.update(&[FactEdit::add("edge", &["c", "d"])]).unwrap();
        assert_eq!(e.count("path"), 6, "a jittered barrier is not a failure");
    }

    /// Satellite invariant: pushing a mixed batch through one
    /// `DeltaQueue` and splitting the drained net delta by shard hash
    /// equals splitting the raw edits first and coalescing per shard.
    #[test]
    fn delta_queue_commutes_with_shard_split() {
        let shards = 4;
        // Deterministic pseudo-random edit stream with plenty of
        // repeats so coalescing actually fires.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edits: Vec<FactEdit> = (0..400)
            .map(|_| {
                let a = format!("n{}", next() % 17);
                let b = format!("n{}", next() % 17);
                if next() % 2 == 0 {
                    FactEdit::add("edge", &[&a, &b])
                } else {
                    FactEdit::remove("edge", &[&a, &b])
                }
            })
            .collect();

        // Mixed queue, then split the net delta.
        let mut q = DeltaQueue::new();
        for e in &edits {
            q.push(e.clone());
        }
        let (net, _) = q.drain();
        let mixed_then_split = split_by_shard(&net, shards);

        // Split first, then per-shard queues.
        let mut split_then_net: Vec<Vec<FactEdit>> = Vec::new();
        for part in split_by_shard(&edits, shards) {
            let mut q = DeltaQueue::new();
            for e in part {
                q.push(e);
            }
            split_then_net.push(q.drain().0);
        }

        let key = |e: &FactEdit| {
            (
                e.pred_name().to_string(),
                e.arg_texts().to_vec(),
                matches!(e, FactEdit::Add { .. }),
            )
        };
        for s in 0..shards {
            assert_eq!(
                mixed_then_split[s].iter().map(key).collect::<Vec<_>>(),
                split_then_net[s].iter().map(key).collect::<Vec<_>>(),
                "shard {s} net delta (order included) must match"
            );
        }
    }
}

