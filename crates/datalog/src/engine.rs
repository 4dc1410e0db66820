//! The incremental engine: full materialization plus scheduler-driven
//! updates over the compiled task graph.
//!
//! This is the end-to-end story of the paper: a base-table edit dirties
//! source nodes; the chosen scheduler (LevelBased, LogicBlox, Hybrid, …)
//! decides which predicate tasks to re-evaluate and when; each task
//! reports which outputs actually changed, so activation cascades exactly
//! as far as the data requires and no further.

use crate::ast::{Atom, Program, Rule, Term};
use crate::eval::{compile_program, compile_rule, ensure_indices, load_facts, seminaive_scc};
use crate::hash::Map;
use crate::incr::{update_scc, Delta, RuleChange};
use crate::mvcc::{DbCell, PinRegistry, ReaderHandle, Snapshot};
use crate::parser::{parse_program, ParseError};
use crate::query::{parse_pattern, query as run_query};
use crate::rel::{Database, PredId};
use crate::stratify::{stratify, StratifyError};
use crate::taskgraph::{NodeKind, TaskGraph};
use crate::value::{Tuple, Value};
use incr_dag::{Dag, NodeId};
use incr_obs::trace;
use incr_sched::{CostMeter, Scheduler};
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Engine construction and update errors.
#[derive(Debug)]
pub enum EngineError {
    Parse(ParseError),
    Stratify(StratifyError),
    Edit(String),
    /// `pred` has an aggregate rule and another rule or a program fact
    /// besides it. An aggregate holds one fold per group, and the engine
    /// keeps that fold in the group's one tuple, so such a program — or a
    /// rule change that would make one — is refused.
    Aggregate { pred: String },
    /// The driving scheduler stalled (offered no task while active work
    /// remained). The update was rolled back — its open epoch aborted —
    /// so the materialization is exactly what it was before the failed
    /// update, and retrying the same update is idempotent.
    Stall { scheduler: String },
    /// The scheduler or a task panicked mid-update; the payload message
    /// is kept. The update was rolled back exactly as for [`Self::Stall`].
    Panicked(String),
    /// A sharded update batch failed on one shard: that shard panicked,
    /// returned an error, or missed the exchange barrier. Every shard
    /// was rolled back to its pre-batch state and no epoch published —
    /// retrying the batch (with the fault gone) is idempotent. Carries
    /// a multi-shard snapshot taken at abort time for diagnostics.
    ShardFailed {
        /// The shard that failed first (lowest index on ties).
        shard: usize,
        /// 0-based exchange round the failure surfaced in.
        round: usize,
        /// Why the shard failed.
        cause: crate::shard::ShardCause,
        /// Per-shard state at abort: round index, queue depths,
        /// in-flight exchange volume.
        snapshot: Vec<crate::shard::ShardStatus>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Stratify(e) => write!(f, "{e}"),
            EngineError::Edit(e) => write!(f, "bad edit: {e}"),
            EngineError::Aggregate { pred } => write!(
                f,
                "{pred} is an aggregate: its aggregate rule must be its only rule, \
                 with no program facts"
            ),
            EngineError::Stall { scheduler } => write!(
                f,
                "{scheduler} stalled mid-update; the update was rolled back"
            ),
            EngineError::Panicked(msg) => {
                write!(f, "panicked mid-update: {msg}; the update was rolled back")
            }
            EngineError::ShardFailed {
                shard,
                round,
                cause,
                snapshot,
            } => write!(
                f,
                "shard {shard} failed at round {round}: {cause}; \
                 all {} shards rolled back, no epoch published",
                snapshot.len()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// One base-table edit.
#[derive(Clone, Debug)]
pub enum FactEdit {
    Add { pred: String, args: Vec<String> },
    Remove { pred: String, args: Vec<String> },
}

/// A typed base-table edit: values arrive as [`crate::shard::PortableValue`]
/// instead of strings, so the symbol `"42"` and the integer `42` stay
/// distinct. This is the cross-shard delta-exchange entry point — mirror
/// feeds must not re-parse rendered text.
#[derive(Clone, Debug)]
pub struct TypedEdit {
    pub pred: String,
    pub args: Vec<crate::shard::PortableValue>,
    pub adding: bool,
}

impl FactEdit {
    /// `+pred(a, b)` convenience constructor.
    pub fn add(pred: &str, args: &[&str]) -> FactEdit {
        FactEdit::Add {
            pred: pred.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// `-pred(a, b)` convenience constructor.
    pub fn remove(pred: &str, args: &[&str]) -> FactEdit {
        FactEdit::Remove {
            pred: pred.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The edited predicate's name.
    pub fn pred_name(&self) -> &str {
        match self {
            FactEdit::Add { pred, .. } | FactEdit::Remove { pred, .. } => pred,
        }
    }

    /// The edit's argument texts.
    pub fn arg_texts(&self) -> &[String] {
        match self {
            FactEdit::Add { args, .. } | FactEdit::Remove { args, .. } => args,
        }
    }

    /// The same edit with its argument texts read as values by
    /// [`PortableValue::parse`](crate::shard::PortableValue::parse) — the
    /// one text-to-value rule, shared by the engine, the queue and the
    /// shard router.
    pub fn typed(&self) -> TypedEdit {
        TypedEdit {
            pred: self.pred_name().to_string(),
            args: self
                .arg_texts()
                .iter()
                .map(|a| crate::shard::PortableValue::parse(a))
                .collect(),
            adding: matches!(self, FactEdit::Add { .. }),
        }
    }
}

/// What one incremental update did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Tasks the scheduler dispatched (= activated tasks).
    pub tasks_executed: usize,
    /// Edges that fired (carried a non-empty delta).
    pub edges_fired: usize,
    /// Net tuple changes per predicate name.
    pub pred_changes: Map<String, (usize, usize)>,
    /// Scheduling cost of the run.
    pub sched_cost: CostMeter,
    /// Execution order of task nodes.
    pub order: Vec<NodeId>,
}

/// Nothing left to choose: evaluation has one path (sorted deltas, one
/// thread, probes on every bound column) and maintenance one backend
/// (prove or delete, then insert — [`crate::incr`]). The type, with
/// [`EvalOptions::sequential`], [`IncrementalEngine::eval_options`] and
/// [`IncrementalEngine::set_eval_options`], is kept only because the frozen
/// `bench_all/src/datalog_run.rs` calls them; ROADMAP 7(a) deletes them
/// with it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalOptions;

impl EvalOptions {
    /// Alias of [`EvalOptions::default`], kept only for the frozen
    /// `bench_all` (it once turned intra-clique threads off;
    /// EXPERIMENTS.md, "Retired: intra-clique parallel evaluation").
    pub fn sequential() -> Self {
        EvalOptions
    }
}

/// A fully materialized Datalog database with scheduler-driven
/// incremental maintenance.
///
/// The database lives behind a shared lock so any number of reader
/// threads can serve [`Snapshot`] queries (via [`Self::reader`]) while
/// updates run: the maintenance loop takes the write lock *per
/// scheduler task*, so readers interleave at task boundaries, and the
/// epoch stamps in [`crate::rel`] guarantee every pinned snapshot keeps
/// reading the last published cut regardless of interleaving. Epochs
/// publish at the committed end of each update batch — never mid-
/// cascade.
pub struct IncrementalEngine {
    db: Arc<DbCell>,
    pins: Arc<PinRegistry>,
    /// The rules, and the facts the program states of *derived*
    /// predicates (they compile into rules). Base facts are rows of the
    /// database and nowhere else once loaded: base tables are edited
    /// through [`Self::update`], so a copy here would go stale.
    pub(crate) program: Program,
    /// The task graph, whose clique nodes own the compiled rules.
    graph: TaskGraph,
}

impl IncrementalEngine {
    /// Parse, stratify, compile, load facts, and fully materialize.
    pub fn new(src: &str) -> Result<Self, EngineError> {
        let program = parse_program(src).map_err(EngineError::Parse)?;
        Self::from_program(program)
    }

    /// Build from an already-parsed program.
    pub fn from_program(program: Program) -> Result<Self, EngineError> {
        Self::from_program_declared(program, &[])
    }

    /// [`Self::from_program`] plus explicit predicate declarations. The
    /// sharded runtime strips facts out of its per-shard programs and
    /// pre-declares every original predicate (and every mirror), so edit
    /// routing and queries never hit an unregistered name even when no
    /// rewritten rule mentions it.
    pub(crate) fn from_program_declared(
        mut program: Program,
        declare: &[(String, usize)],
    ) -> Result<Self, EngineError> {
        Self::check_aggregates(&program)?;
        let mut db = Database::new();
        let rules = compile_program(&program, &mut db);
        load_facts(&program, &mut db);
        for (name, arity) in declare {
            db.pred(name, *arity);
        }
        let derived: BTreeSet<String> =
            program.derived_predicates().into_iter().map(str::to_string).collect();
        program.rules.retain(|r| !r.is_fact() || derived.contains(&r.head.pred));
        program.rules.shrink_to_fit();
        let strat = stratify(&program).map_err(EngineError::Stratify)?;
        let graph = TaskGraph::build(&strat, rules, &db);

        // Full materialization happens on the still-private database, each
        // clique with its heads lent, then the initial state publishes as
        // epoch 1 — the first cut snapshots can pin. A clique's forward and
        // pin plans' indices come just before it; the check and group plans
        // are decided from the materialised extents, and indexed, after.
        for &v in graph.dag.topo_order() {
            if let NodeKind::Clique { preds, rules } = &graph.kinds[v.index()] {
                ensure_indices(&mut db, rules.iter(), false);
                seminaive_scc(&mut db.lend(preds), rules, Map::default(), true);
            }
        }
        ensure_indices(&mut db, graph.rules(), true);
        db.publish(u64::MAX);
        Ok(IncrementalEngine {
            db: Arc::new(DbCell::new(db)),
            pins: Arc::new(PinRegistry::new()),
            program,
            graph,
        })
    }

    /// The evaluation options in effect — always the default, since
    /// [`EvalOptions`] has nothing to set. Kept only for the frozen
    /// `bench_all`; ROADMAP 7(a) deletes it.
    pub fn eval_options(&self) -> &EvalOptions {
        &EvalOptions
    }

    /// Accepts and ignores `opts`, which has nothing to set. Kept only for
    /// the frozen `bench_all`; ROADMAP 7(a) deletes it.
    pub fn set_eval_options(&mut self, _opts: EvalOptions) {}

    /// Shared read access to the head database (poison-recovering and
    /// writer-deferring; see [`DbCell`]).
    fn db_read(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read()
    }

    /// Exclusive write access to the head database. Backs concurrent
    /// snapshot readers off while acquiring, so a read-heavy load
    /// cannot starve the maintenance loop.
    fn db_write(&self) -> RwLockWriteGuard<'_, Database> {
        self.db.write()
    }

    /// The live (head) database, read-locked for the guard's lifetime.
    /// Hold it briefly — an update cannot start while guards are out.
    pub fn database(&self) -> RwLockReadGuard<'_, Database> {
        self.db_read()
    }

    /// A cloneable, `Send + Sync` handle reader threads use to open
    /// snapshots while this engine keeps updating.
    pub fn reader(&self) -> ReaderHandle {
        ReaderHandle::new(self.db.clone(), self.pins.clone())
    }

    /// Pin the last published epoch and return a consistent read view.
    /// Equivalent to `self.reader().snapshot()`.
    pub fn begin_snapshot(&self) -> Snapshot {
        self.reader().snapshot()
    }

    /// The last published epoch.
    pub fn epoch(&self) -> u64 {
        self.db_read().epoch()
    }

    /// Commit the open epoch at a batch boundary: bump the published
    /// epoch, vacuum tombstones past the snapshot watermark, and export
    /// the `mvcc.*` observability set. Every update ends here or in
    /// [`Self::abort_open_epoch`]; the sharded runtime calls it once per
    /// committed batch.
    pub(crate) fn publish(&mut self) {
        let t0 = Instant::now();
        let mut db = self.db_write();
        let epoch = db.publish(self.pins.min_pinned());
        let retained = db.rows_retained();
        drop(db);
        let reg = incr_obs::registry();
        reg.gauge("mvcc.epoch").set(epoch as i64);
        reg.gauge("mvcc.pinned_epochs")
            .set(self.pins.pinned_count() as i64);
        reg.gauge("mvcc.rows_retained").set(retained as i64);
        reg.counter("mvcc.publish_ns")
            .add(t0.elapsed().as_nanos() as u64);
    }

    /// The scheduling DAG of the program.
    pub fn dag(&self) -> &Arc<Dag> {
        &self.graph.dag
    }

    /// The task graph (node kinds, predicate mapping).
    pub fn task_graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Does `pred(args…)` hold (symbols only)?
    pub fn has(&self, pred: &str, args: &[&str]) -> bool {
        self.db_read().has_fact(pred, args)
    }

    /// Number of tuples in `pred`.
    pub fn count(&self, pred: &str) -> usize {
        let db = self.db_read();
        db.pred_id(pred).map_or(0, |p| db.rel(p).len())
    }

    /// Apply base-table edits, driving re-derivation with `scheduler`.
    /// On `Err` the batch is refused whole: nothing it touched stays in
    /// the database and no epoch publishes.
    pub fn update(
        &mut self,
        scheduler: &mut dyn Scheduler,
        edits: &[FactEdit],
    ) -> Result<UpdateReport, EngineError> {
        let typed: Vec<TypedEdit> = edits.iter().map(FactEdit::typed).collect();
        self.update_full(scheduler, &typed, true, None)
    }

    /// The general update entry: typed edits, an explicit publish
    /// decision and optional per-predicate net-delta collection.
    ///
    /// * `publish: false` leaves the epoch open on success — the sharded
    ///   runtime runs several rounds in one open epoch and commits it
    ///   once per batch across all shards, so snapshots stay consistent
    ///   cuts. Any `Err` aborts the open epoch, earlier rounds included.
    /// * `collect` receives the update's net delta per predicate (each
    ///   task node executes at most once per update, so the per-node
    ///   output deltas *are* the nets). On a refused update the map's
    ///   contents are meaningless and must be discarded.
    pub(crate) fn update_full(
        &mut self,
        scheduler: &mut dyn Scheduler,
        typed: &[TypedEdit],
        publish: bool,
        collect: Option<&mut Map<PredId, Delta>>,
    ) -> Result<UpdateReport, EngineError> {
        let report = self.try_update(scheduler, typed, collect);
        self.end_epoch(report, publish)
    }

    /// The one place an update's epoch ends. `Ok` publishes (when asked
    /// to) — the one point where concurrent snapshots start seeing the
    /// update. `Err` aborts, whatever the error and however far the
    /// update got, so the last published cut stays the head.
    fn end_epoch(
        &mut self,
        report: Result<UpdateReport, EngineError>,
        publish: bool,
    ) -> Result<UpdateReport, EngineError> {
        match &report {
            Ok(_) if publish => self.publish(),
            Ok(_) => {}
            Err(_) => self.abort_open_epoch(),
        }
        report
    }

    fn try_update(
        &mut self,
        scheduler: &mut dyn Scheduler,
        typed: &[TypedEdit],
        collect: Option<&mut Map<PredId, Delta>>,
    ) -> Result<UpdateReport, EngineError> {
        // 1. Apply edits to base relations, collecting net deltas. The
        // write lock is scoped to this phase so readers interleave
        // before the cascade starts.
        let mut base_deltas: Map<PredId, Delta> = Map::default();
        {
            let mut db = self.db_write();
            for e in typed {
                let (id, tuple) = Self::resolve(&mut db, &self.graph, e)?;
                Self::apply_one(&mut db, &mut base_deltas, id, tuple, e.adding);
            }
        }

        // 2. Initially-dirty source nodes. Declared-only predicates (no
        // rule mentions them, so no task node) change silently: the edit
        // is in the relation, nothing downstream can read it.
        let initial: Vec<NodeId> = base_deltas
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .filter_map(|(p, _)| self.graph.node_of_pred.get(p).copied())
            .collect();

        // 3. Drive the scheduler.
        self.drive(scheduler, &initial, base_deltas, None, collect)
    }

    /// Validate one edit (predicate exists, arity, base-only) and intern
    /// its tuple.
    fn resolve(
        db: &mut Database,
        graph: &TaskGraph,
        e: &TypedEdit,
    ) -> Result<(PredId, Tuple), EngineError> {
        let id = Self::base_pred(db, graph, &e.pred, e.args.len())?;
        Ok((id, e.args.iter().map(|v| v.intern(db)).collect()))
    }

    /// Resolve and validate an editable (base) predicate.
    fn base_pred(
        db: &Database,
        graph: &TaskGraph,
        pred: &str,
        arity: usize,
    ) -> Result<PredId, EngineError> {
        let id = db
            .pred_id(pred)
            .ok_or_else(|| EngineError::Edit(format!("unknown predicate {pred}")))?;
        if db.rel(id).arity() != arity {
            return Err(EngineError::Edit(format!(
                "{pred} has arity {}, edit has {}",
                db.rel(id).arity(),
                arity
            )));
        }
        // Declared-only predicates have no task node; they are trivially
        // base (nothing derives into them).
        if let Some(node) = graph.node_of_pred.get(&id) {
            if !matches!(graph.kinds[node.index()], NodeKind::Base(_)) {
                return Err(EngineError::Edit(format!(
                    "{pred} is a derived predicate; only base tables can be edited"
                )));
            }
        }
        Ok(id)
    }

    /// Apply one tuple edit and fold it into the running net delta.
    pub(crate) fn apply_one(
        db: &mut Database,
        base_deltas: &mut Map<PredId, Delta>,
        id: PredId,
        tuple: Tuple,
        adding: bool,
    ) {
        let d = base_deltas.entry(id).or_default();
        if adding {
            if db.rel_mut(id).insert(tuple.clone()) && !d.removed.remove(&tuple) {
                d.added.insert(tuple);
            }
        } else if db.rel_mut(id).remove(&tuple) && !d.added.remove(&tuple) {
            d.removed.insert(tuple);
        }
    }

    /// Queue one logical update's edits into `q`, coalescing against the
    /// live base tables ([`crate::stream::DeltaQueue`] keeps the exact net
    /// diff: restoring edits cancel queued opposites, re-stating edits
    /// drop). Validation (predicate exists, arity, base-only) happens
    /// here, so a later [`Self::apply_queue`] cannot fail on edit shape,
    /// and covers the whole update before its first edit is queued: on
    /// `Err`, `q` is as it was.
    pub fn enqueue(
        &mut self,
        q: &mut crate::stream::DeltaQueue,
        edits: &[FactEdit],
    ) -> Result<(), EngineError> {
        self.queue_edits(q, edits)?;
        q.end_update();
        Ok(())
    }

    /// Push `edits` with their current base-table membership, all or
    /// none.
    fn queue_edits(
        &mut self,
        q: &mut crate::stream::DeltaQueue,
        edits: &[FactEdit],
    ) -> Result<(), EngineError> {
        let mut db = self.db_write();
        let mut present = Vec::with_capacity(edits.len());
        for e in edits {
            let (id, tuple) = Self::resolve(&mut db, &self.graph, &e.typed())?;
            present.push(db.rel(id).contains(&tuple));
        }
        for (e, present) in edits.iter().zip(present) {
            q.push_with_presence(e.clone(), present);
        }
        Ok(())
    }

    /// Drain the queue's net delta and apply it as **one** update — one
    /// scheduler `start`, one DRed cascade, for however many logical
    /// updates were absorbed. A refused update left the database as it
    /// was, and the drained edits are re-queued so no queued change is
    /// lost.
    pub fn apply_queue(
        &mut self,
        scheduler: &mut dyn Scheduler,
        q: &mut crate::stream::DeltaQueue,
    ) -> Result<UpdateReport, EngineError> {
        let (edits, updates) = q.drain();
        if updates > 1 {
            incr_obs::registry()
                .counter("datalog.coalesce.updates_merged")
                .add(updates as u64 - 1);
        }
        let result = self.update(scheduler, &edits);
        // The base tables are what they were at the drain, so re-queuing
        // against current membership reproduces the pre-drain queue.
        // Edits that fail validation got into `q` around `enqueue`; they
        // are what `update` refused and stay out.
        if result.is_err() && self.queue_edits(q, &edits).is_ok() {
            for _ in 0..updates {
                q.end_update();
            }
        }
        result
    }

    /// The scheduler-driven propagation loop shared by fact updates and
    /// rule changes. `base_deltas` are consumed by base nodes when popped;
    /// `change` — a rule change's rule, with the node of its head clique —
    /// goes to that clique's task beside its input deltas. Every clique task
    /// is the one [`update_scc`] call below, over its clique's heads lent
    /// from the database ([`Database::lend`]): it writes them and only
    /// reads the rest, and it builds no index.
    ///
    /// A stalled scheduler returns [`EngineError::Stall`], and a panic —
    /// the scheduler's or a task's — unwinds to here and returns
    /// [`EngineError::Panicked`], either with the database mid-update; the
    /// caller ends the epoch ([`Self::end_epoch`]), which aborts
    /// everything the update stamped — its own pre-drive edits included
    /// — so a failed update rolls back atomically and retrying it (with a
    /// working scheduler) is idempotent. A panic that held the database
    /// lock poisons it; [`DbCell`] recovers.
    fn drive(
        &mut self,
        scheduler: &mut dyn Scheduler,
        initial: &[NodeId],
        base_deltas: Map<PredId, Delta>,
        change: Option<(NodeId, RuleChange)>,
        collect: Option<&mut Map<PredId, Delta>>,
    ) -> Result<UpdateReport, EngineError> {
        let cascade =
            AssertUnwindSafe(|| self.cascade(scheduler, initial, base_deltas, change, collect));
        std::panic::catch_unwind(cascade)
            .unwrap_or_else(|p| Err(EngineError::Panicked(incr_obs::flight::panic_message(p))))
    }

    /// [`Self::drive`]'s loop.
    fn cascade(
        &mut self,
        scheduler: &mut dyn Scheduler,
        initial: &[NodeId],
        mut base_deltas: Map<PredId, Delta>,
        mut change: Option<(NodeId, RuleChange)>,
        mut collect: Option<&mut Map<PredId, Delta>>,
    ) -> Result<UpdateReport, EngineError> {
        let mut pending: Vec<Map<PredId, Delta>> =
            vec![Map::default(); self.graph.dag.node_count()];
        let mut edges_fired = 0usize;
        let mut order = Vec::new();
        let mut pred_changes: Map<String, (usize, usize)> = Map::default();

        scheduler.start(initial);
        while let Some(node) = scheduler.pop_ready() {
            order.push(node);
            // One write-lock tenure per scheduler task: between tasks
            // the lock is free, so snapshot readers make progress while
            // a long cascade runs. Isolation does not depend on this —
            // epoch stamps keep pinned readers on the published cut —
            // it only bounds reader latency.
            let mut db = self.db_write();
            // Per-stratum task span: the node's level in the task DAG is
            // its stratum, so one trace row per predicate-clique
            // evaluation, labelled with what was evaluated.
            let task_span = trace::enabled().then(|| {
                trace::span_with(
                    "datalog",
                    format!("eval {}", self.graph.label(node, &db)),
                    vec![
                        ("node", (node.0 as u64).into()),
                        ("stratum", (self.graph.dag.level(node) as u64).into()),
                    ],
                )
            });
            // Execute the task: produce this node's output deltas.
            let out: Map<PredId, Delta> = match &self.graph.kinds[node.index()] {
                NodeKind::Base(p) => {
                    let d = base_deltas.remove(p).unwrap_or_default();
                    Map::from_iter([(*p, d)])
                }
                NodeKind::Clique { preds, rules } => {
                    let input = std::mem::take(&mut pending[node.index()]);
                    let change = change.take_if(|(n, _)| *n == node).map(|(_, c)| c);
                    update_scc(&mut db.lend(preds), rules, preds, &input, change.as_ref())
                }
            };
            for (p, d) in &out {
                if !d.is_empty() {
                    let name = db.pred_name(*p);
                    let e = match pred_changes.get_mut(name) {
                        Some(e) => e,
                        None => pred_changes.entry(name.to_string()).or_default(),
                    };
                    e.0 += d.added.len();
                    e.1 += d.removed.len();
                    if let Some(c) = collect.as_deref_mut() {
                        let net = c.entry(*p).or_default();
                        for t in &d.added {
                            if !net.removed.remove(t) {
                                net.added.insert(t.clone());
                            }
                        }
                        for t in &d.removed {
                            if !net.added.remove(t) {
                                net.removed.insert(t.clone());
                            }
                        }
                    }
                }
            }
            drop(db);
            let changed: usize = out.values().map(Delta::len).sum();
            // Fire children whose read-set saw a change. Each delta goes
            // to its last reader and is cloned only for the ones before.
            let reads = |child: &NodeId, p: &PredId| self.graph.reads[child.index()].contains(p);
            let fired: Vec<NodeId> = (self.graph.dag.children(node).iter())
                .filter(|&c| out.iter().any(|(p, d)| !d.is_empty() && reads(c, p)))
                .copied()
                .collect();
            edges_fired += fired.len();
            for (p, mut d) in out {
                if d.is_empty() {
                    continue;
                }
                let mut readers = fired.iter().filter(|&c| reads(c, &p)).peekable();
                while let Some(child) = readers.next() {
                    let d = match readers.peek() {
                        Some(_) => d.clone(),
                        None => std::mem::take(&mut d),
                    };
                    pending[child.index()].insert(p, d);
                }
            }
            if let Some(s) = task_span {
                s.end_args(vec![
                    ("changed_tuples", changed.into()),
                    ("fired", fired.len().into()),
                ]);
            }
            scheduler.on_completed(node, &fired);
        }
        if !scheduler.is_quiescent() {
            return Err(EngineError::Stall {
                scheduler: scheduler.name().to_string(),
            });
        }

        Ok(UpdateReport {
            tasks_executed: order.len(),
            edges_fired,
            pred_changes,
            sched_cost: scheduler.cost(),
            order,
        })
    }

    /// The one rollback: discard everything stamped at the open epoch
    /// ([`Database::abort_open_epoch`]), whoever stamped it and however
    /// far it got. Nothing was published, so pinned snapshots never saw
    /// it. The sharded runtime calls this on every shard when a batch
    /// fails; all rounds of a batch share the one open epoch.
    pub(crate) fn abort_open_epoch(&mut self) {
        let _span = trace::span("datalog", "update.rollback");
        self.db_write().abort_open_epoch();
    }

    /// Rebuild stratification, compiled rules, and the task graph after a
    /// program change, keeping the database contents; decide the plans over
    /// the extents held now and build every index they probe. (A removed
    /// rule's forward plan, all its output needs, probes indices built when
    /// it went in: none is ever dropped.)
    pub(crate) fn rebuild(&mut self) -> Result<(), EngineError> {
        let strat = stratify(&self.program).map_err(EngineError::Stratify)?;
        let mut db = self.db_write();
        let rules = compile_program(&self.program, &mut db);
        let graph = TaskGraph::build(&strat, rules, &db);
        ensure_indices(&mut db, graph.rules(), true);
        drop(db);
        self.graph = graph;
        Ok(())
    }

    /// Add a rule to the program and incrementally update the
    /// materialization ("the rule definitions change", §I): the rule's
    /// output over the current database, less what its head already holds,
    /// is inserted into the head's clique and semi-naive carries on from it
    /// ([`update_scc`]); the net delta propagates downstream under
    /// `make_sched`'s scheduler, built over the *new* task DAG. The cost
    /// follows the rule's output and what it cascades into, not the
    /// extents.
    ///
    /// A rule for a base table makes it derived: the rows it holds now
    /// become the facts the program states of it, so none is lost and no
    /// edit it has seen is undone. A ground fact of a derived predicate is
    /// a rule with an empty body (what [`Self::remove_rule`] takes out); a
    /// fact of a base table is a row — route it through [`Self::update`].
    /// On `Err` the change is refused whole: rules, task graph, data and
    /// epoch are what they were.
    pub fn add_rule(
        &mut self,
        rule_text: &str,
        make_sched: impl FnOnce(Arc<Dag>) -> Box<dyn Scheduler>,
    ) -> Result<UpdateReport, EngineError> {
        let rule = Self::one_clause(rule_text, "add_rule")?;
        let derived = self
            .program
            .derived_predicates()
            .contains(rule.head.pred.as_str());
        if rule.is_fact() && !derived {
            return Err(EngineError::Edit(
                "a base-table fact goes through update(), not add_rule()".into(),
            ));
        }
        let mut rules = self.program.rules.clone();
        if !derived {
            rules.extend(self.rows_as_facts(&rule.head.pred));
        }
        rules.push(rule.clone());
        self.change_rules(&rule, true, Program { rules }, make_sched)
    }

    /// Remove a rule (matched by textual equality after parsing) and
    /// incrementally update the materialization: the rule's output is put
    /// to proof against the remaining rules, and what has none is deleted
    /// and cascades ([`update_scc`]). A predicate left without rules is a
    /// base table again, holding what the program states of it. Refused
    /// whole on `Err`, like [`Self::add_rule`].
    pub fn remove_rule(
        &mut self,
        rule_text: &str,
        make_sched: impl FnOnce(Arc<Dag>) -> Box<dyn Scheduler>,
    ) -> Result<UpdateReport, EngineError> {
        let rule = Self::one_clause(rule_text, "remove_rule")?;
        let Some(pos) = self.program.rules.iter().position(|r| *r == rule) else {
            return Err(EngineError::Edit(format!(
                "no such rule in the program: {rule}"
            )));
        };
        let mut rules = self.program.rules.clone();
        rules.remove(pos);
        self.change_rules(&rule, false, Program { rules }, make_sched)
    }

    /// The one clause of `text`, for `what`.
    fn one_clause(text: &str, what: &str) -> Result<Rule, EngineError> {
        let parsed = parse_program(text).map_err(EngineError::Parse)?;
        match <[Rule; 1]>::try_from(parsed.rules) {
            Ok([rule]) => Ok(rule),
            Err(_) => Err(EngineError::Edit(format!("{what} takes exactly one clause"))),
        }
    }

    /// `pred`'s current rows as program facts, sorted.
    fn rows_as_facts(&self, pred: &str) -> Vec<Rule> {
        let db = self.db_read();
        let Some(id) = db.pred_id(pred) else {
            return Vec::new();
        };
        let term = |v: &Value| match *v {
            Value::Int(i) => Term::Int(i),
            Value::Sym(s) => Term::Sym(db.interner.name(s).to_string()),
        };
        db.rel(id)
            .sorted()
            .iter()
            .map(|t| Rule {
                head: Atom {
                    pred: pred.to_string(),
                    terms: t.iter().map(term).collect(),
                },
                body: Vec::new(),
            })
            .collect()
    }

    /// Refuse a program in which a predicate with an aggregate rule has
    /// any other rule or program fact ([`EngineError::Aggregate`]).
    fn check_aggregates(program: &Program) -> Result<(), EngineError> {
        match program.shared_aggregate() {
            Some(pred) => Err(EngineError::Aggregate { pred: pred.to_string() }),
            None => Ok(()),
        }
    }

    /// Bring the engine in line with `program`, the current one with `rule`
    /// `added` or removed, and end the epoch. A change the database
    /// cannot take — an arity clash with a predicate it holds, an
    /// aggregate that would share its predicate — is refused before
    /// anything moves. One refused later — unstratifiable program, stalled
    /// propagation — is refused whole, like any other update: the old
    /// program and its task graph, plans and all, come back, so the old
    /// data never sits under the new rules; then the epoch aborts, which
    /// restores the data. (Indices built for the new rules stay, unused.)
    fn change_rules(
        &mut self,
        rule: &Rule,
        added: bool,
        program: Program,
        make_sched: impl FnOnce(Arc<Dag>) -> Box<dyn Scheduler>,
    ) -> Result<UpdateReport, EngineError> {
        let report = self.check_rule_change(&program).and_then(|()| {
            let old = std::mem::replace(&mut self.program, program);
            let graph = self.graph.clone();
            let report = self.propagate_rule_change(rule, added, make_sched);
            if report.is_err() {
                (self.program, self.graph) = (old, graph);
            }
            report
        });
        self.end_epoch(report, true)
    }

    /// Is `program` one this database can take: arities consistent with
    /// each other and with every predicate the database holds — base
    /// tables included, which the program does not list — and every
    /// aggregate alone in its predicate?
    fn check_rule_change(&self, program: &Program) -> Result<(), EngineError> {
        let arities = program.predicate_arities().map_err(EngineError::Edit)?;
        let db = self.db_read();
        for (pred, arity) in arities {
            let Some(id) = db.pred_id(&pred) else { continue };
            let held = db.rel(id).arity();
            if held != arity {
                return Err(EngineError::Edit(format!(
                    "predicate {pred} has arity {held}, the program uses it with {arity}"
                )));
            }
        }
        Self::check_aggregates(program)
    }

    /// Recompile the changed program and propagate the change like an
    /// update: the head's clique task gets `rule` as its [`RuleChange`], and
    /// it and every task the change reaches run under `make_sched`'s
    /// scheduler over the new task DAG. A head left without rules is a base
    /// table, and its change — what was derived goes, what the program
    /// states of it stays — enters as a base-table delta. Leaves the epoch
    /// open: the caller ends it ([`Self::change_rules`]).
    fn propagate_rule_change(
        &mut self,
        rule: &Rule,
        added: bool,
        make_sched: impl FnOnce(Arc<Dag>) -> Box<dyn Scheduler>,
    ) -> Result<UpdateReport, EngineError> {
        let head_pred = rule.head.pred.as_str();
        // A predicate no rule derives any more is a base table: the facts
        // the program states of it become its rows, and leave the program.
        let derived = self.program.derived_predicates().contains(head_pred);
        let mut stated = Vec::new();
        if !derived {
            let rules = std::mem::take(&mut self.program.rules);
            let (facts, rest): (Vec<Rule>, Vec<Rule>) =
                rules.into_iter().partition(|r| r.head.pred == head_pred);
            stated = facts;
            self.program.rules = rest;
        }
        self.rebuild()?;
        let mut db = self.db_write();
        let head = db
            .pred_id(head_pred)
            .ok_or_else(|| EngineError::Edit(format!("{head_pred} was not registered")))?;
        let change = derived.then(|| RuleChange {
            rule: compile_rule(rule, &mut db),
            added,
        });
        let mut base_deltas = Map::default();
        if !derived {
            // What was derived goes — tuple by tuple, tombstoned for any
            // pinned snapshot, not a wholesale relation swap; what the
            // program stated goes back in, reviving its rows.
            let mut d = Delta::default();
            for t in db.rel(head).sorted() {
                db.rel_mut(head).remove(&t);
                d.removed.insert(t);
            }
            load_facts(&Program { rules: stated }, &mut db);
            d.removed.retain(|t| !db.rel(head).contains(t));
            base_deltas.insert(head, d);
        }
        drop(db);
        let Some(node) = self.graph.node_of_pred.get(&head).copied() else {
            // The predicate vanished from the program entirely (its last
            // rule removed and nothing else reads it): no task reads it.
            let removed = base_deltas
                .get(&head)
                .map_or(0, |d: &Delta| d.removed.len());
            let mut pred_changes = Map::default();
            if removed > 0 {
                pred_changes.insert(head_pred.to_string(), (0, removed));
            }
            return Ok(UpdateReport {
                tasks_executed: 0,
                edges_fired: 0,
                pred_changes,
                sched_cost: CostMeter::default(),
                order: Vec::new(),
            });
        };
        // Anything moved above is stamped at the open epoch the drive
        // stamps at, so a stalled propagation aborts both.
        let mut scheduler = make_sched(self.graph.dag.clone());
        let change = change.map(|c| (node, c));
        self.drive(scheduler.as_mut(), &[node], base_deltas, change, None)
    }

    /// Pattern query against the materialization, e.g. `path(a, ?)`.
    /// Returns rendered tuples, sorted.
    pub fn query(&self, pattern: &str) -> Result<Vec<String>, EngineError> {
        let (pred, pats) = parse_pattern(pattern).map_err(EngineError::Edit)?;
        let db = self.db_read();
        let rows = run_query(&db, &pred, &pats).map_err(EngineError::Edit)?;
        Ok(crate::query::render(&db, &rows))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use incr_sched::{Hybrid, LevelBased, LogicBlox, SignalPropagation};
    use std::sync::atomic::{AtomicBool, Ordering};

    const TC: &str = "path(X, Y) :- edge(X, Y).\n\
                      path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                      edge(a, b). edge(b, c).";

    #[test]
    fn initial_materialization() {
        let e = IncrementalEngine::new(TC).unwrap();
        assert!(e.has("path", &["a", "c"]));
        assert_eq!(e.count("path"), 3);
    }

    #[test]
    fn incremental_insert_with_every_scheduler() {
        for mk in [0, 1, 2, 3] {
            let mut e = IncrementalEngine::new(TC).unwrap();
            let dag = e.dag().clone();
            let mut s: Box<dyn Scheduler> = match mk {
                0 => Box::new(LevelBased::new(dag)),
                1 => Box::new(LogicBlox::new(dag)),
                2 => Box::new(Hybrid::new(dag)),
                _ => Box::new(SignalPropagation::new(dag)),
            };
            let rep = e
                .update(s.as_mut(), &[FactEdit::add("edge", &["c", "d"])])
                .unwrap();
            assert!(e.has("path", &["a", "d"]), "scheduler {mk}");
            assert_eq!(e.count("path"), 6);
            assert_eq!(rep.tasks_executed, 2, "base + clique");
            assert_eq!(rep.edges_fired, 1);
        }
    }

    #[test]
    fn incremental_delete_matches_recompute() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        e.update(&mut s, &[FactEdit::remove("edge", &["a", "b"])])
            .unwrap();
        assert!(!e.has("path", &["a", "b"]));
        assert!(!e.has("path", &["a", "c"]));
        assert!(e.has("path", &["b", "c"]));
        assert_eq!(e.count("path"), 1);
    }

    #[test]
    fn no_output_change_stops_cascade() {
        // Adding edge(a, b) when path(a, b) already derivable via another
        // edge: the edge base node runs, the path clique runs, but since
        // nothing downstream exists the report shows the firing stopped.
        let src = "p2(X, Y) :- path(X, Y).\n\
                   path(X, Y) :- edge(X, Y).\n\
                   path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                   edge(a, b). edge(b, c). edge(a, c).";
        let mut e = IncrementalEngine::new(src).unwrap();
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        // Removing edge(a, c) leaves path unchanged (a->c via b): the
        // path task runs but must NOT fire p2.
        let rep = e
            .update(&mut s, &[FactEdit::remove("edge", &["a", "c"])])
            .unwrap();
        assert!(e.has("path", &["a", "c"]), "still derivable via b");
        assert_eq!(
            rep.tasks_executed, 2,
            "edge base + path clique; p2 must not activate"
        );
        assert_eq!(e.count("p2"), e.count("path"));
    }

    #[test]
    fn noop_edit_activates_nothing() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        // Adding an existing fact is a no-op: no initial tasks at all.
        let rep = e
            .update(&mut s, &[FactEdit::add("edge", &["a", "b"])])
            .unwrap();
        assert_eq!(rep.tasks_executed, 0);
    }

    #[test]
    fn add_and_remove_cancel() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        let rep = e
            .update(
                &mut s,
                &[
                    FactEdit::add("edge", &["x", "y"]),
                    FactEdit::remove("edge", &["x", "y"]),
                ],
            )
            .unwrap();
        assert_eq!(rep.tasks_executed, 0, "cancelling edits net to nothing");
        assert!(!e.has("path", &["x", "y"]));
    }

    #[test]
    fn stratified_negation_updates() {
        let src = "reach(X) :- start(X).\n\
                   reach(Y) :- reach(X), edge(X, Y).\n\
                   node(X) :- edge(X, Y).\n\
                   node(Y) :- edge(X, Y).\n\
                   cut(X) :- node(X), !reach(X).\n\
                   start(a). edge(a, b). edge(c, d).";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert!(e.has("cut", &["c"]));
        assert!(e.has("cut", &["d"]));
        assert!(!e.has("cut", &["a"]));
        // Connect b -> c: c and d become reachable, leave `cut`.
        let dag = e.dag().clone();
        let mut s = Hybrid::new(dag);
        e.update(&mut s, &[FactEdit::add("edge", &["b", "c"])])
            .unwrap();
        assert!(!e.has("cut", &["c"]));
        assert!(!e.has("cut", &["d"]));
        assert!(e.has("reach", &["d"]));
    }

    #[test]
    fn editing_derived_pred_rejected() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        let err = e.update(&mut s, &[FactEdit::add("path", &["x", "y"])]);
        assert!(matches!(err, Err(EngineError::Edit(_))));
    }

    #[test]
    fn unknown_pred_rejected() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        assert!(e
            .update(&mut s, &[FactEdit::add("ghost", &["x"])])
            .is_err());
    }

    /// A good edit followed by one of an unknown predicate: the update
    /// the engine must refuse whole.
    fn refused_update(e: &mut IncrementalEngine) {
        let mut s = LevelBased::new(e.dag().clone());
        let err = e.update(
            &mut s,
            &[
                FactEdit::add("edge", &["c", "d"]),
                FactEdit::add("nope", &["x"]),
            ],
        );
        assert!(matches!(err, Err(EngineError::Edit(_))), "got {err:?}");
    }

    #[test]
    fn bad_edit_takes_the_good_edits_before_it_down_too() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let epoch = e.epoch();
        refused_update(&mut e);
        assert!(!e.has("edge", &["c", "d"]), "refused batch left an edit in");
        assert_eq!(e.epoch(), epoch);
    }

    #[test]
    fn update_after_a_refusal_publishes_a_consistent_cut() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        refused_update(&mut e);
        let mut s = LevelBased::new(e.dag().clone());
        e.update(&mut s, &[FactEdit::add("edge", &["x", "y"])])
            .unwrap();
        let snap = e.begin_snapshot();
        assert!(snap.has("path", &["x", "y"]));
        assert_eq!(
            snap.has("edge", &["c", "d"]),
            snap.has("path", &["c", "d"]),
            "a published edge has its path"
        );
    }

    #[test]
    fn refused_enqueue_queues_nothing() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let mut q = crate::stream::DeltaQueue::new();
        let err = e.enqueue(
            &mut q,
            &[
                FactEdit::add("edge", &["c", "d"]),
                FactEdit::add("nope", &["x"]),
            ],
        );
        assert!(matches!(err, Err(EngineError::Edit(_))), "got {err:?}");
        assert_eq!(q.len(), 0);
        assert_eq!(q.updates_queued(), 0);
    }

    fn lb(dag: Arc<Dag>) -> Box<dyn Scheduler> {
        Box::new(LevelBased::new(dag))
    }

    #[test]
    fn add_rule_extends_materialization() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        assert_eq!(e.count("path"), 3);
        // Symmetric closure: add the reverse-edge rule.
        let rep = e.add_rule("path(Y, X) :- edge(X, Y).", lb).unwrap();
        assert!(rep.tasks_executed >= 1);
        assert!(e.has("path", &["b", "a"]));
        assert!(e.has("path", &["c", "b"]));
        assert!(
            e.has("path", &["b", "b"]),
            "recursion composes reversed paths with forward edges"
        );
        // {{ab, bc, ac}} + {{ba, cb}} + {{bb, cc}} — path(c, a) is NOT
        // derivable: reversal only seeds `path`; recursion follows `edge`.
        assert_eq!(e.count("path"), 7);
        assert!(!e.has("path", &["c", "a"]));
    }

    #[test]
    fn add_rule_propagates_downstream() {
        let src = format!("{TC}\nendpoints(X) :- path(a, X).");
        let mut e = IncrementalEngine::new(&src).unwrap();
        assert_eq!(e.count("endpoints"), 2); // b, c
        e.add_rule("path(X, X) :- edge(X, Y).", lb).unwrap();
        assert!(e.has("endpoints", &["a"]), "new path(a, a) reached endpoints");
    }

    #[test]
    fn remove_rule_shrinks_materialization() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let rep = e
            .remove_rule("path(X, Z) :- path(X, Y), edge(Y, Z).", lb)
            .unwrap();
        assert!(rep.tasks_executed >= 1);
        assert_eq!(e.count("path"), 2, "closure collapses to the base edges");
        assert!(!e.has("path", &["a", "c"]));
    }

    #[test]
    fn remove_last_rule_clears_predicate() {
        let src = "p(X) :- q(X).\nq(a). q(b).";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert_eq!(e.count("p"), 2);
        e.remove_rule("p(X) :- q(X).", lb).unwrap();
        assert_eq!(e.count("p"), 0);
    }

    #[test]
    fn add_rule_rejects_facts_and_unknown_removals() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        assert!(matches!(
            e.add_rule("edge(z, w).", lb),
            Err(EngineError::Edit(_))
        ));
        assert!(matches!(
            e.remove_rule("path(X, Y) :- ghost(X, Y).", lb),
            Err(EngineError::Edit(_))
        ));
    }

    #[test]
    fn add_rule_rolls_back_on_stratification_failure() {
        let src = "p(X) :- base(X), !q(X).\nq(X) :- base2(X).\nbase(a). base2(b).";
        let mut e = IncrementalEngine::new(src).unwrap();
        // q :- p would put negation inside a cycle.
        let err = e.add_rule("q(X) :- p(X).", lb);
        assert!(matches!(err, Err(EngineError::Stratify(_))));
        // Engine still works after the rollback.
        assert!(e.has("p", &["a"]));
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        e.update(&mut s, &[FactEdit::add("base", &["c"])]).unwrap();
        assert!(e.has("p", &["c"]));
    }

    #[test]
    fn rule_change_equals_recompute() {
        let base = "t(X, Y) :- e(X, Y).\ne(a, b). e(b, c). e(c, d).";
        let mut incr = IncrementalEngine::new(base).unwrap();
        incr.add_rule("t(X, Z) :- t(X, Y), e(Y, Z).", lb).unwrap();
        let full = IncrementalEngine::new(
            "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\ne(a, b). e(b, c). e(c, d).",
        )
        .unwrap();
        assert_eq!(incr.count("t"), full.count("t"));
        // And removing it again restores the original state.
        incr.remove_rule("t(X, Z) :- t(X, Y), e(Y, Z).", lb).unwrap();
        assert_eq!(incr.count("t"), 3);
    }

    #[test]
    fn query_patterns() {
        let e = IncrementalEngine::new(TC).unwrap();
        let all = e.query("path(?, ?)").unwrap();
        assert_eq!(all.len(), 3);
        let from_a = e.query("path(a, X)").unwrap();
        assert_eq!(from_a, vec!["(a, b)", "(a, c)"]);
        assert!(e.query("path(zzz, ?)").unwrap().is_empty());
        assert!(e.query("garbage").is_err());
    }

    #[test]
    fn aggregates_materialize_and_update() {
        let src = "
            revenue(C, sum(P)) :- sale(T, I), product(I, C), price(I, P).
            volume(C, count(T)) :- sale(T, I), product(I, C).
            priciest(C, max(P)) :- product(I, C), price(I, P).
            product(widget, gadgets). product(sprocket, gadgets). product(tea, grocery).
            price(widget, 10). price(sprocket, 25). price(tea, 4).
            sale(s1, widget). sale(s2, widget). sale(s3, tea).
        ";
        let mut e = IncrementalEngine::new(src).unwrap();
        // Two widget sales (price 10 counted once per distinct (group, P)
        // binding? No: raw bindings are distinct over (T, I, P) projected
        // to head vars — the tuple space here is (C, P) with T in count
        // only). revenue sums DISTINCT (C, P) pairs reached: gadgets ->
        // {10} (widget sales) = 10.
        assert_eq!(e.query("revenue(grocery, ?)").unwrap(), vec!["(grocery, 4)"]);
        assert_eq!(e.query("revenue(gadgets, ?)").unwrap(), vec!["(gadgets, 10)"]);
        assert_eq!(e.query("volume(gadgets, ?)").unwrap(), vec!["(gadgets, 2)"]);
        assert_eq!(e.query("priciest(gadgets, ?)").unwrap(), vec!["(gadgets, 25)"]);

        // Incremental: a sprocket sells; gadgets revenue gains the 25
        // price point, volume rises to 3.
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        let rep = e
            .update(&mut s, &[FactEdit::add("sale", &["s4", "sprocket"])])
            .unwrap();
        assert!(rep.tasks_executed >= 2);
        assert_eq!(e.query("revenue(gadgets, ?)").unwrap(), vec!["(gadgets, 35)"]);
        assert_eq!(e.query("volume(gadgets, ?)").unwrap(), vec!["(gadgets, 3)"]);

        // Deletion: all widget sales void; gadgets revenue drops to 25.
        let dag = e.dag().clone();
        let mut s = Hybrid::new(dag);
        e.update(
            &mut s,
            &[
                FactEdit::remove("sale", &["s1", "widget"]),
                FactEdit::remove("sale", &["s2", "widget"]),
            ],
        )
        .unwrap();
        assert_eq!(e.query("revenue(gadgets, ?)").unwrap(), vec!["(gadgets, 25)"]);
        // Only the sprocket sale (s4) remains in gadgets.
        assert_eq!(e.query("volume(gadgets, ?)").unwrap(), vec!["(gadgets, 1)"]);
    }

    #[test]
    fn aggregate_group_appears_and_disappears() {
        let src = "
            per_node(X, count(Y)) :- edge(X, Y).
            edge(a, b).
        ";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert_eq!(e.query("per_node(a, ?)").unwrap(), vec!["(a, 1)"]);
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        e.update(&mut s, &[FactEdit::remove("edge", &["a", "b"])])
            .unwrap();
        assert_eq!(e.count("per_node"), 0, "empty group emits no fact");
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        e.update(
            &mut s,
            &[
                FactEdit::add("edge", &["a", "b"]),
                FactEdit::add("edge", &["a", "c"]),
            ],
        )
        .unwrap();
        assert_eq!(e.query("per_node(a, ?)").unwrap(), vec!["(a, 2)"]);
    }

    #[test]
    fn aggregate_downstream_propagation_stops_when_unchanged() {
        // Downstream of the aggregate only fires when the fold changes.
        let src = "
            total(X, sum(V)) :- m(X, V).
            alert(X) :- total(X, 10).
            m(a, 10).
        ";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert!(e.has("alert", &["a"]));
        // Adding m(a, 0) keeps the sum at 10: alert must not re-derive
        // (output delta of `total` is empty -> no fire).
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        let rep = e
            .update(&mut s, &[FactEdit::add("m", &["a", "0"])])
            .unwrap();
        assert!(e.has("alert", &["a"]));
        assert_eq!(
            rep.tasks_executed, 2,
            "base + total re-ran; alert must not activate"
        );
    }

    #[test]
    fn aggregate_over_recursive_closure() {
        // Aggregate a recursively-derived predicate: reach size per start.
        let src = "
            reach(S, S) :- start(S).
            reach(S, Y) :- reach(S, X), edge(X, Y).
            reach_size(S, count(Y)) :- reach(S, Y).
            start(a). edge(a, b). edge(b, c).
        ";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert_eq!(e.query("reach_size(a, ?)").unwrap(), vec!["(a, 3)"]);
        let dag = e.dag().clone();
        let mut s = Hybrid::new(dag);
        e.update(&mut s, &[FactEdit::add("edge", &["c", "d"])])
            .unwrap();
        assert_eq!(e.query("reach_size(a, ?)").unwrap(), vec!["(a, 4)"]);
    }

    fn update_with(e: &mut IncrementalEngine, edits: &[FactEdit]) -> UpdateReport {
        let mut s = LevelBased::new(e.dag().clone());
        e.update(&mut s, edits).unwrap()
    }

    #[test]
    fn aggregate_group_counts_down_to_zero_and_comes_back() {
        let src = "deg(X, count(Y)) :- edge(X, Y).\nedge(a, b). edge(a, c).";
        let mut e = IncrementalEngine::new(src).unwrap();
        let pinned = e.begin_snapshot();
        update_with(&mut e, &[FactEdit::remove("edge", &["a", "b"])]);
        assert_eq!(rows(&e, "deg(?, ?)"), ["(a, 1)"]);
        let rep = update_with(&mut e, &[FactEdit::remove("edge", &["a", "c"])]);
        assert_eq!(e.count("deg"), 0, "a group at zero has no tuple");
        assert_eq!(rep.pred_changes["deg"], (0, 1));
        update_with(&mut e, &[FactEdit::add("edge", &["a", "c"])]);
        assert_eq!(rows(&e, "deg(?, ?)"), ["(a, 1)"]);
        assert_eq!(pinned.query("deg(?, ?)").unwrap(), ["(a, 2)"], "the pinned epoch's fold");
    }

    #[test]
    fn max_keeps_its_extreme_while_a_tie_remains() {
        let mut e = IncrementalEngine::new(
            "top(C, max(V)) :- item(C, I, V).\nitem(c, i1, 9). item(c, i2, 9). item(c, i3, 4).",
        )
        .unwrap();
        let rep = update_with(&mut e, &[FactEdit::remove("item", &["c", "i1", "9"])]);
        assert_eq!(rows(&e, "top(?, ?)"), ["(c, 9)"]);
        assert!(!rep.pred_changes.contains_key("top"), "i2 still holds the 9");
        update_with(&mut e, &[FactEdit::remove("item", &["c", "i2", "9"])]);
        assert_eq!(rows(&e, "top(?, ?)"), ["(c, 4)"], "the extreme left: re-folded");
        update_with(&mut e, &[FactEdit::add("item", &["c", "i4", "7"])]);
        assert_eq!(rows(&e, "top(?, ?)"), ["(c, 7)"]);
    }

    #[test]
    fn sum_over_a_group_of_symbols_has_no_tuple() {
        let src = "total(X, sum(V)) :- m(X, V).\nm(a, x). m(a, y).";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert_eq!(e.count("total"), 0, "nothing to add up");
        update_with(&mut e, &[FactEdit::add("m", &["a", "3"])]);
        assert_eq!(rows(&e, "total(?, ?)"), ["(a, 3)"]);
        update_with(&mut e, &[FactEdit::add("m", &["a", "z"])]);
        assert_eq!(rows(&e, "total(?, ?)"), ["(a, 3)"]);
        update_with(&mut e, &[FactEdit::remove("m", &["a", "3"])]);
        assert_eq!(e.count("total"), 0, "the last Int left; symbols remain");
    }

    #[test]
    fn sum_wraps_at_the_i64_bounds() {
        // Folded whole (materialisation) and kept by ±Δ (updates) alike,
        // in a debug build as in release.
        let max = i64::MAX.to_string();
        let src = format!("total(X, sum(V)) :- m(X, V).\nm(a, {max}). m(a, 1).");
        let mut e = IncrementalEngine::new(&src).unwrap();
        assert_eq!(rows(&e, "total(?, ?)"), [format!("(a, {})", i64::MIN)]);
        update_with(&mut e, &[FactEdit::remove("m", &["a", "1"])]);
        assert_eq!(rows(&e, "total(?, ?)"), [format!("(a, {max})")]);
        update_with(&mut e, &[FactEdit::add("m", &["a", "5"]), FactEdit::add("m", &["a", "-2"])]);
        assert_eq!(rows(&e, "total(?, ?)"), [format!("(a, {})", i64::MIN + 2)]);
        update_with(&mut e, &[FactEdit::remove("m", &["a", "5"])]);
        assert_eq!(rows(&e, "total(?, ?)"), [format!("(a, {})", i64::MAX - 2)]);
    }

    #[test]
    fn a_sale_added_and_voided_in_one_batch_changes_nothing() {
        let src = "
            volume(C, count(T)) :- sale(T, P), product(P, C).
            revenue(C, sum(V)) :- sale(T, P), product(P, C), price(P, V).
            product(widget, gadgets). price(widget, 10). sale(s1, widget).
        ";
        let mut e = IncrementalEngine::new(src).unwrap();
        let before = db_image(&e, &["volume", "revenue"]);
        let pair = |add: &str, void: &str| {
            [FactEdit::add("sale", &[add, "widget"]), FactEdit::remove("sale", &[void, "widget"])]
        };
        let rep = update_with(&mut e, &pair("s2", "s2"));
        assert_eq!(rep.tasks_executed, 0, "the pair nets to nothing");
        // A sale in and another out: the count and the price both stay.
        let rep = update_with(&mut e, &pair("s3", "s1"));
        assert!(rep.tasks_executed > 1);
        assert!(!rep.pred_changes.contains_key("volume"));
        assert!(!rep.pred_changes.contains_key("revenue"));
        assert_eq!(db_image(&e, &["volume", "revenue"]), before);
    }

    #[test]
    fn an_aggregate_predicate_with_another_rule_or_fact_is_refused() {
        for src in [
            "v(C, count(T)) :- a(C, T). v(C, count(T)) :- b(C, T).\n\
             v(x, 9). a(x, 1). b(x, 1). b(x, 2).",
            "v(C, count(T)) :- a(C, T). v(C, T) :- b(C, T). a(x, 1).",
            "v(x, 9). v(C, count(T)) :- a(C, T). a(x, 1).",
        ] {
            let err = IncrementalEngine::new(src).err();
            let refused = matches!(err, Some(EngineError::Aggregate { ref pred }) if pred == "v");
            assert!(refused, "{src}: {err:?}");
        }
    }

    #[test]
    fn a_rule_change_sharing_an_aggregate_predicate_is_refused_whole() {
        let src = "v(C, count(T)) :- a(C, T).\nw(C) :- b(C).\na(x, 1). b(x). d(x, 2).";
        let mut e = IncrementalEngine::new(src).unwrap();
        let preds = ["v", "w", "a", "b", "d"];
        let (image, epoch, nodes) = (db_image(&e, &preds), e.epoch(), e.dag().node_count());
        for rule in [
            "v(C, count(T)) :- b2(C, T).",
            "v(C, T) :- d(C, T).",
            // `d` holds a row, which would become a fact beside the aggregate.
            "d(C, sum(T)) :- a(C, T).",
        ] {
            let err = e.add_rule(rule, lb);
            assert!(matches!(err, Err(EngineError::Aggregate { .. })), "{rule}: {err:?}");
            assert_eq!(db_image(&e, &preds), image);
            let rules = e.task_graph().rules().count();
            assert_eq!((e.epoch(), e.dag().node_count(), rules), (epoch, nodes, 2));
        }
        // An aggregate of its own goes in, and is maintained from then on.
        e.add_rule("total(C, sum(T)) :- a(C, T).", lb).unwrap();
        update_with(&mut e, &[FactEdit::add("a", &["x", "2"])]);
        assert_eq!(rows(&e, "v(?, ?)"), ["(x, 2)"]);
        assert_eq!(rows(&e, "total(?, ?)"), ["(x, 3)"]);
    }

    #[test]
    fn a_base_table_turning_derived_keeps_the_rows_it_holds() {
        let mut e = IncrementalEngine::new("p(X) :- q(X).\nq(a). r(c).").unwrap();
        assert_eq!(e.program.rules.len(), 1, "base facts live in the database only");
        update_with(&mut e, &[FactEdit::remove("q", &["a"]), FactEdit::add("q", &["b"])]);
        assert_eq!(rows(&e, "q(?)"), ["(b)"]);
        e.add_rule("q(X) :- r(X).", lb).unwrap();
        assert_eq!(rows(&e, "q(?)"), ["(b)", "(c)"], "q(a) was deleted; q(b) was not");
        assert_eq!(rows(&e, "p(?)"), ["(b)", "(c)"]);
        e.remove_rule("q(X) :- r(X).", lb).unwrap();
        assert_eq!(rows(&e, "q(?)"), ["(b)"]);
        assert_eq!(rows(&e, "p(?)"), ["(b)"]);
        // A base table again, whose rows are edited as rows.
        update_with(&mut e, &[FactEdit::remove("q", &["b"])]);
        assert_eq!((e.count("q"), e.count("p")), (0, 0));
        assert_eq!(e.program.rules.len(), 1);
    }

    #[test]
    fn add_rule_checks_arities_against_the_base_tables_held() {
        // `r` is in no rule, so only the database knows its arity.
        let mut e = IncrementalEngine::new("p(X) :- q(X).\nq(a). r(c).").unwrap();
        let err = e.add_rule("p(X) :- r(X, Y).", lb);
        assert!(matches!(err, Err(EngineError::Edit(_))), "got {err:?}");
        e.add_rule("p(X) :- r(X).", lb).unwrap();
        assert_eq!(rows(&e, "p(?)"), ["(a)", "(c)"]);
    }

    #[test]
    fn aggregation_through_recursion_rejected() {
        let src = "t(X, count(Y)) :- t(Y, X).";
        assert!(matches!(
            IncrementalEngine::new(src),
            Err(EngineError::Stratify(_))
        ));
    }

    #[test]
    fn aggregate_syntax_errors() {
        assert!(crate::parser::parse_program("p(X) :- q(count(X)).").is_err());
        assert!(crate::parser::parse_program("p(count(X), sum(Y)) :- q(X, Y).").is_err());
        assert!(crate::parser::parse_program("p(avg(X)) :- q(X).").is_err());
    }

    /// Pops the first `quota` tasks of every update, then refuses to
    /// schedule — a broken scheduler that wedges an update partway through
    /// — or, when `panics`, panics at the next pop instead. Gated by a
    /// switch, it does either only while the switch is on.
    pub(crate) struct QuotaStall {
        inner: Box<dyn Scheduler + Send>,
        quota: usize,
        panics: bool,
        gate: Option<Arc<AtomicBool>>,
        popped: usize,
    }

    impl QuotaStall {
        pub(crate) fn new(dag: Arc<Dag>, quota: usize) -> Self {
            Self::over(Box::new(LevelBased::new(dag)), quota, false)
        }

        pub(crate) fn over(inner: Box<dyn Scheduler + Send>, quota: usize, panics: bool) -> Self {
            QuotaStall {
                inner,
                quota,
                panics,
                gate: None,
                popped: 0,
            }
        }

        pub(crate) fn gated(self, switch: Arc<AtomicBool>) -> Self {
            QuotaStall { gate: Some(switch), ..self }
        }
    }

    impl Scheduler for QuotaStall {
        fn name(&self) -> &str {
            "QuotaStall"
        }
        fn start(&mut self, initial: &[NodeId]) {
            self.popped = 0;
            self.inner.start(initial);
        }
        fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
            self.inner.on_completed(v, fired);
        }
        fn pop_ready(&mut self) -> Option<NodeId> {
            let on = self.gate.as_ref().is_none_or(|g| g.load(Ordering::SeqCst));
            if on && self.popped >= self.quota {
                if self.panics {
                    panic!("fault-injected panic: {}", self.name());
                }
                return None;
            }
            let t = self.inner.pop_ready();
            if t.is_some() {
                self.popped += 1;
            }
            t
        }
        fn is_quiescent(&self) -> bool {
            self.inner.is_quiescent()
        }
        fn cost(&self) -> CostMeter {
            self.inner.cost()
        }
        fn space_bytes(&self) -> usize {
            self.inner.space_bytes()
        }
        fn precompute_bytes(&self) -> usize {
            self.inner.precompute_bytes()
        }
        fn on_external_dispatch(&mut self, v: NodeId) {
            self.inner.on_external_dispatch(v);
        }
    }

    /// Capture the full contents of every relation, sorted — the
    /// bit-identical yardstick for rollback tests.
    fn db_image(e: &IncrementalEngine, preds: &[&str]) -> Vec<Vec<String>> {
        preds
            .iter()
            .map(|p| {
                let arity = {
                    let db = e.database();
                    db.rel(db.pred_id(p).unwrap()).arity()
                };
                let mut rows = e
                    .query(&format!("{p}({})", vec!["?"; arity].join(", ")))
                    .unwrap();
                rows.sort();
                rows
            })
            .collect()
    }

    #[test]
    fn stalled_update_rolls_back_and_retry_is_idempotent() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let before = db_image(&e, &["edge", "path"]);
        let retained = e.database().rows_retained();
        let dag = e.dag().clone();

        // Quota 1: the base-edit node runs (edge mutated, path pending)
        // and then the scheduler refuses to continue.
        let mut broken = QuotaStall::new(dag.clone(), 1);
        let err = e
            .update(&mut broken, &[FactEdit::add("edge", &["c", "d"])])
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Stall { ref scheduler } if scheduler == "QuotaStall"),
            "got {err:?}"
        );
        assert!(err.to_string().contains("rolled back"));
        assert_eq!(
            db_image(&e, &["edge", "path"]),
            before,
            "failed update must leave no trace"
        );
        assert_eq!(e.database().rows_retained(), retained, "nor a tombstone");

        // Retrying the same edit with a working scheduler matches a fresh
        // engine that never saw the failure.
        let mut good = LevelBased::new(dag);
        e.update(&mut good, &[FactEdit::add("edge", &["c", "d"])])
            .unwrap();
        let mut fresh = IncrementalEngine::new(TC).unwrap();
        let dag2 = fresh.dag().clone();
        let mut s2 = LevelBased::new(dag2);
        fresh
            .update(&mut s2, &[FactEdit::add("edge", &["c", "d"])])
            .unwrap();
        assert_eq!(
            db_image(&e, &["edge", "path"]),
            db_image(&fresh, &["edge", "path"]),
            "recovered state must be bit-identical to the never-failed run"
        );
    }

    #[test]
    fn stall_mid_cascade_rolls_back_clique_outputs_too() {
        // Deletion exercises the prove-or-delete phase: what it takes out
        // of `path` must be rolled back, not just the base edit.
        let src = "p2(X, Y) :- path(X, Y).\n\
                   path(X, Y) :- edge(X, Y).\n\
                   path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                   edge(a, b). edge(b, c).";
        let mut e = IncrementalEngine::new(src).unwrap();
        let preds = ["edge", "path", "p2"];
        let before = db_image(&e, &preds);
        let retained = e.database().rows_retained();
        let dag = e.dag().clone();

        // Quota 2: base node + path clique execute (path shrinks), then
        // the scheduler wedges before p2 can be updated.
        let mut broken = QuotaStall::new(dag.clone(), 2);
        let err = e
            .update(&mut broken, &[FactEdit::remove("edge", &["a", "b"])])
            .unwrap_err();
        assert!(matches!(err, EngineError::Stall { .. }));
        assert_eq!(
            db_image(&e, &preds),
            before,
            "clique deltas must be rolled back alongside the base edit"
        );
        assert_eq!(
            e.database().rows_retained(),
            retained,
            "revived and aborted rows leave the graveyard as it was"
        );

        // Idempotent retry completes the deletion.
        let mut good = Hybrid::new(dag);
        e.update(&mut good, &[FactEdit::remove("edge", &["a", "b"])])
            .unwrap();
        assert!(!e.has("path", &["a", "c"]));
        assert!(!e.has("p2", &["a", "b"]));
        assert_eq!(e.count("path"), 1);
        assert_eq!(e.count("p2"), 1);
    }

    #[test]
    fn stalled_rule_change_rolls_back_data() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        assert_eq!(e.count("path"), 3);
        let retained = e.database().rows_retained();
        let nodes = e.dag().node_count();
        // A scheduler that refuses all work: the program and the task graph
        // changed before the drive, and must go back with the data.
        let err = e.add_rule("path(Y, X) :- edge(X, Y).", |dag| {
            Box::new(QuotaStall::new(dag, 0))
        });
        assert!(matches!(err, Err(EngineError::Stall { .. })));
        assert_eq!(e.database().rows_retained(), retained);
        assert_eq!(e.count("path"), 3, "nothing of the new rule's stayed");
        assert_eq!(e.dag().node_count(), nodes, "the task graph went back too");
        assert_eq!(e.task_graph().rules().count(), 2, "and so did the refused rule");
    }

    fn stall(dag: Arc<Dag>) -> Box<dyn Scheduler> {
        Box::new(QuotaStall::new(dag, 0))
    }

    /// A rule change refused by a stalled scheduler is refused whole —
    /// rules as well as data: one good update later the engine equals a
    /// fresh one on the ORIGINAL program given the same update.
    fn refused_rule_change_is_forgotten(
        change: impl Fn(&mut IncrementalEngine) -> Result<UpdateReport, EngineError>,
    ) {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let err = change(&mut e);
        assert!(matches!(err, Err(EngineError::Stall { .. })), "got {err:?}");
        let mut fresh = IncrementalEngine::new(TC).unwrap();
        for engine in [&mut e, &mut fresh] {
            let mut s = LevelBased::new(engine.dag().clone());
            engine
                .update(&mut s, &[FactEdit::add("edge", &["c", "d"])])
                .unwrap();
        }
        assert_eq!(
            db_image(&e, &["edge", "path"]),
            db_image(&fresh, &["edge", "path"])
        );
    }

    #[test]
    fn stalled_add_rule_leaves_the_original_program() {
        refused_rule_change_is_forgotten(|e| e.add_rule("path(Y, X) :- edge(X, Y).", stall));
    }

    #[test]
    fn stalled_remove_rule_leaves_the_original_program() {
        refused_rule_change_is_forgotten(|e| {
            e.remove_rule("path(X, Z) :- path(X, Y), edge(Y, Z).", stall)
        });
    }

    /// A scheduler that panics mid-cascade refuses the update like a
    /// stall: nothing the cascade stamped stays at the head, and the next
    /// update publishes only itself — for a fact update and a rule change.
    #[test]
    fn scheduler_panic_mid_cascade_leaves_the_database_unchanged() {
        crate::shard::tests::silence_test_panics();
        let src = format!("{TC}\nseen(X) :- path(X, Y).");
        let mut e = IncrementalEngine::new(&src).unwrap();
        let preds = ["edge", "path", "seen"];
        let (before, epoch, nodes) = (db_image(&e, &preds), e.epoch(), e.dag().node_count());
        // Pops `edge` and `path` (which loses path(a, b) and path(a, c)),
        // then panics before `seen` runs.
        let mut broken = QuotaStall::over(Box::new(LevelBased::new(e.dag().clone())), 2, true);
        let err = e.update(&mut broken, &[FactEdit::remove("edge", &["a", "b"])]);
        assert!(
            matches!(err, Err(EngineError::Panicked(ref m)) if m.contains("QuotaStall")),
            "got {err:?}"
        );
        assert_eq!((db_image(&e, &preds), e.epoch()), (before.clone(), epoch));

        let err = e.add_rule("path(Y, X) :- edge(X, Y).", |dag| {
            Box::new(QuotaStall::over(Box::new(LevelBased::new(dag)), 1, true))
        });
        assert!(matches!(err, Err(EngineError::Panicked(_))), "got {err:?}");
        assert_eq!((db_image(&e, &preds), e.epoch()), (before, epoch));
        let rules = e.task_graph().rules().count();
        assert_eq!((e.dag().node_count(), rules), (nodes, 3), "the program went back");

        let next = [FactEdit::add("edge", &["x", "y"])];
        let mut fresh = IncrementalEngine::new(&src).unwrap();
        for engine in [&mut e, &mut fresh] {
            let mut s = LevelBased::new(engine.dag().clone());
            engine.update(&mut s, &next).unwrap();
        }
        assert_eq!(db_image(&e, &preds), db_image(&fresh, &preds));
    }

    /// A panic inside a clique task, after phase 1 took rows out of the
    /// heads lent to it, rolls the update back like any other: the head is
    /// the pre-update image again, a snapshot pinned before still reads its
    /// epoch, and the same update then commits.
    #[test]
    fn a_panic_inside_a_clique_task_leaves_the_database_unchanged() {
        use crate::incr::tests::PANIC_AFTER_PHASE_1;
        crate::shard::tests::silence_test_panics();
        let mut e = IncrementalEngine::new(TC).unwrap();
        let preds = ["edge", "path"];
        let (before, epoch) = (db_image(&e, &preds), e.epoch());
        let snapshot = e.begin_snapshot();
        let pinned = snapshot.image();
        // path(a, b) and path(a, c) lose their only derivations.
        let cut = [FactEdit::remove("edge", &["a", "b"])];
        PANIC_AFTER_PHASE_1.set(true);
        let err = e.update(&mut LevelBased::new(e.dag().clone()), &cut);
        assert!(
            matches!(err, Err(EngineError::Panicked(ref m)) if m.contains("after phase 1")),
            "got {err:?}"
        );
        assert!(!PANIC_AFTER_PHASE_1.get(), "the task tripped");
        assert_eq!((db_image(&e, &preds), e.epoch()), (before, epoch));
        assert_eq!((snapshot.epoch(), snapshot.image()), (epoch, pinned));
        e.update(&mut LevelBased::new(e.dag().clone()), &cut).unwrap();
        assert_eq!(rows(&e, "path(?, ?)"), ["(b, c)"]);
    }

    #[test]
    fn add_rule_with_an_arity_clash_leaves_the_program_usable() {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let err = e.add_rule("path(X) :- edge(X, Y).", lb);
        assert!(matches!(err, Err(EngineError::Edit(_))), "got {err:?}");
        // The clashing rule is gone again, so a good one still goes in.
        e.add_rule("path(Y, X) :- edge(X, Y).", lb).unwrap();
        assert_eq!(e.count("path"), 7);
    }

    /// Sorted rows of `pattern`.
    fn rows(e: &IncrementalEngine, pattern: &str) -> Vec<String> {
        let mut rows = e.query(pattern).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn program_fact_of_a_derived_predicate_outlives_its_other_derivations() {
        // `reach(n0)` is stated, and also derived round the cycle. Cutting
        // the cycle destroys that derivation; the statement still holds.
        let mut e = IncrementalEngine::new(
            "reach(n0).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             edge(n0, n1). edge(n1, n0).",
        )
        .unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)", "(n1)"]);
        let mut s = LevelBased::new(e.dag().clone());
        e.update(&mut s, &[FactEdit::remove("edge", &["n1", "n0"])]).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)", "(n1)"]);
        e.update(&mut s, &[FactEdit::remove("edge", &["n0", "n1"])]).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)"]);
        // Still a derived predicate: the statement is not a base row.
        let err = e.update(&mut s, &[FactEdit::remove("reach", &["n0"])]);
        assert!(matches!(err, Err(EngineError::Edit(_))), "{err:?}");
    }

    #[test]
    fn program_fact_of_a_derived_predicate_outlives_rule_changes() {
        const HOP: &str = "reach(Y) :- reach(X), hop(X, Y).";
        let src = format!(
            "reach(n0).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             {HOP}\n\
             edge(n0, n1). hop(n1, n2)."
        );
        let mut e = IncrementalEngine::new(&src).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)", "(n1)", "(n2)"]);
        // `reach(n2)` is put to proof without the rule and has none; the
        // statement proves what is left, with no premises.
        e.remove_rule(HOP, lb).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)", "(n1)"]);
        e.add_rule(HOP, lb).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)", "(n1)", "(n2)"]);
    }

    #[test]
    fn program_fact_of_a_derived_predicate_is_removed_and_added_back() {
        const SEED: &str = "reach(n0).";
        let mut e = IncrementalEngine::new(&format!(
            "{SEED}\nreach(Y) :- reach(X), edge(X, Y).\nedge(n0, n1)."
        ))
        .unwrap();
        let report = e.remove_rule(SEED, lb).unwrap();
        assert_eq!(e.count("reach"), 0, "nothing is reached without the seed");
        assert_eq!(report.pred_changes["reach"], (0, 2));
        // A derived predicate's fact is a clause, not a row.
        let err = e.update(&mut LevelBased::new(e.dag().clone()), &[FactEdit::add("reach", &["n0"])]);
        assert!(matches!(err, Err(EngineError::Edit(_))), "{err:?}");
        let report = e.add_rule(SEED, lb).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)", "(n1)"]);
        assert_eq!(report.pred_changes["reach"], (2, 0));
    }

    #[test]
    fn removing_the_last_rule_leaves_the_program_facts_of_its_predicate() {
        // `reach` turns into a base table: what was derived goes, what the
        // program states stays — and is an editable row from then on.
        const RULE: &str = "reach(Y) :- reach(X), edge(X, Y).";
        let mut e = IncrementalEngine::new(&format!("reach(n0).\n{RULE}\nedge(n0, n1).")).unwrap();
        let report = e.remove_rule(RULE, lb).unwrap();
        assert_eq!(rows(&e, "reach(?)"), ["(n0)"]);
        assert_eq!(report.pred_changes["reach"], (0, 1));
        let mut s = LevelBased::new(e.dag().clone());
        e.update(&mut s, &[FactEdit::remove("reach", &["n0"])]).unwrap();
        assert_eq!(e.count("reach"), 0);
    }

    #[test]
    fn deleting_an_attacker_scans_nothing() {
        // Head-bound, `compromised(D) :- compromised(S), hacl(S, D),
        // vulnerable(D)` checks vulnerable(D), probes hacl on D and checks
        // compromised(S); in source order it would scan `compromised`. The
        // counter is process-wide and the tests beside this one bump it, so
        // zero shows in a clean window and retrying reaches one.
        let scans = incr_obs::registry().counter("datalog.scan.full");
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let mut e = IncrementalEngine::new(
                "compromised(D) :- attacker(D).\n\
                 compromised(D) :- compromised(S), hacl(S, D), vulnerable(D).\n\
                 attacker(h0). attacker(h4).\n\
                 hacl(h0, h1). hacl(h1, h2). hacl(h2, h0). hacl(h2, h3). hacl(h4, h3).\n\
                 vulnerable(h0). vulnerable(h1). vulnerable(h2). vulnerable(h3).",
            )
            .unwrap();
            assert_eq!(e.count("compromised"), 5);
            let mut s = LevelBased::new(e.dag().clone());
            let before = scans.get();
            e.update(&mut s, &[FactEdit::remove("attacker", &["h0"])]).unwrap();
            let scanned = scans.get() - before;
            assert_eq!(rows(&e, "compromised(?)"), ["(h3)", "(h4)"]);
            if scanned == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "{scanned} full scans to delete one attacker");
            std::thread::yield_now();
        }
    }

    #[test]
    fn integers_in_edits() {
        let src = "small(X) :- reading(X, V), threshold(V).\n\
                   threshold(1). reading(s1, 1).";
        let mut e = IncrementalEngine::new(src).unwrap();
        assert!(e.has("small", &["s1"]));
        let dag = e.dag().clone();
        let mut s = LevelBased::new(dag);
        e.update(&mut s, &[FactEdit::remove("reading", &["s1", "1"])])
            .unwrap();
        assert_eq!(e.count("small"), 0);
    }
}
