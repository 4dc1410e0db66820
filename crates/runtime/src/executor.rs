//! The threaded dispatch loop, built for sustained update-stream
//! throughput *under failure*.
//!
//! One coordinating thread owns the scheduler; `workers` threads execute
//! task closures. The hot path is batched end to end:
//!
//! * the coordinator pulls whole wavefronts with
//!   [`Scheduler::pop_batch`] (one trait crossing per wavefront, not per
//!   node) and ships them to workers as multi-task *chunks*;
//! * a chunk is its wavefront split evenly across the workers, with no
//!   fixed cap — so a wide wavefront of cheap tasks pays one channel
//!   round trip per worker, not one per few dozen tasks, and a narrow
//!   one still goes out one task to a worker;
//! * a **window** of `WINDOW` tasks dispatched but not yet completed is
//!   the backpressure: the coordinator pops only while the window has
//!   room, so it can never run unboundedly ahead of slow workers, however
//!   large its chunks. The work channel itself is unbounded and never
//!   blocks the coordinator; it blocks only waiting for completions;
//! * a chunk travels with a cleared [`CompletionBatch`]: the worker
//!   appends each task's fired children straight into it (no per-task
//!   allocation) and sends it back whole, with the emptied chunk vector,
//!   in one message;
//! * the coordinator feeds completions back with
//!   [`Scheduler::complete_batch`] and keeps both free lists, so a chunk
//!   costs one message each way on two pipes and steady state allocates
//!   nothing.
//!
//! # Fault tolerance
//!
//! The paper's safety invariant — no active task executes twice — must
//! hold even when a task body misbehaves, so every failure mode has a
//! typed, non-hanging exit:
//!
//! * **Panic isolation** — task bodies run under `catch_unwind`; a panic
//!   becomes [`ExecError::TaskPanicked`], the pipeline drains cleanly
//!   (outstanding completions are committed, workers shut down), and the
//!   coordinator returns `Err` instead of wedging or poisoning threads.
//! * **Retry with bounded backoff** — a fallible task body
//!   ([`TryTaskFn`]) may return [`TaskOutcome::Retryable`]; the worker
//!   re-runs it per the executor's [`RetryPolicy`] with exponential
//!   backoff. Only *failed* attempts re-run — a successful execution is
//!   never repeated, so run-once safety is preserved. Exhausted retries
//!   surface as [`ExecError::TaskFailed`]. `exec.retries` and
//!   `exec.task_failures` count both in `incr-obs`.
//! * **Stall watchdog** — an optional per-update deadline
//!   ([`ExecConfig::deadline`]): instead of hanging forever on a wedged
//!   pipeline, the run returns [`ExecError::Timeout`] carrying an
//!   [`ExecSnapshot`] diagnostic (in-flight nodes, queue depth).
//! * **Cancellation** — a [`CancelToken`] aborts an in-flight update
//!   between wavefronts; in-flight completions are committed, then the
//!   run returns [`ExecError::Cancelled`]. The generation-stamped
//!   schedulers make the abandoned state harmless: the next `start()`
//!   behaves exactly like a fresh update.
//! * **Crash-consistent resume** — [`Executor::run`] can journal the
//!   executed set into an [`UpdateJournal`]; re-running a failed update
//!   with the same journal *replays* journaled completions (delivering
//!   their recorded fired sets to the scheduler without executing the
//!   task again) and executes only what the failed attempt never ran.
//!
//! Workers wait in `recv` when the queue is empty (a spin of tens of µs,
//! then a condvar park) and exit on an explicit [`WorkMsg::Shutdown`] —
//! distinct from a stalled scheduler, which surfaces as
//! [`ExecError::Stall`]. Worker threads are
//! joined with a bounded grace period; a thread wedged inside a hung task
//! body is *leaked* (counted in `exec.workers_leaked`) rather than letting
//! it hold the caller hostage. Completion order is still recorded for the
//! safety checker; the "fired" sets come from *real computation* (e.g.
//! the Datalog engine reporting whether a predicate's output actually
//! changed).
//!
//! [`Executor::run_stream`] drives a whole stream of updates through one
//! warm worker pool — combined with the O(active) `start()` of the
//! schedulers, a stream of 10-node updates costs per-update work
//! proportional to 10, not to the DAG size. A mid-stream failure returns
//! [`StreamError`], which reports the error *and* the accounting for the
//! updates that did complete (later updates are not attempted).

use crossbeam::channel;
use incr_dag::{Dag, NodeId};
pub use incr_obs::flight::default_black_box_dir;
use incr_obs::flight::{self, FlightCode};
use incr_obs::{trace, Json};
use incr_sched::{CompletionBatch, Scheduler};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An infallible task body: executed on a worker thread for each
/// dispatched node. Children whose input changed are appended to `fired`
/// (which the caller provides and recycles — implementations must only
/// push, never read or clear it).
pub type TaskFn = Arc<dyn Fn(NodeId, &mut Vec<NodeId>) + Send + Sync>;

/// A fallible task body: like [`TaskFn`] but reporting whether the
/// execution succeeded. On [`TaskOutcome::Retryable`] the worker discards
/// anything the attempt pushed into `fired` and re-runs per the
/// [`RetryPolicy`]; only a [`TaskOutcome::Done`] execution counts.
pub type TryTaskFn = Arc<dyn Fn(NodeId, &mut Vec<NodeId>) -> TaskOutcome + Send + Sync>;

/// What one task execution attempt reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The attempt succeeded; its fired children are final.
    Done,
    /// Transient failure: discard this attempt's fired children and try
    /// again (subject to the executor's [`RetryPolicy`]).
    Retryable,
}

/// Adapt an infallible [`TaskFn`] to the fallible interface.
pub fn infallible(task: TaskFn) -> TryTaskFn {
    Arc::new(move |v, fired: &mut Vec<NodeId>| {
        task(v, fired);
        TaskOutcome::Done
    })
}

/// Bounded-retry policy for [`TaskOutcome::Retryable`] attempts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per task including the first (≥ 1). With the
    /// default of 1, a retryable failure fails the run immediately.
    pub max_attempts: u32,
    /// Delay before the first re-attempt; doubles per subsequent attempt.
    pub backoff: Duration,
    /// Upper bound on the per-attempt backoff delay.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Allow `n` retries after the initial attempt, with a small
    /// exponential backoff.
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: n + 1,
            backoff: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(100),
        }
    }

    /// Backoff before re-attempt number `retry_index` (0-based).
    fn delay(&self, retry_index: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << retry_index.min(16);
        (self.backoff * factor).min(self.backoff_cap)
    }
}

/// Cooperative cancellation handle: cloneable, settable from any thread.
/// The coordinator checks it between wavefronts, so cancellation aborts
/// the update at a batch boundary with all in-flight work committed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation of any run observing this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Re-arm the token for the next run.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Diagnostic snapshot attached to [`ExecError::Timeout`]: what the
/// pipeline looked like when the watchdog fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecSnapshot {
    /// Scheduler driving the wedged update.
    pub scheduler: String,
    /// Dispatched-but-uncompleted nodes, sorted.
    pub in_flight: Vec<NodeId>,
    /// Chunks sitting in the work queue, not yet picked up by a worker.
    pub queued_chunks: usize,
    /// Tasks committed before the deadline fired.
    pub executed: usize,
    /// Wall-clock milliseconds since the update started.
    pub elapsed_ms: u64,
}

impl fmt::Display for ExecSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} executed, {} in flight ({}), {} queued chunks after {} ms",
            self.executed,
            self.in_flight.len(),
            fmt_nodes(&self.in_flight),
            self.queued_chunks,
            self.elapsed_ms
        )
    }
}

/// At most eight node ids, then an ellipsis — snapshots must stay
/// one-line printable even for huge in-flight sets.
fn fmt_nodes(nodes: &[NodeId]) -> String {
    let mut s = String::new();
    for (i, v) in nodes.iter().take(8).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&v.to_string());
    }
    if nodes.len() > 8 {
        s.push_str(", …");
    }
    s
}

/// Why a run could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The scheduler offered no task while active work remained.
    Stall { scheduler: String },
    /// A task fired a child it has no edge to in `G`.
    NonEdge { from: NodeId, to: NodeId },
    /// A task body panicked; the panic was isolated to its worker and the
    /// pipeline drained cleanly.
    TaskPanicked { node: NodeId, message: String },
    /// A task kept reporting [`TaskOutcome::Retryable`] until the
    /// [`RetryPolicy`] was exhausted.
    TaskFailed { node: NodeId, attempts: u32 },
    /// The watchdog deadline elapsed before the update quiesced.
    Timeout { snapshot: Box<ExecSnapshot> },
    /// A [`CancelToken`] aborted the update; `executed` tasks committed
    /// before the abort.
    Cancelled { executed: usize },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Stall { scheduler } => {
                write!(f, "{scheduler} stalled with active work remaining")
            }
            ExecError::NonEdge { from, to } => {
                write!(f, "task {from} fired non-edge to {to}")
            }
            ExecError::TaskPanicked { node, message } => {
                write!(f, "task {node} panicked: {message}")
            }
            ExecError::TaskFailed { node, attempts } => {
                write!(f, "task {node} failed after {attempts} attempts")
            }
            ExecError::Timeout { snapshot } => {
                write!(f, "watchdog deadline elapsed: {snapshot}")
            }
            ExecError::Cancelled { executed } => {
                write!(f, "update cancelled after {executed} executed tasks")
            }
        }
    }
}

impl ExecError {
    /// Short machine-readable label — black-box dump filenames and the
    /// `kind` field of their context record.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::Stall { .. } => "stall",
            ExecError::NonEdge { .. } => "non-edge",
            ExecError::TaskPanicked { .. } => "panic",
            ExecError::TaskFailed { .. } => "task-failed",
            ExecError::Timeout { .. } => "timeout",
            ExecError::Cancelled { .. } => "cancelled",
        }
    }
}

impl std::error::Error for ExecError {}

/// A mid-stream failure from [`Executor::run_stream`]: the error plus
/// the accounting for the updates that completed before it. The failing
/// update is `updates[completed.updates]`; later ones are not attempted.
#[derive(Clone, Debug)]
pub struct StreamError {
    /// What stopped the stream.
    pub error: ExecError,
    /// Report covering only the fully completed updates.
    pub completed: StreamReport,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "update {} failed ({} updates completed): {}",
            self.completed.updates, self.completed.updates, self.error
        )
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Per-update journal of committed executions: which nodes ran
/// successfully and what they fired. After a failed or cancelled update,
/// pass the same journal back to [`Executor::run`] to *resume*:
/// journaled nodes are completed from the record instead of re-executed,
/// so the run-once invariant holds across the failure. A successful run
/// commits the update and clears the journal.
#[derive(Clone, Debug, Default)]
pub struct UpdateJournal {
    nodes: Vec<NodeId>,
    /// All fired sets back-to-back in commit order; `ends[i]` is the
    /// arena offset one past node `i`'s slice. A flat arena keeps
    /// journaling off the allocator on the hot completion path.
    fired_arena: Vec<NodeId>,
    ends: Vec<usize>,
    /// Commit position per node id (`usize::MAX` = not journaled), grown
    /// on demand — an array write per commit instead of a hash insert.
    index: Vec<usize>,
}

const NOT_JOURNALED: usize = usize::MAX;

impl UpdateJournal {
    pub fn new() -> UpdateJournal {
        UpdateJournal::default()
    }

    /// Committed executions recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forget the recorded update (called automatically on success).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.fired_arena.clear();
        self.ends.clear();
        self.index.fill(NOT_JOURNALED);
    }

    /// Was `v` committed by a previous attempt of this update?
    pub fn contains(&self, v: NodeId) -> bool {
        self.slot(v) != NOT_JOURNALED
    }

    /// The fired children recorded for `v`, if journaled.
    pub fn fired_of(&self, v: NodeId) -> Option<&[NodeId]> {
        let i = self.slot(v);
        (i != NOT_JOURNALED).then(|| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.fired_arena[start..self.ends[i]]
        })
    }

    /// Committed nodes in commit order.
    pub fn executed(&self) -> &[NodeId] {
        &self.nodes
    }

    fn slot(&self, v: NodeId) -> usize {
        self.index.get(v.index()).copied().unwrap_or(NOT_JOURNALED)
    }

    fn record(&mut self, v: NodeId, fired: &[NodeId]) {
        debug_assert!(!self.contains(v), "journaled {v} twice");
        if self.index.len() <= v.index() {
            self.index.resize(v.index() + 1, NOT_JOURNALED);
        }
        self.index[v.index()] = self.nodes.len();
        self.nodes.push(v);
        self.fired_arena.extend_from_slice(fired);
        self.ends.push(self.fired_arena.len());
    }
}

/// Most tasks dispatched but not yet completed: the backpressure that
/// keeps the coordinator from running unboundedly ahead of slow workers.
/// Counted in tasks, not chunks, so growing chunks cannot widen it. It
/// must not grow with a level, and smaller is cheaper: while LevelBased
/// waits at a level barrier, Hybrid's LogicBlox side checks every
/// candidate against every task still in flight. Two default
/// `pop_batch` wavefronts — one the workers run, one queued behind it —
/// keep the pipeline full.
const WINDOW: usize = 512;

/// Tuning for the dispatch pipeline.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Worker thread count (the paper's experiments use 8).
    pub workers: usize,
    /// Max tasks pulled from the scheduler per `pop_batch` call.
    pub batch_max: usize,
    /// Retry policy for [`TaskOutcome::Retryable`] attempts.
    pub retry: RetryPolicy,
    /// Per-update watchdog deadline: a run not quiescent within this
    /// budget returns [`ExecError::Timeout`] with a diagnostic snapshot
    /// instead of waiting forever. `None` (default) disables the
    /// watchdog and its in-flight bookkeeping.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: when the token fires, the in-flight
    /// update aborts with [`ExecError::Cancelled`] at the next wavefront
    /// boundary.
    pub cancel: Option<CancelToken>,
    /// How long shutdown waits for worker threads before leaking them
    /// (a worker wedged in a hung task body must not block the caller).
    pub join_grace: Duration,
    /// How long the error path waits for in-flight completions while
    /// draining the pipeline before giving up on stragglers.
    pub drain_grace: Duration,
    /// Where flight-recorder black boxes land when a run returns
    /// [`ExecError`]. Defaults from `INCR_BLACKBOX_DIR` (set it to `off`
    /// or empty to disable), falling back to `results/blackbox`. `None`
    /// disables dump-on-error entirely.
    pub black_box: Option<PathBuf>,
    /// Record one trace span per executed task (name `task`, arg `node`)
    /// when tracing is enabled — the input `dlsched explain`'s
    /// critical-path analyzer needs. Off by default: per-task spans on
    /// large updates dominate trace volume.
    pub record_tasks: bool,
}

impl ExecConfig {
    pub fn new(workers: usize) -> ExecConfig {
        assert!(workers >= 1);
        ExecConfig {
            workers,
            batch_max: 256,
            retry: RetryPolicy::default(),
            deadline: None,
            cancel: None,
            join_grace: Duration::from_secs(5),
            drain_grace: Duration::from_secs(5),
            black_box: default_black_box_dir(),
            record_tasks: false,
        }
    }
}

/// Result of one [`Executor::run`].
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Number of tasks executed this run (= newly activated tasks; does
    /// not include journal replays).
    pub executed: usize,
    /// Completions replayed from an [`UpdateJournal`] instead of
    /// executed (0 unless resuming a failed update).
    pub replayed: usize,
    /// Wall-clock duration of the run.
    pub wall_seconds: f64,
    /// Nodes in completion order (nondeterministic across runs).
    pub completion_order: Vec<NodeId>,
    /// Fraction of coordinator wall time spent doing work (scheduling,
    /// dispatching, feeding back completions) rather than blocked waiting
    /// for workers. Near 1.0 means the coordinator is the bottleneck.
    pub coord_busy_fraction: f64,
}

/// Result of one [`Executor::run_stream`].
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Updates driven to quiescence.
    pub updates: usize,
    /// Total tasks executed across all updates.
    pub executed: usize,
    /// Wall-clock duration of the whole stream.
    pub wall_seconds: f64,
    /// Per-update drive durations (`start` to quiescence).
    pub update_seconds: Vec<f64>,
    /// Coordinator busy fraction over the whole stream.
    pub coord_busy_fraction: f64,
}

/// What the coordinator sends workers.
#[derive(Debug)]
enum WorkMsg {
    /// Tasks to execute, and the cleared batch their completions go into.
    /// Both come back in the chunk's [`DoneMsg`].
    Chunk(Vec<NodeId>, CompletionBatch),
    /// Orderly end of the run: exit now. Distinct from a disconnect so a
    /// dropped coordinator (panic, error path) also releases workers, but
    /// the normal path is explicit.
    Shutdown,
}

/// How one task execution failed on a worker.
#[derive(Clone, Debug)]
enum TaskError {
    Panicked(String),
    Exhausted { attempts: u32 },
}

impl TaskError {
    fn into_exec_error(self, node: NodeId) -> ExecError {
        match self {
            TaskError::Panicked(message) => ExecError::TaskPanicked { node, message },
            TaskError::Exhausted { attempts } => ExecError::TaskFailed { node, attempts },
        }
    }
}

/// What a worker sends back for one chunk: the completions it committed,
/// the chunk's vector, and the failure that cut the chunk short, if
/// one did. Tasks after the failing one in the chunk are abandoned (the
/// error path accounts for them when it steals the remains of the
/// pipeline).
#[derive(Debug)]
struct DoneMsg {
    batch: CompletionBatch,
    chunk: Vec<NodeId>,
    failed: Option<Failure>,
}

/// The task that failed a chunk.
#[derive(Debug)]
struct Failure {
    node: NodeId,
    /// Tasks of the chunk after the failing node that were never run.
    abandoned: usize,
    error: TaskError,
}

/// The coordinator's ends of the two pipes, and the free lists of the
/// buffers that travel through them.
struct Pipes {
    work_tx: channel::Sender<WorkMsg>,
    /// Coordinator-side receiver clone of the work queue: the error path
    /// *steals* unstarted chunks back so the drain can account for them.
    work_steal: channel::Receiver<WorkMsg>,
    done_rx: channel::Receiver<DoneMsg>,
    /// Emptied chunk vectors.
    chunks: Vec<Vec<NodeId>>,
    /// Cleared completion batches.
    batches: Vec<CompletionBatch>,
}

impl Pipes {
    /// Put a chunk's buffers back on the free lists.
    fn recycle(&mut self, mut chunk: Vec<NodeId>, mut batch: CompletionBatch) {
        chunk.clear();
        batch.clear();
        self.chunks.push(chunk);
        self.batches.push(batch);
    }
}

/// A fixed-size worker pool driving one scheduler.
pub struct Executor {
    cfg: ExecConfig,
}

impl Executor {
    /// Pool with `workers` threads and default batching.
    pub fn new(workers: usize) -> Executor {
        Executor {
            cfg: ExecConfig::new(workers),
        }
    }

    /// Pool with explicit pipeline tuning.
    pub fn with_config(cfg: ExecConfig) -> Executor {
        assert!(cfg.workers >= 1);
        assert!(cfg.batch_max >= 1);
        assert!(cfg.retry.max_attempts >= 1);
        Executor { cfg }
    }

    /// Execute one incremental update: dirty `initial` tasks, then run
    /// every task the scheduler deems safe until quiescent. An infallible
    /// [`TaskFn`] goes through [`infallible`].
    ///
    /// With `journal`:
    /// * every committed execution is recorded before the run returns —
    ///   including completions drained on the error path;
    /// * if the journal already has entries (a previous attempt of this
    ///   update failed), those nodes are *replayed* — completed with their
    ///   recorded fired sets, never re-executed;
    /// * a successful run clears the journal (update committed).
    ///
    /// Resume only with the same `initial` set and a deterministic task
    /// body; the journal describes *this* update, not any update.
    pub fn run(
        &self,
        scheduler: &mut dyn Scheduler,
        dag: &Arc<Dag>,
        initial: &[NodeId],
        task: TryTaskFn,
        mut journal: Option<&mut UpdateJournal>,
    ) -> Result<ExecReport, ExecError> {
        let t0 = Instant::now();
        let mut completion_order = Vec::new();
        let mut wait_ns = 0u64;
        let result = self.with_pool(&task, |pipes, ready| {
            drive_update(
                scheduler,
                dag,
                initial,
                &self.cfg,
                pipes,
                ready,
                Some(&mut completion_order),
                &mut wait_ns,
                journal.as_deref_mut(),
            )
        });
        let stats = match result {
            Ok(stats) => stats,
            Err(error) => {
                black_box_dump(&self.cfg, &error, scheduler.name());
                return Err(error);
            }
        };
        if let Some(j) = journal {
            j.clear();
        }
        Ok(finish_report(stats, completion_order, t0, wait_ns))
    }

    /// Drive a whole stream of updates, one after the other, through one
    /// warm worker pool: the scheduler is `start`ed per update (O(active)
    /// with the stamped schedulers) and the pool, channels and buffers
    /// persist across updates, so per-update dispatch cost is independent
    /// of both V and the stream position. A failing update stops the
    /// stream; the [`StreamError`] reports which update failed and the
    /// accounting for those that completed.
    pub fn run_stream(
        &self,
        scheduler: &mut dyn Scheduler,
        dag: &Arc<Dag>,
        updates: &[Vec<NodeId>],
        task: TaskFn,
    ) -> Result<StreamReport, Box<StreamError>> {
        let t0 = Instant::now();
        let mut update_seconds = Vec::with_capacity(updates.len());
        let mut executed = 0usize;
        let mut wait_ns = 0u64;
        let result = self.with_pool(&infallible(task), |pipes, ready| {
            for initial in updates {
                let u0 = Instant::now();
                let stats = drive_update(
                    scheduler,
                    dag,
                    initial,
                    &self.cfg,
                    pipes,
                    ready,
                    None,
                    &mut wait_ns,
                    None,
                )?;
                executed += stats.executed;
                update_seconds.push(u0.elapsed().as_secs_f64());
            }
            Ok(())
        });
        let wall = t0.elapsed();
        record_occupancy(wall.as_nanos() as u64, wait_ns);
        let report = StreamReport {
            updates: update_seconds.len(),
            executed,
            wall_seconds: wall.as_secs_f64(),
            update_seconds,
            coord_busy_fraction: busy_fraction(wall.as_nanos() as u64, wait_ns),
        };
        match result {
            Ok(()) => Ok(report),
            // Boxed: the error path is cold and the payload (the full
            // report) would otherwise dominate the Ok size.
            Err(error) => {
                black_box_dump(&self.cfg, &error, scheduler.name());
                Err(Box::new(StreamError {
                    error,
                    completed: report,
                }))
            }
        }
    }

    /// Spawn the worker pool, run `body` on the coordinator side, then
    /// shut the pool down: one explicit [`WorkMsg::Shutdown`] per worker,
    /// the work sender dropped as the catch-all release, and a bounded join —
    /// workers that outstay [`ExecConfig::join_grace`] (hung task bodies)
    /// are leaked and counted rather than awaited forever. If `body`
    /// itself panics, the unwinding drop of the channels releases every
    /// parked worker the same way.
    fn with_pool<R>(
        &self,
        task: &TryTaskFn,
        body: impl FnOnce(&mut Pipes, &mut Vec<NodeId>) -> Result<R, ExecError>,
    ) -> Result<R, ExecError> {
        let (work_tx, work_rx) = channel::unbounded::<WorkMsg>();
        let (done_tx, done_rx) = channel::unbounded::<DoneMsg>();

        let mut handles = Vec::with_capacity(self.cfg.workers);
        for i in 0..self.cfg.workers {
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            let task = task.clone();
            let retry = self.cfg.retry.clone();
            let record_tasks = self.cfg.record_tasks;
            #[allow(clippy::expect_used, reason = "a pool without its workers cannot run at all")]
            let handle = std::thread::Builder::new()
                .name(format!("incr-worker-{i}"))
                .spawn(move || worker_loop(i, work_rx, done_tx, task, retry, record_tasks))
                .expect("spawn worker thread");
            handles.push(handle);
        }
        drop(done_tx);

        // Unconditional: names both the trace track and the flight lane,
        // and the flight recorder is always on.
        trace::set_thread_name("executor-coordinator");
        let mut pipes = Pipes {
            work_tx,
            work_steal: work_rx,
            done_rx,
            chunks: Vec::new(),
            batches: Vec::new(),
        };
        let mut ready = Vec::new();
        let result = body(&mut pipes, &mut ready);
        // Orderly shutdown: one message per worker, queued behind any
        // chunk still waiting.
        for _ in 0..self.cfg.workers {
            let _ = pipes.work_tx.send(WorkMsg::Shutdown);
        }
        drop(pipes);

        let grace_until = Instant::now() + self.cfg.join_grace;
        for handle in handles {
            loop {
                if handle.is_finished() {
                    let _ = handle.join();
                    break;
                }
                if Instant::now() >= grace_until {
                    // Wedged in a task body: leak the thread, keep going.
                    incr_obs::registry().counter("exec.workers_leaked").inc();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        result
    }
}

/// Run one task to completion, retrying `Retryable` attempts per the
/// policy with exponential backoff, isolating panics. `fired` is
/// truncated back to its pre-attempt length on every failure, so only a
/// successful attempt's children survive.
fn run_one(
    task: &TryTaskFn,
    node: NodeId,
    fired: &mut Vec<NodeId>,
    retry: &RetryPolicy,
) -> Result<(), TaskError> {
    let mark = fired.len();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| task(node, fired))) {
            Ok(TaskOutcome::Done) => return Ok(()),
            Ok(TaskOutcome::Retryable) => {
                fired.truncate(mark);
                if attempts >= retry.max_attempts {
                    incr_obs::registry().counter("exec.task_failures").inc();
                    flight::instant(FlightCode::TaskFail, node.index() as u64);
                    return Err(TaskError::Exhausted { attempts });
                }
                incr_obs::registry().counter("exec.retries").inc();
                flight::instant(FlightCode::TaskRetry, node.index() as u64);
                let delay = retry.delay(attempts - 1);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            Err(payload) => {
                fired.truncate(mark);
                incr_obs::registry().counter("exec.task_failures").inc();
                flight::instant(FlightCode::TaskFail, node.index() as u64);
                return Err(TaskError::Panicked(flight::panic_message(payload)));
            }
        }
    }
}

/// Worker side: wait on `recv`, execute a chunk into the completion batch
/// that came with it (panic-isolated, retried), send the batch back whole.
/// On a task failure, the completions committed so far travel back *with*
/// the failure so the coordinator can account for every execution.
fn worker_loop(
    i: usize,
    work_rx: channel::Receiver<WorkMsg>,
    done_tx: channel::Sender<DoneMsg>,
    task: TryTaskFn,
    retry: RetryPolicy,
    record_tasks: bool,
) {
    trace::set_thread_name(&format!("worker-{i}"));
    // Cached handle: worker occupancy is always-on (one relaxed add per
    // chunk).
    let busy_ns = incr_obs::registry().counter("exec.worker_busy_ns");
    loop {
        let idle = trace::span("exec", "worker.idle");
        let msg = work_rx.recv();
        drop(idle);
        let (chunk, mut batch) = match msg {
            Ok(WorkMsg::Chunk(chunk, batch)) => (chunk, batch),
            Ok(WorkMsg::Shutdown) | Err(_) => break,
        };
        let span = trace::enabled().then(|| {
            trace::span_with(
                "exec",
                format!("chunk x{}", chunk.len()),
                vec![("tasks", chunk.len().into())],
            )
        });
        let fspan = flight::span_arg(FlightCode::ChunkRun, chunk.len() as u64);
        let c0 = Instant::now();
        let mut failed = None;
        for (pos, &node) in chunk.iter().enumerate() {
            let tspan = (record_tasks && trace::enabled())
                .then(|| trace::span_with("exec", "task", vec![("node", node.index().into())]));
            let outcome = run_one(&task, node, batch.fired_buf(), &retry);
            drop(tspan);
            match outcome {
                Ok(()) => batch.commit(node),
                Err(error) => {
                    failed = Some(Failure {
                        node,
                        abandoned: chunk.len() - pos - 1,
                        error,
                    });
                    break;
                }
            }
        }
        busy_ns.add(c0.elapsed().as_nanos() as u64);
        drop(fspan);
        drop(span);
        if done_tx
            .send(DoneMsg {
                batch,
                chunk,
                failed,
            })
            .is_err()
        {
            break;
        }
    }
}

/// What one update actually did.
#[derive(Clone, Copy, Debug, Default)]
struct DriveStats {
    executed: usize,
    replayed: usize,
}

/// Mutable coordinator state shared between the drive loop and the
/// error-path drain.
struct DriveState<'a> {
    in_flight: usize,
    /// Per-node in-flight flags, allocated only when the watchdog is
    /// armed (snapshot quality): an array write per dispatch/completion
    /// instead of hash-set churn on the hot path.
    in_flight_flags: Option<Vec<bool>>,
    stats: DriveStats,
    order: Option<&'a mut Vec<NodeId>>,
    journal: Option<&'a mut UpdateJournal>,
}

impl DriveState<'_> {
    /// Commit one worker batch: validate fired edges (unless draining),
    /// record order/journal, deliver completions to the scheduler.
    fn commit_batch(
        &mut self,
        scheduler: &mut dyn Scheduler,
        dag: &Dag,
        batch: &CompletionBatch,
        validate: bool,
    ) -> Result<(), ExecError> {
        let _fspan = flight::span_arg(FlightCode::Commit, batch.len() as u64);
        let _tspan = trace::enabled().then(|| {
            trace::span_with(
                "exec",
                "exec.commit",
                vec![("completions", batch.len().into())],
            )
        });
        // Flight accounting happens even for an invalid batch — the
        // error-path drain must still observe in_flight reach zero.
        self.in_flight -= batch.len();
        if let Some(flags) = self.in_flight_flags.as_mut() {
            for (node, _) in batch.iter() {
                flags[node.index()] = false;
            }
        }
        if validate {
            for (node, fired) in batch.iter() {
                for &c in fired {
                    if !dag.has_edge(node, c) {
                        return Err(ExecError::NonEdge { from: node, to: c });
                    }
                }
            }
        }
        self.stats.executed += batch.len();
        if let Some(order) = self.order.as_deref_mut() {
            order.extend(batch.iter().map(|(node, _)| node));
        }
        if let Some(j) = self.journal.as_deref_mut() {
            for (node, fired) in batch.iter() {
                j.record(node, fired);
            }
        }
        scheduler.complete_batch(batch);
        Ok(())
    }

    /// Commit a worker's reply ([`Self::commit_batch`]) and account for
    /// the failure it carries. Either error surfaces, the commit's first.
    fn commit_done(
        &mut self,
        scheduler: &mut dyn Scheduler,
        dag: &Dag,
        msg: &mut DoneMsg,
        validate: bool,
    ) -> Result<(), ExecError> {
        let commit = self.commit_batch(scheduler, dag, &msg.batch, validate);
        let Some(failed) = msg.failed.take() else {
            return commit;
        };
        self.unexecuted([failed.node]);
        self.in_flight -= failed.abandoned;
        commit.and(Err(failed.error.into_exec_error(failed.node)))
    }

    /// Account for tasks that left flight without executing (stolen
    /// chunks, the failing task itself, abandoned chunk tails).
    fn unexecuted(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for node in nodes {
            self.in_flight -= 1;
            if let Some(flags) = self.in_flight_flags.as_mut() {
                flags[node.index()] = false;
            }
        }
    }

    fn snapshot(
        &self,
        scheduler: &dyn Scheduler,
        pipes: &Pipes,
        t0: Instant,
    ) -> Box<ExecSnapshot> {
        // O(V) scan, but only ever run on the (rare) timeout path.
        let in_flight: Vec<NodeId> = self
            .in_flight_flags
            .as_ref()
            .map(|flags| {
                flags
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f)
                    .map(|(i, _)| NodeId(i as u32))
                    .collect()
            })
            .unwrap_or_default();
        Box::new(ExecSnapshot {
            scheduler: scheduler.name().to_string(),
            in_flight,
            queued_chunks: pipes.work_steal.len(),
            executed: self.stats.executed,
            elapsed_ms: t0.elapsed().as_millis() as u64,
        })
    }
}

/// One update to quiescence on the batched pipeline. Returns tasks
/// executed/replayed; accumulates coordinator blocked-time into
/// `wait_ns`.
#[allow(clippy::too_many_arguments)]
fn drive_update(
    scheduler: &mut dyn Scheduler,
    dag: &Dag,
    initial: &[NodeId],
    cfg: &ExecConfig,
    pipes: &mut Pipes,
    ready: &mut Vec<NodeId>,
    order: Option<&mut Vec<NodeId>>,
    wait_ns: &mut u64,
    journal: Option<&mut UpdateJournal>,
) -> Result<DriveStats, ExecError> {
    // Update boundary: per-update gauge peaks start a fresh window, so a
    // snapshot taken after this update reports *its* peaks, not the
    // highest value any update ever reached.
    let registry = incr_obs::registry();
    registry.reset_gauge_peaks();
    let queue_gauge = registry.gauge("exec.queue_depth");
    let inflight_gauge = registry.gauge("exec.in_flight");
    let chunks = registry.counter("exec.chunks");
    let mut fspan = flight::span_arg(FlightCode::UpdateRun, 0);
    let mut tspan = trace::enabled().then(|| {
        trace::span_with("exec", "exec.update", vec![("initial", initial.len().into())])
    });
    scheduler.start(initial);
    let t0 = Instant::now();
    let deadline = cfg.deadline.map(|d| t0 + d);
    let resuming = journal.as_deref().map(|j| !j.is_empty()).unwrap_or(false);
    let mut st = DriveState {
        in_flight: 0,
        in_flight_flags: deadline.is_some().then(|| vec![false; dag.node_count()]),
        stats: DriveStats::default(),
        order,
        journal,
    };
    let mut replay_batch = CompletionBatch::new();
    loop {
        if let Some(tok) = &cfg.cancel {
            if tok.is_cancelled() {
                let executed = st.stats.executed;
                drain_on_error(scheduler, dag, cfg, pipes, &mut st);
                return Err(ExecError::Cancelled { executed });
            }
        }
        // Dispatch currently-safe tasks, one wavefront per pop_batch, while
        // the window has room: never more than `WINDOW` in flight.
        while st.in_flight < WINDOW {
            ready.clear();
            let room = cfg.batch_max.min(WINDOW - st.in_flight);
            if scheduler.pop_batch(ready, room) == 0 {
                break;
            }
            flight::instant(FlightCode::PopBatch, ready.len() as u64);
            if resuming {
                // Completions committed by the failed attempt replay from
                // the journal instead of re-executing.
                #[allow(clippy::expect_used, reason = "a resumed run always carries its journal")]
                let journal = st.journal.as_deref().expect("resuming implies journal");
                ready.retain(|&v| match journal.fired_of(v) {
                    Some(fired) => {
                        replay_batch.push(v, fired);
                        false
                    }
                    None => true,
                });
            }
            st.in_flight += ready.len();
            if let Some(flags) = st.in_flight_flags.as_mut() {
                for &v in ready.iter() {
                    flags[v.index()] = true;
                }
            }
            chunks.add(send_chunks(ready, cfg.workers, pipes));
            if !replay_batch.is_empty() {
                st.stats.replayed += replay_batch.len();
                flight::instant(FlightCode::JournalReplay, replay_batch.len() as u64);
                scheduler.complete_batch(&replay_batch);
                replay_batch.clear();
            }
        }
        // Always-on wavefront depth signals: registry gauges (windowed
        // peaks reset above) plus flight-recorder counter samples.
        inflight_gauge.set(st.in_flight as i64);
        queue_gauge.set(pipes.work_steal.len() as i64);
        if flight::enabled() {
            flight::counter(FlightCode::InFlight, st.in_flight as f64);
            flight::counter(FlightCode::QueueDepth, pipes.work_steal.len() as f64);
        }
        if trace::enabled() {
            trace::counter("exec", "exec.in_flight", st.in_flight as f64);
        }
        if st.in_flight == 0 {
            if scheduler.is_quiescent() {
                fspan.set_arg(st.stats.executed as u64);
                if let Some(span) = tspan.take() {
                    span.end_args(vec![("executed", st.stats.executed.into())]);
                }
                return Ok(st.stats);
            }
            return Err(ExecError::Stall {
                scheduler: scheduler.name().to_string(),
            });
        }
        // Block for one completion batch, then drain whatever else landed.
        let wait = trace::span("exec", "coordinator.wait_completion");
        let fwait = flight::span_arg(FlightCode::CoordWait, st.in_flight as u64);
        let w0 = Instant::now();
        // This wait is the only place the coordinator blocks, so it is the
        // whole watchdog: an expired deadline ends the update here even if
        // completions are still arriving.
        let received = match deadline {
            None => pipes.done_rx.recv().ok(),
            Some(dl) => {
                let budget = dl.saturating_duration_since(Instant::now());
                if budget.is_zero() {
                    None
                } else {
                    pipes.done_rx.recv_timeout(budget).ok()
                }
            }
        };
        *wait_ns += w0.elapsed().as_nanos() as u64;
        drop(fwait);
        drop(wait);
        let Some(mut msg) = received else {
            let snapshot = st.snapshot(scheduler, pipes, t0);
            return Err(ExecError::Timeout { snapshot });
        };
        loop {
            // Commit what really ran and account for what did not. On a
            // failure, drain the rest of the pipeline, then surface it.
            let committed = st.commit_done(scheduler, dag, &mut msg, true);
            pipes.recycle(msg.chunk, msg.batch);
            if let Err(e) = committed {
                drain_on_error(scheduler, dag, cfg, pipes, &mut st);
                return Err(e);
            }
            match pipes.done_rx.try_recv() {
                Some(next) => msg = next,
                None => break,
            }
        }
    }
}

/// The error path's clean drain: steal unstarted chunks back out of the
/// work queue, then wait (bounded) for every in-flight completion and
/// commit it — to the journal too — so no successful execution is lost
/// and a resumed update re-runs nothing that already ran. First error
/// wins: failures seen while draining are dropped (their completions are
/// still committed).
fn drain_on_error(
    scheduler: &mut dyn Scheduler,
    dag: &Dag,
    cfg: &ExecConfig,
    pipes: &mut Pipes,
    st: &mut DriveState<'_>,
) {
    let drain_until = Instant::now() + cfg.drain_grace;
    loop {
        // Steal chunks no worker has picked up yet.
        while let Some(msg) = pipes.work_steal.try_recv() {
            if let WorkMsg::Chunk(chunk, batch) = msg {
                st.unexecuted(chunk.iter().copied());
                pipes.recycle(chunk, batch);
            }
        }
        if st.in_flight == 0 {
            return;
        }
        let budget = drain_until.saturating_duration_since(Instant::now());
        match pipes.done_rx.recv_timeout(budget) {
            Ok(mut msg) => {
                // Skip edge validation: the update is already failing and
                // these executions are being preserved, not judged.
                let _ = st.commit_done(scheduler, dag, &mut msg, false);
                pipes.recycle(msg.chunk, msg.batch);
            }
            Err(_) => {
                // Stragglers (hung task bodies) get leaked with their
                // workers; give up on their completions.
                incr_obs::registry()
                    .counter("exec.drain_abandoned")
                    .add(st.in_flight as u64);
                return;
            }
        }
    }
}

/// Split `ready` evenly across `workers`, with no cap on a chunk's length,
/// and send the chunks, each in a recycled vector with a recycled batch.
/// Returns the number of chunks sent.
fn send_chunks(ready: &[NodeId], workers: usize, pipes: &mut Pipes) -> u64 {
    let len = ready.len().div_ceil(workers).max(1);
    for piece in ready.chunks(len) {
        let mut chunk = pipes.chunks.pop().unwrap_or_default();
        chunk.extend_from_slice(piece);
        let batch = pipes.batches.pop().unwrap_or_default();
        // Unbounded: the window, not the queue, is the backpressure. A
        // send fails only once the pool is gone, which surfaces later as
        // a stall or a timeout.
        let _ = pipes.work_tx.send(WorkMsg::Chunk(chunk, batch));
    }
    ready.len().div_ceil(len) as u64
}

/// Dump the flight recorder to a black-box file because `error` is about
/// to surface ([`flight::black_box`]). The error text — and, for
/// timeouts, the `ExecSnapshot` diagnostics — ride along as the dump's
/// context record, stitching "what the watchdog saw" to "what the threads
/// were doing".
fn black_box_dump(cfg: &ExecConfig, error: &ExecError, scheduler: &str) {
    flight::black_box(cfg.black_box.as_deref(), error.kind(), || {
        // Mark the failure on the coordinator's own lane so the dump shows
        // *when* the error surfaced relative to the recorded events.
        flight::instant(FlightCode::ExecError, 0);
        let mut ctx: Vec<(&'static str, Json)> = vec![
            ("error", error.to_string().into()),
            ("kind", error.kind().into()),
            ("scheduler", scheduler.into()),
        ];
        if let ExecError::Timeout { snapshot } = error {
            ctx.push(("executed", snapshot.executed.into()));
            ctx.push(("queued_chunks", snapshot.queued_chunks.into()));
            ctx.push(("elapsed_ms", snapshot.elapsed_ms.into()));
            ctx.push((
                "in_flight",
                Json::Arr(
                    snapshot
                        .in_flight
                        .iter()
                        .take(32)
                        .map(|v| Json::Num(v.index() as f64))
                        .collect(),
                ),
            ));
            ctx.push(("in_flight_total", snapshot.in_flight.len().into()));
        }
        ctx
    });
}

fn busy_fraction(total_ns: u64, wait_ns: u64) -> f64 {
    if total_ns == 0 {
        return 1.0;
    }
    1.0 - (wait_ns.min(total_ns) as f64 / total_ns as f64)
}

/// Always-on occupancy counters (relaxed atomic adds).
fn record_occupancy(total_ns: u64, wait_ns: u64) {
    let r = incr_obs::registry();
    r.counter("exec.coord_wait_ns").add(wait_ns.min(total_ns));
    r.counter("exec.coord_busy_ns")
        .add(total_ns - wait_ns.min(total_ns));
}

fn finish_report(
    stats: DriveStats,
    completion_order: Vec<NodeId>,
    t0: Instant,
    wait_ns: u64,
) -> ExecReport {
    let wall = t0.elapsed();
    record_occupancy(wall.as_nanos() as u64, wait_ns);
    ExecReport {
        executed: stats.executed,
        replayed: stats.replayed,
        wall_seconds: wall.as_secs_f64(),
        completion_order,
        coord_busy_fraction: busy_fraction(wall.as_nanos() as u64, wait_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_dag::DagBuilder;
    use incr_sched::{CostMeter, Hybrid, LevelBased, LogicBlox};
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    fn diamond() -> Arc<Dag> {
        let mut b = DagBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build().unwrap())
    }

    /// Fire every out-edge: full recomputation of the diamond.
    fn fire_all(dag: &Arc<Dag>) -> TaskFn {
        let dag = dag.clone();
        Arc::new(move |v, fired: &mut Vec<NodeId>| fired.extend_from_slice(dag.children(v)))
    }

    #[test]
    fn executes_diamond_fully() {
        let dag = diamond();
        let mut s = LevelBased::new(dag.clone());
        let report = Executor::new(4)
            .run(&mut s, &dag, &[NodeId(0)], infallible(fire_all(&dag)), None)
            .expect("run succeeds");
        assert_eq!(report.executed, 4);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.completion_order.len(), 4);
        assert_eq!(report.completion_order[0], NodeId(0));
        assert_eq!(*report.completion_order.last().unwrap(), NodeId(3));
        assert!((0.0..=1.0).contains(&report.coord_busy_fraction));
    }

    #[test]
    fn partial_firing_limits_execution() {
        let dag = diamond();
        let mut s = LogicBlox::new(dag.clone());
        // Node 0 fires only node 1; nodes 1..3 fire nothing.
        let f: TaskFn = Arc::new(|v, fired: &mut Vec<NodeId>| {
            if v == NodeId(0) {
                fired.push(NodeId(1));
            }
        });
        let report = Executor::new(2).run(&mut s, &dag, &[NodeId(0)], infallible(f), None).expect("run succeeds");
        assert_eq!(report.executed, 2);
    }

    #[test]
    fn tasks_run_in_parallel_on_real_threads() {
        // Wide fan: one source, 16 children; verify several children
        // overlap in time across worker threads.
        let mut b = DagBuilder::new(17);
        for i in 1..17u32 {
            b.add_edge(NodeId(0), NodeId(i));
        }
        let dag = Arc::new(b.build().unwrap());
        let mut s = LevelBased::new(dag.clone());
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let f: TaskFn = {
            let dag = dag.clone();
            let peak = peak.clone();
            let live = live.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                live.fetch_sub(1, Ordering::SeqCst);
                fired.extend_from_slice(dag.children(v));
            })
        };
        // The 16-task fan goes out as 8 chunks of 2, one to each worker.
        let report = Executor::new(8)
            .run(&mut s, &dag, &[NodeId(0)], infallible(f), None)
            .expect("run succeeds");
        assert_eq!(report.executed, 17);
        assert!(
            peak.load(Ordering::SeqCst) >= 4,
            "expected real overlap, saw peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    /// One level of `w` independent tasks, all of them dirty.
    fn wide_level(w: usize) -> (Arc<Dag>, Vec<NodeId>) {
        let dag = Arc::new(DagBuilder::new(w).build().unwrap());
        let initial = dag.nodes().collect();
        (dag, initial)
    }

    fn no_work() -> TaskFn {
        Arc::new(|_, _: &mut Vec<NodeId>| {})
    }

    #[test]
    fn a_chunk_is_the_wavefront_split_across_workers() {
        // The dispatch path on private pipes, so no other test's chunks
        // reach the count: a wide wavefront goes out in one chunk a
        // worker, with no cap, and a narrow one a task at a time.
        let (work_tx, work_rx) = channel::unbounded();
        let (_done_tx, done_rx) = channel::unbounded();
        let mut pipes = Pipes {
            work_tx,
            work_steal: work_rx,
            done_rx,
            chunks: Vec::new(),
            batches: Vec::new(),
        };
        let ready: Vec<NodeId> = (0..256).map(NodeId).collect();
        for (tasks, workers, chunks, len) in [
            (256, 1, 1, 256),
            (256, 2, 2, 128),
            (16, 8, 8, 2),
            (3, 8, 3, 1),
        ] {
            assert_eq!(send_chunks(&ready[..tasks], workers, &mut pipes), chunks);
            let mut sent = Vec::new();
            while let Some(WorkMsg::Chunk(chunk, _)) = pipes.work_steal.try_recv() {
                assert_eq!(chunk.len(), len, "{tasks} tasks over {workers} workers");
                sent.extend(chunk);
            }
            assert_eq!(sent, ready[..tasks], "{tasks} tasks over {workers} workers");
        }
    }

    #[test]
    fn coordinator_waiting_on_workers_is_not_busy() {
        // One worker, 4 096 tasks of 50 µs: the coordinator has next to
        // nothing to do, and its time blocked on the pipeline is waiting.
        let (dag, initial) = wide_level(4096);
        let spin: TaskFn = Arc::new(|_, _: &mut Vec<NodeId>| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
        });
        let mut s = LevelBased::new(dag.clone());
        let report = Executor::new(1)
            .run(&mut s, &dag, &initial, infallible(spin), None)
            .expect("run succeeds");
        assert!(
            report.coord_busy_fraction < 0.2,
            "coordinator busy {:.2}",
            report.coord_busy_fraction
        );
    }

    #[test]
    fn in_flight_never_exceeds_the_window() {
        // A 64 k-wide level under Hybrid: LevelBased would hand all of it
        // out before the first completion came back.
        let (dag, initial) = wide_level(64 * 1024);
        let mut s = Hybrid::new(dag.clone());
        let report = Executor::new(2)
            .run(&mut s, &dag, &initial, infallible(no_work()), None)
            .expect("run succeeds");
        assert_eq!(report.executed, 64 * 1024);
        // Over every run in this process; this one fills the window.
        let peak = incr_obs::registry().gauge("exec.in_flight").lifetime_peak();
        assert_eq!(peak, WINDOW as i64);
    }

    #[test]
    fn hybrid_runs_on_real_threads() {
        let dag = diamond();
        let mut s = Hybrid::new(dag.clone());
        let report = Executor::new(4)
            .run(&mut s, &dag, &[NodeId(0)], infallible(fire_all(&dag)), None)
            .expect("run succeeds");
        assert_eq!(report.executed, 4);
    }

    #[test]
    fn firing_a_non_edge_returns_typed_error() {
        let dag = diamond();
        let mut s = LevelBased::new(dag.clone());
        let f: TaskFn = Arc::new(|_, fired: &mut Vec<NodeId>| {
            fired.push(NodeId(3)); // node 0 has no edge to 3
        });
        let err = Executor::new(2)
            .run(&mut s, &dag, &[NodeId(0)], infallible(f), None)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::NonEdge {
                from: NodeId(0),
                to: NodeId(3)
            }
        );
        assert!(err.to_string().contains("fired non-edge"));
    }

    /// A scheduler that admits active work but never offers any task:
    /// the executor must surface a stall instead of hanging or panicking.
    struct Hoarder {
        active: usize,
    }

    impl Scheduler for Hoarder {
        fn name(&self) -> &str {
            "Hoarder"
        }
        fn start(&mut self, initial_active: &[NodeId]) {
            self.active = initial_active.len();
        }
        fn on_completed(&mut self, _v: NodeId, _fired: &[NodeId]) {}
        fn pop_ready(&mut self) -> Option<NodeId> {
            None
        }
        fn is_quiescent(&self) -> bool {
            self.active == 0
        }
        fn cost(&self) -> CostMeter {
            CostMeter::default()
        }
        fn space_bytes(&self) -> usize {
            0
        }
        fn precompute_bytes(&self) -> usize {
            0
        }
        fn on_external_dispatch(&mut self, _v: NodeId) {}
    }

    #[test]
    fn scheduler_stall_returns_typed_error() {
        let dag = diamond();
        let mut s = Hoarder { active: 0 };
        let err = Executor::new(2)
            .run(&mut s, &dag, &[NodeId(0)], infallible(fire_all(&dag)), None)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::Stall {
                scheduler: "Hoarder".to_string()
            }
        );
        assert!(err.to_string().contains("stalled with active work remaining"));
    }

    #[test]
    fn empty_update_returns_immediately() {
        let dag = diamond();
        let mut s = LevelBased::new(dag.clone());
        let report = Executor::new(4).run(&mut s, &dag, &[], infallible(fire_all(&dag)), None).expect("run succeeds");
        assert_eq!(report.executed, 0);
        assert!(report.completion_order.is_empty());
    }

    #[test]
    fn stream_reuses_pool_across_updates() {
        let dag = diamond();
        let mut s = LevelBased::new(dag.clone());
        let updates: Vec<Vec<NodeId>> =
            vec![vec![NodeId(0)], vec![], vec![NodeId(1)], vec![NodeId(0)]];
        let report = Executor::new(4)
            .run_stream(&mut s, &dag, &updates, fire_all(&dag))
            .unwrap();
        assert_eq!(report.updates, 4);
        // 4 (full) + 0 (empty) + 2 (from node 1) + 4 (full again).
        assert_eq!(report.executed, 10);
        assert_eq!(report.update_seconds.len(), 4);
    }

    // ---- fault tolerance ----

    /// Suppress this test module's injected panics from stderr while
    /// leaving real panics visible.
    fn quiet_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.contains("injected"))
                    .or_else(|| {
                        info.payload()
                            .downcast_ref::<String>()
                            .map(|s| s.contains("injected"))
                    })
                    .unwrap_or(false);
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn task_panic_returns_typed_error() {
        quiet_panics();
        let dag = diamond();
        let f: TaskFn = Arc::new(|v, fired: &mut Vec<NodeId>| {
            if v == NodeId(1) {
                panic!("injected failure in node 1");
            }
            if v == NodeId(0) {
                fired.push(NodeId(1));
                fired.push(NodeId(2));
            }
        });
        let mut s = LevelBased::new(dag.clone());
        let err = Executor::new(2)
            .run(&mut s, &dag, &[NodeId(0)], infallible(f), None)
            .unwrap_err();
        match err {
            ExecError::TaskPanicked { node, ref message } => {
                assert_eq!(node, NodeId(1));
                assert!(message.contains("injected"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn retryable_task_retries_then_succeeds() {
        let dag = diamond();
        let attempts = Arc::new(AtomicU32::new(0));
        let f: TryTaskFn = {
            let dag = dag.clone();
            let attempts = attempts.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                if v == NodeId(2) && attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                    fired.push(NodeId(3)); // must be discarded by the retry
                    return TaskOutcome::Retryable;
                }
                fired.extend_from_slice(dag.children(v));
                TaskOutcome::Done
            })
        };
        let mut cfg = ExecConfig::new(2);
        cfg.retry = RetryPolicy::retries(3);
        let mut s = LevelBased::new(dag.clone());
        let report = Executor::with_config(cfg)
            .run(&mut s, &dag, &[NodeId(0)], f, None)
            .unwrap();
        assert_eq!(report.executed, 4);
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "two failures + one success");
    }

    #[test]
    fn exhausted_retries_return_task_failed() {
        let dag = diamond();
        let f: TryTaskFn = Arc::new(|v, fired: &mut Vec<NodeId>| {
            if v == NodeId(0) {
                fired.push(NodeId(1));
                return TaskOutcome::Retryable;
            }
            TaskOutcome::Done
        });
        let mut cfg = ExecConfig::new(2);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        };
        let mut s = LevelBased::new(dag.clone());
        let err = Executor::with_config(cfg)
            .run(&mut s, &dag, &[NodeId(0)], f, None)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::TaskFailed {
                node: NodeId(0),
                attempts: 3
            }
        );
        assert!(err.to_string().contains("failed after 3 attempts"));
    }

    #[test]
    fn watchdog_times_out_on_hung_task_with_snapshot() {
        let dag = diamond();
        let f: TaskFn = Arc::new(|v, _fired: &mut Vec<NodeId>| {
            if v == NodeId(0) {
                std::thread::sleep(Duration::from_secs(2));
            }
        });
        let mut cfg = ExecConfig::new(2);
        cfg.deadline = Some(Duration::from_millis(100));
        cfg.join_grace = Duration::from_millis(50);
        cfg.drain_grace = Duration::from_millis(50);
        let mut s = LevelBased::new(dag.clone());
        let t0 = Instant::now();
        let err = Executor::with_config(cfg)
            .run(&mut s, &dag, &[NodeId(0)], infallible(f), None)
            .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(2), "must not wait for the hung task");
        match err {
            ExecError::Timeout { snapshot } => {
                assert_eq!(snapshot.in_flight, vec![NodeId(0)]);
                assert_eq!(snapshot.executed, 0);
                assert!(snapshot.elapsed_ms >= 100);
                assert!(err_to_one_line(&ExecError::Timeout { snapshot }));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    fn err_to_one_line(e: &ExecError) -> bool {
        !e.to_string().contains('\n')
    }

    #[test]
    fn cancellation_aborts_between_wavefronts() {
        // Deep chain so there are many wavefronts to abort between.
        let n = 64u32;
        let mut b = DagBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(NodeId(i - 1), NodeId(i));
        }
        let dag = Arc::new(b.build().unwrap());
        let token = CancelToken::new();
        let f: TaskFn = {
            let dag = dag.clone();
            let token = token.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                if v == NodeId(5) {
                    token.cancel();
                }
                fired.extend_from_slice(dag.children(v));
            })
        };
        let mut cfg = ExecConfig::new(2);
        cfg.cancel = Some(token.clone());
        let mut s = LevelBased::new(dag.clone());
        let err = Executor::with_config(cfg)
            .run(&mut s, &dag, &[NodeId(0)], infallible(f.clone()), None)
            .unwrap_err();
        match err {
            ExecError::Cancelled { executed } => {
                assert!(executed >= 6, "cancel fired at node 5, got {executed}");
                assert!(executed < n as usize, "cancel must abort before the end");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The same scheduler restarts cleanly after the abort.
        token.reset();
        let mut s2 = LevelBased::new(dag.clone());
        let fresh = Executor::new(2)
            .run(&mut s2, &dag, &[NodeId(0)], infallible(fire_all(&dag)), None)
            .expect("run succeeds");
        let resumed = Executor::new(2)
            .run(&mut s, &dag, &[NodeId(0)], infallible(fire_all(&dag)), None)
            .expect("run succeeds");
        assert_eq!(resumed.executed, fresh.executed);
    }

    #[test]
    fn journal_resume_skips_committed_executions() {
        quiet_panics();
        // 0 -> 1 -> 2 -> 3 chain; panic on node 2 the first time only.
        let mut b = DagBuilder::new(4);
        for i in 1..4u32 {
            b.add_edge(NodeId(i - 1), NodeId(i));
        }
        let dag = Arc::new(b.build().unwrap());
        let executions = Arc::new(AtomicU32::new(0));
        let armed = Arc::new(AtomicBool::new(true));
        let f: TryTaskFn = {
            let dag = dag.clone();
            let executions = executions.clone();
            let armed = armed.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                if v == NodeId(2) && armed.swap(false, Ordering::SeqCst) {
                    panic!("injected failure in node 2");
                }
                executions.fetch_add(1, Ordering::SeqCst);
                fired.extend_from_slice(dag.children(v));
                TaskOutcome::Done
            })
        };
        let mut journal = UpdateJournal::new();
        let mut s = LevelBased::new(dag.clone());
        let exec = Executor::new(2);
        let err = exec
            .run(&mut s, &dag, &[NodeId(0)], f.clone(), Some(&mut journal))
            .unwrap_err();
        assert!(matches!(err, ExecError::TaskPanicked { node, .. } if node == NodeId(2)));
        assert_eq!(journal.len(), 2, "nodes 0 and 1 committed");
        assert!(journal.contains(NodeId(0)) && journal.contains(NodeId(1)));

        let report = exec
            .run(&mut s, &dag, &[NodeId(0)], f, Some(&mut journal))
            .unwrap();
        assert_eq!(report.replayed, 2, "0 and 1 replayed, not re-executed");
        assert_eq!(report.executed, 2, "only 2 and 3 execute on resume");
        assert_eq!(
            executions.load(Ordering::SeqCst),
            4,
            "each node executed successfully exactly once across both attempts"
        );
        assert!(journal.is_empty(), "successful run commits the update");
    }

    #[test]
    fn stream_failure_reports_completed_updates() {
        quiet_panics();
        let dag = diamond();
        let mut s = LevelBased::new(dag.clone());
        let calls = Arc::new(AtomicU32::new(0));
        let f: TaskFn = {
            let dag = dag.clone();
            let calls = calls.clone();
            Arc::new(move |v, fired: &mut Vec<NodeId>| {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                // Update 0 executes 4 tasks; the 5th call (update 1) panics.
                if n == 4 {
                    panic!("injected failure in update 1");
                }
                fired.extend_from_slice(dag.children(v));
            })
        };
        let updates: Vec<Vec<NodeId>> =
            vec![vec![NodeId(0)], vec![NodeId(0)], vec![NodeId(0)]];
        let err = Executor::new(2)
            .run_stream(&mut s, &dag, &updates, f)
            .unwrap_err();
        assert!(matches!(err.error, ExecError::TaskPanicked { .. }));
        assert_eq!(err.completed.updates, 1, "only update 0 completed");
        assert_eq!(err.completed.executed, 4, "update 0's four tasks");
        assert_eq!(err.completed.update_seconds.len(), 1);
        assert!(
            calls.load(Ordering::SeqCst) <= 5 + 3,
            "update 2 must not be attempted (saw {} calls)",
            calls.load(Ordering::SeqCst)
        );
        assert!(err.to_string().contains("update 1 failed"));
    }

    #[test]
    fn exec_error_display_and_error_impls_cover_every_variant() {
        let variants = [ExecError::Stall {
                scheduler: "X".into(),
            },
            ExecError::NonEdge {
                from: NodeId(1),
                to: NodeId(2),
            },
            ExecError::TaskPanicked {
                node: NodeId(3),
                message: "boom".into(),
            },
            ExecError::TaskFailed {
                node: NodeId(4),
                attempts: 7,
            },
            ExecError::Timeout {
                snapshot: Box::new(ExecSnapshot {
                    scheduler: "Y".into(),
                    in_flight: (0..12).map(NodeId).collect(),
                    queued_chunks: 3,
                    executed: 9,
                    elapsed_ms: 1500,
                }),
            },
            ExecError::Cancelled { executed: 11 }];
        let texts: Vec<String> = variants.iter().map(|e| e.to_string()).collect();
        for (e, t) in variants.iter().zip(&texts) {
            assert!(!t.is_empty(), "{e:?}");
            assert!(!t.contains('\n'), "diagnostics must be one-line: {t}");
            // Exercise the Error impl.
            let dyn_err: &dyn std::error::Error = e;
            assert_eq!(dyn_err.to_string(), *t);
        }
        assert!(texts[0].contains("stalled"));
        assert!(texts[1].contains("non-edge"));
        assert!(texts[2].contains("panicked") && texts[2].contains("boom"));
        assert!(texts[3].contains("7 attempts"));
        assert!(texts[4].contains("…"), "long in-flight lists are elided");
        assert!(texts[5].contains("cancelled after 11"));
    }

    #[test]
    fn retry_policy_backoff_is_bounded() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(35), "capped");
        assert_eq!(p.delay(30), Duration::from_millis(35), "shift clamped");
        assert_eq!(RetryPolicy::default().delay(5), Duration::ZERO);
    }

    #[test]
    fn cancel_token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!t2.is_cancelled());
    }

    #[test]
    fn coordinator_panic_releases_workers_within_bounded_wait() {
        // A scheduler that panics in complete_batch — i.e. an injected
        // panic in the coordinator's drive loop. The unwind must release
        // every worker (channel disconnect) instead of leaking them.
        struct PanicOnComplete {
            inner: LevelBased,
        }
        impl Scheduler for PanicOnComplete {
            fn name(&self) -> &str {
                "PanicOnComplete"
            }
            fn start(&mut self, initial: &[NodeId]) {
                self.inner.start(initial);
            }
            fn on_completed(&mut self, _v: NodeId, _fired: &[NodeId]) {
                panic!("injected coordinator failure");
            }
            fn pop_ready(&mut self) -> Option<NodeId> {
                self.inner.pop_ready()
            }
            fn is_quiescent(&self) -> bool {
                self.inner.is_quiescent()
            }
            fn cost(&self) -> CostMeter {
                self.inner.cost()
            }
            fn space_bytes(&self) -> usize {
                0
            }
            fn precompute_bytes(&self) -> usize {
                0
            }
            fn on_external_dispatch(&mut self, v: NodeId) {
                self.inner.on_external_dispatch(v);
            }
        }
        quiet_panics();
        let dag = diamond();
        let task = fire_all(&dag);
        let witness = task.clone();
        let mut s = PanicOnComplete {
            inner: LevelBased::new(dag.clone()),
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = Executor::new(4).run(&mut s, &dag, &[NodeId(0)], infallible(task), None);
        }));
        assert!(caught.is_err(), "coordinator panic must propagate");
        // All four workers held a TaskFn clone; once they exit, only the
        // witness remains. Bounded wait: 5 s.
        let t0 = Instant::now();
        while Arc::strong_count(&witness) > 1 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "workers leaked after coordinator panic (strong_count = {})",
                Arc::strong_count(&witness)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
