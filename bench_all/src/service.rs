//! The benchmark-side Datalog service loop and the phases of a Datalog
//! workload run: set-up, open loop, backlog, oracle.
//!
//! The library has no service loop of its own, so the benchmark owns one,
//! mirroring `StreamPolicy`'s rule that a batch only absorbs updates that
//! have already arrived: wait until the next update is due; `enqueue`
//! every update due by now, at most [`MAX_COALESCE`]; `apply_queue` once;
//! stamp every absorbed update complete when `apply_queue` returns (the
//! epoch is published).

use crate::hostprobe::HostProbe;
use crate::probe::{ProbeSample, SchedProbe};
use crate::spans::{Spans, Track};
use crate::stats::{InputHash, Rng};
use crate::workloads::{
    datalog_input, hash_edits, hash_schedule, program_text, BaseModel, DatalogInput, Queries,
};
use incr_datalog::stratify::stratify;
use incr_datalog::{parse_program, DeltaQueue, FactEdit, IncrementalEngine, ReaderHandle};
use incr_sched::{Scheduler, SchedulerKind};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Most source updates one `apply_queue` absorbs.
pub const MAX_COALESCE: usize = 16;
/// Updates applied during set-up, so lazy index builds are finished.
pub const WARMUP_UPDATES: usize = 20;
/// The scheduler of `dlsched stream --datalog`.
pub const SCHEDULER: SchedulerKind = SchedulerKind::LevelBased;
const READER_THINK: Duration = Duration::from_millis(2);
const SCAN_EVERY: usize = 8;
/// The open loop gives up on a workload that falls this far behind.
const OVERRUN_FACTOR: f64 = 2.0;
/// The open loop samples the host probe this long before an update is
/// due: time for one sample and for the driver to oversleep.
const PROBE_LEAD: Duration = Duration::from_millis(12);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds each part of one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTiming {
    pub generate_ms: f64,
    pub parse_ms: f64,
    pub stratify_ms: f64,
    pub materialize_ms: f64,
    pub sched_build_ms: f64,
    pub warmup_ms: f64,
    pub total_s: f64,
}

/// A workload set up and warmed: engine, scheduler, the edit stream
/// positioned after the warm-up, and the benchmark's model of the base
/// tables.
pub struct Ready {
    pub rules: &'static str,
    pub model: BaseModel,
    pub input: DatalogInput,
    pub engine: IncrementalEngine,
    pub sched: Box<dyn Scheduler + Send>,
    pub hash: InputHash,
    pub timing: SetupTiming,
    pub materialized_tuples: usize,
}

/// Phase 1: generate inputs from the seed, parse, stratify, materialise,
/// build the scheduler, apply the warm-up updates.
pub fn setup(name: &str, seed: u64, warmup: usize) -> Ready {
    let t0 = Instant::now();
    let mut input = datalog_input(name, seed).expect("a Datalog workload");
    let src = program_text(
        input.rules,
        input.facts.iter().map(|(p, a)| (*p, a.as_slice())),
    );
    let model = BaseModel::new(&input.facts);
    let t_gen = Instant::now();
    let program = parse_program(&src).expect("generated program parses");
    let t_parse = Instant::now();
    black_box(stratify(&program).expect("generated program stratifies"));
    let t_strat = Instant::now();
    // Library defaults, so a change that alters a default shows.
    let mut engine = IncrementalEngine::from_program(program).expect("generated program builds");
    let t_mat = Instant::now();
    let mut sched = SCHEDULER.build(engine.dag().clone());
    let t_sched = Instant::now();

    let mut hash = InputHash::new();
    hash.text(&src);
    let materialized_tuples = engine.begin_snapshot().total_facts();
    let mut ready_model = model;
    let mut queue = DeltaQueue::new();
    let t_warm0 = Instant::now();
    for _ in 0..warmup {
        let update = input.stream.next_update();
        engine
            .enqueue(&mut queue, &update)
            .expect("warm-up edit is valid");
        engine
            .apply_queue(sched.as_mut(), &mut queue)
            .expect("warm-up update applies");
        hash_edits(&mut hash, &update);
        ready_model.apply(&update);
    }
    let t_end = Instant::now();
    Ready {
        rules: input.rules,
        model: ready_model,
        input,
        engine,
        sched,
        hash,
        timing: SetupTiming {
            generate_ms: ms(t_gen - t0),
            parse_ms: ms(t_parse - t_gen),
            stratify_ms: ms(t_strat - t_parse),
            materialize_ms: ms(t_mat - t_strat),
            sched_build_ms: ms(t_sched - t_mat),
            warmup_ms: ms(t_end - t_warm0),
            // The hash and the tuple count between scheduler build and
            // warm-up are the benchmark's own work, not set-up.
            total_s: ((t_sched - t0) + (t_end - t_warm0)).as_secs_f64(),
        },
        materialized_tuples,
    }
}

/// The scheduler the service loop drives: bare in untraced runs, behind
/// the timing wrapper in traced ones.
pub enum Sched {
    Bare(Box<dyn Scheduler + Send>),
    Probed(SchedProbe),
}

impl Sched {
    fn as_dyn(&mut self) -> &mut dyn Scheduler {
        match self {
            Sched::Bare(b) => b.as_mut(),
            Sched::Probed(p) => p,
        }
    }

    pub fn precompute_bytes(&self) -> usize {
        match self {
            Sched::Bare(b) => b.precompute_bytes(),
            Sched::Probed(p) => p.precompute_bytes(),
        }
    }

    fn take_sample(&mut self) -> Option<ProbeSample> {
        match self {
            Sched::Bare(_) => None,
            Sched::Probed(p) => Some(p.take()),
        }
    }
}

/// One served batch: from the start of its enqueue to its publish.
pub struct Batch {
    pub from: Instant,
    pub to: Instant,
    pub updates: usize,
}

fn sample(host: &mut Option<&mut HostProbe>) {
    if let Some(host) = host {
        host.sample();
    }
}

/// Sleep until `due`; when there is a host probe and time for it, sample
/// it at the start of the wait and again just before `due`, so that the
/// batches on both sides of the wait have a sample next to them.
fn wait_until(due: Instant, host: &mut Option<&mut HostProbe>) {
    if host.is_some() && Instant::now() + 2 * PROBE_LEAD < due {
        sample(host);
        std::thread::sleep(due.saturating_duration_since(Instant::now() + PROBE_LEAD));
        sample(host);
    }
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
}

/// What one phase of the service loop measured.
#[derive(Default)]
pub struct PhaseStats {
    pub wall: Duration,
    pub batches: Vec<Batch>,
    pub updates: usize,
    pub applies: usize,
    pub failed: usize,
    /// Due time to publish, per source update (open loop only).
    pub sojourn_ms: Vec<f64>,
    /// Due time to the start of its batch's enqueue (open loop only).
    pub queue_wait_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    /// Mean `enqueue` time per update, per batch.
    pub enqueue_us: Vec<f64>,
    pub tasks_executed: usize,
    pub edges_fired: usize,
    pub cost_ops: u64,
    /// How late the driver woke when it had slept until a due time.
    pub wake_lag_us: Vec<f64>,
    pub cancelled_pairs: u64,
    pub deduped: u64,
    // Traced runs only, from the scheduler wrapper:
    pub sched_start_ns: u64,
    pub sched_pop_ns: u64,
    pub sched_complete_ns: u64,
    pub task_ms: Vec<f64>,
    pub task_ns_by_node: Vec<u64>,
    pub space_bytes_peak: usize,
}

impl PhaseStats {
    pub fn updates_per_s(&self) -> f64 {
        self.updates as f64 / self.wall.as_secs_f64()
    }

    pub fn sched_ns(&self) -> u64 {
        self.sched_start_ns + self.sched_pop_ns + self.sched_complete_ns
    }

    /// Each update's sojourn at the reference host speed: multiplied by
    /// what the host probe says of the batch that served it.
    pub fn host_corrected_sojourn_ms(&self, host: &HostProbe) -> Vec<f64> {
        let per_update = self
            .batches
            .iter()
            .flat_map(|b| std::iter::repeat_n(host.correction(b.from, b.to, 1), b.updates));
        self.sojourn_ms
            .iter()
            .zip(per_update)
            .map(|(ms, c)| ms * c)
            .collect()
    }

    /// The time each batch took, ms, at the reference host speed.
    pub fn host_corrected_batch_ms(&self, host: &HostProbe) -> Vec<f64> {
        self.batches
            .iter()
            .map(|b| ms(b.to - b.from) * host.correction(b.from, b.to, 1))
            .collect()
    }

    /// The time each batch took, ms, as measured.
    pub fn batch_ms(&self) -> Vec<f64> {
        self.batches.iter().map(|b| ms(b.to - b.from)).collect()
    }
}

/// How long a backlog pass runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Until this much time has been measured.
    Time(Duration),
    /// Exactly this many batches.
    Batches(usize),
}

pub struct Service {
    pub engine: IncrementalEngine,
    pub sched: Sched,
    queue: DeltaQueue,
    pub spans: Option<Spans>,
    /// Clique label per task node, for span labels.
    pub labels: Vec<String>,
    next_update_id: u64,
}

impl Service {
    pub fn new(engine: IncrementalEngine, sched: Sched, spans: Option<Spans>) -> Service {
        let labels = {
            let db = engine.database();
            let graph = engine.task_graph();
            (0..graph.dag.node_count())
                .map(|i| graph.label(incr_dag::NodeId::from_index(i), &db))
                .collect()
        };
        Service {
            engine,
            sched,
            queue: DeltaQueue::new(),
            spans,
            labels,
            next_update_id: 0,
        }
    }

    /// Enqueue `batch` (at most [`MAX_COALESCE`] updates, all already due),
    /// apply the queue once, and stamp every update complete at the
    /// publish. `dues` carries each update's due time in the open loop.
    pub fn serve_batch(
        &mut self,
        stats: &mut PhaseStats,
        batch: &[Vec<FactEdit>],
        dues: Option<&[Instant]>,
    ) {
        debug_assert!(!batch.is_empty() && batch.len() <= MAX_COALESCE);
        let first_id = self.next_update_id;
        self.next_update_id += batch.len() as u64;
        let t_enq = Instant::now();
        let mut refused = 0;
        for update in batch {
            if let Err(e) = self.engine.enqueue(&mut self.queue, update) {
                eprintln!("enqueue refused: {e}");
                refused += 1;
            }
        }
        let t_apply = Instant::now();
        let result = self
            .engine
            .apply_queue(self.sched.as_dyn(), &mut self.queue);
        let t_done = Instant::now();

        stats.updates += batch.len();
        stats.applies += 1;
        stats.batches.push(Batch {
            from: t_enq,
            to: t_done,
            updates: batch.len(),
        });
        stats.apply_ms.push(ms(t_done - t_apply));
        stats
            .enqueue_us
            .push(us(t_apply - t_enq) / batch.len() as f64);
        match &result {
            Ok(report) => {
                stats.failed += refused;
                stats.tasks_executed += report.tasks_executed;
                stats.edges_fired += report.edges_fired;
                stats.cost_ops += report.sched_cost.total_ops();
            }
            Err(e) => {
                eprintln!("apply_queue failed: {e}");
                stats.failed += batch.len();
            }
        }
        if let Some(dues) = dues {
            for due in dues {
                stats
                    .sojourn_ms
                    .push(ms(t_done.saturating_duration_since(*due)));
                stats
                    .queue_wait_ms
                    .push(ms(t_enq.saturating_duration_since(*due)));
            }
        }
        let Some(sample) = self.sched.take_sample() else {
            return;
        };
        stats.sched_start_ns += sample.start.busy_ns;
        stats.sched_pop_ns += sample.pop.busy_ns;
        stats.sched_complete_ns += sample.complete.busy_ns;
        stats.space_bytes_peak = stats
            .space_bytes_peak
            .max(self.sched.as_dyn().space_bytes());
        if stats.task_ns_by_node.is_empty() {
            stats.task_ns_by_node = vec![0; self.labels.len()];
        }
        for t in &sample.tasks {
            let ns = (t.end - t.start).as_nanos() as u64;
            stats.task_ms.push(ns as f64 / 1e6);
            stats.task_ns_by_node[t.node.index()] += ns;
        }
        self.record_spans(
            first_id,
            (t_enq, t_apply, t_done),
            batch.len(),
            dues,
            &sample,
        );
    }

    /// The spans of one served batch: per update `update` ⊃ `queue_wait`;
    /// on the driver's clock `stream.enqueue` and `engine.apply` ⊃ the
    /// aggregated scheduler calls and one `engine.task` per node.
    fn record_spans(
        &mut self,
        first_id: u64,
        (t_enq, t_apply, t_done): (Instant, Instant, Instant),
        updates: usize,
        dues: Option<&[Instant]>,
        sample: &ProbeSample,
    ) {
        let Some(spans) = self.spans.as_mut() else {
            return;
        };
        let (enq, apply, done) = (spans.ns(t_enq), spans.ns(t_apply), spans.ns(t_done));
        let mut oldest = None;
        for (i, due) in dues.unwrap_or(&[]).iter().enumerate() {
            let id = first_id + i as u64;
            let due = spans.ns(*due).min(enq);
            let update = spans.push("update", "bench", Track::Request, due, done, None, id);
            spans.push(
                "queue_wait",
                "bench",
                Track::Request,
                due,
                enq,
                Some(update),
                id,
            );
            oldest.get_or_insert(update);
        }
        let enqueue = spans.push(
            "stream.enqueue",
            "stream",
            Track::Driver,
            enq,
            apply,
            oldest,
            first_id,
        );
        spans.list[enqueue].calls = updates as u64;
        let parent = spans.push(
            "engine.apply",
            "engine",
            Track::Driver,
            apply,
            done,
            oldest,
            first_id,
        );
        for (name, calls) in [
            ("core.start", sample.start),
            ("core.pop", sample.pop),
            ("core.complete", sample.complete),
        ] {
            if let Some(first) = calls.first {
                let start = spans.ns(first);
                spans.push_aggregate(
                    name,
                    "core",
                    Track::Driver,
                    start,
                    calls.busy_ns,
                    calls.calls,
                    Some(parent),
                    first_id,
                );
            }
        }
        for t in &sample.tasks {
            let (start, end) = (spans.ns(t.start), spans.ns(t.end));
            // A task interval is one clique's maintenance: `incr` time.
            let id = spans.push(
                "engine.task",
                "incr",
                Track::Driver,
                start,
                end,
                Some(parent),
                first_id,
            );
            spans.list[id].label = Some(self.labels[t.node.index()].clone());
        }
    }

    fn idle_span(&mut self, from: Instant, to: Instant) {
        if let Some(spans) = self.spans.as_mut() {
            let (a, b) = (spans.ns(from), spans.ns(to));
            spans.push(
                "idle",
                "bench",
                Track::Driver,
                a,
                b,
                None,
                self.next_update_id,
            );
        }
    }

    fn queue_counters(&self) -> (u64, u64) {
        (self.queue.cancelled_pairs(), self.queue.deduped())
    }

    /// Phase 2: serve `updates`, update `i` arriving `due[i]` after the
    /// phase starts. Every update is timed from its due time. `host` is
    /// sampled while the driver waits.
    pub fn open_loop(
        &mut self,
        updates: &[Vec<FactEdit>],
        due: &[Duration],
        mut host: Option<&mut HostProbe>,
    ) -> PhaseStats {
        assert_eq!(updates.len(), due.len());
        let mut stats = PhaseStats::default();
        let (cancelled0, deduped0) = self.queue_counters();
        let horizon = due.last().copied().unwrap_or_default();
        let give_up = horizon.mul_f64(OVERRUN_FACTOR) + Duration::from_secs(1);
        sample(&mut host);
        let t0 = Instant::now();
        let mut next = 0;
        let mut dues = Vec::with_capacity(MAX_COALESCE);
        while next < updates.len() {
            let due_next = t0 + due[next];
            let before = Instant::now();
            if before < due_next {
                wait_until(due_next, &mut host);
                let woke = Instant::now();
                stats
                    .wake_lag_us
                    .push(us(woke.saturating_duration_since(due_next)));
                self.idle_span(before, woke);
            } else if before - t0 > give_up {
                eprintln!(
                    "open loop fell behind: {} updates never served",
                    updates.len() - next
                );
                stats.updates += updates.len() - next;
                stats.failed += updates.len() - next;
                break;
            }
            let now = Instant::now();
            dues.clear();
            while next + dues.len() < updates.len()
                && dues.len() < MAX_COALESCE
                && t0 + due[next + dues.len()] <= now
            {
                dues.push(t0 + due[next + dues.len()]);
            }
            self.serve_batch(&mut stats, &updates[next..next + dues.len()], Some(&dues));
            next += dues.len();
        }
        stats.wall = t0.elapsed();
        sample(&mut host);
        let (cancelled, deduped) = self.queue_counters();
        stats.cancelled_pairs = cancelled - cancelled0;
        stats.deduped = deduped - deduped0;
        stats
    }

    /// Phase 3: an endless stream, all of it due at the start, drained by
    /// the same loop for `budget`. The clock stops while the next batch is
    /// generated and folded into `model` and the host probe is sampled.
    /// Adds to `stats`, so a pass can run in slices.
    pub fn backlog(
        &mut self,
        stats: &mut PhaseStats,
        input: &mut DatalogInput,
        model: &mut BaseModel,
        budget: Budget,
        mut host: Option<&mut HostProbe>,
    ) {
        let (cancelled0, deduped0) = self.queue_counters();
        let mut measured = Duration::ZERO;
        let mut served = 0;
        while match budget {
            Budget::Time(d) => measured < d,
            Budget::Batches(n) => served < n,
        } {
            let batch: Vec<Vec<FactEdit>> = (0..MAX_COALESCE)
                .map(|_| input.stream.next_update())
                .collect();
            for update in &batch {
                model.apply(update);
            }
            sample(&mut host);
            let t = Instant::now();
            self.serve_batch(stats, &batch, None);
            measured += t.elapsed();
            served += 1;
        }
        sample(&mut host);
        stats.wall += measured;
        let (cancelled, deduped) = self.queue_counters();
        stats.cancelled_pairs += cancelled - cancelled0;
        stats.deduped += deduped - deduped0;
    }
}

/// What the snapshot reader beside the writer measured, microseconds.
#[derive(Default)]
pub struct ReadStats {
    pub read_us: Vec<f64>,
    pub open_us: Vec<f64>,
    pub point_us: Vec<f64>,
    pub scan_us: Vec<f64>,
    pub failed: usize,
}

fn scan_pred(pattern: &str) -> &str {
    pattern.split('(').next().unwrap_or(pattern).trim()
}

/// Is every argument of `pattern` a `?` wildcard?
fn scan_is_whole_relation(pattern: &str) -> bool {
    let args = pattern
        .split_once('(')
        .map_or("", |(_, rest)| rest.trim_end().trim_end_matches(')'));
    args.split(',').all(|a| a.trim() == "?")
}

/// One read: open a snapshot, one point lookup, and on every
/// [`SCAN_EVERY`]th read a pattern scan, checked against the snapshot's
/// own cardinality.
fn one_read(handle: &ReaderHandle, queries: &Queries, k: usize, stats: &mut ReadStats) {
    let args = (queries.point_args)(k);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let t0 = Instant::now();
    let snap = handle.snapshot();
    let t1 = Instant::now();
    black_box(snap.has(queries.point_pred, &args));
    let t2 = Instant::now();
    stats.open_us.push(us(t1 - t0));
    stats.point_us.push(us(t2 - t1));
    let mut end = t2;
    if k % SCAN_EVERY == SCAN_EVERY - 1 {
        let rows = snap.query(queries.scan_pattern);
        end = Instant::now();
        stats.scan_us.push(us(end - t2));
        // Outside the timed read: an all-wildcard scan and the cardinality
        // must both see the pinned epoch.
        let whole_relation = scan_is_whole_relation(queries.scan_pattern);
        match rows {
            Ok(rows)
                if !whole_relation || rows.len() == snap.count(scan_pred(queries.scan_pattern)) => {
            }
            Ok(rows) => {
                eprintln!(
                    "scan returned {} rows, the snapshot holds another count",
                    rows.len()
                );
                stats.failed += 1;
            }
            Err(e) => {
                eprintln!("scan failed: {e}");
                stats.failed += 1;
            }
        }
    }
    stats.read_us.push(us(end - t0));
}

/// The closed-loop reader: read, think 2 ms, until told to stop.
pub fn reader_loop(handle: ReaderHandle, queries: Queries, stop: &AtomicBool) -> ReadStats {
    let mut stats = ReadStats::default();
    let mut k = 0;
    while !stop.load(Ordering::Relaxed) {
        one_read(&handle, &queries, k, &mut stats);
        k += 1;
        std::thread::sleep(READER_THINK);
    }
    stats
}

/// `n` reads with no writer running.
pub fn quiet_reads(handle: ReaderHandle, queries: Queries, n: usize) -> ReadStats {
    let mut stats = ReadStats::default();
    for k in 0..n {
        one_read(&handle, &queries, k, &mut stats);
    }
    stats
}

/// Compare two database images line by line.
pub fn images_match(maintained: &[String], fresh: &[String]) -> Result<(), String> {
    if maintained == fresh {
        return Ok(());
    }
    let first = maintained
        .iter()
        .zip(fresh)
        .position(|(a, b)| a != b)
        .unwrap_or(maintained.len().min(fresh.len()));
    Err(format!(
        "maintained image has {} facts, from-scratch {}; first difference at line {first}: {:?} vs {:?}",
        maintained.len(),
        fresh.len(),
        maintained.get(first),
        fresh.get(first)
    ))
}

pub struct Oracle {
    pub verdict: Result<(), String>,
    pub rematerialize_ms: f64,
    pub fresh: IncrementalEngine,
}

/// Phase 4: rebuild a fresh engine from the rules and the benchmark's own
/// model of the base facts, and compare the two published images
/// byte for byte: eval(db ⊕ Δ) = eval(db) ⊕ maintain(db, Δ).
pub fn oracle(rules: &str, model: &BaseModel, engine: &IncrementalEngine) -> Oracle {
    let program = parse_program(&model.program(rules)).expect("model program parses");
    let t = Instant::now();
    let fresh = IncrementalEngine::from_program(program).expect("model program builds");
    let rematerialize_ms = ms(t.elapsed());
    let verdict = images_match(
        &engine.begin_snapshot().image(),
        &fresh.begin_snapshot().image(),
    );
    Oracle {
        verdict,
        rematerialize_ms,
        fresh,
    }
}

/// The open loop's inputs: the arrival schedule and one update per
/// arrival, both folded into the input hash and the model.
pub fn open_loop_inputs(
    ready: &mut Ready,
    seed: u64,
    horizon: Duration,
) -> (Vec<Vec<FactEdit>>, Vec<Duration>) {
    let mut rng = Rng::new(seed ^ 0x5c4e_d01e);
    let due = ready.input.arrivals.schedule(&mut rng, horizon);
    hash_schedule(&mut ready.hash, &due);
    let updates: Vec<Vec<FactEdit>> = due
        .iter()
        .map(|_| ready.input.stream.next_update())
        .collect();
    for update in &updates {
        hash_edits(&mut ready.hash, update);
        ready.model.apply(update);
    }
    (updates, due)
}

/// Run `f` with a snapshot reader beside it when the workload has one and
/// the host a core for it.
pub fn with_reader<T>(
    handle: ReaderHandle,
    queries: Queries,
    enabled: bool,
    f: impl FnOnce() -> T,
) -> (T, Option<ReadStats>) {
    if !enabled {
        return (f(), None);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(handle, queries, &stop));
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader thread panicked");
        (out, Some(reads))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_passes_on_a_maintained_engine_and_fires_on_a_wrong_image() {
        let mut ready = setup("tc_churn", 3, 4);
        let o = oracle(ready.rules, &ready.model, &ready.engine);
        assert!(o.verdict.is_ok(), "{:?}", o.verdict);

        // A deliberately wrong image: one derived fact dropped.
        let good = ready.engine.begin_snapshot().image();
        let mut wrong = good.clone();
        let dropped = wrong
            .iter()
            .position(|line| line.starts_with("path("))
            .expect("some path holds");
        wrong.remove(dropped);
        assert!(images_match(&wrong, &good).is_err());
        assert!(images_match(&good, &good).is_ok());

        // A model the engine never saw: the oracle must notice.
        ready.model.apply(&[FactEdit::add("edge", &["n0", "zz"])]);
        assert!(oracle(ready.rules, &ready.model, &ready.engine)
            .verdict
            .is_err());
    }

    #[test]
    fn open_loop_times_from_due_and_coalesces_only_what_arrived() {
        let mut ready = setup("tc_churn", 1, 2);
        // Four updates due at once, then one alone 30 ms later.
        let due: Vec<Duration> = [0, 0, 0, 0, 30].map(Duration::from_millis).to_vec();
        let updates: Vec<Vec<FactEdit>> = due
            .iter()
            .map(|_| ready.input.stream.next_update())
            .collect();
        for u in &updates {
            ready.model.apply(u);
        }
        let mut service = Service::new(ready.engine, Sched::Bare(ready.sched), None);
        let stats = service.open_loop(&updates, &due, None);
        assert_eq!(stats.updates, 5);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.sojourn_ms.len(), 5);
        assert!(
            stats.applies >= 2 && stats.applies <= 5,
            "applies {}",
            stats.applies
        );
        assert!(stats.sojourn_ms.iter().all(|&s| s > 0.0));
        assert!(oracle(ready.rules, &ready.model, &service.engine)
            .verdict
            .is_ok());
    }

    #[test]
    fn host_correction_goes_batch_by_batch() {
        use crate::hostprobe::REFERENCE_MS;
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The probe ran at the reference speed around the first batch and
        // at half of it around the second.
        let host = HostProbe::with_samples(vec![
            (at(0), REFERENCE_MS),
            (at(20), REFERENCE_MS),
            (at(30), 2.0 * REFERENCE_MS),
            (at(50), 2.0 * REFERENCE_MS),
        ]);
        let batch = |from, to, updates| Batch {
            from: at(from),
            to: at(to),
            updates,
        };
        let stats = PhaseStats {
            batches: vec![batch(5, 15, 2), batch(35, 45, 1)],
            sojourn_ms: vec![12.0, 11.0, 10.0],
            ..PhaseStats::default()
        };
        assert_eq!(stats.batch_ms(), vec![10.0, 10.0]);
        assert_eq!(stats.host_corrected_batch_ms(&host), vec![10.0, 5.0]);
        assert_eq!(
            stats.host_corrected_sojourn_ms(&host),
            vec![12.0, 11.0, 5.0]
        );
    }

    #[test]
    fn traced_service_records_a_budget_that_covers_the_wall() {
        let mut ready = setup("tc_churn", 2, 2);
        let origin = Instant::now();
        let probe = SchedProbe::new(ready.sched);
        let mut service =
            Service::new(ready.engine, Sched::Probed(probe), Some(Spans::new(origin)));
        let mut stats = PhaseStats::default();
        service.backlog(
            &mut stats,
            &mut ready.input,
            &mut ready.model,
            Budget::Time(Duration::from_millis(200)),
            None,
        );
        assert!(stats.applies >= 1);
        assert!(!stats.task_ms.is_empty());
        let spans = service.spans.as_ref().unwrap();
        let covered: u64 = spans.layer_budget().values().sum();
        let wall = stats.wall.as_nanos() as f64;
        assert!(
            (covered as f64 - wall).abs() / wall < 0.05,
            "covered {covered} of {wall}"
        );
        assert!(oracle(ready.rules, &ready.model, &service.engine)
            .verdict
            .is_ok());
    }
}
