//! Always-on flight recorder: fixed-capacity per-thread ring buffers of
//! recent events, dumped to a Perfetto-loadable "black box" file when the
//! executor fails.
//!
//! Unlike [`crate::trace`] — which is off by default, unbounded up to a
//! large cap, and records rich string events — the flight recorder is
//! *on* by default and designed to cost a few relaxed atomic stores per
//! event with no allocation on the hot path:
//!
//! * Events are identified by a compact [`FlightCode`] (a `u16` indexing
//!   a static name/category table), not by strings.
//! * Each thread writes into its own [`RING_CAPACITY`]-slot ring; a slot
//!   is five `u64` words guarded by a seqlock word, so writers never
//!   block and readers (the dump path) detect torn slots and skip them.
//! * Rings are recycled: when a thread exits its ring returns to a free
//!   pool *without being cleared*, so a post-mortem dump still sees the
//!   last events of recently-joined worker threads, and the total ring
//!   count stays bounded by the peak thread concurrency, not by the
//!   number of threads ever spawned.
//!
//! The dump ([`dump_to_dir`]) emits only self-contained Chrome phases
//! (`X`/`i`/`C`) — never `B`/`E` pairs — so a wrapped or torn ring can
//! never produce a structurally invalid trace. Dump files rotate modulo
//! [`DUMP_ROTATION`] per error label, bounding disk use under repeated
//! failures (e.g. the chaos harness).

use crate::json::{obj, Json};
use crate::trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Events retained per thread lane (power of two).
pub const RING_CAPACITY: usize = 1 << 12;

/// Chrome pid under which flight-recorder lanes are exported (real-time
/// traces use pids 1 and 2; keeping 3 distinct lets a dump be stitched
/// alongside a full trace without track collisions).
pub const FLIGHT_PID: u64 = 3;

/// Dumps keep only events whose timestamp falls within this trailing
/// window — the "recent history" a black box is for. Without it, a
/// long-lived process would serialize every lane at full capacity on
/// each of hundreds of chaos-induced errors.
pub const DUMP_WINDOW_US: f64 = 5_000_000.0;

/// Dump files rotate modulo this count (per error label).
pub const DUMP_ROTATION: u64 = 8;

/// Compact event identity. Adding a code: extend the enum, [`CODES`],
/// and the `name`/`cat`/`arg_name` tables below (kept in one place so
/// they cannot drift).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum FlightCode {
    /// One incremental update driven through the executor.
    UpdateRun = 0,
    /// A scheduler batch pop on the coordinator.
    PopBatch = 1,
    /// Validation + journal + scheduler completion for a wavefront.
    Commit = 2,
    /// Coordinator blocked waiting for worker completions.
    CoordWait = 3,
    /// A worker executing one chunk of tasks.
    ChunkRun = 4,
    /// A task attempt failed and will be retried.
    TaskRetry = 5,
    /// A task exhausted its retry budget.
    TaskFail = 6,
    /// The executor is about to return an `ExecError`.
    ExecError = 7,
    /// Executor queue depth (chunks queued to workers).
    QueueDepth = 8,
    /// Tasks in flight (popped, not yet committed).
    InFlight = 9,
    /// DRed phase 1: prove or delete.
    DredOverdelete = 10,
    /// DRed phase 2: insertion.
    DredInsert = 11,
    /// Journal replay resumed a partially-committed update.
    JournalReplay = 12,
    /// One shard's participation in one cross-shard exchange round.
    ShardRound = 13,
    /// A sharded batch aborted and rolled back on every shard.
    ShardAbort = 14,
    /// An aggregate clique maintained from its input deltas, group by group.
    AggMaintain = 15,
}

/// All codes, indexable by discriminant — the decode table for slots.
const CODES: [FlightCode; 16] = [
    FlightCode::UpdateRun,
    FlightCode::PopBatch,
    FlightCode::Commit,
    FlightCode::CoordWait,
    FlightCode::ChunkRun,
    FlightCode::TaskRetry,
    FlightCode::TaskFail,
    FlightCode::ExecError,
    FlightCode::QueueDepth,
    FlightCode::InFlight,
    FlightCode::DredOverdelete,
    FlightCode::DredInsert,
    FlightCode::JournalReplay,
    FlightCode::ShardRound,
    FlightCode::ShardAbort,
    FlightCode::AggMaintain,
];

impl FlightCode {
    fn from_u16(v: u16) -> Option<FlightCode> {
        CODES.get(v as usize).copied()
    }

    /// Event name as it appears in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightCode::UpdateRun => "exec.update",
            FlightCode::PopBatch => "sched.pop_batch",
            FlightCode::Commit => "exec.commit",
            FlightCode::CoordWait => "exec.wait_completion",
            FlightCode::ChunkRun => "exec.chunk",
            FlightCode::TaskRetry => "exec.retry",
            FlightCode::TaskFail => "exec.task_failure",
            FlightCode::ExecError => "exec.error",
            FlightCode::QueueDepth => "exec.queue_depth",
            FlightCode::InFlight => "exec.in_flight",
            FlightCode::DredOverdelete => "dred.overdelete",
            FlightCode::DredInsert => "dred.insert",
            FlightCode::JournalReplay => "exec.journal_replay",
            FlightCode::ShardRound => "shard.round",
            FlightCode::ShardAbort => "shard.abort",
            FlightCode::AggMaintain => "agg.maintain",
        }
    }

    /// Chrome category.
    pub fn cat(self) -> &'static str {
        match self {
            FlightCode::PopBatch => "sched",
            FlightCode::DredOverdelete | FlightCode::DredInsert | FlightCode::AggMaintain => {
                "datalog"
            }
            FlightCode::ShardRound | FlightCode::ShardAbort => "shard",
            _ => "exec",
        }
    }

    /// Label for the event's integer argument in dumps.
    pub fn arg_name(self) -> &'static str {
        match self {
            FlightCode::UpdateRun => "executed",
            FlightCode::PopBatch => "popped",
            FlightCode::Commit => "completions",
            FlightCode::CoordWait => "in_flight",
            FlightCode::ChunkRun => "tasks",
            FlightCode::TaskRetry | FlightCode::TaskFail => "node",
            FlightCode::ExecError => "kind",
            FlightCode::DredOverdelete => "overdeleted",
            FlightCode::DredInsert => "inserted",
            FlightCode::JournalReplay => "replayed",
            FlightCode::ShardRound => "round",
            FlightCode::ShardAbort => "shard",
            FlightCode::AggMaintain => "groups_changed",
            _ => "value",
        }
    }
}

/// How an event was recorded — decides its Chrome phase on export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// Self-contained span (`X`): `dv` is the duration in µs.
    Span = 0,
    /// Point event (`i`).
    Instant = 1,
    /// Numeric series sample (`C`): `dv` is the value.
    Counter = 2,
}

/// One slot: a seqlock word plus four payload words. The writer marks
/// the slot in-progress (`seq = u64::MAX`), stores the payload with
/// relaxed ordering, then publishes `seq = index + 1` with release;
/// readers accept a slot only if `seq` reads `index + 1` both before and
/// after the payload loads. Decode is additionally defensive (bounds
/// checks, duration clamping), so even an undetected torn read cannot
/// corrupt a dump structurally.
struct Slot {
    seq: AtomicU64,
    meta: AtomicU64,
    ts: AtomicU64,
    dv: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            dv: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

thread_local! {
    /// The shard this thread is working for: 0 = unsharded/none,
    /// 1..=N = shard `id - 1` of a sharded runtime. Stored in each
    /// event's meta word so per-shard attribution survives lane
    /// recycling (a ring may serve different shards over its lifetime).
    static SHARD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Tag this thread's subsequent flight events with a shard id
/// (`shard_index + 1`; 0 means unsharded). Sharded runtimes call this
/// at the top of each shard worker.
pub fn set_shard(shard: u64) {
    SHARD.with(|s| s.set(shard));
}

/// The current thread's shard tag (0 = unsharded).
pub fn current_shard() -> u64 {
    SHARD.try_with(std::cell::Cell::get).unwrap_or(0)
}

/// A per-thread event ring. Exactly one live thread writes at a time
/// (enforced by ownership through the thread-local handle); any thread
/// may read concurrently via the seqlock.
pub struct FlightRing {
    lane: u64,
    name: Mutex<Option<String>>,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRing {
    fn new(lane: u64) -> FlightRing {
        FlightRing {
            lane,
            name: Mutex::new(None),
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
        }
    }

    fn write(&self, kind: FlightKind, code: FlightCode, ts_us: f64, dv: f64, arg: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAPACITY - 1)];
        slot.seq.store(u64::MAX, Ordering::Release);
        // Meta packs code (16 bits), kind (8), and shard tag (40).
        slot.meta.store(
            code as u64 | ((kind as u64) << 16) | (current_shard() << 24),
            Ordering::Relaxed,
        );
        slot.ts.store(ts_us.to_bits(), Ordering::Relaxed);
        slot.dv.store(dv.to_bits(), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.seq.store(h + 1, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }
}

struct FlightCollector {
    rings: Mutex<Vec<Arc<FlightRing>>>,
    free: Mutex<Vec<Arc<FlightRing>>>,
    next_lane: AtomicU64,
    dump_seq: AtomicU64,
    last_dump: Mutex<Option<PathBuf>>,
}

/// On by default: the whole point of a flight recorder is that it is
/// already running when something goes wrong.
static ENABLED: AtomicBool = AtomicBool::new(true);

fn collector() -> &'static FlightCollector {
    static COLLECTOR: OnceLock<FlightCollector> = OnceLock::new();
    COLLECTOR.get_or_init(|| FlightCollector {
        rings: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
        next_lane: AtomicU64::new(1),
        dump_seq: AtomicU64::new(0),
        last_dump: Mutex::new(None),
    })
}

/// Returns the thread's ring to the free pool on thread exit — without
/// clearing it, so its tail of events stays visible to later dumps.
struct LaneHandle {
    ring: Arc<FlightRing>,
}

impl Drop for LaneHandle {
    fn drop(&mut self) {
        collector().free.lock().unwrap_or_else(PoisonError::into_inner).push(self.ring.clone());
    }
}

thread_local! {
    static LOCAL_RING: std::cell::RefCell<Option<LaneHandle>> =
        const { std::cell::RefCell::new(None) };
}

fn acquire_ring() -> Arc<FlightRing> {
    let c = collector();
    if let Some(ring) = c.free.lock().unwrap_or_else(PoisonError::into_inner).pop() {
        return ring;
    }
    let ring = Arc::new(FlightRing::new(c.next_lane.fetch_add(1, Ordering::Relaxed)));
    c.rings.lock().unwrap_or_else(PoisonError::into_inner).push(ring.clone());
    ring
}

fn with_ring(f: impl FnOnce(&FlightRing)) {
    // try_with: during thread teardown another destructor may still emit
    // events; dropping them beats panicking.
    let _ = LOCAL_RING.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let lane = slot.get_or_insert_with(|| LaneHandle {
            ring: acquire_ring(),
        });
        f(&lane.ring);
    });
}

/// Is the recorder on? Emit sites check this single relaxed load first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggle recording (A/B overhead benches; normally left on).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

#[inline]
fn record(kind: FlightKind, code: FlightCode, ts_us: f64, dv: f64, arg: u64) {
    if !enabled() {
        return;
    }
    with_ring(|ring| ring.write(kind, code, ts_us, dv, arg));
}

/// Record a point event.
#[inline]
pub fn instant(code: FlightCode, arg: u64) {
    record(FlightKind::Instant, code, trace::now_us(), 0.0, arg);
}

/// Sample a numeric series.
#[inline]
pub fn counter(code: FlightCode, value: f64) {
    record(FlightKind::Counter, code, trace::now_us(), value, 0);
}

/// Record a self-contained span with explicit start and duration.
#[inline]
pub fn complete(code: FlightCode, start_us: f64, dur_us: f64, arg: u64) {
    record(FlightKind::Span, code, start_us, dur_us, arg);
}

/// RAII span: records one complete event on drop. Inert when the
/// recorder is off at construction.
pub struct FlightSpan {
    code: FlightCode,
    start_us: f64,
    arg: u64,
    live: bool,
}

impl FlightSpan {
    /// Attach/overwrite the integer argument before the span closes.
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for FlightSpan {
    fn drop(&mut self) {
        if self.live {
            let now = trace::now_us();
            record(
                FlightKind::Span,
                self.code,
                self.start_us,
                (now - self.start_us).max(0.0),
                self.arg,
            );
        }
    }
}

/// Open a flight span; closes (records) when the guard drops.
#[inline]
pub fn span(code: FlightCode) -> FlightSpan {
    span_arg(code, 0)
}

/// Open a flight span with an initial argument.
#[inline]
pub fn span_arg(code: FlightCode, arg: u64) -> FlightSpan {
    if !enabled() {
        return FlightSpan {
            code,
            start_us: 0.0,
            arg,
            live: false,
        };
    }
    FlightSpan {
        code,
        start_us: trace::now_us(),
        arg,
        live: true,
    }
}

/// Name the current thread's lane in dumps (idempotent; latest wins —
/// recycled lanes take the name of their newest owner).
pub fn set_thread_name(name: &str) {
    with_ring(|ring| {
        *ring.name.lock().unwrap_or_else(PoisonError::into_inner) = Some(name.to_string());
    });
}

/// One decoded event from a lane snapshot.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    pub code: FlightCode,
    pub kind: FlightKind,
    pub ts_us: f64,
    /// Duration (spans) or sample value (counters), µs / unitless.
    pub dv: f64,
    pub arg: u64,
    /// Shard tag the recording thread carried (0 = unsharded,
    /// `s + 1` = shard `s`). See [`set_shard`].
    pub shard: u64,
}

/// A lane's decoded recent history.
#[derive(Clone, Debug)]
pub struct FlightLane {
    pub lane: u64,
    pub name: Option<String>,
    pub events: Vec<FlightEvent>,
    /// Events lost to ring wraparound (total written minus capacity).
    pub overwritten: u64,
    /// Slots skipped because a concurrent writer tore them.
    pub torn: u64,
}

/// Snapshot every lane's retained events (non-destructive; writers keep
/// going). Torn slots are skipped and counted, never misread.
pub fn snapshot() -> Vec<FlightLane> {
    let rings: Vec<Arc<FlightRing>> = collector().rings.lock().unwrap_or_else(PoisonError::into_inner).clone();
    rings
        .iter()
        .map(|ring| {
            let head = ring.head.load(Ordering::Acquire);
            let start = head.saturating_sub(RING_CAPACITY as u64);
            let mut events = Vec::with_capacity((head - start) as usize);
            let mut torn = 0u64;
            for i in start..head {
                let slot = &ring.slots[(i as usize) & (RING_CAPACITY - 1)];
                if slot.seq.load(Ordering::Acquire) != i + 1 {
                    torn += 1;
                    continue;
                }
                let meta = slot.meta.load(Ordering::Relaxed);
                let ts = f64::from_bits(slot.ts.load(Ordering::Relaxed));
                let dv = f64::from_bits(slot.dv.load(Ordering::Relaxed));
                let arg = slot.arg.load(Ordering::Relaxed);
                if slot.seq.load(Ordering::Acquire) != i + 1 {
                    torn += 1;
                    continue;
                }
                let Some(code) = FlightCode::from_u16(meta as u16) else {
                    torn += 1;
                    continue;
                };
                let kind = match (meta >> 16) & 0xff {
                    0 => FlightKind::Span,
                    1 => FlightKind::Instant,
                    2 => FlightKind::Counter,
                    _ => {
                        torn += 1;
                        continue;
                    }
                };
                if !ts.is_finite() || !dv.is_finite() {
                    torn += 1;
                    continue;
                }
                events.push(FlightEvent {
                    code,
                    kind,
                    ts_us: ts,
                    dv,
                    arg,
                    shard: meta >> 24,
                });
            }
            FlightLane {
                lane: ring.lane,
                name: ring.name.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                events,
                overwritten: head.saturating_sub(RING_CAPACITY as u64),
                torn,
            }
        })
        .collect()
}

/// Reset all lanes (test isolation). Only safe when no other thread is
/// actively recording — callers serialize around it.
pub fn clear() {
    for ring in collector().rings.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        ring.head.store(0, Ordering::Release);
        for slot in ring.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

fn flight_event_json(e: &FlightEvent, lane: u64) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("name".into(), Json::Str(e.code.name().into())),
        ("cat".into(), Json::Str(e.code.cat().into())),
        (
            "ph".into(),
            Json::Str(
                match e.kind {
                    FlightKind::Span => "X",
                    FlightKind::Instant => "i",
                    FlightKind::Counter => "C",
                }
                .into(),
            ),
        ),
        ("ts".into(), Json::Num(e.ts_us)),
        ("pid".into(), FLIGHT_PID.into()),
        ("tid".into(), lane.into()),
    ];
    let with_shard = |mut args: Vec<(String, Json)>| {
        if e.shard != 0 {
            args.push(("shard".into(), ((e.shard - 1) as f64).into()));
        }
        Json::Obj(args)
    };
    match e.kind {
        FlightKind::Span => {
            fields.push(("dur".into(), Json::Num(e.dv.max(0.0))));
            fields.push((
                "args".into(),
                with_shard(vec![(e.code.arg_name().into(), (e.arg as f64).into())]),
            ));
        }
        FlightKind::Instant => {
            fields.push(("s".into(), Json::Str("t".into())));
            fields.push((
                "args".into(),
                with_shard(vec![(e.code.arg_name().into(), (e.arg as f64).into())]),
            ));
        }
        FlightKind::Counter => {
            fields.push((
                "args".into(),
                with_shard(vec![("value".into(), Json::Num(e.dv))]),
            ));
        }
    }
    Json::Obj(fields)
}

/// Build the black-box Chrome trace document: one process ("flight
/// recorder"), one thread per lane, plus a `flight.context` instant
/// carrying the caller's context (error text, `ExecSnapshot` fields, …).
/// Only `X`/`i`/`C` phases are emitted, so the document is structurally
/// valid regardless of ring wraparound or torn slots.
pub fn chrome_dump(lanes: &[FlightLane], context: &[(&'static str, Json)]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(obj([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", FLIGHT_PID.into()),
        ("tid", 0u64.into()),
        ("args", obj([("name", "flight recorder".into())])),
    ]));
    let mut dropped_total = 0u64;
    for lane in lanes {
        if lane.events.is_empty() {
            continue;
        }
        let label = match &lane.name {
            Some(n) => format!("lane {}: {}", lane.lane, n),
            None => format!("lane {}", lane.lane),
        };
        events.push(obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", FLIGHT_PID.into()),
            ("tid", lane.lane.into()),
            ("args", obj([("name", label.into())])),
        ]));
        dropped_total += lane.overwritten + lane.torn;
        for e in &lane.events {
            events.push(flight_event_json(e, lane.lane));
        }
    }
    let ts = lanes
        .iter()
        .flat_map(|l| l.events.iter())
        .map(|e| e.ts_us + e.dv.max(0.0))
        .fold(0.0f64, f64::max);
    let mut ctx_args: Vec<(String, Json)> = context
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    ctx_args.push(("events_lost".into(), dropped_total.into()));
    events.push(Json::Obj(vec![
        ("name".into(), Json::Str("flight.context".into())),
        ("cat".into(), Json::Str("flight".into())),
        ("ph".into(), Json::Str("i".into())),
        ("ts".into(), Json::Num(ts)),
        ("pid".into(), FLIGHT_PID.into()),
        ("tid".into(), 0u64.into()),
        ("s".into(), Json::Str("g".into())),
        ("args".into(), Json::Obj(ctx_args.clone())),
    ]));
    obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".into()),
        ("flight", Json::Obj(ctx_args)),
    ])
}

/// Snapshot all lanes, keep the trailing [`DUMP_WINDOW_US`] of events,
/// and write a rotated black-box file `blackbox-<label>-<seq%N>` into
/// `dir`. Returns the written path; IO failures are the caller's to
/// count (the executor must never fail an update because a dump did).
pub fn dump_to_dir(
    dir: &Path,
    label: &str,
    context: &[(&'static str, Json)],
) -> std::io::Result<PathBuf> {
    let cutoff = trace::now_us() - DUMP_WINDOW_US;
    let mut lanes = snapshot();
    for lane in &mut lanes {
        lane.events.retain(|e| e.ts_us + e.dv.max(0.0) >= cutoff);
    }
    let doc = chrome_dump(&lanes, context);
    std::fs::create_dir_all(dir)?;
    let seq = collector().dump_seq.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "blackbox-{label}-{}.trace.json",
        seq % DUMP_ROTATION
    ));
    std::fs::write(&path, doc.to_json())?;
    *collector().last_dump.lock().unwrap_or_else(PoisonError::into_inner) = Some(path.clone());
    Ok(path)
}

/// Where black boxes land unless a caller says otherwise: the
/// `INCR_BLACKBOX_DIR` environment variable if set (empty, `0` or `off`
/// disables dumping), else `results/blackbox`.
pub fn default_black_box_dir() -> Option<PathBuf> {
    match std::env::var("INCR_BLACKBOX_DIR") {
        Ok(v) if v.is_empty() || v == "0" || v == "off" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => Some(PathBuf::from("results/blackbox")),
    }
}

/// Dump a black box into `dir` because an error of `kind` is about to
/// surface; `ctx` builds the dump's context record and runs only if a
/// dump is written — not without a directory, not with the recorder
/// off. Best-effort by design: the dump must never turn a typed error
/// into a second failure, so IO problems are only counted
/// (`obs.flight.dump_errors`, against `obs.flight.dumps`).
pub fn black_box(
    dir: Option<&Path>,
    kind: &str,
    ctx: impl FnOnce() -> Vec<(&'static str, Json)>,
) {
    let Some(dir) = dir else {
        return;
    };
    if !enabled() {
        return;
    }
    let reg = crate::registry();
    match dump_to_dir(dir, kind, &ctx()) {
        Ok(_) => reg.counter("obs.flight.dumps").inc(),
        Err(_) => reg.counter("obs.flight.dump_errors").inc(),
    }
}

/// Best-effort text of a panic payload (`&str` / `String`, else opaque).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Path of the most recent successful dump, if any (test hook).
pub fn last_dump() -> Option<PathBuf> {
    collector().last_dump.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_chrome_trace;

    // The recorder is process-global; serialize mutating tests.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn my_lane_events(name: &str) -> Vec<FlightEvent> {
        snapshot()
            .into_iter()
            .filter(|l| l.name.as_deref() == Some(name))
            .flat_map(|l| l.events)
            .collect()
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        clear();
        set_enabled(false);
        set_thread_name("flight-disabled");
        instant(FlightCode::PopBatch, 1);
        counter(FlightCode::QueueDepth, 3.0);
        drop(span(FlightCode::ChunkRun));
        set_enabled(true);
        assert!(my_lane_events("flight-disabled").is_empty());
    }

    #[test]
    fn span_instant_counter_roundtrip() {
        let _g = serial();
        clear();
        set_enabled(true);
        set_thread_name("flight-rt");
        {
            let mut s = span_arg(FlightCode::ChunkRun, 0);
            s.set_arg(9);
        }
        instant(FlightCode::TaskFail, 42);
        counter(FlightCode::InFlight, 7.5);
        let events = my_lane_events("flight-rt");
        assert_eq!(events.len(), 3);
        let chunk = events
            .iter()
            .find(|e| e.code == FlightCode::ChunkRun)
            .unwrap();
        assert_eq!(chunk.kind, FlightKind::Span);
        assert_eq!(chunk.arg, 9);
        assert!(chunk.dv >= 0.0);
        let fail = events
            .iter()
            .find(|e| e.code == FlightCode::TaskFail)
            .unwrap();
        assert_eq!(fail.arg, 42);
        let inflight = events
            .iter()
            .find(|e| e.code == FlightCode::InFlight)
            .unwrap();
        assert_eq!(inflight.dv, 7.5);
        // Per-lane order is chronological.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn wraparound_keeps_last_capacity_and_counts_loss() {
        let _g = serial();
        clear();
        set_enabled(true);
        set_thread_name("flight-wrap");
        let extra = 100;
        for i in 0..(RING_CAPACITY + extra) {
            instant(FlightCode::PopBatch, i as u64);
        }
        let lane = snapshot()
            .into_iter()
            .find(|l| l.name.as_deref() == Some("flight-wrap"))
            .unwrap();
        assert!(lane.events.len() <= RING_CAPACITY);
        assert!(lane.overwritten >= extra as u64);
        // The survivors are the *newest* events.
        assert_eq!(
            lane.events.last().unwrap().arg,
            (RING_CAPACITY + extra - 1) as u64
        );
        // A wrapped ring still dumps to a structurally valid trace.
        let doc = chrome_dump(&[lane], &[("error", "test".into())]);
        validate_chrome_trace(&doc.to_json()).unwrap();
    }

    #[test]
    fn rings_are_recycled_across_threads() {
        let _g = serial();
        clear();
        set_enabled(true);
        let lanes_before = collector().rings.lock().unwrap_or_else(PoisonError::into_inner).len();
        for round in 0..4 {
            std::thread::spawn(move || {
                set_thread_name(&format!("flight-recycle-{round}"));
                instant(FlightCode::ChunkRun, round);
            })
            .join()
            .unwrap();
        }
        let lanes_after = collector().rings.lock().unwrap_or_else(PoisonError::into_inner).len();
        // Sequential threads share one recycled ring (at most one new
        // lane total, not one per thread).
        assert!(
            lanes_after <= lanes_before + 1,
            "rings not recycled: {lanes_before} -> {lanes_after}"
        );
        // The recycled lane retains events from earlier owners.
        let lane = snapshot()
            .into_iter()
            .find(|l| l.name.as_deref() == Some("flight-recycle-3"))
            .unwrap();
        let rounds: Vec<u64> = lane
            .events
            .iter()
            .filter(|e| e.code == FlightCode::ChunkRun)
            .map(|e| e.arg)
            .collect();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]));
        assert!(rounds.len() >= 2, "recycled ring lost prior events");
    }

    #[test]
    fn dump_rotation_bounds_files() {
        let _g = serial();
        clear();
        set_enabled(true);
        set_thread_name("flight-dump");
        instant(FlightCode::ExecError, 1);
        let dir = std::env::temp_dir().join(format!("flight-dump-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for _ in 0..(DUMP_ROTATION + 3) {
            let p = dump_to_dir(&dir, "stall", &[("error", "stalled".into())]).unwrap();
            assert_eq!(last_dump().as_deref(), Some(p.as_path()));
            let text = std::fs::read_to_string(&p).unwrap();
            validate_chrome_trace(&text).unwrap();
            assert!(text.contains("flight.context"));
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files as u64 <= DUMP_ROTATION, "rotation leaked: {files}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
