//! Structured trace events recorded into per-thread buffers.
//!
//! Recording is off by default: every emit site first checks one relaxed
//! atomic load ([`enabled`]), so the instrumentation is a no-op in
//! production paths unless a tool (the `dlsched trace` subcommand, a
//! test, a bench) turns it on. When enabled, events go into a per-thread
//! shard — a `Mutex<Vec>` that only its own thread touches until export,
//! so pushes are uncontended — with a hard per-thread cap; overflow
//! increments a drop counter instead of growing without bound.
//!
//! Two time domains coexist, distinguished by [`Track`]:
//!
//! * **Real** events carry microseconds since the process-global epoch and
//!   the recording thread's id — scheduler calls, executor workers.
//! * **Sim** events carry *simulated* microseconds and a lane number (a
//!   simulated processor, or the simulated scheduler clock). The Chrome
//!   exporter puts them under a separate process so Perfetto shows
//!   simulated makespan and real wall-clock side by side.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Maximum buffered events per thread; beyond it events are counted as
/// dropped. ~64 B/event ⇒ ≲ 16 MiB per thread worst case.
pub const SHARD_CAPACITY: usize = 1 << 18;

/// Chrome-trace-compatible event phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span open ("B").
    Begin,
    /// Span close ("E").
    End,
    /// Point event ("i").
    Instant,
    /// Sampled numeric series ("C").
    Counter,
    /// Self-contained span with a duration ("X").
    Complete,
}

/// Which timeline an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Wall-clock event on a real thread.
    Real { tid: u64 },
    /// Simulated-time event on a simulated lane (processor index, or
    /// [`SIM_SCHED_LANE`] for the scheduler clock).
    Sim { lane: u32 },
}

/// Lane used for the simulated scheduler-clock track.
pub const SIM_SCHED_LANE: u32 = 1_000_000;

/// One argument attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    Num(f64),
    Str(String),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::Num(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::Num(v as f64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Num(v as f64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::Num(v as f64)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// A recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    pub name: Cow<'static, str>,
    /// Layer category: `sched`, `sim`, `exec`, `datalog`, …
    pub cat: &'static str,
    pub phase: Phase,
    /// Microseconds — real (since epoch) or simulated, per `track`.
    pub ts_us: f64,
    /// Duration in µs; only meaningful for `Phase::Complete`.
    pub dur_us: f64,
    pub track: Track,
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Shard {
    tid: u64,
    name: Mutex<Option<String>>,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

struct Collector {
    shards: Mutex<Vec<Arc<Shard>>>,
    epoch: Instant,
    next_tid: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        shards: Mutex::new(Vec::new()),
        epoch: Instant::now(),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
    static LOCAL_SHARD: std::cell::OnceCell<Arc<Shard>> = const { std::cell::OnceCell::new() };
}

fn with_shard<R>(f: impl FnOnce(&Shard) -> R) -> R {
    LOCAL_SHARD.with(|cell| {
        let shard = cell.get_or_init(|| {
            let c = collector();
            let shard = Arc::new(Shard {
                tid: c.next_tid.fetch_add(1, Ordering::Relaxed),
                name: Mutex::new(None),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            });
            c.shards.lock().unwrap_or_else(PoisonError::into_inner).push(shard.clone());
            shard
        });
        f(shard)
    })
}

/// Turn recording on. Also usable mid-run; events before the switch are
/// simply absent.
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Turn recording off. Emit sites become a single relaxed load again.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Is recording currently on? Emit sites check this first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process-global trace epoch.
#[inline]
pub fn now_us() -> f64 {
    collector().epoch.elapsed().as_secs_f64() * 1e6
}

/// Returns whether the event was buffered. `End` events bypass the
/// capacity check: an `End` is only ever pushed for a `Begin` that was
/// itself buffered (see [`SpanGuard`]), so exempting them keeps truncated
/// traces *balanced* — the overshoot is bounded by the open-span depth.
fn push(event: Event) -> bool {
    with_shard(|shard| {
        let mut events = shard.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() < SHARD_CAPACITY || event.phase == Phase::End {
            events.push(event);
            true
        } else {
            shard.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    })
}

/// Record a raw event (callers normally use the helpers below).
pub fn record(event: Event) {
    if enabled() {
        push(event);
    }
}

/// Name the current thread's track in exported traces, and its flight-
/// recorder lane in black-box dumps (one call names both).
pub fn set_thread_name(name: &str) {
    with_shard(|shard| {
        *shard.name.lock().unwrap_or_else(PoisonError::into_inner) = Some(name.to_string());
    });
    crate::flight::set_thread_name(name);
}

/// RAII span on the current thread's real-time track. Construct via
/// [`span`]/[`span_with`]; records `End` on drop. When tracing is
/// disabled the guard is inert.
pub struct SpanGuard {
    live: bool,
}

impl SpanGuard {
    /// Attach arguments to the span close (visible on the "E" event).
    pub fn end_args(self, args: Vec<(&'static str, ArgValue)>) {
        if self.live {
            push(Event {
                name: Cow::Borrowed(""),
                cat: "",
                phase: Phase::End,
                ts_us: now_us(),
                dur_us: 0.0,
                track: Track::Real { tid: 0 },
                args,
            });
        }
        std::mem::forget(self);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            push(Event {
                name: Cow::Borrowed(""),
                cat: "",
                phase: Phase::End,
                ts_us: now_us(),
                dur_us: 0.0,
                track: Track::Real { tid: 0 },
                args: Vec::new(),
            });
        }
    }
}

/// Open a real-time span; closes when the guard drops.
#[inline]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    span_with(cat, name, Vec::new())
}

/// Open a real-time span with arguments on the open event.
#[inline]
pub fn span_with(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, ArgValue)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: false };
    }
    let live = push(Event {
        name: name.into(),
        cat,
        phase: Phase::Begin,
        ts_us: now_us(),
        dur_us: 0.0,
        track: Track::Real { tid: 0 },
        args,
    });
    SpanGuard { live }
}

/// Point event on the current thread's real-time track.
#[inline]
pub fn instant(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        cat,
        phase: Phase::Instant,
        ts_us: now_us(),
        dur_us: 0.0,
        track: Track::Real { tid: 0 },
        args,
    });
}

/// Sample a numeric series (rendered as a counter track in Perfetto).
#[inline]
pub fn counter(cat: &'static str, name: impl Into<Cow<'static, str>>, value: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        cat,
        phase: Phase::Counter,
        ts_us: now_us(),
        dur_us: 0.0,
        track: Track::Real { tid: 0 },
        args: vec![("value", ArgValue::Num(value))],
    });
}

/// Record a complete span in *simulated* time on the given lane.
#[inline]
pub fn sim_complete(
    lane: u32,
    name: impl Into<Cow<'static, str>>,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        cat: "sim",
        phase: Phase::Complete,
        ts_us,
        dur_us,
        track: Track::Sim { lane },
        args,
    });
}

/// Point event in simulated time.
#[inline]
pub fn sim_instant(
    lane: u32,
    name: impl Into<Cow<'static, str>>,
    ts_us: f64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        cat: "sim",
        phase: Phase::Instant,
        ts_us,
        dur_us: 0.0,
        track: Track::Sim { lane },
        args,
    });
}

/// Sample a counter series in simulated time.
#[inline]
pub fn sim_counter(lane: u32, name: impl Into<Cow<'static, str>>, ts_us: f64, value: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        cat: "sim",
        phase: Phase::Counter,
        ts_us,
        dur_us: 0.0,
        track: Track::Sim { lane },
        args: vec![("value", ArgValue::Num(value))],
    });
}

/// A thread's drained events plus its metadata.
#[derive(Clone, Debug)]
pub struct ThreadEvents {
    pub tid: u64,
    pub thread_name: Option<String>,
    pub events: Vec<Event>,
    pub dropped: u64,
}

/// Drain every thread's buffer (events are removed; metadata stays).
/// Spans still open on live threads will appear unbalanced — close spans
/// before collecting.
pub fn drain() -> Vec<ThreadEvents> {
    let shards = collector().shards.lock().unwrap_or_else(PoisonError::into_inner);
    shards
        .iter()
        .map(|shard| {
            let mut events = shard.events.lock().unwrap_or_else(PoisonError::into_inner);
            ThreadEvents {
                tid: shard.tid,
                thread_name: shard.name.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                events: std::mem::take(&mut *events),
                dropped: shard.dropped.swap(0, Ordering::Relaxed),
            }
        })
        .collect()
}

/// Discard all buffered events (fresh start before a traced run).
pub fn clear() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; run the mutating tests under one
    // lock so parallel test threads don't interleave enable/drain.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = serial();
        clear();
        disable();
        {
            let _s = span("test", "invisible");
            instant("test", "also invisible", vec![]);
            counter("test", "nope", 1.0);
        }
        let total: usize = drain().iter().map(|t| t.events.len()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn spans_balance_and_timestamps_advance() {
        let _guard = serial();
        clear();
        enable();
        set_thread_name("test-thread");
        {
            let _outer = span("test", "outer");
            let _inner = span_with("test", "inner", vec![("k", 7u64.into())]);
        }
        instant("test", "tick", vec![("x", "y".into())]);
        disable();
        let mine: Vec<ThreadEvents> = drain()
            .into_iter()
            .filter(|t| t.thread_name.as_deref() == Some("test-thread"))
            .collect();
        assert_eq!(mine.len(), 1);
        let events = &mine[0].events;
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        // LIFO close order: inner's End precedes outer's End.
        assert_eq!(events.last().unwrap().phase, Phase::Instant);
    }

    #[test]
    fn sim_events_carry_their_own_clock() {
        let _guard = serial();
        clear();
        enable();
        sim_complete(0, "task 3", 1_000.0, 250.0, vec![("node", 3u64.into())]);
        sim_counter(SIM_SCHED_LANE, "ready", 2_000.0, 5.0);
        disable();
        let all: Vec<Event> = drain().into_iter().flat_map(|t| t.events).collect();
        let task = all.iter().find(|e| e.name == "task 3").unwrap();
        assert_eq!(task.ts_us, 1_000.0);
        assert_eq!(task.dur_us, 250.0);
        assert_eq!(task.track, Track::Sim { lane: 0 });
    }

    #[test]
    fn truncated_shard_stays_balanced() {
        let _guard = serial();
        clear();
        enable();
        std::thread::spawn(|| {
            set_thread_name("trunc-test");
            let open = span("test", "open-before-full");
            for _ in 0..SHARD_CAPACITY {
                instant("test", "fill", vec![]);
            }
            drop(open); // End bypasses the cap: still recorded.
            let late = span("test", "late"); // Begin dropped at capacity…
            drop(late); // …so no dangling End either.
        })
        .join()
        .unwrap();
        disable();
        let t = drain()
            .into_iter()
            .find(|t| t.thread_name.as_deref() == Some("trunc-test"))
            .unwrap();
        let begins = t.events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = t.events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, ends, "truncation must not unbalance spans");
        assert!(t.dropped > 0, "overflow must be counted");
        assert_eq!(t.events.len(), SHARD_CAPACITY + 1);
    }

    #[test]
    fn multi_thread_shards_do_not_mix() {
        let _guard = serial();
        clear();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    set_thread_name(&format!("shard-test-{i}"));
                    for _ in 0..100 {
                        let _s = span("test", "work");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let shards: Vec<ThreadEvents> = drain()
            .into_iter()
            .filter(|t| {
                t.thread_name
                    .as_deref()
                    .is_some_and(|n| n.starts_with("shard-test-"))
            })
            .collect();
        assert_eq!(shards.len(), 4);
        for t in &shards {
            assert_eq!(t.events.len(), 200, "{:?}", t.thread_name);
            assert_eq!(t.dropped, 0);
        }
    }
}
