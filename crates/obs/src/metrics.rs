//! Cheap atomic metrics: counters, gauges (with peak tracking) and
//! log₂-bucketed histograms, plus a process-global named registry.
//!
//! Everything is lock-free on the hot path (`Relaxed` atomics); the
//! registry takes a lock only on registration and snapshot. Metrics stay
//! live for the process lifetime — handles are `Arc`s that can be cached
//! by the instrumented code.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depth, frontier index, …) tracking two
/// peaks: a *window* peak that instrumentation resets at update
/// boundaries ([`Gauge::reset_peak`] / [`Registry::reset_gauge_peaks`]),
/// and a process-lifetime peak that never resets. Per-update snapshots
/// read `peak`; capacity planning reads `lifetime_peak`.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    peak: AtomicI64,
    lifetime_peak: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
        self.lifetime_peak.fetch_max(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        let v = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak.fetch_max(v, Ordering::Relaxed);
        self.lifetime_peak.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value since the last [`Gauge::reset_peak`] (0 if never
    /// above zero in the window).
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Highest value over the process lifetime; never reset by window
    /// boundaries (only by [`Registry::reset`]).
    pub fn lifetime_peak(&self) -> i64 {
        self.lifetime_peak.load(Ordering::Relaxed)
    }

    /// Start a new peak window: the peak restarts from the *current*
    /// level (a backlog present at the boundary is still this window's
    /// floor), not from zero.
    pub fn reset_peak(&self) {
        self.peak.store(self.get(), Ordering::Relaxed);
    }
}

/// Histogram over `u64` samples with power-of-two buckets: bucket `i`
/// counts samples whose highest set bit is `i` (bucket 0 additionally
/// holds zeros). 65 slots cover the full domain.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// bound order. The order is a function of the bucket layout alone —
    /// never of recording or merge order across worker threads — so JSON
    /// exports embedding it are byte-stable run to run for equal counts.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                if n == 0 {
                    None
                } else {
                    Some((bucket_bound(i), n))
                }
            })
            .collect()
    }

    /// Upper bound of the bucket containing quantile `q` (0..=1) — a
    /// factor-of-two estimate, which is enough to spot tail blow-ups.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target.max(1) {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }
}

/// Upper bound of log₂ bucket `i` (the top bucket is unbounded).
fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => 1u64 << i,
        _ => u64::MAX,
    }
}

/// A named collection of metrics. One process-global instance lives
/// behind [`registry`]; tests can build private ones.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// One JSON object per metric kind: counters as totals, gauges as
    /// `{current, peak, lifetime_peak}`, histograms as summary stats
    /// plus their non-empty buckets in ascending-bound (deterministic)
    /// order. Map keys are BTreeMap-sorted, so two snapshots with equal
    /// metric values serialize to identical bytes regardless of thread
    /// interleaving.
    pub fn snapshot(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, c)| (k.clone(), c.get().into()))
            .collect();
        let gauges: Vec<(String, Json)> = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, g)| {
                (
                    k.clone(),
                    obj([
                        ("current", g.get().into()),
                        ("peak", g.peak().into()),
                        ("lifetime_peak", g.lifetime_peak().into()),
                    ]),
                )
            })
            .collect();
        let histograms: Vec<(String, Json)> = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<Json> = h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(bound, n)| Json::Arr(vec![bound.into(), n.into()]))
                    .collect();
                (
                    k.clone(),
                    obj([
                        ("count", h.count().into()),
                        ("sum", h.sum().into()),
                        ("mean", h.mean().into()),
                        ("p50_bound", h.quantile_bound(0.5).into()),
                        ("p95_bound", h.quantile_bound(0.95).into()),
                        ("p99_bound", h.quantile_bound(0.99).into()),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }

    /// Start a new peak window on every gauge (called by the executor at
    /// update boundaries so per-update snapshots report per-update peaks,
    /// not process-lifetime ones).
    pub fn reset_gauge_peaks(&self) {
        for g in self.gauges.lock().unwrap_or_else(PoisonError::into_inner).values() {
            g.reset_peak();
        }
    }

    /// Reset every registered metric to zero (between bench repetitions).
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap_or_else(PoisonError::into_inner).values() {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.lock().unwrap_or_else(PoisonError::into_inner).values() {
            g.value.store(0, Ordering::Relaxed);
            g.peak.store(0, Ordering::Relaxed);
            g.lifetime_peak.store(0, Ordering::Relaxed);
        }
        let hists = self.histograms.lock().unwrap_or_else(PoisonError::into_inner);
        for h in hists.values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
        }
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("ops").get(), 5, "same handle by name");

        let g = r.gauge("depth");
        g.set(3);
        g.add(4);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1107);
        assert!(h.mean() > 150.0);
        assert_eq!(h.quantile_bound(0.0), 0);
        // All samples ≤ 1024.
        assert!(h.quantile_bound(1.0) <= 1024);
    }

    #[test]
    fn snapshot_is_valid_json_and_reset_zeroes() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.gauge("b").set(9);
        r.histogram("c").record(17);
        let snap = r.snapshot();
        let text = snap.to_json();
        let back = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            back.get("counters").unwrap().get("a").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            back.get("gauges").unwrap().get("b").unwrap().get("peak").unwrap().as_u64(),
            Some(9)
        );
        r.reset();
        assert_eq!(r.counter("a").get(), 0);
        assert_eq!(r.gauge("b").peak(), 0);
        assert_eq!(r.histogram("c").count(), 0);
    }

    #[test]
    fn gauge_peak_resets_per_window_but_lifetime_survives() {
        let r = Registry::new();
        let g = r.gauge("exec.queue_depth");
        // "Update 1" spikes to 50, drains to 3.
        g.set(50);
        g.set(3);
        assert_eq!(g.peak(), 50);
        // Update boundary: the window peak restarts from the current
        // level, not from zero and not from the old spike.
        r.reset_gauge_peaks();
        assert_eq!(g.peak(), 3, "window peak must restart at current level");
        assert_eq!(g.lifetime_peak(), 50, "lifetime peak must survive");
        // "Update 2" only reaches 7 — its snapshot peak must be 7, not
        // the process-lifetime 50 (the original regression).
        g.set(7);
        g.set(0);
        assert_eq!(g.peak(), 7);
        assert_eq!(g.lifetime_peak(), 50);
        let snap = r.snapshot();
        let gj = snap.get("gauges").unwrap().get("exec.queue_depth").unwrap();
        assert_eq!(gj.get("peak").unwrap().as_u64(), Some(7));
        assert_eq!(gj.get("lifetime_peak").unwrap().as_u64(), Some(50));
        // Full reset clears all three.
        r.reset();
        assert_eq!(g.lifetime_peak(), 0);
    }

    #[test]
    fn histogram_bucket_export_is_interleaving_independent() {
        let samples: Vec<u64> = (0..4096u64).map(|i| (i * 2654435761) % 100_000).collect();
        // Same multiset of samples recorded under two very different
        // thread interleavings must export identical JSON.
        let run = |threads: usize| -> String {
            let r = Arc::new(Registry::new());
            let chunk = samples.len() / threads;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let r = r.clone();
                    let part: Vec<u64> =
                        samples[t * chunk..(t + 1) * chunk].to_vec();
                    std::thread::spawn(move || {
                        let h = r.histogram("exec.task_ns");
                        for v in part {
                            h.record(v);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            r.snapshot().to_json()
        };
        assert_eq!(run(1), run(8), "histogram export must be deterministic");
        // And bucket bounds come out ascending.
        let r = Registry::new();
        let h = r.histogram("x");
        for v in [70_000u64, 3, 0, 900] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.iter().map(|b| b.1).sum::<u64>(), 4);
        // Top bucket is representable (no shift overflow).
        h.record(u64::MAX);
        assert_eq!(h.nonzero_buckets().last().unwrap().0, u64::MAX);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let c = r.counter("hot");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("hot").get(), 80_000);
    }
}
