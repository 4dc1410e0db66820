//! The host probe: how fast is the machine right now?
//!
//! The benchmark runs on a few cores of a shared host whose speed moves by
//! tens of percent from second to second and from minute to minute, as
//! other tenants load the shared cache and memory. The probe is a fixed
//! piece of work owned by the benchmark — dependent loads at random
//! places of a table several times the private caches, a little integer
//! arithmetic on each — that none of the code under test can change. It
//! is run beside every timed operation (in the driver's idle time or with
//! the clock stopped), and a time measured while the probe took `p` ms is
//! reported as `time × REFERENCE_MS / p`: the time the operation would
//! have taken on a host on which the probe takes [`REFERENCE_MS`].

use crate::stats::Rng;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the build host when its neighbours are quiet.
pub const REFERENCE_MS: f64 = 2.5;
/// Table entries (`u32`): 32 MiB, eight times the private L2.
const TABLE_LEN: usize = 1 << 23;
const STEPS: usize = 10_000;
const MIX_ROUNDS: usize = 6;

pub struct HostProbe {
    /// One cycle through all entries, so a walk never gets stuck in a
    /// short loop that fits a cache.
    table: Vec<u32>,
    at: usize,
    /// When each sample was taken, and how many ms it took.
    samples: Vec<(Instant, f64)>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut rng = Rng::new(0x0b5e_55ed);
        for i in (1..TABLE_LEN).rev() {
            table.swap(i, rng.below(i));
        }
        HostProbe {
            table,
            at: 0,
            samples: Vec::new(),
        }
    }

    /// A probe that "took" the given samples, for tests of what uses it.
    #[cfg(test)]
    pub fn with_samples(samples: Vec<(Instant, f64)>) -> HostProbe {
        HostProbe {
            table: vec![0],
            at: 0,
            samples,
        }
    }

    /// The table's share of the process's resident set, MiB.
    pub fn resident_mib(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Run the probe once and record what it took.
    pub fn sample(&mut self) {
        let mask = self.table.len() - 1;
        let mut p = self.at;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let t = Instant::now();
        for _ in 0..STEPS {
            let v = self.table[p] as u64;
            x ^= v;
            for _ in 0..MIX_ROUNDS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            // Mostly the cycle's next entry, nudged by the arithmetic so
            // that the load cannot start before it is done.
            p = (v as usize ^ (x as usize & 0xf)) & mask;
        }
        let took = t.elapsed();
        self.at = black_box(p);
        self.samples.push((t + took / 2, took.as_secs_f64() * 1e3));
    }

    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Run `f` between two bursts of `k` samples; returns what it returned
    /// and what a time measured inside it is multiplied by.
    pub fn around<T>(&mut self, k: usize, f: impl FnOnce() -> T) -> (T, f64) {
        self.burst(k);
        let from = Instant::now();
        let out = f();
        let to = Instant::now();
        self.burst(k);
        (out, self.correction(from, to, k))
    }

    /// The host index of the interval `from..to`, ms: the mean of the `k`
    /// samples nearest before it and the `k` nearest after it. `NaN`
    /// before the first sample.
    pub fn index(&self, from: Instant, to: Instant, k: usize) -> f64 {
        let first_after = self.samples.partition_point(|(at, _)| *at < to);
        let first_inside = self.samples.partition_point(|(at, _)| *at <= from);
        let before = &self.samples[first_inside.saturating_sub(k)..first_inside];
        let after = &self.samples[first_after..(first_after + k).min(self.samples.len())];
        let n = before.len() + after.len();
        before.iter().chain(after).map(|(_, ms)| ms).sum::<f64>() / n as f64
    }

    /// What a time measured over `from..to` is multiplied by.
    pub fn correction(&self, from: Instant, to: Instant, k: usize) -> f64 {
        REFERENCE_MS / self.index(from, to, k)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median of every sample so far, ms.
    pub fn median_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|(_, ms)| *ms).collect();
        crate::stats::median(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn index_takes_the_nearest_samples_on_both_sides() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let probe = HostProbe::with_samples(vec![
            (at(10), 1.0),
            (at(20), 2.0),
            (at(50), 4.0),
            (at(60), 8.0),
        ]);
        // One on each side of 30..40.
        assert_eq!(probe.index(at(30), at(40), 1), 3.0);
        // Two on each side.
        assert_eq!(probe.index(at(30), at(40), 2), 3.75);
        // Nothing after the interval: what lies before it.
        assert_eq!(probe.index(at(70), at(80), 1), 8.0);
        // Nothing before it.
        assert_eq!(probe.index(at(0), at(5), 1), 1.0);
        assert_eq!(probe.correction(at(30), at(40), 1), REFERENCE_MS / 3.0);
    }

    #[test]
    fn a_sample_walks_the_table_and_takes_time() {
        let mut probe = HostProbe::new();
        probe.burst(2);
        assert_eq!(probe.samples.len(), 2);
        assert!(probe.samples.iter().all(|(_, ms)| *ms > 0.0));
        assert!(probe.median_ms() > 0.0);
        assert_eq!(probe.resident_mib(), 32.0);
    }
}
