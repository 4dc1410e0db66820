//! Seeded randomness, arrival schedules, percentiles and the input hash.
//!
//! Everything a run's inputs depend on comes from [`Rng`] seeded by
//! `--seed`; nothing here reads the clock.

use std::time::Duration;

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound >= 1`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Due times of independent arrivals at a mean `rate_per_s` over `horizon`:
/// each gap is uniform in 0.5..1.5 mean gaps. Irregular like users, but
/// unlike a Poisson process two arrivals never fall closer than half a
/// mean gap — see the README for why the open loops do not use Poisson.
pub fn jittered_schedule(rng: &mut Rng, rate_per_s: f64, horizon: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += (0.5 + rng.unit()) / rate_per_s;
        if t >= horizon.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `burst` arrivals at every multiple of `period`, first burst at t=0.
pub fn burst_schedule(burst: usize, period: Duration, horizon: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = Duration::ZERO;
    while t < horizon {
        out.extend(std::iter::repeat_n(t, burst));
        t += period;
    }
    out
}

/// FNV-1a over a byte stream: the hash every run prints for its inputs.
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> InputHash {
        InputHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn number(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (`0 < pct <= 100`).
/// `NaN` when there are no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    match rank_index(sorted.len(), pct) {
        Some(i) => sorted[i],
        None => f64::NAN,
    }
}

fn rank_index(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Position by position, the smallest of the replays' values, over the
/// positions every replay has. The replays did the same work at each
/// position, so what differs between them is the host, which only ever
/// adds time: the fastest replay is the nearest to the work's own cost.
pub fn fastest_replay(replays: &[Vec<f64>]) -> Vec<f64> {
    let n = replays.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| replays.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// `n`, minimum, quartiles and maximum on one line.
pub fn five_numbers(samples: &[f64]) -> String {
    let s = sorted(samples);
    format!(
        "n={} min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3}",
        s.len(),
        s.first().copied().unwrap_or(f64::NAN),
        percentile(&s, 25.0),
        percentile(&s, 50.0),
        percentile(&s, 75.0),
        s.last().copied().unwrap_or(f64::NAN)
    )
}

/// Measurements a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a latency sample: `cap_pct` if at least `min_beyond`
/// samples lie beyond it, else the highest percentile that has that many
/// beyond it, and never below the median. Returns `(percentile actually
/// used, its value)`.
pub fn tail_percentile(sorted: &[f64], cap_pct: f64, min_beyond: usize) -> (f64, f64) {
    let n = sorted.len();
    let Some(cap_idx) = rank_index(n, cap_pct) else {
        return (cap_pct, f64::NAN);
    };
    if n - (cap_idx + 1) >= min_beyond {
        return (cap_pct, sorted[cap_idx]);
    }
    let median_idx = rank_index(n, 50.0).expect("n > 0");
    let idx = n.saturating_sub(min_beyond + 1).max(median_idx);
    if idx == median_idx {
        return (50.0, sorted[idx]);
    }
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn jittered_schedule_has_the_stated_mean_rate_and_minimum_gap() {
        let mut rng = Rng::new(3);
        let due = jittered_schedule(&mut rng, 20.0, Duration::from_secs(500));
        let rate = due.len() as f64 / 500.0;
        assert!((rate - 20.0).abs() < 0.3, "rate {rate}");
        let min_gap = due.windows(2).map(|w| w[1] - w[0]).min().unwrap();
        assert!(
            min_gap >= Duration::from_millis(25),
            "half of the 50 ms mean gap"
        );
        assert!(*due.last().unwrap() < Duration::from_secs(500));
    }

    #[test]
    fn burst_schedule_has_the_stated_mean_rate() {
        let due = burst_schedule(10, Duration::from_millis(250), Duration::from_secs(10));
        assert_eq!(due.len(), 400, "10 per 250 ms = 40/s");
        assert_eq!(due[9], Duration::ZERO);
        assert_eq!(due[10], Duration::from_millis(250));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0, 10), (95.0, 190.0));
        // 199 samples: p95 is rank 190, only 9 beyond -> rank 189.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v, 95.0, 10);
        assert_eq!(value, 189.0);
        assert!(pct < 95.0 && pct > 94.0);
        // 96 samples: rank 86 is the highest with 10 beyond.
        let v: Vec<f64> = (1..=96).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0, 10).1, 86.0);
        // Each of them standing for five measurements: two beyond will do.
        assert_eq!(tail_percentile(&v, 95.0, 2), (95.0, 92.0));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0, 2).1, 28.0);
        // Too few for any tail: the median.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0, 10), (50.0, 8.0));
    }

    #[test]
    fn fastest_replay_takes_the_smallest_at_each_position() {
        let replays = vec![
            vec![5.0, 1.0, 9.0],
            vec![3.0, 2.0, 7.0, 4.0],
            vec![4.0, 8.0, 8.0],
        ];
        assert_eq!(fastest_replay(&replays), vec![3.0, 1.0, 7.0]);
        assert_eq!(fastest_replay(&replays[1..2]), replays[1]);
        assert!(fastest_replay(&[]).is_empty());
    }

    #[test]
    fn input_hash_separates_fields() {
        let mut a = InputHash::new();
        a.text("ab");
        a.text("c");
        let mut b = InputHash::new();
        b.text("a");
        b.text("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
