//! Reading the always-on `incr_obs::registry()` from outside. A name
//! that is not in the snapshot reads `None`, never 0: the metric built on
//! it is then reported `null` instead of silently flat.

use incr_obs::Json;
use std::collections::BTreeMap;

pub struct Counters {
    counters: BTreeMap<String, u64>,
    gauge_peaks: BTreeMap<String, u64>,
}

impl Counters {
    /// Snapshot every counter, and every gauge's lifetime peak.
    pub fn read() -> Counters {
        let snap = incr_obs::registry().snapshot();
        let section = |key: &str| snap.get(key).and_then(Json::as_obj).unwrap_or(&[]);
        Counters {
            counters: section("counters")
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
            gauge_peaks: section("gauges")
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("lifetime_peak")?.as_u64()?)))
                .collect(),
        }
    }

    /// How far counter `name` moved from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters, name: &str) -> Option<f64> {
        let now = *self.counters.get(name)?;
        let then = earlier.counters.get(name).copied().unwrap_or(0);
        Some(now.saturating_sub(then) as f64)
    }

    pub fn has(&self, name: &str) -> bool {
        self.counters.contains_key(name)
    }

    pub fn gauge_peak(&self, name: &str) -> Option<f64> {
        self.gauge_peaks.get(name).map(|&v| v as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vanished_counter_reads_none_not_zero() {
        let before = Counters::read();
        incr_obs::registry()
            .counter("bench_all.test.present")
            .add(3);
        let after = Counters::read();
        assert_eq!(after.since(&before, "bench_all.test.present"), Some(3.0));
        assert_eq!(
            after.since(&before, "bench_all.test.never_registered"),
            None
        );
    }
}
