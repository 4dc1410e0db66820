//! Host fingerprint and the thread budgets derived from it.

use std::process::Command;

#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub governor: String,
    pub rustc: &'static str,
    pub commit: String,
}

fn first_line_after_colon(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

impl Host {
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let governor =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map_or_else(|_| "unreadable".into(), |s| s.trim().to_string());
        // The driver's checkout is not a git repository: say so.
        let commit = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: first_line_after_colon(&cpuinfo, "model name")
                .unwrap_or_else(|| "unknown".into()),
            governor,
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit,
        }
    }

    /// Executor workers: every core but the coordinator's.
    pub fn executor_workers(&self) -> usize {
        self.nproc.saturating_sub(1).max(1)
    }

    /// Ratios of parallel to sequential runs, the snapshot reader beside
    /// the writer and the 2-shard pass all need a second core.
    pub fn multi_core(&self) -> bool {
        self.nproc > 1
    }

    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" governor={} rustc=\"{}\" commit={}",
            self.nproc, self.cpu_model, self.governor, self.rustc, self.commit
        )
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    first_line_after_colon(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
