//! `bench_all`: the repository's benchmark. See `bench_all/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_all/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--selfcheck] [--check]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! result as the last line. Without, runs every workload, each in a fresh
//! child process.

mod counters;
mod datalog_run;
mod host;
mod hostprobe;
mod layers;
mod metrics;
mod probe;
mod service;
mod spans;
mod stats;
mod trace_wide;
mod workloads;

use host::Host;
use incr_obs::Json;
use metrics::{Report, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `--check` runs every phase of the traced run for about two seconds, and
/// as many seconds of the end-to-end run.
const CHECK_SECONDS: f64 = 10.0;

#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Exercise harness and oracle only: short phases, no metrics
    /// printed, no trace written.
    pub check: bool,
}

/// One workload run's result.
pub struct Outcome {
    pub report: Report,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

struct Args {
    workload: Option<String>,
    opts: RunOpts,
    selfcheck: bool,
}

fn usage() -> String {
    format!(
        "usage: bench_all [--workload {}] [--seed S] [--seconds N] [--trace 0|1] [--selfcheck] [--check]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            traced: false,
            check: false,
        },
        selfcheck: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.opts.seconds = s;
                seconds_given = true;
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.opts.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--check" => args.opts.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.opts.check && !seconds_given {
        args.opts.seconds = CHECK_SECONDS;
    }
    Ok(args)
}

/// The benchmark's own directory, from wherever the command was started.
fn bench_dir() -> PathBuf {
    if std::path::Path::new("bench_all/Cargo.toml").exists() {
        "bench_all".into()
    } else {
        env!("CARGO_MANIFEST_DIR").into()
    }
}

/// Write one workload's spans to `bench_all/out/<workload>.trace.json`.
pub fn write_trace(workload: &str, json: &str) {
    let dir = bench_dir().join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Run one workload in this process; the result is the last line printed.
fn run_workload(name: &'static str, opts: &RunOpts, host: &Host) -> ExitCode {
    println!(
        "== {name}  seed={} seconds={} trace={} ==",
        opts.seed, opts.seconds, opts.traced as u8
    );
    println!("{}", host.describe());
    let outcome = match name {
        "trace_wide" => trace_wide::run(opts, host),
        _ => datalog_run::run(name, opts, host),
    };
    let table = if opts.traced { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct;
    if !opts.traced {
        // Every end-to-end metric must be a finite number on every workload.
        for name in outcome.report.missing(table) {
            eprintln!("end-to-end metric {name} has no finite value");
            correct = false;
        }
    }
    if opts.check {
        let run = if opts.traced { "traced" } else { "end to end" };
        println!(
            "check {name}, {run}: {}",
            if correct { "ok" } else { "FAILED" }
        );
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    outcome.report.print(table);
    println!(
        "  {:<36} {:>16}         # {} failed of {} attempted",
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.report.json(table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a fresh child process, echo its output if asked,
/// and return its `metrics` object (`None`: the child failed).
fn run_child(workload: &str, opts: &RunOpts, echo: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.check {
        cmd.arg("--check");
    }
    let out = cmd.output().expect("spawn child");
    let text = String::from_utf8_lossy(&out.stdout);
    if echo || !out.status.success() {
        print!("{text}");
    }
    if !out.status.success() {
        eprintln!("{workload}: child exited with {}", out.status);
        return None;
    }
    if opts.check {
        return Some(Json::Null);
    }
    let result = Json::parse(text.lines().last()?).ok()?;
    (result.get("correct") == Some(&Json::Bool(true))).then(|| result.get("metrics").cloned())?
}

/// Every workload once, each in its own process (`--check`: once traced
/// and once end to end); did all succeed?
fn run_all(opts: &RunOpts) -> bool {
    let runs: &[bool] = if opts.check {
        &[true, false]
    } else {
        &[opts.traced]
    };
    // Counted, not `all`: a failing workload must not stop the others.
    let failed = WORKLOADS
        .iter()
        .flat_map(|w| runs.iter().map(move |&traced| (w, traced)))
        .filter(|&(w, traced)| run_child(w, &RunOpts { traced, ..*opts }, true).is_none())
        .count();
    failed == 0
}

fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Runs per set and workload in `--selfcheck`; the sets compare medians.
const SELFCHECK_RUNS: usize = 5;

/// Two full sets of untraced runs of the same binary: for every workload
/// the sets take turns (A, B, A, B, ...), so a drift of the host's speed
/// hits both alike, and every end-to-end metric's two medians must agree
/// within its bound in `BENCHMARK.json`.
fn selfcheck(opts: &RunOpts) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("== selfcheck: two sets of {SELFCHECK_RUNS} runs per workload, taking turns ==");
    let mut ok = true;
    for workload in WORKLOADS {
        // sets[set][metric] = that metric's value in each run of the set.
        let mut sets = [
            vec![Vec::new(); bounds.len()],
            vec![Vec::new(); bounds.len()],
        ];
        for run in 0..2 * SELFCHECK_RUNS {
            let Some(metrics) = run_child(workload, opts, false) else {
                return ExitCode::FAILURE;
            };
            for ((name, _), values) in bounds.iter().zip(&mut sets[run % 2]) {
                let value = metrics.get(name).and_then(|v| v.get("value"));
                values.extend(value.and_then(Json::as_f64));
            }
        }
        for (i, (name, bound)) in bounds.iter().enumerate() {
            let (x, y) = (stats::median(&sets[0][i]), stats::median(&sets[1][i]));
            let spread = (x - y).abs() / x.min(y);
            let agree = spread <= *bound;
            ok &= agree;
            println!(
                "  {workload:<13} {name:<16} {x:>14.4} {y:>14.4}  spread {:>5.1} %  bound {:>4.1} %  {}",
                spread * 100.0,
                bound * 100.0,
                if agree { "ok" } else { "DISAGREE" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(&args.opts);
    }
    match args.workload {
        Some(w) => {
            let name = WORKLOADS.iter().find(|n| **n == w).expect("validated");
            run_workload(name, &args.opts, &Host::detect())
        }
        None if run_all(&args.opts) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}
