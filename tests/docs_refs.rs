//! Every cargo target and every `dlsched` subcommand a CI step or a
//! README command names exists — the acceptance check for retiring a bin,
//! a bench, a test or a subcommand — and the metric names `crates/datalog`
//! and the executor emit are the ones `docs/METRICS.md` documents.

use std::path::Path;

#[test]
fn ci_and_readme_name_only_targets_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let homes: [(&str, &[&str]); 3] = [
        ("--bin", &["crates/bench/src/bin", "src/bin"]),
        ("--bench", &["crates/bench/benches"]),
        ("--test", &["tests"]),
    ];
    let mut checked = 0;
    for doc in [".github/workflows/ci.yml", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let words: Vec<&str> = text
            .split_whitespace()
            .map(|w| w.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-')))
            .collect();
        for pair in words.windows(2) {
            let Some((flag, dirs)) = homes.iter().find(|(flag, _)| *flag == pair[0]) else {
                continue;
            };
            let file = format!("{}.rs", pair[1]);
            assert!(
                dirs.iter().any(|d| root.join(d).join(&file).is_file()),
                "{doc} names `{flag} {}`, but {file} is in none of {dirs:?}",
                pair[1]
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no `--bin` / `--bench` / `--test` found: the scan is broken");
}

/// `dlsched -- <sub>` in a command line, or `` `dlsched <sub>` `` in prose.
#[test]
fn ci_and_readme_invoke_only_dlsched_subcommands_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let main = std::fs::read_to_string(root.join("src/bin/dlsched.rs")).expect("dlsched.rs");
    let arms: Vec<&str> = main
        .lines()
        .filter(|l| l.contains("=> cmd_"))
        .filter_map(|l| l.split('"').nth(1))
        .collect();
    assert!(arms.contains(&"simulate"), "no dispatch arms found: the scan is broken");
    fn clean(w: &str) -> &str {
        w.trim_matches(|c: char| !c.is_alphanumeric())
    }
    let mut checked = 0;
    for doc in [".github/workflows/ci.yml", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            let sub = match (*w, words.get(i + 1), words.get(i + 2)) {
                ("dlsched", Some(&"--"), Some(sub)) => clean(sub),
                ("`dlsched", Some(sub), _) => clean(sub),
                _ => continue,
            };
            assert!(
                arms.contains(&sub),
                "{doc} invokes `dlsched {sub}`, which is not an arm of main's dispatch {arms:?}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no `dlsched <subcommand>` found: the scan is broken");
}

/// The metric families `crates/datalog` emits.
const DATALOG_FAMILIES: [&str; 4] = ["datalog.", "mvcc.", "stream.", "shard."];

fn is_datalog_metric(name: &str) -> bool {
    DATALOG_FAMILIES.iter().any(|f| name.starts_with(f))
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

/// The non-test code of every source file in `dir`: each file up to its
/// test module, the first `#[cfg(test)]` at the start of a line — an
/// indented one gates a test-only statement inside non-test code
/// (proptests.rs is declared `#[cfg(test)]` from lib.rs and holds no
/// metric).
fn non_test_sources(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("source directory")
        .map(|entry| {
            let text = std::fs::read_to_string(entry.expect("directory entry").path())
                .expect("source file");
            text.split("\n#[cfg(test)]")
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// Every name `emitted` from `dir` has a row in `docs/METRICS.md`, and
/// every row `in_family` names one of them — the static half of "every
/// emitted metric is documented and every documented metric is emitted".
fn assert_rows_agree(
    root: &Path,
    dir: &str,
    mut emitted: Vec<String>,
    in_family: fn(&str) -> bool,
) {
    emitted.sort();
    emitted.dedup();
    let doc = std::fs::read_to_string(root.join("docs/METRICS.md")).expect("docs/METRICS.md");
    let mut documented: Vec<String> = Vec::new();
    for row in doc.lines().filter(|l| l.starts_with("| `")) {
        let name_cell = row.split('|').nth(1).unwrap_or_default();
        documented.extend(
            name_cell
                .split('`')
                .skip(1)
                .step_by(2)
                .filter(|name| in_family(name))
                .map(str::to_string),
        );
    }
    documented.sort();
    assert!(!documented.is_empty(), "no metric row found: the scan is broken");

    let undocumented: Vec<&String> = emitted.iter().filter(|n| !documented.contains(n)).collect();
    assert!(
        undocumented.is_empty(),
        "emitted by {dir} without a docs/METRICS.md row: {undocumented:?}"
    );
    let dead: Vec<&String> = documented.iter().filter(|n| !emitted.contains(n)).collect();
    assert!(
        dead.is_empty(),
        "docs/METRICS.md rows naming nothing {dir} emits: {dead:?}"
    );
}

/// Every counter or gauge name `crates/datalog` emits has a row in
/// `docs/METRICS.md`, and every row of those families names one it emits.
#[test]
fn datalog_metric_names_and_metrics_md_rows_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut emitted: Vec<String> = Vec::new();
    for code in non_test_sources(&root.join("crates/datalog/src")) {
        // Odd segments between double quotes are string literals (no
        // metric name sits near an escaped quote).
        emitted.extend(
            code.split('"')
                .skip(1)
                .step_by(2)
                .filter(|lit| is_datalog_metric(lit))
                .map(str::to_string),
        );
    }
    assert!(
        emitted.iter().any(|n| n == "datalog.index.hit"),
        "no metric literal found: the scan is broken"
    );
    assert_rows_agree(root, "crates/datalog/src", emitted, is_datalog_metric);
}

/// The same for the executor's `exec.*` family. Only names registered
/// through `counter("…")` / `gauge("…")` count: `exec.update` and
/// `exec.commit` are span names, not metrics.
#[test]
fn executor_metric_names_and_metrics_md_rows_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut emitted: Vec<String> = Vec::new();
    for code in non_test_sources(&root.join("crates/runtime/src")) {
        for call in ["counter(\"", "gauge(\""] {
            emitted.extend(
                code.split(call)
                    .skip(1)
                    .filter_map(|rest| rest.split('"').next())
                    .filter(|name| name.starts_with("exec."))
                    .map(str::to_string),
            );
        }
    }
    assert!(
        emitted.iter().any(|n| n == "exec.chunks"),
        "no `exec.chunks` registration found: the scan is broken"
    );
    assert_rows_agree(root, "crates/runtime/src", emitted, |name| {
        name.starts_with("exec.")
    });
}

/// The scheduler families: LevelBased, LogicBlox, LBL(k), SignalPropagation.
const SCHEDULER_FAMILIES: [&str; 4] = ["lb.", "lbx.", "lbl.", "sig."];

fn is_scheduler_gauge(name: &str) -> bool {
    SCHEDULER_FAMILIES.iter().any(|f| name.starts_with(f))
}

/// The same for the gauges the schedulers return from `gauges()`: every
/// `("lb.…", …)`-style pair in `crates/core/src` has a row in the
/// scheduler table, and every row of those families names one.
#[test]
fn scheduler_gauge_names_and_metrics_md_rows_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut emitted: Vec<String> = Vec::new();
    for code in non_test_sources(&root.join("crates/core/src")) {
        emitted.extend(
            code.split("(\"")
                .skip(1)
                .filter_map(|rest| rest.split('"').next())
                .filter(|name| is_scheduler_gauge(name))
                .map(str::to_string),
        );
    }
    assert!(
        emitted.iter().any(|n| n == "lbx.blockers"),
        "no `(\"lbx.blockers\", …)` gauge found: the scan is broken"
    );
    assert_rows_agree(root, "crates/core/src", emitted, is_scheduler_gauge);
}
