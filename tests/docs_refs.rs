//! Every cargo target and every `dlsched` subcommand a CI step or a
//! README command names exists — the acceptance check for retiring a bin,
//! a bench, a test or a subcommand.

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
