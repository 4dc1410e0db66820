//! Every cargo target a CI step or a README command names exists — the
//! acceptance check for retiring a bin, a bench or a test.

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
