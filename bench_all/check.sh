#!/bin/sh
# Build the benchmark, run its tests, and run every workload's harness and
# oracle, traced and end to end, for about two seconds per phase (no
# metrics, no trace files).
# Not wired into CI yet: `.github/` is outside the benchmark's paths.
set -eu
cd "$(dirname "$0")/.."
manifest=bench_all/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --manifest-path "$manifest" -- --check
