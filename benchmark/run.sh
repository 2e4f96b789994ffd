#!/usr/bin/env bash
# Builds the `wb` binary and the benchmark from this checkout's sources,
# then runs the benchmark. Run it from the checkout root:
#
#   bash benchmark/run.sh --workload brief_cli --seed 7 --seconds 10 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# .bench_build), so the benchmark finds `wb` next to its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin wb
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/wb-benchmark" "$@"
