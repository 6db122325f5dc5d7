#!/usr/bin/env bash
# Builds the release server and the benchmark, then runs the benchmark with
# the given arguments. Run from the repository root:
#   bash servebench/run.sh --workload whatif --seed 1 --seconds 20 --trace 0
# Both builds go to one target directory, `$CARGO_TARGET_DIR` if set and
# `target` otherwise, so the binaries are found either way.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" -p mf-cli --bin microfactory
cargo build --release --offline --quiet --target-dir "$target" --manifest-path servebench/Cargo.toml
exec "$target/release/servebench" --server "$target/release/microfactory" "$@"
