#!/usr/bin/env bash
# Builds the `gendpr` daemon (from the repository's own manifest) and the
# benchmark binary from source, then runs the benchmark. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload small_jobs --seed 1 --seconds 20 --trace 0
#
# Build output and generated studies go under $CARGO_TARGET_DIR
# (default .bench_build). All cargo and benchmark diagnostics go to stderr;
# the last line of stdout is the JSON result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/ and perfbench/ required)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin gendpr --target-dir "$target/program" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir "$target/perfbench" >&2
exec "$target/perfbench/release/perfbench" \
    --gendpr "$target/program/release/gendpr" --work "$target/work" "$@"
