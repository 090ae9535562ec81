#!/usr/bin/env bash
# Repo health check: formatting, lints, workspace tests, benchmark tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The root manifest's default-members cover every crate, so this runs
# the facade's tests and each crate's own unit and property tests.
echo "==> workspace tests (cargo test -q)"
cargo test -q

# The benchmark is its own cargo workspace; its unit tests run here.
echo "==> benchmark unit tests (perfbench)"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run

# Reduced-scale bench run: bench_phases asserts naive-vs-columnar checksum
# and LR-selection equality internally, so a clean exit is the validation.
echo "==> bench smoke (checksum-validated, --scale 0.02)"
BENCH_SMOKE_OUT=$(mktemp "${TMPDIR:-/tmp}/gendpr-bench-smoke.XXXXXX.json")
trap 'rm -f "$BENCH_SMOKE_OUT"' EXIT
scripts/bench.sh --scale 0.02 --out "$BENCH_SMOKE_OUT" >/dev/null
grep -q '"selection_identical": true' "$BENCH_SMOKE_OUT"
grep -q '"release_identical": true' "$BENCH_SMOKE_OUT"
grep -q '"shard_identical": true' "$BENCH_SMOKE_OUT"

echo "==> service smoke test"
scripts/service_smoke.sh

echo "==> shard equivalence (--shards 4 vs --shards 1)"
scripts/shard_check.sh

echo "==> track equivalence and failover (2-track fleet vs single daemon)"
scripts/track_check.sh

echo "==> scheduler load test (smoke)"
scripts/loadtest.sh --smoke

echo "==> crash-recovery soak (smoke)"
scripts/soak.sh --smoke

echo "All checks passed."
