#!/usr/bin/env bash
# Builds the benchmark and `dpfill-xfill` from this checkout, then runs
# the benchmark with the given arguments, from the checkout's root:
#
#   bash xfillbench/run.sh --workload wide-mono --seed 1 --seconds 10 --trace 0
#   bash xfillbench/run.sh --workload all --seed 1 --seconds 10
#   bash xfillbench/run.sh --self-test
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p dpfill-harness --bin dpfill-xfill >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/xfillbench" "$@" \
    --cli "$target/release/dpfill-xfill" \
    --rustc "$(rustc --version)" \
    --commit "$commit"
