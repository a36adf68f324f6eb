#!/usr/bin/env bash
# Builds maestro-cli and the benchmark harness from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload chip_stream --seed 1 --seconds 20 --trace 0
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build); scratch files go
# to .bench_work. The last line of stdout is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/maestro || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (the maestro sources are not here)" >&2
    exit 2
fi
root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p maestro --bin maestro-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/perfbench" --cli "$target/release/maestro-cli" --work .bench_work "$@"
