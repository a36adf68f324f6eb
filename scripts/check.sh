#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   ./scripts/check.sh
#
# Runs formatting, the release build, the full test suite (goldens in
# verify-only mode), the benchmark harness's tests, and clippy (warnings
# are errors) over the workspace.
# Golden fixtures — the reproduced paper tables and the trace-event
# schema — are compared byte-for-byte here; regenerate intentionally
# changed ones with
#   UPDATE_GOLDEN=1 cargo test -p maestro-bench --test golden_tables
#   UPDATE_GOLDEN=1 cargo test -p maestro-trace --test golden_schema
# and review the diff before re-running this gate.
set -euo pipefail
cd "$(dirname "$0")/.."

FIRST_PARTY=(
    -p maestro -p maestro-geom -p maestro-tech -p maestro-netlist
    -p maestro-estimator -p maestro-place -p maestro-route
    -p maestro-fullcustom -p maestro-floorplan -p maestro-bench
    -p maestro-trace
)

echo "==> cargo fmt (first-party crates) -- --check"
# The vendored offline stand-ins under vendor/ are exempt from style
# gates; every crate this repo owns must be rustfmt-clean.
cargo fmt "${FIRST_PARTY[@]}" -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --no-fail-fast (goldens verify-only)"
# Drop UPDATE_GOLDEN if the caller's environment carries it: the gate
# must *verify* fixtures, never silently rewrite them. Regeneration is a
# deliberate, reviewed step (see header). --no-fail-fast runs every test
# binary even after one fails, so a single failure cannot hide the rest;
# cargo still exits non-zero on any failure, which fails the gate.
env -u UPDATE_GOLDEN cargo test -q --no-fail-fast

echo "==> cargo test --manifest-path perfbench/Cargo.toml"
# The benchmark harness is a workspace of its own, so the root build
# never compiles it, yet it links the cache, fingerprint and pipeline
# APIs. Building and testing it here makes an API change that breaks the
# benchmark fail this gate.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy (first-party crates) -- -D warnings"
cargo clippy --all-targets "${FIRST_PARTY[@]}" -- -D warnings

echo "==> no debug_assert!-only guards in the sharding/chip-generation/lexer/builder paths"
# Release builds compile debug_assert! away, so a bounds or overflow guard
# written that way silently vanishes exactly where million-device runs
# need it. The batch sharding and chip generators must guard with real
# checks (validated errors or clamps), never debug-only assertions. The
# .mnl lexer and module scanner index raw bytes of untrusted daemon input,
# and the module builder checks its pins one by one, so their guards fall
# under the same rule.
SHARDING_PATHS=(
    crates/core/src/pipeline.rs crates/netlist/src/chip.rs crates/netlist/src/mnl.rs
    crates/netlist/src/module.rs
)
if grep -n "debug_assert" "${SHARDING_PATHS[@]}"; then
    echo "error: debug_assert! found in sharding/chip/lexer/builder code (use a real guard)" >&2
    exit 1
fi

echo "==> no panicking lock acquisitions in the serve daemon"
# A lock taken with expect/unwrap panics once any holder panicked, and
# from then on the daemon fails every request that needs the lock. The
# daemon's locks recover from poisoning instead. Whitespace is removed
# first, so a call that rustfmt splits across lines is caught too.
if tr -d '[:space:]' < crates/maestro/src/serve.rs | grep -qE '\.lock\(\)\.(expect\(|unwrap\(\))'; then
    echo "error: .lock().expect( or .lock().unwrap() in crates/maestro/src/serve.rs" >&2
    exit 1
fi

echo "==> one .mnl module cutter in the product"
# mnl::split_design is a second, line-based cutter, kept only as the
# benchmark's reference. Product code cuts with mnl::chunks, which cuts
# exactly where the parser would, so every front end reads a design alike.
if grep -rl --include='*.rs' 'split_design(' crates/*/src | grep -vx 'crates/netlist/src/mnl.rs'; then
    echo "error: split_design( used outside crates/netlist/src/mnl.rs (cut with mnl::chunks)" >&2
    exit 1
fi

echo "==> tier-1 gate passed"
