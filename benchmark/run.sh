#!/usr/bin/env bash
# The repo's benchmark, one command (run from anywhere):
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh compare BASE.json CANDIDATE.json
#
# Builds proxbench from source with the default release profile (no LTO or
# codegen tweaks: it measures what `cargo build --release` ships), then runs
# every workload (or the one named), checks the outputs, prints every metric
# and writes benchmark/results/latest.json. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# The build's chatter goes to standard error: the last line of standard
# output belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

bin="$target/release/proxbench"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
exec "$bin" run --results "$here/results" "$@"
