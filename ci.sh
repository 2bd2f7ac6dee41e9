#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build (fmt + clippy + doc + tests)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# A green gate leaves the working tree as it found it; checked at the end.
tree() { git status --porcelain 2>/dev/null || true; }
tree_at_start="$(tree)"

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (broken or private intra-doc links are errors)"
# Deleting or hiding a public item orphans every [`link`] to it, and
# nothing else notices: rustdoc only warns.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "cargo test (workspace)"
# What tier-1's `cargo test -q` runs (`default-members`: the root
# package and every crate) plus the self-tests of the vendored
# stand-ins; here so a red suite stops the gate before the release build.
cargo test --workspace -q

step "cargo test --release -p wire (the CRC kernel as it ships)"
# `#[target_feature]` SIMD code inlines and schedules differently under
# optimisation, and the benchmark and every experiment run the release
# build. Sender and receiver share the kernel, so a wrong checksum still
# round-trips: only wire's known-answer and differential tests catch it,
# and they have to catch it in the build that is measured.
cargo test -q --release -p wire

step "cargo test --release -p simnet (the stack switch as it ships)"
# A blocking process body runs on a stack of its own, entered and left
# through `unsafe` code and a few lines of assembly. How much stack a
# frame takes, what is inlined around the switch and which registers
# are live across it all differ under optimisation, and the benchmark
# and every experiment run the release build: the hand-off's own tests
# and tests/blocking_process.rs have to pass in that build too.
cargo test -q --release -p simnet

if [ "${1:-}" != "quick" ]; then
  step "cargo build --release (experiment harness)"
  cargo build --release -p bench

  step "cargo bench --no-run (Criterion benches must compile)"
  cargo bench -p bench --no-run

  step "examples (the user-facing API: each must end with '<name> OK')"
  for x in quickstart persistent_store replicated_directory file_cache mobile_document shared_whiteboard; do
    out="$(cargo run -q --release --example "$x")"
    if [ "$(printf '%s\n' "$out" | tail -n 1)" != "$x OK" ]; then
      printf '%s\n' "$out"
      echo "ci.sh: example $x did not end with '$x OK'" >&2
      exit 1
    fi
  done

  step "benchmark/ builds and its smoke run passes (small sizes, every output check on)"
  # The benchmark is a workspace of its own, so nothing above compiles
  # benchmark/src/sut.rs — the one file through which it calls the
  # program. A change to that surface has to fail here, not in the
  # acceptance pipeline. run.sh builds `--offline` without `--locked`,
  # and the committed benchmark/Cargo.lock lists crates the workspace no
  # longer has, so cargo rewrites it: put it back, pass or fail.
  cp benchmark/Cargo.lock target/ci-benchmark-Cargo.lock
  smoke=0
  bash benchmark/run.sh --smoke || smoke=$?
  mv target/ci-benchmark-Cargo.lock benchmark/Cargo.lock
  [ "$smoke" -eq 0 ] || exit "$smoke"

  step "E14, E16-E20 smokes (PROXIDE_SMOKE=1: CI sizes, every shape check on)"
  # Each binary exits nonzero if a shape check fails: completion,
  # determinism, conservation, at-most-once, purity, byte-identity
  # across thread counts, and the within-run ratio and simulated-time
  # gates of E17, E19 and E20. Wall-clock is printed, not judged; that
  # is benchmark/'s job. E18-E20 export the traces the gates below read.
  for e in e14_hotpath e16_million e17_obsplane e18_multicore e19_bulkplane e20_profiler; do
    PROXIDE_SMOKE=1 cargo run -q --release -p bench --bin "$e"
  done

  step "flamegraph gate (folded export validates + tracectl flame round-trips)"
  # The E20 smoke above exported the collapsed flamegraph and the
  # RunReport it came from. Both must validate, and re-deriving the
  # folded file from the report must reproduce it byte for byte.
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e20-profile.folded
  cargo run -q --release -p bench --bin tracectl -- flame \
    target/traces/e20-profile.report.json --out=target/traces/e20-profile.rt.folded
  cmp target/traces/e20-profile.folded target/traces/e20-profile.rt.folded

  step "threaded-determinism gate (1-thread vs 4-thread trace artifacts)"
  # The E18/E19 smoke runs above exported the causal traces of their
  # 1-thread and 4-thread legs. All must be well-formed and each pair
  # byte-for-byte equal: threads are a wall-clock knob, never an
  # ordering knob.
  for e in e18 e19; do
    cargo run -q --release -p bench --bin tracectl -- check target/traces/$e-t1.trace.jsonl
    cargo run -q --release -p bench --bin tracectl -- check target/traces/$e-t4.trace.jsonl
    cmp target/traces/$e-t1.trace.jsonl target/traces/$e-t4.trace.jsonl
  done

  step "E15 flight-recorder smoke (windowed telemetry + exemplars + validators)"
  # Runs the chaos sweep, asserts re-bucketing invariance, conservation,
  # exemplar tiling, and exports artifacts for the checks below.
  cargo run -q --release -p bench --bin e15_flight
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e15-flight.timeseries.csv
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e15-flight.report.json

  step "tracectl smoke (trace export + round-trip + critical-path self-check)"
  # Exits nonzero on malformed Chrome output, a failed JSONL round-trip,
  # no reconstructable critical path, component sums off by >1%, or any
  # verify_causality() violation.
  cargo run -q --release -p bench --bin tracectl -- smoke

  step "chaos causality gate (verify_causality under loss/partitions/crashes)"
  cargo test -q --test chaos
fi

step "working tree untouched (git status as at the start)"
if [ "$(tree)" != "$tree_at_start" ]; then
  tree
  echo "ci.sh: the gate changed the working tree" >&2
  exit 1
fi

printf '\nci.sh: all green\n'
