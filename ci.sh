#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build (fmt + clippy + tests)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo test (workspace)"
# Every crate's suites, among them the ones pinning the non-blocking
# edge and its transport: rpc/tests/dedup_window.rs + pipeline.rs
# (deferred replies answered exactly once, retransmit timers learned per
# path, loss repaired a round trip after a later call overtook it while
# the policy alone gives up) and services/tests/bulk_plane.rs (no
# head-of-line blocking, single-flight fills, invalidation against an
# in-flight fill), and the
# ones pinning directory invalidation: core/src/sharers.rs (unit),
# core/tests/proxies_e2e.rs (a write reaches its key's readers and
# nobody else), runtime_routing.rs (overtaking, replayed and stale
# invalidations), proptest_core.rs (three caching clients against an
# oracle), obs_invariance.rs (caching clients over 4 domains, 1 vs 4
# threads, byte-identical) and the republish case in bulk_plane.rs.
cargo test --workspace -q

if [ "${1:-}" != "quick" ]; then
  step "cargo build --release (experiment harness)"
  cargo build --release -p bench

  step "cargo bench --no-run (Criterion benches must compile)"
  cargo bench -p bench --no-run

  step "benchmark/ builds and its smoke run passes (small sizes, every output check on)"
  # The benchmark is a workspace of its own, so nothing above compiles
  # benchmark/src/sut.rs — the one file through which it calls the
  # program. A change to that surface has to fail here, not in the
  # acceptance pipeline.
  bash benchmark/run.sh --smoke

  step "E14 macro-benchmark smoke (closed-loop hot path + BENCH_e14.json)"
  # Shrunken workload; asserts the closed loop completes, the run is
  # deterministic, batching beats 2 msgs/call, and the artifact writes.
  # PROXIDE_BENCH_DIR keeps the committed full-mode BENCH_e14.json intact.
  PROXIDE_E14_SMOKE=1 PROXIDE_BENCH_DIR=target \
    cargo run -q --release -p bench --bin e14_hotpath

  step "perfgate (regression gate against the committed E14 baseline)"
  # Strict self-compare: the committed baseline must gate cleanly against
  # itself (artifact well-formed, all metrics within tolerance).
  cargo run -q --release -p bench --bin perfgate -- BENCH_e14.json BENCH_e14.json
  # The smoke artifact runs a shrunken config, so it is legitimately
  # incomparable with the full-mode baseline: warn-only keeps the step
  # green while still exercising the comparability refusal path.
  cargo run -q --release -p bench --bin perfgate -- --warn-only \
    target/BENCH_e14.json BENCH_e14.json

  step "E16 million-process smoke (poll-driven fleet + BENCH_e16.json)"
  # ~2k poll-driven clients; asserts every client completes, the whole
  # fleet is concurrently parked, and the process table stays bounded.
  PROXIDE_E16_SMOKE=1 PROXIDE_BENCH_DIR=target \
    cargo run -q --release -p bench --bin e16_million

  step "perfgate (E16 baseline self-compare + warn-only smoke compare)"
  cargo run -q --release -p bench --bin perfgate -- BENCH_e16.json BENCH_e16.json
  # Smoke runs a shrunken fleet: incomparable config, warn-only.
  cargo run -q --release -p bench --bin perfgate -- --warn-only \
    target/BENCH_e16.json BENCH_e16.json

  step "E17 observability-plane smoke (obs-on vs obs-off + BENCH_e17.json)"
  # ~20k clients, two legs (instrumented vs dark); asserts retirement
  # conserves spans, the table ends O(open + sampled), self-measurement
  # records the plane's own cost, and overhead stays under 2x.
  PROXIDE_E17_SMOKE=1 PROXIDE_BENCH_DIR=target \
    cargo run -q --release -p bench --bin e17_obsplane

  step "perfgate (E17 baseline self-compare + warn-only smoke compare)"
  cargo run -q --release -p bench --bin perfgate -- BENCH_e17.json BENCH_e17.json
  # Smoke runs a shrunken fleet: incomparable config, warn-only.
  cargo run -q --release -p bench --bin perfgate -- --warn-only \
    target/BENCH_e17.json BENCH_e17.json

  step "E18 multi-core scheduler smoke (thread sweep + BENCH_e18.json)"
  # 1k poll-driven clients over 8 domains, run at 1/2/4 worker threads;
  # asserts every leg is byte-identical to the 1-thread run (summary,
  # causal trace, RunReport JSON), zero time inversions, and the >=3x
  # speedup gate arms only on hosts with >= 4 cores.
  PROXIDE_E18_SMOKE=1 PROXIDE_BENCH_DIR=target \
    cargo run -q --release -p bench --bin e18_multicore

  step "perfgate (E18 baseline self-compare + warn-only smoke compare)"
  cargo run -q --release -p bench --bin perfgate -- BENCH_e18.json BENCH_e18.json
  # Smoke runs a shrunken sweep: incomparable config, warn-only.
  cargo run -q --release -p bench --bin perfgate -- --warn-only \
    target/BENCH_e18.json BENCH_e18.json

  step "E19 bulk-data-plane smoke (pass-by-ref + edge caches + BENCH_e19.json)"
  # 3 WAN regions under Zipf + flash-crowd traffic; asserts by-reference
  # results are bit-identical to inline marshalling, >=5x fewer RPC-path
  # bytes through the catalog, the edge hierarchy absorbs repeat fetches,
  # the cold-miss tail stays within 3x of inline per region, only
  # warming paths retransmit on the loss-free network, and the bulk leg
  # is byte-identical across 1/4 scheduler threads.
  PROXIDE_E19_SMOKE=1 PROXIDE_BENCH_DIR=target \
    cargo run -q --release -p bench --bin e19_bulkplane

  step "perfgate (E19 baseline self-compare + warn-only smoke compare)"
  cargo run -q --release -p bench --bin perfgate -- BENCH_e19.json BENCH_e19.json
  # Smoke runs a shrunken workload: incomparable config, warn-only.
  cargo run -q --release -p bench --bin perfgate -- --warn-only \
    target/BENCH_e19.json BENCH_e19.json

  step "E20 continuous-profiler smoke (overhead + conservation + BENCH_e20.json)"
  # E18 workload, off/on interleaved x5 after a warmup (+ a 4-thread leg);
  # asserts phase walls tile the round wall exactly, frame paths+calls
  # are byte-identical across runs and thread counts, profiling leaves
  # the trace untouched, and the folded flamegraph exports canonically.
  PROXIDE_E20_SMOKE=1 PROXIDE_BENCH_DIR=target \
    cargo run -q --release -p bench --bin e20_profiler

  step "perfgate (E20 baseline self-compare + warn-only smoke compare)"
  cargo run -q --release -p bench --bin perfgate -- BENCH_e20.json BENCH_e20.json
  # Smoke runs a shrunken workload: incomparable config, warn-only.
  cargo run -q --release -p bench --bin perfgate -- --warn-only \
    target/BENCH_e20.json BENCH_e20.json

  step "flamegraph gate (folded export validates + tracectl flame round-trips)"
  # The smoke run above exported the collapsed flamegraph and the
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
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e18-t1.trace.jsonl
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e18-t4.trace.jsonl
  cmp target/traces/e18-t1.trace.jsonl target/traces/e18-t4.trace.jsonl
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e19-t1.trace.jsonl
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e19-t4.trace.jsonl
  cmp target/traces/e19-t1.trace.jsonl target/traces/e19-t4.trace.jsonl

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

printf '\nci.sh: all green\n'
