#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build (fmt + clippy + doc + tests)
#   ./ci.sh identity REV   # not part of the gate: see below
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

if [ "${1:-}" = identity ]; then
  # A change that must move no event shows it here, in one command: the
  # trace artifacts the gate compares run to run (E3, E4, E7, E10, E11,
  # E12 and E13 at full size, E19 in smoke mode, and E15's flight
  # recording: its trace and the report that carries its windows and
  # exemplars), and those of the caching and adaptive proxies (E2 at 90%
  # reads, E9), are exported by REV, built in a worktree under target/
  # with a target dir of its own, and by the working tree, and must be
  # byte-identical.
  rev="${2:?usage: ./ci.sh identity REV}"
  wt=target/identity/worktree
  unwork() { git worktree remove --force "$wt" 2>/dev/null || true; git worktree prune; }
  trap unwork EXIT
  unwork
  rm -rf target/identity/base target/identity/work
  git worktree add --detach "$wt" "$rev"
  export_traces() { # $1: checkout, $2: its target dir, $3: where the traces go
    step "E2-E19 traces of $1"
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build -q --release -p bench)
    for e in e2_cache_sweep e3_migration e4_replication e7_loss e9_adaptive e10_forwarding \
             e11_recovery e12_dsm e13_pipeline e15_flight; do
      PROXIDE_TRACE_DIR="$3" "$2/release/$e" >/dev/null
    done
    PROXIDE_SMOKE=1 PROXIDE_TRACE_DIR="$3" "$2/release/e19_bulkplane" >/dev/null
  }
  here="$(pwd)"
  export_traces "$wt" "$here/target/identity/target" "$here/target/identity/base"
  export_traces . "${CARGO_TARGET_DIR:-$here/target}" "$here/target/identity/work"
  step "byte identity against $rev"
  for t in e2-cache-inv-90 e2-cache-lease-90 e3-migratory-n200 e4-reads-3 e4-writes-sync \
           e4-writes-async e7-loss-30 e9-always-caching e9-adaptive e10-nexthop-k8 \
           e10-resolve-k8 e11-checkpoint-every-5 e12-locality e12-pingpong e13-depth-8 \
           e15-flight e19-t1; do
    cmp "target/identity/base/$t.trace.jsonl" "target/identity/work/$t.trace.jsonl"
    echo "identical: $t"
  done
  cmp target/identity/base/e15-flight.report.json target/identity/work/e15-flight.report.json
  echo "identical: e15-flight.report.json"
  printf '\nci.sh: every trace identical to %s\n' "$rev"
  exit 0
fi

# A green gate leaves the working tree as it found it; checked at the end.
tree() { git status --porcelain 2>/dev/null || true; }
tree_at_start="$(tree)"

step "cargo fmt --check"
cargo fmt --all -- --check

step "census of blocking calls (every program body is async)"
# Every process body in the program is an `async` body
# (Simulation::spawn_async). Blocking bodies, the bridge that runs the
# engine on their stacks and hand-written machines remain only for the
# benchmark (benchmark/src/sut.rs, which nothing here compiles) and for
# tests. So the non-test code of crates/*/src (simnet's own, which
# defines them, aside), examples/ and src/ (a file up to its first
# column-0 `#[cfg(test)]`, comments skipped) may make none of these calls:
# a blocking spawn (`.spawn(`/`.spawn_at(` given a process name, not a
# ServiceBuilder's simulation), `block_on(`, a bridge call
# (SessionCore::{bind, invoke, shutdown}, Channel::wait or
# RpcServer::serve, each given the body's `ctx`) or `spawn_poll`. Each is
# listed with the function it is in, and the list must be exactly the
# bridge's own definitions, which run the engine through `block_on`. The
# tickets (SessionCore::{bind_async, poll_bind, invoke_async, poll_call})
# may appear only in crates/bench/src/fleet.rs, the ticket fleet E16 and
# the budgets table run.
census="$(for f in $(find crates/*/src examples src -name '*.rs' -not -path 'crates/simnet/*' | sort); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /block_on\(/ { print f " " fn ": block_on" }
    /\.spawn(_at)?\(/ && !/\.spawn(_at)?\((&?sim|self|ctx|cx)[,)]/ { print f " " fn ": blocking spawn" }
    /\.(bind|invoke|shutdown|wait|serve)\(ctx[,)]/ { print f " " fn ": bridge" }
    /spawn_poll(_at)?\(/ { print f " " fn ": spawn_poll" }
    /\.(bind_async|poll_bind|invoke_async|poll_call)\(/ && f != "crates/bench/src/fleet.rs" {
      print f " " fn ": ticket" }' "$f"
done)"
bridge="crates/core/src/session_core.rs bind: block_on
crates/core/src/session_core.rs invoke: block_on
crates/core/src/session_core.rs invoke: block_on
crates/core/src/session_core.rs shutdown: block_on
crates/rpc/src/channel.rs wait: block_on"
if [ "$census" != "$bridge" ]; then
  printf 'blocking calls outside the bridge:\n%s\n' "$census"
  exit 1
fi

step "census of thread creation (one thread runs the scheduler)"
# The thread that drives a simulation runs every event itself.
# The one OS thread program code may start is a blocking body's own, on
# targets without the coroutine hand-off (crates/simnet/src/thread_handoff.rs).
# Each `thread::Builder`, `thread::spawn` or `thread::scope` in the
# non-test code of crates/*/src (a file up to its first column-0
# `#[cfg(test)]`, comments skipped) is listed, and the list must be
# exactly that file's one.
threads="$(for f in $(find crates/*/src -name '*.rs' | sort); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /thread::(Builder|spawn|scope)/ { print f }' "$f"
done)"
if [ "$threads" != "crates/simnet/src/thread_handoff.rs" ]; then
  printf 'OS threads started outside the blocking-body hand-off:\n%s\n' "$threads"
  exit 1
fi

step "census of the partition's knobs (one event heap, no writer lanes)"
# A simulation runs one event heap and the obs registry one writer.
# `Simulation::with_domains` and `with_threads` stay as documented
# no-ops for the benchmark (benchmark/src/sut.rs) until it stops calling
# them; nothing in the program may. Each call of either, and each
# `set_writer_lanes` or `set_ambient_lane`, in the non-test code of
# crates/*/src, examples/ and src/ (a file up to its first column-0
# `#[cfg(test)]`, comments skipped) is listed, and the list must be
# empty. Tests may call the no-ops to show they change nothing.
knobs="$(for f in $(find crates/*/src examples src -name '*.rs' | sort); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /\.with_(domains|threads)\(|set_writer_lanes|set_ambient_lane/ { print f ": " $0 }' "$f"
done)"
if [ -n "$knobs" ]; then
  printf 'the scheduler partition or the obs writer lanes are back:\n%s\n' "$knobs"
  exit 1
fi

step "census of unsafe (the buffers, the codec and the simulator add none)"
# Each directory's non-comment lines that say `unsafe`, tests included,
# may not grow past the count pinned here: the buffers' one is the
# zeroed block `BytesMut` writes into, the codec's are the CRC kernel's
# SIMD and the validated-UTF-8 strings, the simulator's the coroutine
# a blocking body runs on (its stack mapping and the switch). Lower a
# count when a change removes one.
for pin in "vendor/bytes/src 1" "crates/wire/src 6" "crates/simnet/src 18"; do
  set -- $pin
  n="$(find "$1" -name '*.rs' -exec cat {} + | awk '/^[[:space:]]*\/\// { next } /unsafe/ { n++ } END { print n + 0 }')"
  if [ "$n" -gt "$2" ]; then
    printf '%s: %s lines say unsafe, more than the %s pinned\n' "$1" "$n" "$2"
    exit 1
  fi
done

step "census of simnet's non-test lines (the simulator may shrink, never grow)"
# Every file of crates/simnet/src up to its first column-0 `#[cfg(test)]`,
# cut as the censuses above cut it. Comment and blank lines count too:
# the simulator's doc comments are read as its code is, and this is the
# count ROADMAP's aim-2 target for simnet (3 300 lines) was set on. The
# total may not grow past the count pinned here; a change that removes
# lines lowers the pin.
simnet_lines="$(for f in $(find crates/simnet/src -name '*.rs' | sort); do
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ n += $1 } END { print n + 0 }')"
if [ "$simnet_lines" -gt 3690 ]; then
  printf 'crates/simnet/src: %s non-test lines, more than the 3690 pinned\n' "$simnet_lines"
  exit 1
fi

step "census of rpc's, core's and naming's non-test lines (the transport, the proxy core and the name service may shrink, never grow)"
# Cut as simnet's census above cuts it: every file up to its first
# column-0 `#[cfg(test)]`, comments and blank lines included. Each total
# may not grow past the count pinned here; a change that removes lines
# lowers its pin.
for pin in "crates/rpc/src 2638" "crates/core/src 4772" "crates/naming/src 587"; do
  set -- $pin
  n="$(for f in $(find "$1" -name '*.rs' | sort); do
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
  done | awk '{ n += $1 } END { print n + 0 }')"
  if [ "$n" -gt "$2" ]; then
    printf '%s: %s non-test lines, more than the %s pinned\n' "$1" "$n" "$2"
    exit 1
  fi
done

step "census of keyed records (the program's own messages are positional)"
# The transport, the name service, migration and replication encode every
# message they both write and read as a positional list, so their non-test
# code (a file up to its first column-0 `#[cfg(test)]`, comments skipped:
# a doc example of a service's keyed arguments is a comment) builds no
# `Value::record`. Each one found is listed, and the list must be empty.
records="$(for f in $(find crates/rpc/src crates/naming/src crates/migration/src crates/replication/src -name '*.rs' | sort); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /Value::record\(/ { print f ": " $0 }' "$f"
done)"
if [ -n "$records" ]; then
  printf 'keyed records in a positional protocol:\n%s\n' "$records"
  exit 1
fi

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

step "cargo test --release -p wire -p bytes (the CRC kernel and the buffers as they ship)"
# `#[target_feature]` SIMD code inlines and schedules differently under
# optimisation, and the benchmark and every experiment run the release
# build. Sender and receiver share the kernel, so a wrong checksum still
# round-trips: only wire's known-answer and differential tests catch it,
# and they have to catch it in the build that is measured. The vendored
# `bytes` holds every frame, string and blob in one block it builds
# itself (`unsafe` in one place); its own tests and wire's
# representation pins (`tests/bytes_repr.rs`) run in that build too.
cargo test -q --release -p wire -p bytes

step "cargo test --release -p simnet (the stack switch as it ships)"
# A blocking process body runs on a stack of its own, entered and left
# through `unsafe` code and a few lines of assembly. How much stack a
# frame takes, what is inlined around the switch and which registers
# are live across it all differ under optimisation, and the benchmark
# and every experiment run the release build: the hand-off's own tests
# and tests/blocking_process.rs have to pass in that build too.
cargo test -q --release -p simnet

step "cargo test --release -p rpc (the envelope decoder as it ships)"
# Every datagram is decoded in one pass over its frame: a depth guard,
# canonical-varint and length checks, and keys borrowed straight from
# the buffer. The differential proptest against the tree decoder and the
# pinned allocation counts have to hold in the build that is measured.
cargo test -q --release -p rpc

step "cargo test --release -p bench --test budgets (per-call costs as they ship)"
# The exact datagrams, frames, decodes, spans and allocations every call
# of four of the benchmark's workload shapes costs (`fleet_sharded` runs
# `fleet_stub`'s simulation). The benchmark measures
# the release build, so the pinned table has to hold in that build too.
cargo test -q --release -p bench --test budgets

step "cargo test -p bench --test alloc_attribution -- --ignored (who makes the fleet_stub row's costs)"
# The attribution of the budgets fleet_stub row's allocations and of its
# live bytes at the high-water mark, by caller. Ignored under tier-1
# (every allocation's backtrace is symbolised); here each table's total
# must equal its budgets cell, so the instrument cannot drift from the
# table it explains. Debug build, where every function keeps its frame.
cargo test -q -p bench --test alloc_attribution -- --ignored

step "cargo test --release -p proxy-core --test future_sizes (future sizes as they ship)"
# The exact size of each client-engine future, one column per build
# profile; tier-1 checks the debug column, this step the release one.
cargo test -q --release -p proxy-core --test future_sizes

if [ "${1:-}" != "quick" ]; then
  step "cargo build --release (experiment harness)"
  cargo build --release -p bench

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

  step "the paper's evaluation: E1-E7, E9-E13 (each exits 1 on a failed shape check)"
  # The experiments that reproduce the paper's claims; together they take
  # well under a second in the release build. Their tables are printed
  # only when a check fails. E3, E4, E7, E10, E11, E12 and E13 export the
  # causal traces checked right after.
  for e in e1_access_methods e2_cache_sweep e3_migration e4_replication e5_local_fastpath \
           e6_binding_cost e7_loss e9_adaptive e10_forwarding e11_recovery e12_dsm e13_pipeline; do
    if ! out="$(cargo run -q --release -p bench --bin "$e")"; then
      printf '%s\n' "$out"
      echo "ci.sh: $e failed a shape check" >&2
      exit 1
    fi
  done
  for t in e3-migratory-n200 e4-reads-3 e4-writes-sync e4-writes-async e7-loss-30 \
           e10-nexthop-k8 e10-resolve-k8 e11-checkpoint-every-5 e12-locality e12-pingpong \
           e13-depth-8; do
    cargo run -q --release -p bench --bin tracectl -- check target/traces/$t.trace.jsonl
  done
  # A second run of E3, E4, E7, E10, E11, E12 and E13 must pass its
  # checks again and export the same traces, byte for byte. E11's client
  # rides a crash through a timeout, a relookup and a rebind. E3's clients are
  # blocking bodies, polled through the scheduler's body adapter like
  # every other process. E7's servers answer
  # duplicates under loss and duplication, decoding each datagram once
  # whatever their reply cache holds; E13's channels batch, and a
  # batched call's own frame is built lazily, at its first lone send
  # (E19's bulk transfers batch too; its second run follows its smoke
  # below). E4, E10 and E12 run the replica, the
  # migration host and forwarder, and the DSM manager and pager, whose
  # handlers park their requests while they call out.
  for pair in e3_migration:e3-migratory-n200 e7_loss:e7-loss-30 e13_pipeline:e13-depth-8 \
              e11_recovery:e11-checkpoint-every-5 \
              e4_replication:e4-reads-3,e4-writes-sync,e4-writes-async \
              e10_forwarding:e10-nexthop-k8,e10-resolve-k8 e12_dsm:e12-locality,e12-pingpong; do
    e="${pair%%:*}" traces="${pair#*:}"
    for t in ${traces//,/ }; do
      mv target/traces/$t.trace.jsonl target/traces/$t.first.trace.jsonl
    done
    cargo run -q --release -p bench --bin "$e" >/dev/null
    for t in ${traces//,/ }; do
      cmp target/traces/$t.first.trace.jsonl target/traces/$t.trace.jsonl
    done
  done

  step "E16, E17, E19 and E20 smokes (PROXIDE_SMOKE=1: CI sizes, every shape check on)"
  # Each binary exits nonzero if a shape check fails: completion,
  # determinism, conservation, at-most-once, purity, and the within-run
  # ratio and simulated-time gates of E17, E19 and E20. Wall-clock is
  # printed, not judged; that is benchmark/'s job. E19 and E20 export
  # the traces the gates below read; E19's must be well-formed.
  for e in e16_million e17_obsplane e19_bulkplane e20_profiler; do
    PROXIDE_SMOKE=1 cargo run -q --release -p bench --bin "$e"
  done
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e19-t1.trace.jsonl
  # A second E19 smoke must export the same trace, byte for byte. Its
  # transfers send their chunk calls in batches, and the blob
  # store and the edge caches splice the replies they recorded into
  # their reply batches, fresh and retransmitted alike. The edges batch
  # their origin calls too, and coalesce the fills one origin reply
  # settles into one completion: one datagram per waiting client.
  mv target/traces/e19-t1.trace.jsonl target/traces/e19-t1.first.trace.jsonl
  PROXIDE_SMOKE=1 cargo run -q --release -p bench --bin e19_bulkplane >/dev/null
  cmp target/traces/e19-t1.first.trace.jsonl target/traces/e19-t1.trace.jsonl

  step "flamegraph gate (folded export validates + tracectl flame round-trips)"
  # The E20 smoke above exported the collapsed flamegraph and the
  # RunReport it came from. Both must validate, and re-deriving the
  # folded file from the report must reproduce it byte for byte.
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e20-profile.folded
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e20-profile.report.json
  cargo run -q --release -p bench --bin tracectl -- flame \
    target/traces/e20-profile.report.json --out=target/traces/e20-profile.rt.folded
  cmp target/traces/e20-profile.folded target/traces/e20-profile.rt.folded

  step "E15 flight-recorder smoke (windowed telemetry + exemplars + validators)"
  # Runs the chaos sweep, asserts re-bucketing invariance, conservation,
  # exemplar tiling, and exports the report checked below.
  cargo run -q --release -p bench --bin e15_flight
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e15-flight.report.json
  # A second run must export the same report, byte for byte. It carries
  # the watchdog's exemplars, each pinned against the history of the
  # calls before it, and the flight recording's windows.
  mv target/traces/e15-flight.report.json target/traces/e15-flight.first.report.json
  cargo run -q --release -p bench --bin e15_flight >/dev/null
  cmp target/traces/e15-flight.first.report.json target/traces/e15-flight.report.json

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
