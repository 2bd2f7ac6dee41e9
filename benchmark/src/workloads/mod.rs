//! The five workloads. Each builds a simulation from seeded inputs, runs
//! it to quiescence under the clock, and checks every output it got back.
//!
//! All of them are closed loops: a client issues its next call when the
//! previous one completes (`pipeline_blob` keeps a fixed window of calls
//! open instead of one).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::sut::{self, Simulation};
use crate::trace;

pub mod bulk_edge;
pub mod fleet;
pub mod pipeline_blob;
pub mod proxy_cache;

/// Name and one-line reason of each workload, in the order they run.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fleet_stub",
        "poll-driven stub clients with tiny messages: scheduler, process table, naming and span bookkeeping do the work, codec and CRC almost none",
    ),
    (
        "fleet_sharded",
        "the same traffic over 8 scheduler domains: every request crosses a domain boundary through the outbox merge",
    ),
    (
        "pipeline_blob",
        "windowed, batched 4 KiB calls under loss and duplication: wire and rpc do the work; naming, core and services are bypassed",
    ),
    (
        "proxy_cache",
        "Zipf reads and owner writes through caching proxies: hits stay inside the client, writes fan out invalidations, the cache evicts",
    ),
    (
        "bulk_edge",
        "by-reference payloads over a WAN through per-region edge caches: bytes, chunking and CRC dominate; p99 is the cold-miss path",
    ),
];

/// What clients report back; merged once per client, when it ends.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Simulated latency of every invocation that returned `Ok`.
    pub latencies_ns: Vec<u64>,
    pub clients_done: u64,
    /// Output checks that failed (the first few, verbatim).
    pub errors: Vec<String>,
    pub errors_dropped: u64,
}

impl Tally {
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        } else {
            self.errors_dropped += 1;
        }
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.error(msg());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latencies_ns.extend(other.latencies_ns);
        self.clients_done += other.clients_done;
        self.errors_dropped += other.errors_dropped;
        for e in other.errors {
            self.error(e);
        }
    }
}

pub type SharedTally = Arc<Mutex<Tally>>;

pub fn merge_into(shared: &SharedTally, local: Tally) {
    shared.lock().expect("tally poisoned").merge(local);
}

pub fn take(shared: &SharedTally) -> Tally {
    std::mem::take(&mut *shared.lock().expect("tally poisoned"))
}

/// One run of a workload, before any metric is derived from it.
#[derive(Debug)]
pub struct Outcome {
    pub timed: Timed,
    pub tally: Tally,
    /// Client processes the benchmark spawned.
    pub clients: u64,
    /// Exact counts only this workload can take (channel statistics,
    /// its own hit ratio): `(metric name, value)`.
    pub counts: Vec<(&'static str, f64)>,
    /// The sizes this run used, for the result file.
    pub sizes: String,
}

/// What the clock and the program's reports say about one run.
#[derive(Debug)]
pub struct Timed {
    /// Process start to the call of `Simulation::run`.
    pub setup: Duration,
    /// Host time inside `Simulation::run`.
    pub run_wall: Duration,
    /// The same interval on the span recorder's clock.
    pub run_window: (u64, u64),
    pub sim: simnet::RunReport,
    pub obs: obs::RunReport,
}

/// Runs the simulation under the clock and collects what every workload
/// reports the same way. A traced run also arms the program's profiler.
pub fn timed_run(sim: &mut Simulation, started: Instant) -> Timed {
    if trace::enabled() {
        sut::enable_profile(sim);
    }
    let setup = started.elapsed();
    let from = trace::now_ns();
    let t0 = Instant::now();
    let report = sut::run(sim);
    let run_wall = t0.elapsed();
    Timed {
        setup,
        run_wall,
        run_window: (from, trace::now_ns()),
        sim: report,
        obs: sut::obs_report(sim),
    }
}

/// Runs the named workload once in this process. `threads` only matters
/// to `fleet_sharded`.
pub fn run(
    name: &str,
    smoke: bool,
    seed: u64,
    threads: usize,
    started: Instant,
) -> Option<Outcome> {
    Some(match name {
        "fleet_stub" => fleet::run(&fleet::sizes(smoke), 1, 1, seed, started),
        "fleet_sharded" => fleet::run(&fleet::sizes(smoke), 8, threads, seed, started),
        "pipeline_blob" => pipeline_blob::run(&pipeline_blob::sizes(smoke), seed, started),
        "proxy_cache" => proxy_cache::run(&proxy_cache::sizes(smoke), seed, started),
        "bulk_edge" => bulk_edge::run(&bulk_edge::sizes(smoke), seed, started),
        _ => return None,
    })
}

/// Request and reply values shaped like the named workload's own
/// messages: the input of the `wire` probes.
pub fn sample_messages(name: &str, seed: u64) -> Vec<sut::Value> {
    match name {
        "fleet_stub" | "fleet_sharded" => fleet::sample_messages(seed),
        "pipeline_blob" => pipeline_blob::sample_messages(seed),
        "proxy_cache" => proxy_cache::sample_messages(seed),
        "bulk_edge" => bulk_edge::sample_messages(seed),
        _ => Vec::new(),
    }
}
