//! The measurement method.
//!
//! Every round is a fresh child process pinned to one CPU (see
//! [`crate::host`]). Workloads are interleaved round-robin, pass after
//! pass, so that drift in the host hits all of them equally; the first
//! pass is a warm-up and is discarded (first-touch page faults and a cold
//! binary made the first runs on this host up to twice as slow). Passes
//! continue until `seconds` per workload have been measured. Host metrics
//! are summarised over the rounds; simulated results and exact counts must
//! be identical in every round of a seed, or the run is reported as
//! nondeterministic and fails.
//!
//! With tracing, every pass also runs each workload once with the span
//! recorder and the program's profiler on. End-to-end metrics still come
//! from the untraced rounds only; the difference between the two kinds of
//! round is `bench.trace_overhead_pct`. The probes, an empty-simulation
//! child (the memory baseline) and, for `fleet_sharded`, a 2-thread leg
//! follow at the end.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::Mode;
use crate::jsonw::{parse, read_num_map, Json};
use crate::metrics::{self, Clock, Source, END_TO_END, PER_LAYER};
use crate::report::{Report, Stamp, WorkloadReport};
use crate::stats::{summarize, Summary};
use crate::{host, workloads};

#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workloads to run, in order; all five when empty.
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Seconds of rounds to measure per workload.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Fewest measured passes, however slow the host.
const MIN_PASSES: usize = 3;
/// Rounds of the 2-thread `fleet_sharded` leg.
const T2_ROUNDS: usize = 2;

#[derive(Default)]
struct Collected {
    plain: Vec<Json>,
    traced: Vec<Json>,
    t2: Vec<Json>,
    probes: BTreeMap<String, f64>,
    empty_rss_kb: Option<f64>,
    errors: Vec<String>,
}

fn child(
    args: &RunArgs,
    workload: &str,
    traced: bool,
    threads: usize,
    mode: Mode,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--mode", mode.label()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(4).collect();
        return Err(format!(
            "{workload} child ({}) ended with {}: {}",
            mode.label(),
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    parse(line).map_err(|e| format!("{workload} child ({}) printed no result: {e}", mode.label()))
}

pub fn run(args: &RunArgs) -> Report {
    let names: Vec<String> = if args.workloads.is_empty() {
        workloads::WORKLOADS
            .iter()
            .map(|w| w.0.to_owned())
            .collect()
    } else {
        args.workloads.clone()
    };
    let mut collected: Vec<Collected> = names.iter().map(|_| Collected::default()).collect();
    let round =
        |c: &mut Collected, name: &str, traced: bool, threads: usize, keep: bool| match child(
            args,
            name,
            traced,
            threads,
            Mode::Round,
        ) {
            Ok(json) if !keep => drop(json),
            Ok(json) if threads > 1 => c.t2.push(json),
            Ok(json) if traced => c.traced.push(json),
            Ok(json) => c.plain.push(json),
            Err(e) => c.errors.push(e),
        };

    // Warm-up pass, discarded.
    for (c, name) in collected.iter_mut().zip(&names) {
        round(c, name, false, 1, false);
    }
    let budget = args.seconds * names.len() as f64;
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        for (c, name) in collected.iter_mut().zip(&names) {
            if c.errors.is_empty() {
                round(c, name, false, 1, true);
                if args.traced {
                    round(c, name, true, 1, true);
                }
            }
        }
        passes += 1;
        if collected.iter().all(|c| !c.errors.is_empty()) {
            break;
        }
    }
    if args.traced {
        for (c, name) in collected.iter_mut().zip(&names) {
            if !c.errors.is_empty() {
                continue;
            }
            match child(args, name, false, 1, Mode::Probes) {
                Ok(json) => c.probes = read_num_map(json.get("timed")),
                Err(e) => c.errors.push(e),
            }
            match child(args, name, false, 1, Mode::Empty) {
                Ok(json) => {
                    c.empty_rss_kb = read_num_map(json.get("host")).get("peak_rss_kb").copied()
                }
                Err(e) => c.errors.push(e),
            }
            if name == "fleet_sharded" {
                for _ in 0..T2_ROUNDS {
                    round(c, name, false, 2, true);
                }
            }
        }
    }

    let stamp = Stamp {
        host_cores: host::host_cores(),
        kernel: host::kernel_release(),
        git_rev: host::git_rev(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.traced,
    };
    let workloads = names
        .iter()
        .zip(collected)
        .map(|(name, c)| assemble(name, c))
        .collect();
    Report { stamp, workloads }
}

fn summary_of(rounds: &[Json], section: &str, key: &str) -> Option<Summary> {
    let values: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.get(section)?.get(key)?.as_f64())
        .collect();
    (!values.is_empty()).then(|| summarize(&values))
}

fn median_of(rounds: &[Json], section: &str, key: &str) -> Option<f64> {
    summary_of(rounds, section, key).map(|s| s.median)
}

/// Turns one workload's rounds into its report: summaries, the exactness
/// check, the derived per-layer numbers.
fn assemble(name: &str, mut c: Collected) -> WorkloadReport {
    let all_rounds = || c.plain.iter().chain(&c.traced).chain(&c.t2);
    let mut errors = std::mem::take(&mut c.errors);
    for r in all_rounds() {
        if let Some(list) = r.get("errors").and_then(Json::as_arr) {
            for e in list.iter().filter_map(Json::as_str) {
                if !errors.iter().any(|have| have == e) {
                    errors.push(e.to_owned());
                }
            }
        }
    }
    if c.plain.is_empty() && errors.is_empty() {
        errors.push("no round completed".to_owned());
    }

    // Simulated results and counts must repeat exactly, traced or not,
    // at any thread count.
    let exact = c
        .plain
        .first()
        .map(|r| read_num_map(r.get("exact")))
        .unwrap_or_default();
    for r in all_rounds().skip(1) {
        let other = read_num_map(r.get("exact"));
        for (k, v) in &exact {
            if other.get(k) != Some(v) {
                errors.push(format!(
                    "nondeterministic: {k} read {v} in one round and {:?} in another of the same seed",
                    other.get(k)
                ));
                break;
            }
        }
    }

    let mut end_to_end = BTreeMap::new();
    for m in &END_TO_END {
        let s = match m.clock {
            Clock::Host => summary_of(&c.plain, "host", m.name),
            Clock::Sim => summary_of(&c.plain, "exact", m.name),
        };
        match s {
            Some(s) => drop(end_to_end.insert(m.name.to_owned(), s)),
            None if errors.is_empty() => errors.push(format!("no round reported {}", m.name)),
            None => {}
        }
    }

    let mut per_layer = BTreeMap::new();
    if !c.traced.is_empty() {
        for m in &PER_LAYER {
            let s = match m.source {
                Source::Count => summary_of(&c.plain, "exact", m.name),
                Source::Timed => summary_of(&c.traced, "timed", m.name),
                Source::Probe => c.probes.get(m.name).map(|&v| summarize(&[v])),
                Source::Host => summary_of(&c.plain, "host", m.name),
            };
            if let Some(s) = s {
                per_layer.insert(m.name.to_owned(), s);
            }
        }
        let mut derived = |name: &str, v: Option<f64>| {
            if let Some(v) = v.filter(|v| v.is_finite()) {
                debug_assert!(metrics::per_layer(name).is_some());
                per_layer.insert(name.to_owned(), summarize(&[v]));
            }
        };
        let plain_run = median_of(&c.plain, "host", "run_s");
        let traced_run = median_of(&c.traced, "host", "run_s");
        derived(
            "bench.trace_overhead_pct",
            plain_run
                .zip(traced_run)
                .map(|(p, t)| (t / p - 1.0) * 100.0),
        );
        derived("bench.rounds", Some(c.plain.len() as f64));
        let clients = c.plain.first().and_then(|r| r.get("clients")?.as_f64());
        derived(
            "simnet.rss_kb_per_client",
            median_of(&c.plain, "host", "peak_rss_kb")
                .zip(c.empty_rss_kb)
                .zip(clients)
                .map(|((rss, empty), n)| (rss - empty) / n),
        );
        derived(
            "simnet.t2_over_t1",
            median_of(&c.t2, "host", "run_s")
                .zip(plain_run)
                .map(|(t2, t1)| t2 / t1),
        );
        // The probes give the cost of framing and unframing one message of
        // this workload's shape; every message is framed and unframed once.
        let msgs = exact
            .get("msgs_per_call")
            .zip(c.plain.first().and_then(|r| r.get("ok")?.as_f64()))
            .map(|(per_call, ok)| per_call * ok);
        derived(
            "wire.est_share",
            c.probes
                .get("wire.frame_ns_per_msg")
                .zip(c.probes.get("wire.unframe_ns_per_msg"))
                .zip(msgs)
                .zip(plain_run)
                .map(|(((f, u), msgs), run_s)| (f + u) * msgs / (run_s * 1e9)),
        );
    }

    let last = c.traced.last();
    let trace = ["spans", "span_sample", "frames"]
        .iter()
        .filter_map(|k| Some(((*k).to_owned(), render(last?.get(k)?))))
        .collect();
    let first = c.plain.first();
    let count = |k: &str| first.and_then(|r| r.get(k)?.as_u64()).unwrap_or(0);
    WorkloadReport {
        name: name.to_owned(),
        sizes: first
            .and_then(|r| r.get("sizes")?.as_str())
            .unwrap_or_default()
            .to_owned(),
        rounds: c.plain.len(),
        traced_rounds: c.traced.len(),
        attempted: count("attempted"),
        failed: count("failed"),
        errors,
        end_to_end,
        per_layer,
        exact,
        trace,
    }
}

/// Renders a parsed JSON value again.
fn render(v: &Json) -> String {
    use crate::jsonw::{array, num, object, quote};
    match v {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => num(*n),
        Json::Str(s) => quote(s),
        Json::Arr(items) => array(items.iter().map(render)),
        Json::Obj(m) => object(m.iter().map(|(k, v)| (k, render(v)))),
    }
}
