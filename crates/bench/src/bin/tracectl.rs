//! `tracectl` — run, export, validate, and analyze causal traces.
//!
//! The trace pipeline's command-line face. `run` drives a chaos
//! scenario (lossy network plus a partition window) through the full
//! proxy stack, exports the merged span + network-event trace in both
//! JSONL and Chrome Trace Format, and prints the critical-path
//! analysis. `analyze` and `check` work offline on exported files, and
//! `smoke` is the self-checking variant CI runs: it fails the process
//! unless the trace round-trips, the Chrome export validates, at least
//! one complete critical path reconstructs with components summing to
//! the span's measured duration within 1%, and the causality checker
//! reports no violations.
//!
//! ```text
//! tracectl run [--loss=P] [--dup=P] [--seed=N] [--rounds=N] [--clients=N]
//!              [--top=K] [--sample=N] [--out=DIR]
//! tracectl analyze <trace.jsonl> [--top=K]
//! tracectl check <artifact>     # trace JSONL, Chrome trace, run report, or folded flamegraph
//! tracectl flame <report.json> [--out=FILE]
//! tracectl smoke
//! ```
//!
//! Every option is one argument, `--flag=value`.

use std::process::ExitCode;
use std::time::Duration;

use bench::experiments::e15_flight::spawn_chaos;
use bench::{redeem, Table};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};

/// What `tracectl` prints for a command it does not know.
const USAGE: &str = "\
usage: tracectl <run|analyze|check|flame|smoke> [options]

run     [--loss=P] [--dup=P] [--seed=N] [--rounds=N] [--clients=N]
        [--top=K] [--sample=N] [--out=DIR]   drive a chaos run, export + analyze
analyze <trace.jsonl> [--top=K]                analyze an exported trace
check   <artifact>                             validate an exported artifact
                                               (trace JSONL, Chrome trace, run report,
                                               or folded flamegraph)
flame   <report.json> [--out=FILE]             export a report's profile section as a
                                               collapsed flamegraph
smoke                                          self-checking run for CI";

/// Components must sum to the measured span duration within this
/// fraction (the acceptance bar for the reconstruction).
const SUM_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone)]
struct RunOpts {
    loss: f64,
    dup: f64,
    seed: u64,
    rounds: u64,
    clients: u32,
    top: usize,
    sample: u64,
    out: Option<String>,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            loss: 0.25,
            dup: 0.20,
            seed: 7,
            rounds: 40,
            clients: 2,
            top: 5,
            sample: 1,
            out: None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("run") => match parse_run_opts(&args[1..]) {
            Ok(opts) => cmd_run(&opts, false),
            Err(e) => usage_error(&e),
        },
        Some("analyze") => {
            let (files, flags): (Vec<&String>, Vec<&String>) =
                args[1..].iter().partition(|a| !a.starts_with("--"));
            let top = match parse_top(&flags) {
                Ok(t) => t,
                Err(e) => return usage_error(&e),
            };
            match files.as_slice() {
                [path] => cmd_analyze(path, top),
                _ => usage_error("analyze takes exactly one <trace.jsonl> path"),
            }
        }
        Some("check") => match args[1..] {
            [ref path] => cmd_check(path),
            _ => usage_error("check takes exactly one artifact path"),
        },
        Some("flame") => {
            let (files, flags): (Vec<&String>, Vec<&String>) =
                args[1..].iter().partition(|a| !a.starts_with("--"));
            let out = match parse_flame_out(&flags) {
                Ok(out) => out,
                Err(e) => return usage_error(&e),
            };
            match files.as_slice() {
                [path] => cmd_flame(path, out.as_deref()),
                _ => usage_error("flame takes exactly one <report.json> path"),
            }
        }
        Some("smoke") => cmd_run(&RunOpts::default(), true),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("tracectl: {msg}");
    ExitCode::from(2)
}

fn parse_top(flags: &[&String]) -> Result<usize, String> {
    let mut top = 5usize;
    for f in flags {
        match f.split_once('=') {
            Some(("--top", v)) => top = v.parse().map_err(|_| format!("bad --top value {v}"))?,
            _ => return Err(format!("unknown flag {f} (use --top=K)")),
        }
    }
    Ok(top)
}

fn parse_flame_out(flags: &[&String]) -> Result<Option<String>, String> {
    let mut out = None;
    for f in flags {
        match f.strip_prefix("--out=") {
            Some(v) => out = Some(v.to_string()),
            None => return Err(format!("flame: unknown flag {f}")),
        }
    }
    Ok(out)
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    for a in args {
        let (k, v) = a
            .split_once('=')
            .ok_or_else(|| format!("expected --flag=value, got {a}"))?;
        fn num<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value for {k}: {v}"))
        }
        match k {
            "--loss" => o.loss = num(k, v)?,
            "--dup" => o.dup = num(k, v)?,
            "--seed" => o.seed = num(k, v)?,
            "--rounds" => o.rounds = num(k, v)?,
            "--clients" => o.clients = num(k, v)?,
            "--top" => o.top = num(k, v)?,
            "--sample" => o.sample = num(k, v)?,
            "--out" => o.out = Some(v.to_owned()),
            _ => return Err(format!("unknown flag {k}")),
        }
    }
    if !(0.0..1.0).contains(&o.loss) || !(0.0..1.0).contains(&o.dup) {
        return Err("--loss and --dup must be in [0, 1)".into());
    }
    Ok(o)
}

/// The chaos scenario: a kv service behind caching proxies, several
/// clients doing read-heavy rounds, a lossy + duplicating network, and
/// a partition window that cuts every client off mid-run.
fn chaos_run(opts: &RunOpts) -> (Simulation, obs::CausalTrace) {
    let cfg = NetworkConfig::lan()
        .with_loss(opts.loss)
        .with_duplicate(opts.dup);
    let mut sim = Simulation::new(cfg, opts.seed);
    sim.enable_trace(1 << 18);
    spawn_chaos(&sim, opts.clients, opts.rounds);
    sim.run();
    let trace = if opts.sample > 1 {
        sim.causal_trace_with(obs::TraceSink::new().sample_every(opts.sample))
    } else {
        sim.causal_trace()
    };
    (sim, trace)
}

fn cmd_run(opts: &RunOpts, smoke: bool) -> ExitCode {
    let (sim, trace) = chaos_run(opts);
    println!(
        "chaos run: loss={:.0}% dup={:.0}% seed={} rounds={} clients={} (partition window 10-18ms)",
        opts.loss * 100.0,
        opts.dup * 100.0,
        opts.seed,
        opts.rounds,
        opts.clients
    );

    // Export both formats.
    let dir = opts
        .out
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(bench::trace_dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("tracectl: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let jsonl_path = dir.join("tracectl.trace.jsonl");
    let chrome_path = dir.join("tracectl.chrome.json");
    let jsonl = obs::to_jsonl(&trace);
    let chrome = obs::to_chrome_json(&trace);
    if let Err(e) =
        std::fs::write(&jsonl_path, &jsonl).and_then(|()| std::fs::write(&chrome_path, &chrome))
    {
        eprintln!("tracectl: export failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "exported {} and {}",
        jsonl_path.display(),
        chrome_path.display()
    );

    let mut failures: Vec<String> = Vec::new();

    // The Chrome export must validate.
    match obs::validate_chrome(&chrome) {
        Ok(s) => println!(
            "chrome export: {} events ({} spans, {} instants, {} flow arrows) on {} tracks — valid",
            s.events, s.spans, s.instants, s.flows, s.tracks
        ),
        Err(e) => failures.push(format!("chrome export invalid: {e}")),
    }

    // The JSONL export must round-trip.
    match obs::from_jsonl(&jsonl) {
        Ok(re) if re.events.len() == trace.events.len() => {}
        Ok(re) => failures.push(format!(
            "jsonl round-trip lost events: {} exported, {} re-imported",
            trace.events.len(),
            re.events.len()
        )),
        Err(e) => failures.push(format!("jsonl re-import failed: {e}")),
    }

    let complete = print_analysis(&trace, opts.top, &mut failures);

    if smoke {
        if complete == 0 {
            failures.push("no complete critical path reconstructed".into());
        }
        let violations = sim.obs().verify_causality();
        if violations.is_empty() {
            println!("causality: no violations");
        } else {
            for v in &violations {
                failures.push(format!("causality violation: {v}"));
            }
        }
        smoke_pipelined(&mut failures);
    }

    finish(&failures)
}

/// Smoke phase 2: a pipelined [`rpc::Channel`] run (depth 8, unbatched
/// so every datagram carries its call's span) over a lossy network.
/// Eight calls in flight complete out of order, yet every per-call
/// invoke span must still reconstruct a complete critical path whose
/// components tile its duration, round-trip through JSONL, and leave
/// the span graph causally well-formed.
fn smoke_pipelined(failures: &mut Vec<String>) {
    let cfg = NetworkConfig::lan().with_loss(0.15).with_duplicate(0.10);
    let mut sim = Simulation::new(cfg, 23);
    sim.enable_trace(1 << 16);
    let server = sim.spawn_async_at("pipesvc", NodeId(1), PortId(5), |cx| async move {
        let mut srv = rpc::RpcServer::new();
        while let Ok(msg) = cx.recv().await {
            cx.with(|cx| srv.handle(cx, &msg, |_ctx, req| Ok(req.args.clone())));
        }
    });
    sim.spawn_async("pipeliner", NodeId(2), move |cx| async move {
        let cfg = rpc::ChannelConfig::with_depth(8)
            .with_policy(rpc::RetryPolicy::exponential(Duration::from_millis(4), 8));
        let mut ch = rpc::Channel::new("pipesvc", server, cfg);
        let handles: Vec<_> = cx.with(|cx| {
            (0..48u64)
                .map(|i| ch.begin_call(cx, "echo", wire::Value::U64(i)))
                .collect()
        });
        for h in handles {
            let _ = redeem(&mut ch, cx, h).await;
        }
    });
    sim.run();

    let trace = sim.causal_trace();
    let jsonl = obs::to_jsonl(&trace);
    match obs::from_jsonl(&jsonl) {
        Ok(re) if re.events.len() == trace.events.len() => {}
        Ok(re) => failures.push(format!(
            "pipelined: jsonl round-trip lost events: {} exported, {} re-imported",
            trace.events.len(),
            re.events.len()
        )),
        Err(e) => failures.push(format!("pipelined: jsonl re-import failed: {e}")),
    }
    if let Err(e) = obs::validate_chrome(&obs::to_chrome_json(&trace)) {
        failures.push(format!("pipelined: chrome export invalid: {e}"));
    }

    let paths = obs::critical_paths(&trace);
    let complete = paths.iter().filter(|p| p.ok.is_some()).count();
    println!(
        "pipelined smoke: {} requests reconstructed ({} complete) from depth-8 traffic",
        paths.len(),
        complete
    );
    if complete == 0 {
        failures.push("pipelined: no complete critical path reconstructed".into());
    }
    for p in paths.iter().filter(|p| p.ok.is_some()) {
        let total = p.total_ns as f64;
        let err = (p.components_ns() as f64 - total).abs();
        if total > 0.0 && err / total > SUM_TOLERANCE {
            failures.push(format!(
                "pipelined {} {}/{}: components {}us vs span {}us (off by {:.1}%)",
                p.span,
                p.service,
                p.op,
                us(p.components_ns()),
                us(p.total_ns),
                100.0 * err / total
            ));
        }
    }
    let violations = sim.obs().verify_causality();
    if violations.is_empty() {
        println!("pipelined causality: no violations");
    } else {
        for v in &violations {
            failures.push(format!("pipelined causality violation: {v}"));
        }
    }
}

fn cmd_analyze(path: &str, top: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracectl: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match obs::from_jsonl(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracectl: {path} is not a valid trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    print_analysis(&trace, top, &mut failures);
    finish(&failures)
}

/// Validates an exported artifact, dispatching on its shape: a folded
/// flamegraph (`.folded`), a trace JSONL (`.jsonl`), a Chrome trace
/// (JSON with `traceEvents`), or else a full run report (including the
/// timeseries, exemplar and profile sections).
fn cmd_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracectl: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if path.ends_with(".folded") {
        return match obs::validate_folded(&text) {
            Ok(s) => {
                println!(
                    "{path}: valid folded flamegraph — {} stacks ({} roots, max depth {}), total value {}, canonical",
                    s.lines, s.roots, s.max_depth, s.total_value
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID folded flamegraph — {e}");
                ExitCode::FAILURE
            }
        };
    }
    if path.ends_with(".jsonl") || text.lines().next().is_some_and(|l| l.contains("\"kind\"")) {
        return match obs::from_jsonl(&text) {
            Ok(trace) => {
                // The exporter is canonical: a parse + re-export must
                // reproduce the input byte for byte. This is what lets
                // `ci.sh` compare thread-sweep legs with a plain `cmp`.
                if obs::to_jsonl(&trace) != text {
                    eprintln!("{path}: INVALID trace JSONL — re-export is not byte-identical");
                    return ExitCode::FAILURE;
                }
                println!(
                    "{path}: valid trace JSONL — {} events ({} spans, {} net, {} evicted), canonical round-trip",
                    trace.events.len(),
                    trace.spans().count(),
                    trace.net_events().count(),
                    trace.evicted
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID trace JSONL — {e}");
                ExitCode::FAILURE
            }
        };
    }
    if text.contains("\"traceEvents\"") {
        return match obs::validate_chrome(&text) {
            Ok(s) => {
                println!(
                    "{path}: valid Chrome trace — {} events ({} spans, {} instants, {} flow arrows) on {} tracks",
                    s.events, s.spans, s.instants, s.flows, s.tracks
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID Chrome trace — {e}");
                ExitCode::FAILURE
            }
        };
    }
    match obs::validate_report(&text) {
        Ok(r) => {
            let windows = r.timeseries.map_or(0, |ts| ts.windows.len());
            let explained = r.exemplars.iter().filter(|e| e.breakdown.is_some()).count();
            let (frames, evicted) = r
                .profile
                .map_or((0, 0), |p| (p.frames_resident, p.frames_evicted));
            println!(
                "{path}: valid run report — {windows} timeseries windows, {} exemplars ({explained} with causal breakdown), {} spans retired / {} resident, {frames} profile frames ({evicted} evicted)",
                r.exemplars.len(), r.obs.spans_retired, r.obs.spans_resident
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID run report — {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the `profile` section of a run-report JSON in the standard
/// collapsed-flamegraph format (`frame;frame value` per line, ready for
/// any stock flamegraph renderer), validating the output before writing
/// it to `--out=FILE` or stdout.
fn cmd_flame(path: &str, out: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracectl: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match obs::RunReport::from_json(&text) {
        Ok(r) => r.profile.unwrap_or_default(),
        Err(e) => {
            eprintln!("{path}: not a run report — {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.frames.is_empty() {
        eprintln!("{path}: no profile frames (was the profiler enabled for this run?)");
        return ExitCode::FAILURE;
    }
    let folded = obs::profile_to_folded(&report);
    if let Err(e) = obs::validate_folded(&folded) {
        eprintln!("{path}: exporter produced an invalid folded artifact — {e}");
        return ExitCode::FAILURE;
    }
    match out {
        Some(file) => {
            if let Err(e) = std::fs::write(file, &folded) {
                eprintln!("tracectl: cannot write {file}: {e}");
                return ExitCode::FAILURE;
            }
            println!("{path}: wrote {} stacks to {file}", report.frames.len());
        }
        None => print!("{folded}"),
    }
    ExitCode::SUCCESS
}

/// Prints the trace summary, top-k critical paths (with the slowest
/// request's timeline), and per-link attribution. Pushes a failure for
/// every complete path whose components don't sum to its measured
/// duration within [`SUM_TOLERANCE`]. Returns how many complete paths
/// reconstructed.
fn print_analysis(trace: &obs::CausalTrace, top: usize, failures: &mut Vec<String>) -> usize {
    println!(
        "trace: {} events ({} spans, {} net), evicted {}, sampled out {} spans / {} events{}",
        trace.events.len(),
        trace.spans().count(),
        trace.net_events().count(),
        trace.evicted,
        trace.sampled_out_spans,
        trace.sampled_out_events,
        if trace.is_complete() {
            " — complete"
        } else {
            " — INCOMPLETE"
        },
    );

    let paths = obs::critical_paths(trace);
    let complete = paths.iter().filter(|p| p.ok.is_some()).count();
    println!(
        "critical paths: {} requests reconstructed ({} complete)",
        paths.len(),
        complete
    );

    let mut t = Table::new(
        format!("top-{top} slowest requests (critical-path components, us)"),
        &[
            "span",
            "service",
            "op",
            "ok",
            "total",
            "queue",
            "wire",
            "server",
            "retx wait",
            "retx",
            "drops",
            "dominant",
        ],
    );
    for p in paths.iter().take(top) {
        t.add_row(vec![
            p.span.to_string(),
            p.service.clone(),
            p.op.clone(),
            match p.ok {
                Some(true) => "yes".into(),
                Some(false) => "no".into(),
                None => "open".into(),
            },
            us(p.total_ns),
            us(p.queue_ns),
            us(p.wire_ns),
            us(p.server_ns),
            us(p.retransmit_ns),
            p.retransmissions.to_string(),
            p.drops.to_string(),
            p.dominant().into(),
        ]);
    }
    print!("{}", t.render());

    // The acceptance bar: components tile the measured span duration.
    for p in paths.iter().filter(|p| p.ok.is_some()) {
        let total = p.total_ns as f64;
        let err = (p.components_ns() as f64 - total).abs();
        if total > 0.0 && err / total > SUM_TOLERANCE {
            failures.push(format!(
                "{} {}/{}: components {}us vs span {}us (off by {:.1}%)",
                p.span,
                p.service,
                p.op,
                us(p.components_ns()),
                us(p.total_ns),
                100.0 * err / total
            ));
        }
    }
    if complete > 0 && failures.is_empty() {
        println!(
            "  component sums match span durations within {:.0}%\n",
            SUM_TOLERANCE * 100.0
        );
    }

    if let Some(worst) = paths.first() {
        println!(
            "  slowest request {} ({}/{}) timeline:",
            worst.span, worst.service, worst.op
        );
        for e in &worst.timeline {
            println!(
                "    +{:>9}us {} {}",
                (e.at_ns.saturating_sub(worst.start_ns)) / 1_000,
                e.span,
                e.label
            );
        }
    }

    let links = obs::link_attribution(trace);
    if !links.is_empty() {
        let mut lt = Table::new(
            "per-link attribution".to_string(),
            &[
                "link",
                "sent",
                "delivered",
                "dropped",
                "blackholed",
                "retx",
                "loss %",
            ],
        );
        for ((a, b), s) in &links {
            lt.add_row(vec![
                format!("n{a}->n{b}"),
                s.sent.to_string(),
                s.delivered.to_string(),
                s.dropped.to_string(),
                s.blackholed.to_string(),
                s.retransmits.to_string(),
                format!("{:.1}", s.loss_rate() * 100.0),
            ]);
        }
        print!("{}", lt.render());
    }
    println!();
    complete
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

fn finish(failures: &[String]) -> ExitCode {
    if failures.is_empty() {
        println!("tracectl: OK");
        ExitCode::SUCCESS
    } else {
        for f in failures {
            eprintln!("tracectl: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag the usage text shows, with the command it belongs to:
    /// a line that starts with a space continues the command above it.
    fn usage_flags() -> Vec<(&'static str, String)> {
        let mut command = "";
        let mut flags = Vec::new();
        for line in USAGE.lines().skip(1) {
            if !line.starts_with(' ') {
                command = line.split_whitespace().next().unwrap_or("");
            }
            for word in line.split_whitespace() {
                if let Some(flag) = word.strip_prefix("[--").and_then(|w| w.strip_suffix(']')) {
                    flags.push((command, format!("--{flag}")));
                }
            }
        }
        flags
    }

    #[test]
    fn every_flag_the_usage_shows_parses() {
        let flags = usage_flags();
        assert_eq!(flags.len(), 10, "{flags:?}");
        for (command, shown) in flags {
            // The placeholder after `=` becomes a value its parser takes.
            let (name, _) = shown.split_once('=').expect("shown as --flag=value");
            let value = if matches!(name, "--loss" | "--dup") {
                "0.5"
            } else {
                "3"
            };
            let arg = format!("{name}={value}");
            let parsed = match command {
                "run" => parse_run_opts(std::slice::from_ref(&arg)).map(drop),
                "analyze" => parse_top(&[&arg]).map(drop),
                "flame" => parse_flame_out(&[&arg]).map(drop),
                other => panic!("a flag shown for `{other}`"),
            };
            assert_eq!(parsed, Ok(()), "{command} {arg}");
        }
    }
}
