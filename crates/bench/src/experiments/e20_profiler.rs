//! E20 — Continuous profiler: overhead, conservation, determinism.
//!
//! The profiler (`obs::profile`) folds RAII scope timings into bounded
//! per-lane frame tables and brackets every scheduler round with phase
//! timestamps (`sched;round;{pick,exec,merge}`). This experiment puts
//! the three claims it ships under on the record:
//!
//! * **Overhead** — after a discarded warmup, the E18 workload runs
//!   five interleaved off/on pairs (1 thread, same seed); the gated
//!   statistic is the *median of the per-pair wall ratios*, so slow
//!   host drift cancels within each adjacent pair and drift-poisoned
//!   pairs cannot swing the verdict. Full mode gates at <5%; smoke
//!   mode is too short to time honestly on a shared CI core, so there
//!   the gate loosens to <100% and the measured number is provenance,
//!   not verdict.
//! * **Conservation** — the driver stamps consecutive `Instant`s
//!   around each round's phases, so the phase durations telescope:
//!   pick + exec + merge must equal the round total *exactly*, not
//!   within an epsilon. Same for call counts (one fold per phase per
//!   round).
//! * **Determinism** — frame *paths and call counts* are pure
//!   functions of the simulated execution, so `canonical_frames()`
//!   (paths + calls, wall excluded) must be byte-identical between
//!   repeated 1-thread runs and across 1 vs 4 worker threads; and a
//!   profiled run must leave the causal trace and summary counters of
//!   an unprofiled run untouched. `wall_ns` is host time: printed in
//!   every table, judged by none.
//!
//! Artifacts: `e20-profile.folded` (collapsed flamegraph, validated)
//! and `e20-profile.report.json` (RunReport with the `profile` section,
//! for `tracectl flame`) under the trace dir.
//!
//! `PROXIDE_SMOKE=1` shrinks the fleet to 1k clients.

use simnet::{NetworkConfig, NodeId, Simulation};

// The E18 workload, reused deliberately: the profiler is measured on the
// fleet whose thread-invariance is already pinned.
use super::e18_multicore::{DOMAINS, FULL, SMOKE};
use crate::fleet::{self, Shape};
use crate::{
    capture_trace, check, obs_report, pick, trace_dir, ExperimentOutput, ObsReport, Table,
    TraceArtifact,
};

/// Folded-frame table capacity per writer lane. Generous for this
/// workload (a few dozen distinct paths); evictions are counted, never
/// silent.
const MAX_FRAMES: usize = 4096;

/// Timeseries window for the utilization series (1ms of simulated
/// time). Enabled in *both* profiled and unprofiled legs so the only
/// delta the overhead ratio sees is the profiler itself.
const TS_WINDOW_NS: u64 = 1_000_000;
const TS_CAPACITY: usize = 4096;

/// One leg: the measured numbers, the determinism surfaces, and (when
/// profiled) the folded-stack report.
struct Leg {
    label: &'static str,
    profiled: bool,
    threads: usize,
    run: fleet::Run,
    summary: String,
    trace_jsonl: String,
    profile: Option<obs::ProfileReport>,
    trace: TraceArtifact,
    obs: ObsReport,
}

fn run_leg(cfg: Shape, seed: u64, threads: usize, profiled: bool, label: &'static str) -> Leg {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed)
        .with_domains(DOMAINS)
        .with_threads(threads);
    sim.enable_trace(1 << 16);
    sim.obs().enable_timeseries(TS_WINDOW_NS, TS_CAPACITY);
    if profiled {
        sim.obs().enable_profile(MAX_FRAMES);
    }
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    let run = fleet::spawn(&sim, cfg, &[ns], 1).run(&mut sim);

    let profile = sim.obs().profile_report();
    let trace = capture_trace(label, &sim);
    Leg {
        label,
        profiled,
        threads,
        summary: run.summary(),
        run,
        trace_jsonl: obs::to_jsonl(&trace.trace),
        profile,
        trace,
        obs: obs_report(format!("e20-{label}"), &sim),
    }
}

/// The scheduler phase frames the driver folds once per round.
const PHASE_FRAMES: [&str; 3] = ["sched;round;pick", "sched;round;exec", "sched;round;merge"];

/// Runs E20 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(FULL, SMOKE);
    let seed = 2000;

    // A discarded warmup leg absorbs cold caches, then off/on legs
    // interleave (five pairs) so slow host drift — CPU steal, thermal
    // throttle — lands on both arms instead of biasing one; a profiled
    // 4-thread leg closes the sweep for the cross-thread frame
    // identity check.
    drop(run_leg(cfg, seed, 1, false, "warmup"));
    let legs = vec![
        run_leg(cfg, seed, 1, false, "off-t1-a"),
        run_leg(cfg, seed, 1, true, "on-t1-a"),
        run_leg(cfg, seed, 1, false, "off-t1-b"),
        run_leg(cfg, seed, 1, true, "on-t1-b"),
        run_leg(cfg, seed, 1, false, "off-t1-c"),
        run_leg(cfg, seed, 1, true, "on-t1-c"),
        run_leg(cfg, seed, 1, false, "off-t1-d"),
        run_leg(cfg, seed, 1, true, "on-t1-d"),
        run_leg(cfg, seed, 1, false, "off-t1-e"),
        run_leg(cfg, seed, 1, true, "on-t1-e"),
        run_leg(cfg, seed, 4, true, "on-t4"),
    ];
    let off_best = legs
        .iter()
        .filter(|l| !l.profiled)
        .min_by_key(|l| l.run.wall)
        .expect("five off legs");
    let on_t1: Vec<&Leg> = legs
        .iter()
        .filter(|l| l.profiled && l.threads == 1)
        .collect();
    let on_best = *on_t1
        .iter()
        .min_by_key(|l| l.run.wall)
        .expect("five on legs");
    let on_a = on_t1[0];
    let on_b = on_t1[1];
    let on_t4 = legs.last().expect("eleven legs");

    // Each on leg is compared to the off leg that ran immediately
    // before it, so slow host drift (CPU steal, thermal throttle)
    // cancels within a pair; the median over the five pairs shrugs
    // off drift-poisoned ones. An unpaired min-vs-min would re-admit
    // exactly the noise the interleaving was built to cancel.
    let off_legs: Vec<&Leg> = legs.iter().filter(|l| !l.profiled).collect();
    let mut pair_ratios: Vec<f64> = off_legs
        .iter()
        .zip(on_t1.iter())
        .map(|(off, on)| on.run.wall.as_secs_f64() / off.run.wall.as_secs_f64() - 1.0)
        .collect();
    pair_ratios.sort_by(f64::total_cmp);
    let overhead = pair_ratios[pair_ratios.len() / 2];
    let overhead_pct = overhead * 100.0;
    // Full mode gates at <5%. Smoke legs finish in tens of milliseconds
    // on a shared CI core, where a single scheduling hiccup dwarfs the
    // profiler; the smoke gate only catches catastrophic regressions
    // (2x).
    let max_overhead = if mode == "full" { 0.05 } else { 1.0 };

    let prof = on_a.profile.clone().unwrap_or_default();

    // Phase conservation: the driver stamps t0..t3 consecutively, so
    // Duration subtraction telescopes and the phase sums must equal the
    // round totals exactly — calls and wall both.
    let round = prof.frames.get("sched;round").copied().unwrap_or_default();
    let phase_wall: u64 = PHASE_FRAMES
        .iter()
        .filter_map(|f| prof.frames.get(*f))
        .map(|s| s.wall_ns)
        .sum();
    let phases_present = PHASE_FRAMES.iter().all(|f| prof.frames.contains_key(*f));
    let phase_calls_ok = phases_present
        && PHASE_FRAMES
            .iter()
            .all(|f| prof.frames[*f].calls == round.calls);
    let conserved = phases_present && round.calls > 0 && phase_wall == round.wall_ns;

    // Top frame by attributed wall time.
    let (top_frame, top_stat) = prof
        .frames
        .iter()
        .max_by_key(|(_, s)| s.wall_ns)
        .map(|(p, s)| (p.clone(), *s))
        .unwrap_or_default();
    let rpc_seen = prof.frames.contains_key("rpc;encode") && prof.frames.contains_key("rpc;decode");

    // Determinism: frame paths + call counts byte-identical between
    // repeated 1-thread runs and across 1 vs 4 threads (wall excluded
    // by construction of the canonical form).
    let canon_a = on_a
        .profile
        .as_ref()
        .map(obs::ProfileReport::canonical_frames);
    let canon_b = on_b
        .profile
        .as_ref()
        .map(obs::ProfileReport::canonical_frames);
    let canon_t4 = on_t4
        .profile
        .as_ref()
        .map(obs::ProfileReport::canonical_frames);
    let frames_repeatable = canon_a.is_some() && canon_a == canon_b;
    let frames_thread_invariant = canon_a.is_some() && canon_a == canon_t4;

    // Purity: a profiled run must not perturb the simulation an
    // unprofiled observer sees — same summary counters, same causal
    // trace bytes — and unprofiled runs must carry no profile section.
    let pure = on_a.summary == off_best.summary && on_a.trace_jsonl == off_best.trace_jsonl;
    let off_clean = legs
        .iter()
        .filter(|l| !l.profiled)
        .all(|l| l.profile.is_none());

    // Trace-dir artifacts: the collapsed flamegraph and the RunReport
    // it was derived from (the latter feeds `tracectl flame`).
    let dir = trace_dir();
    let folded = obs::profile_to_folded(&prof);
    let folded_valid = obs::validate_folded(&folded);
    let report_valid = obs::validate_report(&on_a.obs.json);
    let mut export_err: Option<String> = None;
    if let Err(e) = std::fs::create_dir_all(&dir) {
        export_err = Some(format!("create {}: {e}", dir.display()));
    } else {
        if let Err(e) = std::fs::write(dir.join("e20-profile.folded"), &folded) {
            export_err = Some(format!("write e20-profile.folded: {e}"));
        }
        if let Err(e) = std::fs::write(dir.join("e20-profile.report.json"), &on_a.obs.json) {
            export_err = Some(format!("write e20-profile.report.json: {e}"));
        }
    }

    let mut table = Table::new(
        format!(
            "profiler legs ({mode}) — {} clients x {} calls, {} domains on {} nodes",
            cfg.clients, cfg.calls_per_client, DOMAINS, cfg.nodes
        ),
        &[
            "leg",
            "profiled",
            "threads",
            "wall ms (host)",
            "events/s (host)",
            "vs off-best (host)",
        ],
    );
    for l in &legs {
        table.add_row(vec![
            l.label.to_string(),
            if l.profiled {
                "yes".into()
            } else {
                "no".into()
            },
            l.threads.to_string(),
            format!("{:.2}", l.run.wall.as_secs_f64() * 1e3),
            format!("{:.0}", l.run.events_per_sec()),
            format!(
                "{:+.2}%",
                (l.run.wall.as_secs_f64() / off_best.run.wall.as_secs_f64() - 1.0) * 100.0
            ),
        ]);
    }

    let mut frames_table = Table::new(
        format!(
            "hottest frames (on-t1-a) — {} resident, {} evicted, self {:.1}us/{} folds",
            prof.frames_resident,
            prof.frames_evicted,
            prof.self_ns as f64 / 1e3,
            prof.self_calls
        ),
        &["frame", "calls", "wall ms (host)", "share (host)"],
    );
    let total_wall: u64 = prof.frames.values().map(|s| s.wall_ns).sum();
    let mut hot: Vec<(&String, &obs::FrameStat)> = prof.frames.iter().collect();
    hot.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then(a.0.cmp(b.0)));
    for (path, st) in hot.iter().take(10) {
        frames_table.add_row(vec![
            (*path).clone(),
            st.calls.to_string(),
            format!("{:.3}", st.wall_ns as f64 / 1e6),
            format!(
                "{:.1}%",
                st.wall_ns as f64 * 100.0 / total_wall.max(1) as f64
            ),
        ]);
    }

    let total = cfg.total_calls();
    let checks = vec![
        check(
            "every client completed every call in every leg",
            legs.iter()
                .all(|l| l.run.completed == cfg.clients as u64 && l.run.ok == total),
            format!(
                "ok per leg: {:?} (want {total} each)",
                legs.iter().map(|l| l.run.ok).collect::<Vec<_>>()
            ),
        ),
        check(
            format!(
                "profile-on wall overhead < {:.0}% vs profile-off (median of 5 interleaved pairs)",
                max_overhead * 100.0
            ),
            overhead < max_overhead,
            format!(
                "pairs {} -> median {overhead_pct:+.2}% (best walls: off {:.2}ms on {:.2}ms; \
                 {mode} gate; wall is host time, ratio judged, magnitudes reported)",
                pair_ratios
                    .iter()
                    .map(|r| format!("{:+.2}%", r * 100.0))
                    .collect::<Vec<_>>()
                    .join(" "),
                off_best.run.wall.as_secs_f64() * 1e3,
                on_best.run.wall.as_secs_f64() * 1e3,
            ),
        ),
        check(
            "phase wall times tile the round wall exactly (pick+exec+merge == round)",
            conserved,
            format!(
                "{phase_wall}ns across phases vs {}ns round over {} rounds",
                round.wall_ns, round.calls
            ),
        ),
        check(
            "each phase folded exactly once per round",
            phase_calls_ok,
            format!(
                "round calls {} vs {:?}",
                round.calls,
                PHASE_FRAMES
                    .iter()
                    .map(|f| prof.frames.get(*f).map_or(0, |s| s.calls))
                    .collect::<Vec<_>>()
            ),
        ),
        check(
            "top frame identified with nonzero attribution",
            !top_frame.is_empty() && top_stat.wall_ns > 0 && rpc_seen,
            format!(
                "top {top_frame:?} at {:.3}ms ({} calls); rpc encode/decode frames present: {rpc_seen}",
                top_stat.wall_ns as f64 / 1e6,
                top_stat.calls
            ),
        ),
        check(
            "frame paths+calls byte-identical across repeated runs",
            frames_repeatable,
            format!(
                "canonical frames {} bytes, on-t1-a == on-t1-b: {frames_repeatable}",
                canon_a.as_deref().map_or(0, str::len)
            ),
        ),
        check(
            "frame paths+calls byte-identical at 1 vs 4 worker threads",
            frames_thread_invariant,
            format!("on-t1-a == on-t4: {frames_thread_invariant} (wall_ns excluded by canonical form)"),
        ),
        check(
            "profiling leaves the simulation untouched (trace + counters identical)",
            pure && off_clean,
            format!(
                "on-t1-a vs off-best: summary+trace identical: {pure}; off legs carry no profile \
                 section: {off_clean}"
            ),
        ),
        check(
            "no frames evicted at this table size",
            prof.frames_evicted == 0 && prof.frames_resident > 0,
            format!(
                "{} resident, {} evicted (capacity {MAX_FRAMES} per lane)",
                prof.frames_resident, prof.frames_evicted
            ),
        ),
        check(
            "folded flamegraph export is valid and canonical",
            folded_valid.is_ok() && report_valid.is_ok() && export_err.is_none(),
            match (&folded_valid, &report_valid, &export_err) {
                (Ok(s), Ok(_), None) => format!(
                    "{} stacks ({} roots, max depth {}) -> {}",
                    s.lines,
                    s.roots,
                    s.max_depth,
                    dir.join("e20-profile.folded").display()
                ),
                (Err(e), _, _) => format!("folded invalid: {e}"),
                (_, Err(e), _) => format!("report invalid: {e}"),
                (_, _, Some(e)) => format!("export failed: {e}"),
            },
        ),
    ];

    let mut traces = Vec::new();
    let mut reports = Vec::new();
    for l in legs {
        if l.label == "off-t1-a" || l.label == "on-t1-a" || l.label == "on-t4" {
            traces.push(l.trace);
            reports.push(l.obs);
        }
    }

    ExperimentOutput {
        id: "E20",
        title: "Continuous profiler (folded stacks, phase attribution, flamegraph export)",
        tables: vec![table, frames_table],
        checks,
        reports,
        traces,
    }
}
