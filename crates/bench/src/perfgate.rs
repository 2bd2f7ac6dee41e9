//! perfgate — the perf-regression gate over `BENCH_*.json` artifacts.
//!
//! The E14 macro-benchmark leaves a `BENCH_e14.json` artifact behind on
//! every run; the committed copy at the repo root is the *baseline* for
//! the current commit. This module diffs a freshly produced artifact
//! against that baseline with a noise tolerance and renders a per-metric
//! verdict table, so CI can fail a change that quietly lost hot-path
//! throughput instead of relying on someone eyeballing the numbers.
//!
//! Comparisons only make sense between runs of the *same workload*:
//! [`compare`] refuses artifacts whose experiment id, mode, or workload
//! config differ (and, when both artifacts carry a `meta.config_hash`,
//! whose hashes differ). Provenance that does not change the workload —
//! git revision, date, seed — is deliberately ignored, otherwise no two
//! commits could ever be compared.
//!
//! Wall-clock benchmarks are noisy; the default ±10% tolerance absorbs
//! scheduler jitter on a loaded CI host while still catching the 2x
//! class of regression a lost fast path produces. The `perfgate` binary
//! wraps this module; `ci.sh` runs it strict against the committed
//! baseline (self-compare: always comparable, always passing) and
//! warn-only against the smoke artifact.

use obs::json::{self, Json};

/// Tuning for one gate run.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Relative loss tolerated before a metric counts as regressed
    /// (0.10 = 10%).
    pub tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { tolerance: 0.10 }
    }
}

/// How one metric moved relative to the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Pass,
    /// Better than the baseline by more than the tolerance.
    Improved,
    /// Worse than the baseline by more than the tolerance.
    Regressed,
    /// Not compared: the metric scales with wall clock and the two
    /// artifacts were produced on hosts with different core counts, so a
    /// delta would measure the hardware, not the change.
    Skipped,
}

impl Verdict {
    /// Fixed-width label for the verdict table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Improved => "IMPROVED",
            Verdict::Regressed => "REGRESSED",
            Verdict::Skipped => "skipped (host cores differ)",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricVerdict {
    /// Metric name (key under the artifact's `best` object).
    pub name: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change, positive = improvement. For lower-better
    /// metrics (wall time) the sign is already flipped.
    pub delta: f64,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// The verdict.
    pub verdict: Verdict,
}

/// Result of a successful (comparable) gate run.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Experiment id shared by both artifacts.
    pub experiment: String,
    /// Mode shared by both artifacts.
    pub mode: String,
    /// Per-metric verdicts, artifact order.
    pub metrics: Vec<MetricVerdict>,
}

impl GateOutcome {
    /// True when any metric regressed beyond tolerance.
    pub fn regressed(&self) -> bool {
        self.metrics.iter().any(|m| m.verdict == Verdict::Regressed)
    }

    /// Renders the per-metric verdict table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "perfgate: {} ({}) — current vs baseline\n\
             {:<24} {:>14} {:>14} {:>9}  verdict\n",
            self.experiment, self.mode, "metric", "baseline", "current", "delta"
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<24} {:>14.3} {:>14.3} {:>+8.1}%  {}\n",
                m.name,
                m.baseline,
                m.current,
                m.delta * 100.0,
                m.verdict.label()
            ));
        }
        if self.metrics.iter().any(|m| m.verdict == Verdict::Skipped) {
            out.push_str(
                "note: wall-clock metrics skipped — artifacts were produced on hosts \
                 with different core counts (host_cores stamp)\n",
            );
        }
        out
    }
}

/// Why a gate run could not produce verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// An artifact failed to parse or lacked required fields.
    Malformed(String),
    /// The artifacts describe different workloads and must not be
    /// compared.
    Incomparable(String),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            GateError::Incomparable(m) => write!(f, "incomparable artifacts: {m}"),
        }
    }
}

/// The wall-clock metrics gated in every `BENCH_*.json` `best` object,
/// with direction (`true` = higher is better). All of them are skipped
/// when the artifacts' `host_cores` stamps differ.
const METRICS: &[(&str, bool)] = &[
    ("wall_ms", false),
    ("events_per_sec", true),
    ("msgs_per_sec", true),
    ("bytes_per_sec", true),
];

/// Simulated metrics, all lower-is-better: functions of the seed and the
/// code alone, so they are judged on any host — and only when both
/// artifacts carry them, since most experiments publish none. E19: the
/// worst region's bulk-over-inline Zipf p99 ratio, and retransmissions
/// per calling process on its loss-free network.
const SIM_METRICS: &[&str] = &["zipf_p99_over_inline_max", "retries_per_process"];

fn str_of<'a>(doc: &'a Json, key: &str, which: &str) -> Result<&'a str, GateError> {
    doc.str_field(key)
        .ok_or_else(|| GateError::Malformed(format!("{which}: missing {key}")))
}

/// Diffs `current` against `baseline` (both raw `BENCH_*.json` text).
///
/// # Errors
///
/// [`GateError::Malformed`] when either artifact fails to parse or
/// lacks the `best` metrics; [`GateError::Incomparable`] when the two
/// artifacts describe different workloads (experiment, mode, config, or
/// config hash mismatch).
pub fn compare(baseline: &str, current: &str, cfg: &GateConfig) -> Result<GateOutcome, GateError> {
    let base = json::parse(baseline).map_err(|e| GateError::Malformed(format!("baseline: {e}")))?;
    let cur = json::parse(current).map_err(|e| GateError::Malformed(format!("current: {e}")))?;

    let experiment = str_of(&base, "experiment", "baseline")?;
    if str_of(&cur, "experiment", "current")? != experiment {
        return Err(GateError::Incomparable(format!(
            "experiment {:?} vs {:?}",
            str_of(&cur, "experiment", "current")?,
            experiment
        )));
    }
    let mode = str_of(&base, "mode", "baseline")?;
    if str_of(&cur, "mode", "current")? != mode {
        return Err(GateError::Incomparable(format!(
            "mode {:?} vs baseline {:?}",
            str_of(&cur, "mode", "current")?,
            mode
        )));
    }
    // The whole workload config must match value-for-value: a faster run
    // with half the payload is not a win.
    let base_cfg = base.get("config");
    let cur_cfg = cur.get("config");
    if base_cfg != cur_cfg {
        return Err(GateError::Incomparable("config objects differ".into()));
    }
    // When both sides stamp a config hash, trust it as a second opinion;
    // other provenance (git_rev, date, seed) intentionally never blocks.
    let hash = |doc: &Json| {
        doc.get("meta")
            .and_then(|m| m.str_field("config_hash"))
            .map(str::to_owned)
    };
    if let (Some(b), Some(c)) = (hash(&base), hash(&cur)) {
        if b != c {
            return Err(GateError::Incomparable(format!(
                "config_hash {c:?} vs baseline {b:?}"
            )));
        }
    }

    let best_of = |doc: &Json, which: &str| -> Result<Json, GateError> {
        doc.get("best")
            .cloned()
            .ok_or_else(|| GateError::Malformed(format!("{which}: missing best object")))
    };
    let base_best = best_of(&base, "baseline")?;
    let cur_best = best_of(&cur, "current")?;

    // Wall-clock metrics only compare like-for-like hardware. When both
    // artifacts carry a top-level `host_cores` stamp and the counts
    // differ, the wall-clock-scaling metrics are reported but *skipped*
    // rather than judged — a 32-core baseline regressing on a 4-core CI
    // runner is a fact about the runner. Artifacts missing the stamp
    // (pre-stamp baselines) compare as before.
    let cores = |doc: &Json| doc.get("host_cores").and_then(Json::as_f64);
    let cores_differ = match (cores(&base), cores(&cur)) {
        (Some(b), Some(c)) => b != c,
        _ => false,
    };

    let mut metrics = Vec::with_capacity(METRICS.len());
    for &(name, higher_is_better) in METRICS {
        let field = |doc: &Json, which: &str| -> Result<f64, GateError> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| GateError::Malformed(format!("{which}: best.{name} missing")))
        };
        let b = field(&base_best, "baseline")?;
        let c = field(&cur_best, "current")?;
        if cores_differ {
            metrics.push(MetricVerdict {
                name,
                baseline: b,
                current: c,
                delta: 0.0,
                higher_is_better,
                verdict: Verdict::Skipped,
            });
            continue;
        }
        if b <= 0.0 {
            return Err(GateError::Malformed(format!(
                "baseline: best.{name} is {b}, cannot take a ratio"
            )));
        }
        // Signed relative change, positive = improvement.
        let delta = if higher_is_better {
            (c - b) / b
        } else {
            (b - c) / b
        };
        let verdict = if delta < -cfg.tolerance {
            Verdict::Regressed
        } else if delta > cfg.tolerance {
            Verdict::Improved
        } else {
            Verdict::Pass
        };
        metrics.push(MetricVerdict {
            name,
            baseline: b,
            current: c,
            delta,
            higher_is_better,
            verdict,
        });
    }
    for &name in SIM_METRICS {
        let field = |doc: &Json| doc.get(name).and_then(Json::as_f64);
        let (Some(b), Some(c)) = (field(&base_best), field(&cur_best)) else {
            continue;
        };
        // A zero baseline (no retransmissions at all) admits no ratio:
        // staying at zero passes, anything above it regressed.
        let delta = if b > 0.0 {
            (b - c) / b
        } else if c > 0.0 {
            f64::NEG_INFINITY
        } else {
            0.0
        };
        let verdict = if delta < -cfg.tolerance {
            Verdict::Regressed
        } else if delta > cfg.tolerance {
            Verdict::Improved
        } else {
            Verdict::Pass
        };
        metrics.push(MetricVerdict {
            name,
            baseline: b,
            current: c,
            delta,
            higher_is_better: false,
            verdict,
        });
    }
    Ok(GateOutcome {
        experiment: experiment.to_owned(),
        mode: mode.to_owned(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(wall: f64, eps: f64, extra_meta: &str) -> String {
        format!(
            "{{\"experiment\":\"E14\",\"mode\":\"full\",\
             \"config\":{{\"clients\":4,\"depth\":16}},\
             \"meta\":{{\"config_hash\":\"abc123\"{extra_meta}}},\
             \"best\":{{\"wall_ms\":{wall},\"events_per_sec\":{eps},\
             \"msgs_per_sec\":{eps},\"bytes_per_sec\":{eps}}}}}"
        )
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(10.0, 100_000.0, "");
        let out = compare(&a, &a, &GateConfig::default()).expect("comparable");
        assert!(!out.regressed());
        assert!(out.metrics.iter().all(|m| m.verdict == Verdict::Pass));
        assert_eq!(out.metrics.len(), 4);
        let table = out.render();
        assert!(table.contains("wall_ms"));
        assert!(table.contains("ok"));
    }

    #[test]
    fn degraded_artifact_regresses() {
        // Synthetically degraded: 2x slower wall clock, half the rates.
        let base = artifact(10.0, 100_000.0, "");
        let bad = artifact(20.0, 50_000.0, "");
        let out = compare(&base, &bad, &GateConfig::default()).expect("comparable");
        assert!(out.regressed());
        // Every gated metric went the wrong way.
        assert!(out.metrics.iter().all(|m| m.verdict == Verdict::Regressed));
        assert!(out.render().contains("REGRESSED"));
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let base = artifact(10.0, 100_000.0, "");
        let fast = artifact(5.0, 200_000.0, "");
        let out = compare(&base, &fast, &GateConfig::default()).expect("comparable");
        assert!(!out.regressed());
        assert!(out.metrics.iter().all(|m| m.verdict == Verdict::Improved));
    }

    #[test]
    fn tolerance_absorbs_noise_and_direction_matters() {
        let base = artifact(10.0, 100_000.0, "");
        // 8% worse everywhere: inside the default 10% band.
        let noisy = artifact(10.8, 92_000.0, "");
        let out = compare(&base, &noisy, &GateConfig::default()).expect("comparable");
        assert!(!out.regressed());
        // The same artifact regresses under a 5% tolerance.
        let strict = GateConfig { tolerance: 0.05 };
        assert!(compare(&base, &noisy, &strict).unwrap().regressed());
        // Wall time is lower-better: a *drop* in wall_ms is improvement.
        let out = compare(&base, &artifact(5.0, 100_000.0, ""), &GateConfig::default()).unwrap();
        let wall = out.metrics.iter().find(|m| m.name == "wall_ms").unwrap();
        assert_eq!(wall.verdict, Verdict::Improved);
        assert!(!wall.higher_is_better);
        assert!(wall.delta > 0.0, "sign flipped for lower-better");
    }

    #[test]
    fn refuses_incomparable_artifacts() {
        let base = artifact(10.0, 100_000.0, "");
        let cfg = GateConfig::default();
        // Mode mismatch.
        let smoke = base.replace("\"mode\":\"full\"", "\"mode\":\"smoke\"");
        assert!(matches!(
            compare(&base, &smoke, &cfg),
            Err(GateError::Incomparable(_))
        ));
        // Experiment mismatch.
        let other = base.replace("\"experiment\":\"E14\"", "\"experiment\":\"E8\"");
        assert!(matches!(
            compare(&base, &other, &cfg),
            Err(GateError::Incomparable(_))
        ));
        // Config value mismatch.
        let bigger = base.replace("\"clients\":4", "\"clients\":8");
        assert!(matches!(
            compare(&base, &bigger, &cfg),
            Err(GateError::Incomparable(_))
        ));
        // Config-hash mismatch (configs textually equal but hash differs).
        let rehashed = base.replace("abc123", "def456");
        assert!(matches!(
            compare(&base, &rehashed, &cfg),
            Err(GateError::Incomparable(_))
        ));
    }

    #[test]
    fn provenance_differences_do_not_block() {
        // Different git revs and dates: still comparable.
        let base = artifact(
            10.0,
            100_000.0,
            ",\"git_rev\":\"aaa\",\"date\":\"2026-01-01\"",
        );
        let cur = artifact(
            10.0,
            100_000.0,
            ",\"git_rev\":\"bbb\",\"date\":\"2026-08-06\"",
        );
        assert!(!compare(&base, &cur, &GateConfig::default())
            .expect("provenance never blocks")
            .regressed());
        // A baseline with no meta at all is comparable with one that has
        // it (pre-meta artifacts keep working).
        let legacy = "{\"experiment\":\"E14\",\"mode\":\"full\",\
             \"config\":{\"clients\":4,\"depth\":16},\
             \"best\":{\"wall_ms\":10,\"events_per_sec\":100000,\
             \"msgs_per_sec\":100000,\"bytes_per_sec\":100000}}";
        assert!(compare(legacy, &cur, &GateConfig::default()).is_ok());
    }

    fn artifact_on_host(wall: f64, eps: f64, cores: u32) -> String {
        format!(
            "{{\"experiment\":\"E14\",\"mode\":\"full\",\"host_cores\":{cores},\
             \"config\":{{\"clients\":4,\"depth\":16}},\
             \"meta\":{{\"config_hash\":\"abc123\"}},\
             \"best\":{{\"wall_ms\":{wall},\"events_per_sec\":{eps},\
             \"msgs_per_sec\":{eps},\"bytes_per_sec\":{eps}}}}}"
        )
    }

    #[test]
    fn differing_host_cores_skips_wall_clock_metrics() {
        // A 2x-slower run on a smaller host: every metric is skipped, not
        // regressed — the delta would measure the hardware.
        let base = artifact_on_host(10.0, 100_000.0, 32);
        let small = artifact_on_host(20.0, 50_000.0, 4);
        let out = compare(&base, &small, &GateConfig::default()).expect("comparable");
        assert!(!out.regressed());
        assert_eq!(out.metrics.len(), 4);
        assert!(out.metrics.iter().all(|m| m.verdict == Verdict::Skipped));
        let table = out.render();
        assert!(table.contains("skipped (host cores differ)"));
        assert!(table.contains("different core counts"));
    }

    #[test]
    fn matching_host_cores_compares_normally() {
        let base = artifact_on_host(10.0, 100_000.0, 8);
        let bad = artifact_on_host(20.0, 50_000.0, 8);
        let out = compare(&base, &bad, &GateConfig::default()).expect("comparable");
        assert!(out.regressed());
        assert!(out.metrics.iter().all(|m| m.verdict == Verdict::Regressed));
        assert!(!out.render().contains("skipped"));
    }

    #[test]
    fn missing_host_cores_stamp_compares_normally() {
        // Pre-stamp baselines keep gating: the stamp only arms the skip
        // when *both* sides carry it.
        let legacy = artifact(10.0, 100_000.0, "");
        let stamped = artifact_on_host(20.0, 50_000.0, 4);
        let out = compare(&legacy, &stamped, &GateConfig::default()).expect("comparable");
        assert!(out.regressed());
        let out = compare(&stamped, &legacy, &GateConfig::default()).expect("comparable");
        assert!(out.metrics.iter().all(|m| m.verdict != Verdict::Skipped));
    }

    fn e19_artifact(cores: u32, p99_ratio: f64, retries: f64) -> String {
        format!(
            "{{\"experiment\":\"E19\",\"mode\":\"full\",\"host_cores\":{cores},\
             \"config\":{{\"regions\":3}},\
             \"best\":{{\"wall_ms\":10,\"events_per_sec\":1000,\
             \"msgs_per_sec\":1000,\"bytes_per_sec\":1000,\
             \"zipf_p99_over_inline_max\":{p99_ratio},\"retries_per_process\":{retries}}}}}"
        )
    }

    #[test]
    fn simulated_metrics_are_judged_whatever_the_host() {
        let base = e19_artifact(1, 2.8, 0.0);
        let out = compare(&base, &e19_artifact(8, 2.8, 0.0), &GateConfig::default()).unwrap();
        assert!(!out.regressed());
        let verdict = |out: &GateOutcome, name: &str| {
            out.metrics.iter().find(|m| m.name == name).unwrap().verdict
        };
        assert_eq!(verdict(&out, "wall_ms"), Verdict::Skipped);
        assert_eq!(verdict(&out, "zipf_p99_over_inline_max"), Verdict::Pass);
        assert_eq!(verdict(&out, "retries_per_process"), Verdict::Pass);
        // A tail that grew back, and retransmissions where there were
        // none, both fail — on a different host too.
        let out = compare(&base, &e19_artifact(8, 9.0, 40.0), &GateConfig::default()).unwrap();
        assert_eq!(
            verdict(&out, "zipf_p99_over_inline_max"),
            Verdict::Regressed
        );
        assert_eq!(verdict(&out, "retries_per_process"), Verdict::Regressed);
        // Artifacts without them (every other experiment) list none.
        let plain = artifact(10.0, 100_000.0, "");
        let out = compare(&plain, &plain, &GateConfig::default()).unwrap();
        assert_eq!(out.metrics.len(), 4);
    }

    #[test]
    fn rejects_malformed_artifacts() {
        let good = artifact(10.0, 100_000.0, "");
        let cfg = GateConfig::default();
        assert!(matches!(
            compare("not json", &good, &cfg),
            Err(GateError::Malformed(_))
        ));
        let no_best = "{\"experiment\":\"E14\",\"mode\":\"full\",\"config\":{}}";
        let base = good
            .replace("\"config\":{\"clients\":4,\"depth\":16}", "\"config\":{}")
            .replace(",\"meta\":{\"config_hash\":\"abc123\"}", "");
        assert!(matches!(
            compare(&base, no_best, &cfg),
            Err(GateError::Malformed(_))
        ));
        // Zero baseline metric: no ratio to take.
        let zero = artifact(0.0, 100_000.0, "");
        assert!(matches!(
            compare(&zero, &good, &cfg),
            Err(GateError::Malformed(_))
        ));
    }
}
