//! What a benchmark invocation produces: the table it prints, the result
//! file it writes, and the one-line result the acceptance driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::jsonw::{array, num, num_map, object, quote, Json};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// Where and how the numbers were taken.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub host_cores: usize,
    pub kernel: String,
    pub git_rev: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
}

#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub name: String,
    /// The sizes the rounds used.
    pub sizes: String,
    pub rounds: usize,
    pub traced_rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, child failures, nondeterminism.
    pub errors: Vec<String>,
    /// One summary per end-to-end metric, in `END_TO_END` order; absent
    /// only when a round died before reporting it.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer summaries; a metric the workload does not exercise (or
    /// an untraced invocation did not take) is absent and prints as
    /// `missing`.
    pub per_layer: BTreeMap<String, Summary>,
    /// Every exact value (simulated results and counts) of this seed.
    pub exact: BTreeMap<String, f64>,
    /// Span totals, a span sample and the profiler's frames from the last
    /// traced round, as JSON members; empty when untraced.
    pub trace: Vec<(String, String)>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    pub stamp: Stamp,
    pub workloads: Vec<WorkloadReport>,
}

fn summary_json(s: &Summary, unit: &str, kind: &str, better: &str, note: (&str, String)) -> String {
    object([
        ("unit", quote(unit)),
        ("kind", quote(kind)),
        ("better", quote(better)),
        note,
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("min", num(s.min)),
        ("max", num(s.max)),
        ("n", num(s.n as f64)),
    ])
}

impl Report {
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadReport::correct)
    }

    /// The result file: every metric with its unit, five-number summary
    /// and sample count, stamped with host, revision, seed and sizes.
    pub fn to_json(&self) -> String {
        let s = &self.stamp;
        let stamp = object([
            ("host_cores", num(s.host_cores as f64)),
            ("kernel", quote(&s.kernel)),
            ("git_rev", quote(&s.git_rev)),
            ("seed", num(s.seed as f64)),
            ("seconds", num(s.seconds)),
            ("smoke", s.smoke.to_string()),
            ("traced", s.traced.to_string()),
        ]);
        let workloads = self.workloads.iter().map(|w| {
            let e2e = END_TO_END.iter().filter_map(|m| {
                let s = w.end_to_end.get(m.name)?;
                let bound = ("bound", num(m.bound));
                Some((
                    m.name,
                    summary_json(s, m.unit, m.clock.label(), m.better, bound),
                ))
            });
            let layers = PER_LAYER.iter().filter_map(|m| {
                let s = w.per_layer.get(m.name)?;
                let moves = ("should_move", quote(m.moves));
                Some((
                    m.name,
                    summary_json(s, m.unit, m.source.label(), m.better, moves),
                ))
            });
            (
                w.name.as_str(),
                object([
                    ("correct", w.correct().to_string()),
                    ("sizes", quote(&w.sizes)),
                    ("rounds", num(w.rounds as f64)),
                    ("traced_rounds", num(w.traced_rounds as f64)),
                    ("attempted", num(w.attempted as f64)),
                    ("failed", num(w.failed as f64)),
                    ("errors", array(w.errors.iter().map(|e| quote(e)))),
                    ("end_to_end", object(e2e)),
                    ("per_layer", object(layers)),
                    ("exact", num_map(&w.exact)),
                ]),
            )
        });
        let mut out = object([
            ("schema", num(1.0)),
            ("stamp", stamp),
            ("workloads", object(workloads)),
        ]);
        out.push('\n');
        out
    }

    /// The trace file: per workload, span totals by name (count, total and
    /// self nanoseconds), the first spans of the busiest thread verbatim,
    /// and the program profiler's frames.
    pub fn trace_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), object(w.trace.iter().cloned())));
        let mut out = object([
            ("schema", num(1.0)),
            ("seed", num(self.stamp.seed as f64)),
            ("git_rev", quote(&self.stamp.git_rev)),
            (
                "span_sample_columns",
                array(
                    [
                        "name", "start_ns", "end_ns", "parent", "request", "blocking",
                    ]
                    .iter()
                    .map(|c| quote(c)),
                ),
            ),
            ("workloads", object(workloads)),
        ]);
        out.push('\n');
        out
    }

    /// Every metric by name with unit, median, quartiles, extremes and
    /// sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let s = &self.stamp;
        let _ = writeln!(
            out,
            "proxbench: seed {} · {} s per workload · {} cores · kernel {} · rev {}{}",
            s.seed,
            s.seconds,
            s.host_cores,
            s.kernel,
            s.git_rev,
            if s.smoke { " · SMOKE sizes" } else { "" }
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} — {} rounds{}, {} attempted, {} failed, outputs {}\n   sizes {}",
                w.name,
                w.rounds,
                if w.traced_rounds > 0 {
                    format!(" + {} traced", w.traced_rounds)
                } else {
                    String::new()
                },
                w.attempted,
                w.failed,
                if w.correct() { "correct" } else { "WRONG" },
                w.sizes
            );
            for e in &w.errors {
                let _ = writeln!(out, "   ERROR {e}");
            }
            let _ = writeln!(
                out,
                "   {:<34} {:>9} {:>5} {:>15} {:>15} {:>15} {:>15} {:>15} {:>3}",
                "metric", "unit", "kind", "median", "q1", "q3", "min", "max", "n"
            );
            let row =
                |out: &mut String, name: &str, unit: &str, kind: &str, s: Option<&Summary>| {
                    let _ = match s {
                        Some(s) => writeln!(
                            out,
                            "   {:<34} {:>9} {:>5} {:>15} {:>15} {:>15} {:>15} {:>15} {:>3}",
                            name,
                            unit,
                            kind,
                            short(s.median),
                            short(s.q1),
                            short(s.q3),
                            short(s.min),
                            short(s.max),
                            s.n
                        ),
                        None => {
                            writeln!(out, "   {name:<34} {unit:>9} {kind:>5} {:>15}", "missing")
                        }
                    };
                };
            for m in &END_TO_END {
                row(
                    &mut out,
                    m.name,
                    m.unit,
                    m.clock.label(),
                    w.end_to_end.get(m.name),
                );
            }
            if w.traced_rounds > 0 {
                for m in &PER_LAYER {
                    row(
                        &mut out,
                        m.name,
                        m.unit,
                        m.source.label(),
                        w.per_layer.get(m.name),
                    );
                }
            }
        }
        out
    }

    /// The acceptance driver's line for a single-workload invocation:
    /// end-to-end medians without tracing, per-layer medians with it. The
    /// line must carry a number for every listed metric, so a per-layer
    /// metric the workload does not exercise reads 0 here (and `missing`
    /// in the table and the result file).
    pub fn contract_line(&self) -> String {
        let w = &self.workloads[0];
        let metrics = if self.stamp.traced {
            object(PER_LAYER.iter().map(|m| {
                let v = w.per_layer.get(m.name).map_or(0.0, |s| s.median);
                (m.name, object([("value", num(v)), ("unit", quote(m.unit))]))
            }))
        } else {
            object(END_TO_END.iter().map(|m| {
                let v = w.end_to_end.get(m.name).map_or(0.0, |s| s.median);
                (m.name, object([("value", num(v)), ("unit", quote(m.unit))]))
            }))
        };
        object([
            ("correct", w.correct().to_string()),
            ("attempted", num(w.attempted.max(1) as f64)),
            ("failed", num(w.failed as f64)),
            ("metrics", metrics),
        ])
    }
}

/// A number short enough for a table column, long enough to compare.
fn short(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_owned()
    } else if a >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.2}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// What `compare` needs from a result file.
#[derive(Debug, Clone)]
pub struct Loaded {
    pub seed: u64,
    pub smoke: bool,
    /// workload → metric → summary
    pub end_to_end: BTreeMap<String, BTreeMap<String, Summary>>,
    /// workload → exact values
    pub exact: BTreeMap<String, BTreeMap<String, f64>>,
}

fn read_summary(v: &Json) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// Reads a result file written by [`Report::to_json`].
pub fn load(text: &str) -> Result<Loaded, String> {
    let root = crate::jsonw::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let stamp = root.get("stamp").ok_or("no stamp")?;
    let workloads = root
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no workloads")?;
    let mut loaded = Loaded {
        seed: stamp.u64_field("seed").ok_or("no seed")?,
        smoke: stamp.get("smoke").and_then(Json::as_bool).unwrap_or(false),
        end_to_end: BTreeMap::new(),
        exact: BTreeMap::new(),
    };
    for (name, w) in workloads {
        let mut rows = BTreeMap::new();
        if let Some(e2e) = w.get("end_to_end").and_then(Json::as_obj) {
            for (metric, v) in e2e {
                if metrics::end_to_end(metric).is_some() {
                    rows.insert(
                        metric.clone(),
                        read_summary(v).ok_or_else(|| format!("{name}.{metric}: bad summary"))?,
                    );
                }
            }
        }
        loaded.end_to_end.insert(name.clone(), rows);
        loaded
            .exact
            .insert(name.clone(), crate::jsonw::read_num_map(w.get("exact")));
    }
    Ok(loaded)
}
