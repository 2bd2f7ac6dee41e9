//! `proxbench compare BASE.json CANDIDATE.json`: one row per workload and
//! end-to-end metric, each judged against the bound the benchmark fixed.
//!
//! A row is *unresolved* when either side's interquartile range is wider
//! than the bound: the runs cannot tell a change of that size from their
//! own noise, and saying "unchanged" would claim more than was measured.

use std::fmt::Write as _;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::Loaded;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regression,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of the base's median the candidate is worse (negative when
/// it is better), given which direction is better.
pub fn worse_by(metric: &EndToEnd, base: f64, candidate: f64) -> f64 {
    let change = (candidate - base) / base;
    if metric.better == "higher" {
        -change
    } else {
        change
    }
}

pub fn judge(metric: &EndToEnd, base: &Summary, candidate: &Summary) -> Verdict {
    if base.iqr_share() > metric.bound || candidate.iqr_share() > metric.bound {
        Verdict::Unresolved
    } else if worse_by(metric, base.median, candidate.median) > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

/// The comparison table and whether any row is a regression.
pub fn compare(base: &Loaded, candidate: &Loaded) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    if base.seed != candidate.seed || base.smoke != candidate.smoke {
        let _ = writeln!(
            out,
            "note: seeds or sizes differ (base seed {} smoke {}, candidate seed {} smoke {}): \
             simulated results are not expected to match",
            base.seed, base.smoke, candidate.seed, candidate.smoke
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base median", "cand. median", "cand/base", "bound"
    );
    for (workload, base_rows) in &base.end_to_end {
        let Some(cand_rows) = candidate.end_to_end.get(workload) else {
            let _ = writeln!(out, "{workload:<14} absent from the candidate");
            continue;
        };
        for m in &END_TO_END {
            let (Some(b), Some(c)) = (base_rows.get(m.name), cand_rows.get(m.name)) else {
                let _ = writeln!(out, "{workload:<14} {:<20} missing on one side", m.name);
                continue;
            };
            let verdict = judge(m, b, c);
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                out,
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>6.2}  {}{}",
                workload,
                m.name,
                b.median,
                c.median,
                c.median / b.median,
                m.bound,
                verdict.label(),
                if verdict == Verdict::Unresolved {
                    format!(
                        " (IQR {:.1} % and {:.1} % of median)",
                        b.iqr_share() * 100.0,
                        c.iqr_share() * 100.0
                    )
                } else {
                    String::new()
                }
            );
        }
        // Simulated results and exact counts either match or they do not.
        let (be, ce) = (&base.exact[workload], &candidate.exact[workload]);
        let differing: Vec<String> = be
            .iter()
            .filter(|(k, v)| ce.get(*k) != Some(v))
            .map(|(k, v)| {
                format!(
                    "{k} {v} -> {}",
                    ce.get(k).map_or("absent".to_owned(), f64::to_string)
                )
            })
            .collect();
        if differing.is_empty() {
            let _ = writeln!(
                out,
                "{workload:<14} exact: all {} simulated results and counts identical",
                be.len()
            );
        } else {
            let _ = writeln!(
                out,
                "{workload:<14} exact: {} differ: {}",
                differing.len(),
                differing.join("; ")
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;
    use crate::stats::summarize;

    #[test]
    fn direction_decides_what_worse_means() {
        let rate = end_to_end("calls_per_s").unwrap();
        let mem = end_to_end("peak_rss_mb").unwrap();
        assert!((worse_by(rate, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(rate, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worse_by(mem, 100.0, 104.0) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let rate = EndToEnd {
            bound: 0.10,
            ..*end_to_end("calls_per_s").unwrap()
        };
        let rate = &rate;
        let tight = |m: f64| summarize(&[m * 0.99, m, m * 1.01]);
        assert_eq!(judge(rate, &tight(100.0), &tight(95.0)), Verdict::Within);
        assert_eq!(judge(rate, &tight(100.0), &tight(150.0)), Verdict::Within);
        assert_eq!(
            judge(rate, &tight(100.0), &tight(85.0)),
            Verdict::Regression
        );
        // Quartiles 20 % apart cannot resolve a 10 % bound.
        let noisy = summarize(&[90.0, 100.0, 110.0]);
        assert_eq!(judge(rate, &noisy, &tight(85.0)), Verdict::Unresolved);
        assert_eq!(judge(rate, &tight(100.0), &noisy), Verdict::Unresolved);
    }
}
