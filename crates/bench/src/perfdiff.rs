//! Perf-regression gate: compares the `perf` sections of two artifact
//! directories (`repro perf-diff <old-dir> <new-dir>`).
//!
//! Wall-clock numbers are noisy, so every comparison carries a
//! multiplicative tolerance on a slowdown factor: `new / old` for
//! elapsed time and for metrics whose `better` is `lower`, `old / new`
//! for metrics whose `better` is `higher`. Elapsed time is only
//! comparable between runs of the same Monte-Carlo budget, so when the
//! two artifacts disagree on `quick` it is skipped; the metrics are per
//! unit of work, which survives a budget change up to cache effects —
//! use a generous tolerance there, e.g. the CI gate's 5×. Every metric
//! of the old artifact is compared; one the new artifact lacks is a
//! regression (slowdown ∞), and one only the new artifact has is not
//! compared. Artifacts with a null `perf` section (determinism-pinned)
//! are skipped with a note, never failed.

use crate::report::{validate_artifact_line, Better, PerfStats};
use obs::json::Json;
use std::path::{Path, PathBuf};

/// Default multiplicative tolerance for same-budget comparisons.
pub const DEFAULT_TOLERANCE: f64 = 1.5;

/// The perf facts of one artifact line.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Experiment name (`BENCH_<experiment>.json`).
    pub experiment: String,
    /// Whether the run used the quick budget.
    pub quick: bool,
    /// The `perf` section; `None` when it is null.
    pub perf: Option<PerfStats>,
}

/// One metric comparison between matching experiments.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Experiment name.
    pub experiment: String,
    /// `elapsed_ns` or a metric name.
    pub metric: String,
    /// Old (baseline) value.
    pub old: f64,
    /// New (candidate) value; `None` when the new artifact lacks the
    /// metric.
    pub new: Option<f64>,
    /// Slowdown factor: >1 means the new run is worse on this metric.
    pub slowdown: f64,
    /// True when `slowdown` exceeds the tolerance.
    pub regressed: bool,
}

/// The full diff between two artifact sets.
#[derive(Debug, Clone, Default)]
pub struct DiffResult {
    /// Metric comparisons, in (experiment, metric) order.
    pub lines: Vec<DiffLine>,
    /// Experiments that could not be compared, with the reason.
    pub skipped: Vec<String>,
}

impl DiffResult {
    /// True when any compared metric exceeded its tolerance.
    pub fn regressed(&self) -> bool {
        self.lines.iter().any(|l| l.regressed)
    }
}

/// The `BENCH_*.json` artifacts in `dir`, sorted by path.
///
/// # Errors
/// When the directory is unreadable or holds no artifacts.
pub fn artifact_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no BENCH_*.json artifacts in {}", dir.display()));
    }
    Ok(paths)
}

/// Reads every `BENCH_*.json` in `dir` into perf entries, sorted by
/// experiment name.
///
/// # Errors
/// When the directory is unreadable, holds no artifacts, or an artifact
/// fails schema validation.
pub fn load_dir(dir: &Path) -> Result<Vec<PerfEntry>, String> {
    let mut out = Vec::new();
    for path in &artifact_paths(dir)? {
        let content = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for line in content.lines().filter(|l| !l.trim().is_empty()) {
            let doc =
                validate_artifact_line(line).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(entry_from_doc(&doc)?);
        }
    }
    out.sort_by(|a, b| a.experiment.cmp(&b.experiment));
    Ok(out)
}

fn entry_from_doc(doc: &Json) -> Result<PerfEntry, String> {
    Ok(PerfEntry {
        experiment: doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("artifact missing experiment name")?
            .to_string(),
        quick: doc.get("quick").and_then(Json::as_bool).unwrap_or(false),
        perf: PerfStats::of(doc)?,
    })
}

/// Compares `new` against the `old` baseline at the given tolerance.
/// Experiments present on only one side are skipped with a note.
pub fn diff(old: &[PerfEntry], new: &[PerfEntry], tolerance: f64) -> DiffResult {
    let mut result = DiffResult::default();
    for o in old {
        let Some(n) = new.iter().find(|n| n.experiment == o.experiment) else {
            result
                .skipped
                .push(format!("{}: missing from new artifacts", o.experiment));
            continue;
        };
        compare_pair(o, n, tolerance, &mut result);
    }
    for n in new {
        if !old.iter().any(|o| o.experiment == n.experiment) {
            result
                .skipped
                .push(format!("{}: missing from old artifacts", n.experiment));
        }
    }
    result
}

fn compare_pair(old: &PerfEntry, new: &PerfEntry, tolerance: f64, result: &mut DiffResult) {
    let experiment = &old.experiment;
    let (Some(o), Some(n)) = (&old.perf, &new.perf) else {
        result
            .skipped
            .push(format!("{experiment}: perf is null on at least one side"));
        return;
    };
    let same_budget = old.quick == new.quick;
    if !same_budget {
        result.skipped.push(format!(
            "{experiment}: budgets differ (old quick={}, new quick={}); elapsed not compared",
            old.quick, new.quick
        ));
    }
    let mut line = |metric: &str, old: f64, new: Option<f64>, slowdown: f64| {
        result.lines.push(DiffLine {
            experiment: experiment.clone(),
            metric: metric.to_string(),
            old,
            new,
            slowdown,
            regressed: slowdown > tolerance,
        });
    };
    if same_budget {
        let (o, n) = (o.elapsed_ns as f64, n.elapsed_ns as f64);
        line("elapsed_ns", o, Some(n), n / o);
    }
    // Latency percentiles are log-2 bucket bounds, so a one-bucket drift
    // already reads as 2×: they share the rates' tolerance.
    for m in &o.metrics {
        let new_value = n.metric(&m.name).map(|nm| nm.value);
        let slowdown = match (new_value, m.better) {
            (None, _) => f64::INFINITY,
            (Some(v), Better::Higher) => m.value / v,
            (Some(v), Better::Lower) => v / m.value,
        };
        line(&m.name, m.value, new_value, slowdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;
    use std::slice;

    fn rate(name: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: "1/s".into(),
            better: Better::Higher,
            value,
        }
    }

    fn latency(name: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: "ns".into(),
            better: Better::Lower,
            value,
        }
    }

    fn entry(name: &str, quick: bool, elapsed: u64, metrics: Vec<Metric>) -> PerfEntry {
        PerfEntry {
            experiment: name.into(),
            quick,
            perf: Some(PerfStats {
                elapsed_ns: elapsed,
                metrics,
            }),
        }
    }

    fn fig4(quick: bool, elapsed: u64, pairs: f64) -> PerfEntry {
        entry(
            "fig4",
            quick,
            elapsed,
            vec![rate("pairs_per_sec", pairs), rate("tasks_per_sec", 3e5)],
        )
    }

    #[test]
    fn self_comparison_never_regresses() {
        let set = vec![
            fig4(true, 5_000_000, 2e6),
            entry("timing", true, 1_000_000, vec![]),
        ];
        let d = diff(&set, &set, DEFAULT_TOLERANCE);
        assert!(!d.regressed(), "self-diff must pass: {:?}", d.lines);
        assert!(d.lines.iter().all(|l| (l.slowdown - 1.0).abs() < 1e-12));
        // timing has no metrics: only elapsed compared.
        assert_eq!(
            d.lines.iter().filter(|l| l.experiment == "timing").count(),
            1
        );
    }

    #[test]
    fn doubled_elapsed_fails_at_default_tolerance() {
        let old = vec![fig4(true, 5_000_000, 2e6)];
        let new = vec![fig4(true, 10_000_000, 2e6)];
        let d = diff(&old, &new, DEFAULT_TOLERANCE);
        assert!(d.regressed(), "2x elapsed must trip the 1.5x gate");
        let bad: Vec<_> = d.lines.iter().filter(|l| l.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "elapsed_ns");
        assert!((bad[0].slowdown - 2.0).abs() < 1e-12);
        // The same diff passes with a looser gate.
        assert!(!diff(&old, &new, 2.5).regressed());
    }

    #[test]
    fn throughput_collapse_fails_even_across_budgets() {
        let old = vec![fig4(false, 500_000_000, 2e6)];
        let new = vec![fig4(true, 5_000_000, 2e5)];
        let d = diff(&old, &new, DEFAULT_TOLERANCE);
        // Budgets differ: elapsed must NOT be compared...
        assert!(d.lines.iter().all(|l| l.metric != "elapsed_ns"));
        assert!(d.skipped.iter().any(|s| s.contains("budgets differ")));
        // ...but the 10x pairs/sec collapse still trips the gate.
        assert!(d.regressed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "pairs_per_sec" && l.regressed));
    }

    #[test]
    fn missing_experiments_are_skipped_not_failed() {
        let old = vec![entry("fig4", true, 1, vec![])];
        let new = vec![entry("fig3", true, 1, vec![])];
        let d = diff(&old, &new, DEFAULT_TOLERANCE);
        assert!(!d.regressed());
        assert_eq!(d.skipped.len(), 2, "one missing note per direction");
    }

    #[test]
    fn zero_new_throughput_is_a_regression() {
        let old = vec![entry(
            "pipeline",
            true,
            1_000,
            vec![rate("pairs_per_sec", 1e6)],
        )];
        let new = vec![entry(
            "pipeline",
            true,
            1_000,
            vec![rate("pairs_per_sec", 0.0)],
        )];
        let d = diff(&old, &new, DEFAULT_TOLERANCE);
        assert!(d.regressed());
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "pairs_per_sec" && l.slowdown.is_infinite()));
    }

    #[test]
    fn vanished_metric_regresses_and_new_only_metric_is_not_compared() {
        let old = vec![entry(
            "pipeline",
            true,
            1_000,
            vec![rate("pairs_per_sec", 1e6)],
        )];
        let new = vec![entry(
            "pipeline",
            true,
            1_000,
            vec![rate("tasks_per_sec", 9e5)],
        )];
        let d = diff(&old, &new, DEFAULT_TOLERANCE);
        assert!(d.regressed());
        let metrics: Vec<&str> = d.lines.iter().map(|l| l.metric.as_str()).collect();
        assert_eq!(metrics, ["elapsed_ns", "pairs_per_sec"]);
        let gone = &d.lines[1];
        assert!(gone.regressed && gone.slowdown.is_infinite() && gone.new.is_none());
    }

    #[test]
    fn null_perf_on_either_side_is_skipped_not_failed() {
        let timed = fig4(true, 5_000_000, 2e6);
        let pinned = PerfEntry {
            perf: None,
            ..timed.clone()
        };
        for (old, new) in [(&timed, &pinned), (&pinned, &timed), (&pinned, &pinned)] {
            let d = diff(
                slice::from_ref(old),
                slice::from_ref(new),
                DEFAULT_TOLERANCE,
            );
            assert!(!d.regressed(), "{:?}", d.lines);
            assert!(d.lines.is_empty());
            assert!(
                d.skipped.iter().any(|s| s.contains("null")),
                "{:?}",
                d.skipped
            );
        }
    }

    #[test]
    fn latency_regression_direction_is_inverted() {
        let serve = |decisions: f64, p99: f64| {
            entry(
                "serve",
                true,
                1_000,
                vec![
                    rate("hot_decisions_per_sec", decisions),
                    latency("decision_p99_ns", p99),
                ],
            )
        };
        let old = serve(8e6, 255.0);
        // Faster (lower) p99 and faster throughput: no regression.
        let d = diff(
            slice::from_ref(&old),
            &[serve(9e6, 127.0)],
            DEFAULT_TOLERANCE,
        );
        assert!(!d.regressed());
        let p99 = d
            .lines
            .iter()
            .find(|l| l.metric == "decision_p99_ns")
            .unwrap();
        assert!((p99.slowdown - 127.0 / 255.0).abs() < 1e-12);
        // p99 quadrupling trips the gate even with throughput unchanged.
        let d = diff(&[old], &[serve(8e6, 1023.0)], DEFAULT_TOLERANCE);
        assert!(d.regressed());
        let bad: Vec<_> = d.lines.iter().filter(|l| l.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "decision_p99_ns");
    }

    #[test]
    fn load_dir_round_trips_written_artifacts() {
        let dir = std::env::temp_dir().join(format!(
            "qnlg-perfdiff-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut report = crate::Report::new("sample", 7);
        report.point(Json::obj([("load", Json::num(1.0))]));
        let perf = PerfStats {
            elapsed_ns: 42_000,
            metrics: vec![
                rate("rounds_per_sec", 5e5),
                latency("decision_p99_ns", 511.0),
            ],
        };
        let ctx = crate::RunContext {
            quick: true,
            threads: 1,
            git: "test".into(),
            obs: None,
            perf: Some(perf.clone()),
        };
        let line = report.to_json(&ctx).render();
        crate::report::write_artifact(&dir, "BENCH_sample.json", &format!("{line}\n"))
            .expect("write artifact");
        assert_eq!(
            artifact_paths(&dir),
            Ok(vec![dir.join("BENCH_sample.json")])
        );
        let entries = load_dir(&dir).expect("load artifacts");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].experiment, "sample");
        assert_eq!(entries[0].perf, Some(perf));
        let d = diff(&entries, &entries, DEFAULT_TOLERANCE);
        assert!(!d.regressed());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
