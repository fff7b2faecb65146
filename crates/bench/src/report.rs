//! Typed experiment reports.
//!
//! Every experiment returns a [`Report`]: the rendered text table the
//! `repro` binary has always printed, plus machine-readable content —
//! key scalars, binomial estimates with their 95% Wilson intervals, one
//! JSON object per swept point, and named acceptance checks. The
//! [`Report::to_json`] method serializes the whole thing as one JSON
//! line with a stable schema (`qnlg.bench.v1`) for the `BENCH_*.json`
//! artifacts.
//!
//! Determinism contract: everything inside the report is a pure function
//! of the experiment's seeds, so the JSON line is byte-identical across
//! worker counts once the run-environment fields (`threads`, `git`, the
//! `obs` snapshot with its `time.*` wall-clock metrics and scheduling
//! counters, and `perf`) are stripped. [`canonical_json`] pins
//! them, and the determinism tests digest its output.

use obs::json::Json;
use qmath::stats::Proportion;

/// One named acceptance check with its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short identifier, e.g. `"knee-order"`.
    pub name: String,
    /// Whether the run satisfied the check.
    pub passed: bool,
    /// Human-readable evidence (the numbers that were compared).
    pub detail: String,
}

/// The structured result of one experiment run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment name as dispatched by `repro` (e.g. `"fig4"`).
    pub name: &'static str,
    /// Seed domain of [`crate::point_seed`] the experiment draws from.
    pub seed: u64,
    /// The rendered text report (tables + commentary).
    pub text: String,
    /// Key scalar results, in insertion order.
    pub scalars: Vec<(String, f64)>,
    /// Monte-Carlo proportions with 95% Wilson intervals.
    pub intervals: Vec<(String, Proportion)>,
    /// One JSON object per swept point.
    pub points: Vec<Json>,
    /// Acceptance checks evaluated against the run's own numbers.
    pub checks: Vec<Check>,
}

impl Report {
    /// Starts an empty report for `name`, drawing seeds from the
    /// `point_seed` domain `seed`.
    pub fn new(name: &'static str, seed: u64) -> Self {
        Report {
            name,
            seed,
            text: String::new(),
            scalars: Vec::new(),
            intervals: Vec::new(),
            points: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Records a key scalar.
    pub fn scalar(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.scalars.push((name.into(), value));
        self
    }

    /// Records a proportion with its Wilson interval.
    pub fn interval(&mut self, name: impl Into<String>, p: Proportion) -> &mut Self {
        self.intervals.push((name.into(), p));
        self
    }

    /// Appends a per-point JSON object.
    pub fn point(&mut self, point: Json) -> &mut Self {
        self.points.push(point);
        self
    }

    /// Records an acceptance check.
    pub fn check(
        &mut self,
        name: impl Into<String>,
        passed: bool,
        detail: impl Into<String>,
    ) -> &mut Self {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
        self
    }

    /// True if every acceptance check passed (vacuously true with none).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// A one-line pass/fail summary of the checks, for the text output.
    pub fn check_summary(&self) -> String {
        if self.checks.is_empty() {
            return String::new();
        }
        let mut out = String::from("checks:\n");
        for c in &self.checks {
            let mark = if c.passed { "PASS" } else { "FAIL" };
            out.push_str(&format!("  [{mark}] {} — {}\n", c.name, c.detail));
        }
        out
    }

    /// Serializes as one `qnlg.bench.v1` JSON object.
    pub fn to_json(&self, ctx: &RunContext) -> Json {
        Json::obj([
            ("schema", Json::str("qnlg.bench.v1")),
            ("experiment", Json::str(self.name)),
            ("quick", Json::Bool(ctx.quick)),
            ("seed", Json::uint(self.seed)),
            ("threads", Json::uint(ctx.threads as u64)),
            ("git", Json::str(ctx.git.clone())),
            ("passed", Json::Bool(self.passed())),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name.clone())),
                                ("passed", Json::Bool(c.passed)),
                                ("detail", Json::str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "scalars",
                Json::Obj(
                    self.scalars
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
            (
                "intervals",
                Json::Obj(
                    self.intervals
                        .iter()
                        .map(|(k, p)| (k.clone(), proportion_to_json(p)))
                        .collect(),
                ),
            ),
            ("points", Json::Arr(self.points.clone())),
            ("obs", ctx.obs.as_ref().map_or(Json::Null, obs_to_json)),
            (
                "perf",
                ctx.perf.as_ref().map_or(Json::Null, PerfStats::to_json),
            ),
        ])
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)?;
        let summary = self.check_summary();
        if !summary.is_empty() {
            write!(f, "\n{summary}")?;
        }
        Ok(())
    }
}

/// Which way a [`Metric`] improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates).
    Higher,
    /// Smaller is better (latencies).
    Lower,
}

impl Better {
    /// The schema spelling, `"higher"` or `"lower"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One per-unit-of-work performance number, in `BENCHMARK.json`'s metric
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique within one `perf` section (e.g. `"tasks_per_sec"`).
    pub name: String,
    /// Unit (e.g. `"1/s"`, `"ns"`).
    pub unit: String,
    /// Which way the number improves.
    pub better: Better,
    /// The measured value.
    pub value: f64,
}

/// Wall-clock performance of one experiment run (or of one fig4-scale
/// point). Like `threads` and `git`, this describes the producing
/// machine, not the experiment's deterministic result — determinism
/// comparisons strip it.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfStats {
    /// Wall-clock nanoseconds for the measured work (excludes
    /// serialization). The only number tied to the Monte-Carlo budget.
    pub elapsed_ns: u64,
    /// Per-unit-of-work metrics, each present only when its subsystem
    /// ran.
    pub metrics: Vec<Metric>,
}

impl PerfStats {
    /// Derives the metrics from an elapsed time and the obs snapshot
    /// captured over the same span, from one table: a metric whose
    /// source recorded nothing is left out.
    pub fn from_elapsed(elapsed: std::time::Duration, snap: Option<&obs::Snapshot>) -> Self {
        let elapsed_ns = (elapsed.as_nanos() as u64).max(1);
        let counter = |name: &str| {
            snap.and_then(|s| s.counters.iter().find(|(n, _)| n == name))
                .map(|(_, v)| *v)
                .filter(|&v| v > 0)
        };
        let per_sec = |count: &str, ns| Some(counter(count)? as f64 / (ns? as f64 / 1e9));
        let latency = |q: f64| {
            let hist = snap?.hist("qnlg.serve.decision_latency_ns")?;
            Some(hist.percentile(q)? as f64)
        };
        let wall = Some(elapsed_ns);
        // E11's hot rate is per second of hot-window busy time, so
        // open-loop pacing and refills don't dilute it.
        let busy = counter("qnlg.serve.hot.ns");
        use Better::{Higher, Lower};
        #[rustfmt::skip]
        let table = [
            ("pairs_per_sec", "1/s", Higher, per_sec("qnet.epr.emitted", wall)),
            ("tasks_per_sec", "1/s", Higher, per_sec("lb.tasks.assigned", wall)),
            ("rounds_per_sec", "1/s", Higher, per_sec("games.ghz.rounds", wall)),
            ("hot_decisions_per_sec", "1/s", Higher, per_sec("qnlg.serve.hot.decisions", busy)),
            ("decision_p50_ns", "ns", Lower, latency(0.50)),
            ("decision_p99_ns", "ns", Lower, latency(0.99)),
            ("decision_p999_ns", "ns", Lower, latency(0.999)),
        ];
        let metrics = table
            .into_iter()
            .filter_map(|(name, unit, better, value)| {
                Some(Metric {
                    name: name.into(),
                    unit: unit.into(),
                    better,
                    value: value?,
                })
            })
            .collect();
        PerfStats {
            elapsed_ns,
            metrics,
        }
    }

    /// The metric called `name`, if present.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes as `{"elapsed_ns": N, "metrics": [{"name", "unit",
    /// "better", "value"}, …]}`.
    pub fn to_json(&self) -> Json {
        let metric = |m: &Metric| {
            Json::obj([
                ("name", Json::str(m.name.clone())),
                ("unit", Json::str(m.unit.clone())),
                ("better", Json::str(m.better.as_str())),
                ("value", Json::num(m.value)),
            ])
        };
        Json::obj([
            ("elapsed_ns", Json::uint(self.elapsed_ns)),
            (
                "metrics",
                Json::Arr(self.metrics.iter().map(metric).collect()),
            ),
        ])
    }

    /// Parses a `perf` object written by [`PerfStats::to_json`].
    ///
    /// # Errors
    /// A message naming the first missing, mistyped or non-positive
    /// field, or a metric name that appears twice.
    pub fn from_json(perf: &Json) -> Result<Self, String> {
        let elapsed_ns = perf
            .get("elapsed_ns")
            .and_then(Json::as_i64)
            .and_then(|v| u64::try_from(v).ok())
            .filter(|&v| v > 0)
            .ok_or("'perf.elapsed_ns' is not a positive integer")?;
        let items = perf
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("'perf.metrics' is not an array")?;
        let mut metrics: Vec<Metric> = Vec::with_capacity(items.len());
        for (i, m) in items.iter().enumerate() {
            let bad = |key: &str| format!("'perf.metrics[{i}].{key}' is missing or invalid");
            let text = |key: &str| m.get(key).and_then(Json::as_str).ok_or_else(|| bad(key));
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(bad("better")),
            };
            let metric = Metric {
                name: text("name")?.into(),
                unit: text("unit")?.into(),
                better,
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .filter(|&v| v > 0.0)
                    .ok_or_else(|| bad("value"))?,
            };
            if metrics.iter().any(|prev| prev.name == metric.name) {
                return Err(format!("'perf.metrics' names '{}' twice", metric.name));
            }
            metrics.push(metric);
        }
        Ok(PerfStats {
            elapsed_ns,
            metrics,
        })
    }

    /// Parses the `perf` member of an artifact line or a fig4-scale
    /// point; `None` when it is absent or null (the determinism-pinned
    /// form).
    ///
    /// # Errors
    /// As [`PerfStats::from_json`].
    pub fn of(obj: &Json) -> Result<Option<Self>, String> {
        obj.get("perf")
            .filter(|p| !matches!(p, Json::Null))
            .map(PerfStats::from_json)
            .transpose()
    }
}

/// Run-environment fields attached at serialization time (they are not
/// part of the experiment's deterministic result).
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Whether the run used the quick (CI) Monte-Carlo budget.
    pub quick: bool,
    /// Worker threads the sweep pool used.
    pub threads: usize,
    /// `git describe` of the producing tree, or `"unknown"`.
    pub git: String,
    /// Metrics snapshot covering exactly this experiment's run.
    pub obs: Option<obs::Snapshot>,
    /// Wall-clock timing of this experiment's run.
    pub perf: Option<PerfStats>,
}

impl RunContext {
    /// The context `repro` uses: current pool width and git revision.
    pub fn current(quick: bool, obs: Option<obs::Snapshot>) -> Self {
        RunContext {
            quick,
            threads: runtime::thread_count(),
            git: git_describe(),
            obs,
            perf: None,
        }
    }
}

/// `report`'s quick artifact line with the run-environment fields pinned
/// (`threads`, `git`, `obs`, `perf`): two renders differ only
/// where the experiment's results differ.
pub fn canonical_json(report: &Report) -> String {
    let ctx = RunContext {
        quick: true,
        threads: 0,
        git: "pinned".into(),
        obs: None,
        perf: None,
    };
    report.to_json(&ctx).render()
}

/// `git describe --always --dirty` of the working tree, `"unknown"` when
/// git or the repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn proportion_to_json(p: &Proportion) -> Json {
    Json::obj([
        ("estimate", Json::Num(p.estimate)),
        ("lo", Json::Num(p.lo)),
        ("hi", Json::Num(p.hi)),
        ("trials", Json::uint(p.trials)),
    ])
}

/// Serializes an obs snapshot: counters and gauges verbatim, histograms
/// as summary objects (count/sum/min/max/mean plus p50/p99 upper
/// bounds). Metric names under `time.` are wall-clock and therefore
/// non-deterministic by contract.
pub fn obs_to_json(snap: &obs::Snapshot) -> Json {
    let hist_json = |h: &obs::HistSnapshot| {
        Json::obj([
            ("count", Json::uint(h.count)),
            ("sum", Json::uint(h.sum)),
            (
                "min",
                if h.count > 0 {
                    Json::uint(h.min)
                } else {
                    Json::Null
                },
            ),
            (
                "max",
                if h.count > 0 {
                    Json::uint(h.max)
                } else {
                    Json::Null
                },
            ),
            ("mean", Json::num(h.mean())),
            ("p50", h.percentile(0.5).map_or(Json::Null, Json::uint)),
            ("p99", h.percentile(0.99).map_or(Json::Null, Json::uint)),
        ])
    };
    Json::obj([
        (
            "counters",
            Json::Obj(
                snap.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::uint(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                snap.gauges
                    .iter()
                    .map(|(n, g)| {
                        (
                            n.clone(),
                            Json::obj([
                                ("value", Json::Int(g.value)),
                                (
                                    "high_water",
                                    if g.high_water == i64::MIN {
                                        Json::Null
                                    } else {
                                        Json::Int(g.high_water)
                                    },
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "hists",
            Json::Obj(
                snap.hists
                    .iter()
                    .map(|(n, h)| (n.clone(), hist_json(h)))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes a full [`loadbalance::metrics::SimResult`] as a JSON
/// object — the per-point payload of the Figure 4 family.
pub fn sim_result_to_json(r: &loadbalance::metrics::SimResult) -> Json {
    Json::obj([
        ("strategy", Json::str(r.strategy)),
        ("load", Json::num(r.load)),
        ("avg_queue_len", Json::num(r.avg_queue_len)),
        ("avg_wait", Json::num(r.avg_wait)),
        ("p50_wait", Json::num(r.p50_wait)),
        ("p99_wait", Json::num(r.p99_wait)),
        ("max_queue_len", Json::uint(r.max_queue_len as u64)),
        ("served", Json::uint(r.served)),
        ("generated", Json::uint(r.generated)),
        ("cc_colocation_rate", Json::num(r.cc_colocation_rate)),
        ("split_rate", Json::num(r.split_rate)),
        ("cc_rounds", Json::uint(r.cc_rounds)),
        ("cc_colocated", Json::uint(r.cc_colocated)),
        ("other_rounds", Json::uint(r.other_rounds)),
        ("other_split", Json::uint(r.other_split)),
        (
            "queue_len_series",
            Json::Arr(r.queue_len_series.iter().map(|&v| Json::num(v)).collect()),
        ),
    ])
}

/// The artifact schema's required top-level fields, shared by the
/// `check-artifacts` validator and the schema tests.
pub const REQUIRED_FIELDS: &[&str] = &[
    "schema",
    "experiment",
    "quick",
    "seed",
    "threads",
    "git",
    "passed",
    "checks",
    "scalars",
    "intervals",
    "points",
    "obs",
    "perf",
];

/// Validates one artifact line against the `qnlg.bench.v1` schema.
///
/// # Errors
/// A message naming the parse failure or the first missing/mistyped
/// field.
pub fn validate_artifact_line(line: &str) -> Result<Json, String> {
    let doc = Json::parse(line)?;
    for field in REQUIRED_FIELDS {
        if doc.get(field).is_none() {
            return Err(format!("missing required field '{field}'"));
        }
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some("qnlg.bench.v1") => {}
        other => return Err(format!("unsupported schema {other:?}")),
    }
    let Some(points) = doc.get("points").and_then(Json::as_arr) else {
        return Err("'points' is not an array".into());
    };
    if doc.get("checks").and_then(Json::as_arr).is_none() {
        return Err("'checks' is not an array".into());
    }
    if doc.get("seed").and_then(Json::as_i64).is_none() {
        return Err("'seed' is not an integer".into());
    }
    if doc.get("threads").and_then(Json::as_i64).is_none() {
        return Err("'threads' is not an integer".into());
    }
    // `perf` must be present; when populated (not the determinism-pinned
    // null) it must parse, and so must fig4-scale's per-point sections.
    PerfStats::of(&doc)?;
    for (i, point) in points.iter().enumerate() {
        PerfStats::of(point).map_err(|e| format!("points[{i}]: {e}"))?;
    }
    Ok(doc)
}

/// The quick-budget cliff guard for `decision_p99_ns` (the served path
/// decides in well under 1 µs): the gate's one absolute wall-clock bound.
const DECISION_P99_CEILING_NS: f64 = 20_000.0;

/// Every rule `repro check-artifacts` applies to an artifact line: it
/// passes [`validate_artifact_line`] and its acceptance checks, `perf`
/// (which `repro` always writes) and every point's `perf` are not null,
/// and `decision_p99_ns` is under the 20 µs cliff guard. Returns the
/// experiment's name.
///
/// # Errors
/// A message naming the first failed rule.
pub fn check_repro_artifact(line: &str) -> Result<String, String> {
    let doc = validate_artifact_line(line)?;
    let exp = doc.get("experiment").and_then(Json::as_str).unwrap_or("?");
    if doc.get("passed").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{exp}: acceptance checks failed"));
    }
    let perf = PerfStats::of(&doc)?.ok_or("'perf' is null")?;
    let points = doc.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    if let Some(i) = points
        .iter()
        .position(|p| p.get("perf") == Some(&Json::Null))
    {
        return Err(format!("points[{i}]: 'perf' is null"));
    }
    let p99 = perf.metric("decision_p99_ns").map_or(0.0, |m| m.value);
    if p99 >= DECISION_P99_CEILING_NS {
        return Err(format!("decision_p99_ns {p99} ns is not under 20 µs"));
    }
    Ok(exp.to_string())
}

/// Writes one artifact file into `dir`, creating the directory (and any
/// missing parents) first. This is the single write path `repro` uses for
/// `BENCH_*`/`TRACE_*` outputs so `--out some/new/dir` always works.
///
/// # Errors
/// The underlying I/O error, prefixed with the offending path.
pub fn write_artifact(
    dir: &std::path::Path,
    name: &str,
    contents: &str,
) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, unit: &str, better: Better, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            better,
            value,
        }
    }

    fn sample_perf() -> PerfStats {
        PerfStats {
            elapsed_ns: 1_500_000,
            metrics: vec![
                metric("pairs_per_sec", "1/s", Better::Higher, 2e6),
                metric("hot_decisions_per_sec", "1/s", Better::Higher, 8.25e6),
                metric("decision_p99_ns", "ns", Better::Lower, 511.0),
            ],
        }
    }

    fn sample_report() -> Report {
        let mut r = Report::new("sample", 7);
        r.text = "a table\n".into();
        r.scalar("knee", 1.2);
        r.interval("cc", qmath::stats::wilson(850, 1000));
        r.point(Json::obj([("load", Json::num(1.0))]));
        r.check("sane", true, "1.2 < 2.0");
        r
    }

    #[test]
    fn report_roundtrips_through_schema() {
        let r = sample_report();
        let ctx = RunContext {
            quick: true,
            threads: 4,
            git: "test".into(),
            obs: None,
            perf: Some(sample_perf()),
        };
        let line = r.to_json(&ctx).render();
        let doc = validate_artifact_line(&line).expect("valid artifact");
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("sample"));
        let perf = PerfStats::of(&doc).unwrap().expect("perf is populated");
        assert_eq!(perf.elapsed_ns, 1_500_000);
        assert_eq!(perf.metric("decision_p99_ns").unwrap().value, 511.0);
        assert_eq!(doc.get("seed").unwrap().as_i64(), Some(7));
        assert_eq!(doc.get("passed").unwrap().as_bool(), Some(true));
        let interval = doc.get("intervals").unwrap().get("cc").unwrap();
        assert!(interval.get("lo").unwrap().as_f64().unwrap() < 0.85);
        assert!(interval.get("hi").unwrap().as_f64().unwrap() > 0.85);
    }

    #[test]
    fn failed_check_fails_report() {
        let mut r = sample_report();
        assert!(r.passed());
        r.check("broken", false, "2 > 1 failed");
        assert!(!r.passed());
        assert!(r.check_summary().contains("[FAIL] broken"));
    }

    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_artifact_line("not json").is_err());
        assert!(validate_artifact_line("{}").is_err());
        assert!(
            validate_artifact_line(r#"{"schema":"qnlg.bench.v2"}"#).is_err(),
            "wrong schema version must be rejected"
        );
    }

    #[test]
    fn perf_round_trips_through_to_json_and_from_json() {
        let perf = sample_perf();
        let text = perf.to_json().render();
        let parsed = PerfStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, perf);
        let empty = PerfStats {
            elapsed_ns: 7,
            metrics: Vec::new(),
        };
        assert_eq!(PerfStats::from_json(&empty.to_json()), Ok(empty));
    }

    #[test]
    fn validator_rejects_malformed_perf_metrics() {
        let r = sample_report();
        let ctx = RunContext {
            quick: true,
            threads: 1,
            git: "test".into(),
            obs: None,
            perf: Some(sample_perf()),
        };
        let line = r.to_json(&ctx).render();
        validate_artifact_line(&line).expect("well-formed perf");
        let rejects = |from: &str, to: &str, needle: &str| {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line, "replacement must hit: {from}");
            let err = validate_artifact_line(&bad).expect_err(to);
            assert!(err.contains(needle), "{to}: got {err}");
        };
        rejects(r#""better":"higher""#, r#""better":"up""#, "better");
        rejects(r#""value":2000000"#, r#""value":"fast""#, "value");
        rejects(r#""unit":"1/s","#, "", "unit");
        rejects(
            "hot_decisions_per_sec",
            "pairs_per_sec",
            "'pairs_per_sec' twice",
        );
        rejects(
            r#""elapsed_ns":1500000"#,
            r#""elapsed_ns":-1"#,
            "elapsed_ns",
        );
        rejects(r#""metrics":["#, r#""metrics":{},"x":["#, "metrics");
        rejects(r#""elapsed_ns":1500000"#, r#""elapsed_ns":0"#, "elapsed_ns");
        rejects(r#""value":2000000"#, r#""value":0"#, "value");
        rejects(r#""value":2000000"#, r#""value":-2000000"#, "value");

        // An empty list is a run in which no measured subsystem ran.
        let empty = line.replacen(
            &sample_perf().to_json().render(),
            r#"{"elapsed_ns":5,"metrics":[]}"#,
            1,
        );
        assert_ne!(empty, line);
        validate_artifact_line(&empty).expect("empty metric list is valid");

        // fig4-scale's per-point perf sections go through the same parser.
        let mut point = r.clone();
        point.points = vec![Json::obj([
            ("load", Json::num(1.0)),
            ("perf", sample_perf().to_json()),
        ])];
        let good = point.to_json(&ctx).render();
        validate_artifact_line(&good).expect("per-point perf is valid");
        let bad = good.replacen(r#""better":"lower""#, r#""better":"down""#, 1);
        let err = validate_artifact_line(&bad).expect_err("bad per-point better");
        assert!(err.contains("points[0]"), "got: {err}");
        let bad = good.replacen(r#""value":511"#, r#""value":0"#, 1);
        let err = validate_artifact_line(&bad).expect_err("zero per-point metric");
        assert!(err.contains("points[0]"), "got: {err}");

        // `repro` always writes perf, so check-artifacts also fails a null
        // perf or per-point perf, and a p99 at the cliff-guard ceiling.
        let check = check_repro_artifact;
        assert_eq!(check(&line), Ok("sample".to_string()));
        let failed = line.replacen(r#""passed":true"#, r#""passed":false"#, 1);
        assert!(check(&failed)
            .unwrap_err()
            .contains("acceptance checks failed"));
        let perf_json = sample_perf().to_json().render();
        let null_perf = line.replacen(&perf_json, "null", 1);
        assert!(check(&null_perf).unwrap_err().contains("'perf' is null"));
        check(&good).expect("per-point perf passes");
        // The point's perf renders before the top-level one.
        let null_point = good.replacen(&perf_json, "null", 1);
        let err = check(&null_point).unwrap_err();
        assert!(err.contains("points[0]: 'perf' is null"), "got: {err}");
        check(&line.replacen(r#""value":511"#, r#""value":19999"#, 1)).expect("under the ceiling");
        let slow = line.replacen(r#""value":511"#, r#""value":20000"#, 1);
        assert!(check(&slow).unwrap_err().contains("decision_p99_ns"));
    }

    #[test]
    fn write_artifact_creates_missing_directories() {
        let dir = std::env::temp_dir().join(format!(
            "qnlg-write-artifact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("deep").join("out");
        assert!(!nested.exists(), "precondition: target dir absent");
        let path = write_artifact(&nested, "BENCH_x.json", "{\"ok\":true}\n")
            .expect("writes through missing parents");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        // Second write into the now-existing dir overwrites cleanly.
        write_artifact(&nested, "BENCH_x.json", "{}\n").expect("rewrite");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn display_appends_check_summary() {
        let r = sample_report();
        let shown = format!("{r}");
        assert!(shown.starts_with("a table"));
        assert!(shown.contains("[PASS] sane"));
    }
}
