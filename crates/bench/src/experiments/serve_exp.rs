//! Experiment E11: the long-lived coordination service (`qnlg-serve`).
//!
//! The paper's deployment story assumes coordination is consulted *per
//! task*, which only works if a decision costs less than the work it
//! places. E11 exercises the service shape of that claim — pre-drawn
//! decision slots carried over lock-free SPSC rings — in two halves:
//!
//! - **Deterministic arms** (canonical payload, byte-identical across
//!   worker counts and obs/trace toggles): a healthy-plane control soak
//!   (quantum tier dominates, governor silent), a fault soak (periodic
//!   link outages trip the governor to the classical tier and recovery
//!   brings it back), and a starvation soak (empty rings degrade inline
//!   — every exhausted decision still answers, split-placed, without
//!   blocking).
//! - **Wall-clock arms** (obs + stderr only, never canonical): timed
//!   fill-then-drain windows feed `qnlg.serve.hot.{decisions,ns}` —
//!   the artifact's `hot_decisions_per_sec` perf metric — and
//!   per-decision `Instant` samples feed the
//!   `qnlg.serve.decision_latency_ns` histogram behind
//!   `decision_p50_ns`/`decision_p99_ns`/`decision_p999_ns`.
//!
//! Under `repro serve --soak` the wall-clock arms loop until SIGINT;
//! the acceptance checks all come from the deterministic arms, so an
//! interrupted soak still emits a complete, passing artifact.

use crate::report::Report;
use crate::table::{f4, Table};
use obs::json::Json;
use qnet::{FaultKind, FaultPlan, LinkSide, SimTime};
use serve::{measure, ServeConfig, ServiceCore, TIER_CLASSICAL, TIER_INDEPENDENT, TIER_QUANTUM};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Endpoints per arm (two is enough to exercise stream separation while
/// keeping the quick run fast).
const ENDPOINTS: u32 = 2;

/// The arm configuration: smaller rings than production so refills fire
/// visibly often inside the soak budgets.
fn arm_config(master_seed: u64) -> ServeConfig {
    ServeConfig {
        n_servers: 64,
        n_endpoints: ENDPOINTS,
        ring_capacity: 1024,
        low_water: 256,
        refill_batch: 512,
        ..ServeConfig::typical(master_seed)
    }
}

/// Per-endpoint outcome of one deterministic soak.
struct ArmStats {
    endpoint: u32,
    decisions: u64,
    by_tier: [u64; 3],
    exhausted: u64,
    transitions: u64,
    misses: u64,
}

/// Runs one deterministic soak: `per_endpoint` decisions on every
/// endpoint, pumping between rounds, inputs cycling through the CHSH
/// combinations.
fn soak(core: &mut ServiceCore, per_endpoint: u64) -> Vec<ArmStats> {
    for i in 0..per_endpoint {
        for e in 0..ENDPOINTS as usize {
            let _ = core.decide(e, i % 2 == 0, i % 3 == 0);
        }
        core.pump_all();
    }
    (0..ENDPOINTS)
        .map(|e| {
            let es = core.endpoint_mut(e as usize).stats();
            let fs = core.feed_mut(e as usize).stats();
            ArmStats {
                endpoint: e,
                decisions: es.decisions,
                by_tier: es.by_tier,
                exhausted: es.exhausted,
                transitions: fs.transitions,
                misses: fs.misses,
            }
        })
        .collect()
}

/// Emits one arm's table and per-endpoint canonical points.
fn render_arm(report: &mut Report, part: &str, stats: &[ArmStats], out: &mut String, title: &str) {
    let mut t = Table::new(vec![
        "endpoint",
        "decisions",
        "quantum",
        "classical",
        "independent",
        "exhausted",
        "transitions",
    ]);
    for s in stats {
        t.row(vec![
            s.endpoint.to_string(),
            s.decisions.to_string(),
            s.by_tier[TIER_QUANTUM as usize].to_string(),
            s.by_tier[TIER_CLASSICAL as usize].to_string(),
            s.by_tier[TIER_INDEPENDENT as usize].to_string(),
            s.exhausted.to_string(),
            s.transitions.to_string(),
        ]);
        report.point(Json::obj([
            ("part", Json::str(part)),
            ("endpoint", Json::uint(u64::from(s.endpoint))),
            ("decisions", Json::uint(s.decisions)),
            ("quantum", Json::uint(s.by_tier[TIER_QUANTUM as usize])),
            ("classical", Json::uint(s.by_tier[TIER_CLASSICAL as usize])),
            (
                "independent",
                Json::uint(s.by_tier[TIER_INDEPENDENT as usize]),
            ),
            ("exhausted", Json::uint(s.exhausted)),
            ("transitions", Json::uint(s.transitions)),
            ("misses", Json::uint(s.misses)),
        ]));
    }
    out.push_str(&format!("{title}\n\n{}\n", t.render()));
}

fn sum(stats: &[ArmStats], f: impl Fn(&ArmStats) -> u64) -> u64 {
    stats.iter().map(f).sum()
}

/// Runs E11 with the standard budgets.
pub fn run(quick: bool) -> Report {
    run_with_stop(quick, None)
}

/// Runs E11 as an open-ended soak: the wall-clock arms loop until
/// `stop` is set (the `repro serve --soak` SIGINT flag). All acceptance
/// checks come from the deterministic arms, which complete first, so
/// interrupting the soak still yields a complete artifact.
pub fn run_soak(stop: &AtomicBool) -> Report {
    run_with_stop(false, Some(stop))
}

fn run_with_stop(quick: bool, stop: Option<&AtomicBool>) -> Report {
    let mut report = Report::new("serve", 46);
    let mut out = String::new();
    let stopped = || stop.is_some_and(|s| s.load(Ordering::Acquire));

    // (a) Control: healthy plane. The decision period in
    // `ServeConfig::typical` is half the delivered-pair rate, so the
    // quantum tier must dominate and the governor must stay silent.
    let per_endpoint: u64 = if quick { 4_000 } else { 40_000 };
    let mut core = ServiceCore::new(&arm_config(crate::point_seed(46, 0, 0)));
    core.fill_all();
    let control = soak(&mut core, per_endpoint);
    drop(core);
    render_arm(
        &mut report,
        "control",
        &control,
        &mut out,
        &format!("E11a — healthy-plane control soak ({per_endpoint} decisions/endpoint)"),
    );
    let decisions = sum(&control, |s| s.decisions);
    let quantum = sum(&control, |s| s.by_tier[TIER_QUANTUM as usize]);
    let quantum_frac = quantum as f64 / decisions as f64;
    report.scalar("control.quantum_frac", quantum_frac);
    report.check(
        "control-quantum-dominates",
        quantum_frac > 0.9,
        format!("healthy plane served {quantum_frac:.4} of decisions from the quantum tier"),
    );
    // A healthy plane still misses the odd delivery (~0.5% of rounds),
    // and a miss burst can transiently trip the small-window governor.
    // The defensible claim: trips are rare, and every trip recovers —
    // an even transition count means the governor ended back on the
    // quantum tier it started on.
    report.check(
        "control-governor-recovers",
        control
            .iter()
            .all(|s| s.transitions % 2 == 0 && s.transitions <= 6),
        "governor transitions on the healthy plane are rare and always recover",
    );
    report.check(
        "control-accounting-balances",
        control
            .iter()
            .all(|s| s.by_tier.iter().sum::<u64>() == s.decisions),
        "every decision is attributed to exactly one tier",
    );

    // (b) Faulted: periodic both-link outages. The governor must trip
    // off the quantum tier during each outage and recover after it.
    let faulted_per_endpoint: u64 = if quick { 6_000 } else { 24_000 };
    let mut config = arm_config(crate::point_seed(46, 1, 0));
    let period_ns = config.decision_period.as_nanos() as u64;
    config.distributor.faults = FaultPlan::periodic(
        FaultKind::LinkOutage(LinkSide::Both),
        SimTime::from_micros(2_000),
        Duration::from_micros(40_000),
        Duration::from_micros(8_000),
        SimTime::from_nanos(faulted_per_endpoint.saturating_mul(period_ns)),
    );
    let mut core = ServiceCore::new(&config);
    core.fill_all();
    let faulted = soak(&mut core, faulted_per_endpoint);
    drop(core);
    render_arm(
        &mut report,
        "faulted",
        &faulted,
        &mut out,
        &format!(
            "E11b — fault soak ({faulted_per_endpoint} decisions/endpoint, \
             8 ms both-link outage every 40 ms)"
        ),
    );
    let transitions = sum(&faulted, |s| s.transitions);
    report.scalar("faulted.transitions", transitions as f64);
    report.check(
        "faulted-governor-trips-and-recovers",
        !faulted.is_empty() && faulted.iter().all(|s| s.transitions >= 2),
        format!("every endpoint saw >= 2 mode transitions ({transitions} total)"),
    );
    report.check(
        "faulted-serves-degraded-tiers",
        !faulted.is_empty()
            && faulted.iter().all(|s| {
                s.by_tier[TIER_CLASSICAL as usize] + s.by_tier[TIER_INDEPENDENT as usize] > 0
                    && s.by_tier[TIER_QUANTUM as usize] > 0
            }),
        "outage windows degrade, healthy windows stay quantum",
    );
    report.check(
        "faulted-records-misses",
        faulted.iter().all(|s| s.misses > 0),
        "starved quantum rounds are counted as misses",
    );

    // (c) Starved: never fill, never pump. Every decision finds an empty
    // ring and must still answer — split-placed, classical tier — from
    // the endpoint's inline fallback stream.
    let starved_per_endpoint: u64 = if quick { 2_000 } else { 10_000 };
    let mut core = ServiceCore::new(&arm_config(crate::point_seed(46, 2, 0)));
    let mut all_split = true;
    for i in 0..starved_per_endpoint {
        for e in 0..ENDPOINTS as usize {
            let p = core.decide(e, i % 2 == 0, i % 3 == 0);
            all_split &= p.first != p.second;
        }
    }
    let starved: Vec<ArmStats> = (0..ENDPOINTS)
        .map(|e| {
            let es = core.endpoint_mut(e as usize).stats();
            ArmStats {
                endpoint: e,
                decisions: es.decisions,
                by_tier: es.by_tier,
                exhausted: es.exhausted,
                transitions: 0,
                misses: 0,
            }
        })
        .collect();
    drop(core);
    render_arm(
        &mut report,
        "starved",
        &starved,
        &mut out,
        &format!("E11c — starvation soak ({starved_per_endpoint} decisions/endpoint, rings never filled)"),
    );
    report.check(
        "starved-degrades-inline",
        !starved.is_empty()
            && starved
                .iter()
                .all(|s| s.exhausted == s.decisions && s.decisions == starved_per_endpoint),
        "every empty-ring decision answered from the inline fallback",
    );
    report.check(
        "starved-always-splits",
        all_split,
        "inline classical fallback always split-places",
    );

    // (d) Wall-clock arms: machine-dependent, so results go to obs (the
    // artifact's `perf` section) and stderr only — never the canonical
    // payload. Each round is one timed fill-then-drain throughput window
    // plus a burst of per-decision latency samples; under `--soak` the
    // rounds loop until SIGINT.
    let rounds: u64 = if stop.is_some() {
        u64::MAX
    } else if quick {
        24
    } else {
        192
    };
    let latency_burst: u64 = 2_048;
    let mut core = ServiceCore::new(&arm_config(crate::point_seed(46, 3, 0)));
    let capacity = 1024u64;
    let mut hot_decisions = 0u64;
    let mut hot_ns = 0u64;
    let mut sampled = 0u64;
    let started = Instant::now();
    for _ in 0..rounds {
        if stopped() {
            break;
        }
        // Throughput window: rings filled to capacity, then drained dry
        // inside one timer. Only the drain is timed.
        core.fill_all();
        let t0 = Instant::now();
        for i in 0..capacity {
            for e in 0..ENDPOINTS as usize {
                let _ = core.decide(e, i % 2 == 0, i & 4 == 0);
            }
        }
        let window_ns = t0.elapsed().as_nanos() as u64;
        let window_decisions = capacity * u64::from(ENDPOINTS);
        measure::record_hot_window(window_decisions, window_ns);
        hot_decisions += window_decisions;
        hot_ns += window_ns;

        // Latency burst: one Instant pair per decision, rings kept above
        // the low-water mark by pumping *outside* the timed region.
        core.fill_all();
        for i in 0..latency_burst {
            let e = (i % u64::from(ENDPOINTS)) as usize;
            let (x, y) = (i % 2 == 0, i % 3 == 0);
            let t = Instant::now();
            let _ = core.decide(e, x, y);
            measure::record_decision_latency(t.elapsed().as_nanos() as u64);
            if i % 128 == 127 {
                core.pump_all();
            }
        }
        sampled += latency_burst;
    }
    drop(core);
    if hot_ns > 0 {
        eprintln!(
            "serve: {:.2e} decisions/s hot ({} decisions / {:.1} ms busy), \
             {} latency samples, wall {:.1} ms{}",
            hot_decisions as f64 / (hot_ns as f64 / 1e9),
            hot_decisions,
            hot_ns as f64 / 1e6,
            sampled,
            started.elapsed().as_nanos() as f64 / 1e6,
            if stopped() { " (interrupted)" } else { "" },
        );
    }
    out.push_str(&format!(
        "E11d — wall-clock hot-path measurement: see the artifact's `perf` \
         section (hot_decisions_per_sec, decision_p50/p99/p999_ns) and stderr; \
         machine-dependent numbers never enter the canonical payload.\n\
         quantum tier fraction (control): {}\n",
        f4(quantum_frac)
    ));

    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_its_checks() {
        let report = run(true);
        assert!(report.passed(), "{report}");
        let out = format!("{report}");
        assert!(out.contains("E11a"), "{out}");
        assert!(out.contains("E11c"), "{out}");
    }

    #[test]
    fn soak_stops_promptly_when_interrupted_and_still_passes() {
        // A pre-set stop flag: the wall-clock loop must exit on its
        // first check while the deterministic arms still complete and
        // the artifact still passes.
        let stop = AtomicBool::new(true);
        let report = run_soak(&stop);
        assert!(report.passed(), "{report}");
    }
}
