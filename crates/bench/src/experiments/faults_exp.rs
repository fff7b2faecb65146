//! Experiment E-faults: graceful degradation of the entanglement plane.
//!
//! Figure-4-style load balancing with the hardware in the loop and a
//! deterministic fault schedule running against it: periodic both-link
//! outages (duration swept), plus one source brownout, one QNIC capacity
//! clamp, and one decoherence spike per run. The strategy is
//! [`loadbalance::Degrading`] — the hysteretic fallback governor over the
//! live pipeline — so the question the sweep answers is the paper's
//! robustness caveat: *when the quantum plane faults, does the system
//! degrade to classical coordination gracefully, or fall off a cliff?*
//!
//! The grid is outage duration × QNIC buffer depth. For each point we
//! report the average queue length and the fraction of pair decisions
//! that were actually coordinated with a quantum pair; knees (queue > 10)
//! are reported per buffer depth — the acceptance criterion is that there
//! is *no* knee in the outage axis, i.e. queues stay within a constant
//! factor of the pure-classical baselines however long the outages get.

use crate::report::Report;
use crate::table::{f2, Table};
use loadbalance::degrade::{Degrading, HysteresisConfig};
use loadbalance::metrics::knee_load;
use loadbalance::server::Discipline;
use loadbalance::sim::{run_simulation, run_simulation_with, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::BernoulliWorkload;
use obs::json::Json;
use qmath::stats::wilson;
use qnet::{
    ConsumePolicy, DistributorConfig, EprSource, FaultKind, FaultPlan, FaultWindow, FiberLink,
    LinkSide, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Outage periods repeat every 4 ms; hysteresis windows are ~0.8 ms, so
/// the governor gets several trip/recover cycles per run.
const OUTAGE_PERIOD: Duration = Duration::from_micros(4_000);

/// Everything measured at one (outage duration, buffer depth) grid point.
struct FaultPoint {
    avg_queue: f64,
    coordinated: f64,
    quantum_rounds: u64,
    pair_rounds: u64,
    governor_transitions: u64,
    fault_transitions: u64,
    lost_outage: u64,
    suppressed: u64,
    clamp_evicted: u64,
}

/// The deterministic fault schedule for one run: periodic both-link
/// outages of the given duration, plus one brownout, one clamp, and one
/// decoherence spike at fixed offsets (so all four fault kinds are
/// exercised). Zero duration means the fault-free control arm.
fn fault_plan(outage: Duration, horizon: SimTime) -> FaultPlan {
    if outage.is_zero() {
        return FaultPlan::none();
    }
    let mut plan = FaultPlan::periodic(
        FaultKind::LinkOutage(LinkSide::Both),
        SimTime::from_micros(1_000),
        OUTAGE_PERIOD,
        outage,
        horizon,
    );
    plan.push(FaultWindow {
        start: SimTime::from_micros(10_000),
        end: SimTime::from_micros(14_000),
        kind: FaultKind::SourceBrownout { rate_factor: 0.25 },
    });
    plan.push(FaultWindow {
        start: SimTime::from_micros(20_000),
        end: SimTime::from_micros(24_000),
        kind: FaultKind::QnicClamp { capacity: 2 },
    });
    plan.push(FaultWindow {
        start: SimTime::from_micros(30_000),
        end: SimTime::from_micros(34_000),
        kind: FaultKind::DecoherenceSpike {
            lifetime_factor: 0.2,
        },
    });
    plan
}

fn sim_point(
    n_balancers: usize,
    steps: u64,
    load: f64,
    outage: Duration,
    qnic_capacity: usize,
    seed: u64,
) -> FaultPoint {
    let config = SimConfig {
        n_balancers,
        n_servers: (n_balancers as f64 / load).round() as usize,
        timesteps: steps,
        warmup: steps / 4,
        discipline: Discipline::PaperPairedC,
    };
    let timestep = Duration::from_micros(100);
    let horizon = SimTime::ZERO + timestep * (steps as u32 + 1);
    let pipeline = DistributorConfig {
        source: EprSource::new(3e4, 0.98),
        link_a: FiberLink::new(0.5),
        link_b: FiberLink::new(0.5),
        qnic_capacity,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(80),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: fault_plan(outage, horizon),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strat = Degrading::new(
        config.n_balancers,
        config.n_servers,
        pipeline,
        timestep,
        HysteresisConfig::default(),
        &mut rng,
    );
    let r = run_simulation_with(
        config,
        &mut strat,
        &mut BernoulliWorkload::paper(),
        &mut rng,
    );
    let stats = strat.pipeline().stats();
    let dist = strat.pipeline().distributor_stats();
    let rounds = strat.governor().rounds();
    FaultPoint {
        avg_queue: r.avg_queue_len,
        coordinated: strat.coordinated_fraction(),
        quantum_rounds: stats.quantum_rounds,
        pair_rounds: rounds.iter().sum::<u64>() * strat.pipeline().n_pairs() as u64,
        governor_transitions: strat.governor().transitions(),
        fault_transitions: strat.pipeline().fault_transitions(),
        lost_outage: dist.lost_outage,
        suppressed: dist.suppressed,
        clamp_evicted: dist.clamp_evicted,
    }
}

/// Runs the fault-injection sweep.
pub fn run(quick: bool) -> Report {
    run_with_threads(runtime::thread_count(), quick)
}

/// Worker-count seam for [`run`]: per-point seeds depend only on grid
/// coordinates, so the report is byte-identical at any thread count (the
/// chaos-determinism test sweeps this).
pub fn run_with_threads(threads: usize, quick: bool) -> Report {
    let (n, steps) = if quick { (40, 600) } else { (100, 2_000) };
    let load = 1.15;
    let durations: Vec<Duration> = [0u64, 800, 1_600, 3_200]
        .iter()
        .map(|&us| Duration::from_micros(us))
        .collect();
    let capacities = [4usize, 16, 48];

    // Pure-classical baselines: always-split (the best classical pairing)
    // and uniform random (the floor the deep-fault mode degenerates to).
    let baselines = runtime::par_map_threads(threads, &[0usize, 1], |_, &arm| {
        let config = SimConfig {
            n_balancers: n,
            n_servers: (n as f64 / load).round() as usize,
            timesteps: steps,
            warmup: steps / 4,
            discipline: Discipline::PaperPairedC,
        };
        let strategy = if arm == 0 {
            Strategy::PairedAlwaysSplit
        } else {
            Strategy::UniformRandom
        };
        let mut rng = StdRng::seed_from_u64(crate::point_seed(43, 9, arm as u64));
        run_simulation(config, strategy, &mut BernoulliWorkload::paper(), &mut rng).avg_queue_len
    });
    let (split_queue, random_queue) = (baselines[0], baselines[1]);

    let points = runtime::grid2(durations.len(), capacities.len());
    let flat = runtime::par_map_threads(threads, &points, |_, &(di, ci)| {
        sim_point(
            n,
            steps,
            load,
            durations[di],
            capacities[ci],
            crate::point_seed(43, di as u64, ci as u64),
        )
    });
    let mut cells: Vec<Vec<Option<FaultPoint>>> = (0..durations.len())
        .map(|_| (0..capacities.len()).map(|_| None).collect())
        .collect();
    for (&(di, ci), r) in points.iter().zip(flat) {
        cells[di][ci] = Some(r);
    }
    let cell = |di: usize, ci: usize| -> &FaultPoint {
        cells[di][ci].as_ref().expect("every grid cell filled")
    };

    let mut header: Vec<String> = vec!["outage \\ buffer depth".into()];
    header.extend(capacities.iter().map(|c| format!("cap {c}")));
    let mut t = Table::new(header);
    for (di, d) in durations.iter().enumerate() {
        let mut row = vec![if d.is_zero() {
            "none (control)".to_string()
        } else {
            format!("{} µs / {} µs", d.as_micros(), OUTAGE_PERIOD.as_micros())
        }];
        row.extend((0..capacities.len()).map(|ci| {
            let p = cell(di, ci);
            format!(
                "q̄ {} ({:.0}% coord)",
                f2(p.avg_queue),
                100.0 * p.coordinated
            )
        }));
        t.row(row);
    }

    let mut report = Report::new("fig4-faults", 43);
    report.scalar("baseline.paired-split.avg_queue_len", split_queue);
    report.scalar("baseline.uniform-random.avg_queue_len", random_queue);

    // Knees along the outage axis (in ms), one curve per buffer depth.
    // The load is saturating by design, so the absolute queue is large
    // even fault-free; the knee threshold is therefore *relative* — the
    // outage duration at which the degraded system gets meaningfully
    // worse than the best classical baseline. Graceful degradation = no
    // knee: queues never cross it however long the outages get.
    let knee_threshold = 1.25 * split_queue;
    let mut knees = String::new();
    for (ci, c) in capacities.iter().enumerate() {
        let pts: Vec<(f64, f64)> = durations
            .iter()
            .enumerate()
            .map(|(di, d)| (d.as_secs_f64() * 1e3, cell(di, ci).avg_queue))
            .collect();
        let knee = knee_load(&pts, knee_threshold);
        report.scalar(format!("knee.cap{c}"), knee.unwrap_or(f64::INFINITY));
        let shown = knee
            .map(|k| format!("{k:.1} ms"))
            .unwrap_or_else(|| "none".into());
        knees.push_str(&format!(
            "  cap {c:<3} queue knee (q̄ > 1.25 × classical split) at outage = {shown}\n"
        ));
    }

    let mut total_governor_transitions = 0u64;
    let mut max_queue = 0.0f64;
    for (di, d) in durations.iter().enumerate() {
        for (ci, c) in capacities.iter().enumerate() {
            let p = cell(di, ci);
            total_governor_transitions += p.governor_transitions;
            max_queue = max_queue.max(p.avg_queue);
            report.point(Json::obj([
                ("outage_us", Json::uint(d.as_micros() as u64)),
                ("qnic_capacity", Json::uint(*c as u64)),
                ("avg_queue_len", Json::num(p.avg_queue)),
                ("coordinated_fraction", Json::num(p.coordinated)),
                ("quantum_rounds", Json::uint(p.quantum_rounds)),
                ("pair_rounds", Json::uint(p.pair_rounds)),
                ("governor_transitions", Json::uint(p.governor_transitions)),
                ("fault_transitions", Json::uint(p.fault_transitions)),
                ("lost_outage", Json::uint(p.lost_outage)),
                ("suppressed", Json::uint(p.suppressed)),
                ("clamp_evicted", Json::uint(p.clamp_evicted)),
            ]));
        }
    }
    report.scalar(
        "governor_transitions.total",
        total_governor_transitions as f64,
    );

    // Coordinated-round intervals for the control and the worst case.
    let control = cell(0, 1);
    let worst = cell(durations.len() - 1, 1);
    if control.pair_rounds > 0 {
        report.interval(
            "coordinated.control",
            wilson(control.quantum_rounds, control.pair_rounds),
        );
    }
    if worst.pair_rounds > 0 {
        report.interval(
            "coordinated.max_outage",
            wilson(worst.quantum_rounds, worst.pair_rounds),
        );
    }

    // Acceptance criteria. The control threshold is set well clear of
    // the degraded rows (≈ 0.18–0.59) rather than at the control's own
    // mean (≈ 0.90, where a seed-dependent wobble of half a percent
    // would flip the check): pairs now become consumable at fiber
    // arrival rather than at emission, which shifts the marginal
    // supply/demand balance by a fraction of a percent.
    report.check(
        "control-coordinated",
        control.coordinated > 0.85,
        format!(
            "fault-free control coordinates {:.1}% of decisions quantum-side",
            100.0 * control.coordinated
        ),
    );
    // Every outage point, not only the worst, loses some coordination.
    let every_outage_degrades = points
        .iter()
        .filter(|&&(di, _)| durations[di].as_micros() > 0)
        .map(|&(di, ci)| cell(di, ci).coordinated < 1.0)
        .reduce(|a, b| a && b);
    report.check(
        "degrades-under-outage",
        every_outage_degrades == Some(true) && worst.coordinated < control.coordinated,
        format!(
            "coordinated fraction {:.3} < control {:.3} at max outage",
            worst.coordinated, control.coordinated
        ),
    );
    report.check(
        "fallback-exercised",
        total_governor_transitions > 0,
        format!("{total_governor_transitions} governor transitions across the grid"),
    );
    let cliff_bound = 1.5 * split_queue.max(random_queue);
    report.check(
        "no-queue-cliff",
        max_queue <= cliff_bound,
        format!(
            "max degraded queue {max_queue:.2} ≤ 1.5 × classical baseline {:.2}",
            split_queue.max(random_queue)
        ),
    );

    report.text = format!(
        "E-faults — graceful degradation under entanglement-plane faults\n\
         (load {load}, N = {n}, {steps} steps, outages every \
         {} µs + brownout/clamp/spike; baselines: split q̄ {}, random q̄ {}):\n\n{}\n{knees}",
        OUTAGE_PERIOD.as_micros(),
        f2(split_queue),
        f2(random_queue),
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_passes_and_degrades() {
        let report = run(true);
        let out = format!("{report}");
        assert!(report.passed(), "{out}");
        assert!(out.contains("none (control)"), "{out}");
    }
}
