//! Experiment E8 (extension): the Figure 4 simulation with the hardware
//! in the loop.
//!
//! Instead of abstracting the quantum substrate into (availability,
//! visibility) numbers, each balancer pair here owns a live simulated
//! distribution pipeline — SPDC source, fiber, QNICs with finite memory —
//! and every coordination round consumes an actual buffered pair with its
//! accumulated storage decoherence. The sweep shows how much source rate
//! the paper's architecture actually needs before the end-to-end benefit
//! matches the ideal abstraction (§3 quotes 10⁴–10⁷ pairs/s for SPDC).

use crate::report::Report;
use crate::table::{f2, f4, Table};
use loadbalance::pipeline::PipelinePairedQuantum;
use loadbalance::server::Discipline;
use loadbalance::sim::{run_simulation, run_simulation_with, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::BernoulliWorkload;
use obs::json::Json;
use qnet::{ConsumePolicy, DistributorConfig, EprSource, FiberLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Runs the hardware-in-the-loop sweep.
pub fn run(quick: bool) -> Report {
    let (n, steps) = if quick { (40, 600) } else { (100, 2_000) };
    let load = 1.15;
    let config = SimConfig {
        n_balancers: n,
        n_servers: (n as f64 / load).round() as usize,
        timesteps: steps,
        warmup: steps / 4,
        discipline: Discipline::PaperPairedC,
    };
    let timestep = Duration::from_micros(100);

    let mut t = Table::new(vec![
        "source rate (pairs/s)",
        "quantum rounds",
        "CC co-location",
        "avg queue",
    ]);

    // Baselines — each arm on its own seed so both run concurrently.
    let baselines = runtime::par_map(&[0usize, 1], |_, &arm| {
        let mut rng = StdRng::seed_from_u64(crate::point_seed(8, 0, arm as u64));
        let strategy = if arm == 0 {
            Strategy::UniformRandom
        } else {
            Strategy::quantum_ideal()
        };
        let r = run_simulation(config, strategy, &mut BernoulliWorkload::paper(), &mut rng);
        (r.avg_queue_len, r.cc_colocation_rate)
    });
    t.row(vec![
        "— classical random".to_string(),
        "-".into(),
        "-".into(),
        f2(baselines[0].0),
    ]);
    t.row(vec![
        "— ideal quantum".to_string(),
        "100.0%".into(),
        f4(baselines[1].1),
        f2(baselines[1].0),
    ]);

    // The demand is 1 pair per 100 µs per balancer pair = 10⁴ pairs/s.
    let rates = [1e3, 3e3, 1e4, 3e4, 1e5, 1e6];
    let rate_rows = runtime::par_map(&rates, |i, &rate| {
        let mut rng = StdRng::seed_from_u64(crate::point_seed(8, 1, i as u64));
        let pipeline = DistributorConfig {
            source: EprSource::new(rate, 0.98),
            link_a: FiberLink::new(0.5),
            link_b: FiberLink::new(0.5),
            qnic_capacity: 16,
            memory_lifetime: Duration::from_micros(100),
            max_age: Duration::from_micros(80),
            consume_policy: ConsumePolicy::FreshestFirst,
            faults: qnet::FaultPlan::none(),
        };
        let mut strat = PipelinePairedQuantum::new(
            config.n_balancers,
            config.n_servers,
            pipeline,
            timestep,
            &mut rng,
        );
        let r = run_simulation_with(
            config,
            &mut strat,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        (
            strat.stats().quantum_fraction(),
            r.cc_colocation_rate,
            r.avg_queue_len,
        )
    });
    let mut report = Report::new("pipeline", 8);
    report.point(Json::obj([
        ("arm", Json::str("classical-random")),
        ("avg_queue_len", Json::num(baselines[0].0)),
        ("cc_colocation_rate", Json::num(baselines[0].1)),
    ]));
    report.point(Json::obj([
        ("arm", Json::str("ideal-quantum")),
        ("avg_queue_len", Json::num(baselines[1].0)),
        ("cc_colocation_rate", Json::num(baselines[1].1)),
    ]));
    for (&rate, &(qf, cc, q)) in rates.iter().zip(&rate_rows) {
        t.row(vec![
            format!("{rate:.0}"),
            format!("{:.1}%", 100.0 * qf),
            f4(cc),
            f2(q),
        ]);
        report.point(Json::obj([
            ("arm", Json::str("pipeline")),
            ("source_rate", Json::num(rate)),
            ("quantum_fraction", Json::num(qf)),
            ("cc_colocation_rate", Json::num(cc)),
            ("avg_queue_len", Json::num(q)),
        ]));
    }

    let qf_starved = rate_rows[0].0;
    let qf_saturated = rate_rows[rates.len() - 1].0;
    report.scalar("quantum_fraction.at_1e3", qf_starved);
    report.scalar("quantum_fraction.at_1e6", qf_saturated);
    report.scalar("classical.avg_queue_len", baselines[0].0);
    report.scalar("ideal_quantum.avg_queue_len", baselines[1].0);

    // Acceptance: demand is 10⁴ pairs/s per pair, so a 10³ pairs/s source
    // must starve the strategy and a 10⁶ source must saturate it.
    report.check(
        "starved-at-1e3",
        qf_starved < 0.5,
        format!("quantum fraction {qf_starved:.3} < 0.5 at 10³ pairs/s"),
    );
    report.check(
        "saturated-at-1e6",
        qf_saturated > 0.9,
        format!("quantum fraction {qf_saturated:.3} > 0.9 at 10⁶ pairs/s"),
    );

    report.text = format!(
        "E8 — hardware-in-the-loop Figure 4 (load {load}, N = {n}, one pipeline \
         per balancer pair,\ndemand 10⁴ pairs/s/pair, source visibility 0.98, \
         τ = 100 µs):\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_spans_starved_to_saturated() {
        let report = super::run(true);
        let out = format!("{report}");
        assert!(out.contains("ideal quantum"));
        assert!(out.contains("1000"), "starved row present: {out}");
        assert!(out.contains("1000000"), "saturated row present");
        assert!(report.passed(), "{out}");
    }
}
