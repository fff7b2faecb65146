//! Experiment E10: metro-scale entanglement topology — repeater chains,
//! multiplexed sources, and contention-aware pair routing.
//!
//! The paper's architecture (Fig. 1) distributes pairs point-to-point;
//! a metro deployment distributes them over a *graph* of repeater
//! chains. Three topologies map where the CHSH coordination advantage
//! survives the network:
//!
//! - (a) **line chain × hop count**: end-to-end visibility
//!   `v = ∏ v_hop · ideality^(h−1)` pinned to 1e-12 against the
//!   hop-by-hop density-matrix oracle, with CHSH played over the
//!   delivered Werner pair at each depth. At the paper's §3 parameters
//!   the witness dies between 4 and 8 hops.
//! - (b) **star × fanout, one shared multiplexed source**: per-pair
//!   delivered rate falls as `1/fanout` — the contention scheduler
//!   splits the emission budget exactly, and highest-demand-first
//!   starves light flows that round-robin serves.
//! - (c) **2-tier metro tree under an edge-cut schedule**: a cut primary
//!   trunk re-routes cross-rack pairs onto a sub-threshold backup core
//!   (blast radius: both cross-rack pairs, never the intra-rack pair);
//!   cutting both trunk planes starves them outright. A per-pair
//!   [`FallbackGovernor`] watches delivered visibility and trips out of
//!   quantum mode, then recovers through the classical tier once the
//!   cut clears.

use crate::report::Report;
use crate::table::{f4, Table};
use games::chsh::QuantumChshStrategy;
use games::game::empirical_win_rate;
use games::{chsh_werner_value, XorGame};
use loadbalance::{CoordinationMode, FallbackGovernor, HysteresisConfig};
use obs::json::Json;
use qmath::stats::wilson;
use qnet::{
    line_chain, metro_tree, route_epoch, star, FaultClock, FaultKind, FaultPlan, FaultWindow,
    MetroTreeParams, PairDemand, Policy, SimTime, SwapModel,
};
use qsim::noise::WERNER_CHSH_THRESHOLD;
use qsim::SharedPair;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// §3-grade hardware: 0.98 elementary-pair visibility per hop.
const HOP_VISIBILITY: f64 = 0.98;
/// Line-chain hop length (km); 10 km ≈ metro rack-to-rack span.
const HOP_KM: f64 = 10.0;
/// Linear-optics-plus-boost Bell-state measurement: 90% herald rate,
/// 3% white-noise admixture per successful swap.
const SWAP_SUCCESS: f64 = 0.9;
const SWAP_IDEALITY: f64 = 0.97;

/// The blast-radius fault schedule, in epochs (1 ms each): one primary
/// trunk cut at [`CUT_ONE`], every trunk plane cut at [`CUT_ALL`], all
/// clear at [`CUT_CLEAR`].
const CUT_ONE: u64 = 6;
const CUT_ALL: u64 = 8;
const CUT_CLEAR: u64 = 10;
const TREE_EPOCHS: u64 = 16;

/// Runs the metro-topology experiment with the ambient worker count.
pub fn run(quick: bool) -> Report {
    run_with_threads(runtime::thread_count(), quick)
}

/// Runs the metro-topology experiment with an explicit worker count
/// (the determinism tests sweep this).
pub fn run_with_threads(threads: usize, quick: bool) -> Report {
    let mut report = Report::new("topology", 10);
    let mut out = String::new();
    let swap = SwapModel::new(SWAP_SUCCESS, SWAP_IDEALITY).expect("constants are valid");

    // (a) Line chain × hop count: closed form vs oracle vs played CHSH.
    let hops_grid: &[usize] = if quick { &[1, 4, 8] } else { &[1, 2, 4, 8] };
    let rounds: usize = if quick { 5_000 } else { 50_000 };
    let specs: Vec<_> = hops_grid
        .iter()
        .map(|&h| {
            let (g, _, _) = line_chain(h, HOP_KM, HOP_VISIBILITY, swap, 1).expect("valid line");
            let path: Vec<u32> = (0..h as u32).collect();
            g.chain_spec(&path).expect("line path is connected")
        })
        .collect();
    let rates = runtime::par_sweep_threads(
        threads,
        crate::point_seed(10, 0, 0),
        hops_grid,
        |i, _, rng| {
            let v = specs[i].end_to_end_visibility();
            let mut s = QuantumChshStrategy::with_source(move || {
                SharedPair::werner(v).expect("valid visibility")
            });
            empirical_win_rate(&XorGame::chsh(), &mut s, rounds, rng)
        },
    );
    let mut worst_oracle = 0.0f64;
    let mut worst_chsh = 0.0f64;
    let mut t = Table::new(vec![
        "hops",
        "v_e2e",
        "oracle dev",
        "p_deliver",
        "CHSH win",
        "theory",
        "witness?",
    ]);
    for ((&h, spec), &rate) in hops_grid.iter().zip(&specs).zip(&rates) {
        let v = spec.end_to_end_visibility();
        let mut rng = StdRng::seed_from_u64(crate::point_seed(10, 3, h as u64));
        let oracle = spec
            .oracle_visibility(&mut rng)
            .expect("validated spec simulates");
        let dev = (oracle - v).abs();
        worst_oracle = worst_oracle.max(dev);
        let theory = chsh_werner_value(v);
        worst_chsh = worst_chsh.max((rate - theory).abs());
        t.row(vec![
            h.to_string(),
            f4(v),
            format!("{dev:.1e}"),
            f4(spec.success_probability()),
            f4(rate),
            f4(theory),
            (if spec.witnesses_chsh() { "yes" } else { "NO" }).to_string(),
        ]);
        report.scalar(format!("line.v_e2e.h{h}"), v);
        report.interval(
            format!("line.chsh.h{h}"),
            wilson((rate * rounds as f64).round() as u64, rounds as u64),
        );
        report.point(Json::obj([
            ("part", Json::str("line")),
            ("hops", Json::uint(h as u64)),
            ("v_e2e", Json::num(v)),
            ("oracle_deviation", Json::num(dev)),
            ("success_probability", Json::num(spec.success_probability())),
            ("win_rate", Json::num(rate)),
            ("theory", Json::num(theory)),
            ("rounds", Json::uint(rounds as u64)),
            ("witnesses_chsh", Json::Bool(spec.witnesses_chsh())),
        ]));
    }
    out.push_str(&format!(
        "E10a — repeater chain vs hop count ({rounds} CHSH rounds/point; \
         v_hop = {HOP_VISIBILITY}, ideality = {SWAP_IDEALITY}, threshold 1/√2 ≈ 0.7071)\n\n{}\n",
        t.render()
    ));

    // (b) Star × fanout: one shared source, budget split by contention.
    let fanouts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let star_budget: u64 = if quick { 4_000 } else { 40_000 };
    let star_epochs: u64 = if quick { 4 } else { 8 };
    let mut star_rows: Vec<(usize, u64, u64, u64)> = Vec::new(); // (fanout, per-pair min/max granted, delivered)
    let mut budget_conserved = true;
    let mut t = Table::new(vec![
        "fanout",
        "granted/pair",
        "delivered/pair",
        "deliver rate",
    ]);
    for (fi, &fanout) in fanouts.iter().enumerate() {
        let (g, pairs) = star(fanout, 5.0, HOP_VISIBILITY, swap, star_budget).expect("valid star");
        let demands: Vec<PairDemand> = pairs
            .iter()
            .map(|&(from, to)| PairDemand {
                from,
                to,
                demand: star_budget, // saturate: contention decides
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(crate::point_seed(10, 1, fi as u64));
        let mut granted = vec![0u64; fanout];
        let mut delivered = vec![0u64; fanout];
        for epoch in 0..star_epochs {
            let outcomes = route_epoch(&g, &demands, &[], Policy::RoundRobin, epoch, &mut rng);
            for (i, o) in outcomes.iter().enumerate() {
                granted[i] += o.granted;
                delivered[i] += o.delivered;
            }
        }
        let total_granted: u64 = granted.iter().sum();
        // Every attempt costs 2 emissions of the one shared source.
        budget_conserved &= total_granted * 2 == star_budget * star_epochs;
        let gmin = *granted.iter().min().expect("fanout >= 1");
        let gmax = *granted.iter().max().expect("fanout >= 1");
        let dsum: u64 = delivered.iter().sum();
        star_rows.push((fanout, gmin, gmax, dsum));
        report.scalar(format!("star.granted_per_pair.f{fanout}"), gmax as f64);
        report.interval(
            format!("star.deliver.f{fanout}"),
            wilson(dsum, total_granted),
        );
        report.point(Json::obj([
            ("part", Json::str("star")),
            ("fanout", Json::uint(fanout as u64)),
            ("budget_per_epoch", Json::uint(star_budget)),
            ("epochs", Json::uint(star_epochs)),
            ("granted_min", Json::uint(gmin)),
            ("granted_max", Json::uint(gmax)),
            ("delivered_total", Json::uint(dsum)),
        ]));
        t.row(vec![
            fanout.to_string(),
            gmax.to_string(),
            (dsum / fanout as u64).to_string(),
            f4(dsum as f64 / total_granted as f64),
        ]);
    }
    out.push_str(&format!(
        "E10b — star contention on one multiplexed source \
         ({star_budget} emissions/epoch × {star_epochs} epochs, round-robin)\n\n{}\n",
        t.render()
    ));

    // Policy comparison on the fanout-4 star: a heavy flow against three
    // light ones. HDF hands the heavy flow the residual budget; RR
    // shares it evenly once the light flows are satisfied.
    {
        let fanout = 4usize;
        let budgets = [star_budget];
        let usage = vec![vec![(0u32, 2u64)]; fanout];
        let per_attempt_budget = star_budget / 2;
        let light = per_attempt_budget / 16;
        let mut demand = vec![light; fanout];
        demand[0] = star_budget; // the heavy flow wants everything
        for policy in [Policy::RoundRobin, Policy::HighestDemandFirst] {
            let grants = qnet::allocate(&budgets, &usage, &demand, policy);
            report.point(Json::obj([
                ("part", Json::str("policy")),
                ("policy", Json::str(policy.name())),
                ("heavy_granted", Json::uint(grants[0])),
                ("light_granted", Json::uint(grants[1])),
            ]));
        }
    }

    // (c) Metro tree under the edge-cut schedule: blast radius and
    // per-pair visibility-aware fallback.
    let params = MetroTreeParams {
        leaf_km: 2.0,
        leaf_visibility: 0.98,
        trunk_km: 15.0,
        trunk_visibility: 0.99,
        backup_km: 25.0,
        backup_visibility: 0.85,
        leaf_budget: 2_000,
        trunk_budget: 2_000,
    };
    let (g, tree) = metro_tree(swap, params).expect("valid tree");
    let [s0, s1, s2, s3] = tree.servers;
    // Pairs 0 and 1 are cross-rack (ride the trunks); pair 2 is
    // intra-rack (leaf edges only — outside any trunk blast radius).
    let tree_pairs = [
        PairDemand {
            from: s0,
            to: s2,
            demand: 64,
        },
        PairDemand {
            from: s1,
            to: s3,
            demand: 64,
        },
        PairDemand {
            from: s0,
            to: s1,
            demand: 64,
        },
    ];
    let mut plan = FaultPlan::none();
    let ms = |e: u64| SimTime::from_secs_f64(e as f64 * 1e-3);
    plan.push(FaultWindow {
        start: ms(CUT_ONE),
        end: ms(CUT_CLEAR),
        kind: FaultKind::EdgeCut {
            edge: tree.primary_trunks[0],
        },
    });
    for edge in [
        tree.primary_trunks[1],
        tree.backup_trunks[0],
        tree.backup_trunks[1],
    ] {
        plan.push(FaultWindow {
            start: ms(CUT_ALL),
            end: ms(CUT_CLEAR),
            kind: FaultKind::EdgeCut { edge },
        });
    }
    let mut clock = FaultClock::new(&plan);
    // Thresholds scaled to the healthy chain's delivery probability, so
    // the governor reads "fraction of nominal" rather than absolute rate.
    let cross_route = qnet::best_path(&g, s0, s2, &[]).expect("pristine tree routes");
    let p_nominal = g
        .chain_spec(&cross_route.edges)
        .expect("route is a path")
        .success_probability();
    let hysteresis = HysteresisConfig {
        window: 2,
        trip: 0.4 * p_nominal,
        recover: 0.7 * p_nominal,
        deep_trip: 0.05 * p_nominal,
        deep_recover: 0.2 * p_nominal,
        min_dwell: 2,
    };
    let mut governors = [
        FallbackGovernor::new(hysteresis),
        FallbackGovernor::new(hysteresis),
    ];
    let mut rng = StdRng::seed_from_u64(crate::point_seed(10, 2, 0));
    let mut affected = [false; 2]; // cross pairs pushed sub-threshold
    let mut intra_unaffected = true;
    let mut starved_pair_epochs = 0u64;
    let mut tripped = [false; 2];
    let mut t = Table::new(vec![
        "epoch",
        "faults",
        "pair",
        "route",
        "v_e2e",
        "delivered",
        "mode",
    ]);
    for epoch in 0..TREE_EPOCHS {
        clock.advance_through(ms(epoch));
        let downed = clock.downed_edges(g.edges().len());
        let n_cuts = downed.iter().filter(|&&d| d).count();
        let outcomes = route_epoch(
            &g,
            &tree_pairs,
            &downed,
            Policy::RoundRobin,
            epoch,
            &mut rng,
        );
        for (i, o) in outcomes.iter().enumerate() {
            let label = ["s0-s2", "s1-s3", "s0-s1"][i];
            let mode = if i < 2 {
                let mode =
                    governors[i].observe_delivery(o.delivered, tree_pairs[i].demand, o.visibility);
                if mode != CoordinationMode::Quantum {
                    tripped[i] = true;
                }
                if o.route.is_some() && o.visibility <= WERNER_CHSH_THRESHOLD {
                    affected[i] = true;
                }
                if o.granted == 0 {
                    starved_pair_epochs += 1;
                }
                mode.name()
            } else {
                // The intra-rack pair never crosses a trunk: it must ride
                // out every cut at full visibility and full grants.
                intra_unaffected &=
                    o.visibility > WERNER_CHSH_THRESHOLD && o.granted == tree_pairs[i].demand;
                "-"
            };
            let route = match &o.route {
                Some(r) => format!("{} hops", r.edges.len()),
                None => "CUT".to_string(),
            };
            t.row(vec![
                epoch.to_string(),
                n_cuts.to_string(),
                label.to_string(),
                route,
                f4(o.visibility),
                o.delivered.to_string(),
                mode.to_string(),
            ]);
            report.point(Json::obj([
                ("part", Json::str("tree")),
                ("epoch", Json::uint(epoch)),
                ("pair", Json::str(label)),
                ("cut_edges", Json::uint(n_cuts as u64)),
                ("routed", Json::Bool(o.route.is_some())),
                (
                    "hops",
                    Json::uint(o.route.as_ref().map_or(0, |r| r.edges.len() as u64)),
                ),
                ("visibility", Json::num(o.visibility)),
                ("granted", Json::uint(o.granted)),
                ("delivered", Json::uint(o.delivered)),
                ("mode", Json::str(mode)),
            ]));
        }
    }
    let recovered = governors
        .iter()
        .all(|gov| gov.mode() == CoordinationMode::Quantum);
    let affected_pairs = affected.iter().filter(|&&a| a).count() as u64;
    report.scalar("tree.affected_pairs", affected_pairs as f64);
    report.scalar("tree.starved_pair_epochs", starved_pair_epochs as f64);
    report.point(Json::obj([
        ("part", Json::str("blast")),
        ("affected_pairs", Json::uint(affected_pairs)),
        ("intra_unaffected", Json::Bool(intra_unaffected)),
        ("starved_pair_epochs", Json::uint(starved_pair_epochs)),
        (
            "governors_tripped",
            Json::uint(tripped.iter().filter(|&&x| x).count() as u64),
        ),
        ("governors_recovered", Json::Bool(recovered)),
    ]));
    out.push_str(&format!(
        "E10c — metro tree, trunk cut at epoch {CUT_ONE}, all planes cut at \
         {CUT_ALL}, clear at {CUT_CLEAR}\n\n{}",
        t.render()
    ));

    // Acceptance.
    report.check(
        "chain-visibility-pinned-to-oracle",
        worst_oracle < 1e-12,
        format!("max |closed form − density-matrix oracle| = {worst_oracle:.2e} < 1e-12"),
    );
    let monotone = specs
        .windows(2)
        .all(|w| w[1].end_to_end_visibility() < w[0].end_to_end_visibility());
    report.check(
        "visibility-monotone-in-hops",
        monotone,
        format!(
            "v_e2e strictly decreases over hops {:?} ({:.4} → {:.4})",
            hops_grid,
            specs
                .first()
                .map_or(f64::NAN, |s| s.end_to_end_visibility()),
            specs.last().map_or(f64::NAN, |s| s.end_to_end_visibility()),
        ),
    );
    let chsh_tol = if quick { 0.03 } else { 0.012 };
    report.check(
        "chsh-win-matches-closed-form",
        worst_chsh < chsh_tol,
        format!("max |win rate − (1/2 + v·√2/4)| = {worst_chsh:.4} < {chsh_tol}"),
    );
    let deep_spec = specs.last().expect("grid is non-empty");
    let shallow_spec = specs.first().expect("grid is non-empty");
    report.check(
        "non-witnessing-flagged",
        shallow_spec.witnesses_chsh() && !deep_spec.witnesses_chsh(),
        format!(
            "{} hops witness (v = {:.4}); {} hops cannot (v = {:.4} ≤ 1/√2)",
            shallow_spec.hops(),
            shallow_spec.end_to_end_visibility(),
            deep_spec.hops(),
            deep_spec.end_to_end_visibility(),
        ),
    );
    let split_exact = star_rows.iter().all(|&(_, gmin, gmax, _)| gmax - gmin <= 1);
    let rate_falls = star_rows.windows(2).all(|w| w[1].2 < w[0].2); // per-pair granted falls with fanout
    report.check(
        "star-contention-splits-rate",
        star_rows.len() >= 2 && split_exact && rate_falls,
        format!(
            "per-pair grants even to ±1 and fall with fanout: {:?}",
            star_rows
                .iter()
                .map(|&(f, _, gmax, _)| (f, gmax))
                .collect::<Vec<_>>(),
        ),
    );
    report.check(
        "budget-conserved",
        budget_conserved,
        format!(
            "every epoch spends exactly its {star_budget}-emission budget \
             (2 emissions per granted attempt)"
        ),
    );
    report.check(
        "downed-edge-blast-radius",
        affected_pairs == 2 && intra_unaffected && starved_pair_epochs == 4,
        format!(
            "{affected_pairs} cross-rack pairs pushed sub-threshold (> 1), \
             intra-rack pair untouched, {starved_pair_epochs} starved \
             pair-epochs while both planes were cut"
        ),
    );
    report.check(
        "degrade-trips-on-visibility",
        tripped.iter().all(|&x| x) && recovered,
        format!(
            "both cross-rack governors left quantum mode during the cut \
             and re-entered it by epoch {TREE_EPOCHS} \
             (transitions: {} and {})",
            governors[0].transitions(),
            governors[1].transitions(),
        ),
    );

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
        assert!(out.contains("E10a"), "{out}");
        assert!(out.contains("CUT"), "{out}");
    }

    #[test]
    fn chsh_theory_hits_known_points() {
        // The line table's theory column: Tsirelson at v = 1, the
        // classical 0.75 at the witness threshold v = 1/√2.
        assert!((chsh_werner_value(1.0) - 0.853_553_390_593_273_8).abs() < 1e-12);
        assert!((chsh_werner_value(std::f64::consts::FRAC_1_SQRT_2) - 0.75).abs() < 1e-12);
    }
}
