//! Experiment E2: Figure 4 — average queue length vs system load N/M for
//! classical and quantum load balancing, plus the paper's two robustness
//! claims: E2b (results depend on the ratio N/M, not N itself) and E2c
//! (footnote 2: the advantage is robust to other server disciplines).

use crate::report::{sim_result_to_json, Report};
use crate::table::{f2, Table};
use loadbalance::metrics::{knee_load, SimResult};
use loadbalance::server::Discipline;
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::BernoulliWorkload;
use obs::json::Json;
use qmath::stats::wilson;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("uniform-random", Strategy::UniformRandom),
        ("round-robin", Strategy::RoundRobin),
        ("power-of-two", Strategy::PowerOfTwoChoices),
        ("paired-split", Strategy::PairedAlwaysSplit),
        ("paired-match", Strategy::PairedMatchTypes),
        ("paired-quantum", Strategy::quantum_ideal()),
    ]
}

fn sim_point(
    n_balancers: usize,
    load: f64,
    timesteps: u64,
    discipline: Discipline,
    strategy: Strategy,
    seed: u64,
) -> SimResult {
    let n_servers = (n_balancers as f64 / load).round() as usize;
    let config = SimConfig {
        n_balancers,
        n_servers,
        timesteps,
        warmup: timesteps / 4,
        discipline,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut workload = BernoulliWorkload::paper();
    run_simulation(config, strategy, &mut workload, &mut rng)
}

/// The Figure 4 sweep: N = 100 balancers, load 0.6–1.5.
pub fn run(quick: bool) -> Report {
    run_with_threads(runtime::thread_count(), quick)
}

/// Worker-count seam for [`run`]: every point's seed is a function of its
/// grid coordinates only, so the report — text and JSON alike — is
/// byte-identical at any `threads` (the determinism tests sweep this).
pub fn run_with_threads(threads: usize, quick: bool) -> Report {
    let (n, steps) = if quick { (40, 600) } else { (100, 3_000) };
    let loads: Vec<f64> = (6..=15).map(|i| i as f64 / 10.0).collect();
    let strategies = strategies();

    let points = runtime::grid2(strategies.len(), loads.len());
    let flat = runtime::par_map_threads(threads, &points, |_, &(si, li)| {
        sim_point(
            n,
            loads[li],
            steps,
            Discipline::PaperPairedC,
            strategies[si].1,
            crate::point_seed(40, si as u64, li as u64),
        )
    });
    let mut cells: Vec<Vec<Option<SimResult>>> = vec![vec![None; loads.len()]; strategies.len()];
    for (&(si, li), r) in points.iter().zip(flat) {
        cells[si][li] = Some(r);
    }
    let cell = |si: usize, li: usize| -> &SimResult {
        cells[si][li].as_ref().expect("every grid cell filled")
    };

    let mut header: Vec<String> = vec!["strategy \\ N/M".into()];
    header.extend(loads.iter().map(|l| format!("{l:.1}")));
    let mut t = Table::new(header);
    for (si, (name, _)) in strategies.iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend((0..loads.len()).map(|li| f2(cell(si, li).avg_queue_len)));
        t.row(row);
    }

    // Knee summary: first load where the average queue exceeds 10 tasks
    // (clearly saturating; small thresholds trigger on pre-knee noise).
    let mut report = Report::new("fig4", 40);
    let mut knees = String::new();
    let mut knee_by_name: Vec<(&str, Option<f64>)> = Vec::new();
    for (si, (name, _)) in strategies.iter().enumerate() {
        let pts: Vec<(f64, f64)> = loads
            .iter()
            .copied()
            .zip((0..loads.len()).map(|li| cell(si, li).avg_queue_len))
            .collect();
        let knee = knee_load(&pts, 10.0);
        knee_by_name.push((name, knee));
        report.scalar(format!("knee.{name}"), knee.unwrap_or(f64::INFINITY));
        let shown = knee
            .map(|k| format!("{k:.1}"))
            .unwrap_or_else(|| "> 1.5".into());
        knees.push_str(&format!(
            "  {name:<16} knee (queue > 10) at N/M = {shown}\n"
        ));
    }

    // Per-point payloads: the full SimResult of every grid cell.
    for (si, _) in strategies.iter().enumerate() {
        for li in 0..loads.len() {
            report.point(sim_result_to_json(cell(si, li)));
        }
    }

    // CC co-location interval for the quantum strategy, pooled across the
    // sweep (every pair-round is an independent CHSH trial).
    let qi = strategies.len() - 1;
    let (cc_ok, cc_all) = (0..loads.len()).fold((0u64, 0u64), |(a, b), li| {
        let r = cell(qi, li);
        (a + r.cc_colocated, b + r.cc_rounds)
    });
    if cc_all > 0 {
        report.interval("cc_colocation.paired-quantum", wilson(cc_ok, cc_all));
    }

    // Acceptance: the classical knee must not be later than the quantum
    // knee, and at load 1.2 quantum must have strictly shorter queues.
    let knee_of = |name: &str| -> f64 {
        knee_by_name
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, k)| *k)
            .unwrap_or(f64::INFINITY)
    };
    let (ck, qk) = (knee_of("uniform-random"), knee_of("paired-quantum"));
    report.check(
        "knee-order",
        ck <= qk,
        format!("classical knee {ck} ≤ quantum knee {qk}"),
    );
    let li12 = loads
        .iter()
        .position(|&l| (l - 1.2).abs() < 1e-9)
        .expect("load 1.2 in grid");
    let (cq, qq) = (cell(0, li12).avg_queue_len, cell(qi, li12).avg_queue_len);
    report.check(
        "quantum-shorter-at-1.2",
        qq < cq,
        format!("quantum {qq:.2} < classical {cq:.2} at load 1.2"),
    );

    report.text = format!(
        "E2 — Figure 4: avg queue length vs load N/M (N = {n}, {steps} steps)\n\n{}\n{knees}",
        t.render()
    );
    report
}

/// E2b: "the results depend primarily on the ratio N/M and remain largely
/// consistent as N varies."
pub fn run_scaling(quick: bool) -> Report {
    let steps = if quick { 600 } else { 3_000 };
    let ns: &[usize] = if quick {
        &[20, 60, 100]
    } else {
        &[20, 60, 100, 200]
    };
    let loads = [1.0, 1.2];
    let strategies = [
        ("uniform-random", Strategy::UniformRandom),
        ("paired-quantum", Strategy::quantum_ideal()),
    ];

    let mut header: Vec<String> = vec!["strategy @ load".into()];
    header.extend(ns.iter().map(|n| format!("N={n}")));
    let mut t = Table::new(header);

    let mut points = Vec::new();
    for si in 0..strategies.len() {
        for li in 0..loads.len() {
            for ni in 0..ns.len() {
                points.push((si, li, ni));
            }
        }
    }
    let flat = runtime::par_map(&points, |_, &(si, li, ni)| {
        sim_point(
            ns[ni],
            loads[li],
            steps,
            Discipline::PaperPairedC,
            strategies[si].1,
            crate::point_seed(41, (si * 2 + li) as u64, ni as u64),
        )
    });
    let mut report = Report::new("fig4-scaling", 41);
    let mut cells = vec![vec![vec![0.0f64; ns.len()]; loads.len()]; strategies.len()];
    for (&(si, li, ni), r) in points.iter().zip(&flat) {
        cells[si][li][ni] = r.avg_queue_len;
        let mut point = sim_result_to_json(r);
        if let Json::Obj(pairs) = &mut point {
            pairs.insert(0, ("n_balancers".into(), Json::uint(ns[ni] as u64)));
        }
        report.point(point);
    }
    for (si, (name, _)) in strategies.iter().enumerate() {
        for (li, load) in loads.iter().enumerate() {
            let mut row = vec![format!("{name} @ {load:.1}")];
            row.extend(cells[si][li].iter().map(|&q| f2(q)));
            t.row(row);
        }
    }

    // Acceptance: at load 1.0 the quantum queue length must be flat in N —
    // the ratio, not N, drives the result (EXPERIMENTS.md: 3.36–3.50
    // across N at full budget; allow 2× spread for quick-budget noise).
    let quantum_at_1 = &cells[1][0];
    let (lo, hi) = quantum_at_1
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &q| {
            (lo.min(q), hi.max(q))
        });
    report.scalar("quantum_spread_at_load_1.0", hi / lo);
    report.check(
        "n-independence",
        hi <= 2.0 * lo,
        format!("quantum q̄ at load 1.0 spans [{lo:.2}, {hi:.2}] across N (≤ 2× spread)"),
    );

    report.text = format!(
        "E2b — queue length vs N at fixed N/M (ratio, not N, drives the result)\n\n{}",
        t.render()
    );
    report
}

/// E2c (footnote 2): is the quantum advantage robust to other server
/// execution strategies? Only within the paper's discipline family — see
/// EXPERIMENTS.md. The advantage requires C-priority AND C-pairing
/// *together*: under that combination a split CC pair blocks type-E
/// service at two servers while a co-located CC blocks only one (and is
/// cleared in a single step). Remove pairing (`c-priority-single`) or
/// remove priority (`fifo-paired-c`) and engineered co-arrival only
/// concentrates load, slightly *hurting*. `single-slot` is the control
/// with no type structure at all (no difference, as expected).
pub fn run_disciplines(quick: bool) -> Report {
    let (n, steps) = if quick { (40, 600) } else { (100, 3_000) };
    let load = 1.2;
    let disciplines = [
        Discipline::PaperPairedC,
        Discipline::CPrioritySingle,
        Discipline::FifoPairedC,
        Discipline::ExclusiveFirst,
        Discipline::SingleSlot,
    ];
    let mut t = Table::new(vec!["discipline", "classical q̄", "quantum q̄", "reduction"]);
    let points = runtime::grid2(disciplines.len(), 2);
    let flat = runtime::par_map(&points, |_, &(di, arm)| {
        let strategy = if arm == 0 {
            Strategy::UniformRandom
        } else {
            Strategy::quantum_ideal()
        };
        sim_point(
            n,
            load,
            steps,
            disciplines[di],
            strategy,
            crate::point_seed(42, di as u64, arm as u64),
        )
    });
    let mut report = Report::new("fig4-disciplines", 42);
    let mut paper_reduction = f64::NAN;
    for (di, d) in disciplines.iter().enumerate() {
        let (cr, qr) = (&flat[di * 2], &flat[di * 2 + 1]);
        let (c, q) = (cr.avg_queue_len, qr.avg_queue_len);
        let red = if c > 0.0 {
            format!("{:.0}%", 100.0 * (1.0 - q / c))
        } else {
            "-".into()
        };
        if di == 0 {
            paper_reduction = 1.0 - q / c;
            report.scalar("paper_discipline_reduction", paper_reduction);
        }
        for r in [cr, qr] {
            let mut point = sim_result_to_json(r);
            if let Json::Obj(pairs) = &mut point {
                pairs.insert(0, ("discipline".into(), Json::str(d.label())));
            }
            report.point(point);
        }
        t.row(vec![d.label().to_string(), f2(c), f2(q), red]);
    }
    report.check(
        "paper-discipline-advantage",
        paper_reduction > 0.0,
        format!(
            "paired-C discipline reduction {:.0}% > 0",
            100.0 * paper_reduction
        ),
    );
    report.text = format!(
        "E2c — footnote 2: advantage across server disciplines \
         (load {load}, N = {n}; single-slot is the no-co-location control)\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_knee_is_later_than_classical() {
        // The Figure 4 headline, quick budget.
        let loads = [1.0, 1.1, 1.2];
        let mut classical = Vec::new();
        let mut quantum = Vec::new();
        for (i, &load) in loads.iter().enumerate() {
            classical.push((
                load,
                sim_point(
                    40,
                    load,
                    600,
                    Discipline::PaperPairedC,
                    Strategy::UniformRandom,
                    crate::point_seed(99, i as u64, 0),
                )
                .avg_queue_len,
            ));
            quantum.push((
                load,
                sim_point(
                    40,
                    load,
                    600,
                    Discipline::PaperPairedC,
                    Strategy::quantum_ideal(),
                    crate::point_seed(99, i as u64, 1),
                )
                .avg_queue_len,
            ));
        }
        let ck = knee_load(&classical, 2.0);
        let qk = knee_load(&quantum, 2.0);
        // Classical crosses at or before quantum (quantum may not cross at
        // all in this range).
        match (ck, qk) {
            (Some(c), Some(q)) => assert!(c <= q, "classical {c} vs quantum {q}"),
            (Some(_), None) => {} // quantum never crossed: even better
            other => panic!("unexpected knees: {other:?}"),
        }
    }

    #[test]
    fn single_slot_control_shows_no_quantum_benefit() {
        // Without a co-location benefit, pairing C's together cannot
        // help; quantum must not beat classical here. (It may be WORSE:
        // engineered co-arrival of CC pairs at one-task-per-step servers
        // adds arrival burstiness, so the check is one-sided.) Means over
        // several seeds, since a single replicate has ~±20% spread.
        let mean = |strategy: Strategy, lane: u64| -> f64 {
            (0..4)
                .map(|r| {
                    sim_point(
                        40,
                        0.9,
                        800,
                        Discipline::SingleSlot,
                        strategy,
                        crate::point_seed(98, lane, r),
                    )
                    .avg_queue_len
                })
                .sum::<f64>()
                / 4.0
        };
        let c = mean(Strategy::UniformRandom, 0);
        let q = mean(Strategy::quantum_ideal(), 1);
        assert!(
            q > c * 0.9,
            "single-slot quantum {q} improbably beat classical {c}"
        );
    }
}
