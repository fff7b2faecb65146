//! Experiment E4: the §4.2 ECMP negative result.
//!
//! Three parts: (1) the no-signaling reduction verified to machine
//! precision, (2) a collision-probability comparison of classical and
//! entangled strategies, (3) a strategy search supporting the paper's
//! conjecture, plus the pigeonhole bound that settles the 2-active /
//! 2-path family outright.

use crate::report::Report;
use crate::table::{f4, Table};
use ecmp::model::{run_rounds, EcmpScenario};
use ecmp::reduction_deviation;
use ecmp::search::{exhaustive_quantum_search, pigeonhole_lower_bound};
use ecmp::strategy::{EntangledStateKind, GlobalEntangled, IidRandom, SharedPermutation};
use obs::json::Json;
use qmath::stats::wilson;
use qsim::bell;
use qsim::measure::Basis1;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the full ECMP experiment.
pub fn run(quick: bool) -> Report {
    let rounds = if quick { 10_000 } else { 200_000 };
    let mut rng = StdRng::seed_from_u64(crate::point_seed(4, 0, 0));
    let mut report = Report::new("ecmp", 4);
    let mut out = String::new();

    // Part 1: reduction invariance — deterministic, fanned out over the
    // pool one basis triple at a time.
    let angles = [0.0, 0.5, 1.1, 2.3];
    let states = [bell::ghz(3), bell::w_state(3)];
    let mut triples = Vec::new();
    for si in 0..states.len() {
        for &ta in &angles {
            for &tb in &angles {
                for &tc in &angles {
                    triples.push((si, ta, tb, tc));
                }
            }
        }
    }
    let worst = runtime::par_map(&triples, |_, &(si, ta, tb, tc)| {
        reduction_deviation(
            &states[si],
            &Basis1::angle(ta),
            &Basis1::angle(tb),
            &Basis1::angle(tc),
        )
        .expect("3-party state")
    })
    .into_iter()
    .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "E4 — §4.2 no-signaling reduction: max |P_traced − P_C-measured-first| \
         over GHZ/W × {} basis triples = {worst:.2e}\n\n",
        2 * angles.len().pow(3)
    ));

    // Part 2: collision probabilities for the minimal scenario. Each
    // strategy row runs on its own seed stream, concurrently.
    let scenario = EcmpScenario::minimal();
    let rows = [
        "iid-random",
        "shared-permutation",
        "ghz-spread-angles",
        "w-spread-angles",
    ];
    let row_ids: Vec<usize> = (0..rows.len()).collect();
    let probs = runtime::par_sweep(
        crate::point_seed(4, 1, 0),
        &row_ids,
        |_, &row, rng| match row {
            0 => run_rounds(scenario, &mut IidRandom, rounds, rng).collision_probability,
            1 => {
                let mut s = SharedPermutation::new(3, 2, rng);
                run_rounds(scenario, &mut s, rounds, rng).collision_probability
            }
            2 => {
                let mut s = GlobalEntangled::new(EntangledStateKind::Ghz, vec![0.0, 2.094, 4.189]);
                run_rounds(scenario, &mut s, rounds, rng).collision_probability
            }
            _ => {
                let mut s = GlobalEntangled::new(EntangledStateKind::W, vec![0.0, 2.094, 4.189]);
                run_rounds(scenario, &mut s, rounds, rng).collision_probability
            }
        },
    );
    let mut t = Table::new(vec!["strategy", "P(collision)"]);
    for (name, p) in rows.iter().zip(&probs) {
        t.row(vec![name.to_string(), f4(*p)]);
        report.interval(
            format!("collision.{name}"),
            wilson((p * rounds as f64).round() as u64, rounds as u64),
        );
        report.point(Json::obj([
            ("strategy", Json::str(*name)),
            ("collision_probability", Json::num(*p)),
            ("rounds", Json::uint(rounds as u64)),
        ]));
    }
    t.row(vec![
        "pigeonhole floor (any)".to_string(),
        f4(pigeonhole_lower_bound(3)),
    ]);
    out.push_str(&format!(
        "Collision probability, N=3 switches / M=2 paths / K=2 active:\n\n{}\n",
        t.render()
    ));

    // Part 3: the conjecture search.
    let (cands, per) = if quick { (20, 2_000) } else { (100, 10_000) };
    let result = exhaustive_quantum_search(cands, per, &mut rng);
    out.push_str(&format!(
        "Strategy search: best of {} quantum strategies = {:.4} vs classical \
         optimum {:.4} → no quantum advantage found\n\n",
        result.evaluated, result.best_quantum, result.classical
    ));

    // Pigeonhole bounds table (the family is settled analytically).
    let mut t2 = Table::new(vec!["N switches (2 active, 2 paths)", "floor", "classical"]);
    for n in 2..=8 {
        t2.row(vec![
            n.to_string(),
            f4(pigeonhole_lower_bound(n)),
            f4(ecmp::classical_optimum_two_active(n)),
        ]);
    }
    out.push_str(&format!(
        "Pigeonhole bound = classical optimum for every N (quantum cannot help):\n\n{}",
        t2.render()
    ));

    report.scalar("reduction_deviation.max", worst);
    report.scalar("search.best_quantum", result.best_quantum);
    report.scalar("search.classical_optimum", result.classical);
    report.scalar("search.evaluated", result.evaluated as f64);
    report.scalar("pigeonhole_floor.n3", pigeonhole_lower_bound(3));

    // Acceptance: the reduction must hold to machine precision, and the
    // search must not beat the classical optimum (the §4.2 negative
    // result) beyond Monte-Carlo noise.
    report.check(
        "no-signaling-reduction",
        worst < 1e-9,
        format!("max deviation {worst:.2e} < 1e-9"),
    );
    report.check(
        "no-quantum-advantage",
        result.best_quantum <= result.classical + 0.02,
        format!(
            "best quantum {:.4} ≤ classical {:.4} + 0.02",
            result.best_quantum, result.classical
        ),
    );

    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_shows_no_advantage() {
        let report = super::run(true);
        let out = format!("{report}");
        assert!(out.contains("no quantum advantage found"));
        assert!(out.contains("no-signaling reduction"));
        assert!(report.passed(), "{out}");
    }
}
