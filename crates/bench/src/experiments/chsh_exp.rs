//! Experiment E3: the CHSH numbers quoted in §2.
//!
//! Classical optimum 0.75; quantum optimum cos²(π/8) ≈ 0.8536 with the
//! stated angles (θ_A ∈ {0, π/4}, θ_B ∈ {π/8, −π/8}); uniform marginals.
//! Also validates the XOR-game solvers against the known CHSH values and
//! reports the 3-player GHZ game, the Mermin game at n = 3 (quantum wins
//! with certainty).

use crate::report::Report;
use crate::table::{f4, Table};
use games::chsh::QuantumChshStrategy;
use games::game::{empirical_win_rate, DeterministicStrategy, IndependentRandomStrategy};
use games::multiparty;
use games::XorGame;
use obs::json::Json;
use qmath::stats::wilson;

/// Runs the CHSH validation experiment.
///
/// The six Monte-Carlo rows are independent, so they run concurrently on
/// the shared pool, each on its own deterministic seed stream.
pub fn run(quick: bool) -> Report {
    let rounds = if quick { 20_000 } else { 500_000 };
    let xor = XorGame::chsh();
    let ghz_rounds = if quick { 2_000 } else { 20_000 };

    let tasks: Vec<usize> = (0..6).collect();
    let mc = runtime::par_sweep(
        crate::point_seed(3, 0, 0),
        &tasks,
        |_, &task, rng| match task {
            0 => empirical_win_rate(
                &xor,
                &mut DeterministicStrategy {
                    a_out: vec![false; 2],
                    b_out: vec![false; 2],
                },
                rounds,
                rng,
            ),
            1 => empirical_win_rate(&xor, &mut IndependentRandomStrategy, rounds, rng),
            2 => empirical_win_rate(&xor, &mut QuantumChshStrategy::ideal(), rounds, rng),
            3 => empirical_win_rate(
                &XorGame::flipped_chsh(),
                &mut QuantumChshStrategy::ideal_flipped(),
                rounds,
                rng,
            ),
            4 => xor.quantum_solution(8, rng).value,
            _ => multiparty::mermin_quantum_win_rate(3, ghz_rounds, rng),
        },
    );
    let (classical, independent, quantum, flipped, solver_quantum, ghz_quantum) =
        (mc[0], mc[1], mc[2], mc[3], mc[4], mc[5]);

    let solver_classical = xor
        .classical_value()
        .expect("CHSH is far below the enumeration limit");
    let solver_pgd = (1.0 + xor.quantum_bias_pgd(if quick { 150 } else { 500 })) / 2.0;

    let ghz_classical =
        multiparty::mermin_classical_optimum(3).expect("3 players is below the enumeration limit");

    let mut report = Report::new("chsh", 3);
    let mut t = Table::new(vec!["quantity", "measured", "theory"]);
    t.row(vec![
        "CHSH independent-random".into(),
        f4(independent),
        f4(0.5),
    ]);
    t.row(vec![
        "CHSH classical optimal".into(),
        f4(classical),
        f4(games::CHSH_CLASSICAL_VALUE),
    ]);
    t.row(vec![
        "CHSH quantum (paper angles)".into(),
        f4(quantum),
        f4(games::chsh_quantum_value()),
    ]);
    t.row(vec![
        "CHSH flipped (load-balancing)".into(),
        f4(flipped),
        f4(games::chsh_quantum_value()),
    ]);
    t.row(vec![
        "XOR solver classical (exact)".into(),
        f4(solver_classical),
        f4(0.75),
    ]);
    t.row(vec![
        "XOR solver quantum (alternating)".into(),
        f4(solver_quantum),
        f4(games::chsh_quantum_value()),
    ]);
    t.row(vec![
        "XOR solver quantum (PGD x-check)".into(),
        f4(solver_pgd),
        f4(games::chsh_quantum_value()),
    ]);
    t.row(vec![
        "GHZ 3-player classical optimal".into(),
        f4(ghz_classical),
        f4(0.75),
    ]);
    t.row(vec![
        "GHZ 3-player quantum".into(),
        f4(ghz_quantum),
        f4(1.0),
    ]);

    // Structured payload: every row as a (quantity, measured, theory)
    // point; Wilson intervals for the Monte-Carlo win rates (counts are
    // reconstructed exactly from rate × rounds).
    let wilson_of = |rate: f64, n: u64| wilson((rate * n as f64).round() as u64, n);
    let mc_rows: &[(&str, f64, f64, u64)] = &[
        ("independent_random", independent, 0.5, rounds as u64),
        (
            "classical_optimal",
            classical,
            games::CHSH_CLASSICAL_VALUE,
            rounds as u64,
        ),
        (
            "quantum_paper_angles",
            quantum,
            games::chsh_quantum_value(),
            rounds as u64,
        ),
        (
            "quantum_flipped",
            flipped,
            games::chsh_quantum_value(),
            rounds as u64,
        ),
        ("ghz_quantum", ghz_quantum, 1.0, ghz_rounds as u64),
    ];
    for &(name, measured, theory, n) in mc_rows {
        report.interval(name, wilson_of(measured, n));
        report.point(Json::obj([
            ("quantity", Json::str(name)),
            ("measured", Json::num(measured)),
            ("theory", Json::num(theory)),
            ("rounds", Json::uint(n)),
        ]));
    }
    for (name, measured, theory) in [
        ("xor_solver_classical", solver_classical, 0.75),
        (
            "xor_solver_quantum",
            solver_quantum,
            games::chsh_quantum_value(),
        ),
        ("xor_solver_pgd", solver_pgd, games::chsh_quantum_value()),
        ("ghz_classical", ghz_classical, 0.75),
    ] {
        report.point(Json::obj([
            ("quantity", Json::str(name)),
            ("measured", Json::num(measured)),
            ("theory", Json::num(theory)),
        ]));
    }
    report.scalar("chsh_quantum_measured", quantum);
    report.scalar("chsh_classical_exact", solver_classical);

    // Acceptance: the measured quantum win rate must sit at cos²(π/8)
    // within Monte-Carlo noise, and strictly above the classical optimum.
    let expect = games::chsh_quantum_value();
    report.check(
        "quantum-value",
        (quantum - expect).abs() < 0.02,
        format!("|{quantum:.4} − {expect:.4}| < 0.02"),
    );
    report.check(
        "quantum-beats-classical",
        quantum > games::CHSH_CLASSICAL_VALUE,
        format!("{quantum:.4} > {:.2}", games::CHSH_CLASSICAL_VALUE),
    );

    report.text = format!(
        "E3 — CHSH & GHZ game values (§2 text claims), {rounds} rounds/row\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn chsh_experiment_runs_and_matches() {
        let report = super::run(true);
        let out = format!("{report}");
        assert!(out.contains("CHSH quantum"));
        // The quantum row must show ≈ 0.85.
        assert!(out.contains("0.85"), "{out}");
        assert!(report.passed(), "{out}");
    }
}
