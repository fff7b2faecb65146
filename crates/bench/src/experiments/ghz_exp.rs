//! Experiment E9: multiparty pseudo-telepathy under noise — where does
//! the N-party coordination advantage survive?
//!
//! The constructive counterpart to the ECMP negative result (E4): the
//! paper stops at bipartite CHSH coordination, but its §4.1 observation
//! that the multiparty gap *grows* with the player count is exactly what
//! a rack-scale deployment would exploit. Two sweeps:
//!
//! - (a) the n-player Mermin parity game on noisy GHZ states, N ∈ 3..10
//!   × visibility, played through the closed-form `qsim::ghz` kernel
//!   (`games::multiparty::play_mermin_batch`). For each N we locate the
//!   **classical-crossover visibility** — where `(1+v)/2` meets the
//!   classical ceiling `1/2 + 2^{−⌈n/2⌉}` — and pin it to the closed
//!   form `v* = 2^{1−⌈n/2⌉}`. The window of quantum advantage *widens*
//!   with N: more parties tolerate noisier hardware.
//! - (b) the Mermin–Peres Magic Square game on two Werner pairs
//!   (`games::magic`), whose crossover sits much higher, at
//!   `v* = (√39 − 2)/5 ≈ 0.849`.

use crate::report::Report;
use crate::table::{f4, Table};
use games::magic::MagicSquare;
use games::multiparty::{
    mermin_classical_bound, mermin_crossover_visibility, mermin_quantum_win, play_mermin_batch,
};
use obs::json::Json;
use qmath::stats::wilson;
use qsim::ghz::NoisyGhz;

/// Visibility grid for the Mermin sweep: includes every closed-form
/// crossover `2^{1−⌈n/2⌉}` for n ∈ 3..10 (0.5, 0.25, 0.125, 0.0625) as
/// a grid point, with neighbors on both sides for interpolation.
const MERMIN_VIS: [f64; 10] = [
    0.0, 0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0,
];

/// Visibility grid for the Magic Square sweep, bracketing its crossover
/// at `(√39 − 2)/5 ≈ 0.849`.
const MAGIC_VIS: [f64; 8] = [0.0, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0];

/// Linear interpolation of the visibility where the win rate first
/// clears `bound` (rates ordered by ascending visibility). `None` when
/// the sweep never clears the bound.
fn crossover_from_sweep(vis: &[f64], rates: &[f64], bound: f64) -> Option<f64> {
    let i = rates.iter().position(|&r| r > bound)?;
    if i == 0 {
        return Some(vis[0]);
    }
    let (v0, v1) = (vis[i - 1], vis[i]);
    let (r0, r1) = (rates[i - 1], rates[i]);
    if r1 - r0 < 1e-12 {
        return Some(v1);
    }
    Some(v0 + (bound - r0) / (r1 - r0) * (v1 - v0))
}

/// Runs the multiparty-advantage experiment with the ambient worker
/// count.
pub fn run(quick: bool) -> Report {
    run_with_threads(runtime::thread_count(), quick)
}

/// Runs the multiparty-advantage experiment with an explicit worker
/// count (the determinism tests sweep this).
pub fn run_with_threads(threads: usize, quick: bool) -> Report {
    let mut report = Report::new("ghz", 9);
    let mut out = String::new();

    // (a) Mermin game: N × visibility, kernel-backed batches.
    let ns: &[usize] = if quick {
        &[3, 5, 8]
    } else {
        &[3, 4, 5, 6, 7, 8, 9, 10]
    };
    let rounds: u64 = if quick { 4_000 } else { 50_000 };
    let mut crossovers: Vec<(usize, f64, f64)> = Vec::new();
    let mut rate_at_v0: Vec<(usize, f64)> = Vec::new();
    let mut perfect_at_v1 = true;
    let mut t = Table::new(vec![
        "n",
        "classical bound",
        "crossover v* (measured)",
        "crossover v* (theory)",
    ]);
    for (ni, &n) in ns.iter().enumerate() {
        let batches = runtime::par_sweep_threads(
            threads,
            crate::point_seed(9, 0, ni as u64),
            &MERMIN_VIS,
            |_, &v, rng| {
                let kernel = NoisyGhz::new(n, v).expect("grid visibility is valid");
                play_mermin_batch(&kernel, rounds, rng)
            },
        );
        let rates: Vec<f64> = batches.iter().map(|b| b.win_rate()).collect();
        let bound = mermin_classical_bound(n);
        for (&v, b) in MERMIN_VIS.iter().zip(&batches) {
            report.interval(format!("mermin.n{n}.v{v:.4}"), wilson(b.wins, b.rounds));
            report.point(Json::obj([
                ("part", Json::str("mermin")),
                ("n", Json::uint(n as u64)),
                ("visibility", Json::num(v)),
                ("wins", Json::uint(b.wins)),
                ("rounds", Json::uint(b.rounds)),
                ("win_rate", Json::num(b.win_rate())),
                ("theory", Json::num(mermin_quantum_win(v))),
                ("classical_bound", Json::num(bound)),
            ]));
        }
        perfect_at_v1 &= batches[MERMIN_VIS.len() - 1].wins == rounds;
        rate_at_v0.push((n, rates[0]));
        let measured = crossover_from_sweep(&MERMIN_VIS, &rates, bound)
            .expect("v = 1 always clears the classical bound");
        let theory = mermin_crossover_visibility(n);
        crossovers.push((n, measured, theory));
        report.scalar(format!("crossover.n{n}"), measured);
        report.point(Json::obj([
            ("part", Json::str("crossover")),
            ("n", Json::uint(n as u64)),
            ("crossover_measured", Json::num(measured)),
            ("crossover_theory", Json::num(theory)),
            ("classical_bound", Json::num(bound)),
        ]));
        t.row(vec![n.to_string(), f4(bound), f4(measured), f4(theory)]);
    }
    out.push_str(&format!(
        "E9a — Mermin crossover visibility per player count \
         ({rounds} rounds/point, closed-form GHZ kernel)\n\n{}\n",
        t.render()
    ));

    // (b) Magic Square: visibility sweep on two Werner pairs.
    let magic_rounds: u64 = if quick { 4_000 } else { 50_000 };
    let magic_batches = runtime::par_sweep_threads(
        threads,
        crate::point_seed(9, 1, 0),
        &MAGIC_VIS,
        |_, &v, rng| {
            MagicSquare::new(v)
                .expect("grid visibility is valid")
                .play_batch(magic_rounds, rng)
        },
    );
    let magic_rates: Vec<f64> = magic_batches.iter().map(|b| b.win_rate()).collect();
    let mut t = Table::new(vec!["visibility", "win rate", "theory", "advantage?"]);
    for (&v, b) in MAGIC_VIS.iter().zip(&magic_batches) {
        let theory = games::magic::quantum_win(v);
        t.row(vec![
            f4(v),
            f4(b.win_rate()),
            f4(theory),
            (if b.win_rate() > 8.0 / 9.0 {
                "yes"
            } else {
                "NO"
            })
            .to_string(),
        ]);
        report.interval(format!("magic.v{v:.4}"), wilson(b.wins, b.rounds));
        report.point(Json::obj([
            ("part", Json::str("magic")),
            ("visibility", Json::num(v)),
            ("wins", Json::uint(b.wins)),
            ("rounds", Json::uint(b.rounds)),
            ("win_rate", Json::num(b.win_rate())),
            ("theory", Json::num(theory)),
        ]));
    }
    let magic_measured =
        crossover_from_sweep(&MAGIC_VIS, &magic_rates, 8.0 / 9.0).unwrap_or(f64::NAN);
    let magic_theory = games::magic::crossover_visibility();
    report.scalar("magic.crossover", magic_measured);
    report.point(Json::obj([
        ("part", Json::str("magic_crossover")),
        ("crossover_measured", Json::num(magic_measured)),
        ("crossover_theory", Json::num(magic_theory)),
        ("classical_bound", Json::num(8.0 / 9.0)),
    ]));
    out.push_str(&format!(
        "E9b — Mermin–Peres Magic Square vs Werner visibility \
         ({magic_rounds} rounds/point; classical optimum 8/9, crossover ≈ {:.4})\n\n{}",
        magic_theory,
        t.render()
    ));

    // Acceptance. The kernel at v = 1 is exactly deterministic — every
    // batch must be perfect, not merely close.
    report.check(
        "perfect-at-unit-visibility",
        perfect_at_v1,
        format!("all {} Mermin batches at v = 1 won every round", ns.len()),
    );
    let worst_v0 = rate_at_v0
        .iter()
        .map(|&(n, r)| r - mermin_classical_bound(n))
        .fold(f64::NEG_INFINITY, f64::max);
    report.check(
        "no-advantage-at-zero-visibility",
        worst_v0 < 0.0,
        format!("v = 0 win rates sit below the classical bound (worst margin {worst_v0:+.4})"),
    );
    let worst_cross = crossovers
        .iter()
        .map(|&(_, m, th)| (m - th).abs())
        .fold(0.0, f64::max);
    let cross_tol = if quick { 0.12 } else { 0.05 };
    report.check(
        "crossover-matches-closed-form",
        worst_cross < cross_tol,
        format!("max |measured − 2^(1−⌈n/2⌉)| = {worst_cross:.4} < {cross_tol}"),
    );
    report.check(
        "advantage-window-widens-with-n",
        crossovers.first().map(|c| c.1) > crossovers.last().map(|c| c.1),
        format!(
            "crossover falls from {:.4} (n = {}) to {:.4} (n = {})",
            crossovers.first().map_or(f64::NAN, |c| c.1),
            ns.first().copied().unwrap_or(0),
            crossovers.last().map_or(f64::NAN, |c| c.1),
            ns.last().copied().unwrap_or(0),
        ),
    );
    let worst_magic = MAGIC_VIS
        .iter()
        .zip(&magic_rates)
        .map(|(&v, &r)| (r - games::magic::quantum_win(v)).abs())
        .fold(0.0, f64::max);
    let magic_tol = if quick { 0.04 } else { 0.012 };
    report.check(
        "magic-square-matches-closed-form",
        worst_magic < magic_tol,
        format!("max |rate − (1/2 + (4v + 5v²)/18)| = {worst_magic:.4} < {magic_tol}"),
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
        assert!(out.contains("crossover"), "{out}");
    }

    #[test]
    fn crossover_interpolation_is_exact_on_linear_rates() {
        // Rates that are exactly (1+v)/2 must interpolate to the exact
        // closed-form crossover for every n.
        let rates: Vec<f64> = MERMIN_VIS.iter().map(|&v| mermin_quantum_win(v)).collect();
        for n in 3..=10usize {
            let bound = mermin_classical_bound(n);
            let c = crossover_from_sweep(&MERMIN_VIS, &rates, bound).unwrap();
            assert!(
                (c - mermin_crossover_visibility(n)).abs() < 1e-12,
                "n = {n}: {c}"
            );
        }
    }

    #[test]
    fn crossover_handles_edges() {
        assert_eq!(
            crossover_from_sweep(&[0.0, 1.0], &[0.9, 1.0], 0.5),
            Some(0.0)
        );
        assert_eq!(crossover_from_sweep(&[0.0, 1.0], &[0.1, 0.2], 0.5), None);
    }
}
