//! Statistical and exact equivalence of the closed-form noisy-GHZ kernel
//! and the full quantum-simulation oracle, mirroring `werner_stat.rs`:
//! cell probabilities pinned to the density-matrix oracle at 1e-12, and
//! both samplers checked against the analytic distribution at the
//! ISSUE-mandated 99.9% confidence with 50k samples per configuration.
//! Run with `--nocapture` to see the sample-size/confidence accounting.

use proptest::prelude::*;
use qmath::assert_prob_in;
use qsim::ghz::{equatorial_basis, oracle_cell, NoisyGhz};
use qsim::measure::Basis1;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const N: u64 = 50_000;
const CONF: f64 = 0.999;

/// Sample `N` rounds from the kernel and check every outcome-cell count
/// against the analytic joint distribution.
fn check_kernel(ghz: &NoisyGhz, phases: &[f64], rng: &mut StdRng) {
    let n = ghz.n_parties();
    let mut counts = vec![0u64; 1 << n];
    for _ in 0..N {
        counts[ghz.sample(phases, rng) as usize] += 1;
    }
    for (a, &count) in counts.iter().enumerate() {
        assert_prob_in!(count, N, ghz.joint_prob(phases, a as u64), conf = CONF);
    }
}

/// Sample `N` rounds from the statevector oracle (trajectory noise + n
/// projective basis measurements) and check the even-parity rate and one
/// marginal against the same closed form.
fn check_oracle(ghz: &NoisyGhz, phases: &[f64], rng: &mut StdRng) {
    let bases: Vec<Basis1> = phases.iter().map(|&p| equatorial_basis(p)).collect();
    let e = ghz.correlation(phases);
    let mut even = 0u64;
    let mut first_zero = 0u64;
    for _ in 0..N {
        let a = ghz.oracle_sample(&bases, rng).unwrap();
        even += u64::from(a.count_ones().is_multiple_of(2));
        first_zero += u64::from(a & 1 == 0);
    }
    assert_prob_in!(even, N, 0.5 * (1.0 + e), conf = CONF);
    assert_prob_in!(first_zero, N, 0.5, conf = CONF);
}

#[test]
fn kernel_matches_closed_form_across_sizes_and_visibilities() {
    let mut rng = StdRng::seed_from_u64(0x6421_0001);
    for n in [3usize, 5, 8] {
        for v in [0.5, 0.95, 1.0] {
            let phases: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * PI).collect();
            check_kernel(&NoisyGhz::new(n, v).unwrap(), &phases, &mut rng);
        }
    }
}

#[test]
fn oracle_matches_the_same_closed_form() {
    let mut rng = StdRng::seed_from_u64(0x6421_0002);
    for (n, v) in [(3usize, 0.6), (4, 0.95)] {
        let phases: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * PI).collect();
        check_oracle(&NoisyGhz::new(n, v).unwrap(), &phases, &mut rng);
    }
}

#[test]
fn dephased_kernel_and_oracle_agree() {
    // QNIC storage decay on three of four qubits: retentions well below 1.
    let mut rng = StdRng::seed_from_u64(0x6421_0003);
    let ghz = NoisyGhz::with_dephasing(0.95, vec![0.61, 0.78, 1.0, 0.9]).unwrap();
    let phases = [0.4, 1.2, -0.3, PI / 2.0];
    check_kernel(&ghz, &phases, &mut rng);
    check_oracle(&ghz, &phases, &mut rng);
}

#[test]
fn xy_settings_agree_between_kernel_and_oracle() {
    // The Mermin-game settings path: Y on a random subset of parties.
    let mut rng = StdRng::seed_from_u64(0x6421_0004);
    let ghz = NoisyGhz::new(3, 0.8).unwrap();
    for y_mask in [0b000u64, 0b011, 0b101, 0b111] {
        let e = ghz.correlation_xy(y_mask);
        let mut kernel_even = 0u64;
        let mut oracle_even = 0u64;
        for _ in 0..N {
            kernel_even += u64::from(
                ghz.sample_xy(y_mask, &mut rng)
                    .count_ones()
                    .is_multiple_of(2),
            );
            oracle_even += u64::from(
                ghz.oracle_sample_xy(y_mask, &mut rng)
                    .unwrap()
                    .count_ones()
                    .is_multiple_of(2),
            );
        }
        assert_prob_in!(kernel_even, N, 0.5 * (1.0 + e), conf = CONF);
        assert_prob_in!(oracle_even, N, 0.5 * (1.0 + e), conf = CONF);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel and density-matrix oracle joint distributions agree
    /// cell-by-cell to 1e-12 for random (n, visibility, retentions,
    /// measurement phases) — the exact pinning the ISSUE mandates.
    #[test]
    fn kernel_and_oracle_cells_agree_for_random_configurations(
        n in 2usize..6,
        visibility in 0.0f64..1.0,
        retention_pool in proptest::collection::vec(0.0f64..1.0, 5..6),
        phase_pool in proptest::collection::vec(-3.2f64..3.2, 5..6))
    {
        let ghz = NoisyGhz::with_dephasing(visibility, retention_pool[..n].to_vec()).unwrap();
        let phases = &phase_pool[..n];
        let bases: Vec<Basis1> = phases.iter().map(|&p| equatorial_basis(p)).collect();
        let rho = ghz.oracle_density().unwrap();
        for a in 0..(1u64 << n) {
            let kernel = ghz.joint_prob(phases, a);
            let oracle = oracle_cell(&rho, &bases, a);
            prop_assert!(
                (kernel - oracle).abs() < 1e-12,
                "n = {}, v = {}, a = {:#b}: kernel {} vs oracle {}",
                n, visibility, a, kernel, oracle
            );
        }
    }
}
