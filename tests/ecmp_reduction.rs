//! Integration: the §4.2 reduction argument beyond the 3-party case.
//!
//! The crate-level tests verify the 3-party invariance; here we verify the
//! paper's "the same logic extends to larger networks" sentence — with 4
//! parties and 2 inactive, the active pair's joint distribution is
//! invariant under anything the inactive parties do.

use qnlg::qmath::CMatrix;
use qnlg::qsim::measure::Basis1;
use qnlg::qsim::{bell, DensityMatrix};

/// `P(a, b)` for parties 0, 1 of `rho_ab` measured in angle bases.
fn joint(rho_ab: &DensityMatrix, ta: f64, tb: f64) -> [f64; 4] {
    let proj = |basis: &Basis1, outcome: usize| -> CMatrix {
        let phi = if outcome == 1 { basis.phi1 } else { basis.phi0 };
        CMatrix::from_vec(
            2,
            2,
            vec![
                phi[0] * phi[0].conj(),
                phi[0] * phi[1].conj(),
                phi[1] * phi[0].conj(),
                phi[1] * phi[1].conj(),
            ],
        )
        .expect("2x2")
    };
    let (ba, bb) = (Basis1::angle(ta), Basis1::angle(tb));
    let mut out = [0.0; 4];
    for a in 0..2 {
        for b in 0..2 {
            let p = proj(&ba, a).kron(&proj(&bb, b));
            out[a * 2 + b] = rho_ab.expectation(&p).expect("dims match");
        }
    }
    out
}

#[test]
fn four_party_ghz_two_inactive_parties_are_irrelevant() {
    let rho = DensityMatrix::from_pure(&bell::ghz(4));

    // Scenario A: inactive parties 2, 3 do nothing (trace them out).
    let silent = rho.partial_trace(&[0, 1]).expect("valid keep set");

    // Scenario B: both inactive parties measure first, in assorted bases.
    for tc in [0.0, 0.7, 1.9] {
        for td in [0.4, 2.2] {
            let mut mixed = CMatrix::zeros(4, 4);
            let mut total_p = 0.0;
            // Enumerate the inactive parties' joint outcomes.
            for oc in 0..2u8 {
                for od in 0..2u8 {
                    let (rho_cond, p) = project_two(&rho, tc, oc, td, od);
                    if p < 1e-15 {
                        continue;
                    }
                    total_p += p;
                    let reduced = rho_cond.partial_trace(&[0, 1]).expect("valid");
                    mixed = &mixed + &reduced.matrix().scaled(qnlg::qmath::C64::real(p));
                }
            }
            assert!((total_p - 1.0).abs() < 1e-10);
            let mixed_rho = DensityMatrix::from_matrix(mixed).expect("valid mixture");
            // Identical reduced states → identical joint distributions for
            // every choice of active-party bases.
            for ta in [0.0, 0.5, 1.1] {
                let d_silent = joint(&silent, ta, ta + 0.3);
                let d_mixed = joint(&mixed_rho, ta, ta + 0.3);
                for (s, m) in d_silent.iter().zip(&d_mixed) {
                    assert!(
                        (s - m).abs() < 1e-10,
                        "tc={tc} td={td} ta={ta}: {d_silent:?} vs {d_mixed:?}"
                    );
                }
            }
        }
    }
}

/// Projects parties 2 and 3 onto outcomes (oc, od) in angle bases
/// (tc, td); returns the normalized conditional state and the branch
/// probability.
fn project_two(rho: &DensityMatrix, tc: f64, oc: u8, td: f64, od: u8) -> (DensityMatrix, f64) {
    let proj1 = |theta: f64, outcome: u8| -> CMatrix {
        let basis = Basis1::angle(theta);
        let phi = if outcome == 1 { basis.phi1 } else { basis.phi0 };
        CMatrix::from_vec(
            2,
            2,
            vec![
                phi[0] * phi[0].conj(),
                phi[0] * phi[1].conj(),
                phi[1] * phi[0].conj(),
                phi[1] * phi[1].conj(),
            ],
        )
        .expect("2x2")
    };
    let full = CMatrix::identity(4)
        .kron(&proj1(tc, oc))
        .kron(&proj1(td, od));
    let projected = full
        .matmul(rho.matrix())
        .and_then(|m| m.matmul(&full))
        .expect("square");
    let p = projected.trace().re;
    if p < 1e-15 {
        return (DensityMatrix::maximally_mixed(4), 0.0);
    }
    let normalized = projected.scaled(qnlg::qmath::C64::real(1.0 / p));
    (
        DensityMatrix::from_matrix(normalized).expect("valid conditional state"),
        p,
    )
}

#[test]
fn reduction_holds_for_w_state_too() {
    // Not just GHZ: the argument is state-independent.
    let rho = DensityMatrix::from_pure(&bell::w_state(4));
    let silent = rho.partial_trace(&[0, 1]).expect("valid");
    let mut mixed = CMatrix::zeros(4, 4);
    for oc in 0..2u8 {
        for od in 0..2u8 {
            let (rho_cond, p) = project_two(&rho, 0.9, oc, 1.7, od);
            if p < 1e-15 {
                continue;
            }
            let reduced = rho_cond.partial_trace(&[0, 1]).expect("valid");
            mixed = &mixed + &reduced.matrix().scaled(qnlg::qmath::C64::real(p));
        }
    }
    let mixed_rho = DensityMatrix::from_matrix(mixed).expect("valid");
    assert!(
        silent.matrix().max_abs_diff(mixed_rho.matrix()) < 1e-10,
        "reduced states must be identical"
    );
}
