//! The standard gate set.
//!
//! Single-qubit gates are `[[C64; 2]; 2]` row-major matrices; two-qubit
//! gates are `[[C64; 4]; 4]` in basis order `|00⟩, |01⟩, |10⟩, |11⟩`.
//! Gates are returned by functions (not consts) because `C64` arithmetic
//! is not const-evaluable; the compiler inlines them.

use qmath::C64;

/// A single-qubit gate (2×2 complex matrix, row-major).
pub type Gate1 = [[C64; 2]; 2];
/// A two-qubit gate (4×4 complex matrix, row-major, basis `|00⟩…|11⟩`).
pub type Gate2 = [[C64; 4]; 4];

const R: fn(f64) -> C64 = C64::real;

/// Hadamard gate.
pub fn h() -> Gate1 {
    let f = std::f64::consts::FRAC_1_SQRT_2;
    [[R(f), R(f)], [R(f), R(-f)]]
}

/// Pauli-X (NOT) gate.
pub fn x() -> Gate1 {
    [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]
}

/// Pauli-Y gate.
pub fn y() -> Gate1 {
    [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]
}

/// Pauli-Z gate.
pub fn z() -> Gate1 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, R(-1.0)]]
}

/// The identity gate.
pub fn i() -> Gate1 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]]
}

/// Phase gate S = diag(1, i).
pub fn s() -> Gate1 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]
}

/// T gate = diag(1, e^{iπ/4}).
pub fn t() -> Gate1 {
    [
        [C64::ONE, C64::ZERO],
        [C64::ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
    ]
}

/// Rotation about X: `Rx(θ) = exp(-iθX/2)`.
pub fn rx(theta: f64) -> Gate1 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [[R(c), C64::new(0.0, -s)], [C64::new(0.0, -s), R(c)]]
}

/// Rotation about Y: `Ry(θ) = exp(-iθY/2)` (real-valued).
pub fn ry(theta: f64) -> Gate1 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [[R(c), R(-s)], [R(s), R(c)]]
}

/// Rotation about Z: `Rz(θ) = exp(-iθZ/2)`.
pub fn rz(theta: f64) -> Gate1 {
    [
        [C64::cis(-theta / 2.0), C64::ZERO],
        [C64::ZERO, C64::cis(theta / 2.0)],
    ]
}

/// Phase shift gate `diag(1, e^{iφ})`.
pub fn phase(phi: f64) -> Gate1 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::cis(phi)]]
}

/// The real plane-rotation `[[cosθ, -sinθ], [sinθ, cosθ]]`, which maps
/// `|0⟩` to the CHSH measurement direction `cosθ|0⟩ + sinθ|1⟩`.
///
/// Measuring in the angle-θ basis means applying the *inverse* of this
/// rotation and then measuring in the computational basis; see
/// [`crate::measure::measure_in_angle_basis`].
pub fn plane_rotation(theta: f64) -> Gate1 {
    let (c, s) = (theta.cos(), theta.sin());
    [[R(c), R(-s)], [R(s), R(c)]]
}

/// CNOT with the first operand as control (`|10⟩ ↔ |11⟩`).
pub fn cnot() -> Gate2 {
    let o = C64::ONE;
    let n = C64::ZERO;
    [[o, n, n, n], [n, o, n, n], [n, n, n, o], [n, n, o, n]]
}

/// 2×2 matrix product of gates (for building composite gates in tests).
pub fn compose(a: &Gate1, b: &Gate1) -> Gate1 {
    let mut out = [[C64::ZERO; 2]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

/// Conjugate transpose of a single-qubit gate.
pub fn dagger(g: &Gate1) -> Gate1 {
    [
        [g[0][0].conj(), g[1][0].conj()],
        [g[0][1].conj(), g[1][1].conj()],
    ]
}

/// True if `g` is unitary within `tol`.
pub fn is_unitary1(g: &Gate1, tol: f64) -> bool {
    let p = compose(&dagger(g), g);
    (p[0][0] - C64::ONE).abs() <= tol
        && (p[1][1] - C64::ONE).abs() <= tol
        && p[0][1].abs() <= tol
        && p[1][0].abs() <= tol
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index pairs read naturally in matrix checks
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standard_gates_unitary() {
        for g in [h(), x(), y(), z(), i(), s(), t()] {
            assert!(is_unitary1(&g, 1e-12));
        }
    }

    #[test]
    fn rotations_unitary() {
        for k in 0..12 {
            let theta = k as f64 * 0.5;
            assert!(is_unitary1(&rx(theta), 1e-12));
            assert!(is_unitary1(&ry(theta), 1e-12));
            assert!(is_unitary1(&rz(theta), 1e-12));
            assert!(is_unitary1(&plane_rotation(theta), 1e-12));
            assert!(is_unitary1(&phase(theta), 1e-12));
        }
    }

    #[test]
    fn pauli_products() {
        // XYZ = iI
        let xyz = compose(&x(), &compose(&y(), &z()));
        assert!(xyz[0][0].approx_eq(C64::I, 1e-12));
        assert!(xyz[1][1].approx_eq(C64::I, 1e-12));
        assert!(xyz[0][1].abs() < 1e-12);
    }

    #[test]
    fn s_squared_is_z() {
        let ss = compose(&s(), &s());
        for r in 0..2 {
            for c in 0..2 {
                assert!(ss[r][c].approx_eq(z()[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn t_squared_is_s() {
        let tt = compose(&t(), &t());
        for r in 0..2 {
            for c in 0..2 {
                assert!(tt[r][c].approx_eq(s()[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn hadamard_diagonalizes_x() {
        // HXH = Z
        let hxh = compose(&h(), &compose(&x(), &h()));
        for r in 0..2 {
            for c in 0..2 {
                assert!(hxh[r][c].approx_eq(z()[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn ry_matches_plane_rotation() {
        // Ry(2θ) equals the real plane rotation by θ.
        let theta = 0.7;
        let a = ry(2.0 * theta);
        let b = plane_rotation(theta);
        for r in 0..2 {
            for c in 0..2 {
                assert!(a[r][c].approx_eq(b[r][c], 1e-12));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_rotation_composition(a in 0.0f64..std::f64::consts::TAU, b in 0.0f64..std::f64::consts::TAU) {
            // plane_rotation(a) · plane_rotation(b) = plane_rotation(a+b)
            let lhs = compose(&plane_rotation(a), &plane_rotation(b));
            let rhs = plane_rotation(a + b);
            for r in 0..2 {
                for c in 0..2 {
                    prop_assert!(lhs[r][c].approx_eq(rhs[r][c], 1e-9));
                }
            }
        }

        #[test]
        fn prop_rz_phases_commute(a in 0.0f64..std::f64::consts::TAU, b in 0.0f64..std::f64::consts::TAU) {
            let lhs = compose(&rz(a), &rz(b));
            let rhs = compose(&rz(b), &rz(a));
            for r in 0..2 {
                for c in 0..2 {
                    prop_assert!(lhs[r][c].approx_eq(rhs[r][c], 1e-9));
                }
            }
        }
    }
}
