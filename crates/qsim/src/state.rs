//! Pure quantum states as dense statevectors.

use crate::error::SimError;
use crate::gates::{Gate1, Gate2};
use qmath::C64;
use rand::Rng;
use std::fmt;

/// A pure quantum state on `n` qubits, stored as 2ⁿ complex amplitudes.
///
/// Qubit 0 is the leftmost ket label (see crate docs). States are kept
/// normalized; measurement collapses the state in place.
///
/// ```
/// use qsim::{gates, StateVector};
///
/// // Build a Bell pair: H on qubit 0, then CNOT(0 → 1).
/// let mut s = StateVector::zero(2);
/// s.apply_gate1(0, &gates::h()).unwrap();
/// s.apply_controlled(0, 1, &gates::x()).unwrap();
/// assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros state `|00…0⟩` on `n` qubits.
    ///
    /// # Panics
    /// Panics if `n > 24` (the statevector would exceed memory budgets;
    /// this library targets few-qubit non-local games).
    pub fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits <= 24, "statevector too large: {n_qubits} qubits");
        let mut amps = vec![C64::ZERO; 1usize << n_qubits];
        amps[0] = C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// The computational basis state `|index⟩` on `n` qubits.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] if `index >= 2ⁿ`.
    pub fn basis(n_qubits: usize, index: usize) -> Result<Self, SimError> {
        let dim = 1usize << n_qubits;
        if index >= dim {
            return Err(SimError::QubitOutOfRange {
                qubit: index,
                n_qubits,
            });
        }
        let mut s = StateVector::zero(n_qubits);
        s.amps[0] = C64::ZERO;
        s.amps[index] = C64::ONE;
        Ok(s)
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Errors
    /// - [`SimError::BadDimension`] if the length is not a power of two.
    /// - [`SimError::NotNormalized`] if `Σ|aᵢ|²` deviates from 1 by more
    ///   than [`crate::EPS`].
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self, SimError> {
        let len = amps.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(SimError::BadDimension { len });
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > crate::EPS {
            return Err(SimError::NotNormalized { norm });
        }
        Ok(StateVector {
            n_qubits: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Dimension of the underlying Hilbert space (2ⁿ).
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Borrow the amplitude vector.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Amplitude of basis state `index`.
    #[inline]
    pub fn amplitude(&self, index: usize) -> C64 {
        self.amps[index]
    }

    /// Probability of observing basis state `index` under a full
    /// computational-basis measurement.
    #[inline]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Sum of `|aᵢ|²` (should be 1 for a valid state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes in place (used internally after collapse).
    fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        debug_assert!(n > 1e-150, "renormalizing a numerically-zero state");
        for a in self.amps.iter_mut() {
            *a = *a / n;
        }
    }

    /// Hermitian inner product `⟨self|other⟩`.
    ///
    /// # Errors
    /// [`SimError::SizeMismatch`] if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> Result<C64, SimError> {
        if self.n_qubits != other.n_qubits {
            return Err(SimError::SizeMismatch {
                op: "inner",
                lhs: self.n_qubits,
                rhs: other.n_qubits,
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// Fidelity `|⟨self|other⟩|²` with another pure state.
    ///
    /// # Errors
    /// [`SimError::SizeMismatch`] if qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64, SimError> {
        Ok(self.inner(other)?.norm_sqr())
    }

    /// Tensor product `self ⊗ other` (self's qubits come first).
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let mut amps = Vec::with_capacity(self.dim() * other.dim());
        for a in &self.amps {
            for b in &other.amps {
                amps.push(*a * *b);
            }
        }
        StateVector {
            n_qubits: self.n_qubits + other.n_qubits,
            amps,
        }
    }

    /// Bit mask stride for `qubit` under the crate's ordering convention.
    #[inline]
    fn stride(&self, qubit: usize) -> usize {
        1usize << (self.n_qubits - 1 - qubit)
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), SimError> {
        if qubit >= self.n_qubits {
            return Err(SimError::QubitOutOfRange {
                qubit,
                n_qubits: self.n_qubits,
            });
        }
        Ok(())
    }

    /// Applies a single-qubit gate to `qubit`.
    ///
    /// Structured gates take fast paths: diagonal gates (Z, S, T, Rz,
    /// phase) scale the two amplitude lanes in place, and anti-diagonal
    /// gates (X, Y) swap-and-scale them — both skip the dense 2×2
    /// multiply, halving the complex arithmetic in circuit-simulation
    /// inner loops. The standard gate constructors produce exact
    /// `C64::ZERO` off/on-diagonal entries, so the structure test is an
    /// exact compare, never an epsilon.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn apply_gate1(&mut self, qubit: usize, g: &Gate1) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        let stride = self.stride(qubit);
        let dim = self.dim();
        let is_zero = |z: C64| z.re == 0.0 && z.im == 0.0;
        if is_zero(g[0][1]) && is_zero(g[1][0]) {
            // Diagonal: |0⟩-lane scales by g00, |1⟩-lane by g11.
            let (g00, g11) = (g[0][0], g[1][1]);
            let mut base = 0;
            while base < dim {
                for off in 0..stride {
                    let i0 = base + off;
                    let i1 = i0 + stride;
                    self.amps[i0] = g00 * self.amps[i0];
                    self.amps[i1] = g11 * self.amps[i1];
                }
                base += stride * 2;
            }
            return Ok(());
        }
        if is_zero(g[0][0]) && is_zero(g[1][1]) {
            // Anti-diagonal: lanes swap, scaled by g01 / g10.
            let (g01, g10) = (g[0][1], g[1][0]);
            let mut base = 0;
            while base < dim {
                for off in 0..stride {
                    let i0 = base + off;
                    let i1 = i0 + stride;
                    let a0 = self.amps[i0];
                    self.amps[i0] = g01 * self.amps[i1];
                    self.amps[i1] = g10 * a0;
                }
                base += stride * 2;
            }
            return Ok(());
        }
        let mut base = 0;
        while base < dim {
            for off in 0..stride {
                let i0 = base + off;
                let i1 = i0 + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = g[0][0] * a0 + g[0][1] * a1;
                self.amps[i1] = g[1][0] * a0 + g[1][1] * a1;
            }
            base += stride * 2;
        }
        Ok(())
    }

    /// Applies a single-qubit gate to `target`, controlled on `control`
    /// being `|1⟩`.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubit`].
    pub fn apply_controlled(
        &mut self,
        control: usize,
        target: usize,
        g: &Gate1,
    ) -> Result<(), SimError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(SimError::DuplicateQubit { qubit: control });
        }
        let cs = self.stride(control);
        let ts = self.stride(target);
        let dim = self.dim();
        for i0 in 0..dim {
            // Visit each (control=1, target=0) index exactly once.
            if i0 & cs == 0 || i0 & ts != 0 {
                continue;
            }
            let i1 = i0 | ts;
            let a0 = self.amps[i0];
            let a1 = self.amps[i1];
            self.amps[i0] = g[0][0] * a0 + g[0][1] * a1;
            self.amps[i1] = g[1][0] * a0 + g[1][1] * a1;
        }
        Ok(())
    }

    /// Applies an arbitrary two-qubit gate (4×4, basis order `|q_a q_b⟩` ∈
    /// {00, 01, 10, 11}) to the ordered pair `(qubit_a, qubit_b)`.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubit`].
    pub fn apply_gate2(
        &mut self,
        qubit_a: usize,
        qubit_b: usize,
        g: &Gate2,
    ) -> Result<(), SimError> {
        self.check_qubit(qubit_a)?;
        self.check_qubit(qubit_b)?;
        if qubit_a == qubit_b {
            return Err(SimError::DuplicateQubit { qubit: qubit_a });
        }
        let sa = self.stride(qubit_a);
        let sb = self.stride(qubit_b);
        let dim = self.dim();
        for base in 0..dim {
            if base & sa != 0 || base & sb != 0 {
                continue;
            }
            let idx = [base, base | sb, base | sa, base | sa | sb];
            let old = [
                self.amps[idx[0]],
                self.amps[idx[1]],
                self.amps[idx[2]],
                self.amps[idx[3]],
            ];
            for (r, &i) in idx.iter().enumerate() {
                let mut acc = C64::ZERO;
                for (c, &o) in old.iter().enumerate() {
                    acc += g[r][c] * o;
                }
                self.amps[i] = acc;
            }
        }
        Ok(())
    }

    /// Probability that measuring `qubit` in the computational basis
    /// yields 1.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn prob_one(&self, qubit: usize) -> Result<f64, SimError> {
        self.check_qubit(qubit)?;
        let stride = self.stride(qubit);
        Ok(self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & stride != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum())
    }

    /// Measures `qubit` in the computational basis, collapsing the state.
    /// Returns the observed bit.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn measure_qubit<R: Rng + ?Sized>(
        &mut self,
        qubit: usize,
        rng: &mut R,
    ) -> Result<u8, SimError> {
        let p1 = self.prob_one(qubit)?;
        let outcome = u8::from(rng.gen::<f64>() < p1);
        self.collapse(qubit, outcome)?;
        Ok(outcome)
    }

    /// Projects `qubit` onto `outcome` and renormalizes (post-measurement
    /// state). Public so callers can compute conditional states.
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn collapse(&mut self, qubit: usize, outcome: u8) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        let stride = self.stride(qubit);
        for (i, a) in self.amps.iter_mut().enumerate() {
            let bit = u8::from(i & stride != 0);
            if bit != outcome {
                *a = C64::ZERO;
            }
        }
        self.renormalize();
        Ok(())
    }

    /// Measures all qubits in the computational basis; the state collapses
    /// to the observed basis state. Returns the basis index.
    pub fn measure_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = self.dim() - 1;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                chosen = i;
                break;
            }
        }
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if i == chosen { C64::ONE } else { C64::ZERO };
        }
        chosen
    }

    /// Expectation value `⟨ψ|O|ψ⟩` of a single-qubit Hermitian observable
    /// `O` acting on `qubit` (real by Hermiticity).
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] for a bad index.
    pub fn expectation_gate1(&self, qubit: usize, o: &Gate1) -> Result<f64, SimError> {
        self.check_qubit(qubit)?;
        let stride = self.stride(qubit);
        let mut acc = C64::ZERO;
        for (i, a) in self.amps.iter().enumerate() {
            if i & stride != 0 {
                continue;
            }
            let i1 = i | stride;
            let a0 = *a;
            let a1 = self.amps[i1];
            // ⟨(a0,a1)| O |(a0,a1)⟩ for this 2-dim slice
            acc += a0.conj() * (o[0][0] * a0 + o[0][1] * a1);
            acc += a1.conj() * (o[1][0] * a0 + o[1][1] * a1);
        }
        Ok(acc.re)
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, a) in self.amps.iter().enumerate() {
            if a.abs() < 1e-12 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            write!(f, "({a})|{:0width$b}⟩", i, width = self.n_qubits)?;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const F: f64 = std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn zero_state() {
        let s = StateVector::zero(2);
        assert_eq!(s.n_qubits(), 2);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.probability(0), 1.0);
    }

    #[test]
    fn basis_state_and_bounds() {
        let s = StateVector::basis(2, 3).unwrap();
        assert_eq!(s.probability(3), 1.0);
        assert!(StateVector::basis(2, 4).is_err());
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(StateVector::from_amplitudes(vec![C64::ONE, C64::ZERO]).is_ok());
        assert!(matches!(
            StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]),
            Err(SimError::NotNormalized { .. })
        ));
        assert!(matches!(
            StateVector::from_amplitudes(vec![C64::ONE, C64::ZERO, C64::ZERO]),
            Err(SimError::BadDimension { len: 3 })
        ));
    }

    #[test]
    fn hadamard_creates_superposition() {
        let mut s = StateVector::zero(1);
        s.apply_gate1(0, &gates::h()).unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(1) - 0.5).abs() < 1e-12);
        // H² = I
        s.apply_gate1(0, &gates::h()).unwrap();
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_correct_qubit() {
        let mut s = StateVector::zero(3);
        s.apply_gate1(0, &gates::x()).unwrap(); // |100⟩ = index 4
        assert!((s.probability(0b100) - 1.0).abs() < 1e-12);
        s.apply_gate1(2, &gates::x()).unwrap(); // |101⟩ = index 5
        assert!((s.probability(0b101) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cnot_entangles() {
        // H on qubit 0 then CNOT(0→1) gives the Bell state Φ+.
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &gates::h()).unwrap();
        s.apply_controlled(0, 1, &gates::x()).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01) < 1e-12);
        assert!(s.probability(0b10) < 1e-12);
    }

    #[test]
    fn apply_gate2_matches_controlled() {
        let mut s1 = StateVector::zero(2);
        s1.apply_gate1(0, &gates::h()).unwrap();
        let mut s2 = s1.clone();
        s1.apply_controlled(0, 1, &gates::x()).unwrap();
        s2.apply_gate2(0, 1, &gates::cnot()).unwrap();
        for i in 0..4 {
            assert!(s1.amplitude(i).approx_eq(s2.amplitude(i), 1e-12));
        }
    }

    #[test]
    fn gate2_on_swapped_operands() {
        // CNOT with control=1, target=0 on |01⟩ → |11⟩.
        let mut s = StateVector::basis(2, 0b01).unwrap();
        s.apply_gate2(1, 0, &gates::cnot()).unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn structured_gate_fast_paths_match_dense_multiply() {
        // Dense reference applier (the pre-fast-path kernel), compared
        // against apply_gate1's specialized diagonal/anti-diagonal paths.
        fn dense_apply(s: &mut StateVector, qubit: usize, g: &crate::gates::Gate1) {
            let stride = s.stride(qubit);
            let dim = s.dim();
            let mut base = 0;
            while base < dim {
                for off in 0..stride {
                    let i0 = base + off;
                    let i1 = i0 + stride;
                    let a0 = s.amps[i0];
                    let a1 = s.amps[i1];
                    s.amps[i0] = g[0][0] * a0 + g[0][1] * a1;
                    s.amps[i1] = g[1][0] * a0 + g[1][1] * a1;
                }
                base += stride * 2;
            }
        }

        // A generic 3-qubit state with no special structure.
        let mut base_state = StateVector::zero(3);
        for q in 0..3 {
            base_state
                .apply_gate1(q, &gates::ry(0.3 + q as f64))
                .unwrap();
            base_state
                .apply_gate1(q, &gates::rz(1.1 * (q + 1) as f64))
                .unwrap();
        }
        base_state.apply_controlled(0, 2, &gates::x()).unwrap();

        let structured: Vec<(&str, crate::gates::Gate1)> = vec![
            ("z", gates::z()),
            ("s", gates::s()),
            ("t", gates::t()),
            ("rz", gates::rz(0.77)),
            ("phase", gates::phase(2.13)),
            ("x", gates::x()),
            ("y", gates::y()),
        ];
        for (name, g) in &structured {
            for q in 0..3 {
                let mut fast = base_state.clone();
                let mut slow = base_state.clone();
                fast.apply_gate1(q, g).unwrap();
                dense_apply(&mut slow, q, g);
                for i in 0..fast.dim() {
                    assert!(
                        fast.amplitude(i).approx_eq(slow.amplitude(i), 1e-15),
                        "gate {name} qubit {q} amp {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn qubit_out_of_range_errors() {
        let mut s = StateVector::zero(2);
        assert!(s.apply_gate1(2, &gates::x()).is_err());
        assert!(s.apply_controlled(0, 2, &gates::x()).is_err());
        assert!(matches!(
            s.apply_controlled(1, 1, &gates::x()),
            Err(SimError::DuplicateQubit { qubit: 1 })
        ));
        assert!(s.prob_one(5).is_err());
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = StateVector::zero(1);
        s.apply_gate1(0, &gates::h()).unwrap();
        let bit = s.measure_qubit(0, &mut rng).unwrap();
        // Post-measurement state is deterministic.
        assert!((s.probability(bit as usize) - 1.0).abs() < 1e-12);
        let again = s.measure_qubit(0, &mut rng).unwrap();
        assert_eq!(bit, again);
    }

    #[test]
    fn measurement_statistics_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ones = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let mut s = StateVector::zero(1);
            s.apply_gate1(0, &gates::h()).unwrap();
            ones += s.measure_qubit(0, &mut rng).unwrap() as u32;
        }
        let f = ones as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02, "frequency {f}");
    }

    #[test]
    fn bell_pair_perfectly_correlated() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut s = StateVector::zero(2);
            s.apply_gate1(0, &gates::h()).unwrap();
            s.apply_controlled(0, 1, &gates::x()).unwrap();
            let a = s.measure_qubit(0, &mut rng).unwrap();
            let b = s.measure_qubit(1, &mut rng).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tensor_product_composes() {
        let mut plus = StateVector::zero(1);
        plus.apply_gate1(0, &gates::h()).unwrap();
        let one = StateVector::basis(1, 1).unwrap();
        let t = plus.tensor(&one);
        assert_eq!(t.n_qubits(), 2);
        assert!((t.probability(0b01) - 0.5).abs() < 1e-12);
        assert!((t.probability(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inner_product_and_fidelity() {
        let z = StateVector::zero(1);
        let o = StateVector::basis(1, 1).unwrap();
        assert!(z.inner(&o).unwrap().approx_eq(C64::ZERO, 1e-12));
        assert!((z.fidelity(&z).unwrap() - 1.0).abs() < 1e-12);
        let mut plus = StateVector::zero(1);
        plus.apply_gate1(0, &gates::h()).unwrap();
        assert!((z.fidelity(&plus).unwrap() - 0.5).abs() < 1e-12);
        assert!(z.inner(&StateVector::zero(2)).is_err());
    }

    #[test]
    fn expectation_pauli_z() {
        let s = StateVector::zero(1);
        assert!((s.expectation_gate1(0, &gates::z()).unwrap() - 1.0).abs() < 1e-12);
        let o = StateVector::basis(1, 1).unwrap();
        assert!((o.expectation_gate1(0, &gates::z()).unwrap() + 1.0).abs() < 1e-12);
        let mut plus = StateVector::zero(1);
        plus.apply_gate1(0, &gates::h()).unwrap();
        assert!(plus.expectation_gate1(0, &gates::z()).unwrap().abs() < 1e-12);
        assert!((plus.expectation_gate1(0, &gates::x()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_all_collapses_to_basis() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &gates::h()).unwrap();
        s.apply_gate1(1, &gates::h()).unwrap();
        let idx = s.measure_all(&mut rng);
        assert!(idx < 4);
        assert!((s.probability(idx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_nonzero_terms() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &gates::h()).unwrap();
        s.apply_controlled(0, 1, &gates::x()).unwrap();
        let d = s.to_string();
        assert!(d.contains("|00⟩"));
        assert!(d.contains("|11⟩"));
        assert!(!d.contains("|01⟩"));
    }

    #[test]
    fn superposition_amplitude_value() {
        let mut s = StateVector::zero(1);
        s.apply_gate1(0, &gates::h()).unwrap();
        assert!(s.amplitude(0).approx_eq(C64::real(F), 1e-12));
        assert!(s.amplitude(1).approx_eq(C64::real(F), 1e-12));
    }
}
