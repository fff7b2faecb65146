//! Two-player XOR games: exact classical values and quantum values via
//! Tsirelson's vector characterization.
//!
//! An XOR game is given by an input distribution π(x, y) and a target
//! parity `f(x, y)`; the players win iff `a ⊕ b = f(x, y)`. Writing
//! outputs as signs (`a' = (−1)^a`), define the *bias matrix*
//! `A[x][y] = π(x, y) · (−1)^{f(x,y)}`. Then:
//!
//! - **classical bias** `β_c = max Σ A[x][y]·a'_x·b'_y` over sign vectors,
//!   computed exactly here by walking Alice's 2^{n_A} sign patterns in
//!   *Gray-code order*: consecutive patterns differ in one bit, so the
//!   per-`y` column sums update in O(n_B) per pattern instead of a full
//!   O(n_A·n_B) rescan ([`XorGame::classical_bias`]; the naive rescan
//!   survives as the test oracle [`XorGame::classical_bias_naive`]).
//! - **quantum bias** `β_q = max Σ A[x][y]·⟨u_x, v_y⟩` over real unit
//!   vectors (Tsirelson's theorem [Cleve-Høyer-Toner-Watrous 2004, ref 18
//!   in the paper]) — an SDP. We solve it by alternating exact half-steps
//!   (each half-step has a closed-form optimum) over contiguous flat
//!   vector buffers, starting from a deterministic spectral warm start
//!   (power iteration on AᵀA) with random restarts as a safety net, and
//!   cross-check with an independent projected-gradient ascent over the
//!   elliptope. This replaces the paper's use of the Toqito package.
//!
//! The iteration budget and the restart count live in one [`SolverOpts`]
//! struct threaded through both the alternating solver and the PGD
//! cross-check.
//!
//! The game value is `(1 + β) / 2` in both cases. A game has a *quantum
//! advantage* iff `β_q > β_c`.

use crate::error::GameError;
use qmath::{project_elliptope, vecops, RMatrix};
use rand::Rng;

/// Largest `n_A` the exact classical enumeration accepts (2^{n_A} sign
/// patterns; the paper's games have ≤ ~8 inputs).
pub const ENUM_LIMIT: usize = 24;

/// Options shared by the XOR-game solvers.
///
/// One struct configures both [`XorGame::quantum_solution_with`] (the
/// alternating solver) and [`XorGame::quantum_bias_pgd_with`] (the PGD
/// cross-check), replacing the old split where `quantum_bias_pgd` took an
/// `iterations` argument while `quantum_solution` hardcoded 500.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOpts {
    /// Iteration cap per restart (alternating) or total (PGD).
    /// Default 500 — the historical fixed budget, now an upper bound
    /// thanks to the convergence exit.
    pub max_iters: usize,
    /// Number of starts of the alternating solver. The first start is the
    /// deterministic spectral warm start; the rest draw random unit
    /// vectors from the caller's RNG. Default 8.
    pub restarts: usize,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            max_iters: 500,
            restarts: 8,
        }
    }
}

/// Relative-improvement convergence threshold: the alternating solver
/// stops a restart once `bias − prev ≤ CONVERGED · max(1, |bias|)`. Bias
/// values are O(1), so this is effectively machine precision.
const CONVERGED: f64 = 1e-12;

/// A two-player XOR game.
///
/// ```
/// use games::XorGame;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let chsh = XorGame::chsh();
/// assert_eq!(chsh.classical_value().unwrap(), 0.75);
/// let mut rng = StdRng::seed_from_u64(1);
/// let q = chsh.quantum_value(&mut rng);
/// assert!((q - 0.8536).abs() < 1e-3); // cos²(π/8): Tsirelson's bound
/// ```
#[derive(Debug, Clone)]
pub struct XorGame {
    /// π(x, y); n_a × n_b, entries ≥ 0 summing to 1.
    prob: RMatrix,
    /// Target parity f(x, y): win iff `a ⊕ b = f(x, y)`.
    target: Vec<Vec<bool>>,
}

/// The result of solving for a quantum strategy.
#[derive(Debug, Clone)]
pub struct QuantumSolution {
    /// The quantum game value `(1 + β_q) / 2`.
    pub value: f64,
    /// The quantum bias `β_q`.
    pub bias: f64,
    /// Alice's unit strategy vectors, one per input.
    pub alice_vectors: Vec<Vec<f64>>,
    /// Bob's unit strategy vectors, one per input.
    pub bob_vectors: Vec<Vec<f64>>,
}

impl QuantumSolution {
    /// The correlation matrix `C[x][y] = ⟨u_x, v_y⟩` realized by the
    /// strategy (feeds [`crate::correlation::CorrelationBox`]).
    pub fn correlation_matrix(&self) -> RMatrix {
        RMatrix::from_fn(self.alice_vectors.len(), self.bob_vectors.len(), |x, y| {
            vecops::dot(&self.alice_vectors[x], &self.bob_vectors[y])
        })
    }
}

impl XorGame {
    /// Builds an XOR game, validating the input distribution.
    ///
    /// # Panics
    /// Panics if shapes are inconsistent, probabilities are negative, or
    /// they do not sum to 1 within `1e-9` — these are construction-time
    /// programming errors.
    pub fn new(prob: RMatrix, target: Vec<Vec<bool>>) -> Self {
        assert_eq!(prob.rows(), target.len(), "target rows");
        assert!(prob.rows() > 0 && prob.cols() > 0, "empty game");
        for row in &target {
            assert_eq!(row.len(), prob.cols(), "target cols");
        }
        let mut total = 0.0;
        for x in 0..prob.rows() {
            for y in 0..prob.cols() {
                assert!(prob[(x, y)] >= 0.0, "negative probability");
                total += prob[(x, y)];
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "probabilities sum to {total}");
        XorGame { prob, target }
    }

    /// The standard CHSH game as an XOR game (`f = x ∧ y`, uniform π).
    pub fn chsh() -> Self {
        let prob = RMatrix::from_fn(2, 2, |_, _| 0.25);
        let target = vec![vec![false, false], vec![false, true]];
        XorGame::new(prob, target)
    }

    /// The flipped CHSH game of the load-balancing mapping (§4.1,
    /// `f = ¬(x ∧ y)`, uniform π): the outputs agree (same server)
    /// exactly when both tasks are type-C (`x = y = 1`).
    pub fn flipped_chsh() -> Self {
        let prob = RMatrix::from_fn(2, 2, |_, _| 0.25);
        let target = vec![vec![true, true], vec![true, false]];
        XorGame::new(prob, target)
    }

    /// Number of Alice inputs.
    pub fn n_a(&self) -> usize {
        self.prob.rows()
    }

    /// Number of Bob inputs.
    pub fn n_b(&self) -> usize {
        self.prob.cols()
    }

    /// The target parity `f(x, y)`.
    pub fn target(&self, x: usize, y: usize) -> bool {
        self.target[x][y]
    }

    /// The win predicate: `a ⊕ b = f(x, y)`.
    pub fn wins(&self, x: usize, y: usize, a: bool, b: bool) -> bool {
        (a ^ b) == self.target[x][y]
    }

    /// Samples an input pair from π: one uniform draw, walked against the
    /// cumulative cell probabilities in row-major order.
    pub fn sample_inputs<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for x in 0..self.n_a() {
            for y in 0..self.n_b() {
                acc += self.prob[(x, y)];
                if r < acc {
                    return (x, y);
                }
            }
        }
        (self.n_a() - 1, self.n_b() - 1)
    }

    /// The bias matrix `A[x][y] = π(x, y)·(−1)^{f(x,y)}`.
    pub fn bias_matrix(&self) -> RMatrix {
        RMatrix::from_fn(self.n_a(), self.n_b(), |x, y| {
            let sign = if self.target[x][y] { -1.0 } else { 1.0 };
            self.prob[(x, y)] * sign
        })
    }

    /// Exact classical bias by Gray-code enumeration of Alice's sign
    /// patterns.
    ///
    /// For each of Alice's 2^{n_A} sign vectors `a`, Bob's optimal reply
    /// is `b_y = sign(Σ_x A[x][y]·a_x)`, contributing `Σ_y |Σ_x
    /// A[x][y]·a_x|`. Consecutive Gray-code patterns differ by one sign,
    /// so the per-`y` column sums update incrementally in O(n_B).
    ///
    /// # Errors
    /// [`GameError::TooLarge`] if `n_A >` [`ENUM_LIMIT`].
    pub fn classical_bias(&self) -> Result<f64, GameError> {
        let a = self.bias_matrix();
        classical_bias_flat(a.as_slice(), self.n_a(), self.n_b())
    }

    /// Exact classical bias by full per-pattern rescans — the original
    /// O(2^{n_A}·n_A·n_B) formulation, kept as the oracle the Gray-code
    /// walk is property-tested against (and as the ablation baseline).
    ///
    /// # Errors
    /// [`GameError::TooLarge`] if `n_A >` [`ENUM_LIMIT`].
    pub fn classical_bias_naive(&self) -> Result<f64, GameError> {
        let (na, nb) = (self.n_a(), self.n_b());
        if na > ENUM_LIMIT {
            return Err(GameError::TooLarge {
                n_a: na,
                limit: ENUM_LIMIT,
            });
        }
        let a_mat = self.bias_matrix();
        let mut best = f64::NEG_INFINITY;
        for pattern in 0u64..(1u64 << na) {
            let mut total = 0.0;
            for y in 0..nb {
                let mut col = 0.0;
                for x in 0..na {
                    let sign = if pattern >> x & 1 == 1 { -1.0 } else { 1.0 };
                    col += a_mat[(x, y)] * sign;
                }
                total += col.abs();
            }
            best = best.max(total);
        }
        Ok(best)
    }

    /// Exact classical value `(1 + β_c)/2`.
    ///
    /// # Errors
    /// [`GameError::TooLarge`] if `n_A >` [`ENUM_LIMIT`].
    pub fn classical_value(&self) -> Result<f64, GameError> {
        Ok((1.0 + self.classical_bias()?) / 2.0)
    }

    /// Quantum bias and strategy by alternating optimization with a
    /// spectral warm start and random restarts, using the default
    /// [`SolverOpts`] with the given restart count.
    pub fn quantum_solution<R: Rng + ?Sized>(
        &self,
        restarts: usize,
        rng: &mut R,
    ) -> QuantumSolution {
        self.quantum_solution_with(
            &SolverOpts {
                restarts,
                ..SolverOpts::default()
            },
            rng,
        )
    }

    /// Quantum bias and strategy by alternating optimization.
    ///
    /// Each half-step is the exact optimum given the other side's
    /// vectors, so the objective increases monotonically; a restart exits
    /// once the relative improvement drops below 10⁻¹². The first start
    /// is a deterministic spectral warm start (top singular direction of
    /// the bias matrix via power iteration on AᵀA, spread across
    /// dimensions so alternating steps can still rotate freely); the
    /// remaining restarts draw random unit vectors from `rng` and guard
    /// against the rare saddle start.
    ///
    /// All strategy vectors live in contiguous flat buffers during the
    /// solve; the returned [`QuantumSolution`] repacks them per input.
    pub fn quantum_solution_with<R: Rng + ?Sized>(
        &self,
        opts: &SolverOpts,
        rng: &mut R,
    ) -> QuantumSolution {
        let (na, nb) = (self.n_a(), self.n_b());
        let dim = na + nb; // sufficient by Tsirelson's theorem
        let a = self.bias_matrix();
        let mut u = vec![0.0; na * dim];
        let mut v = vec![0.0; nb * dim];
        let bias = solve_quantum_flat(a.as_slice(), na, nb, opts, rng, &mut u, &mut v);
        QuantumSolution {
            value: (1.0 + bias) / 2.0,
            bias,
            alice_vectors: u.chunks_exact(dim).map(<[f64]>::to_vec).collect(),
            bob_vectors: v.chunks_exact(dim).map(<[f64]>::to_vec).collect(),
        }
    }

    /// Quantum bias by projected-gradient ascent over the elliptope — an
    /// independent second method used to cross-check
    /// [`Self::quantum_solution`] (ablation benchmark `xor_value`), using
    /// [`SolverOpts::max_iters`] iterations.
    ///
    /// The SDP is `max ⟨W, G⟩` over unit-diagonal PSD `G`, with
    /// `W = [[0, A/2], [Aᵀ/2, 0]]`. The objective is linear, so projected
    /// gradient ascent with diminishing steps converges toward the optimum
    /// over the compact convex feasible set.
    pub fn quantum_bias_pgd_with(&self, opts: &SolverOpts) -> f64 {
        let (na, nb) = (self.n_a(), self.n_b());
        let n = na + nb;
        let a_mat = self.bias_matrix();
        let mut w = RMatrix::zeros(n, n);
        for x in 0..na {
            for y in 0..nb {
                w[(x, na + y)] = a_mat[(x, y)] / 2.0;
                w[(na + y, x)] = a_mat[(x, y)] / 2.0;
            }
        }
        let mut g = RMatrix::identity(n);
        let mut best = objective(&w, &g);
        for it in 0..opts.max_iters {
            let step = 4.0 / (1.0 + it as f64).sqrt();
            let stepped = &g + &w.scaled(step);
            g = project_elliptope(&stepped, 4).expect("symmetric by construction");
            best = best.max(objective(&w, &g));
        }
        best
    }

    /// [`Self::quantum_bias_pgd_with`] with an explicit iteration count
    /// (historical signature, kept for the cross-check call sites).
    pub fn quantum_bias_pgd(&self, iterations: usize) -> f64 {
        self.quantum_bias_pgd_with(&SolverOpts {
            max_iters: iterations,
            ..SolverOpts::default()
        })
    }

    /// Quantum value `(1 + β_q)/2` with default solver settings.
    pub fn quantum_value<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantum_solution_with(&SolverOpts::default(), rng)
            .value
    }

    /// True if the quantum value exceeds the classical value by more than
    /// `tol` (use ≥ 1e-4 to stay above solver noise).
    ///
    /// # Errors
    /// [`GameError::TooLarge`] if the classical enumeration is infeasible
    /// (`n_A >` [`ENUM_LIMIT`]).
    pub fn has_quantum_advantage<R: Rng + ?Sized>(
        &self,
        tol: f64,
        rng: &mut R,
    ) -> Result<bool, GameError> {
        Ok(self.quantum_value(rng) > self.classical_value()? + tol)
    }
}

/// Gray-code classical bias over a row-major flat bias matrix. Shared by
/// [`XorGame::classical_bias`] and the canonical-form path of
/// [`crate::cache`], which evaluates the cached value on the canonical
/// matrix so it is a pure function of the canonical key.
pub(crate) fn classical_bias_flat(a: &[f64], na: usize, nb: usize) -> Result<f64, GameError> {
    debug_assert_eq!(a.len(), na * nb);
    if na > ENUM_LIMIT {
        return Err(GameError::TooLarge {
            n_a: na,
            limit: ENUM_LIMIT,
        });
    }
    // Column sums for the all-(+1) pattern.
    let mut s = vec![0.0f64; nb];
    for x in 0..na {
        vecops::axpy(1.0, &a[x * nb..(x + 1) * nb], &mut s);
    }
    let mut best: f64 = s.iter().map(|c| c.abs()).sum();
    // Walk patterns in Gray-code order: gray(k) = k ^ (k >> 1), and
    // gray(k−1) → gray(k) flips exactly bit trailing_zeros(k).
    let mut signs = 0u64; // bit x set ⇔ sign of input x is −1
    for k in 1u64..(1u64 << na) {
        let x = k.trailing_zeros() as usize;
        let old_sign = if signs >> x & 1 == 1 { -1.0 } else { 1.0 };
        signs ^= 1 << x;
        // Flipping input x: s_y ← s_y − 2·old_sign·A[x][y].
        vecops::axpy(-2.0 * old_sign, &a[x * nb..(x + 1) * nb], &mut s);
        let total: f64 = s.iter().map(|c| c.abs()).sum();
        if total > best {
            best = total;
        }
    }
    Ok(best)
}

/// Fixed power-iteration budget for the spectral warm start. AᵀA power
/// iteration converges geometrically in (σ₂/σ₁)²; 40 steps resolve the
/// top singular direction far beyond what the warm start needs (the
/// alternating solver refines from there anyway).
const POWER_ITERS: usize = 40;

/// Deterministic spectral warm start: power-iterate AᵀA for the top
/// right-singular direction `b`, then seed `v_y = b_y·e₀ +
/// √(1−b_y²)·e_{1+y}`. Every `v_y` is a unit vector with a shared
/// component along the dominant direction plus its own orthogonal axis,
/// so the start is spectral-informed *and* full-rank (a pure rank-1 start
/// would trap the alternating iteration in a one-dimensional subspace).
fn spectral_init(a: &[f64], na: usize, nb: usize, dim: usize, v: &mut [f64]) {
    // Deterministic tilted start so a symmetric all-ones vector cannot be
    // exactly orthogonal to the dominant direction.
    let mut b: Vec<f64> = (0..nb)
        .map(|y| 1.0 + (y as f64 + 1.0) / (nb as f64 + 1.0))
        .collect();
    let _ = vecops::normalize(&mut b);
    let mut tmp = vec![0.0; na];
    let mut next = vec![0.0; nb];
    for _ in 0..POWER_ITERS {
        vecops::gemv(a, na, nb, &b, &mut tmp); // tmp = A·b
        vecops::gemv_t(a, na, nb, &tmp, &mut next); // next = Aᵀ·A·b
        if !vecops::normalize(&mut next) {
            break; // b landed in the null space; keep the current direction
        }
        std::mem::swap(&mut b, &mut next);
    }
    v.fill(0.0);
    for (y, &by) in b.iter().enumerate() {
        let c = by.clamp(-1.0, 1.0);
        v[y * dim] = c;
        v[y * dim + 1 + y] = (1.0 - c * c).max(0.0).sqrt();
    }
}

/// Alternating-optimization core over flat SoA buffers.
///
/// `out_u`/`out_v` receive the best strategy found (`na × dim` and
/// `nb × dim`, row-major, `dim = na + nb`); returns its bias. The bias of
/// an iterate is accumulated for free during the `v` half-step: after
/// `acc_y = Σ_x A[x][y]·u_x`, the normalized `v_y` contributes exactly
/// `‖acc_y‖` to the objective.
pub(crate) fn solve_quantum_flat<R: Rng + ?Sized>(
    a: &[f64],
    na: usize,
    nb: usize,
    opts: &SolverOpts,
    rng: &mut R,
    out_u: &mut [f64],
    out_v: &mut [f64],
) -> f64 {
    let dim = na + nb;
    debug_assert_eq!(a.len(), na * nb);
    debug_assert_eq!(out_u.len(), na * dim);
    debug_assert_eq!(out_v.len(), nb * dim);

    // Transposed bias so the v half-step reads its coefficients
    // contiguously.
    let mut at = vec![0.0; na * nb];
    for x in 0..na {
        for y in 0..nb {
            at[y * na + x] = a[x * nb + y];
        }
    }

    let mut u = vec![0.0; na * dim];
    let mut v = vec![0.0; nb * dim];
    let mut acc = vec![0.0; dim];
    let mut best_bias = f64::NEG_INFINITY;

    for restart in 0..opts.restarts.max(1) {
        // Unit placeholder rows: inputs whose bias row/column is all zero
        // never get updated by a half-step and must still be unit vectors.
        u.fill(0.0);
        for x in 0..na {
            u[x * dim] = 1.0;
        }
        if restart == 0 {
            spectral_init(a, na, nb, dim, &mut v);
        } else {
            for y in 0..nb {
                random_unit_into(rng, &mut v[y * dim..(y + 1) * dim]);
            }
        }

        let mut prev = f64::NEG_INFINITY;
        let mut bias = 0.0;
        for iter in 0..opts.max_iters.max(1) {
            // u_x ← normalize(Σ_y A[x][y]·v_y)
            for x in 0..na {
                acc.fill(0.0);
                for (y, &w) in a[x * nb..(x + 1) * nb].iter().enumerate() {
                    vecops::axpy(w, &v[y * dim..(y + 1) * dim], &mut acc);
                }
                if vecops::normalize(&mut acc) {
                    u[x * dim..(x + 1) * dim].copy_from_slice(&acc);
                }
            }
            // v_y ← normalize(Σ_x A[x][y]·u_x); Σ_y ‖acc_y‖ is the bias
            // of (u, v_new).
            bias = 0.0;
            for y in 0..nb {
                acc.fill(0.0);
                for (x, &w) in at[y * na..(y + 1) * na].iter().enumerate() {
                    vecops::axpy(w, &u[x * dim..(x + 1) * dim], &mut acc);
                }
                bias += vecops::norm(&acc);
                if vecops::normalize(&mut acc) {
                    v[y * dim..(y + 1) * dim].copy_from_slice(&acc);
                }
            }
            if iter > 0 && bias - prev <= CONVERGED * bias.abs().max(1.0) {
                break;
            }
            prev = bias;
        }
        if bias > best_bias {
            best_bias = bias;
            out_u.copy_from_slice(&u);
            out_v.copy_from_slice(&v);
        }
    }
    best_bias
}

fn random_unit_into<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    loop {
        // Box-Muller-free approximate Gaussian: sum of uniforms is fine
        // for generating a random direction.
        for o in out.iter_mut() {
            *o = rng.gen::<f64>() - 0.5;
        }
        if vecops::normalize(out) {
            return;
        }
    }
}

fn objective(w: &RMatrix, g: &RMatrix) -> f64 {
    w.frobenius_inner(g).expect("same shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SQRT1_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn chsh_classical_value() {
        let g = XorGame::chsh();
        assert!((g.classical_bias().unwrap() - 0.5).abs() < 1e-12);
        assert!((g.classical_value().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gray_code_matches_naive_on_chsh() {
        let g = XorGame::chsh();
        assert_eq!(
            g.classical_bias().unwrap(),
            g.classical_bias_naive().unwrap()
        );
    }

    #[test]
    fn too_large_game_is_a_typed_error() {
        let n = ENUM_LIMIT + 1;
        let prob = RMatrix::from_fn(n, 2, |_, _| 1.0 / (2 * n) as f64);
        let target = vec![vec![false; 2]; n];
        let g = XorGame::new(prob, target);
        assert_eq!(
            g.classical_bias(),
            Err(GameError::TooLarge {
                n_a: n,
                limit: ENUM_LIMIT
            })
        );
        assert!(g.classical_value().is_err());
    }

    #[test]
    fn chsh_quantum_value_reaches_tsirelson() {
        let mut rng = StdRng::seed_from_u64(1);
        let sol = XorGame::chsh().quantum_solution(8, &mut rng);
        // β_q = 1/√2, value = cos²(π/8)
        assert!((sol.bias - SQRT1_2).abs() < 1e-6, "bias {}", sol.bias);
        assert!(
            (sol.value - crate::chsh_quantum_value()).abs() < 1e-6,
            "value {}",
            sol.value
        );
    }

    #[test]
    fn warm_start_alone_reaches_tsirelson() {
        // The deterministic spectral start must solve CHSH without any
        // random restart (restarts = 1 ⇒ no RNG consumption at all).
        let mut rng = StdRng::seed_from_u64(1);
        let opts = SolverOpts {
            restarts: 1,
            ..SolverOpts::default()
        };
        let before: u64 = {
            let mut probe = StdRng::seed_from_u64(1);
            probe.gen()
        };
        let sol = XorGame::chsh().quantum_solution_with(&opts, &mut rng);
        assert!((sol.bias - SQRT1_2).abs() < 1e-6, "bias {}", sol.bias);
        assert_eq!(
            rng.gen::<u64>(),
            before,
            "warm start must not draw from the RNG"
        );
    }

    #[test]
    fn chsh_pgd_cross_check() {
        let bias = XorGame::chsh().quantum_bias_pgd(300);
        assert!((bias - SQRT1_2).abs() < 1e-3, "pgd bias {bias}");
    }

    #[test]
    fn pgd_with_opts_matches_iteration_signature() {
        let game = XorGame::chsh();
        let a = game.quantum_bias_pgd(200);
        let b = game.quantum_bias_pgd_with(&SolverOpts {
            max_iters: 200,
            ..SolverOpts::default()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn chsh_strategy_vectors_are_unit() {
        let mut rng = StdRng::seed_from_u64(2);
        let sol = XorGame::chsh().quantum_solution(4, &mut rng);
        for v in sol.alice_vectors.iter().chain(&sol.bob_vectors) {
            assert!((vecops::norm(v) - 1.0).abs() < 1e-9);
        }
        // Correlation entries within [-1, 1].
        let c = sol.correlation_matrix();
        for x in 0..2 {
            for y in 0..2 {
                assert!(c[(x, y)].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn chsh_optimal_correlations() {
        // Optimal CHSH correlations: C[x][y] = 1/√2 · (−1)^{x∧y}.
        let mut rng = StdRng::seed_from_u64(3);
        let sol = XorGame::chsh().quantum_solution(8, &mut rng);
        let c = sol.correlation_matrix();
        for x in 0..2 {
            for y in 0..2 {
                let expect = if x == 1 && y == 1 { -SQRT1_2 } else { SQRT1_2 };
                assert!(
                    (c[(x, y)] - expect).abs() < 1e-5,
                    "C[{x}][{y}] = {} expect {expect}",
                    c[(x, y)]
                );
            }
        }
    }

    #[test]
    fn trivial_game_no_advantage() {
        // f ≡ 0 with any distribution: both values are 1 (always agree).
        let prob = RMatrix::from_fn(2, 2, |_, _| 0.25);
        let target = vec![vec![false, false], vec![false, false]];
        let g = XorGame::new(prob, target);
        assert!((g.classical_value().unwrap() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(4);
        assert!((g.quantum_value(&mut rng) - 1.0).abs() < 1e-9);
        assert!(!g.has_quantum_advantage(1e-4, &mut rng).unwrap());
    }

    #[test]
    fn anti_agree_game_no_advantage() {
        // f ≡ 1: always disagree — classically winnable with value 1.
        let prob = RMatrix::from_fn(2, 2, |_, _| 0.25);
        let target = vec![vec![true, true], vec![true, true]];
        let g = XorGame::new(prob, target);
        assert!((g.classical_value().unwrap() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!g.has_quantum_advantage(1e-4, &mut rng).unwrap());
    }

    #[test]
    fn quantum_never_below_classical() {
        // β_q ≥ β_c always (vectors can embed signs). Random games.
        let mut rng = StdRng::seed_from_u64(6);
        for trial in 0..10 {
            let n = 3;
            let mut target = vec![vec![false; n]; n];
            for row in target.iter_mut() {
                for cell in row.iter_mut() {
                    *cell = rng.gen();
                }
            }
            let prob = RMatrix::from_fn(n, n, |_, _| 1.0 / (n * n) as f64);
            let g = XorGame::new(prob, target);
            let qc = g.quantum_value(&mut rng);
            let cc = g.classical_value().unwrap();
            assert!(qc >= cc - 1e-6, "trial {trial}: q={qc} < c={cc}");
        }
    }

    #[test]
    fn pgd_agrees_with_alternating_on_random_games() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let n = 3;
            let mut target = vec![vec![false; n]; n];
            for row in target.iter_mut() {
                for cell in row.iter_mut() {
                    *cell = rng.gen();
                }
            }
            let prob = RMatrix::from_fn(n, n, |_, _| 1.0 / (n * n) as f64);
            let g = XorGame::new(prob, target);
            let alt = g.quantum_solution(8, &mut rng).bias;
            let pgd = g.quantum_bias_pgd(500);
            // PGD is the *cross-check* method: first-order, with an
            // approximate elliptope projection — agreement to ~2% is the
            // designed contract (the alternating solver is the primary).
            assert!((alt - pgd).abs() < 2e-2, "alternating {alt} vs pgd {pgd}");
        }
    }

    #[test]
    fn chained_chsh_known_value() {
        // The "chained" 3-input XOR game: inputs x,y ∈ {0,1,2}, uniform on
        // the 5 pairs (0,0),(0,1),(1,1),(1,2),(2,2)... we use the standard
        // odd-cycle XOR game on 3 inputs: win iff a⊕b = [x=2 ∧ y=0],
        // distribution uniform over pairs with y ∈ {x, x+1 mod 3}.
        // Classical bias = 2/3 (best strategy violates one of 6 clauses...)
        // quantum bias = cos(π/6) ≈ 0.8660.
        let n = 3;
        let mut prob = RMatrix::zeros(n, n);
        let mut target = vec![vec![false; n]; n];
        for x in 0..n {
            prob[(x, x)] = 1.0 / 6.0;
            let y = (x + 1) % n;
            prob[(x, y)] = 1.0 / 6.0;
            // Anti-correlate on the wrap-around edge only.
            target[x][y] = y == 0;
        }
        let g = XorGame::new(prob, target);
        // Odd-cycle XOR game on C_3 ("anti-ferromagnetic frustration"):
        // classically at most 5 of 6 clauses satisfiable → bias 4/6 = 2/3.
        assert!((g.classical_bias().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(8);
        let q = g.quantum_solution(16, &mut rng).bias;
        // Quantum bias = cos(π/6) for the 3-cycle.
        let expect = (std::f64::consts::PI / 6.0).cos();
        assert!((q - expect).abs() < 1e-5, "bias {q} expect {expect}");
    }

    #[test]
    #[should_panic(expected = "probabilities sum")]
    fn bad_distribution_panics() {
        let prob = RMatrix::from_fn(2, 2, |_, _| 0.3);
        XorGame::new(prob, vec![vec![false; 2]; 2]);
    }

    #[test]
    fn game_trait_implementation() {
        // The game interface every caller plays through: input counts,
        // the input distribution π (as |bias|) and the win predicate.
        let g = XorGame::chsh();
        assert_eq!((g.n_a(), g.n_b()), (2, 2));
        assert!((g.bias_matrix()[(1, 1)].abs() - 0.25).abs() < 1e-12);
        assert!(g.wins(1, 1, true, false));
        assert!(!g.wins(1, 1, true, true));
    }

    #[test]
    fn zero_bias_rows_keep_unit_placeholder_vectors() {
        // A game whose first Alice input has zero probability everywhere:
        // its strategy vector is never touched by a half-step and must
        // remain a unit placeholder.
        let prob = RMatrix::from_fn(2, 2, |x, _| if x == 0 { 0.0 } else { 0.5 });
        let target = vec![vec![false, false], vec![false, true]];
        let g = XorGame::new(prob, target);
        let mut rng = StdRng::seed_from_u64(9);
        let sol = g.quantum_solution(2, &mut rng);
        for v in sol.alice_vectors.iter().chain(&sol.bob_vectors) {
            assert!((vecops::norm(v) - 1.0).abs() < 1e-9, "vector {v:?}");
        }
    }
}
