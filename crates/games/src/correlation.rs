//! Quantum correlation boxes: sampling correlated outputs directly from a
//! correlation matrix.
//!
//! For XOR games, the optimal quantum strategy is characterized by unit
//! vectors whose inner products form a correlation matrix `C[x][y] ∈ [−1,1]`
//! (Tsirelson). The realized joint distribution with *uniform marginals* is
//!
//! ```text
//! p(a, b | x, y) = (1 + (−1)^{a⊕b} · C[x][y]) / 4
//! ```
//!
//! Sampling from this closed form is statistically identical to simulating
//! the entangled measurement but ~50× cheaper (benchmark `chsh`), which
//! matters for the large load-balancing sweeps. Every matrix that is the
//! Gram cross-block of unit vectors is quantum-realizable, so this is not a
//! super-quantum "PR box" shortcut — [`CorrelationBox::new`] enforces
//! `|C| ≤ 1` and callers obtain `C` from [`crate::xor::QuantumSolution`].

use qmath::RMatrix;
use qsim::werner::CorrelatedBits;
use rand::Rng;

/// A two-party correlation box with uniform marginals.
///
/// Construction builds one [`CorrelatedBits`] sampler per input pair
/// `(x, y)` — the sweep inner loops (Fig 4, E8) call
/// [`CorrelationBox::sample`] millions of times, and each call is then a
/// single uniform draw plus three comparisons.
#[derive(Debug, Clone)]
pub struct CorrelationBox {
    c: RMatrix,
    /// Row-major per-`(x, y)` samplers.
    bits: Vec<CorrelatedBits>,
}

impl CorrelationBox {
    /// Builds a box from a correlation matrix.
    ///
    /// # Panics
    /// Panics if any entry falls outside `[−1, 1]` (allowing `1e-9` slack
    /// for solver round-off, which is clamped).
    pub fn new(mut c: RMatrix) -> Self {
        let (rows, cols) = (c.rows(), c.cols());
        let mut bits = Vec::with_capacity(rows * cols);
        for x in 0..rows {
            for y in 0..cols {
                let v = c[(x, y)];
                assert!(v.abs() <= 1.0 + 1e-9, "correlation {v} out of range");
                let v = v.clamp(-1.0, 1.0);
                c[(x, y)] = v;
                bits.push(CorrelatedBits::new(v));
            }
        }
        CorrelationBox { c, bits }
    }

    #[inline]
    fn table_index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.c.rows() && y < self.c.cols());
        x * self.c.cols() + y
    }

    /// The optimal CHSH correlation box: `C[x][y] = (−1)^{x∧y}/√2`.
    pub fn chsh_optimal() -> Self {
        let f = std::f64::consts::FRAC_1_SQRT_2;
        CorrelationBox::new(RMatrix::from_fn(2, 2, |x, y| {
            if x == 1 && y == 1 {
                -f
            } else {
                f
            }
        }))
    }

    /// The flipped-CHSH box of the load-balancing protocol (§4.1) on
    /// pairs of visibility `v`: `C[x][y] = +v/√2` when both tasks are
    /// type-C (`x = y = 1`: agree, co-locate), `−v/√2` otherwise.
    pub fn flipped_chsh(visibility: f64) -> Self {
        let f = visibility * std::f64::consts::FRAC_1_SQRT_2;
        CorrelationBox::new(RMatrix::from_fn(2, 2, |x, y| {
            if x == 1 && y == 1 {
                f
            } else {
                -f
            }
        }))
    }

    /// The correlation value `C[x][y] = E[(−1)^{a⊕b} | x, y]`.
    pub fn correlation(&self, x: usize, y: usize) -> f64 {
        self.c[(x, y)]
    }

    /// Number of Alice inputs.
    pub fn n_a(&self) -> usize {
        self.c.rows()
    }

    /// Number of Bob inputs.
    pub fn n_b(&self) -> usize {
        self.c.cols()
    }

    /// Samples one round: returns `(a, b)` from `p(a,b|x,y)` with uniform
    /// marginals — one draw from the `(x, y)` sampler.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, x: usize, y: usize, rng: &mut R) -> (bool, bool) {
        self.bits[self.table_index(x, y)].sample(rng)
    }

    /// Probability of `(a, b)` given `(x, y)`: `(1 ± C[x][y])/4`, `+`
    /// when the bits agree.
    #[inline]
    pub fn probability(&self, x: usize, y: usize, a: bool, b: bool) -> f64 {
        let c = self.c[(x, y)];
        if a == b {
            (1.0 + c) / 4.0
        } else {
            (1.0 - c) / 4.0
        }
    }

    /// The CHSH operator value
    /// `S = C[0][0] + C[0][1] + C[1][0] − C[1][1]` (for 2×2 boxes).
    ///
    /// # Panics
    /// Panics for non-2×2 boxes.
    pub fn chsh_operator(&self) -> f64 {
        assert_eq!((self.c.rows(), self.c.cols()), (2, 2), "CHSH needs 2x2");
        self.c[(0, 0)] + self.c[(0, 1)] + self.c[(1, 0)] - self.c[(1, 1)]
    }

    /// True if the box satisfies Tsirelson's bound `|S| ≤ 2√2` (all
    /// quantum-realizable 2×2 boxes do; a PR box would violate it).
    pub fn satisfies_tsirelson(&self) -> bool {
        self.chsh_operator().abs() <= 2.0 * std::f64::consts::SQRT_2 + 1e-9
    }

    /// Empirically verifies no-signaling: Alice's marginal distribution of
    /// `a` is independent of `y` (and symmetrically for Bob). Returns the
    /// worst absolute marginal deviation from 1/2 over all inputs — exactly
    /// 0 in theory; bounded by Monte-Carlo error in `samples` draws.
    pub fn no_signaling_deviation<R: Rng + ?Sized>(&self, samples: usize, rng: &mut R) -> f64 {
        let mut worst: f64 = 0.0;
        for x in 0..self.n_a() {
            for y in 0..self.n_b() {
                let mut a_ones = 0usize;
                let mut b_ones = 0usize;
                for _ in 0..samples {
                    let (a, b) = self.sample(x, y, rng);
                    a_ones += usize::from(a);
                    b_ones += usize::from(b);
                }
                worst = worst
                    .max((a_ones as f64 / samples as f64 - 0.5).abs())
                    .max((b_ones as f64 / samples as f64 - 0.5).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let boxx = CorrelationBox::chsh_optimal();
        for x in 0..2 {
            for y in 0..2 {
                let total: f64 = [(false, false), (false, true), (true, false), (true, true)]
                    .iter()
                    .map(|&(a, b)| boxx.probability(x, y, a, b))
                    .sum();
                assert!((total - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sample_statistics_match_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let boxx = CorrelationBox::chsh_optimal();
        let trials = 50_000;
        for x in 0..2 {
            for y in 0..2 {
                let mut agree = 0usize;
                for _ in 0..trials {
                    let (a, b) = boxx.sample(x, y, &mut rng);
                    agree += usize::from(a == b);
                }
                let f = agree as f64 / trials as f64;
                let expect = (1.0 + boxx.correlation(x, y)) / 2.0;
                assert!((f - expect).abs() < 0.01, "({x},{y}): {f} vs {expect}");
            }
        }
    }

    #[test]
    fn cached_tables_match_closed_form() {
        // Cell probabilities must agree with the (1 ± c)/4 closed form.
        let boxx = CorrelationBox::new(RMatrix::from_fn(3, 2, |x, y| {
            (0.9 - 0.35 * x as f64) * if y == 0 { 1.0 } else { -1.0 }
        }));
        for x in 0..3 {
            for y in 0..2 {
                let c = boxx.correlation(x, y);
                for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                    let sign = if a == b { 1.0 } else { -1.0 };
                    let closed = (1.0 + sign * c) / 4.0;
                    assert!(
                        (boxx.probability(x, y, a, b) - closed).abs() < 1e-15,
                        "({x},{y},{a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn flipped_chsh_stream_equals_the_integer_threshold_walk() {
        // The box's sampler before it moved onto `CorrelatedBits`: the
        // CDF scaled by 2⁵³ and rounded up, compared against the raw
        // 53-bit draw. 4 visibilities × 250k draws over all four inputs.
        let scale = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        for v in [1.0, 0.95, 0.8, 0.5] {
            let boxx = CorrelationBox::flipped_chsh(v);
            let thresholds: Vec<[u64; 3]> = (0..4)
                .map(|k| {
                    let f = v * std::f64::consts::FRAC_1_SQRT_2;
                    let c = if k == 3 { f } else { -f };
                    let (agree, differ) = ((1.0 + c) / 4.0, (1.0 - c) / 4.0);
                    [
                        scale(agree),
                        scale(agree + differ),
                        scale(agree + 2.0 * differ),
                    ]
                })
                .collect();
            let mut rng = runtime::SplitMix64::new(v.to_bits());
            let mut oracle_rng = rng;
            for draw in 0..250_000usize {
                let (x, y) = ((draw >> 1) & 1, draw & 1);
                let t = thresholds[(x << 1) | y];
                let h = oracle_rng.next_u64() >> 11;
                let k = u8::from(h >= t[0]) + u8::from(h >= t[1]) + u8::from(h >= t[2]);
                let want = (k >= 2, k & 1 != 0);
                assert_eq!(boxx.sample(x, y, &mut rng), want, "v {v} draw {draw}");
            }
        }
    }

    #[test]
    fn sample_joint_frequencies_match_tables() {
        // The single-draw sampler must realize the joint distribution,
        // not merely the agreement rate.
        let mut rng = StdRng::seed_from_u64(6);
        let boxx = CorrelationBox::chsh_optimal();
        let trials = 80_000;
        for x in 0..2 {
            for y in 0..2 {
                let mut counts = [0usize; 4];
                for _ in 0..trials {
                    let (a, b) = boxx.sample(x, y, &mut rng);
                    counts[(usize::from(a) << 1) | usize::from(b)] += 1;
                }
                for (k, &n) in counts.iter().enumerate() {
                    let (a, b) = (k & 0b10 != 0, k & 0b01 != 0);
                    let expect = boxx.probability(x, y, a, b);
                    let freq = n as f64 / trials as f64;
                    assert!(
                        (freq - expect).abs() < 0.01,
                        "({x},{y}) outcome {k}: {freq} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn chsh_operator_at_tsirelson_bound() {
        let boxx = CorrelationBox::chsh_optimal();
        assert!((boxx.chsh_operator() - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(boxx.satisfies_tsirelson());
    }

    #[test]
    fn pr_box_would_violate_tsirelson() {
        // The (non-quantum) PR box has C = [[1,1],[1,-1]], S = 4.
        let pr = CorrelationBox::new(RMatrix::from_fn(2, 2, |x, y| {
            if x == 1 && y == 1 {
                -1.0
            } else {
                1.0
            }
        }));
        assert!(!pr.satisfies_tsirelson());
    }

    #[test]
    fn no_signaling_holds() {
        let mut rng = StdRng::seed_from_u64(2);
        let boxx = CorrelationBox::chsh_optimal();
        let dev = boxx.no_signaling_deviation(20_000, &mut rng);
        assert!(dev < 0.02, "marginal deviation {dev}");
    }

    #[test]
    fn chsh_win_rate_from_box() {
        // Playing CHSH by sampling the optimal box achieves cos²(π/8).
        let mut rng = StdRng::seed_from_u64(3);
        let boxx = CorrelationBox::chsh_optimal();
        let trials = 100_000;
        let mut wins = 0usize;
        for i in 0..trials {
            let (x, y) = ((i / 2) % 2, i % 2);
            let (a, b) = boxx.sample(x, y, &mut rng);
            let target = x == 1 && y == 1;
            wins += usize::from((a ^ b) == target);
        }
        let rate = wins as f64 / trials as f64;
        assert!(
            (rate - crate::chsh_quantum_value()).abs() < 0.01,
            "rate {rate}"
        );
    }

    #[test]
    fn box_from_solver_solution_is_valid() {
        let mut rng = StdRng::seed_from_u64(4);
        let sol = crate::xor::XorGame::chsh().quantum_solution(8, &mut rng);
        let boxx = CorrelationBox::new(sol.correlation_matrix());
        assert!(boxx.satisfies_tsirelson());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_correlation_panics() {
        CorrelationBox::new(RMatrix::from_fn(1, 1, |_, _| 1.5));
    }

    #[test]
    fn perfect_correlation_and_anticorrelation() {
        let mut rng = StdRng::seed_from_u64(5);
        let boxx = CorrelationBox::new(RMatrix::from_fn(
            1,
            2,
            |_, y| {
                if y == 0 {
                    1.0
                } else {
                    -1.0
                }
            },
        ));
        for _ in 0..100 {
            let (a, b) = boxx.sample(0, 0, &mut rng);
            assert_eq!(a, b);
            let (a, b) = boxx.sample(0, 1, &mut rng);
            assert_ne!(a, b);
        }
    }
}
