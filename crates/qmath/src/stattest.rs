//! Statistical acceptance-test helpers.
//!
//! Stochastic tests that assert "the win rate is about 0.8536" with a
//! hand-tuned tolerance rot in two ways: the tolerance is either so loose
//! it hides regressions or so tight it flakes when someone changes a
//! sample count. This module makes every stochastic assertion carry its
//! own statistics: an explicit confidence level, the sample size, and an
//! interval derived from them — never a bare magic number.
//!
//! Two interval constructions are offered:
//!
//! - [`wilson_at`]: the Wilson score interval at an arbitrary confidence,
//!   the right default for binomial proportions (well-behaved near 0/1).
//! - [`hoeffding_epsilon`]: a distribution-free bound from Hoeffding's
//!   inequality, `ε = sqrt(ln(2/α) / 2n)` — looser, but valid for any
//!   bounded statistic, and invertible via [`hoeffding_samples`] to plan
//!   a sample budget up front.
//!
//! The [`crate::assert_prob_in!`] macro ties them together: it prints the
//! full accounting (observed, expected, bound, `n`, confidence) before
//! asserting, so `make test-stat` documents the statistical power of the
//! suite as a side effect of running it.

use std::fmt;

/// Two-sided z-value for a given confidence level, via the Acklam
/// rational approximation of the inverse normal CDF (|relative error|
/// < 1.15e-9 — far below statistical noise at any feasible sample size).
///
/// # Panics
/// Panics unless `0 < confidence < 1`.
pub fn z_value(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    // Two-sided: put α/2 in each tail.
    inverse_normal_cdf(0.5 + confidence / 2.0)
}

/// Acklam's inverse normal CDF approximation.
#[allow(clippy::excessive_precision)] // coefficients quoted verbatim from Acklam
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Wilson score interval for `successes / trials` at an arbitrary
/// two-sided confidence level (generalizes [`crate::stats::wilson`],
/// which is pinned at 95%).
///
/// # Panics
/// Panics if `trials == 0`, `successes > trials`, or the confidence is
/// not in `(0, 1)`.
pub fn wilson_at(successes: u64, trials: u64, confidence: f64) -> (f64, f64) {
    assert!(trials > 0, "no trials");
    assert!(successes <= trials, "more successes than trials");
    let z = z_value(confidence);
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Hoeffding deviation bound: with probability ≥ `confidence`, the
/// empirical mean of `n` i.i.d. `[0, 1]`-bounded samples is within the
/// returned `ε` of its expectation (`ε = sqrt(ln(2/(1−conf)) / 2n)`).
///
/// # Panics
/// Panics if `n == 0` or the confidence is not in `(0, 1)`.
pub fn hoeffding_epsilon(n: u64, confidence: f64) -> f64 {
    assert!(n > 0, "no samples");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    ((2.0 / (1.0 - confidence)).ln() / (2.0 * n as f64)).sqrt()
}

/// Minimum sample count for the Hoeffding bound to reach deviation
/// `epsilon` at `confidence` — the planning inverse of
/// [`hoeffding_epsilon`].
///
/// # Panics
/// Panics unless `epsilon > 0` and the confidence is in `(0, 1)`.
pub fn hoeffding_samples(epsilon: f64, confidence: f64) -> u64 {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    ((2.0 / (1.0 - confidence)).ln() / (2.0 * epsilon * epsilon)).ceil() as u64
}

/// The complete accounting of one stochastic acceptance check: what was
/// observed, what was expected, the interval that decides, and the
/// sample size and confidence that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCheck {
    /// Observed proportion.
    pub observed: f64,
    /// Theoretical expectation being tested.
    pub expected: f64,
    /// Interval lower edge.
    pub lo: f64,
    /// Interval upper edge.
    pub hi: f64,
    /// Sample size behind the interval.
    pub n: u64,
    /// Two-sided confidence level of the interval.
    pub confidence: f64,
    /// Whether `expected ∈ [lo, hi]`.
    pub pass: bool,
}

impl BoundCheck {
    /// Wilson-interval check: does `expected` fall inside the Wilson
    /// interval of `successes / trials` at `confidence`?
    ///
    /// # Panics
    /// Propagates the [`wilson_at`] panics on degenerate inputs.
    pub fn wilson(successes: u64, trials: u64, expected: f64, confidence: f64) -> Self {
        let (lo, hi) = wilson_at(successes, trials, confidence);
        BoundCheck {
            observed: successes as f64 / trials as f64,
            expected,
            lo,
            hi,
            n: trials,
            confidence,
            pass: (lo..=hi).contains(&expected),
        }
    }

    /// Hoeffding check: is `|observed − expected| ≤ ε(n, confidence)`?
    /// Distribution-free; use when the statistic is bounded but not a
    /// plain binomial proportion.
    ///
    /// # Panics
    /// Propagates the [`hoeffding_epsilon`] panics on degenerate inputs.
    pub fn hoeffding(observed: f64, n: u64, expected: f64, confidence: f64) -> Self {
        let eps = hoeffding_epsilon(n, confidence);
        BoundCheck {
            observed,
            expected,
            lo: observed - eps,
            hi: observed + eps,
            n,
            confidence,
            pass: (observed - expected).abs() <= eps,
        }
    }
}

impl fmt::Display for BoundCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} observed {:.5} vs expected {:.5} in [{:.5}, {:.5}] (n = {}, confidence = {}%)",
            if self.pass { "PASS" } else { "FAIL" },
            self.observed,
            self.expected,
            self.lo,
            self.hi,
            self.n,
            self.confidence * 100.0,
        )
    }
}

/// Asserts a binomial observation is statistically consistent with a
/// theoretical probability, printing the full sample-size/confidence
/// accounting either way:
///
/// ```
/// # use qmath::assert_prob_in;
/// // 8530 CHSH wins in 10⁴ rounds vs the Tsirelson-bound win rate.
/// assert_prob_in!(8530, 10_000, 0.8536, conf = 0.999);
/// ```
///
/// Panics (like `assert!`) when the expected value falls outside the
/// Wilson interval of the observation at the stated confidence.
#[macro_export]
macro_rules! assert_prob_in {
    ($successes:expr, $trials:expr, $expected:expr, conf = $conf:expr) => {{
        let check = $crate::stattest::BoundCheck::wilson(
            ($successes) as u64,
            ($trials) as u64,
            $expected,
            $conf,
        );
        println!("stattest: {check}");
        assert!(
            check.pass,
            "stochastic acceptance failed: {check} [{}:{}]",
            file!(),
            line!()
        );
        check
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values_match_tables() {
        // Standard normal quantiles to 4 decimal places.
        assert!((z_value(0.95) - 1.9600).abs() < 1e-3, "{}", z_value(0.95));
        assert!((z_value(0.99) - 2.5758).abs() < 1e-3, "{}", z_value(0.99));
        assert!((z_value(0.999) - 3.2905).abs() < 1e-3, "{}", z_value(0.999));
    }

    #[test]
    fn wilson_at_95_matches_fixed_wilson() {
        let p = crate::stats::wilson(850, 1000);
        let (lo, hi) = wilson_at(850, 1000, 0.95);
        assert!((lo - p.lo).abs() < 1e-4, "{lo} vs {}", p.lo);
        assert!((hi - p.hi).abs() < 1e-4, "{hi} vs {}", p.hi);
    }

    #[test]
    fn higher_confidence_widens_the_interval() {
        let (lo95, hi95) = wilson_at(850, 1000, 0.95);
        let (lo999, hi999) = wilson_at(850, 1000, 0.999);
        assert!(lo999 < lo95 && hi95 < hi999);
    }

    #[test]
    fn hoeffding_roundtrip() {
        let conf = 0.999;
        let eps = 0.01;
        let n = hoeffding_samples(eps, conf);
        // The planned n achieves the target ε; one fewer does not.
        assert!(hoeffding_epsilon(n, conf) <= eps);
        assert!(hoeffding_epsilon(n - 1, conf) > eps);
    }

    #[test]
    fn bound_check_pass_and_fail() {
        let ok = BoundCheck::wilson(8536, 10_000, 0.8536, 0.999);
        assert!(ok.pass);
        let bad = BoundCheck::wilson(7500, 10_000, 0.8536, 0.999);
        assert!(!bad.pass);
        let s = bad.to_string();
        assert!(
            s.contains("FAIL") && s.contains("n = 10000") && s.contains("99.9%"),
            "{s}"
        );
    }

    #[test]
    fn hoeffding_check_is_distribution_free_width() {
        let c = BoundCheck::hoeffding(0.85, 10_000, 0.8536, 0.999);
        assert!(c.pass);
        assert!((c.hi - c.lo) / 2.0 - hoeffding_epsilon(10_000, 0.999) < 1e-12);
    }

    #[test]
    fn macro_passes_and_returns_the_check() {
        let check = assert_prob_in!(8536, 10_000, 0.8536, conf = 0.999);
        assert_eq!(check.n, 10_000);
    }

    #[test]
    #[should_panic(expected = "stochastic acceptance failed")]
    fn macro_fails_loudly() {
        assert_prob_in!(7500, 10_000, 0.8536, conf = 0.999);
    }
}
