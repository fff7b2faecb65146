//! Optical fiber links.
//!
//! Photon survival follows the standard attenuation law
//! `P = 10^(−αL/10)` with α ≈ 0.2 dB/km for telecom fiber; propagation is
//! at ~2/3 the vacuum speed of light. These are the figures behind the
//! paper's "single fiber-optic cable" distribution channel (§3).

use std::time::Duration;

/// Speed of light in fiber, m/s (refractive index ≈ 1.468).
pub const FIBER_LIGHT_SPEED_M_PER_S: f64 = 2.04e8;

/// Standard telecom-fiber attenuation, dB/km at 1550 nm.
pub const STANDARD_ATTENUATION_DB_PER_KM: f64 = 0.2;

/// A point-to-point fiber link.
#[derive(Debug, Clone, Copy)]
pub struct FiberLink {
    length_km: f64,
    attenuation_db_per_km: f64,
}

impl FiberLink {
    /// A link of the given length with standard 0.2 dB/km attenuation.
    ///
    /// # Panics
    /// Panics on negative length.
    pub fn new(length_km: f64) -> Self {
        Self::with_attenuation(length_km, STANDARD_ATTENUATION_DB_PER_KM)
    }

    /// A link with explicit attenuation.
    ///
    /// # Panics
    /// Panics on negative length or attenuation.
    pub fn with_attenuation(length_km: f64, attenuation_db_per_km: f64) -> Self {
        assert!(length_km >= 0.0, "negative length");
        assert!(attenuation_db_per_km >= 0.0, "negative attenuation");
        FiberLink {
            length_km,
            attenuation_db_per_km,
        }
    }

    /// Link length in km.
    pub fn length_km(&self) -> f64 {
        self.length_km
    }

    /// Probability a photon survives the link.
    pub fn survival_probability(&self) -> f64 {
        10f64.powf(-self.attenuation_db_per_km * self.length_km / 10.0)
    }

    /// One-way propagation delay.
    pub fn propagation_delay(&self) -> Duration {
        Duration::from_secs_f64(self.length_km * 1000.0 / FIBER_LIGHT_SPEED_M_PER_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_is_lossless_and_instant() {
        let l = FiberLink::new(0.0);
        assert_eq!(l.survival_probability(), 1.0);
        assert_eq!(l.propagation_delay(), Duration::ZERO);
    }

    #[test]
    fn fifty_km_standard_loss() {
        // 50 km × 0.2 dB/km = 10 dB → 10% survival.
        let l = FiberLink::new(50.0);
        assert!((l.survival_probability() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn propagation_delay_datacenter_scale() {
        // 1 km of fiber ≈ 4.9 µs one-way.
        let l = FiberLink::new(1.0);
        let d = l.propagation_delay();
        assert!(
            d > Duration::from_micros(4) && d < Duration::from_micros(6),
            "{d:?}"
        );
    }

    #[test]
    #[should_panic(expected = "negative length")]
    fn negative_length_panics() {
        FiberLink::new(-1.0);
    }
}
