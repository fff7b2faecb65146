//! Statistical acceptance test for the fiber-loss model the plane runs.
//!
//! The distributor makes one combined survival draw per pair, either
//! through the batched survivor process (no emission-affecting fault) or
//! per emission (while a fault shapes the stream). Both must deliver
//! pairs at exactly `survival_probability()` = 10^(−0.2·L/10). Each
//! assertion states its sample size and confidence through
//! `qmath::assert_prob_in!` — run `make test-stat` to see the accounting
//! printed.

use qmath::assert_prob_in;
use qnet::{
    ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource, FaultKind, FaultPlan,
    FaultWindow, FiberLink, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// 99.9% Wilson intervals over ~50 000 emissions (~25 000 under the
/// brownout): half-width ≈ ±0.004 at p = 0.1 — tight enough to catch a
/// dB/km or sign slip (0 km: p = 1; 25 km: p ≈ 0.316; 50 km: p = 0.1).
const CONF: f64 = 0.999;
const HORIZON: SimTime = SimTime::from_micros(50_000);

/// Runs the plane for 50 ms at 10⁶ pairs/s with link A at `km` and link
/// B at 0 km; returns (emitted, survived the fibers).
fn survival(km: f64, faults: FaultPlan, seed: u64) -> (u64, u64) {
    let config = DistributorConfig {
        source: EprSource::new(1e6, 1.0),
        link_a: FiberLink::new(km),
        link_b: FiberLink::new(0.0),
        qnic_capacity: 16,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(160),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = EntanglementDistributor::new(config, &mut rng);
    d.advance_to(HORIZON);
    let s = d.stats();
    (s.emitted, s.emitted - s.lost_in_fiber)
}

#[test]
fn plane_survival_matches_survival_probability_at_paper_lengths() {
    // A brownout over the whole run holds the plane on its per-emission
    // path; with no fault it runs the batched survivor process.
    let mut brownout = FaultPlan::none();
    brownout.push(FaultWindow {
        start: SimTime::ZERO,
        end: HORIZON + Duration::from_millis(1),
        kind: FaultKind::SourceBrownout { rate_factor: 0.5 },
    });
    let arms = [FaultPlan::none(), brownout];
    for (lane, km) in [0.0f64, 25.0, 50.0].into_iter().enumerate() {
        let p = FiberLink::new(km).survival_probability();
        for (arm, faults) in arms.iter().enumerate() {
            let seed = 400 + 2 * lane as u64 + arm as u64;
            let (emitted, survived) = survival(km, faults.clone(), seed);
            assert_prob_in!(survived, emitted, p, conf = CONF);
        }
    }
}
