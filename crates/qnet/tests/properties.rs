//! Property-based invariants of the networking substrate.

use proptest::prelude::*;
use qnet::{
    ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource, FiberLink, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fiber survival probability is monotone decreasing in length and
    /// always within (0, 1].
    #[test]
    fn fiber_loss_monotone(l1 in 0.0f64..100.0, l2 in 0.0f64..100.0) {
        let (short, long) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let ps = FiberLink::new(short).survival_probability();
        let pl = FiberLink::new(long).survival_probability();
        prop_assert!(ps >= pl);
        prop_assert!(pl > 0.0 && ps <= 1.0);
    }

    /// Distributor bookkeeping balances: every emitted pair is accounted
    /// for, and availability stays in [0, 1].
    #[test]
    fn distributor_accounting(
        rate_exp in 4.0f64..6.0,
        km in 0.0f64..20.0,
        capacity in 1usize..32,
        n_takes in 1usize..40,
        seed in 0u64..512)
    {
        let config = DistributorConfig {
            source: EprSource::new(10f64.powf(rate_exp), 0.95),
            link_a: FiberLink::new(km),
            link_b: FiberLink::new(km),
            qnic_capacity: capacity,
            memory_lifetime: Duration::from_micros(100),
            max_age: Duration::from_micros(120),
            consume_policy: ConsumePolicy::FreshestFirst,
            faults: qnet::FaultPlan::none(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = EntanglementDistributor::new(config, &mut rng);
        let mut now = SimTime::ZERO;
        for _ in 0..n_takes {
            now += Duration::from_micros(15);
            let _ = d.take_pair(now);
        }
        let s = d.stats();
        prop_assert!(s.lost_in_fiber <= s.emitted);
        prop_assert_eq!(s.consumed + s.misses, n_takes as u64);
        let a = s.availability();
        prop_assert!((0.0..=1.0).contains(&a));
        // Delivered pairs can't exceed emissions.
        prop_assert!(s.consumed <= s.emitted);
    }

    /// Consumed pairs are always valid, usable quantum states.
    #[test]
    fn consumed_pairs_are_usable(seed in 0u64..128) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = EntanglementDistributor::new(DistributorConfig::typical(), &mut rng);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += Duration::from_micros(50);
            if let Some(mut pair) = d.take_pair(now) {
                // Both halves measurable exactly once.
                let a = pair.measure_angle(qsim::Party::A, 0.3, &mut rng);
                let b = pair.measure_angle(qsim::Party::B, 1.1, &mut rng);
                prop_assert!(a.is_ok() && b.is_ok());
                prop_assert!(pair.measure_angle(qsim::Party::A, 0.0, &mut rng).is_err());
            }
        }
    }
}
