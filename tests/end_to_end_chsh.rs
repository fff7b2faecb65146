//! End-to-end: the full hardware pipeline playing CHSH.
//!
//! Exercises qnet (SPDC source → fiber → QNIC memory) feeding games
//! (CHSH referee) — the complete Figure 1 + Figure 2 story: pairs are
//! distributed ahead of demand, decisions are made at input arrival, and
//! the empirical win rate beats the classical ceiling when the hardware
//! is good enough.

use qnlg::games::chsh::{alice_angle, bob_angle};
use qnlg::games::XorGame;
use qnlg::qnet::{
    ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource, FiberLink, SimTime,
};
use qnlg::qsim::Party;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Plays CHSH rounds with pairs pulled from a simulated distribution
/// pipeline; returns (win rate, pair availability).
fn pipeline_chsh(config: DistributorConfig, rounds: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dist = EntanglementDistributor::new(config, &mut rng);
    let game = XorGame::chsh();
    let mut now = SimTime::ZERO;
    let mut wins = 0usize;
    let mut played = 0usize;
    for _ in 0..rounds {
        now += Duration::from_micros(20); // 50k decisions/s
        let (x, y) = game.sample_inputs(&mut rng);
        let Some(mut pair) = dist.take_pair(now) else {
            continue; // no pair buffered: round skipped (tracked as miss)
        };
        let a = pair
            .measure_angle(Party::A, alice_angle(x), &mut rng)
            .expect("fresh pair");
        let b = pair
            .measure_angle(Party::B, bob_angle(y), &mut rng)
            .expect("fresh pair");
        played += 1;
        wins += usize::from(game.wins(x, y, a == 1, b == 1));
    }
    assert!(
        played > 100,
        "too few rounds played for statistics: {played}/{rounds}"
    );
    (wins as f64 / played as f64, dist.stats().availability())
}

#[test]
fn good_hardware_beats_classical_ceiling() {
    let config = DistributorConfig {
        source: EprSource::new(1e6, 0.98),
        link_a: FiberLink::new(0.5),
        link_b: FiberLink::new(0.5),
        qnic_capacity: 8,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(50),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: qnet::FaultPlan::none(),
    };
    let (rate, availability) = pipeline_chsh(config, 8_000, 1);
    assert!(availability > 0.9, "availability {availability}");
    assert!(
        rate > 0.78,
        "win rate {rate} should clearly beat the classical 0.75"
    );
}

#[test]
fn poor_visibility_hardware_loses_the_advantage() {
    // Source visibility 0.6 < 1/√2: quantum pairs are worse than the
    // classical strategy — the §3 error-margin caveat end-to-end.
    let config = DistributorConfig {
        source: EprSource::new(1e6, 0.6),
        link_a: FiberLink::new(0.5),
        link_b: FiberLink::new(0.5),
        qnic_capacity: 8,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(50),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: qnet::FaultPlan::none(),
    };
    let (rate, _) = pipeline_chsh(config, 8_000, 2);
    assert!(rate < 0.75, "win rate {rate} must fall below classical");
}

#[test]
fn long_storage_degrades_win_rate() {
    // Allowing pairs to age to ~2τ before use: storage dephasing eats
    // the advantage even with a perfect source.
    let fresh = DistributorConfig {
        source: EprSource::new(1e6, 1.0),
        link_a: FiberLink::new(0.0),
        link_b: FiberLink::new(0.0),
        qnic_capacity: 4, // small buffer: pairs consumed fresh
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(30),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: qnet::FaultPlan::none(),
    };
    let stale = DistributorConfig {
        qnic_capacity: 512, // deep buffer: FIFO consumption of old pairs
        max_age: Duration::from_micros(400),
        consume_policy: ConsumePolicy::OldestFirst,
        ..fresh.clone()
    };
    let (fresh_rate, _) = pipeline_chsh(fresh, 6_000, 3);
    let (stale_rate, _) = pipeline_chsh(stale, 6_000, 4);
    assert!(
        fresh_rate > stale_rate + 0.02,
        "fresh {fresh_rate} should beat stale {stale_rate}"
    );
}

#[test]
fn lossy_fiber_reduces_availability_not_correctness() {
    // 50 km links: 1% of pairs survive (10% per half), so delivery
    // (~2k pairs/s) cannot keep up with 50k decisions/s — availability
    // drops, but the pairs that do survive play optimally.
    let config = DistributorConfig {
        source: EprSource::new(2e5, 1.0),
        link_a: FiberLink::new(50.0),
        link_b: FiberLink::new(50.0),
        qnic_capacity: 16,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(60),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: qnet::FaultPlan::none(),
    };
    let (rate, availability) = pipeline_chsh(config, 20_000, 5);
    assert!(availability < 1.0);
    assert!(rate > 0.8, "surviving pairs play optimally: {rate}");
}
