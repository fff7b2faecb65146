//! Acceptance tests for the fallback governor's hysteresis: no flapping
//! inside the dead band, prompt trips on hard outages, recovery only
//! after sustained delivery.

use loadbalance::degrade::{CoordinationMode, Degrading, FallbackGovernor, HysteresisConfig};
use loadbalance::strategy::AssignmentStrategy;
use loadbalance::task::TaskType;
use qnet::{
    ConsumePolicy, DistributorConfig, EprSource, FaultKind, FaultPlan, FaultWindow, FiberLink,
    LinkSide, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn config() -> HysteresisConfig {
    HysteresisConfig::default() // window 8, trip 0.5, recover 0.8, min_dwell 4
}

/// Feeds `rounds` rounds at `rate` (out of 100 polls) and returns the
/// sequence of modes the governor reported.
fn drive(g: &mut FallbackGovernor, rate: f64, rounds: usize) -> Vec<CoordinationMode> {
    (0..rounds)
        .map(|_| g.observe((rate * 100.0).round() as u64, 100))
        .collect()
}

#[test]
fn never_flaps_inside_the_dead_band() {
    let c = config();
    // From the quantum side: any rate in (trip, recover) holds Quantum.
    for rate in [0.51, 0.6, 0.7, 0.79] {
        let mut g = FallbackGovernor::new(c);
        let modes = drive(&mut g, rate, 200);
        assert!(
            modes.iter().all(|&m| m == CoordinationMode::Quantum),
            "rate {rate} flapped out of Quantum"
        );
        assert_eq!(g.transitions(), 0);
    }
    // From the classical side: trip first, then the same band rates must
    // hold ClassicalShared — no bouncing back and forth.
    for rate in [0.51, 0.6, 0.7, 0.79] {
        let mut g = FallbackGovernor::new(c);
        drive(&mut g, 0.1, 50);
        assert_eq!(g.mode(), CoordinationMode::ClassicalShared);
        let tripped = g.transitions();
        let modes = drive(&mut g, rate, 200);
        assert!(
            modes
                .iter()
                .all(|&m| m == CoordinationMode::ClassicalShared),
            "rate {rate} flapped out of ClassicalShared"
        );
        assert_eq!(
            g.transitions(),
            tripped,
            "no further transitions in the band"
        );
    }
}

#[test]
fn trips_within_one_window_of_a_hard_outage() {
    let c = config();
    let mut g = FallbackGovernor::new(c);
    drive(&mut g, 1.0, 100);
    assert_eq!(g.mode(), CoordinationMode::Quantum);
    // Hard outage: zero delivery. The stale full-delivery samples age out
    // of the window after `window` rounds, so the governor must have left
    // Quantum by then (min_dwell < window and dwell is long past).
    let mut left_at = None;
    for round in 1..=c.window {
        if g.observe(0, 100) != CoordinationMode::Quantum {
            left_at = Some(round);
            break;
        }
    }
    let left_at = left_at.expect("governor failed to trip within one window");
    assert!(
        left_at <= c.window,
        "tripped after {left_at} rounds > window {}",
        c.window
    );
}

#[test]
fn recovers_only_after_sustained_delivery() {
    let c = config();
    let mut g = FallbackGovernor::new(c);
    drive(&mut g, 1.0, 20);
    drive(&mut g, 0.0, 20);
    assert_eq!(g.mode(), CoordinationMode::IndependentRandom);

    // A single good round is not sustained delivery: the window still
    // remembers the outage.
    g.observe(100, 100);
    assert_eq!(g.mode(), CoordinationMode::IndependentRandom);

    // Sustained full delivery climbs back to Quantum (via the classical
    // tier), within a few windows plus dwell.
    let budget = 4 * c.window + 2 * c.min_dwell as usize;
    let modes = drive(&mut g, 1.0, budget);
    assert_eq!(*modes.last().unwrap(), CoordinationMode::Quantum);
    // Tiered recovery: classical appears before quantum in the sequence.
    let classical_at = modes
        .iter()
        .position(|&m| m == CoordinationMode::ClassicalShared)
        .expect("recovery passes through ClassicalShared");
    let quantum_at = modes
        .iter()
        .position(|&m| m == CoordinationMode::Quantum)
        .expect("recovery reaches Quantum");
    assert!(classical_at < quantum_at);
}

#[test]
fn degrading_strategy_trips_and_recovers_on_a_real_outage() {
    // End-to-end: the wrapped pipeline strategy under one long both-link
    // outage must leave Quantum during the outage and return after it.
    let timestep = Duration::from_micros(100);
    let mut faults = FaultPlan::none();
    faults.push(FaultWindow {
        start: SimTime::from_micros(3_000),
        end: SimTime::from_micros(9_000),
        kind: FaultKind::LinkOutage(LinkSide::Both),
    });
    let pipeline = DistributorConfig {
        source: EprSource::new(1e5, 1.0),
        link_a: FiberLink::new(0.1),
        link_b: FiberLink::new(0.1),
        qnic_capacity: 16,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(80),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut strat = Degrading::new(8, 4, pipeline, timestep, config(), &mut rng);
    let tasks = vec![TaskType::Colocate(0); 8];
    let lens = vec![0usize; 4];

    let mut saw_degraded = false;
    for _ in 0..200 {
        // 200 rounds × 100 µs: healthy (to 3 ms), outage (3–9 ms),
        // healthy again (to 20 ms).
        strat.assign_all(&tasks, &lens, &mut rng);
        saw_degraded |= strat.governor().mode() != CoordinationMode::Quantum;
    }
    assert!(
        saw_degraded,
        "governor never left Quantum during the outage"
    );
    assert_eq!(
        strat.governor().mode(),
        CoordinationMode::Quantum,
        "governor failed to recover after the outage cleared"
    );
    assert!(strat.governor().transitions() >= 2);
    assert!(strat.coordinated_fraction() < 1.0);
    assert!(
        strat.pipeline().fault_transitions() >= 2,
        "both fault edges replayed"
    );
}
