//! The entanglement plane's obs counters agree with its own stats.
//!
//! The plane reports each event twice: in `DistributorStats` (per
//! distributor) and in the process-global `qnet.*` counters that the
//! artifacts' `obs` sections and `pairs_per_sec` read. This test enables
//! collection, replays the typical, an asymmetric-fiber and a chaos plane
//! at the served decision cadence, and requires every counter to equal
//! the stats summed over the three. Counters are process-global, so this
//! one test owns its binary.
//!
//! `qnet.des.events` (pair arrivals plus fault edges) and the
//! `qnet.qnic.occupancy` high-water mark have no stats twin; their
//! values are pinned instead.

use qnet::SimTime;
use qnet::{DistributorConfig, DistributorStats, EntanglementDistributor, FaultPlan, FiberLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SLOTS: u64 = 50_000;
const PERIOD_NS: u64 = 20_000;

/// Replays `config` and returns its stats and fault edges.
fn replay(config: DistributorConfig, seed: u64) -> (DistributorStats, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = EntanglementDistributor::new(config, &mut rng);
    for seq in 0..SLOTS {
        d.take_werner(SimTime::from_nanos((seq + 1) * PERIOD_NS));
    }
    (d.stats(), d.fault_transitions())
}

#[test]
fn plane_counters_equal_the_summed_stats() {
    obs::set_enabled(true);
    obs::reset();
    let asymmetric = DistributorConfig {
        link_a: FiberLink::new(0.0),
        link_b: FiberLink::new(10.0),
        ..DistributorConfig::typical()
    };
    let chaos = DistributorConfig {
        faults: FaultPlan::chaos(
            0xC4A05,
            SimTime::from_nanos(SLOTS * PERIOD_NS),
            Duration::from_micros(3_000),
            Duration::from_micros(1_500),
        ),
        ..DistributorConfig::typical()
    };
    let mut sum = DistributorStats::default();
    let mut edges = 0;
    for (seed, config) in [
        (1, DistributorConfig::typical()),
        (2, asymmetric),
        (3, chaos),
    ] {
        let (s, transitions) = replay(config, seed);
        sum.emitted += s.emitted;
        sum.lost_in_fiber += s.lost_in_fiber;
        sum.dropped_full += s.dropped_full;
        sum.expired += s.expired;
        sum.consumed += s.consumed;
        sum.misses += s.misses;
        sum.lost_outage += s.lost_outage;
        sum.suppressed += s.suppressed;
        sum.clamp_evicted += s.clamp_evicted;
        edges += transitions;
    }
    let snap = obs::snapshot();
    obs::set_enabled(false);
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    for (name, stat) in [
        ("qnet.epr.emitted", sum.emitted),
        ("qnet.epr.lost_fiber", sum.lost_in_fiber),
        ("qnet.epr.consumed", sum.consumed),
        ("qnet.epr.misses", sum.misses),
        ("qnet.epr.lost_outage", sum.lost_outage),
        ("qnet.epr.brownout_suppressed", sum.suppressed),
        ("qnet.qnic.expired", sum.expired),
        ("qnet.qnic.overwrite_drops", sum.dropped_full),
        ("qnet.qnic.clamp_evicted", sum.clamp_evicted),
        ("qnet.faults.transitions", edges),
    ] {
        assert_eq!(counter(name), stat, "{name} disagrees with the stats");
    }
    for stat in [
        sum.suppressed,
        sum.clamp_evicted,
        sum.lost_outage,
        sum.dropped_full,
    ] {
        assert!(stat > 0, "every counter must be exercised: {sum:?}");
    }
    let hist_count = |name: &str| snap.hist(name).map_or(0, |h| h.count);
    assert_eq!(hist_count("qnet.pair.delivery_latency_ns"), sum.consumed);
    assert_eq!(hist_count("qnet.pair.dwell_ns"), 2 * sum.consumed);
    assert_eq!(
        counter("qnet.des.events"),
        203_264,
        "qnet.des.events drifted"
    );
    let occupancy = snap.gauge("qnet.qnic.occupancy").map(|g| g.high_water);
    assert_eq!(occupancy, Some(16), "occupancy high-water mark drifted");
}
