//! Golden replay digests of the entanglement plane.
//!
//! `EntanglementDistributor::typical()` is driven at the served decision
//! cadence (one `take_werner` every 20 µs of sim time, 50 000 slots = 1 s)
//! under three fault plans. Every slot's outcome — no pair, or both
//! halves' retention bits — plus the final `stats()` and
//! `fault_transitions()` fold into one FNV-1a `u64`. The constants pin
//! the plane's exact output across commits: a refactor of the event
//! plumbing (arrival queue, fault-edge replay, QNIC memory layout) must
//! leave every drawn bit where it was. `determinism.rs` only compares
//! runs of the same build, so it cannot catch such a drift.
//!
//! If a change *means* to alter the plane's draws, update the constants
//! from the failure message and say so in the change's notes.

use qnet::{DistributorConfig, EntanglementDistributor, FaultKind, FaultPlan, LinkSide, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SLOTS: u64 = 50_000;
const PERIOD_NS: u64 = 20_000;
const HORIZON: SimTime = SimTime::from_nanos(SLOTS * PERIOD_NS);
const SEED: u64 = 0x5EED_D16E;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `x`.
fn fold(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Replays one plane and returns its digest plus the final stats (for
/// the sanity checks that the plan really exercised its faults).
fn plane_digest(faults: FaultPlan) -> (u64, qnet::DistributorStats) {
    let mut config = DistributorConfig::typical();
    config.faults = faults;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut d = EntanglementDistributor::new(config, &mut rng);
    let mut h = FNV_OFFSET;
    for seq in 0..SLOTS {
        let now = SimTime::from_nanos((seq + 1) * PERIOD_NS);
        h = match d.take_werner(now) {
            None => fold(h, 0),
            Some(pair) => {
                let (a, b) = pair.retentions();
                fold(fold(fold(h, 1), a.to_bits()), b.to_bits())
            }
        };
    }
    let s = d.stats();
    for x in [
        s.emitted,
        s.lost_in_fiber,
        s.dropped_full,
        s.expired,
        s.consumed,
        s.misses,
        s.lost_outage,
        s.suppressed,
        s.clamp_evicted,
        d.fault_transitions(),
    ] {
        h = fold(h, x);
    }
    (h, s)
}

#[test]
fn fault_free_plane_replays_its_golden_digest() {
    let (digest, stats) = plane_digest(FaultPlan::none());
    assert!(
        stats.consumed > SLOTS / 2,
        "healthy plane must deliver: {stats:?}"
    );
    assert_eq!(
        digest, 0x3a34_3320_593a_7a1f,
        "fault-free plane digest drifted: {digest:#018x}"
    );
}

#[test]
fn periodic_outage_plane_replays_its_golden_digest() {
    // E11b's schedule: an 8 ms both-link outage every 40 ms from 2 ms.
    let plan = FaultPlan::periodic(
        FaultKind::LinkOutage(LinkSide::Both),
        SimTime::from_micros(2_000),
        Duration::from_micros(40_000),
        Duration::from_micros(8_000),
        HORIZON,
    );
    let (digest, stats) = plane_digest(plan);
    assert!(
        stats.lost_outage > 0,
        "outages must absorb pairs: {stats:?}"
    );
    assert_eq!(
        digest, 0x8330_d913_0818_b567,
        "periodic-outage plane digest drifted: {digest:#018x}"
    );
}

#[test]
fn chaos_plane_replays_its_golden_digest() {
    // All four fault kinds, overlapping at random.
    let plan = FaultPlan::chaos(
        0xC4A05,
        HORIZON,
        Duration::from_micros(3_000),
        Duration::from_micros(1_500),
    );
    let (digest, stats) = plane_digest(plan);
    assert!(
        stats.suppressed > 0,
        "brownouts must thin emissions: {stats:?}"
    );
    assert!(stats.clamp_evicted > 0, "clamps must evict: {stats:?}");
    assert!(
        stats.lost_outage > 0,
        "outages must absorb pairs: {stats:?}"
    );
    assert_eq!(
        digest, 0x8185_61f8_9cf6_e5c9,
        "chaos plane digest drifted: {digest:#018x}"
    );
}
