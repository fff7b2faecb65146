//! Golden replay digests of the entanglement plane.
//!
//! An `EntanglementDistributor` is driven at the served decision cadence
//! (one `take_werner` every 20 µs of sim time, 50 000 slots = 1 s):
//! `DistributorConfig::typical()` under three fault plans, and six shapes
//! that `typical()` never reaches (asymmetric fibers, a small memory,
//! oldest-first consumption, lossy and lossless links, and an asymmetric
//! plane under chaos). Every slot's outcome — no pair, or both
//! halves' retention bits — plus the final `stats()` and
//! `fault_transitions()` fold into one FNV-1a `u64`. The constants pin
//! the plane's exact output across commits: a refactor of the event
//! plumbing (arrival queue, fault-edge replay, QNIC memory layout) must
//! leave every drawn bit where it was. `determinism.rs` only compares
//! runs of the same build, so it cannot catch such a drift.
//!
//! If a change *means* to alter the plane's draws, update the constants
//! from the failure message and say so in the change's notes.

use qnet::{
    ConsumePolicy, DistributorConfig, DistributorStats, EntanglementDistributor, FaultKind,
    FaultPlan, FiberLink, LinkSide, SimTime,
};
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

/// One replayed plane: its digest, its final stats, and how many
/// delivered pairs carried two different retentions.
struct Replay {
    digest: u64,
    stats: DistributorStats,
    split_retentions: u64,
}

/// Replays the plane `config` builds.
fn replay(config: DistributorConfig) -> Replay {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut d = EntanglementDistributor::new(config, &mut rng);
    let mut h = FNV_OFFSET;
    let mut split_retentions = 0;
    for seq in 0..SLOTS {
        let now = SimTime::from_nanos((seq + 1) * PERIOD_NS);
        h = match d.take_werner(now) {
            None => fold(h, 0),
            Some(pair) => {
                let (a, b) = pair.retentions();
                split_retentions += u64::from(a != b);
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
    Replay {
        digest: h,
        stats: s,
        split_retentions,
    }
}

/// Replays `typical()` under `faults`; returns its digest plus the final
/// stats (for the sanity checks that the plan really exercised its
/// faults).
fn plane_digest(faults: FaultPlan) -> (u64, DistributorStats) {
    let mut config = DistributorConfig::typical();
    config.faults = faults;
    let r = replay(config);
    (r.digest, r.stats)
}

/// `typical()` with fibers of `km_a` and `km_b` to the two endpoints.
fn fibers(km_a: f64, km_b: f64) -> DistributorConfig {
    DistributorConfig {
        link_a: FiberLink::new(km_a),
        link_b: FiberLink::new(km_b),
        ..DistributorConfig::typical()
    }
}

/// The chaos plan of [`chaos_plane_replays_its_golden_digest`]: all four
/// fault kinds, overlapping at random.
fn chaos_plan() -> FaultPlan {
    FaultPlan::chaos(
        0xC4A05,
        HORIZON,
        Duration::from_micros(3_000),
        Duration::from_micros(1_500),
    )
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
    let (digest, stats) = plane_digest(chaos_plan());
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

#[test]
fn asymmetric_fibers_plane_replays_its_golden_digest() {
    // 0 km to A, 10 km to B: A's half arrives ~49 µs before its partner,
    // so the two halves carry two retentions.
    let r = replay(fibers(0.0, 10.0));
    assert!(
        r.split_retentions > 0 && r.stats.consumed > SLOTS / 2,
        "halves must arrive apart: {} split of {:?}",
        r.split_retentions,
        r.stats
    );
    assert_eq!(
        r.digest, 0xec07_99b0_e0c9_f1d6,
        "asymmetric-fiber plane digest drifted: {:#018x}",
        r.digest
    );
}

#[test]
fn reversed_fibers_small_memory_plane_replays_its_golden_digest() {
    // 10 km to A, 0 km to B, four memory slots: B's half arrives first,
    // and the small memory overwrites, pruning partner halves.
    let config = DistributorConfig {
        qnic_capacity: 4,
        ..fibers(10.0, 0.0)
    };
    let r = replay(config);
    assert!(
        r.split_retentions > 0 && r.stats.dropped_full > 0,
        "small asymmetric memory must overwrite: {:?}",
        r.stats
    );
    assert_eq!(
        r.digest, 0xdeef_0fac_3716_4d03,
        "reversed-fiber small-memory plane digest drifted: {:#018x}",
        r.digest
    );
}

#[test]
fn oldest_first_plane_replays_its_golden_digest() {
    // Oldest-first consumption takes A's front half, so its partner sits
    // at B's front, not its back.
    let config = DistributorConfig {
        consume_policy: ConsumePolicy::OldestFirst,
        ..DistributorConfig::typical()
    };
    let r = replay(config);
    assert!(r.stats.consumed > SLOTS / 2, "{:?}", r.stats);
    assert_eq!(
        r.digest, 0xe935_110a_74eb_80e8,
        "oldest-first plane digest drifted: {:#018x}",
        r.digest
    );
}

#[test]
fn fifty_km_plane_replays_its_golden_digest() {
    // 50 km links keep 1 % of pairs: most loss counts are large, and most
    // slots miss.
    let r = replay(fibers(50.0, 50.0));
    assert!(
        r.stats.lost_in_fiber > 50 * (r.stats.emitted - r.stats.lost_in_fiber)
            && r.stats.consumed > 0
            && r.stats.misses > SLOTS / 2,
        "lossy links must lose most pairs: {:?}",
        r.stats
    );
    assert_eq!(
        r.digest, 0xdb8f_fb20_15aa_53fa,
        "50 km plane digest drifted: {:#018x}",
        r.digest
    );
}

#[test]
fn zero_km_plane_replays_its_golden_digest() {
    // Lossless, delay-free links: no loss draw at all.
    let r = replay(fibers(0.0, 0.0));
    assert!(
        r.stats.lost_in_fiber == 0 && r.stats.consumed > SLOTS / 2,
        "{:?}",
        r.stats
    );
    assert_eq!(
        r.digest, 0x1b1e_0692_2d0d_af1e,
        "0 km plane digest drifted: {:#018x}",
        r.digest
    );
}

#[test]
fn asymmetric_chaos_plane_replays_its_golden_digest() {
    let config = DistributorConfig {
        faults: chaos_plan(),
        ..fibers(0.0, 10.0)
    };
    let r = replay(config);
    assert!(
        r.stats.suppressed > 0
            && r.stats.clamp_evicted > 0
            && r.stats.lost_outage > 0
            && r.split_retentions > 0,
        "every fault kind must fire: {:?}",
        r.stats
    );
    assert_eq!(
        r.digest, 0x459e_8d72_be8b_5c45,
        "asymmetric chaos plane digest drifted: {:#018x}",
        r.digest
    );
}
