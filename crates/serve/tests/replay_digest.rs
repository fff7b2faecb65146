//! Golden replay digest of the served decision stream.
//!
//! A `ServiceCore` over `ServeConfig::typical` answers 20 000 decisions
//! per endpoint, refilling after every round, and every `Placement` plus
//! the closing summary folds into one FNV-1a `u64`. The constant pins the
//! whole served stack — entanglement plane, governor, slot draws, ring —
//! across commits; `qnet/tests/replay_digest.rs` pins the plane alone.
//!
//! If a change *means* to alter the served stream, update the constant
//! from the failure message and say so in the change's notes.

use serve::{ServeConfig, ServiceCore};

const ROUNDS: u64 = 20_000;
const SEED: u64 = 0x5EED_D16E;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `x`.
fn fold(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[test]
fn typical_service_replays_its_golden_digest() {
    let mut core = ServiceCore::new(&ServeConfig::typical(SEED));
    core.fill_all();
    let mut h = FNV_OFFSET;
    for i in 0..ROUNDS {
        for e in 0..core.n_endpoints() {
            let p = core.decide(e, i % 2 == 0, i % 3 == 0);
            for x in [
                u64::from(p.first),
                u64::from(p.second),
                u64::from(p.tier),
                p.seq,
            ] {
                h = fold(h, x);
            }
        }
        core.pump_all();
    }
    let s = core.finish();
    for x in [
        s.endpoints.decisions,
        s.endpoints.by_tier[0],
        s.endpoints.by_tier[1],
        s.endpoints.by_tier[2],
        s.endpoints.exhausted,
        s.feeds.produced,
        s.feeds.refills,
        s.feeds.misses,
        s.feeds.transitions,
    ] {
        h = fold(h, x);
    }
    assert_eq!(
        s.endpoints.exhausted, 0,
        "refilling every round keeps rings stocked"
    );
    assert_eq!(
        h, 0xdb45_d33d_21a8_f601,
        "served decision digest drifted: {h:#018x}"
    );
}
