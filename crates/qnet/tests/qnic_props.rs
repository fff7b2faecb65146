//! Property-based invariants of the QNIC memory under arbitrary
//! interleavings of stores, evictions, consumes, and fault clamps.
//!
//! The NIC keeps its memory in arrival order: stores must come in time
//! order (every generated script stores at a nondecreasing `now`), and
//! age eviction pops the expired prefix instead of scanning.

use proptest::prelude::*;
use qnet::Qnic;
use qnet::{SimTime, StoredQubit};
use std::time::Duration;

const MAX_AGE: Duration = Duration::from_micros(160);

/// The NIC's stored qubits, oldest first (read from a clone).
fn contents(nic: &Qnic) -> Vec<StoredQubit> {
    let mut probe = nic.clone();
    std::iter::from_fn(|| probe.take_oldest()).collect()
}

#[test]
#[should_panic(expected = "out of time order")]
fn store_earlier_than_newest_arrival_panics() {
    let mut nic = Qnic::new(4, Duration::from_micros(100), MAX_AGE);
    nic.store(0, SimTime::from_micros(10), false);
    nic.store(1, SimTime::from_micros(9), false);
}

/// One scripted operation against the NIC, decoded from a (code, arg)
/// pair so the generator stays a plain integer strategy.
fn apply_op(
    nic: &mut Qnic,
    code: u8,
    arg: u64,
    now: &mut SimTime,
    next_id: &mut u64,
    overwrites: &mut u64,
) {
    match code {
        0 => {
            if nic.store(*next_id, *now, false).is_some() {
                *overwrites += 1;
            }
            *next_id += 1;
        }
        1 => {
            *now += Duration::from_micros(arg);
            nic.evict_expired(*now, false);
        }
        2 => {
            nic.take_oldest();
        }
        3 => {
            nic.take_newest();
        }
        4 => {
            if *next_id > 0 {
                nic.take_pair_id(arg % *next_id);
            }
        }
        _ => {
            let clamp = if arg.is_multiple_of(4) {
                None
            } else {
                Some((arg % 8) as usize)
            };
            nic.set_capacity_clamp(clamp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Occupancy never exceeds the capacity in force, whatever the
    /// interleaving of stores, age evictions, takes, and fault clamps.
    #[test]
    fn occupancy_bounded_by_effective_capacity(
        capacity in 1usize..12,
        ops in collection::vec((0u8..6, 0u64..64), 1..128))
    {
        let mut nic = Qnic::new(capacity, Duration::from_micros(100), Duration::from_micros(160));
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut overwrites = 0u64;
        for &(code, arg) in &ops {
            apply_op(&mut nic, code, arg, &mut now, &mut next_id, &mut overwrites);
            prop_assert!(
                nic.len() <= nic.effective_capacity(),
                "len {} > effective capacity {} after op ({code}, {arg})",
                nic.len(),
                nic.effective_capacity()
            );
            prop_assert!(nic.effective_capacity() <= nic.capacity());
        }
    }

    /// `dropped_full` counts exactly the arrival overwrites — no more
    /// (clamp and age evictions are tallied elsewhere), no fewer.
    #[test]
    fn dropped_full_exactly_counts_overwrites(
        capacity in 1usize..12,
        ops in collection::vec((0u8..6, 0u64..64), 1..128))
    {
        let mut nic = Qnic::new(capacity, Duration::from_micros(100), Duration::from_micros(160));
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut overwrites = 0u64;
        for &(code, arg) in &ops {
            apply_op(&mut nic, code, arg, &mut now, &mut next_id, &mut overwrites);
            prop_assert_eq!(nic.dropped_full, overwrites);
        }
    }

    /// Age eviction is monotone in `now`: evicting at t₁ then t₂ ≥ t₁
    /// leaves exactly the state (and expired count) of evicting once at
    /// t₂, and later probes can only evict more.
    #[test]
    fn evict_expired_monotone_in_now(
        arrivals in collection::vec(0u64..400, 1..24),
        t1 in 0u64..600,
        dt in 0u64..600)
    {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let mut staged = Qnic::new(32, Duration::from_micros(100), Duration::from_micros(160));
        for (id, &a) in arrivals.iter().enumerate() {
            staged.store(id as u64, SimTime::from_micros(a), false);
        }
        let mut direct = staged.clone();

        let (t1, t2) = (SimTime::from_micros(t1), SimTime::from_micros(t1 + dt));
        let first = staged.evict_expired(t1, false);
        let second = staged.evict_expired(t2, false);
        let all_at_once = direct.evict_expired(t2, false);

        prop_assert_eq!(first + second, all_at_once, "two-step eviction loses or double-counts");
        prop_assert_eq!(staged.expired, direct.expired);
        prop_assert_eq!(staged.len(), direct.len());
        while let (Some(a), Some(b)) = (staged.take_oldest(), direct.take_oldest()) {
            prop_assert_eq!(a, b, "survivor sets diverge");
        }
        prop_assert!(staged.is_empty() && direct.is_empty());
    }

    /// Prefix eviction on the arrival-ordered memory removes exactly what
    /// a full `retain(age ≤ max_age)` scan would, with the same `expired`
    /// count, at every eviction of any time-ordered script of stores,
    /// takes, clamps and evictions.
    #[test]
    fn prefix_eviction_matches_retain_reference(
        capacity in 1usize..12,
        ops in collection::vec((0u8..6, 0u64..200), 1..128))
    {
        let mut nic = Qnic::new(capacity, Duration::from_micros(100), MAX_AGE);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut overwrites = 0u64;
        for &(code, arg) in &ops {
            if code != 1 {
                apply_op(&mut nic, code, arg, &mut now, &mut next_id, &mut overwrites);
                continue;
            }
            now += Duration::from_micros(arg);
            let mut reference = contents(&nic);
            let before = reference.len();
            reference.retain(|q| now.duration_since(q.arrival) <= MAX_AGE);
            let expired_before = nic.expired;
            let evicted = nic.evict_expired(now, false);
            prop_assert_eq!(evicted, before - reference.len());
            prop_assert_eq!(nic.expired - expired_before, evicted as u64);
            prop_assert_eq!(contents(&nic), reference);
        }
    }
}
