//! The quantum NIC: bounded qubit memory with finite coherence lifetime.
//!
//! §3: "A QNIC supports two main capabilities: it can measure an incoming
//! qubit in a specified basis, and it can optionally store the qubit for a
//! short duration (e.g., 100 µs to 1 ms) … High-fidelity storage at room
//! temperature has been achieved for 16–160 µs."
//!
//! Storage is not free: a qubit held for time `t` with coherence lifetime
//! `τ` suffers dephasing of strength `(1 − e^{−t/τ})/2`
//! ([`qsim::noise::KrausChannel::storage_decay`]). The NIC also evicts
//! qubits held past a configurable maximum age — after a few `τ` they are
//! classical noise and only waste memory slots.
//!
//! Memory is kept in arrival order: [`Qnic::store`] rejects a qubit that
//! arrives before the newest one stored, and every removal (take, clamp,
//! eviction) preserves the order. The expired qubits are then always a
//! prefix, so [`Qnic::evict_expired`] pops from the front and stops at the
//! first qubit still young enough.

use crate::time::SimTime;
use qsim::noise::KrausChannel;
use std::collections::VecDeque;
use std::time::Duration;

/// Arrivals that overwrote the oldest stored qubit (memory full).
static QNIC_OVERWRITE_DROPS: obs::LazyCounter = obs::LazyCounter::new("qnet.qnic.overwrite_drops");
/// Qubits evicted for exceeding the maximum storage age.
static QNIC_EXPIRED: obs::LazyCounter = obs::LazyCounter::new("qnet.qnic.expired");
/// Occupancy high-water mark across all NICs in the process. The
/// distributor raises it once per drain pass, to the largest occupancy
/// seen after a store.
pub(crate) static QNIC_OCCUPANCY: obs::LazyGauge = obs::LazyGauge::new("qnet.qnic.occupancy");
/// Qubits evicted when a fault clamped capacity below current occupancy.
static QNIC_CLAMP_EVICTED: obs::LazyCounter = obs::LazyCounter::new("qnet.qnic.clamp_evicted");

/// A qubit half-pair sitting in QNIC memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredQubit {
    /// Identifier linking the two halves of one logical pair.
    pub pair_id: u64,
    /// When this half arrived at the NIC.
    pub arrival: SimTime,
}

/// A quantum NIC's qubit memory.
#[derive(Debug, Clone)]
pub struct Qnic {
    slots: VecDeque<StoredQubit>,
    capacity: usize,
    lifetime: Duration,
    /// The eviction age in ns, saturated: an age past `u64::MAX` ns
    /// never evicts.
    max_age_ns: u64,
    /// Fault-injected capacity clamp ([`Self::set_capacity_clamp`]).
    clamp: Option<usize>,
    /// The coherence lifetime in force, in seconds: τ times the
    /// fault-injected multiplier ([`Self::set_lifetime_scale`]).
    tau_s: f64,
    /// Trace timeline this NIC's pair-lifecycle events land on
    /// ([`Self::set_trace_track`]); `None` keeps the NIC silent.
    track: Option<trace::Track>,
    /// Qubits dropped because memory was full on arrival.
    pub dropped_full: u64,
    /// Qubits evicted because they exceeded `max_age`.
    pub expired: u64,
    /// Qubits evicted by a capacity clamp taking effect.
    pub clamp_evicted: u64,
}

impl Qnic {
    /// A NIC with `capacity` memory slots, coherence `lifetime` τ, and
    /// eviction age `max_age`.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `lifetime` is zero.
    pub fn new(capacity: usize, lifetime: Duration, max_age: Duration) -> Self {
        assert!(capacity > 0, "need at least one memory slot");
        assert!(!lifetime.is_zero(), "lifetime must be positive");
        Qnic {
            slots: VecDeque::with_capacity(capacity),
            capacity,
            lifetime,
            max_age_ns: u64::try_from(max_age.as_nanos()).unwrap_or(u64::MAX),
            clamp: None,
            tau_s: lifetime.as_secs_f64(),
            track: None,
            dropped_full: 0,
            expired: 0,
            clamp_evicted: 0,
        }
    }

    /// A representative room-temperature NIC: 16 slots, τ = 100 µs,
    /// eviction at 160 µs (the upper end of demonstrated storage, §3).
    pub fn typical_room_temperature() -> Self {
        Qnic::new(16, Duration::from_micros(100), Duration::from_micros(160))
    }

    /// Coherence lifetime τ (nominal, before any fault scaling).
    pub fn lifetime(&self) -> Duration {
        self.lifetime
    }

    /// Assigns the trace timeline for this NIC's stored/expired/dropped
    /// pair-lifecycle events (the distributor wires one per endpoint).
    pub fn set_trace_track(&mut self, track: trace::Track) {
        self.track = Some(track);
    }

    /// Nominal memory capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Capacity currently in force: the nominal capacity, tightened by
    /// any active clamp (never below one slot).
    pub fn effective_capacity(&self) -> usize {
        match self.clamp {
            Some(c) => self.capacity.min(c.max(1)),
            None => self.capacity,
        }
    }

    /// Applies (or clears, with `None`) a fault-injected capacity clamp.
    /// Qubits over the new quota are evicted immediately, oldest first —
    /// they are returned so the caller can prune partner halves — and
    /// counted in `clamp_evicted`, *not* `dropped_full` (which counts
    /// exactly the arrival overwrites).
    pub fn set_capacity_clamp(&mut self, clamp: Option<usize>) -> Vec<StoredQubit> {
        self.clamp = clamp;
        let quota = self.effective_capacity();
        let mut evicted = Vec::new();
        while self.slots.len() > quota {
            evicted.push(self.slots.pop_front().expect("len > quota ≥ 0"));
        }
        self.clamp_evicted += evicted.len() as u64;
        QNIC_CLAMP_EVICTED.add(evicted.len() as u64);
        evicted
    }

    /// Scales the coherence lifetime used by [`Self::decay_channel`] —
    /// a [`crate::faults::FaultKind::DecoherenceSpike`] sets this below 1.
    ///
    /// # Panics
    /// Panics if `scale` is not positive.
    pub fn set_lifetime_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "lifetime scale must be positive");
        self.tau_s = self.lifetime.as_secs_f64() * scale;
    }

    /// Number of stored qubits.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no qubits are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stores an arriving qubit. When memory is full the *oldest* stored
    /// qubit is overwritten (and counted in `dropped_full`): a fresh
    /// photon is always worth more than the most-decohered one, and this
    /// matches how a cyclic memory register behaves. Returns the evicted
    /// qubit, if any. `tracing` is the caller's one read of
    /// [`trace::enabled`] for its pass; the NIC's stored/dropped events
    /// are recorded only when it is set.
    ///
    /// # Panics
    /// Panics if `arrival` is earlier than the newest stored qubit's:
    /// memory is kept in arrival order.
    pub fn store(&mut self, pair_id: u64, arrival: SimTime, tracing: bool) -> Option<StoredQubit> {
        if let Some(newest) = self.slots.back() {
            assert!(
                arrival >= newest.arrival,
                "QNIC arrival out of time order: {arrival} < {}",
                newest.arrival
            );
        }
        let evicted = if self.slots.len() >= self.effective_capacity() {
            self.dropped_full += 1;
            QNIC_OVERWRITE_DROPS.inc();
            self.slots.pop_front()
        } else {
            None
        };
        self.slots.push_back(StoredQubit { pair_id, arrival });
        if let (Some(track), true) = (self.track, tracing) {
            if let Some(ev) = evicted {
                trace::pair(
                    track,
                    trace::PairStage::Dropped,
                    ev.pair_id,
                    arrival.as_nanos(),
                );
            }
            trace::pair(track, trace::PairStage::Stored, pair_id, arrival.as_nanos());
        }
        evicted
    }

    /// Evicts qubits older than `max_age` as of `now`. Returns how many
    /// were evicted. Memory is in arrival order, so they are a prefix.
    /// `tracing` gates the expired events, as in [`Self::store`].
    pub fn evict_expired(&mut self, now: SimTime, tracing: bool) -> usize {
        let track = self.track.filter(|_| tracing);
        let now_ns = now.as_nanos();
        let mut evicted = 0;
        while let Some(q) = self.slots.front() {
            if now_ns.saturating_sub(q.arrival.as_nanos()) <= self.max_age_ns {
                break;
            }
            if let Some(track) = track {
                trace::pair(track, trace::PairStage::Expired, q.pair_id, now_ns);
            }
            self.slots.pop_front();
            evicted += 1;
        }
        if evicted > 0 {
            self.expired += evicted as u64;
            QNIC_EXPIRED.add(evicted as u64);
        }
        evicted
    }

    /// Takes the oldest stored qubit (FIFO).
    pub fn take_oldest(&mut self) -> Option<StoredQubit> {
        self.slots.pop_front()
    }

    /// Takes the newest stored qubit (LIFO — freshest-first maximizes the
    /// consumed pair's fidelity, at the cost of letting older qubits age
    /// out; cf. §3's suggestion to arrange for qubits to arrive just
    /// before use).
    pub fn take_newest(&mut self) -> Option<StoredQubit> {
        self.slots.pop_back()
    }

    /// Removes and returns the stored qubit with `pair_id`, if present.
    /// Searches from the newest end, where a freshest-first consumer's
    /// partner half sits; the newest slot itself is checked first.
    pub fn take_pair_id(&mut self, pair_id: u64) -> Option<StoredQubit> {
        if self.slots.back().is_some_and(|q| q.pair_id == pair_id) {
            return self.slots.pop_back();
        }
        let pos = self.slots.iter().rposition(|q| q.pair_id == pair_id)?;
        self.slots.remove(pos)
    }

    /// The dephasing channel this NIC applies to a qubit consumed at
    /// `now` after arriving at `arrival`.
    pub fn decay_channel(&self, arrival: SimTime, now: SimTime) -> KrausChannel {
        let held = now.duration_since(arrival).as_secs_f64();
        KrausChannel::storage_decay(held, self.tau_s)
            .expect("held ≥ 0 and lifetime > 0 by construction")
    }

    /// The coherence retention `d = exp(−held/τ)` of a qubit consumed at
    /// `now` — the closed-form equivalent of [`Self::decay_channel`]
    /// (`storage_decay` picks its Kraus probability so the off-diagonal
    /// scale factor `1 − 2p` equals exactly this `d`). Used by the
    /// [`qsim::werner::WernerPair`] measurement kernel.
    pub fn retention(&self, arrival: SimTime, now: SimTime) -> f64 {
        let held = now.duration_since(arrival).as_secs_f64();
        (-held / self.tau_s).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::{bell, DensityMatrix};

    fn nic() -> Qnic {
        Qnic::new(2, Duration::from_micros(100), Duration::from_micros(160))
    }

    #[test]
    fn store_and_take_fifo() {
        let mut n = nic();
        assert!(n.store(1, SimTime::from_micros(0), false).is_none());
        assert!(n.store(2, SimTime::from_micros(1), false).is_none());
        assert_eq!(n.len(), 2);
        assert_eq!(n.take_oldest().unwrap().pair_id, 1);
        assert_eq!(n.take_oldest().unwrap().pair_id, 2);
        assert!(n.take_oldest().is_none());
    }

    #[test]
    fn capacity_overwrites_oldest() {
        let mut n = nic();
        assert!(n.store(1, SimTime::ZERO, false).is_none());
        assert!(n.store(2, SimTime::ZERO, false).is_none());
        let evicted = n
            .store(3, SimTime::ZERO, false)
            .expect("full memory evicts");
        assert_eq!(evicted.pair_id, 1, "oldest is overwritten");
        assert_eq!(n.dropped_full, 1);
        assert_eq!(n.len(), 2);
        assert_eq!(n.take_oldest().unwrap().pair_id, 2);
        assert_eq!(n.take_oldest().unwrap().pair_id, 3);
    }

    #[test]
    fn eviction_by_age() {
        let mut n = nic();
        n.store(1, SimTime::from_micros(0), false);
        n.store(2, SimTime::from_micros(100), false);
        let evicted = n.evict_expired(SimTime::from_micros(200), false);
        assert_eq!(evicted, 1, "only the 200µs-old qubit expires");
        assert_eq!(n.expired, 1);
        assert_eq!(n.take_oldest().unwrap().pair_id, 2);
    }

    #[test]
    fn take_by_pair_id() {
        let mut n = nic();
        n.store(7, SimTime::ZERO, false);
        n.store(9, SimTime::ZERO, false);
        assert_eq!(n.take_pair_id(9).unwrap().pair_id, 9);
        assert!(n.take_pair_id(9).is_none());
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn decay_channel_strength_grows_with_hold_time() {
        let n = nic();
        let rho = DensityMatrix::from_pure(&bell::phi_plus());

        // Fresh qubit: nearly no decay.
        let ch = n.decay_channel(SimTime::ZERO, SimTime::ZERO);
        let out = ch.apply(&rho, 0).unwrap();
        assert!((out.purity() - 1.0).abs() < 1e-9);

        // Held 100 µs = τ: substantial dephasing.
        let ch = n.decay_channel(SimTime::ZERO, SimTime::from_micros(100));
        let out = ch.apply(&rho, 0).unwrap();
        assert!(out.purity() < 0.9);
        assert!(out.is_valid(1e-8));
    }

    #[test]
    #[should_panic(expected = "at least one memory slot")]
    fn zero_capacity_panics() {
        Qnic::new(0, Duration::from_micros(1), Duration::from_micros(1));
    }

    #[test]
    fn capacity_clamp_evicts_oldest_and_counts_separately() {
        let mut n = Qnic::new(4, Duration::from_micros(100), Duration::from_micros(160));
        for id in 0..4 {
            n.store(id, SimTime::from_micros(id), false);
        }
        let evicted = n.set_capacity_clamp(Some(2));
        assert_eq!(
            evicted.iter().map(|q| q.pair_id).collect::<Vec<_>>(),
            [0, 1]
        );
        assert_eq!(n.len(), 2);
        assert_eq!(n.effective_capacity(), 2);
        assert_eq!(n.clamp_evicted, 2);
        assert_eq!(n.dropped_full, 0, "clamp evictions are not overwrite drops");

        // While clamped, stores overwrite at the clamped quota.
        n.store(10, SimTime::from_micros(10), false);
        assert_eq!(n.dropped_full, 1);
        assert_eq!(n.len(), 2);

        // Clearing the clamp restores the nominal quota without eviction.
        assert!(n.set_capacity_clamp(None).is_empty());
        assert_eq!(n.effective_capacity(), 4);
        n.store(11, SimTime::from_micros(11), false);
        assert_eq!(n.dropped_full, 1);
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn clamp_never_drops_below_one_slot() {
        let mut n = Qnic::new(4, Duration::from_micros(100), Duration::from_micros(160));
        n.store(1, SimTime::ZERO, false);
        n.store(2, SimTime::ZERO, false);
        let evicted = n.set_capacity_clamp(Some(0));
        assert_eq!(n.effective_capacity(), 1);
        assert_eq!(evicted.len(), 1);
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn retention_matches_decay_channel_coherence_scale() {
        // `retention` must be the exact off-diagonal scale factor of
        // `decay_channel`: apply the channel to |Φ⁺⟩ and compare the
        // surviving |00⟩⟨11| coherence against d/2.
        let mut n = nic();
        for (held_us, scale) in [(0u64, 1.0), (50, 1.0), (100, 0.25), (250, 0.5)] {
            n.set_lifetime_scale(scale);
            let now = SimTime::from_micros(held_us);
            let rho = DensityMatrix::from_pure(&bell::phi_plus());
            let out = n.decay_channel(SimTime::ZERO, now).apply(&rho, 0).unwrap();
            let coherence = out.matrix().row(0)[3].re;
            let d = n.retention(SimTime::ZERO, now);
            assert!(
                (coherence - d / 2.0).abs() < 1e-12,
                "held {held_us}µs scale {scale}: coherence {coherence} vs d/2 {}",
                d / 2.0
            );
        }
    }

    #[test]
    fn lifetime_scale_accelerates_decay() {
        let mut n = nic();
        let rho = DensityMatrix::from_pure(&bell::phi_plus());
        let held = SimTime::from_micros(50);
        let nominal = n.decay_channel(SimTime::ZERO, held).apply(&rho, 0).unwrap();
        n.set_lifetime_scale(0.25);
        let spiked = n.decay_channel(SimTime::ZERO, held).apply(&rho, 0).unwrap();
        assert!(
            spiked.purity() < nominal.purity(),
            "spiked τ must dephase faster: {} vs {}",
            spiked.purity(),
            nominal.purity()
        );
    }
}
