//! The two halves of a served decision lane: the background
//! [`EndpointFeed`] (producer) and the hot-path [`DecisionEndpoint`]
//! (consumer), joined by one SPSC ring.
//!
//! The feed owns everything slow and stateful — the entanglement
//! distributor, the fallback governor, the trace lane — and refills the
//! ring in batches whenever occupancy drops below the low-water mark.
//! The endpoint owns nothing but the ring's consumer half, a dedicated
//! fallback RNG stream, and plain `u64` counters: a decision is `pop` +
//! table lookup, with no atomics beyond the ring protocol, no obs calls,
//! and no allocation. Counters flush to `qnlg.serve.*` obs statics in
//! deltas, so flushing is idempotent and the service can guarantee an
//! exactly-once final flush on shutdown.

use crate::decision::{
    self, DecisionSlot, Placement, TIER_CLASSICAL, TIER_INDEPENDENT, TIER_QUANTUM,
};
use crate::ring::{Consumer, Producer};
use loadbalance::degrade::{CoordinationMode, FallbackGovernor, HysteresisConfig};
use obs::LazyCounter;
use qnet::{DistributorConfig, EntanglementDistributor, SimTime};
use rand::Rng;
use runtime::SplitMix64;

/// Decisions answered on the hot path (all endpoints, all tiers).
static SERVE_DECISIONS: LazyCounter = LazyCounter::new("qnlg.serve.decisions");
/// Decisions answered from the quantum tier (a pre-drawn CHSH slot).
static SERVE_TIER_QUANTUM: LazyCounter = LazyCounter::new("qnlg.serve.tier.quantum");
/// Decisions answered from the classical-shared tier.
static SERVE_TIER_CLASSICAL: LazyCounter = LazyCounter::new("qnlg.serve.tier.classical");
/// Decisions answered from the independent tier.
static SERVE_TIER_INDEPENDENT: LazyCounter = LazyCounter::new("qnlg.serve.tier.independent");
/// Decisions that found an empty ring and fell back inline.
static SERVE_EXHAUSTED: LazyCounter = LazyCounter::new("qnlg.serve.exhausted");
/// Slots staged into rings by refill pumps.
static SERVE_SLOTS: LazyCounter = LazyCounter::new("qnlg.serve.slots");
/// Refill batches published.
static SERVE_REFILLS: LazyCounter = LazyCounter::new("qnlg.serve.refills");
/// Quantum-mode slots that missed (no buffered pair at consumption time).
static SERVE_MISSES: LazyCounter = LazyCounter::new("qnlg.serve.misses");

/// Counters describing one endpoint's consumed decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Total decisions answered.
    pub decisions: u64,
    /// Decisions per tier (indexed quantum, classical, independent).
    pub by_tier: [u64; 3],
    /// Decisions that found the ring empty and used the inline fallback
    /// (a subset of the classical-tier count).
    pub exhausted: u64,
}

/// Counters describing one feed's produced slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedStats {
    /// Slots staged and published.
    pub produced: u64,
    /// Refill batches published.
    pub refills: u64,
    /// Quantum-mode rounds that found no buffered pair.
    pub misses: u64,
    /// Governor mode transitions so far.
    pub transitions: u64,
}

/// Producer half of a decision lane: draws slots deterministically and
/// keeps the ring above its low-water mark.
pub struct EndpointFeed {
    id: u32,
    producer: Producer<DecisionSlot>,
    distributor: EntanglementDistributor,
    governor: FallbackGovernor,
    endpoint_seed: u64,
    next_seq: u64,
    period_ns: u64,
    n_servers: u32,
    low_water: usize,
    batch: usize,
    track: trace::Track,
    produced: u64,
    refills: u64,
    misses: u64,
    flushed: FeedStats,
}

impl EndpointFeed {
    /// Builds a feed over `producer`. `endpoint_seed` is the endpoint's
    /// stream-family seed (slot sub-streams derive from it), `period_ns`
    /// the simulated time between consecutive decisions, and
    /// `low_water`/`batch` the refill policy. `rng` seeds the
    /// distributor's internal streams.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        id: u32,
        producer: Producer<DecisionSlot>,
        distributor_config: DistributorConfig,
        hysteresis: HysteresisConfig,
        endpoint_seed: u64,
        period_ns: u64,
        n_servers: u32,
        low_water: usize,
        batch: usize,
        rng: &mut R,
    ) -> Self {
        assert!(n_servers >= 2, "need at least two servers");
        assert!(period_ns > 0, "decision period must be positive");
        assert!(batch > 0, "refill batch must be positive");
        assert!(
            low_water < producer.capacity(),
            "low-water mark must leave refill headroom"
        );
        EndpointFeed {
            id,
            distributor: EntanglementDistributor::new(distributor_config, rng),
            governor: FallbackGovernor::new(hysteresis),
            endpoint_seed,
            next_seq: 0,
            period_ns,
            n_servers,
            low_water,
            batch,
            track: trace::Track::Endpoint(id),
            produced: 0,
            refills: 0,
            misses: 0,
            flushed: FeedStats::default(),
            producer,
        }
    }

    /// Endpoint id this feed serves.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The live fallback governor.
    pub fn governor(&self) -> &FallbackGovernor {
        &self.governor
    }

    /// The entanglement distributor backing this lane.
    pub fn distributor(&self) -> &EntanglementDistributor {
        &self.distributor
    }

    /// Production counters so far.
    pub fn stats(&self) -> FeedStats {
        FeedStats {
            produced: self.produced,
            refills: self.refills,
            misses: self.misses,
            transitions: self.governor.transitions(),
        }
    }

    /// Draws the next slot in sequence. The slot's simulated consumption
    /// time is `(seq + 1) · period`, so the draw is independent of when
    /// (in wall time) the refill happens. Every governor mode takes a
    /// pair at `now`, and `take_werner` advances the plane to `now`
    /// first, so the slot costs one pass over the plane.
    fn draw_next(&mut self) -> DecisionSlot {
        let seq = self.next_seq;
        self.next_seq += 1;
        let now = SimTime::from_nanos((seq + 1).saturating_mul(self.period_ns));
        let mut rng = decision::slot_rng(self.endpoint_seed, seq);
        let mode_before = self.governor.mode();
        let slot = match mode_before {
            CoordinationMode::Quantum => match self.distributor.take_werner(now) {
                Some(pair) => {
                    self.governor.observe(1, 1);
                    decision::draw_quantum(seq, self.n_servers, &pair, &mut rng)
                }
                None => {
                    self.misses += 1;
                    self.governor.observe(0, 1);
                    decision::draw_classical_shared(seq, self.n_servers, &mut rng)
                }
            },
            CoordinationMode::ClassicalShared => {
                // Keep polling the hardware at the decision cadence so
                // the governor can see delivery recover (the Degrading
                // wrapper's probe discipline).
                let delivered = self.distributor.take_werner(now).is_some() as u64;
                self.governor.observe(delivered, 1);
                decision::draw_classical_shared(seq, self.n_servers, &mut rng)
            }
            CoordinationMode::IndependentRandom => {
                let delivered = self.distributor.take_werner(now).is_some() as u64;
                self.governor.observe(delivered, 1);
                decision::draw_independent(seq, self.n_servers, &mut rng)
            }
        };
        if trace::enabled() {
            let mode_after = self.governor.mode();
            if mode_after != mode_before {
                trace::instant_sim(self.track, mode_after.trace_name(), now.as_nanos());
            }
        }
        slot
    }

    /// One refill pass: if ring occupancy has dropped below the
    /// low-water mark, stages up to a batch of freshly drawn slots and
    /// publishes them with one release store. Returns the number of
    /// slots published (0 when the ring is still above the mark).
    pub fn pump(&mut self) -> usize {
        if self.producer.occupied() > self.low_water {
            return 0;
        }
        self.fill(self.batch)
    }

    /// Stages up to `limit` slots regardless of the low-water mark
    /// (bounded by ring space) and publishes them. Used by `pump` and by
    /// the deterministic soak (which pre-fills synchronously).
    pub fn fill(&mut self, limit: usize) -> usize {
        let mut staged = 0;
        while staged < limit && self.producer.free() > 0 {
            let slot = self.draw_next();
            let ok = self.producer.stage(slot);
            debug_assert!(ok, "free() > 0 but stage failed");
            staged += 1;
        }
        if staged > 0 {
            self.producer.publish();
            self.produced += staged as u64;
            self.refills += 1;
            if trace::enabled() {
                trace::instant_sim(
                    self.track,
                    "refill",
                    self.next_seq.saturating_mul(self.period_ns),
                );
            }
        }
        staged
    }

    /// Flushes production counter deltas to the `qnlg.serve.*` obs
    /// statics. Idempotent: flushing twice adds nothing new.
    pub fn flush_obs(&mut self) {
        let now = self.stats();
        SERVE_SLOTS.add(now.produced - self.flushed.produced);
        SERVE_REFILLS.add(now.refills - self.flushed.refills);
        SERVE_MISSES.add(now.misses - self.flushed.misses);
        self.flushed = now;
    }
}

/// Consumer half of a decision lane: the allocation-free hot path.
pub struct DecisionEndpoint {
    id: u32,
    consumer: Consumer<DecisionSlot>,
    fallback: SplitMix64,
    n_servers: u32,
    decisions: u64,
    by_tier: [u64; 3],
    exhausted: u64,
    flushed: EndpointStats,
}

impl DecisionEndpoint {
    /// Builds the endpoint over `consumer`. `endpoint_seed` must be the
    /// same family seed the feed uses, so the inline-fallback stream
    /// stays disjoint from every slot sub-stream.
    pub fn new(
        id: u32,
        consumer: Consumer<DecisionSlot>,
        endpoint_seed: u64,
        n_servers: u32,
    ) -> Self {
        DecisionEndpoint {
            id,
            consumer,
            fallback: decision::fallback_rng(endpoint_seed),
            n_servers,
            decisions: 0,
            by_tier: [0; 3],
            exhausted: 0,
            flushed: EndpointStats::default(),
        }
    }

    /// Endpoint id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Answers one placement query. The hot path: ring `pop`, outcome
    /// table lookup, two conditional selects, three counter bumps — no
    /// locks, no allocation, no obs, no syscalls. An empty ring degrades
    /// inline to a classical-shared draw from the endpoint's dedicated
    /// fallback stream instead of blocking.
    #[inline]
    pub fn decide(&mut self, x: bool, y: bool) -> Placement {
        self.decisions += 1;
        match self.consumer.pop() {
            Some(slot) => {
                let tier = (slot.tier as usize).min(2);
                self.by_tier[tier] += 1;
                slot.place(x, y)
            }
            None => {
                self.exhausted += 1;
                self.by_tier[TIER_CLASSICAL as usize] += 1;
                let slot =
                    decision::draw_classical_shared(u64::MAX, self.n_servers, &mut self.fallback);
                slot.place(x, y)
            }
        }
    }

    /// Consumption counters so far.
    pub fn stats(&self) -> EndpointStats {
        EndpointStats {
            decisions: self.decisions,
            by_tier: self.by_tier,
            exhausted: self.exhausted,
        }
    }

    /// Flushes consumption counter deltas to the `qnlg.serve.*` obs
    /// statics. Idempotent, and deliberately *off* the decision path so
    /// the hot loop never touches shared atomics.
    pub fn flush_obs(&mut self) {
        let now = self.stats();
        SERVE_DECISIONS.add(now.decisions - self.flushed.decisions);
        SERVE_TIER_QUANTUM
            .add(now.by_tier[TIER_QUANTUM as usize] - self.flushed.by_tier[TIER_QUANTUM as usize]);
        SERVE_TIER_CLASSICAL.add(
            now.by_tier[TIER_CLASSICAL as usize] - self.flushed.by_tier[TIER_CLASSICAL as usize],
        );
        SERVE_TIER_INDEPENDENT.add(
            now.by_tier[TIER_INDEPENDENT as usize]
                - self.flushed.by_tier[TIER_INDEPENDENT as usize],
        );
        SERVE_EXHAUSTED.add(now.exhausted - self.flushed.exhausted);
        self.flushed = now;
    }
}
