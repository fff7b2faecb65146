//! The continuous entanglement-distribution pipeline.
//!
//! Fig. 1 + Fig. 2 of the paper: a central source streams entangled pairs
//! down two fibers to a pair of endpoints *ahead of demand*; each endpoint
//! buffers its half in QNIC memory. When an input arrives, the endpoint
//! consumes a buffered pair immediately — no network round trip. Which
//! pair is the [`ConsumePolicy`]'s choice: the freshest by default.
//!
//! The distributor accounts for the three loss mechanisms of §3:
//!
//! 1. **Photon loss in fiber** — a pair is usable only if *both* halves
//!    survive their links.
//! 2. **Memory pressure** — QNIC capacity is finite; arrivals to a full
//!    memory are dropped (on either side, the partner half is discarded
//!    too — a half-pair is useless).
//! 3. **Decoherence in storage** — consumed pairs are degraded by the
//!    per-half dephasing accumulated while buffered.
//!
//! ## The batched data plane
//!
//! Under nominal conditions (no outage, no brownout) the stream of
//! *surviving* pairs is itself Poisson at rate `p·λ` (Bernoulli thinning),
//! so the plane samples one exponential gap per **survivor** and one
//! geometric loss count ([`SurvivorProcess`]) instead of one gap plus
//! per-photon loss Bernoullis per **emission** — at 10% fiber survival
//! that is ~15× fewer RNG draws. Event times accumulate in integer
//! nanoseconds, and randomness comes from two dedicated [`runtime::seed`]
//! sub-streams (emission gaps vs loss/thinning) so the replay is
//! independent of how consumers interleave their polling. While any
//! emission-affecting fault is active the plane drops to the exact
//! per-emission path; switching between the two mid-run is
//! distribution-exact because both the emission and the survivor
//! processes are memoryless (a pending exponential draw conditioned on
//! lying beyond the fault edge is itself a fresh exponential from the
//! edge).
//!
//! ## One time-ordered pass
//!
//! A pair becomes consumable once both halves have traversed their
//! fibers: at its emission time plus `max(delay_a, delay_b)`, a constant.
//! Both emission paths commit events in time order (a regime flip
//! restarts from the fault edge, which lies after every committed event),
//! so pairs in flight enter a plain FIFO already sorted by arrival, and
//! each QNIC receives its halves in arrival order. Fault edges replay from
//! a list sorted once ([`FaultClock`]). Advancing the plane is one merge
//! of these sorted streams; it needs no event scheduler.
//!
//! The pass does only the work its outputs need. Time stays in integer
//! nanoseconds (emission instants, arrival stamps, the age check); the
//! trace gate is read once per advance and passed down; each pass adds
//! its `qnet.epr.*` and `qnet.des.events` counts to the obs counters once,
//! from local tallies, and only if it committed an event; the occupancy
//! gauge is raised once per drain, to its largest value.
//!
//! A link that delivers no pair at all (`p = 0`) has no survivor process
//! to sample, so it always runs the per-emission path, which counts each
//! emission as lost.

use crate::epr::{EprSource, SurvivorProcess};
use crate::faults::{FaultClock, FaultPlan};
use crate::link::FiberLink;
use crate::qnic::{Qnic, StoredQubit, QNIC_OCCUPANCY};
use crate::time::{SimTime, SIM_EVENTS};
use qsim::werner::WernerPair;
use qsim::{DensityMatrix, SharedPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Duration;

/// Pairs emitted by any distribution source in the process.
static EPR_EMITTED: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.emitted");
/// Pairs lost to fiber attenuation (either half absorbed).
static EPR_LOST_FIBER: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.lost_fiber");
/// Pairs successfully consumed by a decision.
static EPR_CONSUMED: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.consumed");
/// Consumption attempts that found no buffered pair.
static EPR_MISSES: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.misses");
/// Pairs lost because a link was down (subset of fiber losses).
static EPR_LOST_OUTAGE: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.lost_outage");
/// Emissions suppressed by a source brownout (Poisson thinning).
static EPR_SUPPRESSED: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.brownout_suppressed");
/// Emission-to-consumption latency of delivered pairs, in sim ns.
static DELIVERY_LATENCY_NS: obs::LazyHist = obs::LazyHist::new("qnet.pair.delivery_latency_ns");
/// Storage dwell (fiber arrival to consumption) per consumed half, in
/// sim ns.
static PAIR_DWELL_NS: obs::LazyHist = obs::LazyHist::new("qnet.pair.dwell_ns");

/// Which buffered pair a consumption request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsumePolicy {
    /// Oldest pair first (FIFO): fair aging, but the consumed pair has
    /// accumulated the most storage dephasing.
    OldestFirst,
    /// Newest pair first (LIFO): the consumed pair is the freshest —
    /// maximum fidelity, matching §3's advice to arrange qubit arrival
    /// just before use. The default.
    #[default]
    FreshestFirst,
}

/// Configuration of a two-endpoint distribution pipeline.
#[derive(Debug, Clone)]
pub struct DistributorConfig {
    /// The entangled-pair source.
    pub source: EprSource,
    /// Fiber from the source to endpoint A.
    pub link_a: FiberLink,
    /// Fiber from the source to endpoint B.
    pub link_b: FiberLink,
    /// QNIC memory capacity at each endpoint.
    pub qnic_capacity: usize,
    /// QNIC coherence lifetime τ.
    pub memory_lifetime: Duration,
    /// Eviction age (qubits older than this are discarded).
    pub max_age: Duration,
    /// Which buffered pair to consume.
    pub consume_policy: ConsumePolicy,
    /// Scheduled transient faults ([`FaultPlan::none`] for nominal runs).
    pub faults: FaultPlan,
}

impl DistributorConfig {
    /// A representative room-temperature datacenter setup: 10⁵ pairs/s at
    /// visibility 0.95, 1 km fibers, 16-slot NICs with τ = 100 µs.
    pub fn typical() -> Self {
        DistributorConfig {
            source: EprSource::typical_room_temperature(),
            link_a: FiberLink::new(1.0),
            link_b: FiberLink::new(1.0),
            qnic_capacity: 16,
            memory_lifetime: Duration::from_micros(100),
            max_age: Duration::from_micros(160),
            consume_policy: ConsumePolicy::FreshestFirst,
            faults: FaultPlan::none(),
        }
    }
}

/// Counters describing pipeline behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributorStats {
    /// Pairs emitted by the source.
    pub emitted: u64,
    /// Pairs lost to fiber attenuation (either half).
    pub lost_in_fiber: u64,
    /// Pairs dropped because a QNIC was full.
    pub dropped_full: u64,
    /// Pairs evicted after exceeding the age limit.
    pub expired: u64,
    /// Pairs successfully consumed by a decision.
    pub consumed: u64,
    /// Consumption attempts that found no buffered pair.
    pub misses: u64,
    /// Pairs lost because a link outage was active (subset of
    /// `lost_in_fiber`).
    pub lost_outage: u64,
    /// Emissions suppressed by a source brownout.
    pub suppressed: u64,
    /// Qubits evicted when a fault clamped QNIC capacity.
    pub clamp_evicted: u64,
}

impl DistributorStats {
    /// Fraction of consumption attempts that found a pair buffered.
    pub fn availability(&self) -> f64 {
        let attempts = self.consumed + self.misses;
        if attempts == 0 {
            return 1.0;
        }
        self.consumed as f64 / attempts as f64
    }
}

/// A surviving pair in flight, consumable once both halves have reached
/// their endpoints.
#[derive(Debug, Clone, Copy)]
struct PairRecord {
    id: u64,
    arrive_a: SimTime,
    arrive_b: SimTime,
}

/// The two-endpoint continuous distribution pipeline.
pub struct EntanglementDistributor {
    config: DistributorConfig,
    nic_a: Qnic,
    nic_b: Qnic,
    faults: FaultClock,
    next_pair_id: u64,
    stats: DistributorStats,
    /// Exponential-gap draws (emission / survivor process).
    emission_rng: StdRng,
    /// Loss, thinning, and skip-ahead draws.
    loss_rng: StdRng,
    /// Time of the last committed source event; gaps accumulate from here
    /// in integer nanoseconds.
    last_event: SimTime,
    /// The next source event, drawn ahead under the current regime.
    pending: Option<SimTime>,
    /// True while the survivor-process fast path is valid (no
    /// emission-affecting fault active, and some pair survives).
    batched: bool,
    /// Surviving pairs in flight, each keyed by the instant both halves
    /// have arrived; keys are pushed in nondecreasing order.
    in_flight: VecDeque<(SimTime, PairRecord)>,
    /// Cached products of the static link parameters.
    p_pair: f64,
    survivors: SurvivorProcess,
    /// The fibers' one-way delays, in ns.
    delay_a_ns: u64,
    delay_b_ns: u64,
    /// Process-unique trace lane: pair ids are sequential per
    /// distributor, so `(lane, pair_id)` identifies a pair globally in
    /// one trace. Allocated unconditionally (an atomic bump) so enabling
    /// tracing mid-run still sees distinct tracks.
    lane: u32,
}

impl EntanglementDistributor {
    /// Builds the pipeline. The caller's `rng` seeds two dedicated
    /// sub-streams (emission gaps vs loss draws) via [`runtime::seed`],
    /// so the replay is a pure function of this one draw no matter how
    /// the distributor is later polled.
    pub fn new<R: Rng + ?Sized>(config: DistributorConfig, rng: &mut R) -> Self {
        let master = rng.next_u64();
        let nic = |c: &DistributorConfig| Qnic::new(c.qnic_capacity, c.memory_lifetime, c.max_age);
        let delay_a = config.link_a.propagation_delay();
        let delay_b = config.link_b.propagation_delay();
        let p_pair = config.link_a.survival_probability() * config.link_b.survival_probability();
        // Pre-size the in-flight FIFO: survivors stay in it for one fiber
        // delay, about `p·λ·delay` at a time; twice that plus slack keeps
        // steady-state pushes allocation-free.
        let in_flight_mean = config.source.rate_hz() * p_pair * delay_a.max(delay_b).as_secs_f64();
        let in_flight =
            VecDeque::with_capacity(((2.0 * in_flight_mean) as usize).min(1 << 16) + 16);
        let lane = trace::next_lane();
        let mut nic_a = nic(&config);
        let mut nic_b = nic(&config);
        nic_a.set_trace_track(trace::Track::Qnic {
            lane,
            side: trace::Side::A,
        });
        nic_b.set_trace_track(trace::Track::Qnic {
            lane,
            side: trace::Side::B,
        });
        EntanglementDistributor {
            nic_a,
            nic_b,
            faults: FaultClock::new(&config.faults),
            p_pair,
            survivors: SurvivorProcess::new(&config.source, p_pair),
            delay_a_ns: delay_a.as_nanos() as u64,
            delay_b_ns: delay_b.as_nanos() as u64,
            lane,
            in_flight,
            config,
            next_pair_id: 0,
            stats: DistributorStats::default(),
            emission_rng: StdRng::seed_from_u64(runtime::seed::stream_seed(master, 0)),
            loss_rng: StdRng::seed_from_u64(runtime::seed::stream_seed(master, 1)),
            last_event: SimTime::ZERO,
            pending: None,
            batched: p_pair > 0.0,
        }
    }

    /// Current pipeline statistics.
    pub fn stats(&self) -> DistributorStats {
        let mut s = self.stats;
        s.dropped_full = self.nic_a.dropped_full + self.nic_b.dropped_full;
        s.expired = self.nic_a.expired + self.nic_b.expired;
        s.clamp_evicted = self.nic_a.clamp_evicted + self.nic_b.clamp_evicted;
        s
    }

    /// Fault on/off edges processed so far.
    pub fn fault_transitions(&self) -> u64 {
        self.faults.transitions()
    }

    /// Pushes the fault state in force at `at` into the NICs: capacity
    /// clamps (evicting over-quota qubits, whose partner halves are
    /// pruned) and lifetime scaling.
    fn apply_fault_state(&mut self, at: SimTime, tracing: bool) {
        let state = self.faults.state();
        for ev in self.nic_a.set_capacity_clamp(state.capacity_clamp) {
            self.nic_b.take_pair_id(ev.pair_id);
            if tracing {
                let track = trace::Track::Qnic {
                    lane: self.lane,
                    side: trace::Side::A,
                };
                trace::pair(track, trace::PairStage::Dropped, ev.pair_id, at.as_nanos());
            }
        }
        for ev in self.nic_b.set_capacity_clamp(state.capacity_clamp) {
            self.nic_a.take_pair_id(ev.pair_id);
            if tracing {
                let track = trace::Track::Qnic {
                    lane: self.lane,
                    side: trace::Side::B,
                };
                trace::pair(track, trace::PairStage::Dropped, ev.pair_id, at.as_nanos());
            }
        }
        self.nic_a.set_lifetime_scale(state.lifetime_factor);
        self.nic_b.set_lifetime_scale(state.lifetime_factor);
    }

    /// Number of pairs currently buffered (present at both endpoints).
    pub fn buffered(&self) -> usize {
        self.nic_a.len().min(self.nic_b.len())
    }

    /// Re-derives the generation regime after a fault edge at `edge`.
    /// When the regime flips, the pending gap draw is discarded and the
    /// next gap starts from the edge — exact by memorylessness: knowing
    /// the pending event lies beyond `edge` makes its residual gap a
    /// fresh exponential from `edge` in either regime.
    fn refresh_regime(&mut self, edge: SimTime) {
        let state = self.faults.state();
        let batched =
            self.p_pair > 0.0 && state.rate_factor >= 1.0 && state.link_a_up && state.link_b_up;
        if batched != self.batched {
            self.batched = batched;
            self.pending = None;
            self.last_event = edge;
        }
    }

    /// True once `t` is past the generation bound (`strict` excludes the
    /// bound itself — used up to a fault edge, which wins its tie).
    fn beyond(t: SimTime, bound: SimTime, strict: bool) -> bool {
        if strict {
            t >= bound
        } else {
            t > bound
        }
    }

    /// Puts a surviving pair in flight. Emissions commit in time order
    /// and the fiber delays are fixed, so the FIFO stays sorted.
    fn schedule_survivor(&mut self, id: u64, emitted_at: SimTime) {
        let arrive_a = SimTime::from_nanos(emitted_at.as_nanos() + self.delay_a_ns);
        let arrive_b = SimTime::from_nanos(emitted_at.as_nanos() + self.delay_b_ns);
        let ready = arrive_a.max(arrive_b);
        assert!(
            self.in_flight.back().is_none_or(|&(last, _)| last <= ready),
            "pair {id} in flight out of time order"
        );
        let record = PairRecord {
            id,
            arrive_a,
            arrive_b,
        };
        self.in_flight.push_back((ready, record));
    }

    /// Commits every source event up to `bound` under the current regime.
    fn generate_until(&mut self, bound: SimTime, strict: bool, tracing: bool) {
        if self.batched {
            self.generate_batched(bound, strict, tracing);
        } else {
            self.generate_per_emission(bound, strict, tracing);
        }
    }

    /// Adds one generate pass's counts to the stats and to the obs
    /// counters. Callers skip a pass that committed no event; a zero count
    /// is not added, so a counter registers only once it counts something.
    fn commit_pass(&mut self, emitted: u64, lost_in_fiber: u64, lost_outage: u64, suppressed: u64) {
        self.stats.emitted += emitted;
        self.stats.lost_in_fiber += lost_in_fiber;
        self.stats.lost_outage += lost_outage;
        self.stats.suppressed += suppressed;
        for (counter, n) in [
            (&EPR_EMITTED, emitted),
            (&EPR_LOST_FIBER, lost_in_fiber),
            (&EPR_LOST_OUTAGE, lost_outage),
            (&EPR_SUPPRESSED, suppressed),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Survivor-process fast path: one gap draw per *surviving* pair
    /// (exponential at `p·λ`) plus one geometric draw tallying the
    /// emissions lost in between.
    fn generate_batched(&mut self, bound: SimTime, strict: bool, tracing: bool) {
        let (mut emitted, mut lost_in_fiber) = (0, 0);
        loop {
            let t = match self.pending {
                Some(t) => t,
                None => {
                    let gap = self.survivors.gap_ns(&mut self.emission_rng);
                    let t = SimTime::from_nanos(self.last_event.as_nanos() + gap);
                    self.pending = Some(t);
                    t
                }
            };
            if Self::beyond(t, bound, strict) {
                break;
            }
            self.pending = None;
            self.last_event = t;
            let lost = self.survivors.lost_before(&mut self.loss_rng);
            emitted += lost + 1;
            lost_in_fiber += lost;
            let id = self.next_pair_id + lost;
            self.next_pair_id += lost + 1;
            // Only the survivor has an individual emission time — the
            // batch-counted fiber losses never go in flight and carry no
            // lifecycle events.
            if tracing {
                trace::pair(
                    trace::Track::Source(self.lane),
                    trace::PairStage::Emitted,
                    id,
                    t.as_nanos(),
                );
            }
            self.schedule_survivor(id, t);
        }
        if emitted > 0 {
            self.commit_pass(emitted, lost_in_fiber, 0, 0);
        }
    }

    /// Exact per-emission path, used while a fault shapes the emission
    /// stream (or no pair survives the fibers): one gap per emitted pair,
    /// then thinning/outage/survival decisions on each.
    fn generate_per_emission(&mut self, bound: SimTime, strict: bool, tracing: bool) {
        let (mut emitted, mut lost_in_fiber, mut lost_outage, mut suppressed) = (0, 0, 0, 0);
        loop {
            let t = match self.pending {
                Some(t) => t,
                None => {
                    let gap = self
                        .config
                        .source
                        .sample_interval_ns(&mut self.emission_rng);
                    let t = SimTime::from_nanos(self.last_event.as_nanos() + gap);
                    self.pending = Some(t);
                    t
                }
            };
            if Self::beyond(t, bound, strict) {
                break;
            }
            self.pending = None;
            self.last_event = t;
            let state = self.faults.state();
            if !self
                .config
                .source
                .brownout_keeps(state.rate_factor, &mut self.loss_rng)
            {
                suppressed += 1;
                continue;
            }
            emitted += 1;
            let id = self.next_pair_id;
            self.next_pair_id += 1;
            // Per-emission mode (faults active): every emitted pair gets
            // an event; pairs the outage or fiber absorbs simply have no
            // later lifecycle stages.
            if tracing {
                trace::pair(
                    trace::Track::Source(self.lane),
                    trace::PairStage::Emitted,
                    id,
                    t.as_nanos(),
                );
            }
            if !(state.link_a_up && state.link_b_up) {
                // A downed link absorbs the pair with certainty — no draw.
                lost_in_fiber += 1;
                lost_outage += 1;
                continue;
            }
            // Both links up: one combined survival draw for the pair.
            if self.p_pair < 1.0 && self.loss_rng.gen::<f64>() >= self.p_pair {
                lost_in_fiber += 1;
                continue;
            }
            self.schedule_survivor(id, t);
        }
        if emitted + suppressed > 0 {
            self.commit_pass(emitted, lost_in_fiber, lost_outage, suppressed);
        }
    }

    /// Stores every pair whose second half has arrived by `bound`.
    fn drain_arrivals(&mut self, bound: SimTime, strict: bool, tracing: bool) {
        let mut stored = 0;
        let mut occupancy = 0;
        while let Some(&(t, rec)) = self.in_flight.front() {
            if Self::beyond(t, bound, strict) {
                break;
            }
            self.in_flight.pop_front();
            stored += 1;
            if tracing {
                let a = trace::Track::Qnic {
                    lane: self.lane,
                    side: trace::Side::A,
                };
                let b = trace::Track::Qnic {
                    lane: self.lane,
                    side: trace::Side::B,
                };
                trace::pair(
                    a,
                    trace::PairStage::FiberArrival,
                    rec.id,
                    rec.arrive_a.as_nanos(),
                );
                trace::pair(
                    b,
                    trace::PairStage::FiberArrival,
                    rec.id,
                    rec.arrive_b.as_nanos(),
                );
            }
            // A full memory overwrites its oldest qubit; the evicted
            // qubit's partner half becomes an orphan and is pruned here
            // (symmetric memories usually evict the same pair). The NICs
            // emit the stored/dropped lifecycle events themselves. Each
            // NIC's length right after its own store feeds the occupancy
            // high-water mark (a prune shrinks only the other NIC).
            if let Some(ev) = self.nic_a.store(rec.id, rec.arrive_a, tracing) {
                self.nic_b.take_pair_id(ev.pair_id);
            }
            let len_a = self.nic_a.len();
            if let Some(ev) = self.nic_b.store(rec.id, rec.arrive_b, tracing) {
                self.nic_a.take_pair_id(ev.pair_id);
            }
            occupancy = occupancy.max(len_a).max(self.nic_b.len());
        }
        if stored > 0 {
            SIM_EVENTS.add(stored);
            QNIC_OCCUPANCY.set_max(occupancy as i64);
        }
    }

    /// Advances the pipeline to `now`: applies fault transitions, emits
    /// pairs, transits fibers, stores survivors, evicts stale qubits.
    /// Fault edges and emissions interleave in time order (edges first on
    /// a tie), so a clamp tripping between two emissions still evicts at
    /// its scheduled instant. Consumes no caller randomness — the plane
    /// runs entirely on its dedicated sub-streams.
    pub fn advance_to(&mut self, now: SimTime) {
        let tracing = trace::enabled();
        while let Some(edge) = self.faults.next_transition() {
            if edge > now {
                break;
            }
            self.generate_until(edge, true, tracing);
            self.drain_arrivals(edge, true, tracing);
            self.faults.advance_through(edge);
            self.apply_fault_state(edge, tracing);
            self.refresh_regime(edge);
        }
        self.generate_until(now, false, tracing);
        self.drain_arrivals(now, false, tracing);
        self.nic_a.evict_expired(now, tracing);
        self.nic_b.evict_expired(now, tracing);
        // Orphan halves (partner evicted or dropped on the other side) are
        // discarded lazily by the consume path and eventually age out —
        // they occupy memory until then, exactly as a real half-pair would.
    }

    /// Pops the next deliverable pair per the consume policy, pruning
    /// orphan halves; counts the miss or the consumption.
    fn pop_delivery(&mut self) -> Option<(StoredQubit, StoredQubit)> {
        loop {
            let taken = match self.config.consume_policy {
                ConsumePolicy::OldestFirst => self.nic_a.take_oldest(),
                ConsumePolicy::FreshestFirst => self.nic_a.take_newest(),
            };
            let Some(qa) = taken else {
                self.stats.misses += 1;
                EPR_MISSES.inc();
                return None;
            };
            let Some(qb) = self.nic_b.take_pair_id(qa.pair_id) else {
                // Orphan half; discard and retry.
                continue;
            };
            self.stats.consumed += 1;
            EPR_CONSUMED.inc();
            return Some((qa, qb));
        }
    }

    /// Accounts one delivery at `now`: the consumed lifecycle event plus
    /// the exact delivery-latency (emission → consumption, recovered from
    /// the A-half's arrival minus the known fiber delay) and per-half
    /// storage-dwell histograms.
    fn record_delivery(&self, qa: &StoredQubit, qb: &StoredQubit, now: SimTime) {
        if trace::enabled() {
            trace::pair(
                trace::Track::Source(self.lane),
                trace::PairStage::Consumed,
                qa.pair_id,
                now.as_nanos(),
            );
        }
        if obs::enabled() {
            let emitted_ns = qa.arrival.as_nanos().saturating_sub(self.delay_a_ns);
            DELIVERY_LATENCY_NS.record(now.as_nanos().saturating_sub(emitted_ns));
            PAIR_DWELL_NS.record(now.as_nanos().saturating_sub(qa.arrival.as_nanos()));
            PAIR_DWELL_NS.record(now.as_nanos().saturating_sub(qb.arrival.as_nanos()));
        }
    }

    /// Consumes a buffered pair at `now` as a full density-matrix
    /// [`SharedPair`], applying storage decay to both halves — the exact
    /// gate-evolution oracle the [`Self::take_werner`] kernel is tested
    /// against.
    /// Returns `None` (and counts a miss) if no pair is available.
    pub fn take_pair(&mut self, now: SimTime) -> Option<SharedPair> {
        self.advance_to(now);
        let (qa, qb) = self.pop_delivery()?;
        self.record_delivery(&qa, &qb, now);
        // Joint state at delivery, then per-half storage decay.
        let rho = if self.config.source.visibility() >= 1.0 {
            DensityMatrix::from_pure(&qsim::bell::phi_plus())
        } else {
            qsim::noise::werner(self.config.source.visibility()).expect("valid visibility")
        };
        let ch_a = self.nic_a.decay_channel(qa.arrival, now);
        let ch_b = self.nic_b.decay_channel(qb.arrival, now);
        let rho = ch_a.apply(&rho, 0).expect("qubit 0 in range");
        let rho = ch_b.apply(&rho, 1).expect("qubit 1 in range");
        Some(SharedPair::from_density(rho).expect("two qubits"))
    }

    /// Consumes a buffered pair at `now` as a closed-form
    /// [`WernerPair`] — the allocation-free kernel path carrying the
    /// source visibility and both halves' storage retentions. Statistics
    /// are identical to [`Self::take_pair`] (proven by the
    /// `werner_stat` equivalence suite). Returns `None` (and counts a
    /// miss) if no pair is available.
    pub fn take_werner(&mut self, now: SimTime) -> Option<WernerPair> {
        self.advance_to(now);
        let (qa, qb) = self.pop_delivery()?;
        self.record_delivery(&qa, &qb, now);
        let retain_a = self.nic_a.retention(qa.arrival, now);
        // Both NICs are built from one config and `apply_fault_state`
        // scales both lifetimes alike, so halves that arrived together
        // (every pair on symmetric fibers) have one retention.
        let retain_b = if qb.arrival == qa.arrival {
            retain_a
        } else {
            self.nic_b.retention(qb.arrival, now)
        };
        Some(
            WernerPair::with_dephasing(self.config.source.visibility(), retain_a, retain_b)
                .expect("visibility and retentions are probabilities"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Party;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_config() -> DistributorConfig {
        DistributorConfig {
            source: EprSource::new(1e6, 1.0),
            link_a: FiberLink::new(0.0),
            link_b: FiberLink::new(0.0),
            qnic_capacity: 64,
            memory_lifetime: Duration::from_micros(100),
            max_age: Duration::from_micros(160),
            consume_policy: ConsumePolicy::OldestFirst,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn pairs_accumulate_ahead_of_demand() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = EntanglementDistributor::new(fast_config(), &mut rng);
        d.advance_to(SimTime::from_micros(30));
        assert!(d.buffered() > 0, "pairs should be buffered");
        let s = d.stats();
        assert!(s.emitted >= d.buffered() as u64);
    }

    #[test]
    fn take_pair_is_immediately_usable() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = EntanglementDistributor::new(fast_config(), &mut rng);
        let mut pair = d
            .take_pair(SimTime::from_micros(50))
            .expect("fast source must have a pair by 50µs");
        // OldestFirst consumption means the pair has accumulated storage
        // dephasing, so only Z-basis agreement is deterministic (the
        // populations are untouched; coherences are not).
        let a = pair.measure_angle(Party::A, 0.0, &mut rng).unwrap();
        let b = pair.measure_angle(Party::B, 0.0, &mut rng).unwrap();
        assert_eq!(a, b);
        assert_eq!(d.stats().consumed, 1);
    }

    #[test]
    fn take_werner_agrees_with_take_pair_statistics() {
        // The kernel path and the oracle path must deliver the same
        // Z-basis statistics from identical distributor dynamics.
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = EntanglementDistributor::new(fast_config(), &mut rng);
        let kernel = d
            .take_werner(SimTime::from_micros(50))
            .expect("fast source must have a pair by 50µs");
        assert_eq!(d.stats().consumed, 1);
        let (a, b) = kernel.sample(0.0, 0.0, &mut rng);
        assert_eq!(a, b, "v = 1 pairs agree deterministically in Z");
        let (da, db) = kernel.retentions();
        assert!(da > 0.0 && da <= 1.0 && db > 0.0 && db <= 1.0);
    }

    #[test]
    fn miss_when_source_too_slow() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = fast_config();
        cfg.source = EprSource::new(10.0, 1.0); // 10 pairs/s: none by 1 µs
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        assert!(d.take_pair(SimTime::from_micros(1)).is_none());
        assert_eq!(d.stats().misses, 1);
        assert!(d.stats().availability() < 1.0);
    }

    #[test]
    fn fiber_loss_reduces_delivery() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cfg = fast_config();
        cfg.link_a = FiberLink::new(50.0); // 10% survival
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        d.advance_to(SimTime::from_micros(500));
        let s = d.stats();
        assert!(s.lost_in_fiber > 0);
        let delivered = s.emitted - s.lost_in_fiber;
        // ~10% should survive the lossy link.
        let rate = delivered as f64 / s.emitted as f64;
        assert!(rate < 0.25, "delivery rate {rate}");
    }

    #[test]
    fn zero_survival_link_counts_every_emission_lost() {
        // 10⁶ dB on one fiber: no pair survives, so there is no survivor
        // process to sample. The plane must count each emission as lost,
        // before and after a fault edge re-derives its regime.
        use crate::faults::{FaultKind, FaultWindow};
        let mut rng = StdRng::seed_from_u64(25);
        let mut cfg = fast_config();
        cfg.link_a = FiberLink::with_attenuation(1.0, 1e6);
        cfg.faults.push(FaultWindow {
            start: SimTime::from_micros(10),
            end: SimTime::from_micros(20),
            kind: FaultKind::SourceBrownout { rate_factor: 0.5 },
        });
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        assert!(d.take_werner(SimTime::from_micros(100)).is_none());
        let s = d.stats();
        // ~100 emissions at 10⁶ pairs/s over 100 µs, ~5 suppressed.
        assert!(s.emitted > 50, "every emission must be counted: {s:?}");
        assert_eq!(s.lost_in_fiber, s.emitted, "{s:?}");
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn batched_and_per_emission_sample_the_same_distribution() {
        // The survivor-process fast path and the per-emission path must
        // agree on delivery statistics (they share no RNG draws, so this
        // is a distribution check, not a byte check): ~10% survival at
        // 10⁶ pairs/s over 2 ms ⇒ ~200 survivors each. With no faults the
        // regime never flips, so forcing it at construction holds.
        let run = |batched: bool, seed: u64| -> (u64, u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cfg = fast_config();
            cfg.link_a = FiberLink::new(50.0);
            cfg.qnic_capacity = 4096;
            cfg.max_age = Duration::from_secs(1);
            let mut d = EntanglementDistributor::new(cfg, &mut rng);
            d.batched = batched;
            d.advance_to(SimTime::from_micros(2000));
            let s = d.stats();
            (s.emitted, s.emitted - s.lost_in_fiber)
        };
        let (b_emitted, b_delivered) = run(true, 40);
        let (p_emitted, p_delivered) = run(false, 41);
        // Both emit ~2000 and deliver ~200; compare survival fractions
        // with a generous statistical margin.
        let bf = b_delivered as f64 / b_emitted as f64;
        let pf = p_delivered as f64 / p_emitted as f64;
        assert!((bf - 0.1).abs() < 0.03, "batched survival {bf}");
        assert!((pf - 0.1).abs() < 0.03, "per-emission survival {pf}");
    }

    #[test]
    fn capacity_pressure_counts_drops() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cfg = fast_config();
        cfg.qnic_capacity = 2;
        cfg.max_age = Duration::from_secs(1); // no eviction interference
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        d.advance_to(SimTime::from_micros(100));
        assert!(d.stats().dropped_full > 0);
        assert!(d.buffered() <= 2);
    }

    #[test]
    fn total_link_outage_delivers_nothing_and_counts_losses() {
        use crate::faults::{FaultKind, FaultWindow, LinkSide};
        let mut rng = StdRng::seed_from_u64(21);
        let mut cfg = fast_config();
        cfg.faults.push(FaultWindow {
            start: SimTime::ZERO + Duration::from_nanos(1),
            end: SimTime::from_micros(500),
            kind: FaultKind::LinkOutage(LinkSide::Both),
        });
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        d.advance_to(SimTime::from_micros(100));
        let s = d.stats();
        assert!(s.emitted > 0);
        assert_eq!(s.lost_outage, s.emitted, "every pair dies in the outage");
        assert_eq!(s.lost_in_fiber, s.emitted);
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.fault_transitions(), 1, "only the on-edge so far");
    }

    #[test]
    fn brownout_thins_emissions() {
        use crate::faults::{FaultKind, FaultWindow};
        let mut rng = StdRng::seed_from_u64(22);
        let mut cfg = fast_config();
        cfg.faults.push(FaultWindow {
            start: SimTime::ZERO + Duration::from_nanos(1),
            end: SimTime::from_micros(500),
            kind: FaultKind::SourceBrownout { rate_factor: 0.1 },
        });
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        d.advance_to(SimTime::from_micros(200));
        let s = d.stats();
        assert!(s.suppressed > 0);
        // ~90% of the ~200 scheduled emissions are suppressed.
        let kept = s.emitted as f64 / (s.emitted + s.suppressed) as f64;
        assert!(kept < 0.25, "kept fraction {kept}");
    }

    #[test]
    fn clamp_evicts_midstream_and_prunes_partners() {
        use crate::faults::{FaultKind, FaultWindow};
        let mut rng = StdRng::seed_from_u64(23);
        let mut cfg = fast_config();
        cfg.max_age = Duration::from_secs(1); // isolate the clamp effect
        cfg.faults.push(FaultWindow {
            start: SimTime::from_micros(50),
            end: SimTime::from_micros(80),
            kind: FaultKind::QnicClamp { capacity: 1 },
        });
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        d.advance_to(SimTime::from_micros(40));
        assert!(d.buffered() > 1, "buffer filled before the clamp");
        d.advance_to(SimTime::from_micros(60));
        assert!(d.buffered() <= 1, "clamp took effect mid-run");
        assert!(d.stats().clamp_evicted > 0);
        d.advance_to(SimTime::from_micros(100));
        assert!(d.buffered() > 1, "clamp released, buffer refills");
    }

    #[test]
    fn empty_fault_plan_preserves_the_rng_stream() {
        // The fault hooks must not draw randomness when no fault is
        // active: a run with an empty plan is byte-identical to one with
        // no plan at all.
        let run = |cfg: DistributorConfig| -> (DistributorStats, u64) {
            let mut rng = StdRng::seed_from_u64(24);
            let mut d = EntanglementDistributor::new(cfg, &mut rng);
            let mut consumed_seq = 0u64;
            let mut now = SimTime::ZERO;
            for i in 0..40 {
                now += Duration::from_micros(7);
                if d.take_pair(now).is_some() {
                    consumed_seq |= 1 << i;
                }
            }
            (d.stats(), consumed_seq)
        };
        let nominal = run(fast_config());
        let mut with_plan = fast_config();
        with_plan.faults = FaultPlan::none();
        assert_eq!(run(with_plan), nominal);
    }

    #[test]
    fn replay_is_independent_of_polling_cadence() {
        // Dedicated sub-streams mean the emission/loss replay is fixed at
        // construction: polling every 7 µs or once at 280 µs must emit
        // and deliver the identical pair stream.
        let run = |steps: u64| -> DistributorStats {
            let mut rng = StdRng::seed_from_u64(77);
            let mut cfg = fast_config();
            cfg.max_age = Duration::from_secs(1);
            cfg.qnic_capacity = 4096;
            let mut d = EntanglementDistributor::new(cfg, &mut rng);
            let step = Duration::from_micros(280 / steps);
            let mut now = SimTime::ZERO;
            for _ in 0..steps {
                now += step;
                d.advance_to(now);
            }
            d.advance_to(SimTime::from_micros(280));
            d.stats()
        };
        let fine = run(40);
        let coarse = run(1);
        assert_eq!(fine, coarse, "replay must not depend on polling");
        assert!(fine.emitted > 0);
    }

    #[test]
    fn stale_pairs_expire() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = fast_config();
        cfg.source = EprSource::new(1e5, 1.0);
        let mut d = EntanglementDistributor::new(cfg, &mut rng);
        d.advance_to(SimTime::from_micros(100));
        let buffered_early = d.buffered();
        assert!(buffered_early > 0);
        // Jump far ahead with no consumption: everything currently
        // buffered must expire (160 µs max age).
        d.advance_to(SimTime::from_secs_f64(0.01));
        assert!(d.stats().expired > 0);
    }

    #[test]
    fn stored_pairs_decohere() {
        // Consume a pair held ≈ τ: same-basis agreement drops below 1.
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 2_000;
        let mut agree = 0usize;
        for _ in 0..trials {
            let mut cfg = fast_config();
            cfg.source = EprSource::new(1e6, 1.0);
            cfg.max_age = Duration::from_secs(1);
            let mut d = EntanglementDistributor::new(cfg, &mut rng);
            // Fill buffer early, then consume late: held time ≈ 100µs = τ.
            d.advance_to(SimTime::from_micros(5));
            if d.buffered() == 0 {
                continue;
            }
            // Stop emission from interfering by consuming the *oldest*.
            let mut pair = match d.take_pair(SimTime::from_micros(105)) {
                Some(p) => p,
                None => continue,
            };
            let a = pair.measure_angle(Party::A, 0.0, &mut rng).unwrap();
            let b = pair.measure_angle(Party::B, 0.0, &mut rng).unwrap();
            agree += usize::from(a == b);
        }
        let f = agree as f64 / trials as f64;
        // Z-basis agreement survives dephasing (populations untouched) —
        // so agreement in the computational basis stays high...
        assert!(f > 0.9, "computational-basis agreement {f}");
    }

    #[test]
    fn decoherence_hurts_x_basis_agreement() {
        // ... but X-basis (θ = π/4) agreement is destroyed by dephasing.
        let mut rng = StdRng::seed_from_u64(8);
        let theta = std::f64::consts::FRAC_PI_4;
        let trials = 2_000;
        let mut agree_fresh = 0usize;
        let mut agree_stale = 0usize;
        let mut n_fresh = 0usize;
        let mut n_stale = 0usize;
        for _ in 0..trials {
            let mut cfg = fast_config();
            cfg.max_age = Duration::from_secs(1);
            let mut d = EntanglementDistributor::new(cfg, &mut rng);
            d.advance_to(SimTime::from_micros(5));
            if let Some(mut p) = d.take_pair(SimTime::from_micros(6)) {
                let a = p.measure_angle(Party::A, theta, &mut rng).unwrap();
                let b = p.measure_angle(Party::B, theta, &mut rng).unwrap();
                agree_fresh += usize::from(a == b);
                n_fresh += 1;
            }
            let mut d2 = EntanglementDistributor::new(fast_config(), &mut rng);
            d2.advance_to(SimTime::from_micros(5));
            if let Some(mut p) = d2.take_pair(SimTime::from_micros(155)) {
                let a = p.measure_angle(Party::A, theta, &mut rng).unwrap();
                let b = p.measure_angle(Party::B, theta, &mut rng).unwrap();
                agree_stale += usize::from(a == b);
                n_stale += 1;
            }
        }
        let f_fresh = agree_fresh as f64 / n_fresh.max(1) as f64;
        let f_stale = agree_stale as f64 / n_stale.max(1) as f64;
        assert!(
            f_fresh > f_stale + 0.1,
            "fresh {f_fresh} should beat stale {f_stale}"
        );
    }
}
