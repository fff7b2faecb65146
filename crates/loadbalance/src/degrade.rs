//! Degradation-aware coordination: graceful fallback under faults.
//!
//! The entanglement plane fails in ways classical networks don't — link
//! outages kill every in-flight photon, source brownouts starve the
//! buffers, decoherence spikes rot what's stored. A load balancer wired
//! directly to [`crate::pipeline::PipelinePairedQuantum`] would silently
//! degrade into its per-round miss path. This module makes degradation a
//! *first-class, observable mode change* instead:
//!
//! - [`FallbackGovernor`] watches pair delivery over a sliding window and
//!   switches between three [`CoordinationMode`]s with hysteresis
//!   (distinct trip and recover thresholds plus a minimum dwell time, so
//!   a noisy delivery rate cannot flap the mode).
//! - [`Degrading`] wraps the pipeline strategy: in `Quantum` mode it
//!   plays flipped CHSH off real buffered pairs; in `ClassicalShared`
//!   mode it falls back to the best classical pairing (always-split via
//!   pre-shared randomness, CHSH value 0.75); in `IndependentRandom`
//!   mode — the deep-fault floor where even shared randomness is assumed
//!   stale — each balancer picks servers independently. In the classical
//!   modes the hardware keeps being polled at the same cadence, so the
//!   governor can see delivery recover once the fault clears.
//!
//! Every transition is counted through `qnlg-obs`
//! (`qnlg.fallback.*`), so a repro artifact can assert the chaos schedule
//! actually exercised the state machine.

use crate::pipeline::PipelinePairedQuantum;
use crate::strategy::{AssignmentStrategy, Placement, Strategy};
use crate::task::TaskType;
use obs::{LazyCounter, LazyGauge};
use qnet::DistributorConfig;
use rand::Rng;
use std::collections::VecDeque;
use std::time::Duration;

static FALLBACK_TRANSITIONS: LazyCounter = LazyCounter::new("qnlg.fallback.transitions");
static FALLBACK_TO_QUANTUM: LazyCounter = LazyCounter::new("qnlg.fallback.to_quantum");
static FALLBACK_TO_CLASSICAL: LazyCounter = LazyCounter::new("qnlg.fallback.to_classical");
static FALLBACK_TO_INDEPENDENT: LazyCounter = LazyCounter::new("qnlg.fallback.to_independent");
static ROUNDS_QUANTUM: LazyCounter = LazyCounter::new("qnlg.fallback.rounds.quantum");
static ROUNDS_CLASSICAL: LazyCounter = LazyCounter::new("qnlg.fallback.rounds.classical");
static ROUNDS_INDEPENDENT: LazyCounter = LazyCounter::new("qnlg.fallback.rounds.independent");
static FALLBACK_MODE: LazyGauge = LazyGauge::new("qnlg.fallback.mode");

/// How a balancer pair coordinates this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinationMode {
    /// Flipped CHSH over real buffered pairs (win rate ≈ 0.8536 when
    /// pairs flow).
    Quantum,
    /// Best classical pairing: always-split via pre-shared randomness
    /// (win rate 0.75).
    ClassicalShared,
    /// Deep-fault floor: independent uniform choices, no shared resource
    /// at all.
    IndependentRandom,
}

impl CoordinationMode {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CoordinationMode::Quantum => "quantum",
            CoordinationMode::ClassicalShared => "classical-shared",
            CoordinationMode::IndependentRandom => "independent-random",
        }
    }

    fn gauge_value(self) -> i64 {
        match self {
            CoordinationMode::Quantum => 0,
            CoordinationMode::ClassicalShared => 1,
            CoordinationMode::IndependentRandom => 2,
        }
    }

    fn index(self) -> usize {
        self.gauge_value() as usize
    }

    /// Trace instant name for a transition *into* this mode.
    pub fn trace_name(self) -> &'static str {
        match self {
            CoordinationMode::Quantum => "mode.quantum",
            CoordinationMode::ClassicalShared => "mode.classical-shared",
            CoordinationMode::IndependentRandom => "mode.independent-random",
        }
    }
}

/// Hysteresis thresholds for the fallback state machine.
///
/// All thresholds are windowed pair-delivery rates (delivered / polled
/// over the last [`Self::window`] rounds). Trip thresholds must sit
/// strictly below their recover counterparts; the open interval between
/// them is the dead band in which the governor holds its current mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// Sliding-window length, in rounds.
    pub window: usize,
    /// Quantum → ClassicalShared when the rate falls below this.
    pub trip: f64,
    /// ClassicalShared → Quantum when the rate rises to this or above.
    pub recover: f64,
    /// Anything → IndependentRandom when the rate falls below this.
    pub deep_trip: f64,
    /// IndependentRandom → ClassicalShared when the rate reaches this
    /// (recovery re-enters quantum via the classical tier, never in one
    /// jump).
    pub deep_recover: f64,
    /// Minimum rounds to dwell in a mode before the next transition.
    pub min_dwell: u64,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        HysteresisConfig {
            window: 8,
            trip: 0.5,
            recover: 0.8,
            deep_trip: 0.02,
            deep_recover: 0.25,
            min_dwell: 4,
        }
    }
}

impl HysteresisConfig {
    fn validate(&self) {
        assert!(self.window >= 1, "window must be at least one round");
        assert!(self.min_dwell >= 1, "min_dwell must be at least one round");
        assert!(
            0.0 <= self.deep_trip && self.deep_trip < self.deep_recover,
            "need deep_trip < deep_recover"
        );
        assert!(
            self.deep_trip < self.trip && self.trip < self.recover && self.recover <= 1.0,
            "need deep_trip < trip < recover <= 1"
        );
        assert!(
            self.deep_recover <= self.recover,
            "deep_recover must not exceed recover"
        );
    }
}

/// The hysteretic fallback state machine. Pure bookkeeping — it never
/// touches hardware or randomness, so it is exactly testable with
/// synthetic delivery traces.
#[derive(Debug)]
pub struct FallbackGovernor {
    config: HysteresisConfig,
    window: VecDeque<(u64, u64)>,
    /// Σ delivered and Σ polled over `window`, updated as rounds enter
    /// and leave it.
    sums: (u64, u64),
    mode: CoordinationMode,
    dwell: u64,
    transitions: u64,
    entries: [u64; 3],
    rounds: [u64; 3],
}

impl FallbackGovernor {
    /// A governor starting in [`CoordinationMode::Quantum`].
    ///
    /// # Panics
    /// Panics if the config's thresholds are not strictly ordered
    /// (`deep_trip < trip < recover`, `deep_trip < deep_recover ≤
    /// recover`) or its window/dwell are zero.
    pub fn new(config: HysteresisConfig) -> Self {
        config.validate();
        FallbackGovernor {
            config,
            window: VecDeque::with_capacity(config.window),
            sums: (0, 0),
            mode: CoordinationMode::Quantum,
            dwell: 0,
            transitions: 0,
            entries: [0; 3],
            rounds: [0; 3],
        }
    }

    /// Current mode.
    pub fn mode(&self) -> CoordinationMode {
        self.mode
    }

    /// Total mode transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Times each mode has been *entered* (indexed quantum, classical,
    /// independent; the initial Quantum state is not counted).
    pub fn entries(&self) -> [u64; 3] {
        self.entries
    }

    /// Rounds spent in each mode (indexed quantum, classical,
    /// independent).
    pub fn rounds(&self) -> [u64; 3] {
        self.rounds
    }

    /// Windowed delivery rate, or `None` until a full window with at
    /// least one poll has accumulated.
    pub fn window_rate(&self) -> Option<f64> {
        if self.window.len() < self.config.window {
            return None;
        }
        let (delivered, polled) = self.sums;
        if polled == 0 {
            return None;
        }
        Some(delivered as f64 / polled as f64)
    }

    /// Feeds one round of delivery evidence (`delivered` pairs out of
    /// `polled` attempts) and returns the mode to use for the *next*
    /// round.
    pub fn observe(&mut self, delivered: u64, polled: u64) -> CoordinationMode {
        debug_assert!(
            delivered <= polled,
            "delivered {delivered} > polled {polled}"
        );
        match self.mode {
            CoordinationMode::Quantum => ROUNDS_QUANTUM.inc(),
            CoordinationMode::ClassicalShared => ROUNDS_CLASSICAL.inc(),
            CoordinationMode::IndependentRandom => ROUNDS_INDEPENDENT.inc(),
        }
        self.rounds[self.mode.index()] += 1;
        if self.window.len() == self.config.window {
            let (d, p) = self.window.pop_front().expect("a full window");
            self.sums = (self.sums.0 - d, self.sums.1 - p);
        }
        self.window.push_back((delivered, polled));
        self.sums = (self.sums.0 + delivered, self.sums.1 + polled);
        self.dwell += 1;
        if self.dwell < self.config.min_dwell {
            return self.mode;
        }
        let Some(rate) = self.window_rate() else {
            return self.mode;
        };
        let c = self.config;
        let next = match self.mode {
            CoordinationMode::Quantum if rate < c.deep_trip => CoordinationMode::IndependentRandom,
            CoordinationMode::Quantum if rate < c.trip => CoordinationMode::ClassicalShared,
            CoordinationMode::ClassicalShared if rate < c.deep_trip => {
                CoordinationMode::IndependentRandom
            }
            CoordinationMode::ClassicalShared if rate >= c.recover => CoordinationMode::Quantum,
            CoordinationMode::IndependentRandom if rate >= c.deep_recover => {
                CoordinationMode::ClassicalShared
            }
            hold => hold,
        };
        if next != self.mode {
            self.transition_to(next);
        }
        self.mode
    }

    /// [`Self::observe`] for a *routed chain* (metro topology): pairs
    /// delivered below the CHSH crossover visibility `1/√2` cannot beat
    /// classical coordination, so they count as zero evidence — a chain
    /// re-routed onto a lossy backup trunk trips the governor even while
    /// its delivered-pair *rate* stays healthy. `delivered` out of
    /// `requested` attempts arrived, at end-to-end visibility
    /// `visibility`.
    pub fn observe_delivery(
        &mut self,
        delivered: u64,
        requested: u64,
        visibility: f64,
    ) -> CoordinationMode {
        let effective = if visibility > qsim::noise::WERNER_CHSH_THRESHOLD {
            delivered
        } else {
            0
        };
        self.observe(effective, requested)
    }

    fn transition_to(&mut self, next: CoordinationMode) {
        self.mode = next;
        self.dwell = 0;
        self.transitions += 1;
        self.entries[next.index()] += 1;
        FALLBACK_TRANSITIONS.inc();
        match next {
            CoordinationMode::Quantum => FALLBACK_TO_QUANTUM.inc(),
            CoordinationMode::ClassicalShared => FALLBACK_TO_CLASSICAL.inc(),
            CoordinationMode::IndependentRandom => FALLBACK_TO_INDEPENDENT.inc(),
        }
        FALLBACK_MODE.set(next.gauge_value());
    }
}

/// The degradation-aware strategy: [`PipelinePairedQuantum`] wrapped in a
/// [`FallbackGovernor`].
pub struct Degrading {
    inner: PipelinePairedQuantum,
    governor: FallbackGovernor,
    /// The classical-shared tier's placement: always-split.
    split: Placement,
    /// The independent tier's placement: uniform.
    independent: Placement,
    pair_rounds: u64,
    /// Trace timeline for this governor's window evaluations and mode
    /// transitions.
    track: trace::Track,
}

impl Degrading {
    /// Builds the wrapped pipeline strategy. Parameters as in
    /// [`PipelinePairedQuantum::new`], plus the hysteresis thresholds.
    ///
    /// # Panics
    /// Panics on invalid pipeline or hysteresis parameters (see
    /// [`PipelinePairedQuantum::new`] and [`FallbackGovernor::new`]).
    pub fn new<R: Rng>(
        n_balancers: usize,
        n_servers: usize,
        pipeline: DistributorConfig,
        timestep: Duration,
        hysteresis: HysteresisConfig,
        rng: &mut R,
    ) -> Self {
        Degrading {
            inner: PipelinePairedQuantum::new(n_balancers, n_servers, pipeline, timestep, rng),
            governor: FallbackGovernor::new(hysteresis),
            split: Placement::new(Strategy::PairedAlwaysSplit, n_servers).expect("not round robin"),
            independent: Placement::new(Strategy::UniformRandom, n_servers)
                .expect("not round robin"),
            pair_rounds: 0,
            track: trace::Track::Governor(trace::next_lane()),
        }
    }

    /// The governor (mode, transition counts, windowed rate).
    pub fn governor(&self) -> &FallbackGovernor {
        &self.governor
    }

    /// The wrapped pipeline strategy.
    pub fn pipeline(&self) -> &PipelinePairedQuantum {
        &self.inner
    }

    /// Fraction of pair-decision rounds coordinated with a real quantum
    /// pair (1.0 when the plane is healthy; drops during faults).
    pub fn coordinated_fraction(&self) -> f64 {
        if self.pair_rounds == 0 {
            return 0.0;
        }
        self.inner.stats().quantum_rounds as f64 / self.pair_rounds as f64
    }
}

impl AssignmentStrategy for Degrading {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        self.pair_rounds += (tasks.len() / 2) as u64;
        let mode_before = self.governor.mode();
        let (out, delivered, polled) = match mode_before {
            CoordinationMode::Quantum => {
                let before = self.inner.stats();
                let out = self.inner.assign_all(tasks, queue_lens, rng);
                let after = self.inner.stats();
                let delivered = after.quantum_rounds - before.quantum_rounds;
                let polled = delivered + (after.fallback_rounds - before.fallback_rounds);
                (out, delivered, polled)
            }
            CoordinationMode::ClassicalShared => {
                let (delivered, polled) = self.inner.poll_delivery();
                let out = self.split.assign_all(tasks, queue_lens, rng);
                (out, delivered, polled)
            }
            CoordinationMode::IndependentRandom => {
                let (delivered, polled) = self.inner.poll_delivery();
                let out = self.independent.assign_all(tasks, queue_lens, rng);
                (out, delivered, polled)
            }
        };
        let mode_after = self.governor.observe(delivered, polled);
        if trace::enabled() {
            // Governor timeline: one instant per window evaluation, plus
            // a named instant on each mode transition — the degradation
            // story of a chaos run at a glance in Perfetto.
            let t = self.inner.now().as_nanos();
            trace::instant_sim(self.track, "governor.eval", t);
            if mode_after != mode_before {
                trace::instant_sim(self.track, mode_after.trace_name(), t);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        // The "paired" prefix opts into the simulator's pair statistics.
        "paired-degrading"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_hysteresis() -> HysteresisConfig {
        HysteresisConfig {
            window: 4,
            min_dwell: 2,
            ..HysteresisConfig::default()
        }
    }

    #[test]
    fn starts_quantum_and_holds_under_full_delivery() {
        let mut g = FallbackGovernor::new(quick_hysteresis());
        for _ in 0..50 {
            assert_eq!(g.observe(10, 10), CoordinationMode::Quantum);
        }
        assert_eq!(g.transitions(), 0);
    }

    #[test]
    fn trips_to_classical_then_recovers() {
        let mut g = FallbackGovernor::new(quick_hysteresis());
        for _ in 0..10 {
            g.observe(10, 10);
        }
        for _ in 0..10 {
            g.observe(1, 10); // 10% delivery: below trip, above deep_trip
        }
        assert_eq!(g.mode(), CoordinationMode::ClassicalShared);
        for _ in 0..10 {
            g.observe(10, 10);
        }
        assert_eq!(g.mode(), CoordinationMode::Quantum);
        assert_eq!(g.transitions(), 2);
    }

    #[test]
    fn total_blackout_reaches_independent_and_steps_back_up() {
        let mut g = FallbackGovernor::new(quick_hysteresis());
        for _ in 0..20 {
            g.observe(0, 10);
        }
        assert_eq!(g.mode(), CoordinationMode::IndependentRandom);
        // Recovery is tiered: independent → classical → quantum.
        for _ in 0..20 {
            g.observe(10, 10);
        }
        assert_eq!(g.mode(), CoordinationMode::Quantum);
        assert_eq!(g.entries(), [1, 1, 1]);
    }

    #[test]
    fn dead_band_rate_never_flaps() {
        // 65% sits between trip (50%) and recover (80%): whatever mode
        // the governor is in, it must hold it.
        let mut g = FallbackGovernor::new(quick_hysteresis());
        for _ in 0..40 {
            g.observe(13, 20);
        }
        assert_eq!(g.mode(), CoordinationMode::Quantum);
        assert_eq!(g.transitions(), 0);
    }

    #[test]
    fn empty_window_reports_no_rate() {
        let mut g = FallbackGovernor::new(quick_hysteresis());
        assert_eq!(g.window_rate(), None);
        g.observe(0, 0);
        g.observe(0, 0);
        g.observe(0, 0);
        g.observe(0, 0);
        // Full window but zero polls: still no evidence, no transition.
        assert_eq!(g.window_rate(), None);
        assert_eq!(g.mode(), CoordinationMode::Quantum);
    }

    #[test]
    fn sub_threshold_visibility_trips_despite_healthy_rate() {
        // Full delivery at v = 0.63 (< 1/√2): the pairs arrive but cannot
        // witness advantage, so the governor must leave Quantum.
        let mut g = FallbackGovernor::new(quick_hysteresis());
        for _ in 0..20 {
            g.observe_delivery(10, 10, 0.63);
        }
        assert_eq!(g.mode(), CoordinationMode::IndependentRandom);
        // Back above the crossover: tiered recovery to Quantum.
        for _ in 0..20 {
            g.observe_delivery(10, 10, 0.9);
        }
        assert_eq!(g.mode(), CoordinationMode::Quantum);
    }

    #[test]
    fn above_threshold_visibility_passes_delivery_through() {
        let mut g = FallbackGovernor::new(quick_hysteresis());
        for _ in 0..50 {
            assert_eq!(g.observe_delivery(10, 10, 0.85), CoordinationMode::Quantum);
        }
        assert_eq!(g.transitions(), 0);
    }

    #[test]
    fn window_rate_equals_the_fold_over_the_window() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for window in [1, 2, 8] {
            let mut g = FallbackGovernor::new(HysteresisConfig {
                window,
                ..HysteresisConfig::default()
            });
            let mut rounds = Vec::new();
            for _ in 0..2_000 {
                let polled = rng.gen_range(0..4u64);
                let delivered = rng.gen_range(0..polled + 1);
                g.observe(delivered, polled);
                rounds.push((delivered, polled));
                let last = &rounds[rounds.len().saturating_sub(window)..];
                let (d, p) = last
                    .iter()
                    .fold((0u64, 0u64), |(d, p), &(dd, pp)| (d + dd, p + pp));
                let fold = (last.len() == window && p > 0).then(|| d as f64 / p as f64);
                assert_eq!(g.window_rate(), fold, "window {window}");
            }
            assert!(g.transitions() > 0, "window {window}: no mode change");
        }
    }

    #[test]
    #[should_panic(expected = "deep_trip < trip < recover")]
    fn inverted_thresholds_panic() {
        FallbackGovernor::new(HysteresisConfig {
            trip: 0.9,
            recover: 0.8,
            ..HysteresisConfig::default()
        });
    }
}
