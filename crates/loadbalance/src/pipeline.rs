//! The fully-integrated quantum strategy: CHSH pairing driven by a live
//! simulated entanglement-distribution pipeline.
//!
//! [`crate::strategy::Strategy::PairedQuantum`] abstracts the hardware
//! into two numbers (availability, visibility). This module removes the
//! abstraction: each balancer pair owns an
//! [`qnet::EntanglementDistributor`] — SPDC source, two fibers, two
//! QNICs with finite memory lifetime — and every coordination round
//! consumes an actual buffered pair, with whatever storage decoherence it
//! accumulated. Misses fall back to the classical always-split rule.
//!
//! This is experiment E8's engine: the end-to-end Figure 4 effect of real
//! source rates and memory lifetimes.

use crate::strategy::{AssignmentStrategy, Placement, Strategy};
use crate::task::TaskType;
use games::pairing;
use qnet::{DistributorConfig, EntanglementDistributor, SimTime};
use rand::Rng;
use std::time::Duration;

/// Counters describing how the pipeline-backed strategy behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Rounds coordinated with a real pair.
    pub quantum_rounds: u64,
    /// Rounds that fell back to the classical rule (no pair buffered).
    pub fallback_rounds: u64,
}

impl PipelineStats {
    /// Fraction of rounds that used a quantum pair.
    pub fn quantum_fraction(&self) -> f64 {
        let total = self.quantum_rounds + self.fallback_rounds;
        if total == 0 {
            return 0.0;
        }
        self.quantum_rounds as f64 / total as f64
    }
}

/// A paired-CHSH strategy whose entanglement comes from per-pair
/// simulated distribution pipelines.
pub struct PipelinePairedQuantum {
    /// Always-split, the rule of a round without a pair: its paired
    /// placement and odd-balancer rule place every round.
    split: Placement,
    timestep: Duration,
    now: SimTime,
    distributors: Vec<EntanglementDistributor>,
    stats: PipelineStats,
}

impl PipelinePairedQuantum {
    /// Builds the strategy: one distribution pipeline per balancer pair,
    /// each configured identically. `timestep` is the wall-clock duration
    /// of one simulation step (the paper's "task execution time ≈ RTT"
    /// regime corresponds to tens of microseconds).
    ///
    /// # Panics
    /// Panics if `n_servers < 2`, `n_balancers == 0`, or `timestep` is
    /// zero.
    pub fn new<R: Rng>(
        n_balancers: usize,
        n_servers: usize,
        pipeline: DistributorConfig,
        timestep: Duration,
        rng: &mut R,
    ) -> Self {
        assert!(n_servers >= 2, "need at least two servers");
        assert!(n_balancers > 0, "need balancers");
        assert!(!timestep.is_zero(), "timestep must be positive");
        let n_pairs = n_balancers / 2;
        let distributors = (0..n_pairs)
            .map(|_| EntanglementDistributor::new(pipeline.clone(), rng))
            .collect();
        PipelinePairedQuantum {
            split: Placement::new(Strategy::PairedAlwaysSplit, n_servers).expect("not round robin"),
            timestep,
            now: SimTime::ZERO,
            distributors,
            stats: PipelineStats::default(),
        }
    }

    /// Behaviour counters so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Aggregated distributor statistics across all pairs.
    pub fn distributor_stats(&self) -> qnet::DistributorStats {
        let mut total = qnet::DistributorStats::default();
        for d in &self.distributors {
            let s = d.stats();
            total.emitted += s.emitted;
            total.lost_in_fiber += s.lost_in_fiber;
            total.dropped_full += s.dropped_full;
            total.expired += s.expired;
            total.consumed += s.consumed;
            total.misses += s.misses;
            total.lost_outage += s.lost_outage;
            total.suppressed += s.suppressed;
            total.clamp_evicted += s.clamp_evicted;
        }
        total
    }

    /// Number of balancer pairs (= distribution pipelines).
    pub fn n_pairs(&self) -> usize {
        self.distributors.len()
    }

    /// Current simulation time (advanced one timestep per round).
    pub fn now(&self) -> qnet::SimTime {
        self.now
    }

    /// Total fault-window edges replayed across all pipelines.
    pub fn fault_transitions(&self) -> u64 {
        self.distributors
            .iter()
            .map(|d| d.fault_transitions())
            .sum()
    }

    /// Advances every pipeline one timestep and polls each for a pair,
    /// without coordinating any tasks. Returns `(delivered, polled)`.
    ///
    /// This is the degradation probe: while a
    /// [`crate::degrade::FallbackGovernor`] holds the strategy in a
    /// classical mode, the wrapper keeps calling this so the hardware
    /// keeps running (and consuming pairs at the same cadence), letting
    /// the governor observe delivery recover after a fault clears.
    pub fn poll_delivery(&mut self) -> (u64, u64) {
        self.now += self.timestep;
        let mut delivered = 0u64;
        for d in &mut self.distributors {
            if d.take_werner(self.now).is_some() {
                delivered += 1;
            }
        }
        (delivered, self.distributors.len() as u64)
    }
}

impl AssignmentStrategy for PipelinePairedQuantum {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        self.now += self.timestep;
        let now = self.now;
        let stats = &mut self.stats;
        let mut pipelines = self.distributors.iter_mut();
        let split = &self.split;
        split.place_all(tasks, queue_lens, rng, |x, y, rng| {
            split.paired(x, y, rng, |x, y, rng| {
                let pipeline = pipelines.next().expect("one pipeline per balancer pair");
                match pipeline.take_werner(now) {
                    Some(pair) => {
                        stats.quantum_rounds += 1;
                        pairing::werner_bits(&pair, x, y, rng)
                    }
                    None => {
                        stats.fallback_rounds += 1;
                        pairing::SPLIT
                    }
                }
            })
        })
    }

    fn name(&self) -> &'static str {
        "paired-pipeline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Discipline;
    use crate::sim::{run_simulation, run_simulation_with, SimConfig};
    use crate::strategy::Strategy;
    use crate::task::BernoulliWorkload;
    use qnet::{ConsumePolicy, EprSource, FiberLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_pipeline(rate_hz: f64) -> DistributorConfig {
        DistributorConfig {
            source: EprSource::new(rate_hz, 1.0),
            link_a: FiberLink::new(0.1),
            link_b: FiberLink::new(0.1),
            qnic_capacity: 16,
            memory_lifetime: Duration::from_micros(100),
            max_age: Duration::from_micros(80),
            consume_policy: ConsumePolicy::FreshestFirst,
            faults: qnet::FaultPlan::none(),
        }
    }

    fn quick(load: f64) -> SimConfig {
        SimConfig {
            n_balancers: 40,
            n_servers: (40.0 / load).round() as usize,
            timesteps: 500,
            warmup: 150,
            discipline: Discipline::PaperPairedC,
        }
    }

    #[test]
    fn fast_source_matches_ideal_quantum() {
        // 1M pairs/s vs 10k decisions/s per pair: never starved, perfect
        // pairs → queue lengths within noise of the ideal abstraction.
        let load = 1.1;
        let config = quick(load);
        let mut rng = StdRng::seed_from_u64(1);
        let mut strat = PipelinePairedQuantum::new(
            config.n_balancers,
            config.n_servers,
            fast_pipeline(1e6),
            Duration::from_micros(100),
            &mut rng,
        );
        let piped = run_simulation_with(
            config,
            &mut strat,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(strat.stats().quantum_fraction() > 0.99);
        let ideal = run_simulation(
            config,
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        let rel = (piped.avg_queue_len - ideal.avg_queue_len).abs() / ideal.avg_queue_len.max(1e-9);
        assert!(
            rel < 0.4,
            "pipeline {} vs ideal {}",
            piped.avg_queue_len,
            ideal.avg_queue_len
        );
        // Pair stats reflect real CHSH coordination.
        assert!(
            (piped.cc_colocation_rate - games::chsh_quantum_value()).abs() < 0.04,
            "CC co-location {}",
            piped.cc_colocation_rate
        );
    }

    #[test]
    fn starved_source_degenerates_to_classical_split() {
        // 100 pairs/s against 10k decisions/s: essentially every round
        // falls back.
        let load = 1.1;
        let config = quick(load);
        let mut rng = StdRng::seed_from_u64(2);
        let mut strat = PipelinePairedQuantum::new(
            config.n_balancers,
            config.n_servers,
            fast_pipeline(100.0),
            Duration::from_micros(100),
            &mut rng,
        );
        let piped = run_simulation_with(
            config,
            &mut strat,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(strat.stats().quantum_fraction() < 0.1);
        // Fallback is always-split: CC co-location ≈ 0.
        assert!(
            piped.cc_colocation_rate < 0.1,
            "CC co-location {}",
            piped.cc_colocation_rate
        );
    }

    #[test]
    fn queue_length_improves_with_source_rate() {
        let load = 1.15;
        let config = quick(load);
        let mut results = Vec::new();
        for (i, rate) in [3e3, 3e4, 1e6].iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(10 + i as u64);
            let mut strat = PipelinePairedQuantum::new(
                config.n_balancers,
                config.n_servers,
                fast_pipeline(*rate),
                Duration::from_micros(100),
                &mut rng,
            );
            let r = run_simulation_with(
                config,
                &mut strat,
                &mut BernoulliWorkload::paper(),
                &mut rng,
            );
            results.push(r.avg_queue_len);
        }
        assert!(
            results[2] < results[0],
            "1M pairs/s {} should beat 3k pairs/s {}",
            results[2],
            results[0]
        );
    }

    #[test]
    fn distributor_stats_aggregate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut strat = PipelinePairedQuantum::new(
            8,
            4,
            fast_pipeline(1e5),
            Duration::from_micros(100),
            &mut rng,
        );
        let tasks = vec![crate::task::TaskType::Exclusive; 8];
        let lens = vec![0usize; 4];
        for _ in 0..50 {
            let _ = strat.assign_all(&tasks, &lens, &mut rng);
        }
        let stats = strat.distributor_stats();
        assert!(stats.emitted > 0);
        assert_eq!(
            stats.consumed + stats.misses,
            strat.stats().quantum_rounds + strat.stats().fallback_rounds
        );
    }
}
