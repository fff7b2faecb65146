//! The Fig. 2 timing argument: decision latency with pre-shared
//! entanglement vs classical coordination.
//!
//! "Since qubits are pre-shared, decisions can be made as soon as an input
//! arrives at a server, without waiting for inter-server communication."
//! A classical protocol that wants the *same correlated decision quality*
//! must exchange messages, paying at least one propagation delay (and a
//! full RTT for request/response coordination).

use crate::time::SimTime;
use rand::Rng;
use std::time::Duration;

/// How a node reaches a coordinated decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionLatencyModel {
    /// Purely local randomness: decide instantly, zero coordination.
    LocalRandom,
    /// Pre-shared entanglement: decide instantly *with* coordination
    /// (the paper's proposal). Latency is zero when a pair is buffered;
    /// a miss falls back to local randomness (still zero latency) —
    /// tracked separately.
    QuantumPreShared {
        /// Probability a fresh pair is buffered at decision time (from
        /// [`crate::distributor::DistributorStats::availability`]).
        availability: f64,
    },
    /// Ask the peer and wait for the answer: one full round trip.
    ClassicalCoordinate {
        /// Network round-trip time.
        rtt: Duration,
    },
    /// Route the decision through a central scheduler: one RTT to the
    /// scheduler (half the peer RTT each way if co-located, but queuing at
    /// the scheduler adds `scheduler_delay`).
    CentralScheduler {
        /// RTT to the scheduler.
        rtt: Duration,
        /// Mean queueing/processing delay at the scheduler.
        scheduler_delay: Duration,
    },
}

impl DecisionLatencyModel {
    /// Samples the decision latency for one input, plus whether the
    /// decision was *coordinated* (correlated with the peer's) or a
    /// fallback to uncoordinated randomness.
    pub fn sample_decision<R: Rng + ?Sized>(&self, rng: &mut R) -> (Duration, bool) {
        match *self {
            DecisionLatencyModel::LocalRandom => (Duration::ZERO, false),
            DecisionLatencyModel::QuantumPreShared { availability } => {
                let hit = rng.gen::<f64>() < availability;
                (Duration::ZERO, hit)
            }
            DecisionLatencyModel::ClassicalCoordinate { rtt } => (rtt, true),
            DecisionLatencyModel::CentralScheduler {
                rtt,
                scheduler_delay,
            } => (rtt + scheduler_delay, true),
        }
    }

    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            DecisionLatencyModel::LocalRandom => "local-random",
            DecisionLatencyModel::QuantumPreShared { .. } => "quantum-preshared",
            DecisionLatencyModel::ClassicalCoordinate { .. } => "classical-rtt",
            DecisionLatencyModel::CentralScheduler { .. } => "central-scheduler",
        }
    }
}

/// Aggregate decision-latency statistics over a stream of inputs.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Model label.
    pub model: &'static str,
    /// Number of inputs processed.
    pub inputs: usize,
    /// Mean decision latency.
    pub mean_latency: Duration,
    /// 99th-percentile decision latency.
    pub p99_latency: Duration,
    /// Fraction of decisions that were coordinated (vs local fallback).
    pub coordinated_fraction: f64,
}

/// Runs `inputs` Poisson-arriving decisions (mean gap `mean_interarrival`)
/// through the model and reports latency statistics.
///
/// # Panics
/// Panics if `inputs == 0`.
pub fn run_timing_experiment<R: Rng + ?Sized>(
    model: DecisionLatencyModel,
    inputs: usize,
    mean_interarrival: Duration,
    rng: &mut R,
) -> TimingReport {
    assert!(inputs > 0, "need at least one input");
    let mut t = SimTime::ZERO;
    let rate = 1.0 / mean_interarrival.as_secs_f64();
    let mut latencies: Vec<Duration> = Vec::with_capacity(inputs);
    let mut coordinated = 0usize;
    for _ in 0..inputs {
        let gap = -(rng.gen::<f64>().max(1e-300)).ln() / rate;
        t += Duration::from_secs_f64(gap);
        let (latency, coord) = model.sample_decision(rng);
        latencies.push(latency);
        coordinated += usize::from(coord);
    }
    latencies.sort_unstable();
    let total: Duration = latencies.iter().sum();
    let p99 =
        latencies[(latencies.len() as f64 * 0.99) as usize - (latencies.len() >= 100) as usize];
    TimingReport {
        model: model.label(),
        inputs,
        mean_latency: total / inputs as u32,
        p99_latency: p99,
        coordinated_fraction: coordinated as f64 / inputs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantum_decides_instantly() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_timing_experiment(
            DecisionLatencyModel::QuantumPreShared { availability: 0.98 },
            10_000,
            Duration::from_micros(10),
            &mut rng,
        );
        assert_eq!(r.mean_latency, Duration::ZERO);
        assert_eq!(r.p99_latency, Duration::ZERO);
        assert!((r.coordinated_fraction - 0.98).abs() < 0.01);
    }

    #[test]
    fn classical_pays_rtt() {
        let mut rng = StdRng::seed_from_u64(2);
        let rtt = Duration::from_micros(50);
        let r = run_timing_experiment(
            DecisionLatencyModel::ClassicalCoordinate { rtt },
            1_000,
            Duration::from_micros(10),
            &mut rng,
        );
        assert_eq!(r.mean_latency, rtt);
        assert_eq!(r.coordinated_fraction, 1.0);
    }

    #[test]
    fn central_scheduler_adds_queueing() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = run_timing_experiment(
            DecisionLatencyModel::CentralScheduler {
                rtt: Duration::from_micros(50),
                scheduler_delay: Duration::from_micros(20),
            },
            1_000,
            Duration::from_micros(10),
            &mut rng,
        );
        assert_eq!(r.mean_latency, Duration::from_micros(70));
    }

    #[test]
    fn local_random_is_never_coordinated() {
        let mut rng = StdRng::seed_from_u64(4);
        let r = run_timing_experiment(
            DecisionLatencyModel::LocalRandom,
            100,
            Duration::from_micros(10),
            &mut rng,
        );
        assert_eq!(r.coordinated_fraction, 0.0);
        assert_eq!(r.mean_latency, Duration::ZERO);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            DecisionLatencyModel::LocalRandom.label(),
            DecisionLatencyModel::QuantumPreShared { availability: 1.0 }.label(),
            DecisionLatencyModel::ClassicalCoordinate {
                rtt: Duration::ZERO,
            }
            .label(),
            DecisionLatencyModel::CentralScheduler {
                rtt: Duration::ZERO,
                scheduler_delay: Duration::ZERO,
            }
            .label(),
        ];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(labels[i], labels[j]);
            }
        }
    }
}
