//! Load-balancer assignment strategies.
//!
//! The classical baselines (§4.1): uniform random, round-robin, power of
//! two choices, and the best *classical pairing* strategies. The quantum
//! strategy pairs balancers and plays the flipped CHSH game per round.
//! Every paired strategy, here and in [`crate::pipeline`] and
//! [`crate::degrade`], runs `assign_pairs` over [`games::pairing`].
//!
//! ## Locality discipline
//!
//! Every strategy here uses only (a) the balancer's own input, (b)
//! resources fixed *before* inputs arrive (shared randomness, entangled
//! pairs), and — for power-of-two only — (c) server queue lengths, which
//! models an *informed* baseline that already pays a communication cost
//! the others don't. No strategy lets one balancer's input influence
//! another balancer's output beyond what its pre-shared resource allows;
//! the quantum pairing inherits this from [`games::CorrelationBox`],
//! whose no-signaling property is tested upstream.

use crate::task::TaskType;
use games::pairing::{self, PairRule};
use rand::{Rng, RngCore};

/// An assignment strategy: maps this timestep's tasks to server indices.
pub trait AssignmentStrategy {
    /// Assigns each balancer's task to a server. `queue_lens` holds each
    /// server's queue length at the start of the step (used only by
    /// informed strategies).
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize>;

    /// Name for report tables.
    fn name(&self) -> &'static str;
}

/// Strategy selector — the menu of strategies the experiments sweep over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Paper's classical baseline: each balancer picks a uniformly random
    /// server, independently.
    UniformRandom,
    /// Round-robin with a random per-balancer starting offset.
    RoundRobin,
    /// Power of two choices: probe two random servers, pick the shorter
    /// queue (an *informed* strategy — it reads server state).
    PowerOfTwoChoices,
    /// Classical pairing, always-split: the two balancers always pick
    /// different servers (wins the CE/EC/EE cases, never co-locates CC).
    PairedAlwaysSplit,
    /// Classical pairing, match-types (`a = x, b = y`): co-locates CC and
    /// splits CE/EC, but collides both Es (fails EE).
    PairedMatchTypes,
    /// Quantum pairing: flipped CHSH over pre-shared entanglement,
    /// sampled from [`games::CorrelationBox::flipped_chsh`].
    PairedQuantum {
        /// Probability a fresh pair is available at decision time
        /// (1.0 = ideal pipeline); misses fall back to always-split.
        availability: f64,
        /// Bell-pair visibility (1.0 = perfect, < 1 = Werner noise): it
        /// scales the correlation magnitude, which is the exact
        /// Werner-state behaviour.
        visibility: f64,
    },
    /// Hybrid: a fixed fraction of servers is dedicated to type-C tasks;
    /// C goes to a random dedicated server, E to a random general server.
    DedicatedServers {
        /// Fraction of servers reserved for type-C.
        dedicated_fraction: f64,
    },
}

impl Strategy {
    /// The ideal quantum strategy (full availability, perfect pairs).
    pub fn quantum_ideal() -> Self {
        Strategy::PairedQuantum {
            availability: 1.0,
            visibility: 1.0,
        }
    }

    /// Label for report tables; every strategy [`Strategy::build`] makes
    /// reports it as its `name()`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Strategy::UniformRandom => "uniform-random",
            Strategy::RoundRobin => "round-robin",
            Strategy::PowerOfTwoChoices => "power-of-two",
            Strategy::DedicatedServers { .. } => "dedicated-servers",
            Strategy::PairedAlwaysSplit => "paired-always-split",
            Strategy::PairedMatchTypes => "paired-match-types",
            Strategy::PairedQuantum { .. } => "paired-quantum",
        }
    }

    /// The pairing rule of a paired strategy; `None` for the others.
    pub(crate) fn pair_rule(&self) -> Option<PairRule> {
        match *self {
            Strategy::PairedAlwaysSplit => Some(PairRule::AlwaysSplit),
            Strategy::PairedMatchTypes => Some(PairRule::MatchTypes),
            Strategy::PairedQuantum {
                availability,
                visibility,
            } => Some(PairRule::quantum(visibility, availability)),
            _ => None,
        }
    }

    /// Instantiates the runnable strategy state.
    pub fn build(self, n_servers: usize) -> Box<dyn AssignmentStrategy> {
        assert!(n_servers >= 2, "need at least two servers");
        match self {
            Strategy::UniformRandom => Box::new(UniformRandom { n_servers }),
            Strategy::RoundRobin => Box::new(RoundRobin {
                n_servers,
                offsets: Vec::new(),
            }),
            Strategy::PowerOfTwoChoices => Box::new(PowerOfTwo { n_servers }),
            Strategy::PairedAlwaysSplit
            | Strategy::PairedMatchTypes
            | Strategy::PairedQuantum { .. } => Box::new(Paired {
                n_servers,
                rule: self.pair_rule().expect("paired strategy"),
                name: self.name(),
            }),
            Strategy::DedicatedServers { dedicated_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&dedicated_fraction),
                    "bad dedicated fraction"
                );
                let dedicated = ((n_servers as f64 * dedicated_fraction).round() as usize)
                    .clamp(1, n_servers - 1);
                Box::new(Dedicated {
                    n_servers,
                    dedicated,
                })
            }
        }
    }
}

/// Each task to a uniformly random server, independently.
pub(crate) fn assign_uniform(
    tasks: &[TaskType],
    n_servers: usize,
    rng: &mut dyn RngCore,
) -> Vec<usize> {
    tasks.iter().map(|_| rng.gen_range(0..n_servers)).collect()
}

/// Assigns balancers two by two (§4.1): per pair, two distinct candidate
/// servers, then the pair's bits for its inputs, then the placement. An
/// odd balancer out picks uniformly.
pub(crate) fn assign_pairs(
    tasks: &[TaskType],
    n_servers: usize,
    rng: &mut dyn RngCore,
    mut bits: impl FnMut(usize, usize, &mut dyn RngCore) -> (bool, bool),
) -> Vec<usize> {
    let mut out = vec![0usize; tasks.len()];
    for (slots, pair) in out.chunks_exact_mut(2).zip(tasks.chunks_exact(2)) {
        // Pre-shared randomness picks the round's two candidates (§4.1:
        // "each pair randomly selects a pair of servers in each round").
        let servers = pairing::candidates(n_servers, rng);
        let bits = bits(pair[0].chsh_input(), pair[1].chsh_input(), rng);
        (slots[0], slots[1]) = pairing::place(servers, bits);
    }
    if tasks.len() % 2 == 1 {
        out[tasks.len() - 1] = rng.gen_range(0..n_servers);
    }
    out
}

struct UniformRandom {
    n_servers: usize,
}

impl AssignmentStrategy for UniformRandom {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        assign_uniform(tasks, self.n_servers, rng)
    }

    fn name(&self) -> &'static str {
        Strategy::UniformRandom.name()
    }
}

struct RoundRobin {
    n_servers: usize,
    offsets: Vec<usize>,
}

impl AssignmentStrategy for RoundRobin {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        if self.offsets.len() != tasks.len() {
            self.offsets = (0..tasks.len())
                .map(|_| rng.gen_range(0..self.n_servers))
                .collect();
        }
        self.offsets
            .iter_mut()
            .map(|off| {
                *off = (*off + 1) % self.n_servers;
                *off
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        Strategy::RoundRobin.name()
    }
}

struct PowerOfTwo {
    n_servers: usize,
}

impl AssignmentStrategy for PowerOfTwo {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        tasks
            .iter()
            .map(|_| {
                let s1 = rng.gen_range(0..self.n_servers);
                let s2 = rng.gen_range(0..self.n_servers);
                // Queue lengths are start-of-step (stale within the step)
                // — the standard idealization.
                if queue_lens[s1] <= queue_lens[s2] {
                    s1
                } else {
                    s2
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        Strategy::PowerOfTwoChoices.name()
    }
}

struct Paired {
    n_servers: usize,
    rule: PairRule,
    name: &'static str,
}

impl AssignmentStrategy for Paired {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        assign_pairs(tasks, self.n_servers, rng, |x, y, rng| {
            self.rule.bits(x, y, rng)
        })
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

struct Dedicated {
    n_servers: usize,
    dedicated: usize,
}

impl AssignmentStrategy for Dedicated {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        tasks
            .iter()
            .map(|t| {
                if t.is_colocate() {
                    rng.gen_range(0..self.dedicated)
                } else {
                    rng.gen_range(self.dedicated..self.n_servers)
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        Strategy::DedicatedServers {
            dedicated_fraction: 0.0,
        }
        .name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const C: TaskType = TaskType::Colocate(0);
    const E: TaskType = TaskType::Exclusive;

    fn lens(n: usize) -> Vec<usize> {
        vec![0; n]
    }

    #[test]
    fn uniform_random_spreads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Strategy::UniformRandom.build(10);
        let mut counts = vec![0usize; 10];
        for _ in 0..5000 {
            for srv in s.assign_all(&[C, E], &lens(10), &mut rng) {
                counts[srv] += 1;
            }
        }
        for c in counts {
            let f = c as f64 / 10_000.0;
            assert!((f - 0.1).abs() < 0.02, "server load {f}");
        }
    }

    #[test]
    fn built_strategies_report_the_menu_label() {
        for strategy in [
            Strategy::UniformRandom,
            Strategy::RoundRobin,
            Strategy::PowerOfTwoChoices,
            Strategy::PairedAlwaysSplit,
            Strategy::PairedMatchTypes,
            Strategy::quantum_ideal(),
            Strategy::DedicatedServers {
                dedicated_fraction: 0.25,
            },
        ] {
            assert_eq!(strategy.build(8).name(), strategy.name());
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = Strategy::RoundRobin.build(4);
        let a1 = s.assign_all(&[C], &lens(4), &mut rng)[0];
        let a2 = s.assign_all(&[C], &lens(4), &mut rng)[0];
        let a3 = s.assign_all(&[C], &lens(4), &mut rng)[0];
        assert_eq!((a1 + 1) % 4, a2);
        assert_eq!((a2 + 1) % 4, a3);
    }

    #[test]
    fn power_of_two_prefers_short_queue() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Strategy::PowerOfTwoChoices.build(2);
        // Server 0 is very long: nearly all picks should land on 1.
        let queue_lens = vec![100, 0];
        let mut to_short = 0;
        for _ in 0..1000 {
            if s.assign_all(&[C], &queue_lens, &mut rng)[0] == 1 {
                to_short += 1;
            }
        }
        // Picks 1 unless both probes hit 0 (prob 1/4).
        let f = to_short as f64 / 1000.0;
        assert!((f - 0.75).abs() < 0.05, "short-queue rate {f}");
    }

    #[test]
    fn always_split_never_collides() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = Strategy::PairedAlwaysSplit.build(8);
        for _ in 0..500 {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            assert_ne!(a[0], a[1]);
        }
    }

    #[test]
    fn match_types_colocates_cc_collides_ee() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Strategy::PairedMatchTypes.build(8);
        for _ in 0..200 {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            assert_eq!(a[0], a[1], "CC must co-locate");
            let a = s.assign_all(&[E, E], &lens(8), &mut rng);
            assert_eq!(a[0], a[1], "EE collides under match-types");
            let a = s.assign_all(&[C, E], &lens(8), &mut rng);
            assert_ne!(a[0], a[1], "CE splits");
        }
    }

    #[test]
    fn quantum_box_meets_chsh_rates() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = Strategy::quantum_ideal().build(8);
        let cases: [(&[TaskType; 2], bool); 4] = [
            (&[C, C], true),  // want same server
            (&[C, E], false), // want different
            (&[E, C], false),
            (&[E, E], false),
        ];
        let trials = 20_000;
        for (tasks, want_same) in cases {
            let mut ok = 0usize;
            for _ in 0..trials {
                let a = s.assign_all(tasks.as_slice(), &lens(8), &mut rng);
                ok += usize::from((a[0] == a[1]) == want_same);
            }
            let f = ok as f64 / trials as f64;
            let expect = games::chsh_quantum_value();
            assert!(
                (f - expect).abs() < 0.015,
                "{tasks:?}: success {f}, expected {expect}"
            );
        }
    }

    #[test]
    fn exact_simulation_matches_fast_sampling() {
        // Oracle: measure a fresh |Φ⁺⟩ at the paper's angles and flip
        // Bob's bit (a ⊕ b = ¬(x∧y), §4.1); the pair co-locates iff the
        // two placement bits agree.
        use games::chsh::{alice_angle, bob_angle};
        use qsim::{Party, SharedPair};
        let mut rng = StdRng::seed_from_u64(7);
        let mut fast = Strategy::quantum_ideal().build(4);
        let trials = 8_000;
        for tasks in [[C, C], [C, E], [E, E]] {
            let (x, y) = (tasks[0].chsh_input(), tasks[1].chsh_input());
            let mut same_fast = 0usize;
            let mut same_exact = 0usize;
            for _ in 0..trials {
                let a = fast.assign_all(&tasks, &lens(4), &mut rng);
                same_fast += usize::from(a[0] == a[1]);
                let mut pair = SharedPair::ideal();
                let a = pair
                    .measure_angle(Party::A, alice_angle(x), &mut rng)
                    .unwrap();
                let b = pair
                    .measure_angle(Party::B, bob_angle(y), &mut rng)
                    .unwrap();
                same_exact += usize::from((a == 1) == (b == 0));
            }
            let diff = (same_fast as f64 - same_exact as f64).abs() / trials as f64;
            assert!(diff < 0.03, "{tasks:?}: fast vs exact differ by {diff}");
        }
    }

    #[test]
    fn zero_availability_degenerates_to_split() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = Strategy::PairedQuantum {
            availability: 0.0,
            visibility: 1.0,
        }
        .build(8);
        for _ in 0..200 {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            assert_ne!(a[0], a[1], "fallback is always-split");
        }
    }

    #[test]
    fn degraded_visibility_weakens_correlation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = Strategy::PairedQuantum {
            availability: 1.0,
            visibility: 0.0, // fully depolarized: coin-flip correlation
        }
        .build(8);
        let trials = 20_000;
        let mut same = 0usize;
        for _ in 0..trials {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            same += usize::from(a[0] == a[1]);
        }
        let f = same as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02, "v=0 co-location rate {f}");
    }

    #[test]
    fn dedicated_partitions_by_type() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = Strategy::DedicatedServers {
            dedicated_fraction: 0.5,
        }
        .build(10);
        for _ in 0..200 {
            let a = s.assign_all(&[C, E], &lens(10), &mut rng);
            assert!(a[0] < 5, "C goes to dedicated half");
            assert!(a[1] >= 5, "E goes to general half");
        }
    }

    #[test]
    fn odd_balancer_count_is_handled() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = Strategy::quantum_ideal().build(4);
        let a = s.assign_all(&[C, C, E], &lens(4), &mut rng);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&srv| srv < 4));
    }

    #[test]
    #[should_panic(expected = "at least two servers")]
    fn one_server_panics() {
        Strategy::UniformRandom.build(1);
    }
}
