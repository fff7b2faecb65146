//! Load-balancer assignment strategies.
//!
//! The classical baselines (§4.1): uniform random, round-robin, power of
//! two choices, and the best *classical pairing* strategies. The quantum
//! strategy pairs balancers and plays the flipped CHSH game per round.
//!
//! Every strategy but round robin keeps no state between steps, and one
//! placement kernel, `Placement`, places all of them: where a balancer
//! pair's two tasks go, and where the odd balancer's task goes. `sim` runs
//! it through [`Strategy::build`], [`crate::shard`] calls it per pair,
//! [`crate::degrade`]'s classical tiers place with it, and
//! [`crate::pipeline`] places its distributor-fed pairs through its paired
//! placement and odd-balancer rule. Every pairing is drawn on
//! [`games::pairing`].
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

    /// Instantiates the runnable strategy state.
    pub fn build(self, n_servers: usize) -> Box<dyn AssignmentStrategy> {
        assert!(n_servers >= 2, "need at least two servers");
        match Placement::new(self, n_servers) {
            Some(placement) => Box::new(placement),
            None => Box::new(RoundRobin {
                n_servers,
                offsets: Vec::new(),
            }),
        }
    }
}

/// Where one balancer pair's tasks go, for every strategy that keeps no
/// state between steps: all but round robin, whose offsets are
/// per-balancer state. Built once per run; `sim` (through
/// [`Strategy::build`]), [`crate::degrade::Degrading`]'s classical tiers
/// and [`crate::shard`]'s pair shards place with it.
pub(crate) struct Placement {
    n_servers: usize,
    rule: Rule,
    name: &'static str,
}

/// The rule of a [`Placement`].
enum Rule {
    /// [`uniform`] for each task.
    Uniform,
    /// [`probe_two`] for each task, on start-of-step queue lengths (stale
    /// within the step), the standard idealization.
    PowerOfTwo,
    /// A pairing (§4.1): [`Placement::paired`] with the rule's bits.
    Paired(PairRule),
    /// [`by_type`] for each task, over this many dedicated servers.
    Dedicated(usize),
}

impl Placement {
    /// The placement of `strategy` over `n_servers` (at least two);
    /// `None` for round robin.
    pub(crate) fn new(strategy: Strategy, n_servers: usize) -> Option<Self> {
        let rule = match strategy {
            Strategy::UniformRandom => Rule::Uniform,
            Strategy::RoundRobin => return None,
            Strategy::PowerOfTwoChoices => Rule::PowerOfTwo,
            Strategy::PairedAlwaysSplit => Rule::Paired(PairRule::AlwaysSplit),
            Strategy::PairedMatchTypes => Rule::Paired(PairRule::MatchTypes),
            Strategy::PairedQuantum {
                availability,
                visibility,
            } => Rule::Paired(PairRule::quantum(visibility, availability)),
            Strategy::DedicatedServers { dedicated_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&dedicated_fraction),
                    "bad dedicated fraction"
                );
                let dedicated = (n_servers as f64 * dedicated_fraction).round() as usize;
                Rule::Dedicated(dedicated.clamp(1, n_servers - 1))
            }
        };
        let name = strategy.name();
        Some(Placement {
            n_servers,
            rule,
            name,
        })
    }

    /// True for a pairing rule, whose pair rounds the run tally counts.
    pub(crate) fn pairs(&self) -> bool {
        matches!(self.rule, Rule::Paired(_))
    }

    /// Where a pair's two tasks go, for inputs `x` and `y` (true =
    /// type-C). A pairing draws two distinct candidates, then the pair's
    /// bits; every other rule places each task alone, left then right.
    #[inline]
    pub(crate) fn pair<Q: Ord, R: RngCore + ?Sized>(
        &self,
        x: bool,
        y: bool,
        queue_lens: &[Q],
        rng: &mut R,
    ) -> (usize, usize) {
        match &self.rule {
            Rule::Paired(rule) => self.paired(x, y, rng, |x, y, rng| rule.bits(x, y, rng)),
            _ => (self.one(x, queue_lens, rng), self.one(y, queue_lens, rng)),
        }
    }

    /// Paired placement (§4.1): pre-shared randomness picks the round's
    /// two candidates ("each pair randomly selects a pair of servers in
    /// each round"), then `bits` gives the pair's bits for its inputs.
    #[inline]
    pub(crate) fn paired<R: RngCore + ?Sized>(
        &self,
        x: bool,
        y: bool,
        rng: &mut R,
        bits: impl FnOnce(usize, usize, &mut R) -> (bool, bool),
    ) -> (usize, usize) {
        let servers = pairing::candidates(self.n_servers, rng);
        pairing::place(servers, bits(usize::from(x), usize::from(y), rng))
    }

    /// Where one task goes on its own: each task of a rule that does not
    /// pair, and the odd balancer out, which a pairing places uniformly.
    #[inline]
    pub(crate) fn one<Q: Ord, R: RngCore + ?Sized>(
        &self,
        x: bool,
        queue_lens: &[Q],
        rng: &mut R,
    ) -> usize {
        let n = self.n_servers;
        match self.rule {
            Rule::Uniform | Rule::Paired(_) => uniform(n, rng),
            Rule::PowerOfTwo => probe_two(n, queue_lens, rng),
            Rule::Dedicated(dedicated) => by_type(n, dedicated, x, rng),
        }
    }

    /// Places a step's tasks two by two with `pair`, and an odd balancer
    /// out with [`Placement::one`].
    pub(crate) fn place_all<R: RngCore + ?Sized>(
        &self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut R,
        mut pair: impl FnMut(bool, bool, &mut R) -> (usize, usize),
    ) -> Vec<usize> {
        let mut out = vec![0usize; tasks.len()];
        for (slots, two) in out.chunks_exact_mut(2).zip(tasks.chunks_exact(2)) {
            (slots[0], slots[1]) = pair(two[0].is_colocate(), two[1].is_colocate(), rng);
        }
        if let [last] = tasks.chunks_exact(2).remainder() {
            out[tasks.len() - 1] = self.one(last.is_colocate(), queue_lens, rng);
        }
        out
    }
}

/// A uniformly random server of `n`.
#[inline]
fn uniform<R: RngCore + ?Sized>(n: usize, rng: &mut R) -> usize {
    rng.gen_range(0..n)
}

/// The shorter queue of two uniform probes of `n` servers, the first on a
/// tie.
#[inline]
fn probe_two<Q: Ord, R: RngCore + ?Sized>(n: usize, queue_lens: &[Q], rng: &mut R) -> usize {
    let (s1, s2) = (uniform(n, rng), uniform(n, rng));
    if queue_lens[s1] <= queue_lens[s2] {
        s1
    } else {
        s2
    }
}

/// A type-C task (`x`) to one of the first `dedicated` of `n` servers, a
/// type-E task to one of the rest.
#[inline]
fn by_type<R: RngCore + ?Sized>(n: usize, dedicated: usize, x: bool, rng: &mut R) -> usize {
    if x {
        rng.gen_range(0..dedicated)
    } else {
        rng.gen_range(dedicated..n)
    }
}

impl AssignmentStrategy for Placement {
    /// The same placements as [`Placement::pair`] and [`Placement::one`],
    /// with the rule matched once per step instead of once per task (a
    /// match per pair cost perfbench `fig4` 2–3 % of its throughput): a
    /// rule that does not pair places the step's tasks one by one.
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        let (n, each) = (self.n_servers, tasks.iter());
        match &self.rule {
            Rule::Uniform => each.map(|_| uniform(n, rng)).collect(),
            Rule::PowerOfTwo => each.map(|_| probe_two(n, queue_lens, rng)).collect(),
            Rule::Dedicated(d) => each.map(|t| by_type(n, *d, t.is_colocate(), rng)).collect(),
            Rule::Paired(rule) => self.place_all(tasks, queue_lens, rng, |x, y, rng| {
                self.paired(x, y, rng, |x, y, rng| rule.bits(x, y, rng))
            }),
        }
    }

    fn name(&self) -> &'static str {
        self.name
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
