//! Task types and workload generators.

use rand::Rng;

/// The two task classes of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskType {
    /// Type-C: benefits from co-location with other type-C tasks *of the
    /// same subtype* (shared caches, static in-memory objects, GPU
    /// parallelism). The paper's base simulation uses a single subtype
    /// (`Colocate(0)`); multiple subtypes model the §4.1 caveat that
    /// "multiple subtypes of type-C tasks … do not like being mixed".
    Colocate(u8),
    /// Type-E: prefers exclusive access; runs one at a time.
    Exclusive,
}

impl TaskType {
    /// True for any type-C task.
    #[inline]
    pub fn is_colocate(self) -> bool {
        matches!(self, TaskType::Colocate(_))
    }

    /// The CHSH input bit this task maps to (§4.1: "inputs x and y are set
    /// to 1 if the corresponding load balancer receives a type-C task").
    #[inline]
    pub fn chsh_input(self) -> usize {
        usize::from(self.is_colocate())
    }
}

/// A task instance flowing through the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// The task's class.
    pub ty: TaskType,
    /// Timestep at which the task entered a server queue.
    pub enqueued_at: u64,
}

/// A per-load-balancer task source.
pub trait Workload {
    /// Draws the next task type for one load balancer.
    fn next_task<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TaskType;

    /// Called once at the start of each timestep, before any
    /// [`Workload::next_task`] draws for that step. Time-varying
    /// workloads (e.g. [`DiurnalWorkload`]) use it to observe the clock;
    /// the default is a no-op and draws nothing, so stationary workloads
    /// are unaffected.
    fn on_step(&mut self, _t: u64) {}

    /// Name for report tables.
    fn name(&self) -> &'static str {
        "workload"
    }
}

/// The paper's workload: "each load balancer receives either a type-C or
/// type-E request with equal probability" — generalized to probability
/// `p_colocate` and `subtypes ≥ 1` C-subtypes drawn uniformly.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliWorkload {
    p_colocate: f64,
    subtypes: u8,
}

impl BernoulliWorkload {
    /// The exact Figure 4 workload: C with probability 1/2, one subtype.
    pub fn paper() -> Self {
        BernoulliWorkload::new(0.5, 1)
    }

    /// General Bernoulli workload.
    ///
    /// # Panics
    /// Panics if `p_colocate ∉ [0,1]` or `subtypes == 0`.
    pub fn new(p_colocate: f64, subtypes: u8) -> Self {
        assert!((0.0..=1.0).contains(&p_colocate), "bad probability");
        assert!(subtypes >= 1, "need at least one subtype");
        BernoulliWorkload {
            p_colocate,
            subtypes,
        }
    }
}

impl Workload for BernoulliWorkload {
    fn next_task<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TaskType {
        if rng.gen::<f64>() < self.p_colocate {
            TaskType::Colocate(rng.gen_range(0..self.subtypes))
        } else {
            TaskType::Exclusive
        }
    }

    fn name(&self) -> &'static str {
        "bernoulli"
    }
}

/// A two-state Markov-modulated workload: alternates between a C-heavy
/// and an E-heavy phase, producing the bursty arrival correlation real
/// request streams show (§4.1 caveats discussion). It draws through an
/// [`ArrivalModel::Mmpp`], one phase shared by every balancer.
#[derive(Debug, Clone, Copy)]
pub struct BurstyWorkload {
    model: ArrivalModel,
    /// In the C-heavy phase.
    hot: bool,
}

impl BurstyWorkload {
    /// A bursty workload alternating between C-heavy (`p_c_hot`) and
    /// E-heavy (`p_c_cold`) phases.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities.
    pub fn new(p_c_hot: f64, p_c_cold: f64, switch_prob: f64) -> Self {
        let model = ArrivalModel::Mmpp {
            p_c_hot,
            p_c_cold,
            switch_prob,
        };
        assert!(model.is_valid(), "bad arrival model {model:?}");
        BurstyWorkload { model, hot: true }
    }
}

impl Workload for BurstyWorkload {
    fn next_task<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TaskType {
        self.model.step(0, &mut self.hot, rng)
    }

    fn name(&self) -> &'static str {
        "bursty"
    }
}

/// A diurnal workload: P(type-C) follows a sinusoid over the day,
/// modelling the interactive-vs-batch mix shift of real request streams.
/// It draws through an [`ArrivalModel::Diurnal`] at the step
/// [`Workload::on_step`] last announced.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalWorkload {
    model: ArrivalModel,
    t: u64,
}

impl DiurnalWorkload {
    /// A diurnal workload oscillating around `mean` with the given
    /// `amplitude` and `period` (timesteps per full cycle).
    ///
    /// # Panics
    /// Panics if `mean ∉ [0,1]`, `amplitude < 0`, or `period == 0`.
    pub fn new(mean: f64, amplitude: f64, period: u64) -> Self {
        let model = ArrivalModel::Diurnal {
            mean,
            amplitude,
            period,
        };
        assert!(model.is_valid(), "bad arrival model {model:?}");
        DiurnalWorkload { model, t: 0 }
    }

    /// P(type-C) at step `t`.
    pub fn p_colocate_at(&self, t: u64) -> f64 {
        self.model.p_colocate(t, true)
    }
}

impl Workload for DiurnalWorkload {
    fn next_task<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TaskType {
        self.model.draw(self.t, true, rng)
    }

    fn on_step(&mut self, t: u64) {
        self.t = t;
    }

    fn name(&self) -> &'static str {
        "diurnal"
    }
}

/// The arrival law of the Figure 4 model: P(type-C) per step and phase,
/// and the per-draw phase switch.
///
/// A [`Workload`] implementor is one mutable generator shared by every
/// balancer, which ties arrivals to a single global draw order — exactly
/// what a sharded simulator cannot have. An `ArrivalModel` is instead a
/// pure description: [`BurstyWorkload`] and [`DiurnalWorkload`] keep
/// one phase for the compatibility loop, while the sharded engine
/// ([`crate::shard`]) keeps per-balancer phase state in its own flat
/// arrays and draws from per-pair RNG sub-streams, so arrivals are a pure
/// function of `(master seed, balancer, step)` at any shard or worker
/// count. Every one of them draws through the model: `BurstyWorkload`
/// and the sharded engine step each phase with it (a coin against
/// [`ArrivalModel::switch_prob`], none when that is 0), and every task
/// is one uniform draw against [`ArrivalModel::p_colocate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// i.i.d. Bernoulli: type-C with probability `p_c` each step (the
    /// Figure 4 workload at `p_c = 0.5`).
    Bernoulli {
        /// P(type-C) per draw.
        p_c: f64,
    },
    /// Two-state MMPP (Markov-modulated): each balancer carries a
    /// hot/cold phase bit and flips it with `switch_prob` per draw —
    /// the law of [`BurstyWorkload`].
    Mmpp {
        /// P(type-C) in the C-heavy phase.
        p_c_hot: f64,
        /// P(type-C) in the E-heavy phase.
        p_c_cold: f64,
        /// Per-draw probability of switching phase.
        switch_prob: f64,
    },
    /// Sinusoidal daily cycle,
    /// `p_c(t) = clamp(mean + amplitude · sin(2π t / period), 0, 1)` —
    /// the law of [`DiurnalWorkload`].
    Diurnal {
        /// Mean P(type-C).
        mean: f64,
        /// Oscillation amplitude.
        amplitude: f64,
        /// Timesteps per full cycle.
        period: u64,
    },
}

impl ArrivalModel {
    /// The paper's Figure 4 workload: C with probability 1/2.
    pub fn paper() -> Self {
        ArrivalModel::Bernoulli { p_c: 0.5 }
    }

    /// Label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalModel::Bernoulli { .. } => "bernoulli",
            ArrivalModel::Mmpp { .. } => "mmpp",
            ArrivalModel::Diurnal { .. } => "diurnal",
        }
    }

    /// True when every parameter is a valid probability / period.
    pub fn is_valid(&self) -> bool {
        let prob = |p: f64| (0.0..=1.0).contains(&p);
        match *self {
            ArrivalModel::Bernoulli { p_c } => prob(p_c),
            ArrivalModel::Mmpp {
                p_c_hot,
                p_c_cold,
                switch_prob,
            } => prob(p_c_hot) && prob(p_c_cold) && prob(switch_prob),
            ArrivalModel::Diurnal {
                mean,
                amplitude,
                period,
            } => prob(mean) && amplitude >= 0.0 && period > 0,
        }
    }

    /// Per-draw phase-switch probability (0 for phase-free models).
    #[inline]
    pub fn switch_prob(&self) -> f64 {
        match *self {
            ArrivalModel::Mmpp { switch_prob, .. } => switch_prob,
            _ => 0.0,
        }
    }

    /// One balancer's arrival at step `t`: the phase `hot` flips with
    /// probability [`ArrivalModel::switch_prob`] (a model that never
    /// switches draws no coin), then the task is drawn in the new phase.
    #[inline]
    pub(crate) fn step<R: Rng + ?Sized>(&self, t: u64, hot: &mut bool, rng: &mut R) -> TaskType {
        let switch = self.switch_prob();
        if switch > 0.0 && rng.gen::<f64>() < switch {
            *hot = !*hot;
        }
        self.draw(t, *hot, rng)
    }

    /// Draws one balancer's task at step `t` in phase `hot` with one
    /// uniform draw on `rng`: type-C (subtype 0) with probability
    /// [`ArrivalModel::p_colocate`], else type-E.
    #[inline]
    pub(crate) fn draw<R: Rng + ?Sized>(&self, t: u64, hot: bool, rng: &mut R) -> TaskType {
        if rng.gen::<f64>() < self.p_colocate(t, hot) {
            TaskType::Colocate(0)
        } else {
            TaskType::Exclusive
        }
    }

    /// P(type-C) at step `t` for a balancer currently in phase `hot`.
    #[inline]
    pub fn p_colocate(&self, t: u64, hot: bool) -> f64 {
        match *self {
            ArrivalModel::Bernoulli { p_c } => p_c,
            ArrivalModel::Mmpp {
                p_c_hot, p_c_cold, ..
            } => {
                if hot {
                    p_c_hot
                } else {
                    p_c_cold
                }
            }
            ArrivalModel::Diurnal {
                mean,
                amplitude,
                period,
            } => {
                let phase = (t % period) as f64 / period as f64;
                (mean + amplitude * (std::f64::consts::TAU * phase).sin()).clamp(0.0, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chsh_input_mapping() {
        assert_eq!(TaskType::Colocate(0).chsh_input(), 1);
        assert_eq!(TaskType::Colocate(3).chsh_input(), 1);
        assert_eq!(TaskType::Exclusive.chsh_input(), 0);
        assert!(TaskType::Colocate(1).is_colocate());
        assert!(!TaskType::Exclusive.is_colocate());
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut w = BernoulliWorkload::paper();
        let trials = 20_000;
        let c = (0..trials)
            .filter(|_| w.next_task(&mut rng).is_colocate())
            .count();
        let f = c as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02, "C rate {f}");
    }

    #[test]
    fn subtypes_are_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = BernoulliWorkload::new(1.0, 4);
        let mut counts = [0usize; 4];
        let trials = 20_000;
        for _ in 0..trials {
            match w.next_task(&mut rng) {
                TaskType::Colocate(s) => counts[s as usize] += 1,
                TaskType::Exclusive => panic!("p_colocate = 1"),
            }
        }
        for (s, c) in counts.iter().enumerate() {
            let f = *c as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.02, "subtype {s}: {f}");
        }
    }

    #[test]
    fn bursty_switches_phases() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = BurstyWorkload::new(0.9, 0.1, 0.01);
        // Long-run C rate should sit near the phase average, 0.5.
        let trials = 100_000;
        let c = (0..trials)
            .filter(|_| w.next_task(&mut rng).is_colocate())
            .count();
        let f = c as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.05, "long-run C rate {f}");
    }

    #[test]
    #[should_panic(expected = "at least one subtype")]
    fn zero_subtypes_panics() {
        BernoulliWorkload::new(0.5, 0);
    }

    #[test]
    fn diurnal_rate_oscillates_and_averages_to_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut w = DiurnalWorkload::new(0.5, 0.4, 200);
        // Peak (quarter period) vs trough (three-quarter period).
        assert!(w.p_colocate_at(50) > 0.85);
        assert!(w.p_colocate_at(150) < 0.15);
        // Long-run C rate over whole cycles sits at the mean.
        let mut c = 0usize;
        let trials = 100_000u64;
        for t in 0..trials {
            w.on_step(t % 200);
            if w.next_task(&mut rng).is_colocate() {
                c += 1;
            }
        }
        let f = c as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02, "long-run C rate {f}");
    }

    #[test]
    fn arrival_model_matches_workload_counterparts() {
        // The sharded-engine spec and the legacy generators must agree on
        // P(type-C) in every phase/step.
        let m = ArrivalModel::Mmpp {
            p_c_hot: 0.9,
            p_c_cold: 0.1,
            switch_prob: 0.01,
        };
        assert_eq!(m.p_colocate(0, true), 0.9);
        assert_eq!(m.p_colocate(0, false), 0.1);
        assert_eq!(m.switch_prob(), 0.01);

        let d = ArrivalModel::Diurnal {
            mean: 0.5,
            amplitude: 0.4,
            period: 200,
        };
        let w = DiurnalWorkload::new(0.5, 0.4, 200);
        for t in [0u64, 17, 50, 123, 199] {
            assert_eq!(d.p_colocate(t, true), w.p_colocate_at(t));
        }
        assert_eq!(d.switch_prob(), 0.0);
        assert_eq!(ArrivalModel::paper().p_colocate(7, false), 0.5);
    }

    /// FNV-1a digest of the first 10 000 task types `w` draws from a
    /// fixed `StdRng`, with `on_step(t)` called before every 100th draw.
    fn stream_digest(w: &mut impl Workload) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut rng = StdRng::seed_from_u64(0xa771_7a15);
        (0..10_000u64).fold(FNV_OFFSET, |h, i| {
            if i % 100 == 0 {
                w.on_step(i / 100);
            }
            let b = match w.next_task(&mut rng) {
                TaskType::Colocate(s) => 1 + s,
                TaskType::Exclusive => 0,
            };
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }

    /// Pins the two phase-carrying generators' draws across commits, as
    /// `QUICK_DIGESTS` pins the experiments'. A refactor leaves both
    /// digests unchanged; a change that means to alter the streams
    /// updates them from the failure message.
    #[test]
    fn bursty_and_diurnal_streams_match_their_digests() {
        let bursty = stream_digest(&mut BurstyWorkload::new(0.9, 0.1, 0.05));
        let diurnal = stream_digest(&mut DiurnalWorkload::new(0.5, 0.4, 50));
        assert_eq!(
            (bursty, diurnal),
            (0xc855_1a0a_c2b3_a3b0, 0xf4cb_d3da_4a61_8466),
            "arrival stream digests drifted: bursty {bursty:#018x}, diurnal {diurnal:#018x}"
        );
    }

    #[test]
    fn arrival_model_validation() {
        assert!(ArrivalModel::paper().is_valid());
        assert!(!ArrivalModel::Bernoulli { p_c: 1.5 }.is_valid());
        assert!(!ArrivalModel::Mmpp {
            p_c_hot: 0.5,
            p_c_cold: -0.1,
            switch_prob: 0.0
        }
        .is_valid());
        assert!(!ArrivalModel::Diurnal {
            mean: 0.5,
            amplitude: 0.1,
            period: 0
        }
        .is_valid());
        assert_eq!(ArrivalModel::paper().label(), "bernoulli");
    }
}
