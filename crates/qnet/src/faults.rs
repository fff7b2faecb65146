//! Deterministic fault injection for the entanglement plane.
//!
//! The passive loss models of this crate (fiber attenuation, QNIC
//! pressure, storage decoherence) describe the *steady state*. Real
//! deployments also see transient failures: a fiber cut, a pump laser
//! browning out, a NIC shedding memory under thermal load, a burst of
//! decoherence. A [`FaultPlan`] schedules such episodes as explicit
//! windows on the simulation clock; a [`FaultClock`] replays their on/off
//! edges from a list sorted once at construction (each edge counts in
//! `qnet.des.events`, like a pair arrival) and exposes the instantaneous
//! [`FaultState`] the rest of the plane consumes:
//!
//! - [`FaultKind::LinkOutage`] — a downed link absorbs every pair emitted
//!   while it is down, with no draw (the distributor's per-emission path).
//! - [`FaultKind::SourceBrownout`] — the source's effective rate drops to
//!   `rate_factor` of nominal via Poisson thinning
//!   ([`crate::epr::EprSource::brownout_keeps`]).
//! - [`FaultKind::QnicClamp`] — both endpoint memories are clamped to a
//!   smaller capacity; over-quota qubits are evicted immediately
//!   ([`crate::qnic::Qnic::set_capacity_clamp`]).
//! - [`FaultKind::DecoherenceSpike`] — the coherence lifetime τ is scaled
//!   by `lifetime_factor` ([`crate::qnic::Qnic::set_lifetime_scale`]).
//!
//! Plans are pure data built from a seed before a run starts, so a
//! faulted simulation stays byte-identical across worker counts exactly
//! like a fault-free one. Crucially, a run with an *empty* plan consumes
//! the same RNG stream as a build without this module at all — fault
//! hooks only draw randomness while a fault is active.

use crate::time::{SimTime, SIM_EVENTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::SplitMix64;
use std::time::Duration;

/// Fault on/off edges processed across all clocks in the process.
static FAULT_TRANSITIONS: obs::LazyCounter = obs::LazyCounter::new("qnet.faults.transitions");
/// Currently-active fault windows (last value / high-water).
static FAULT_ACTIVE: obs::LazyGauge = obs::LazyGauge::new("qnet.faults.active");

/// Which fiber(s) a link outage takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSide {
    /// The source → endpoint-A fiber.
    A,
    /// The source → endpoint-B fiber.
    B,
    /// Both fibers (e.g. a cut upstream of the splitter).
    Both,
}

/// One kind of transient fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Photons on the affected link(s) are lost while active.
    LinkOutage(LinkSide),
    /// The source emits at `rate_factor` × nominal (Poisson thinning).
    SourceBrownout {
        /// Effective-rate multiplier in `[0, 1]`.
        rate_factor: f64,
    },
    /// Endpoint QNIC memories are clamped to `capacity` slots.
    QnicClamp {
        /// Clamped capacity (≥ 1).
        capacity: usize,
    },
    /// Coherence lifetime τ is scaled by `lifetime_factor`.
    DecoherenceSpike {
        /// τ multiplier in `(0, 1]` — smaller means faster dephasing.
        lifetime_factor: f64,
    },
    /// A topology fiber edge is cut: every chain routed through
    /// [`crate::topology::MetroGraph`] edge `edge` starves until it
    /// clears — the fault whose blast radius depends on the routing
    /// ([`FaultClock::downed_edges`] feeds [`crate::routing::best_path`]).
    EdgeCut {
        /// The [`crate::topology::MetroGraph`] edge id.
        edge: u32,
    },
}

/// A fault active on the half-open interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// When the fault trips.
    pub start: SimTime,
    /// When it clears.
    pub end: SimTime,
    /// What fails.
    pub kind: FaultKind,
}

/// A schedule of fault windows — pure data, built before the run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The empty plan: nominal operation throughout.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Adds one window.
    ///
    /// # Panics
    /// Panics if `end <= start` or the kind's parameter is out of range
    /// (`rate_factor ∉ [0, 1]`, `capacity == 0`, `lifetime_factor ≤ 0`).
    pub fn push(&mut self, window: FaultWindow) {
        assert!(window.end > window.start, "empty fault window");
        match window.kind {
            FaultKind::SourceBrownout { rate_factor } => {
                assert!(
                    (0.0..=1.0).contains(&rate_factor),
                    "brownout rate_factor {rate_factor} outside [0, 1]"
                );
            }
            FaultKind::QnicClamp { capacity } => {
                assert!(capacity >= 1, "clamp capacity must be ≥ 1");
            }
            FaultKind::DecoherenceSpike { lifetime_factor } => {
                assert!(lifetime_factor > 0.0, "lifetime_factor must be positive");
            }
            FaultKind::LinkOutage(_) | FaultKind::EdgeCut { .. } => {}
        }
        self.windows.push(window);
    }

    /// A periodic schedule: `kind` trips at `first`, `first + period`, …
    /// for `duration` each time, up to (excluding) `horizon`.
    ///
    /// # Panics
    /// Panics if `period` or `duration` is zero (see also [`Self::push`]).
    pub fn periodic(
        kind: FaultKind,
        first: SimTime,
        period: Duration,
        duration: Duration,
        horizon: SimTime,
    ) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        let mut plan = FaultPlan::none();
        let mut start = first;
        while start < horizon {
            plan.push(FaultWindow {
                start,
                end: start + duration,
                kind,
            });
            start += period;
        }
        plan
    }

    /// Concatenates another plan's windows onto this one (faults compose:
    /// overlapping windows all apply simultaneously).
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.windows.extend(other.windows);
        self
    }

    /// An aggressive randomized schedule exercising all four fault kinds,
    /// a pure function of `seed` (each kind gets its own SplitMix64-derived
    /// RNG stream, so the plan is independent of evaluation order).
    ///
    /// Gaps and durations are exponential with means `mean_gap` and
    /// `mean_duration`; brownout/clamp/spike severities are drawn per
    /// window. Intended for chaos testing, not for calibrated sweeps.
    pub fn chaos(seed: u64, horizon: SimTime, mean_gap: Duration, mean_duration: Duration) -> Self {
        assert!(
            !mean_gap.is_zero() && !mean_duration.is_zero(),
            "zero means"
        );
        let mut plan = FaultPlan::none();
        for lane in 0u64..4 {
            let lane_seed = SplitMix64::new(lane).next_u64();
            let mut rng = StdRng::seed_from_u64(SplitMix64::new(seed ^ lane_seed).next_u64());
            let mut t = SimTime::ZERO;
            loop {
                let gap = sample_exp(mean_gap, &mut rng);
                let dur = sample_exp(mean_duration, &mut rng).max(Duration::from_nanos(1));
                let start = t + gap;
                if start >= horizon {
                    break;
                }
                let kind = match lane {
                    0 => FaultKind::LinkOutage(match rng.gen_range(0..3) {
                        0 => LinkSide::A,
                        1 => LinkSide::B,
                        _ => LinkSide::Both,
                    }),
                    1 => FaultKind::SourceBrownout {
                        rate_factor: rng.gen_range(0.05..0.5),
                    },
                    2 => FaultKind::QnicClamp {
                        capacity: rng.gen_range(1..4),
                    },
                    _ => FaultKind::DecoherenceSpike {
                        lifetime_factor: rng.gen_range(0.1..0.5),
                    },
                };
                plan.push(FaultWindow {
                    start,
                    end: start + dur,
                    kind,
                });
                t = start + dur;
            }
        }
        plan
    }
}

fn sample_exp<R: Rng + ?Sized>(mean: Duration, rng: &mut R) -> Duration {
    let u: f64 = rng.gen::<f64>().max(1e-300);
    Duration::from_secs_f64(-u.ln() * mean.as_secs_f64())
}

/// The instantaneous fault state the entanglement plane consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultState {
    /// Is the source → A fiber passing photons?
    pub link_a_up: bool,
    /// Is the source → B fiber passing photons?
    pub link_b_up: bool,
    /// Effective-rate multiplier (product of active brownouts).
    pub rate_factor: f64,
    /// Tightest active QNIC capacity clamp, if any.
    pub capacity_clamp: Option<usize>,
    /// τ multiplier (product of active spikes).
    pub lifetime_factor: f64,
}

impl FaultState {
    /// Nominal operation: everything up, nothing scaled.
    pub const NOMINAL: FaultState = FaultState {
        link_a_up: true,
        link_b_up: true,
        rate_factor: 1.0,
        capacity_clamp: None,
        lifetime_factor: 1.0,
    };
}

/// An on/off edge of one fault window.
#[derive(Debug, Clone, Copy)]
struct FaultEdge {
    on: bool,
    kind: FaultKind,
}

/// Replays a [`FaultPlan`] edge by edge, maintaining the current
/// [`FaultState`]. Overlapping windows compose: outages OR together,
/// brownouts and spikes multiply, clamps take the minimum.
pub struct FaultClock {
    /// Both edges of every window, stable-sorted by time: edges at the
    /// same instant replay in plan order, so the active list (and the
    /// float products [`Self::recompute`] folds from it) is fixed by the
    /// plan alone.
    edges: Vec<(SimTime, FaultEdge)>,
    /// Index of the next unprocessed edge.
    cursor: usize,
    active: Vec<FaultKind>,
    state: FaultState,
    transitions: u64,
}

impl FaultClock {
    /// Compiles a plan into its sorted edge list.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut edges: Vec<_> = plan
            .windows()
            .iter()
            .flat_map(|w| {
                [
                    (
                        w.start,
                        FaultEdge {
                            on: true,
                            kind: w.kind,
                        },
                    ),
                    (
                        w.end,
                        FaultEdge {
                            on: false,
                            kind: w.kind,
                        },
                    ),
                ]
            })
            .collect();
        edges.sort_by_key(|&(t, _)| t);
        FaultClock {
            edges,
            cursor: 0,
            active: Vec::new(),
            state: FaultState::NOMINAL,
            transitions: 0,
        }
    }

    /// The time of the next pending on/off edge.
    pub fn next_transition(&self) -> Option<SimTime> {
        self.edges.get(self.cursor).map(|&(t, _)| t)
    }

    /// Processes every edge scheduled at or before `now`. Returns true
    /// if the state may have changed.
    pub fn advance_through(&mut self, now: SimTime) -> bool {
        let mut changed = false;
        while let Some(&(t, edge)) = self.edges.get(self.cursor) {
            if t > now {
                break;
            }
            self.cursor += 1;
            SIM_EVENTS.inc();
            if edge.on {
                self.active.push(edge.kind);
            } else if let Some(pos) = self.active.iter().position(|k| *k == edge.kind) {
                // The off edge carries the same payload as its on edge, so
                // bitwise equality always finds the matching activation.
                self.active.remove(pos);
            }
            self.transitions += 1;
            FAULT_TRANSITIONS.inc();
            changed = true;
        }
        if changed {
            self.recompute();
            FAULT_ACTIVE.set(self.active.len() as i64);
        }
        changed
    }

    fn recompute(&mut self) {
        let mut s = FaultState::NOMINAL;
        for kind in &self.active {
            match *kind {
                FaultKind::LinkOutage(LinkSide::A) => s.link_a_up = false,
                FaultKind::LinkOutage(LinkSide::B) => s.link_b_up = false,
                FaultKind::LinkOutage(LinkSide::Both) => {
                    s.link_a_up = false;
                    s.link_b_up = false;
                }
                FaultKind::SourceBrownout { rate_factor } => s.rate_factor *= rate_factor,
                FaultKind::QnicClamp { capacity } => {
                    s.capacity_clamp = Some(s.capacity_clamp.map_or(capacity, |c| c.min(capacity)));
                }
                FaultKind::DecoherenceSpike { lifetime_factor } => {
                    s.lifetime_factor *= lifetime_factor;
                }
                // Edge cuts live in the topology plane: [`FaultState`] is
                // the two-QNIC distributor's view and stays untouched; the
                // routing layer reads [`Self::downed_edges`] instead.
                FaultKind::EdgeCut { .. } => {}
            }
        }
        self.state = s;
    }

    /// The current fault state.
    pub fn state(&self) -> FaultState {
        self.state
    }

    /// The currently-cut topology edges as a downed mask sized for
    /// `n_edges` (the shape [`crate::routing::best_path`] consumes).
    /// Active cuts on edge ids ≥ `n_edges` are ignored.
    pub fn downed_edges(&self, n_edges: usize) -> Vec<bool> {
        let mut downed = vec![false; n_edges];
        for k in &self.active {
            if let FaultKind::EdgeCut { edge } = k {
                if let Some(slot) = downed.get_mut(*edge as usize) {
                    *slot = true;
                }
            }
        }
        downed
    }

    /// Total on/off edges processed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn clock_trips_and_clears_in_order() {
        let mut plan = FaultPlan::none();
        plan.push(FaultWindow {
            start: us(10),
            end: us(20),
            kind: FaultKind::LinkOutage(LinkSide::A),
        });
        let mut clock = FaultClock::new(&plan);
        assert_eq!(clock.state(), FaultState::NOMINAL);
        assert_eq!(clock.next_transition(), Some(us(10)));

        assert!(!clock.advance_through(us(9)));
        assert!(clock.advance_through(us(10)));
        assert!(!clock.state().link_a_up);
        assert!(clock.state().link_b_up);

        assert!(clock.advance_through(us(25)));
        assert_eq!(clock.state(), FaultState::NOMINAL);
        assert_eq!(clock.transitions(), 2);
        assert_eq!(clock.next_transition(), None);
    }

    #[test]
    fn overlapping_faults_compose() {
        let mut plan = FaultPlan::none();
        plan.push(FaultWindow {
            start: us(0) + Duration::from_nanos(1),
            end: us(100),
            kind: FaultKind::SourceBrownout { rate_factor: 0.5 },
        });
        plan.push(FaultWindow {
            start: us(1),
            end: us(100),
            kind: FaultKind::SourceBrownout { rate_factor: 0.5 },
        });
        plan.push(FaultWindow {
            start: us(1),
            end: us(50),
            kind: FaultKind::QnicClamp { capacity: 8 },
        });
        plan.push(FaultWindow {
            start: us(2),
            end: us(40),
            kind: FaultKind::QnicClamp { capacity: 2 },
        });
        let mut clock = FaultClock::new(&plan);
        clock.advance_through(us(10));
        let s = clock.state();
        assert!((s.rate_factor - 0.25).abs() < 1e-12, "brownouts multiply");
        assert_eq!(s.capacity_clamp, Some(2), "clamps take the minimum");

        clock.advance_through(us(45));
        assert_eq!(clock.state().capacity_clamp, Some(8), "inner clamp cleared");
        clock.advance_through(us(200));
        assert_eq!(clock.state(), FaultState::NOMINAL);
    }

    #[test]
    fn edges_replay_in_time_order_and_ties_in_plan_order() {
        let mut plan = FaultPlan::none();
        for (start, end) in [(30, 40), (10, 50), (20, 25)] {
            plan.push(FaultWindow {
                start: us(start),
                end: us(end),
                kind: FaultKind::LinkOutage(LinkSide::A),
            });
        }
        let mut clock = FaultClock::new(&plan);
        let mut seen = Vec::new();
        while let Some(t) = clock.next_transition() {
            seen.push(t);
            clock.advance_through(t);
        }
        assert_eq!(seen, [10, 20, 25, 30, 40, 50].map(us));
        assert_eq!(clock.transitions(), 6);

        // Simultaneous edges apply in plan order, so the brownout product
        // folds left to right: (0.3 · 0.7) · 0.1 differs in its last bit
        // from the reversed order's product.
        let mut plan = FaultPlan::none();
        for rate_factor in [0.3, 0.7, 0.1] {
            plan.push(FaultWindow {
                start: us(5),
                end: us(9),
                kind: FaultKind::SourceBrownout { rate_factor },
            });
        }
        let mut clock = FaultClock::new(&plan);
        clock.advance_through(us(5));
        let plan_order = 0.3f64 * 0.7 * 0.1;
        assert_ne!(plan_order.to_bits(), (0.1f64 * 0.7 * 0.3).to_bits());
        assert_eq!(clock.state().rate_factor.to_bits(), plan_order.to_bits());
    }

    #[test]
    fn periodic_plan_covers_horizon() {
        let plan = FaultPlan::periodic(
            FaultKind::LinkOutage(LinkSide::Both),
            us(5),
            Duration::from_micros(10),
            Duration::from_micros(2),
            us(50),
        );
        // Starts at 5, 15, 25, 35, 45 — five windows before the horizon.
        assert_eq!(plan.windows().len(), 5);
        assert_eq!(plan.windows()[4].start, us(45));
        assert_eq!(plan.windows()[4].end, us(47));
    }

    #[test]
    fn chaos_plan_is_a_pure_function_of_its_seed() {
        let mk = || {
            FaultPlan::chaos(
                0xfau64,
                SimTime::from_secs_f64(0.01),
                Duration::from_micros(300),
                Duration::from_micros(150),
            )
        };
        let (a, b) = (mk(), mk());
        assert!(!a.is_empty());
        assert_eq!(a.windows(), b.windows());
        let other = FaultPlan::chaos(
            0xfbu64,
            SimTime::from_secs_f64(0.01),
            Duration::from_micros(300),
            Duration::from_micros(150),
        );
        assert_ne!(
            a.windows(),
            other.windows(),
            "different seed, different plan"
        );
    }

    #[test]
    fn edge_cuts_track_topology_edges_without_touching_state() {
        let mut plan = FaultPlan::none();
        plan.push(FaultWindow {
            start: us(10),
            end: us(20),
            kind: FaultKind::EdgeCut { edge: 3 },
        });
        plan.push(FaultWindow {
            start: us(15),
            end: us(30),
            kind: FaultKind::EdgeCut { edge: 1 },
        });
        let mut clock = FaultClock::new(&plan);
        clock.advance_through(us(16));
        // The distributor's view is untouched; the routing mask is not.
        assert_eq!(clock.state(), FaultState::NOMINAL);
        assert_eq!(clock.downed_edges(5), vec![false, true, false, true, false]);
        // Out-of-range ids never panic the mask.
        assert_eq!(clock.downed_edges(2), vec![false, true]);
        clock.advance_through(us(25));
        assert_eq!(
            clock.downed_edges(5),
            vec![false, true, false, false, false]
        );
        clock.advance_through(us(40));
        assert_eq!(clock.downed_edges(5), vec![false; 5]);
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_window_panics() {
        FaultPlan::none().push(FaultWindow {
            start: us(5),
            end: us(5),
            kind: FaultKind::LinkOutage(LinkSide::A),
        });
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_brownout_panics() {
        FaultPlan::none().push(FaultWindow {
            start: us(0) + Duration::from_nanos(0),
            end: us(1),
            kind: FaultKind::SourceBrownout { rate_factor: 1.5 },
        });
    }
}
