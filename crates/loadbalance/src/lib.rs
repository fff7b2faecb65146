//! # loadbalance — quantum-assisted application-level load balancing (§4.1)
//!
//! Reproduces the paper's Figure 4 simulation and its ablations:
//! `N` load balancers forward tasks to `M` servers each timestep. Type-C
//! tasks benefit from co-location (a server runs two of them
//! simultaneously); type-E tasks want isolation (served one at a time).
//!
//! The quantum strategy pairs load balancers; each pair uses pre-shared
//! classical randomness to pick two candidate servers per round and the
//! *flipped CHSH protocol* (`a ⊕ b = ¬(x ∧ y)`) to decide who goes where:
//! same server exactly when both tasks are type-C — correctly 85.36% of
//! the time, versus 75% for the best possible classical pairing.
//!
//! ## Modules
//!
//! - [`task`]: task types, workload generators (Bernoulli C/E as in the
//!   paper, plus multi-subtype, bursty and diurnal generators for the
//!   caveat ablations) and the arrival law both engines draw through.
//! - [`server`]: server queue disciplines — the paper's
//!   ("two type-C simultaneously first, then type-E one at a time") and
//!   alternates for the footnote-2 robustness claim — over per-class
//!   FIFO lanes (one type-E lane, one lane per type-C subtype), so a
//!   step compares lane heads instead of scanning the queue. The serve
//!   rule, [`Discipline`]'s two answers, is shared with [`shard`].
//! - [`strategy`]: assignment strategies — uniform random, round-robin,
//!   power-of-two-choices, classical pairings, dedicated-server hybrid,
//!   and the quantum CHSH pairing (the flipped-CHSH
//!   `games::CorrelationBox`, plus finite pair availability), all pairings
//!   on the `games::pairing` kernel. Every strategy but round robin is
//!   one placement kernel, shared with [`shard`], [`pipeline`] and
//!   [`degrade`].
//! - [`sim`]: the timestep loop of Figure 4 (compatibility path: any
//!   strategy, caller-supplied RNG, bit-stable historical trajectories,
//!   one run-wide wait reservoir shared by every server).
//! - [`pipeline`]: the quantum strategy driven by a live simulated
//!   entanglement-distribution pipeline, one per balancer pair.
//! - [`shard`]: the sharded, structure-of-arrays, batch-advanced engine
//!   for production-scale runs (1e6 servers), byte-identical at any
//!   worker/shard count; it runs every strategy but round robin.
//! - [`aos`]: the frozen pre-shard array-of-structs loop over the seed's
//!   queue-scanning server, kept as the determinism oracle for [`sim`]
//!   and [`server`].
//! - [`metrics`]: queue-length and waiting-time statistics: the run
//!   tally both engines fill and finish into a [`SimResult`], and the
//!   bounded deterministic wait reservoir.
//! - [`error`]: typed configuration/engine errors.
//! - [`degrade`]: graceful degradation — a hysteretic governor that
//!   watches pair delivery and falls back from quantum CHSH to classical
//!   coordination (and recovers) as the entanglement plane faults and
//!   heals.

pub mod aos;
pub mod degrade;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod server;
pub mod shard;
pub mod sim;
pub mod strategy;
pub mod task;

pub use degrade::{CoordinationMode, Degrading, FallbackGovernor, HysteresisConfig};
pub use error::SimError;
pub use metrics::{SimResult, WaitReservoir};
pub use pipeline::PipelinePairedQuantum;
pub use server::{Discipline, Server};
pub use shard::{run_scaled, ScaleConfig};
pub use sim::{
    run_simulation, run_simulation_with, try_run_simulation, try_run_simulation_with, SimConfig,
};
pub use strategy::{AssignmentStrategy, Strategy};
pub use task::{ArrivalModel, Task, TaskType, Workload};
