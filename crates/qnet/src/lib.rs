//! # qnet — discrete-event simulation of the paper's architecture (Fig. 1)
//!
//! Models the hardware substrate the paper proposes, using published
//! parameters (§3):
//!
//! - [`epr::EprSource`]: an SPDC entangled-photon source emitting Bell
//!   pairs at 10⁴–10⁷ pairs/s with a configurable visibility (pair
//!   quality).
//! - [`link::FiberLink`]: optical fiber with standard 0.2 dB/km
//!   attenuation and ~2·10⁸ m/s propagation.
//! - [`qnic::Qnic`]: the quantum NIC — bounded qubit memory with a
//!   16–160 µs room-temperature storage lifetime; a qubit held for time
//!   `t` suffers dephasing `p = (1 − e^{−t/τ})/2` before measurement.
//! - [`distributor::EntanglementDistributor`]: the continuous
//!   entanglement-distribution protocol: a stream of pairs is pushed to two
//!   endpoints ahead of demand, so decisions can be made the instant an
//!   input arrives (Fig. 2).
//! - [`timing`]: the decision-latency comparison of Fig. 2 — pre-shared
//!   entanglement (decide immediately) vs classical coordination (pay at
//!   least one RTT).
//! - [`faults`]: deterministic fault injection — seeded [`FaultPlan`]s
//!   schedule link outages, source brownouts, QNIC capacity clamps, and
//!   decoherence spikes as discrete events the distributor replays.
//!
//! The simulator is event-driven and synchronous, in the style of smoltcp:
//! no async runtime (this is CPU-bound work), explicit time, deterministic
//! given an RNG seed. It needs no general event scheduler: every event
//! stream is already in time order. Surviving pairs reach the QNICs at
//! their emission time plus a fixed fiber delay (a FIFO), fault edges come
//! from a plan known before the run (a sorted list), and each QNIC holds
//! its qubits in arrival order.

pub mod distributor;
pub mod epr;
pub mod faults;
pub mod link;
pub mod qnic;
pub mod routing;
pub mod swap;
pub mod time;
pub mod timing;
pub mod topology;

pub use distributor::{
    ConsumePolicy, DistributorConfig, DistributorStats, EntanglementDistributor,
};
pub use epr::EprSource;
pub use faults::{FaultClock, FaultKind, FaultPlan, FaultState, FaultWindow, LinkSide};
pub use link::FiberLink;
pub use qnic::{Qnic, StoredQubit};
pub use routing::{allocate, best_path, route_epoch, PairDemand, PairOutcome, Policy, Route};
pub use swap::{entanglement_swap, max_swap_hops, SwapError, SwapOutcome};
pub use time::SimTime;
pub use timing::{DecisionLatencyModel, TimingReport};
pub use topology::{
    line_chain, metro_tree, star, ChainSpec, MetroGraph, MetroTree, MetroTreeParams,
    MultiplexedSource, NodeKind, SwapModel, TopologyError,
};
