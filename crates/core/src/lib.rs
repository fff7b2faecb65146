//! # qnlg-core — coordination-without-communication primitives
//!
//! The paper's concluding vision (§5): package quantum non-local games as
//! "system-level abstractions that systems designers can adopt without
//! needing to understand the underlying quantum mechanics." This crate is
//! that abstraction layer.
//!
//! ## The model
//!
//! Two spatially-separated endpoints each hold a handle. When an
//! input arrives at an endpoint, it calls [`Endpoint::decide`] with *its
//! own input only* and gets a decision bit back **immediately** — no
//! network round trip (Fig. 2). The bits of the endpoints in the same
//! round are *correlated* according to the configured game:
//!
//! - [`ColocationCoordinator`] — the flipped CHSH game of §4.1: decision
//!   bits agree (→ same server) with probability cos²(π/8) ≈ 0.854 exactly
//!   when both inputs are "co-locate", and disagree with the same
//!   probability otherwise. The best classical coordinator gets 0.75.
//! - [`AffinityCoordinator`] — the general XOR-game version for ≥ 2 task
//!   classes on an [`games::AffinityGraph`]: the optimal quantum strategy
//!   is solved once at build time (§4.1 "a polynomial-time algorithm
//!   exists"), then sampled per round.
//!
//! The n-party Mermin game (§4.1) is not wrapped here: its strategies and
//! win predicate live in [`games::multiparty`], sampled by the `qsim`
//! crate's closed-form noisy-GHZ kernel.
//!
//! In production the correlation would come from entangled photon pairs
//! streamed by the Fig. 1 source; in this library it comes from the
//! game's closed-form correlation table ([`games::CorrelationBox`]),
//! which the workspace's tests check against the exact quantum
//! simulation. The *interface* — decide locally, now, with no knowledge
//! of the peer's input — is the same, and the no-signaling property is
//! enforced by construction and verified by tests.
//!
//! ## Quick example
//!
//! ```
//! use qnlg_core::{CoordinatorBuilder, TaskClass};
//!
//! let pair = CoordinatorBuilder::new().seed(7).build_colocation();
//! let (alice, bob) = pair.endpoints();
//!
//! // Each endpoint decides locally, instantly:
//! let a = alice.decide(TaskClass::Colocate);
//! let b = bob.decide(TaskClass::Colocate);
//! // With both inputs Colocate, a == b (same server) ~85% of rounds.
//! let _ = (a, b);
//! ```

pub mod coordinator;
pub mod error;

pub use coordinator::{
    AffinityCoordinator, ColocationCoordinator, CoordinatorBuilder, Endpoint, TaskClass,
};
pub use error::CoreError;
