//! # qsim — exact statevector and density-matrix quantum simulator
//!
//! This crate stands in for the quantum hardware of the paper's Figure 1
//! architecture (SPDC entangled-photon source + quantum NICs): it simulates
//! small quantum systems *exactly*, which the paper itself endorses for
//! testbed evaluation ("controlled studies can 'cheat' by classically
//! simulating quantum correlations", §5).
//!
//! ## Contents
//!
//! - [`StateVector`]: pure states on up to ~20 qubits, with gate
//!   application and projective measurement (computational and rotated
//!   bases).
//! - [`gates`]: the standard gate set (H, Pauli, S, T, rotations, CNOT, …).
//! - [`DensityMatrix`]: mixed states, partial trace, fidelity — needed for
//!   noise modeling and for the ECMP reduction argument (§4.2), which is a
//!   statement about reduced density matrices.
//! - [`noise`]: Kraus channels (depolarizing, dephasing, amplitude
//!   damping) and Werner states, the standard model for imperfect Bell
//!   pairs from a real SPDC source.
//! - [`bell`]: Bell-pair / GHZ / W state constructors.
//! - [`SharedPair`] / [`SharedState`]: the *locality-enforcing* façade used
//!   by the games layer: parties can only measure their own qubit in a
//!   basis of their choosing; there is no API through which one party's
//!   input can reach another.
//!
//! ## Qubit ordering convention
//!
//! Qubit 0 is the *leftmost* label in ket notation: `|q₀q₁…qₙ₋₁⟩`. The
//! amplitude index `b` encodes qubit `k` in bit `(b >> (n-1-k)) & 1`. All
//! public APIs use this convention consistently.

pub mod bell;
pub mod density;
pub mod error;
pub mod gates;
pub mod ghz;
pub mod measure;
pub mod noise;
pub mod pair;
pub mod state;
pub mod tomography;
pub mod werner;

pub use density::DensityMatrix;
pub use error::SimError;
pub use gates::{Gate1, Gate2};
pub use ghz::NoisyGhz;
pub use measure::{measure_in_angle_basis, measure_in_basis, Basis1};
pub use noise::KrausChannel;
pub use pair::{Party, SharedPair, SharedState};
pub use state::StateVector;
pub use werner::WernerPair;

/// Numerical tolerance for state validity checks (normalization, trace).
pub const EPS: f64 = 1e-9;
