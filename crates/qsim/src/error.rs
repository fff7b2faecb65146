//! Error type for simulator operations.

use std::fmt;

/// Errors produced by quantum-simulator operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A qubit index was out of range for the register.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// Number of qubits in the register.
        n_qubits: usize,
    },
    /// Two qubit operands must be distinct but were equal.
    DuplicateQubit {
        /// The repeated index.
        qubit: usize,
    },
    /// The state amplitudes are not normalized (or trace ≠ 1 for density
    /// matrices).
    NotNormalized {
        /// The measured norm (or trace).
        norm: f64,
    },
    /// The amplitude vector length is not a power of two.
    BadDimension {
        /// The offending length.
        len: usize,
    },
    /// The supplied matrix is not unitary within tolerance.
    NotUnitary,
    /// The supplied Kraus set is not trace preserving (Σ Kᵢ†Kᵢ ≠ I).
    NotTracePreserving {
        /// Deviation of Σ Kᵢ†Kᵢ from the identity.
        deviation: f64,
    },
    /// The qubit has already been consumed by a destructive measurement.
    AlreadyMeasured {
        /// Which party's qubit was measured twice.
        party: &'static str,
    },
    /// A probability parameter was outside `[0, 1]`.
    BadProbability {
        /// The offending value.
        value: f64,
    },
    /// Two registers had incompatible sizes for the requested operation.
    SizeMismatch {
        /// Description of the operation.
        op: &'static str,
        /// Left size.
        lhs: usize,
        /// Right size.
        rhs: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::QubitOutOfRange { qubit, n_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {n_qubits}-qubit register"
                )
            }
            SimError::DuplicateQubit { qubit } => {
                write!(f, "operands must be distinct qubits, both were {qubit}")
            }
            SimError::NotNormalized { norm } => {
                write!(f, "state is not normalized: norm/trace = {norm}")
            }
            SimError::BadDimension { len } => {
                write!(f, "amplitude vector length {len} is not a power of two")
            }
            SimError::NotUnitary => write!(f, "matrix is not unitary"),
            SimError::NotTracePreserving { deviation } => {
                write!(
                    f,
                    "Kraus set is not trace preserving (deviation {deviation})"
                )
            }
            SimError::AlreadyMeasured { party } => {
                write!(
                    f,
                    "{party}'s qubit was already measured (measurement is destructive)"
                )
            }
            SimError::BadProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            SimError::SizeMismatch { op, lhs, rhs } => {
                write!(f, "size mismatch in {op}: {lhs} vs {rhs}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_fields() {
        let e = SimError::QubitOutOfRange {
            qubit: 5,
            n_qubits: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
        let e = SimError::AlreadyMeasured { party: "Alice" };
        assert!(e.to_string().contains("Alice"));
    }
}
