//! Error type for the coordination API.

use std::fmt;

/// Errors surfaced by the high-level coordination API.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An endpoint decided twice in the same round without its peer
    /// catching up, exceeding the buffered-round limit.
    RoundOverrun {
        /// How far ahead the endpoint ran.
        ahead: usize,
    },
    /// An input vertex was outside the affinity graph.
    UnknownTaskClass {
        /// The offending vertex index.
        vertex: usize,
        /// Number of classes configured.
        n_classes: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RoundOverrun { ahead } => {
                write!(f, "endpoint ran {ahead} rounds ahead of its peer")
            }
            CoreError::UnknownTaskClass { vertex, n_classes } => {
                write!(f, "task class {vertex} outside the {n_classes}-class graph")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(CoreError::RoundOverrun { ahead: 3 }
            .to_string()
            .contains('3'));
        assert!(CoreError::UnknownTaskClass {
            vertex: 9,
            n_classes: 5
        }
        .to_string()
        .contains('9'));
    }
}
