//! Error type for simulation configuration and the sharded engine.

use std::fmt;

/// Errors produced by simulation configuration validation and the
/// sharded engine ([`crate::shard`]).
///
/// Mirrors [`games::GameError`]: configurations the paper studies never
/// error; these signal structurally impossible requests up front, instead
/// of panicking from deep inside a simulation loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// `n_balancers == 0`: no task sources, nothing to simulate.
    NoBalancers,
    /// Fewer servers than the configuration can route to (`0` for any
    /// run; paired strategies need at least 2 to ever split a pair).
    TooFewServers {
        /// Servers requested.
        n_servers: usize,
        /// Minimum the configuration requires.
        min: usize,
    },
    /// `timesteps == 0`: an empty measurement window.
    NoTimesteps,
    /// `warmup + timesteps` overflows u64, so the step counter would
    /// wrap — rejected up front rather than looping forever.
    HorizonOverflow {
        /// Warmup steps requested.
        warmup: u64,
        /// Measured steps requested.
        timesteps: u64,
    },
    /// A load ratio that is not a positive finite number.
    BadLoad {
        /// The offending load.
        load: f64,
    },
    /// An arrival model with an out-of-range probability or period.
    BadArrivalModel {
        /// Label of the offending model.
        model: &'static str,
    },
    /// A queue discipline the lane-split structure-of-arrays backend
    /// cannot represent faithfully.
    UnsupportedDiscipline {
        /// Label of the offending discipline.
        discipline: &'static str,
    },
    /// A strategy the sharded backend does not implement.
    UnsupportedStrategy {
        /// Label of the offending strategy.
        strategy: &'static str,
    },
    /// `shards == 0`: state must live somewhere.
    NoShards,
    /// `epoch_len == 0`: the batch advance would never make progress.
    EmptyEpoch,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoBalancers => write!(f, "need at least one load balancer"),
            SimError::TooFewServers { n_servers, min } => {
                write!(f, "need at least {min} servers, got {n_servers}")
            }
            SimError::NoTimesteps => write!(f, "need at least one measured timestep"),
            SimError::HorizonOverflow { warmup, timesteps } => write!(
                f,
                "warmup {warmup} + timesteps {timesteps} overflows the u64 step counter"
            ),
            SimError::BadLoad { load } => {
                write!(f, "load must be a positive finite number, got {load}")
            }
            SimError::BadArrivalModel { model } => {
                write!(f, "arrival model {model:?} has out-of-range parameters")
            }
            SimError::UnsupportedDiscipline { discipline } => write!(
                f,
                "discipline {discipline:?} is not representable in the lane-split \
                 shard backend; use the compatibility path (run_simulation)"
            ),
            SimError::UnsupportedStrategy { strategy } => write!(
                f,
                "strategy {strategy:?} has no shard kernel; use run_simulation"
            ),
            SimError::NoShards => write!(f, "need at least one shard"),
            SimError::EmptyEpoch => write!(f, "epoch length must be at least one step"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_numbers() {
        let e = SimError::TooFewServers {
            n_servers: 0,
            min: 2,
        };
        let s = e.to_string();
        assert!(s.contains('0') && s.contains('2'), "{s}");
        let o = SimError::HorizonOverflow {
            warmup: u64::MAX,
            timesteps: 1,
        }
        .to_string();
        assert!(o.contains("overflow"), "{o}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SimError::NoBalancers, SimError::NoBalancers);
        assert_ne!(
            SimError::NoTimesteps,
            SimError::TooFewServers {
                n_servers: 1,
                min: 2
            }
        );
    }
}
