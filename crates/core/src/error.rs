//! Typed failures of a federated run.
//!
//! Training dynamics (divergence, loss guards, quorum skips) are *not*
//! errors — they are recorded in [`crate::metrics::History`]. A
//! [`FedError`] means the run itself could not proceed: a public API was
//! driven outside its contract, or the simulated transport failed.

use fedprox_net::NetError;
use std::fmt;

/// Why a federated run (or a single local update) could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    /// An FSVRG local update was requested without the
    /// server-distributed global gradient `∇F̄(w̄)` it anchors on.
    MissingGlobalGradient {
        /// The global round the update was asked for.
        round: usize,
    },
    /// The networked backend's transport layer failed (see [`NetError`]
    /// — in the in-process simulation these are protocol or
    /// configuration bugs, never training dynamics).
    Net(NetError),
    /// `RunnerKind::EventDriven` was selected on the in-process trainer.
    /// The event-driven engine lives above this crate (it synthesizes
    /// populations lazily); drive the run through
    /// `fedprox_sim::SimEngine` with the same `FedConfig`.
    EventDrivenBackend,
    /// The networked backend was asked for partial participation
    /// (`FedConfig::participation < 1`); its actors always run every
    /// device. Use `Sequential`/`Parallel`, or the event-driven engine's
    /// samplers.
    NetworkPartialParticipation,
    /// The networked backend was asked to run FSVRG, whose extra
    /// global-gradient exchange it does not model.
    NetworkGlobalGradient,
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::MissingGlobalGradient { round } => write!(
                f,
                "fsvrg: round {round} local update requires the server-distributed global gradient"
            ),
            FedError::Net(e) => write!(f, "networked backend: {e}"),
            FedError::EventDrivenBackend => write!(
                f,
                "the event-driven backend is hosted by fedprox-sim's SimEngine, \
                 not FederatedTrainer"
            ),
            FedError::NetworkPartialParticipation => write!(
                f,
                "the networked backend requires full participation; use Sequential/Parallel"
            ),
            FedError::NetworkGlobalGradient => write!(
                f,
                "FSVRG's extra gradient exchange is not modelled by the networked backend"
            ),
        }
    }
}

impl std::error::Error for FedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FedError::Net(e) => Some(e),
            FedError::MissingGlobalGradient { .. }
            | FedError::EventDrivenBackend
            | FedError::NetworkPartialParticipation
            | FedError::NetworkGlobalGradient => None,
        }
    }
}

impl From<NetError> for FedError {
    fn from(e: NetError) -> Self {
        FedError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FedError::MissingGlobalGradient { round: 3 };
        assert!(e.to_string().contains("round 3"));
        let n: FedError = NetError::RetryLimit.into();
        assert!(n.to_string().contains("networked backend"));
        assert!(std::error::Error::source(&n).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
