//! Typed failures of a federated run.
//!
//! Training dynamics (divergence, loss guards, quorum skips) are *not*
//! errors — they are recorded in [`crate::metrics::History`]. A
//! [`FedError`] means the run itself could not proceed: a public API was
//! driven outside its contract, or the simulated transport failed.

use fedprox_net::NetError;
use std::fmt;

/// Why a federated run (or a single local update) could not proceed.
#[derive(Debug, Clone, PartialEq)]
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
    /// The federation has no devices.
    EmptyFederation,
    /// A materialized device is not at the position its id names
    /// (devices must be indexed by stable id).
    DeviceIdMismatch {
        /// Position in the device slice.
        position: usize,
        /// The device's `id` field.
        id: usize,
    },
    /// A device holds no training samples, so it has no aggregation
    /// weight and no local objective.
    EmptyShard {
        /// The empty device.
        device: usize,
    },
    /// FSVRG was asked of the event-driven backend: its server-distributed
    /// global gradient needs a full-population pass every round, which
    /// contradicts sampling.
    EventDrivenGlobalGradient,
    /// The networked backend was asked for partial participation
    /// (`FedConfig::participation < 1`); its actors always run every
    /// device. Use `Sequential`/`Parallel`, or the event-driven engine's
    /// samplers.
    NetworkPartialParticipation,
    /// The networked backend was asked to run FSVRG, whose extra
    /// global-gradient exchange it does not model.
    NetworkGlobalGradient,
    /// A round named a device index past the end of the federation.
    UnknownDevice {
        /// The requested device index.
        index: usize,
        /// How many devices the federation has.
        devices: usize,
    },
    /// A Bernoulli sampler's activation probability is outside (0, 1]
    /// (or NaN): no round could weight its participants by 1/p.
    InvalidBernoulli {
        /// The refused probability.
        p: f64,
    },
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::MissingGlobalGradient { round } => write!(
                f,
                "fsvrg: round {round} local update requires the server-distributed global gradient"
            ),
            FedError::Net(e) => write!(f, "networked backend: {e}"),
            FedError::EmptyFederation => write!(f, "the federation needs at least one device"),
            FedError::DeviceIdMismatch { position, id } => {
                write!(f, "device at position {position} has id {id}; ids must match positions")
            }
            FedError::EmptyShard { device } => write!(f, "device {device} has no data"),
            FedError::EventDrivenGlobalGradient => write!(
                f,
                "FSVRG needs a full-population gradient exchange; the event-driven backend samples"
            ),
            FedError::NetworkPartialParticipation => write!(
                f,
                "the networked backend requires full participation; use Sequential/Parallel"
            ),
            FedError::NetworkGlobalGradient => write!(
                f,
                "FSVRG's extra gradient exchange is not modelled by the networked backend"
            ),
            FedError::UnknownDevice { index, devices } => {
                write!(f, "device index {index} is out of range for {devices} devices")
            }
            FedError::InvalidBernoulli { p } => {
                write!(f, "Bernoulli activation probability {p} is not in (0, 1]")
            }
        }
    }
}

impl std::error::Error for FedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FedError::Net(e) => Some(e),
            FedError::MissingGlobalGradient { .. }
            | FedError::EmptyFederation
            | FedError::DeviceIdMismatch { .. }
            | FedError::EmptyShard { .. }
            | FedError::EventDrivenGlobalGradient
            | FedError::NetworkPartialParticipation
            | FedError::NetworkGlobalGradient
            | FedError::UnknownDevice { .. }
            | FedError::InvalidBernoulli { .. } => None,
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
