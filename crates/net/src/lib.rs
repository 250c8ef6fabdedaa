//! Simulated federated network runtime.
//!
//! The paper evaluates FedProxVR on a star topology — one aggregation
//! server, N devices — and models total training time as
//! `T · (d_com + d_cmp · τ)` (eq. (19)). This crate is the substrate that
//! makes those quantities measurable in simulation:
//!
//! * [`message`] / [`codec`] — the wire protocol: a compact hand-rolled
//!   binary encoding (via `bytes`) so per-round traffic is counted in real
//!   bytes,
//! * [`delay`] — pluggable communication/computation delay models
//!   (constant, uniform, lognormal) and link specs with bandwidth,
//! * [`clock`] — a virtual clock: rounds advance simulated time by the
//!   *maximum* over devices of (download + compute + upload), matching the
//!   synchronous aggregation of Algorithm 1,
//! * [`runtime`] — a thread-per-device actor runtime over crossbeam
//!   channels, with failure injection (message drops with bounded
//!   retransmission, per-device compute multipliers) and an optional
//!   graceful-degradation mode driven by `fedprox_faults`: planned
//!   crashes/offline windows, round deadlines, and quorum aggregation
//!   over the responder set,
//! * `observe` (`telemetry` feature) — the round and participation
//!   observations every backend emits.
//!
//! Virtual time — never wall-clock time — drives every experiment, so γ
//! sweeps (Fig. 1) are exact and reproducible.

#![warn(missing_docs)]

pub mod clock;
pub mod codec;
pub mod delay;
pub mod message;
pub mod observe;
pub mod runtime;

pub use clock::VirtualClock;
pub use delay::{DelayModel, LinkSpec};
pub use message::Message;
pub use runtime::{
    DeviceReply, DeviceWorker, NetError, NetOptions, NetReport, NetworkRuntime, WorkerError,
};
