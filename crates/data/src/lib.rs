//! Federated dataset substrates for the FedProxVR reproduction.
//!
//! The paper evaluates on three datasets — a heterogeneity-controlled
//! "Synthetic" dataset (Li et al.'s Synthetic(α, β)), MNIST, and
//! Fashion-MNIST — partitioned across devices with power-law sample counts
//! and only **two of the ten labels per device**. This crate builds all of
//! that from scratch:
//!
//! * [`Dataset`] / [`FederatedDataset`] — in-memory sample stores,
//! * [`synthetic`] — the Synthetic(α, β) generator,
//! * [`images`] — procedural MNIST-like / Fashion-MNIST-like generators
//!   (substituting for the real downloads; see DESIGN.md §2),
//! * [`idx`] — a loader for real MNIST IDX files when they are available,
//! * [`partition`] — power-law + label-sharding partitioners,
//! * [`split`] — seeded train/test splitting (the paper uses 75/25),
//! * [`stats`] — empirical heterogeneity measurements (σ̄² proxies).

// fedlint: allow(clippy-allow-sync) — crate-wide: data generation is R1-exempt; a malformed dataset is a construction-time programming error, not a recoverable condition
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod dataset;
pub mod idx;
pub mod images;
pub mod partition;
pub mod split;
pub mod stats;
pub mod synthetic;

pub use dataset::{Dataset, FederatedDataset};
