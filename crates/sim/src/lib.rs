//! fedsim — the event-driven execution backend that scales federated
//! training to million-device populations.
//!
//! The thread-per-device actor runtime (`fedprox-net`) tops out at
//! thousands of devices; here a device is a **compact passive state
//! machine** — no thread, no channel, just its stable id, its (possibly
//! lazily synthesized) shard, and per-(round, device) RNG streams — and
//! per-round client sampling bounds memory by the **active set**, not
//! the population. The round itself is the shared driver in
//! [`fedprox_core::driver`]; this crate is its event-driven front end:
//!
//! * [`engine`] — [`engine::SimEngine`], running Algorithm 1 over a
//!   population with the event-driven timing model and the same
//!   `FedConfig` the other backends consume (`FederatedTrainer` runs the
//!   same path for `RunnerKind::EventDriven` over its own devices),
//! * [`population`] / [`sampler`] — re-exports of the populations
//!   (materialized, or power-law [`ZipfPopulation`] + [`SyntheticPool`])
//!   and the uniform-K, weighted-by-`n_k` and Bernoulli-p samplers, which
//!   live in `fedprox-core` next to the driver,
//! * [`events`] — the sharded virtual-time event loop. No engine path
//!   runs it; it stays only because the benchmark replay names it.
//!
//! **Correctness is inherited, not asserted**: on a materialized
//! population with the [`SamplerSpec::Full`] sampler (p = 1) the engine
//! reproduces the strict sequential backend's trajectory bitwise, and
//! with [`SamplerSpec::UniformK`]`(⌈pN⌉)` it reproduces sequential
//! partial participation bitwise (both consume the identical
//! `(seed, round)` sampling stream). The root `tests/sim_runtime.rs`
//! suite proves both.
//!
//! The `fedsim` CLI lives in `fedprox-bench` next to the other scenario
//! runners so it can reuse the `TraceSession` / counting-allocator
//! plumbing without creating a dependency cycle with `fedprox-perfbench`
//! (which macro-benchmarks this crate).
//!
//! [`ZipfPopulation`]: fedprox_data::partition::ZipfPopulation
//! [`SyntheticPool`]: fedprox_data::synthetic::SyntheticPool
//! [`SamplerSpec::Full`]: fedprox_core::SamplerSpec::Full
//! [`SamplerSpec::UniformK`]: fedprox_core::SamplerSpec::UniformK

#![warn(missing_docs)]

pub mod engine;
pub mod events;

pub use engine::SimEngine;
pub use events::{DeviceTiming, ShardedEventLoop};
pub use fedprox_core::driver::RoundStats;
pub use fedprox_core::{population, sampler};
pub use fedprox_core::{LazyPopulation, Population, Sampler};
