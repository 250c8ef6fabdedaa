//! Device populations: materialized (a device slice every backend can
//! run) or synthesized lazily per sampled device.

use crate::device::Device;
use crate::error::FedError;
use fedprox_data::partition::ZipfPopulation;
use fedprox_data::synthetic::SyntheticPool;

/// A lazily synthesized power-law population: sample counts (and
/// compute-speed heterogeneity) from a [`ZipfPopulation`], shard
/// contents from a [`SyntheticPool`]. A device's shard is built when a
/// round samples it and dropped when the round ends, so resident memory
/// never scales with the population size.
#[derive(Debug, Clone)]
pub struct LazyPopulation {
    /// Per-device sample counts and compute factors (O(1) lookups).
    pub zipf: ZipfPopulation,
    /// Per-device shard synthesis (bitwise equal to eager generation).
    /// Boxed: the pool carries its shared model and three normals, and
    /// held inline it put [`Population::Lazy`] within 8 bytes of
    /// clippy's `large_enum_variant` limit.
    pub pool: Box<SyntheticPool>,
}

impl LazyPopulation {
    /// Bundle a size distribution with a shard generator. The pool's
    /// feature dimension must match the model the engine runs.
    pub fn new(zipf: ZipfPopulation, pool: SyntheticPool) -> Self {
        LazyPopulation { zipf, pool: Box::new(pool) }
    }

    /// Synthesize device `d` (stable id preserved).
    pub fn device(&self, d: usize) -> Device {
        Device::new(d, self.pool.device_shard(d, self.zipf.size_of(d)))
    }
}

/// The population the round driver ([`crate::driver`]) runs over.
pub enum Population<'a> {
    /// Concrete devices, indexed by stable id. Supports full evaluation,
    /// FSVRG's global gradient and the health monitor.
    Materialized(&'a [Device]),
    /// Power-law synthetic population synthesized per sampled device
    /// (million-device scale; no full-population evaluation).
    Lazy(LazyPopulation),
}

impl Population<'_> {
    /// Number of devices `N`.
    pub fn len(&self) -> usize {
        match self {
            Population::Materialized(d) => d.len(),
            Population::Lazy(l) => l.zipf.len(),
        }
    }

    /// Whether the population is empty (the driver rejects this).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The device slice of a materialized population.
    pub fn materialized(&self) -> Option<&[Device]> {
        match self {
            Population::Materialized(devs) => Some(devs),
            Population::Lazy(_) => None,
        }
    }

    /// Check the population is runnable: non-empty and, when
    /// materialized, indexed by id with no empty shard (aggregation
    /// weights come from shard sizes).
    pub fn validate(&self) -> Result<(), FedError> {
        if self.is_empty() {
            return Err(FedError::EmptyFederation);
        }
        for (position, d) in self.materialized().unwrap_or_default().iter().enumerate() {
            if d.id != position {
                return Err(FedError::DeviceIdMismatch { position, id: d.id });
            }
            if d.data.is_empty() {
                return Err(FedError::EmptyShard { device: position });
            }
        }
        Ok(())
    }

    /// Device `d`'s sample count `D_d`.
    pub fn size_of(&self, d: usize) -> usize {
        match self {
            Population::Materialized(devs) => devs[d].samples(),
            Population::Lazy(l) => l.zipf.size_of(d),
        }
    }

    /// Total federation sample count `D`.
    pub fn total_samples(&self) -> u64 {
        match self {
            Population::Materialized(devs) => {
                devs.iter().map(|d| d.samples() as u64).sum()
            }
            Population::Lazy(l) => l.zipf.total_samples(),
        }
    }

    /// Device `d`'s compute-speed multiplier (hardware heterogeneity;
    /// 1.0 for materialized populations).
    pub fn compute_factor_of(&self, d: usize) -> f64 {
        match self {
            Population::Materialized(_) => 1.0,
            Population::Lazy(l) => l.zipf.compute_factor_of(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// clippy's `large_enum_variant` fails the build once one variant
    /// outgrows another by 200 bytes. `Materialized` is a 16-byte slice,
    /// so `Lazy` must stay well under that: this bound (88 bytes today)
    /// trips first, with a message that says what to box.
    #[test]
    fn population_stays_small_enough_to_move_by_value() {
        let size = std::mem::size_of::<Population<'_>>();
        assert!(
            size <= 128,
            "Population is {size} bytes: box the part of LazyPopulation that grew \
             (clippy's large_enum_variant limit is 200 bytes over the 16-byte slice)"
        );
    }
}
