//! The Synthetic(α, β) heterogeneous dataset of Li et al. (FedProx),
//! which the paper uses to control statistical heterogeneity.
//!
//! For each device `n`:
//!
//! * a model offset `u_n ~ N(0, α)` draws device-specific softmax weights
//!   `W_n[i,j] ~ N(u_n, 1)`, `b_n[i] ~ N(u_n, 1)`,
//! * a feature offset `B_n ~ N(0, β)` draws the feature mean
//!   `v_n[j] ~ N(B_n, 1)`,
//! * inputs are `x ~ N(v_n, Σ)` with diagonal `Σ_jj = j^{-1.2}`,
//! * labels are `y = argmax(softmax(W_n x + b_n))`.
//!
//! `α` controls *model* heterogeneity and `β` controls *feature*
//! heterogeneity; `(0, 0)` with `iid = true` reduces to a common model on
//! i.i.d. features. Larger (α, β) directly increases the paper's
//! σ̄²-divergence (measured empirically in [`crate::stats`]).

use crate::dataset::Dataset;
use fedprox_tensor::kernel::matvec_into;
use fedprox_tensor::{activations::softmax_inplace, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Configuration for the Synthetic(α, β) generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Model-heterogeneity variance α.
    pub alpha: f64,
    /// Feature-heterogeneity variance β.
    pub beta: f64,
    /// Feature dimensionality (the paper/source uses 60).
    pub dim: usize,
    /// Number of classes (10).
    pub num_classes: usize,
    /// When true, every device shares one model and one feature mean —
    /// the i.i.d. control case.
    pub iid: bool,
    /// Master seed; device `n` derives stream `seed ⊕ h(n)`.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig { alpha: 1.0, beta: 1.0, dim: 60, num_classes: 10, iid: false, seed: 0 }
    }
}

/// Deterministic per-device RNG stream: mixes the master seed with the
/// device id via SplitMix64 so streams are independent and reproducible
/// regardless of generation order.
pub fn device_rng(seed: u64, device: u64) -> StdRng {
    let mut z = seed ^ device.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Generate the per-device shards. `sizes[n]` is device `n`'s sample count
/// (use [`crate::partition::power_law_sizes`] to draw the paper's
/// power-law counts).
pub fn generate(cfg: &SyntheticConfig, sizes: &[usize]) -> Vec<Dataset> {
    let pool = SyntheticPool::new(cfg.clone());
    sizes.iter().enumerate().map(|(n, &size)| pool.device_shard(n, size)).collect()
}

/// Lazy per-device synthesis of the same federation [`generate`] builds
/// eagerly.
///
/// Holds the cross-device state (the Σ diagonal, the `N(0, 1)`,
/// `N(0, α)` and `N(0, β)` distributions and, in the i.i.d. control
/// case, the single shared model drawn from stream `u64::MAX`) so a
/// shard can be synthesized for one device at a time and dropped after
/// use. Device `n` consumes only its own `device_rng(seed, n)` stream,
/// so [`SyntheticPool::device_shard`] is bitwise identical to
/// `generate(cfg, sizes)[n]` regardless of which other devices are ever
/// materialized — the property the million-device event-driven backend
/// relies on to keep memory bounded by the sampled set.
#[derive(Debug, Clone)]
pub struct SyntheticPool {
    cfg: SyntheticConfig,
    diag_std: Vec<f64>,
    unit: Normal,
    /// `N(0, α)` for the model offset `u_n` (see [`offset`]).
    model_offset: Normal,
    /// `N(0, β)` for the feature offset `B_n` (see [`offset`]).
    feature_offset: Normal,
    /// The i.i.d. control case's shared model (boxed: most pools have none).
    shared: Option<Box<ModelDraw>>,
}

impl SyntheticPool {
    /// Precompute the shared state for `cfg`.
    pub fn new(cfg: SyntheticConfig) -> Self {
        let diag_std: Vec<f64> =
            (1..=cfg.dim).map(|j| (j as f64).powf(-1.2).sqrt()).collect();
        let unit = Normal::new(0.0, 1.0).expect("unit normal");
        let spread = |var: f64| {
            let std_dev = if var > 0.0 { var.sqrt() } else { 0.0 };
            Normal::new(0.0, std_dev).expect("finite heterogeneity variance")
        };
        let (model_offset, feature_offset) = (spread(cfg.alpha), spread(cfg.beta));
        // In the i.i.d. control case all devices share the model drawn
        // from stream u64::MAX (never a device id).
        let shared = if cfg.iid {
            let mut rng = device_rng(cfg.seed, u64::MAX);
            Some(Box::new(draw_model(&mut rng, &unit, 0.0, &cfg)))
        } else {
            None
        };
        SyntheticPool { cfg, diag_std, unit, model_offset, feature_offset, shared }
    }

    /// The generator configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Synthesize device `n`'s shard with `size` samples.
    pub fn device_shard(&self, n: usize, size: usize) -> Dataset {
        let cfg = &self.cfg;
        let unit = &self.unit;
        let mut rng = device_rng(cfg.seed, n as u64);
        let drawn;
        let (w, b, v) = match self.shared.as_deref() {
            Some((sw, sb, sv)) => (sw, sb, sv),
            None => {
                let u_n = offset(&self.model_offset, &mut rng);
                let (w, b, _) = draw_model(&mut rng, unit, u_n, cfg);
                let big_b = offset(&self.feature_offset, &mut rng);
                let v: Vec<f64> = (0..cfg.dim).map(|_| big_b + unit.sample(&mut rng)).collect();
                drawn = (w, b, v);
                (&drawn.0, &drawn.1, &drawn.2)
            }
        };

        let mut feats = Matrix::zeros(size, cfg.dim);
        let mut labels = Vec::with_capacity(size);
        let mut logits = vec![0.0; cfg.num_classes];
        for i in 0..size {
            let row = feats.row_mut(i);
            for j in 0..cfg.dim {
                row[j] = v[j] + self.diag_std[j] * unit.sample(&mut rng);
            }
            matvec_into(w.as_slice(), cfg.num_classes, cfg.dim, row, &mut logits);
            for (l, bi) in logits.iter_mut().zip(b) {
                *l += bi;
            }
            softmax_inplace(&mut logits);
            let y = argmax(&logits);
            labels.push(y as f64);
        }
        Dataset::new(feats, labels, cfg.num_classes)
    }
}

type ModelDraw = (Matrix, Vec<f64>, Vec<f64>);

/// One heterogeneity offset. A zero variance (α or β = 0) draws
/// nothing and yields 0, so it consumes none of the device's stream.
fn offset(spread: &Normal, rng: &mut impl Rng) -> f64 {
    if spread.std_dev() > 0.0 {
        spread.sample(rng)
    } else {
        0.0
    }
}

/// Draw `(W, b, v)` around offset `u_n`. The non-i.i.d. path discards
/// `v` (it draws its own around `B_n`) but the draw stays, so every
/// later sample keeps its place in the device's stream.
fn draw_model(rng: &mut impl Rng, unit: &Normal, u_n: f64, cfg: &SyntheticConfig) -> ModelDraw {
    let mut w = Matrix::zeros(cfg.num_classes, cfg.dim);
    for v in w.as_mut_slice() {
        *v = u_n + unit.sample(rng);
    }
    let b: Vec<f64> = (0..cfg.num_classes).map(|_| u_n + unit.sample(rng)).collect();
    let v: Vec<f64> = (0..cfg.dim).map(|_| unit.sample(rng)).collect();
    (w, b, v)
}

fn argmax(x: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_have_requested_sizes_and_dims() {
        let cfg = SyntheticConfig { seed: 7, ..Default::default() };
        let shards = generate(&cfg, &[10, 25, 3]);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].len(), 10);
        assert_eq!(shards[1].len(), 25);
        assert_eq!(shards[2].len(), 3);
        for s in &shards {
            assert_eq!(s.dim(), 60);
            assert_eq!(s.num_classes(), 10);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = SyntheticConfig { seed: 42, ..Default::default() };
        let a = generate(&cfg, &[20, 20]);
        let b = generate(&cfg, &[20, 20]);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SyntheticConfig { seed: 1, ..Default::default() }, &[30]);
        let b = generate(&SyntheticConfig { seed: 2, ..Default::default() }, &[30]);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn iid_devices_share_label_structure() {
        // With iid=true and many samples, per-device class histograms
        // should be much closer than with heavy heterogeneity.
        let n = 400;
        let iid = generate(
            &SyntheticConfig { iid: true, seed: 5, ..Default::default() },
            &[n, n],
        );
        let het = generate(
            &SyntheticConfig { alpha: 4.0, beta: 4.0, seed: 5, ..Default::default() },
            &[n, n],
        );
        let tv = |a: &Dataset, b: &Dataset| -> f64 {
            let ha = a.class_histogram();
            let hb = b.class_histogram();
            ha.iter()
                .zip(&hb)
                .map(|(&x, &y)| ((x as f64 / n as f64) - (y as f64 / n as f64)).abs())
                .sum::<f64>()
                / 2.0
        };
        assert!(
            tv(&iid[0], &iid[1]) < tv(&het[0], &het[1]) + 0.25,
            "iid TV {} vs het TV {}",
            tv(&iid[0], &iid[1]),
            tv(&het[0], &het[1])
        );
    }

    #[test]
    fn labels_cover_multiple_classes() {
        // A single non-iid shard may legitimately concentrate on one or
        // two classes (that is the heterogeneity being modelled), so the
        // coverage claim is about the federation: pooled across devices,
        // the generator must produce a genuinely multi-class problem.
        let cfg = SyntheticConfig { seed: 11, ..Default::default() };
        let shards = generate(&cfg, &[500, 500, 500, 500]);
        let mut labels = std::collections::BTreeSet::new();
        for s in &shards {
            labels.extend(s.distinct_labels());
        }
        assert!(labels.len() >= 3, "only {} distinct labels pooled", labels.len());
    }

    #[test]
    fn feature_variance_decays_with_index() {
        // Σ_jj = j^{-1.2}: later features should have smaller variance.
        let cfg = SyntheticConfig { alpha: 0.0, beta: 0.0, seed: 3, ..Default::default() };
        let shards = generate(&cfg, &[4000]);
        let d = &shards[0];
        let col_var = |j: usize| -> f64 {
            let vals: Vec<f64> = (0..d.len()).map(|i| d.x(i)[j]).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64
        };
        assert!(col_var(0) > col_var(40));
    }

    #[test]
    fn lazy_pool_matches_eager_generate_bitwise() {
        let cfg = SyntheticConfig { alpha: 2.0, beta: 0.5, seed: 23, ..Default::default() };
        let sizes = [12, 40, 7, 25];
        let eager = generate(&cfg, &sizes);
        let pool = SyntheticPool::new(cfg);
        // Materialize out of order and only a subset: each shard must
        // still equal the eager one (streams are per-device).
        for &n in &[2usize, 0, 3] {
            assert_eq!(pool.device_shard(n, sizes[n]), eager[n], "device {n}");
        }
    }

    #[test]
    fn lazy_pool_matches_eager_generate_iid() {
        let cfg = SyntheticConfig { iid: true, seed: 31, ..Default::default() };
        let sizes = [15, 9];
        let eager = generate(&cfg, &sizes);
        let pool = SyntheticPool::new(cfg);
        assert_eq!(pool.device_shard(1, 9), eager[1]);
        assert_eq!(pool.device_shard(0, 15), eager[0]);
    }

    #[test]
    fn device_rng_streams_are_independent() {
        let mut a = device_rng(9, 0);
        let mut b = device_rng(9, 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
        // And reproducible.
        let mut a2 = device_rng(9, 0);
        assert_eq!(a2.gen::<u64>(), xa);
    }
}
