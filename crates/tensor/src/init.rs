//! Seeded parameter initialisation (Xavier/Glorot, He, uniform).
//!
//! All initialisers take an explicit RNG so that every experiment in the
//! benchmark harness is reproducible from a single `u64` seed.

use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rng: &mut impl Rng, buf: &mut [f64], fan_in: usize, fan_out: usize) {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    for v in buf.iter_mut() {
        *v = rng.gen_range(-a..=a);
    }
}

/// He normal: `N(0, sqrt(2 / fan_in))`, suited to ReLU layers.
pub fn he_normal(rng: &mut impl Rng, buf: &mut [f64], fan_in: usize) {
    let std = (2.0 / fan_in.max(1) as f64).sqrt();
    #[allow(clippy::expect_used)]
    // fedlint: allow(no-panic) — σ = sqrt(2 / max(fan_in, 1)) is finite and positive for every layer shape
    let dist = Normal::new(0.0, std).expect("he_normal: invalid std");
    for v in buf.iter_mut() {
        *v = dist.sample(rng);
    }
}

/// Uniform `U(-scale, scale)`.
pub fn uniform(rng: &mut impl Rng, buf: &mut [f64], scale: f64) {
    for v in buf.iter_mut() {
        *v = rng.gen_range(-scale..=scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0; 1000];
        xavier_uniform(&mut rng, &mut buf, 100, 50);
        let a = (6.0_f64 / 150.0).sqrt();
        assert!(buf.iter().all(|v| v.abs() <= a));
        // Not all zero.
        assert!(buf.iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn he_normal_std_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = vec![0.0; 20000];
        he_normal(&mut rng, &mut buf, 50);
        let want_std = (2.0_f64 / 50.0).sqrt();
        let mean = buf.iter().sum::<f64>() / buf.len() as f64;
        let var = buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / buf.len() as f64;
        assert!(mean.abs() < 0.01);
        assert!((var.sqrt() - want_std).abs() < 0.02);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        xavier_uniform(&mut StdRng::seed_from_u64(7), &mut a, 4, 4);
        xavier_uniform(&mut StdRng::seed_from_u64(7), &mut b, 4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_respects_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = vec![0.0; 500];
        uniform(&mut rng, &mut buf, 0.1);
        assert!(buf.iter().all(|v| v.abs() <= 0.1));
    }
}
