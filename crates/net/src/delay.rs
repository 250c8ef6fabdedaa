//! Communication and computation delay models.
//!
//! The paper's time model (Section 4.3) uses two scalars: `d_com`, the
//! per-round communication delay, and `d_cmp`, the per-local-iteration
//! compute delay, combined as `T (d_com + d_cmp τ)` (eq. (19)) and reduced
//! to the single weight factor `γ = d_cmp / d_com`. These models supply
//! the randomness around those means when the runtime simulates
//! heterogeneous devices.

use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// A non-negative random delay in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayModel {
    /// Always exactly `.0` seconds.
    Constant(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// LogNormal with the given log-space parameters — heavy-tailed, the
    /// classic straggler distribution.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std-dev of the underlying normal.
        sigma: f64,
    },
}

impl DelayModel {
    /// Draw one delay.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            DelayModel::Constant(d) => {
                debug_assert!(d >= 0.0);
                d
            }
            DelayModel::Uniform { lo, hi } => {
                debug_assert!(0.0 <= lo && lo <= hi);
                if lo == hi {
                    lo
                } else {
                    rng.gen_range(lo..hi)
                }
            }
            DelayModel::LogNormal { mu, sigma } => {
                debug_assert!(sigma >= 0.0);
                match LogNormal::new(mu, sigma) {
                    Ok(d) => d.sample(rng),
                    // Degenerate σ: deterministic median e^μ.
                    Err(_) => mu.exp(),
                }
            }
        }
    }
}

/// A directed link: fixed-latency draw plus size-proportional
/// transmission time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Per-message latency model.
    pub latency: DelayModel,
    /// Throughput in bytes/second (`f64::INFINITY` for latency-only).
    pub bytes_per_sec: f64,
}

impl LinkSpec {
    /// A constant-latency, infinite-bandwidth link.
    pub fn constant(latency: f64) -> Self {
        LinkSpec { latency: DelayModel::Constant(latency), bytes_per_sec: f64::INFINITY }
    }

    /// Total transfer time for a message of `bytes`.
    pub fn transfer_time<R: Rng>(&self, bytes: usize, rng: &mut R) -> f64 {
        let lat = self.latency.sample(rng);
        if self.bytes_per_sec.is_finite() {
            lat + bytes as f64 / self.bytes_per_sec
        } else {
            lat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DelayModel::Constant(0.5);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 0.5);
        }
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = DelayModel::Uniform { lo: 0.1, hi: 0.3 };
        let mut total = 0.0;
        for _ in 0..2000 {
            let s = m.sample(&mut rng);
            assert!((0.1..0.3).contains(&s));
            total += s;
        }
        assert!((total / 2000.0 - 0.2).abs() < 0.01);
        // Degenerate interval.
        let d = DelayModel::Uniform { lo: 0.4, hi: 0.4 };
        assert_eq!(d.sample(&mut rng), 0.4);
    }

    #[test]
    fn lognormal_positive_and_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DelayModel::LogNormal { mu: -2.0, sigma: 1.0 };
        let samples: Vec<f64> = (0..5000).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // E[exp(N(μ, σ²))] = exp(μ + σ²/2).
        let want = (-2.0f64 + 0.5).exp();
        assert!((mean - want).abs() < 0.05, "mean {mean} vs {want}");
        // Heavy tail: max sample far above the mean.
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 3.0 * mean);
    }

    #[test]
    fn link_transfer_time_accounts_for_bandwidth() {
        let mut rng = StdRng::seed_from_u64(4);
        let link = LinkSpec { latency: DelayModel::Constant(0.1), bytes_per_sec: 1000.0 };
        let t = link.transfer_time(500, &mut rng);
        assert!((t - 0.6).abs() < 1e-12);
        let fast = LinkSpec::constant(0.1);
        assert_eq!(fast.transfer_time(1_000_000, &mut rng), 0.1);
    }
}
