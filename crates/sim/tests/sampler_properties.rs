//! Statistical properties of the per-round samplers, over many rounds
//! at fixed seeds.
//!
//! Each check compares an empirical mean with its expectation and
//! allows five standard deviations of that mean, with σ derived from
//! the binomial (or Bernoulli) variance of the draw, not fitted to the
//! seed. A correct sampler fails one device's check with probability
//! ~6·10⁻⁷, so the suite as a whole stays below ~10⁻³ for any seed,
//! while a sampler off by the margins below fails every time.

use fedprox_core::SamplerSpec;
use fedprox_sim::sampler::bernoulli_reweight;
use fedprox_sim::Sampler;

const SEED: u64 = 0x5A4D_71E5;

/// Allowed deviation of an empirical mean, in standard deviations.
const SIGMAS: f64 = 5.0;

/// How often each of `n` devices is selected over `rounds` rounds.
fn inclusion_counts(
    spec: SamplerSpec,
    n: usize,
    rounds: usize,
    size_of: impl Fn(usize) -> usize + Copy,
) -> Vec<usize> {
    let sampler = Sampler::new(spec);
    let mut hits = vec![0usize; n];
    for s in 1..=rounds {
        for d in sampler.sample(n, s, SEED, size_of) {
            hits[d] += 1;
        }
    }
    hits
}

/// Check `count` against Binomial(rounds, prob) within [`SIGMAS`] σ.
fn assert_binomial(what: &str, count: usize, rounds: usize, prob: f64) {
    let mean = rounds as f64 * prob;
    let sigma = (rounds as f64 * prob * (1.0 - prob)).sqrt();
    let dev = (count as f64 - mean).abs();
    assert!(
        dev <= SIGMAS * sigma,
        "{what}: {count} inclusions, expected {mean:.1} ± {:.1} ({SIGMAS}σ)",
        SIGMAS * sigma
    );
}

#[test]
fn uniform_k_includes_each_device_with_probability_k_over_n() {
    let (n, k, rounds) = (1000, 50, 2000);
    let hits = inclusion_counts(SamplerSpec::UniformK(k), n, rounds, |_| 1);
    assert_eq!(
        hits.iter().sum::<usize>(),
        k * rounds,
        "K devices every round"
    );
    let prob = k as f64 / n as f64;
    for (d, &h) in hits.iter().enumerate() {
        assert_binomial(&format!("uniform-K device {d}"), h, rounds, prob);
    }
}

#[test]
fn weighted_one_includes_each_device_in_proportion_to_its_size() {
    let (n, rounds) = (10, 20_000);
    let size_of = |d: usize| 5 * (d + 1);
    let total: usize = (0..n).map(size_of).sum();
    let hits = inclusion_counts(SamplerSpec::WeightedK(1), n, rounds, size_of);
    assert_eq!(hits.iter().sum::<usize>(), rounds, "one device every round");
    for (d, &h) in hits.iter().enumerate() {
        let prob = size_of(d) as f64 / total as f64;
        assert_binomial(&format!("weighted-1 device {d}"), h, rounds, prob);
    }
}

#[test]
fn bernoulli_reweighted_aggregate_is_unbiased_for_full_participation() {
    let (n, p, rounds) = (200, 0.1, 4000);
    let dim = 3;
    // Fixed per-device "updates" and the previous global model the
    // residual weight stays on.
    let v = |d: usize, j: usize| ((d * 7 + j * 13) % 17) as f64 - 8.0 + 0.1 * j as f64;
    let prev = [0.5, -1.0, 2.0];
    let sizes: Vec<f64> = (0..n).map(|d| (10 + d % 23) as f64).collect();
    let total: f64 = sizes.iter().sum();
    let weight = |d: usize| sizes[d] / total;
    let full: Vec<f64> = (0..dim)
        .map(|j| (0..n).map(|d| weight(d) * v(d, j)).sum())
        .collect();

    let sampler = Sampler::new(SamplerSpec::Bernoulli(p));
    let mut mean = vec![0.0; dim];
    for s in 1..=rounds {
        let active = sampler.sample(n, s, SEED, |_| 1);
        let weights: Vec<f64> = active.iter().map(|&d| weight(d)).collect();
        let (scaled, residual) = bernoulli_reweight(&weights, p);
        for (j, m) in mean.iter_mut().enumerate() {
            let agg: f64 = active
                .iter()
                .zip(&scaled)
                .map(|(&d, w)| w * v(d, j))
                .sum::<f64>()
                + residual * prev[j];
            *m += agg / rounds as f64;
        }
    }
    for j in 0..dim {
        // One round's estimate varies only through the independent
        // activations: Var = (1 − p)/p · Σ_d w_d² (v_dj − prev_j)².
        let var: f64 = (1.0 - p) / p
            * (0..n)
                .map(|d| (weight(d) * (v(d, j) - prev[j])).powi(2))
                .sum::<f64>();
        let sigma = (var / rounds as f64).sqrt();
        assert!(
            (mean[j] - full[j]).abs() <= SIGMAS * sigma,
            "coordinate {j}: reweighted mean {} vs full aggregate {} (5σ = {})",
            mean[j],
            full[j],
            SIGMAS * sigma
        );
    }
}
