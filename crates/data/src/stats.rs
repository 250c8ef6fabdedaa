//! Empirical heterogeneity measurements over a federation.
//!
//! The paper's σ_n-divergence (Assumption 1, eq. (5)) is a *gradient*
//! quantity and is measured in `fedprox-core::eval` where a model is
//! available; this module provides the data-level proxies used to sanity
//! check that a generated federation is actually heterogeneous: label
//! distribution skew and size concentration.

use crate::dataset::Dataset;

/// Compute the label distribution of a dataset as frequencies.
pub fn label_distribution(d: &Dataset) -> Vec<f64> {
    let h = d.class_histogram();
    let n = d.len().max(1) as f64;
    h.into_iter().map(|c| c as f64 / n).collect()
}

/// Total-variation distance between two distributions of equal support.
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "tv_distance: support mismatch");
    p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0
}

/// Gini coefficient of non-negative values (0 for empty input).
pub fn gini(values: &[usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len() as f64;
    let sum: f64 = v.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{Partitioner, PartitionSpec};
    use fedprox_tensor::Matrix;

    fn class_dataset(per_class: usize, classes: usize) -> Dataset {
        let n = per_class * classes;
        let mut f = Matrix::zeros(n, 3);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            f.row_mut(i)[0] = c as f64;
            labels.push(c as f64);
        }
        Dataset::new(f, labels, classes)
    }

    #[test]
    fn tv_bounds() {
        assert_eq!(tv_distance(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(tv_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((tv_distance(&[0.5, 0.5], &[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gini_balanced_vs_skewed() {
        assert!(gini(&[10, 10, 10]) < 1e-12);
        assert!(gini(&[1, 1, 100]) > 0.5);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn label_sharding_is_more_skewed_than_iid() {
        let data = class_dataset(100, 10);
        let sizes = vec![50; 10];
        let iid = Partitioner::new(PartitionSpec::Iid { sizes: sizes.clone() }, 3)
            .partition(&data);
        let sharded = Partitioner::new(
            PartitionSpec::LabelShards { sizes, labels_per_device: 2 },
            3,
        )
        .partition(&data);
        // Mean TV distance of each device's label mix from the global one.
        let global = label_distribution(&data);
        let skew = |shards: &[Dataset]| {
            shards.iter().map(|s| tv_distance(&label_distribution(s), &global)).sum::<f64>()
                / shards.len() as f64
        };
        let (iid, sharded) = (skew(&iid), skew(&sharded));
        assert!(sharded > iid + 0.3, "sharded {sharded} vs iid {iid}");
    }
}
