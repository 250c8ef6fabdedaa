//! In-memory sample stores.

use fedprox_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A dense supervised dataset: one feature row per sample plus a label.
///
/// Labels are stored as `f64` so the same container serves classification
/// (label = class index) and regression (label = target value);
/// [`Dataset::class_of`] does the checked conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<f64>,
    num_classes: usize,
}

impl Dataset {
    /// Build a dataset; `features.rows()` must equal `labels.len()`.
    /// `num_classes == 0` marks a regression dataset.
    pub fn new(features: Matrix, labels: Vec<f64>, num_classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "Dataset::new: {} feature rows vs {} labels",
            features.rows(),
            labels.len()
        );
        if num_classes > 0 {
            for (i, &l) in labels.iter().enumerate() {
                assert!(
                    l >= 0.0 && l.fract() == 0.0 && (l as usize) < num_classes,
                    "Dataset::new: label {l} at sample {i} outside 0..{num_classes}"
                );
            }
        }
        Dataset { features, labels, num_classes }
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes (0 for regression).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Borrow the feature row of sample `i`.
    #[inline]
    pub fn x(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// Raw label of sample `i`.
    #[inline]
    pub fn y(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// Class index of sample `i`; panics for regression datasets.
    #[inline]
    pub fn class_of(&self, i: usize) -> usize {
        debug_assert!(self.num_classes > 0, "class_of on a regression dataset");
        self.labels[i] as usize
    }

    /// The full feature matrix.
    #[inline]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Copy the samples at `indices` into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut feats = Matrix::zeros(indices.len(), self.dim());
        let mut labels = Vec::with_capacity(indices.len());
        for (r, &i) in indices.iter().enumerate() {
            feats.row_mut(r).copy_from_slice(self.x(i));
            labels.push(self.y(i));
        }
        Dataset { features: feats, labels, num_classes: self.num_classes }
    }

    /// Concatenate several datasets (all must agree on dim / classes).
    pub fn concat(parts: &[&Dataset]) -> Dataset {
        assert!(!parts.is_empty(), "Dataset::concat: no parts");
        let dim = parts[0].dim();
        let classes = parts[0].num_classes;
        let total: usize = parts.iter().map(|d| d.len()).sum();
        let mut feats = Matrix::zeros(total, dim);
        let mut labels = Vec::with_capacity(total);
        let mut r = 0;
        for d in parts {
            assert_eq!(d.dim(), dim, "Dataset::concat: dim mismatch");
            assert_eq!(d.num_classes, classes, "Dataset::concat: class mismatch");
            for i in 0..d.len() {
                feats.row_mut(r).copy_from_slice(d.x(i));
                labels.push(d.y(i));
                r += 1;
            }
        }
        Dataset { features: feats, labels, num_classes: classes }
    }

    /// Per-class sample counts (empty for regression).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        if self.num_classes > 0 {
            for i in 0..self.len() {
                h[self.class_of(i)] += 1;
            }
        }
        h
    }

    /// The distinct labels present, sorted.
    pub fn distinct_labels(&self) -> Vec<usize> {
        let mut present: Vec<usize> = self
            .class_histogram()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(l, _)| l)
            .collect();
        present.sort_unstable();
        present
    }
}

/// A federation: one training shard per device plus a shared test set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatedDataset {
    /// Per-device training shards.
    pub shards: Vec<Dataset>,
    /// Held-out test set shared by all experiments.
    pub test: Dataset,
    /// Human-readable dataset name ("synthetic", "mnist-like", …).
    pub name: String,
}

impl FederatedDataset {

    /// Total number of training samples `D = Σ D_n`.
    pub fn total_samples(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let f = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        Dataset::new(f, vec![0.0, 1.0, 1.0], 2)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.x(2), &[1.0, 1.0]);
        assert_eq!(d.class_of(1), 1);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside 0..2")]
    fn rejects_out_of_range_label() {
        let f = Matrix::zeros(1, 2);
        let _ = Dataset::new(f, vec![5.0], 2);
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn rejects_length_mismatch() {
        let f = Matrix::zeros(2, 2);
        let _ = Dataset::new(f, vec![0.0], 2);
    }

    #[test]
    fn subset_picks_rows() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.x(0), &[1.0, 1.0]);
        assert_eq!(s.y(1), 0.0);
    }

    #[test]
    fn concat_roundtrip() {
        let d = toy();
        let a = d.subset(&[0]);
        let b = d.subset(&[1, 2]);
        let c = Dataset::concat(&[&a, &b]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.features(), d.features());
        assert_eq!(c.labels, d.labels);
    }

    #[test]
    fn histogram_and_distinct() {
        let d = toy();
        assert_eq!(d.class_histogram(), vec![1, 2]);
        assert_eq!(d.distinct_labels(), vec![0, 1]);
    }

}
