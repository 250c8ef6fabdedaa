//! Seeded train/test splitting. The paper splits every dataset 75% train /
//! 25% test.

use crate::dataset::Dataset;
use crate::synthetic::device_rng;
use rand::seq::SliceRandom;

/// Split `data` into `(train, test)` with `train_frac` of the samples in
/// the training part, after a seeded shuffle.
pub fn train_test_split(data: &Dataset, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
    assert!((0.0..=1.0).contains(&train_frac), "train_frac must be in [0,1]");
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut device_rng(seed, 0x5411));
    let cut = (data.len() as f64 * train_frac).round() as usize;
    let (tr, te) = order.split_at(cut.min(data.len()));
    (data.subset(tr), data.subset(te))
}

/// Split every shard of a federation 75/25 and pool the per-shard test
/// parts into one global test set — mirroring how the paper forms test
/// data from the same heterogeneous distributions.
pub fn split_federation(shards: &[Dataset], seed: u64) -> (Vec<Dataset>, Dataset) {
    assert!(!shards.is_empty(), "split_federation: no shards");
    let mut train = Vec::with_capacity(shards.len());
    let mut tests = Vec::with_capacity(shards.len());
    for (i, s) in shards.iter().enumerate() {
        let (tr, te) = train_test_split(s, 0.75, seed.wrapping_add(i as u64));
        train.push(tr);
        tests.push(te);
    }
    let test_refs: Vec<&Dataset> = tests.iter().collect();
    (train, Dataset::concat(&test_refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_tensor::Matrix;

    fn toy(n: usize) -> Dataset {
        let mut f = Matrix::zeros(n, 1);
        for i in 0..n {
            f.row_mut(i)[0] = i as f64;
        }
        Dataset::new(f, (0..n).map(|i| (i % 3) as f64).collect(), 3)
    }

    #[test]
    fn sizes_add_up() {
        let d = toy(100);
        let (tr, te) = train_test_split(&d, 0.75, 1);
        assert_eq!(tr.len(), 75);
        assert_eq!(te.len(), 25);
    }

    #[test]
    fn disjoint_and_exhaustive() {
        let d = toy(40);
        let (tr, te) = train_test_split(&d, 0.6, 2);
        let mut seen: Vec<f64> = tr
            .features()
            .as_slice()
            .iter()
            .chain(te.features().as_slice())
            .cloned()
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn deterministic() {
        let d = toy(50);
        let (a, _) = train_test_split(&d, 0.5, 7);
        let (b, _) = train_test_split(&d, 0.5, 7);
        assert_eq!(a, b);
        let (c, _) = train_test_split(&d, 0.5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn extreme_fractions() {
        let d = toy(10);
        let (tr, te) = train_test_split(&d, 1.0, 3);
        assert_eq!(tr.len(), 10);
        assert_eq!(te.len(), 0);
        let (tr, te) = train_test_split(&d, 0.0, 3);
        assert_eq!(tr.len(), 0);
        assert_eq!(te.len(), 10);
    }

    #[test]
    fn federation_split_pools_tests() {
        let shards = vec![toy(40), toy(80)];
        let (train, test) = split_federation(&shards, 5);
        assert_eq!(train.len(), 2);
        assert_eq!(train[0].len(), 30);
        assert_eq!(train[1].len(), 60);
        assert_eq!(test.len(), 10 + 20);
    }
}
