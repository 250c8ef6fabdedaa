//! Golden bit patterns for the chunked batch reductions.
//!
//! `batch_grad` and `batch_loss` sum fixed-size chunks in index order, so
//! their results are pinned down to the last bit by the chunk sizes (32
//! for the trait default, logistic and MLP; 8 from 4 samples on for the
//! CNN). These tests hold every path that reaches those reductions to
//! the exact `f64::to_bits` patterns recorded in `golden/batch.rs`: the
//! trait default on a test model, the logistic and MLP `batch_grad_in`
//! overrides reached through `batch_grad`, and the CNN's own reduction.
//! Any change to chunking, accumulation order or buffer reuse that moves
//! a bit fails here.
//!
//! To regenerate after an *intentional* numeric change, run
//! `cargo test -p fedprox-models --test batch_golden -- --ignored --nocapture`
//! and paste the printed tables over `golden/batch.rs`.

use fedprox_data::Dataset;
use fedprox_models::{Cnn, CnnSpec, LossModel, Mlp, MultinomialLogistic};
use fedprox_tensor::Matrix;

fn xorshift_stream(mut state: u64) -> impl FnMut() -> f64 {
    state |= 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

/// `n` samples of `dim` features with labels cycling over `classes`.
fn data(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
    let mut next = xorshift_stream(seed);
    let mut f = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..dim {
            f.row_mut(i)[j] = next();
        }
        y.push((i % classes) as f64);
    }
    Dataset::new(f, y, classes)
}

/// Fixed parameter vector of length `dim`.
fn params(dim: usize, seed: u64) -> Vec<f64> {
    let mut next = xorshift_stream(seed);
    (0..dim).map(|_| 0.5 * next()).collect()
}

/// Samples in the large batch: three chunks of 32, the last one partial.
const N: usize = 70;

/// A scrambled visit order over `0..n` (17 is coprime to 70 and 12).
fn scrambled(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 17 + 5) % n).collect()
}

/// f_i(w) = ½‖w − x_i‖² · (1 + i/10): overrides nothing beyond the
/// per-sample methods, so every batch call runs the trait defaults.
struct Quad {
    dim: usize,
}

impl LossModel for Quad {
    fn dim(&self) -> usize {
        self.dim
    }
    fn init_params(&self, _seed: u64) -> Vec<f64> {
        vec![0.0; self.dim]
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        let weight = 1.0 + i as f64 / 10.0;
        weight * fedprox_tensor::vecops::dist_sq(w, data.x(i)) / 2.0
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        let weight = 1.0 + i as f64 / 10.0;
        for ((o, &wv), &xv) in out.iter_mut().zip(w).zip(data.x(i)) {
            *o += scale * weight * (wv - xv);
        }
    }
    fn predict(&self, _w: &[f64], _x: &[f64]) -> f64 {
        0.0
    }
}

/// A CNN small enough for a readable golden table (67 parameters) that
/// still runs both convolutions, both pools and the softmax head.
fn small_cnn() -> Cnn {
    Cnn::new(CnnSpec {
        in_ch: 1,
        side: 4,
        conv1_ch: 2,
        conv2_ch: 2,
        kernel: 3,
        classes: 3,
        fc_hidden: None,
    })
}

fn grad_bits<M: LossModel>(model: &M, data: &Dataset, indices: &[usize], seed: u64) -> Vec<u64> {
    let w = params(model.dim(), seed);
    let mut g = vec![0.0; model.dim()];
    model.batch_grad(&w, data, indices, &mut g);
    g.iter().map(|v| v.to_bits()).collect()
}

fn loss_bits<M: LossModel>(model: &M, data: &Dataset, indices: &[usize], seed: u64) -> u64 {
    model
        .batch_loss(&params(model.dim(), seed), data, indices)
        .to_bits()
}

fn quad() -> (Quad, Dataset) {
    (Quad { dim: 3 }, data(N, 3, 2, 0x0DD_BA11))
}

fn logistic() -> (MultinomialLogistic, Dataset) {
    (
        MultinomialLogistic::new(3, 3).with_l2(0.05),
        data(N, 3, 3, 0xBEEF_F00D),
    )
}

fn mlp() -> (Mlp, Dataset) {
    (Mlp::new(3, 4, 3).with_l2(0.01), data(N, 3, 3, 0xFACE_FEED))
}

fn quad_grad() -> Vec<u64> {
    let (model, data) = quad();
    grad_bits(&model, &data, &scrambled(N), 1)
}

fn logistic_grad() -> Vec<u64> {
    let (model, data) = logistic();
    grad_bits(&model, &data, &scrambled(N), 2)
}

fn mlp_grad() -> Vec<u64> {
    let (model, data) = mlp();
    grad_bits(&model, &data, &scrambled(N), 3)
}

fn cnn_grad() -> Vec<u64> {
    let data = data(12, 16, 3, 0xC0FF_EE00);
    grad_bits(&small_cnn(), &data, &scrambled(12), 4)
}

fn losses() -> Vec<u64> {
    let idx = scrambled(N);
    let ((q, qd), (l, ld), (m, md)) = (quad(), logistic(), mlp());
    vec![
        loss_bits(&q, &qd, &idx, 1),
        loss_bits(&l, &ld, &idx, 2),
        loss_bits(&m, &md, &idx, 3),
    ]
}

include!("golden/batch.rs");

#[test]
fn default_batch_grad_matches_golden() {
    assert_eq!(
        quad_grad(),
        GOLDEN_QUAD_GRAD,
        "trait-default batch_grad drifted"
    );
}

#[test]
fn logistic_batch_grad_matches_golden() {
    assert_eq!(
        logistic_grad(),
        GOLDEN_LOGISTIC_GRAD,
        "logistic batch_grad drifted"
    );
}

#[test]
fn mlp_batch_grad_matches_golden() {
    assert_eq!(mlp_grad(), GOLDEN_MLP_GRAD, "MLP batch_grad drifted");
}

#[test]
fn cnn_batch_grad_matches_golden() {
    assert_eq!(cnn_grad(), GOLDEN_CNN_GRAD, "CNN batch_grad drifted");
}

#[test]
fn batch_loss_matches_golden() {
    assert_eq!(
        losses(),
        GOLDEN_LOSSES,
        "batch_loss (quad, logistic, MLP) drifted"
    );
}

#[test]
#[ignore = "regenerates the golden constants; run with --ignored --nocapture"]
fn regenerate_golden_vectors() {
    let print = |name: &str, bits: &[u64]| {
        println!("const {name}: [u64; {}] = [", bits.len());
        for chunk in bits.chunks(4) {
            let row: Vec<String> = chunk.iter().map(|b| format!("{b:#018x}")).collect();
            println!("    {},", row.join(", "));
        }
        println!("];");
    };
    print("GOLDEN_QUAD_GRAD", &quad_grad());
    print("GOLDEN_LOGISTIC_GRAD", &logistic_grad());
    print("GOLDEN_MLP_GRAD", &mlp_grad());
    print("GOLDEN_CNN_GRAD", &cnn_grad());
    print("GOLDEN_LOSSES", &losses());
}
