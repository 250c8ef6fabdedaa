//! Procedural MNIST-like and Fashion-MNIST-like image generators.
//!
//! The real datasets cannot be downloaded in this environment, so these
//! generators substitute class-conditional structured images (DESIGN.md §2):
//! 28x28 grayscale in `[0, 1]`, 10 classes, each class defined by a
//! geometric prototype (digit-like strokes for MNIST-like, garment
//! silhouettes for Fashion-like). Each sample perturbs its prototype with
//! a random integer shift (±2 px), per-pixel Gaussian noise, and a random
//! intensity scale — enough variability that the classification task is
//! non-trivial but learnable by both the multinomial-logistic and CNN
//! models, which is all the paper's experiments require.
//!
//! If real IDX files exist on disk, prefer [`crate::idx::load_mnist_dir`].

use crate::dataset::Dataset;
use crate::synthetic::device_rng;
use fedprox_tensor::Matrix;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Image side length (images are `SIDE x SIDE`).
pub const SIDE: usize = 28;
/// Number of classes.
pub const CLASSES: usize = 10;

/// Which prototype family to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageStyle {
    /// Digit-like stroke prototypes.
    MnistLike,
    /// Garment-silhouette prototypes.
    FashionLike,
}

/// Configuration for the generator.
#[derive(Debug, Clone)]
pub struct ImageConfig {
    /// Prototype family.
    pub style: ImageStyle,
    /// Std-dev of the additive per-pixel Gaussian noise.
    pub noise: f64,
    /// Maximum absolute shift in pixels applied per sample.
    pub max_shift: i32,
    /// Number of random clutter patches (4x4, random intensity) stamped
    /// onto each sample. Clutter keeps the classification task from
    /// saturating at 100% — real MNIST/Fashion-MNIST plateau in the
    /// 84–99% range for linear models, and the experiments need that
    /// head-room to show convergence differences.
    pub clutter: usize,
    /// Master seed.
    pub seed: u64,
}

impl ImageConfig {
    /// Default MNIST-like configuration.
    pub fn mnist(seed: u64) -> Self {
        ImageConfig { style: ImageStyle::MnistLike, noise: 0.3, max_shift: 3, clutter: 3, seed }
    }
    /// Default Fashion-MNIST-like configuration.
    pub fn fashion(seed: u64) -> Self {
        ImageConfig { style: ImageStyle::FashionLike, noise: 0.35, max_shift: 3, clutter: 4, seed }
    }
}

/// Generate `n` labelled images with labels drawn uniformly.
pub fn generate(cfg: &ImageConfig, n: usize) -> Dataset {
    let protos = prototypes(cfg.style);
    let mut rng = device_rng(cfg.seed, 0x1A6E);
    let noise = Normal::new(0.0, cfg.noise).expect("noise std");
    let mut feats = Matrix::zeros(n, SIDE * SIDE);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = rng.gen_range(0..CLASSES);
        render_sample(&protos[class], cfg, &mut rng, &noise, feats.row_mut(i));
        labels.push(class as f64);
    }
    Dataset::new(feats, labels, CLASSES)
}

fn render_sample(
    proto: &[f64],
    cfg: &ImageConfig,
    rng: &mut impl Rng,
    noise: &Normal<f64>,
    out: &mut [f64],
) {
    let dx = rng.gen_range(-cfg.max_shift..=cfg.max_shift);
    let dy = rng.gen_range(-cfg.max_shift..=cfg.max_shift);
    let scale = rng.gen_range(0.7..1.2);
    for y in 0..SIDE {
        for x in 0..SIDE {
            let sy = y as i32 - dy;
            let sx = x as i32 - dx;
            let base = if sy >= 0 && sy < SIDE as i32 && sx >= 0 && sx < SIDE as i32 {
                proto[sy as usize * SIDE + sx as usize]
            } else {
                0.0
            };
            let v = base * scale + noise.sample(rng);
            out[y * SIDE + x] = v.clamp(0.0, 1.0);
        }
    }
    // Clutter: random 4x4 patches of random intensity.
    for _ in 0..cfg.clutter {
        let px = rng.gen_range(0..SIDE - 3);
        let py = rng.gen_range(0..SIDE - 3);
        let v: f64 = rng.gen_range(0.0..1.0);
        for oy in 0..4 {
            for ox in 0..4 {
                out[(py + oy) * SIDE + px + ox] = v;
            }
        }
    }
}

/// The 10 class prototypes of a style, each a `SIDE*SIDE` buffer in `[0, 1]`.
pub fn prototypes(style: ImageStyle) -> Vec<Vec<f64>> {
    (0..CLASSES)
        .map(|c| match style {
            ImageStyle::MnistLike => digit_prototype(c),
            ImageStyle::FashionLike => fashion_prototype(c),
        })
        .collect()
}

// --- drawing primitives ----------------------------------------------------

struct Canvas(Vec<f64>);

impl Canvas {
    fn new() -> Self {
        Canvas(vec![0.0; SIDE * SIDE])
    }
    fn put(&mut self, x: i32, y: i32, v: f64) {
        if (0..SIDE as i32).contains(&x) && (0..SIDE as i32).contains(&y) {
            let p = &mut self.0[y as usize * SIDE + x as usize];
            *p = p.max(v);
        }
    }
    /// Thick anti-alias-free line from (x0,y0) to (x1,y1).
    fn line(&mut self, x0: i32, y0: i32, x1: i32, y1: i32, thick: i32) {
        let steps = (x1 - x0).abs().max((y1 - y0).abs()).max(1);
        for s in 0..=steps {
            let t = s as f64 / steps as f64;
            let x = x0 as f64 + t * (x1 - x0) as f64;
            let y = y0 as f64 + t * (y1 - y0) as f64;
            for oy in -thick..=thick {
                for ox in -thick..=thick {
                    if ox * ox + oy * oy <= thick * thick {
                        self.put(x.round() as i32 + ox, y.round() as i32 + oy, 1.0);
                    }
                }
            }
        }
    }
    /// Circle outline centred at (cx,cy).
    fn circle(&mut self, cx: i32, cy: i32, r: i32, thick: i32) {
        let n = (8 * r).max(16);
        for s in 0..n {
            let a = s as f64 / n as f64 * std::f64::consts::TAU;
            let x = cx as f64 + r as f64 * a.cos();
            let y = cy as f64 + r as f64 * a.sin();
            for oy in -thick..=thick {
                for ox in -thick..=thick {
                    if ox * ox + oy * oy <= thick * thick {
                        self.put(x.round() as i32 + ox, y.round() as i32 + oy, 1.0);
                    }
                }
            }
        }
    }
    /// Filled axis-aligned rectangle.
    fn rect(&mut self, x0: i32, y0: i32, x1: i32, y1: i32, v: f64) {
        for y in y0..=y1 {
            for x in x0..=x1 {
                self.put(x, y, v);
            }
        }
    }
}

fn digit_prototype(c: usize) -> Vec<f64> {
    let mut cv = Canvas::new();
    match c {
        0 => cv.circle(14, 14, 8, 1),
        1 => {
            cv.line(14, 4, 14, 24, 1);
            cv.line(10, 8, 14, 4, 1);
        }
        2 => {
            cv.circle(14, 9, 5, 1);
            cv.rect(0, 0, 27, 8, 0.0); // keep top arc only… simpler: redraw
            let mut c2 = Canvas::new();
            c2.line(8, 8, 14, 4, 1);
            c2.line(14, 4, 20, 8, 1);
            c2.line(20, 8, 8, 24, 1);
            c2.line(8, 24, 20, 24, 1);
            cv = c2;
        }
        3 => {
            cv.line(8, 5, 19, 5, 1);
            cv.line(19, 5, 13, 13, 1);
            cv.line(13, 13, 19, 16, 1);
            cv.circle(14, 19, 5, 1);
        }
        4 => {
            cv.line(16, 4, 8, 16, 1);
            cv.line(8, 16, 21, 16, 1);
            cv.line(16, 4, 16, 24, 1);
        }
        5 => {
            cv.line(19, 4, 9, 4, 1);
            cv.line(9, 4, 9, 13, 1);
            cv.line(9, 13, 17, 13, 1);
            cv.circle(14, 18, 5, 1);
        }
        6 => {
            cv.line(16, 4, 10, 14, 1);
            cv.circle(14, 18, 5, 1);
        }
        7 => {
            cv.line(8, 5, 20, 5, 1);
            cv.line(20, 5, 11, 24, 1);
        }
        8 => {
            cv.circle(14, 9, 4, 1);
            cv.circle(14, 19, 5, 1);
        }
        _ => {
            cv.circle(14, 10, 5, 1);
            cv.line(18, 12, 15, 24, 1);
        }
    }
    cv.0
}

fn fashion_prototype(c: usize) -> Vec<f64> {
    let mut cv = Canvas::new();
    match c {
        // t-shirt
        0 => {
            cv.rect(9, 8, 18, 22, 0.9);
            cv.rect(4, 8, 8, 12, 0.9);
            cv.rect(19, 8, 23, 12, 0.9);
        }
        // trouser
        1 => {
            cv.rect(9, 4, 18, 10, 0.9);
            cv.rect(9, 11, 12, 24, 0.9);
            cv.rect(15, 11, 18, 24, 0.9);
        }
        // pullover
        2 => {
            cv.rect(8, 7, 19, 23, 0.8);
            cv.rect(3, 7, 7, 18, 0.8);
            cv.rect(20, 7, 24, 18, 0.8);
        }
        // dress
        3 => {
            cv.rect(11, 5, 16, 12, 0.9);
            cv.line(11, 12, 7, 24, 2);
            cv.line(16, 12, 20, 24, 2);
            cv.rect(8, 20, 19, 24, 0.9);
        }
        // coat
        4 => {
            cv.rect(7, 6, 20, 24, 0.7);
            cv.line(14, 6, 14, 24, 1);
            cv.rect(3, 6, 6, 20, 0.7);
            cv.rect(21, 6, 24, 20, 0.7);
        }
        // sandal
        5 => {
            cv.line(6, 18, 21, 14, 1);
            cv.rect(6, 19, 21, 22, 0.9);
            cv.line(10, 14, 13, 19, 1);
        }
        // shirt
        6 => {
            cv.rect(9, 6, 18, 23, 0.6);
            cv.line(14, 6, 14, 23, 1);
            cv.line(9, 6, 12, 10, 1);
            cv.line(18, 6, 15, 10, 1);
        }
        // sneaker
        7 => {
            cv.rect(5, 16, 22, 22, 0.9);
            cv.rect(5, 12, 14, 16, 0.8);
        }
        // bag
        8 => {
            cv.rect(6, 12, 21, 23, 0.9);
            cv.circle(14, 9, 4, 1);
        }
        // ankle boot
        _ => {
            cv.rect(10, 6, 16, 18, 0.9);
            cv.rect(10, 18, 23, 23, 0.9);
        }
    }
    cv.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_tensor::vecops;

    #[test]
    fn generates_requested_count_and_shape() {
        let d = generate(&ImageConfig::mnist(1), 50);
        assert_eq!(d.len(), 50);
        assert_eq!(d.dim(), SIDE * SIDE);
        assert_eq!(d.num_classes(), CLASSES);
    }

    #[test]
    fn pixels_in_unit_interval() {
        let d = generate(&ImageConfig::fashion(2), 30);
        for i in 0..d.len() {
            assert!(d.x(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&ImageConfig::mnist(3), 20);
        let b = generate(&ImageConfig::mnist(3), 20);
        assert_eq!(a, b);
        let c = generate(&ImageConfig::mnist(4), 20);
        assert_ne!(a, c);
    }

    #[test]
    fn prototypes_are_distinct_across_classes() {
        for style in [ImageStyle::MnistLike, ImageStyle::FashionLike] {
            let ps = prototypes(style);
            for i in 0..CLASSES {
                assert!(vecops::norm(&ps[i]) > 1.0, "class {i} prototype nearly empty");
                for j in (i + 1)..CLASSES {
                    let d = vecops::dist(&ps[i], &ps[j]);
                    assert!(d > 1.0, "classes {i},{j} too similar (d={d})");
                }
            }
        }
    }

    #[test]
    fn same_class_samples_closer_than_cross_class() {
        // Average within-class distance must be below cross-class distance;
        // otherwise the task would be unlearnable.
        let cfg = ImageConfig::mnist(5);
        let d = generate(&cfg, 60);
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                let dist = vecops::dist(d.x(i), d.x(j));
                if d.class_of(i) == d.class_of(j) {
                    within.push(dist);
                } else {
                    across.push(dist);
                }
            }
        }
        assert!(vecops::mean(&within) < vecops::mean(&across));
    }

}
