//! BLAS-level-1 style vector operations on `&[f64]` slices.
//!
//! Model parameters in this workspace are flat `Vec<f64>` buffers, so the
//! optimizers (SVRG / SARAH / prox steps) are expressed entirely in terms of
//! these kernels. They are single-threaded: a round already runs one
//! device per core, so the memory-bound vector work has no idle core to
//! spread over.

#[inline]
fn assert_same_len(a: &[f64], b: &[f64], op: &str) {
    assert_eq!(a.len(), b.len(), "vecops::{op}: length mismatch {} vs {}", a.len(), b.len());
}

/// Dot product `aᵀb`.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_same_len(a, b, "dot");
    let s = a.iter().zip(b).map(|(x, y)| x * y).sum();
    crate::guard::check_finite_scalar("dot reduction", s);
    s
}

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    let s = a.iter().map(|x| x * x).sum();
    crate::guard::check_finite_scalar("norm_sq reduction", s);
    s
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²`.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_same_len(a, b, "dist_sq");
    let s = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    crate::guard::check_finite_scalar("dist_sq reduction", s);
    s
}

/// Euclidean distance `‖a − b‖`.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// `y ← y + alpha * x` (BLAS axpy).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_same_len(x, y, "axpy");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← alpha * x` (overwrite).
#[inline]
pub fn scale_into(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_same_len(x, y, "scale_into");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi;
    }
}

/// `x ← alpha * x` in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// `out ← a + b`.
#[inline]
pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_same_len(a, b, "add_into");
    assert_same_len(a, out, "add_into(out)");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out ← a − b`.
#[inline]
pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_same_len(a, b, "sub_into");
    assert_same_len(a, out, "sub_into(out)");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `a ← a + b` in place.
#[inline]
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    assert_same_len(a, b, "add_assign");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `a ← a − b` in place.
#[inline]
pub fn sub_assign(a: &mut [f64], b: &[f64]) {
    assert_same_len(a, b, "sub_assign");
    for (x, y) in a.iter_mut().zip(b) {
        *x -= y;
    }
}

/// Fill with zeros.
#[inline]
pub fn zero(a: &mut [f64]) {
    a.fill(0.0);
}

/// Weighted in-place accumulation `acc ← acc + w * x`, the aggregation
/// primitive of the server update (Algorithm 1, line 12).
#[inline]
pub fn weighted_accumulate(acc: &mut [f64], w: f64, x: &[f64]) {
    axpy(w, x, acc);
}

/// Linear interpolation `out ← (1−t)·a + t·b`.
#[inline]
pub fn lerp_into(a: &[f64], b: &[f64], t: f64, out: &mut [f64]) {
    assert_same_len(a, b, "lerp_into");
    assert_same_len(a, out, "lerp_into(out)");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = (1.0 - t) * x + t * y;
    }
}

/// Maximum absolute element (`‖a‖∞`); 0 for an empty slice.
#[inline]
pub fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// True iff every element is finite (no NaN / ±inf). Used by the drivers to
/// detect divergence (the paper's Fig. 4 shows μ = 0 diverging).
#[inline]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

/// Arithmetic mean; 0 for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = a.iter().sum::<f64>() / a.len() as f64;
    crate::guard::check_finite_scalar("mean reduction", m);
    m
}

/// Population variance; 0 for slices with fewer than two elements.
#[inline]
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    let v = a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64;
    crate::guard::check_finite_scalar("variance reduction", v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(dist(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_and_scale_into() {
        let mut x = vec![2.0, -4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![1.0, -2.0]);
        let mut y = vec![0.0, 0.0];
        scale_into(3.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 6.0]);
    }

    #[test]
    fn add_sub() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let mut out = [0.0, 0.0];
        add_into(&a, &b, &mut out);
        assert_eq!(out, [11.0, 22.0]);
        sub_into(&b, &a, &mut out);
        assert_eq!(out, [9.0, 18.0]);
        let mut c = [1.0, 1.0];
        add_assign(&mut c, &a);
        assert_eq!(c, [2.0, 3.0]);
        sub_assign(&mut c, &a);
        assert_eq!(c, [1.0, 1.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let a = [0.0, 10.0];
        let b = [4.0, 20.0];
        let mut out = [0.0; 2];
        lerp_into(&a, &b, 0.0, &mut out);
        assert_eq!(out, a);
        lerp_into(&a, &b, 1.0, &mut out);
        assert_eq!(out, b);
        lerp_into(&a, &b, 0.5, &mut out);
        assert_eq!(out, [2.0, 15.0]);
    }

    #[test]
    fn finite_detection() {
        assert!(all_finite(&[1.0, -2.0, 0.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(max_abs(&[-3.0, 2.0]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn weighted_accumulate_is_axpy() {
        let mut acc = vec![0.0, 0.0];
        weighted_accumulate(&mut acc, 0.25, &[4.0, 8.0]);
        assert_eq!(acc, vec![1.0, 2.0]);
    }
}
