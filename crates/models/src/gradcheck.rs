//! Finite-difference gradient verification, used by every model's tests.

use crate::LossModel;
use fedprox_data::Dataset;

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheck {
    /// Largest absolute difference between analytic and numeric partials.
    pub max_abs_err: f64,
    /// Largest relative difference (guarded against tiny denominators).
    pub max_rel_err: f64,
    /// Coordinate index where the maximum relative error occurred.
    pub worst_coord: usize,
}

/// Compare the analytic gradient of `Σ_{i∈indices} f_i(w) / |indices|`
/// against central finite differences with step `h`, probing every
/// `stride`-th coordinate (stride > 1 keeps CNN checks fast).
pub fn check_batch_grad<M: LossModel>(
    model: &M,
    w: &[f64],
    data: &Dataset,
    indices: &[usize],
    h: f64,
    stride: usize,
) -> GradCheck {
    assert!(stride >= 1, "stride must be >= 1");
    let mut analytic = vec![0.0; model.dim()];
    model.batch_grad(w, data, indices, &mut analytic);

    let mut max_abs = 0.0f64;
    let mut max_rel = 0.0f64;
    let mut worst = 0;
    let mut wp = w.to_vec();
    for j in (0..model.dim()).step_by(stride) {
        let orig = wp[j];
        wp[j] = orig + h;
        let lp = model.batch_loss(&wp, data, indices);
        wp[j] = orig - h;
        let lm = model.batch_loss(&wp, data, indices);
        wp[j] = orig;
        let fd = (lp - lm) / (2.0 * h);
        let abs = (fd - analytic[j]).abs();
        let rel = abs / fd.abs().max(analytic[j].abs()).max(1.0);
        if abs > max_abs {
            max_abs = abs;
        }
        if rel > max_rel {
            max_rel = rel;
            worst = j;
        }
    }
    GradCheck { max_abs_err: max_abs, max_rel_err: max_rel, worst_coord: worst }
}

/// Assert helper for the models' unit tests: panics with a descriptive
/// message when the check fails.
#[cfg(test)]
pub fn assert_grad_ok<M: LossModel>(
    model: &M,
    w: &[f64],
    data: &Dataset,
    indices: &[usize],
    tol: f64,
) {
    let r = check_batch_grad(model, w, data, indices, 1e-6, 1);
    assert!(
        r.max_rel_err < tol,
        "gradient check failed: rel err {} (abs {}) at coord {}",
        r.max_rel_err,
        r.max_abs_err,
        r.worst_coord
    );
}
