//! Global evaluation: loss, gradient norm, accuracy, and the empirical
//! heterogeneity σ̄² of Assumption 1.

use crate::device::Device;
use crate::runner::fan_out;
use fedprox_data::Dataset;
use fedprox_models::LossModel;
use fedprox_tensor::vecops;

/// Global training loss `F̄(w) = Σ_n (D_n/D) F_n(w)` (eq. (2)),
/// parallel over devices.
pub fn global_loss<M: LossModel>(model: &M, devices: &[Device], w: &[f64]) -> f64 {
    let total: usize = devices.iter().map(Device::samples).sum();
    assert!(total > 0, "global_loss: empty federation");
    let losses: Vec<f64> =
        fan_out(devices, |d| d.samples() as f64 * model.full_loss(w, &d.data));
    let weighted: f64 = losses.into_iter().sum();
    weighted / total as f64
}

/// Global gradient `∇F̄(w)` into `out`, parallel over devices.
pub fn global_grad<M: LossModel>(model: &M, devices: &[Device], w: &[f64], out: &mut [f64]) {
    let total: usize = devices.iter().map(Device::samples).sum();
    assert!(total > 0, "global_grad: empty federation");
    // Per-device gradients in parallel, combined in device order so the
    // result is independent of thread scheduling.
    let partials: Vec<Vec<f64>> = fan_out(devices, |d| {
        let mut g = vec![0.0; model.dim()];
        model.full_grad(w, &d.data, &mut g);
        vecops::scale(d.samples() as f64 / total as f64, &mut g);
        g
    });
    out.fill(0.0);
    for p in &partials {
        vecops::add_assign(out, p);
    }
}

/// `‖∇F̄(w)‖²` — the paper's stationarity gap (eq. (12)).
pub fn stationarity_gap<M: LossModel>(model: &M, devices: &[Device], w: &[f64]) -> f64 {
    let mut g = vec![0.0; model.dim()];
    global_grad(model, devices, w, &mut g);
    vecops::norm_sq(&g)
}

/// Test accuracy of the global model.
pub fn test_accuracy<M: LossModel>(model: &M, test: &Dataset, w: &[f64]) -> f64 {
    model.accuracy(w, test)
}

/// Empirical σ̄² of Assumption 1, eq. (5): with
/// `σ_n = ‖∇F_n(w) − ∇F̄(w)‖ / ‖∇F̄(w)‖`, returns `Σ_n (D_n/D) σ_n²`.
/// Returns `None` when `‖∇F̄(w)‖` is numerically zero (the ratio is
/// undefined at stationary points).
pub fn empirical_sigma_bar_sq<M: LossModel>(
    model: &M,
    devices: &[Device],
    w: &[f64],
) -> Option<f64> {
    let mut gbar = vec![0.0; model.dim()];
    global_grad(model, devices, w, &mut gbar);
    let denom = vecops::norm_sq(&gbar);
    if denom < 1e-24 {
        return None;
    }
    let total: usize = devices.iter().map(Device::samples).sum();
    let terms: Vec<f64> = fan_out(devices, |d| {
        let mut g = vec![0.0; model.dim()];
        model.full_grad(w, &d.data, &mut g);
        d.samples() as f64 / total as f64 * vecops::dist_sq(&g, &gbar)
    });
    let sum: f64 = terms.into_iter().sum();
    Some(sum / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_models::LinearRegression;
    use fedprox_tensor::Matrix;

    fn device_with(points: &[([f64; 2], f64)], id: usize) -> Device {
        let mut f = Matrix::zeros(points.len(), 2);
        let mut y = Vec::new();
        for (i, (x, t)) in points.iter().enumerate() {
            f.row_mut(i).copy_from_slice(x);
            y.push(*t);
        }
        Device::new(id, Dataset::new(f, y, 0))
    }

    #[test]
    fn global_loss_is_sample_weighted() {
        let m = LinearRegression::new(2);
        // Device A: 1 sample with loss ½(1)² at w = 0; target 1, x = (1,0).
        let a = device_with(&[([1.0, 0.0], 1.0)], 0);
        // Device B: 3 samples, each zero loss at w = 0 (targets 0).
        let b = device_with(&[([1.0, 0.0], 0.0); 3], 1);
        let w = vec![0.0, 0.0];
        let got = global_loss(&m, &[a, b], &w);
        assert!((got - 0.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn global_grad_matches_pooled_dataset() {
        let m = LinearRegression::new(2);
        let a = device_with(&[([1.0, 0.0], 1.0), ([0.0, 1.0], -1.0)], 0);
        let b = device_with(&[([1.0, 1.0], 2.0)], 1);
        let w = vec![0.3, -0.7];
        let mut got = vec![0.0; 2];
        global_grad(&m, &[a.clone(), b.clone()], &w, &mut got);
        let pooled = Dataset::concat(&[&a.data, &b.data]);
        let mut want = vec![0.0; 2];
        m.full_grad(&w, &pooled, &mut want);
        for (g, wv) in got.iter().zip(&want) {
            assert!((g - wv).abs() < 1e-12);
        }
        // Loss agrees too.
        let gl = global_loss(&m, &[a, b], &w);
        assert!((gl - m.full_loss(&w, &pooled)).abs() < 1e-12);
    }

    #[test]
    fn stationarity_gap_zero_at_minimum() {
        let m = LinearRegression::new(2);
        // Single device whose exact solution is w = (2, −1).
        let d = device_with(
            &[([1.0, 0.0], 2.0), ([0.0, 1.0], -1.0), ([1.0, 1.0], 1.0)],
            0,
        );
        assert!(stationarity_gap(&m, &[d], &[2.0, -1.0]) < 1e-20);
    }

    #[test]
    fn sigma_bar_sq_zero_for_identical_devices() {
        let m = LinearRegression::new(2);
        let pts = [([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0)];
        let a = device_with(&pts, 0);
        let b = device_with(&pts, 1);
        let s = empirical_sigma_bar_sq(&m, &[a, b], &[0.5, 0.5]).unwrap();
        assert!(s < 1e-20, "sigma {s}");
    }

    #[test]
    fn sigma_bar_sq_grows_with_divergence() {
        let m = LinearRegression::new(2);
        let a = device_with(&[([1.0, 0.0], 5.0)], 0);
        let b = device_with(&[([1.0, 0.0], -5.0)], 1);
        let similar = device_with(&[([1.0, 0.0], 0.9)], 2);
        let similar2 = device_with(&[([1.0, 0.0], 1.1)], 3);
        let w = vec![0.0, 0.0];
        let het = empirical_sigma_bar_sq(&m, &[a, b], &w);
        let hom = empirical_sigma_bar_sq(&m, &[similar, similar2], &w).unwrap();
        // Opposite targets: mean gradient ≈ 0 → σ̄² undefined or huge.
        match het {
            None => {}
            Some(v) => assert!(v > 100.0 * hom),
        }
        assert!(hom < 0.02, "hom {hom}");
    }
}
