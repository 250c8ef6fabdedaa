//! The kernel-layer differential suite: every tiled kernel must match
//! the scalar cpu-reference oracle **bitwise**.
//!
//! This is the gate behind the tiled matmul/conv rewrite — the blocked
//! kernels are only allowed to exist because these sweeps prove they
//! are observationally identical to the naive loops on every shape
//! class that matters: degenerate 1×N / N×1, sizes straddling the
//! micro-kernel tile (MR±1, NR±1), sizes straddling the cache blocks
//! (MC±1, KC±1), non-square, and strided / padded convolutions,
//! forward *and* backward.
//!
//! The kernel selector is process-global, so every test takes a shared
//! mutex before switching kernels.

use fedprox_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec, ConvScratch};
use fedprox_tensor::kernel::{with_kernel, Kernel};
use fedprox_tensor::matrix::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedprox_tensor::Matrix;
use std::sync::Mutex;

/// Serializes kernel-selector switches across this binary's tests.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic xorshift stream; distinct seeds give distinct data.
fn stream(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, stream(seed, rows * cols))
}

fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: bit mismatch at flat index {i}: {g:?} vs {w:?}"
        );
    }
}

/// The (m, k, n) sweep: degenerate vectors, micro-tile straddles around
/// MR = 4 and NR = 8, cache-block straddles around MC = 64 and KC = 256,
/// and assorted non-square shapes.
fn gemm_dims() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 5, 9),    // 1×N row vector times matrix
        (9, 5, 1),    // matrix times N×1 column vector
        (3, 7, 7),    // MR−1 rows, NR−1 cols
        (5, 6, 9),    // MR+1 rows, NR+1 cols
        (4, 4, 8),    // exact micro-tile
        (63, 33, 65), // MC±1 rows
        (65, 40, 63),
        (31, 255, 17), // KC−1 depth
        (18, 257, 34), // KC+1 depth
        (64, 64, 64),  // exact cache-block corner
        (12, 300, 20), // deep non-square
    ]
}

#[test]
fn matmul_all_variants_match_reference_bitwise_across_shape_sweep() {
    let _g = lock();
    for (m, k, n) in gemm_dims() {
        let seed = (m * 1000 + k * 10 + n) as u64;
        // Operands for each transposition convention.
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0xAA);
        let at = rand_matrix(k, m, seed ^ 0xBB); // matmul_tn: aᵀ·b with a stored k×m
        let bt = rand_matrix(n, k, seed ^ 0xCC); // matmul_nt: a·bᵀ with b stored n×k

        let run = |kern: Kernel| {
            with_kernel(kern, || {
                let mut nn = Matrix::zeros(m, n);
                matmul_into(&a, &b, &mut nn);
                let mut tn = Matrix::zeros(m, n);
                matmul_tn_into(&at, &b, &mut tn);
                let mut nt = Matrix::zeros(m, n);
                matmul_nt_into(&a, &bt, &mut nt);
                (nn, tn, nt)
            })
        };

        let (r_nn, r_tn, r_nt) = run(Kernel::Reference);
        let (t_nn, t_tn, t_nt) = run(Kernel::Tiled);

        let ctx = format!("m={m} k={k} n={n}");
        assert_bits_eq(t_nn.as_slice(), r_nn.as_slice(), &format!("matmul tiled {ctx}"));
        assert_bits_eq(t_tn.as_slice(), r_tn.as_slice(), &format!("matmul_tn tiled {ctx}"));
        assert_bits_eq(t_nt.as_slice(), r_nt.as_slice(), &format!("matmul_nt tiled {ctx}"));
    }
}

#[test]
fn matvec_and_matvec_t_match_reference_bitwise_across_shape_sweep() {
    let _g = lock();
    // (m, k) straddles the matvec row blocks and the matvec_t
    // 2048-column block.
    for (m, k) in [
        (1, 1),
        (1, 9),
        (9, 1),
        (3, 5),
        (5, 3),
        (4, 8),
        (63, 31),
        (65, 33),
        (64, 64),
        (200, 257),
        (130, 2049),
        (70, 1025),
    ] {
        let seed = (m * 10_000 + k) as u64;
        let a = rand_matrix(m, k, seed);
        let x = stream(seed ^ 0x11, k);
        let xt = stream(seed ^ 0x22, m);

        let run = |kern: Kernel| {
            with_kernel(kern, || (a.matvec(&x), a.matvec_t(&xt)))
        };
        let (r_mv, r_mvt) = run(Kernel::Reference);
        let (t_mv, t_mvt) = run(Kernel::Tiled);

        let ctx = format!("m={m} k={k}");
        assert_bits_eq(&t_mv, &r_mv, &format!("matvec tiled {ctx}"));
        assert_bits_eq(&t_mvt, &r_mvt, &format!("matvec_t tiled {ctx}"));
    }
}

/// Values that stress the summation order: signed zeros, subnormals and
/// magnitudes 300 decades apart, mixed with the plain stream. A sum
/// that skipped the chain's 0.0 start, reassociated, or fused a
/// multiply-add would change bits on this data.
fn hostile(seed: u64, n: usize) -> Vec<f64> {
    let base = stream(seed, n);
    base.iter()
        .enumerate()
        .map(|(i, &v)| match (i as u64 ^ seed) % 9 {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from_bits(1 + (seed + i as u64) % 4096), // subnormal
            3 => -f64::MIN_POSITIVE * v.abs(),                // subnormal or tiny normal
            4 => v * 1e150,
            5 => v * 1e-150,
            6 => v * 3.0e7,
            _ => v,
        })
        .collect()
}

#[test]
fn matvec_matches_reference_bitwise_for_every_row_block_and_hostile_data() {
    use fedprox_tensor::kernel::{reference, tiled};
    // Every m in 0..=20 covers each const row-block width, the 8-row
    // blocks and every remainder the dispatch can leave; the k values
    // cover empty rows, no full 4-lane step, a remainder of 0 and of 1.
    for m in 0..=20usize {
        for k in [0usize, 1, 3, 60, 784, 785] {
            let seed = (m * 1_000 + k) as u64;
            let a = hostile(seed, m * k);
            let x = hostile(seed ^ 0x5A, k);
            let mut want = vec![f64::NAN; m];
            reference::matvec_ref(&a, m, k, &x, &mut want);
            let mut got = vec![f64::NAN; m];
            tiled::matvec(&a, m, k, &x, &mut got);
            assert_bits_eq(&got, &want, &format!("matvec m={m} k={k}"));
            // A row of -0.0 products sums to +0.0 from the 0.0 start.
            if k > 0 {
                let neg = vec![-0.0; m * k];
                let mut got = vec![f64::NAN; m];
                tiled::matvec(&neg, m, k, &x, &mut got);
                reference::matvec_ref(&neg, m, k, &x, &mut want);
                assert_bits_eq(&got, &want, &format!("matvec -0.0 rows m={m} k={k}"));
            }
        }
    }
}

/// Conv shape sweep: stride 1 and > 1, with and without padding,
/// multi-channel, non-square, and a receptive field straddling the
/// micro-tile width.
fn conv_specs() -> Vec<Conv2dSpec> {
    vec![
        Conv2dSpec::same(1, 1, 3, 4, 4),
        Conv2dSpec::same(2, 3, 3, 5, 8),
        Conv2dSpec::same(1, 8, 5, 12, 12),
        Conv2dSpec::same(1, 2, 3, 9, 9).with_stride(2),
        Conv2dSpec { in_ch: 2, out_ch: 2, kernel: 3, height: 7, width: 6, pad: 1, stride: 2 },
        Conv2dSpec { in_ch: 1, out_ch: 2, kernel: 2, height: 8, width: 11, pad: 0, stride: 3 },
        Conv2dSpec { in_ch: 3, out_ch: 5, kernel: 3, height: 6, width: 7, pad: 2, stride: 1 },
    ]
}

#[test]
fn conv_forward_matches_reference_bitwise_across_spec_sweep() {
    let _g = lock();
    for (si, spec) in conv_specs().iter().enumerate() {
        let seed = 0xC0DE + si as u64;
        let input = stream(seed, spec.input_len());
        let weight = stream(seed ^ 0x1, spec.weight_len());
        let bias = stream(seed ^ 0x2, spec.out_ch);

        let run = |kern: Kernel| {
            with_kernel(kern, || {
                let mut out = vec![0.0; spec.output_len()];
                let mut scratch = ConvScratch::new(spec);
                conv2d_forward(spec, &input, &weight, &bias, &mut out, &mut scratch);
                out
            })
        };
        let reference = run(Kernel::Reference);
        let tiled = run(Kernel::Tiled);
        assert_bits_eq(&tiled, &reference, &format!("conv fwd tiled {spec:?}"));
    }
}

#[test]
fn conv_backward_matches_reference_bitwise_across_spec_sweep() {
    let _g = lock();
    for (si, spec) in conv_specs().iter().enumerate() {
        let seed = 0xBADA + si as u64;
        let input = stream(seed, spec.input_len());
        let weight = stream(seed ^ 0x3, spec.weight_len());
        let grad_output = stream(seed ^ 0x4, spec.output_len());

        let run = |kern: Kernel| {
            with_kernel(kern, || {
                // Non-zero initial gw/gb exercise the accumulate (+=) path.
                let mut gw = stream(seed ^ 0x5, spec.weight_len());
                let mut gb = stream(seed ^ 0x6, spec.out_ch);
                let mut gi = vec![0.0; spec.input_len()];
                let mut scratch = ConvScratch::new(spec);
                conv2d_backward(
                    spec, &input, &grad_output, &weight, &mut gw, &mut gb, &mut gi, &mut scratch,
                );
                (gw, gb, gi)
            })
        };
        let (r_gw, r_gb, r_gi) = run(Kernel::Reference);
        let (t_gw, t_gb, t_gi) = run(Kernel::Tiled);

        assert_bits_eq(&t_gw, &r_gw, &format!("conv bwd gw tiled {spec:?}"));
        assert_bits_eq(&t_gb, &r_gb, &format!("conv bwd gb tiled {spec:?}"));
        assert_bits_eq(&t_gi, &r_gi, &format!("conv bwd gi tiled {spec:?}"));
    }
}

#[test]
fn repeated_calls_through_one_scratch_stay_reference_identical() {
    // The fused path's thread-local pack buffers and the ConvScratch tap
    // tables persist across calls; later calls must not be perturbed by
    // earlier state. Interleave shapes through shared scratches and
    // compare against fresh reference runs each time.
    let _g = lock();
    let specs = conv_specs();
    let mut scratches: Vec<ConvScratch> = specs.iter().map(ConvScratch::new).collect();
    for round in 0..3u64 {
        for (si, spec) in specs.iter().enumerate() {
            let seed = 0x5EED_0000 + round * 64 + si as u64;
            let input = stream(seed, spec.input_len());
            let weight = stream(seed ^ 0x7, spec.weight_len());
            let bias = stream(seed ^ 0x8, spec.out_ch);

            let reference = with_kernel(Kernel::Reference, || {
                let mut out = vec![0.0; spec.output_len()];
                let mut fresh = ConvScratch::new(spec);
                conv2d_forward(spec, &input, &weight, &bias, &mut out, &mut fresh);
                out
            });
            let tiled = with_kernel(Kernel::Tiled, || {
                let mut out = vec![0.0; spec.output_len()];
                conv2d_forward(spec, &input, &weight, &bias, &mut out, &mut scratches[si]);
                out
            });
            assert_bits_eq(&tiled, &reference, &format!("round {round} spec {si} reuse"));
        }
    }
}
