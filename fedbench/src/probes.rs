//! Layer probes: timed calls into one layer's public functions at the
//! workload's own shapes, for the per-layer numbers a replay span cannot
//! isolate (kernel throughput, codec speed, sequential vs parallel
//! fan-out). Each probe times batches of calls and keeps the median.

use crate::workloads::{Fed, Setup, SimSetup};
use fedprox_core::{runner, Device, FedConfig};
use fedprox_data::Dataset;
use fedprox_models::LossModel;
use fedprox_net::{codec, Message};
use fedprox_perfbench::alloc;
use fedprox_sim::{DeviceTiming, LazyPopulation, Sampler, ShardedEventLoop};
use fedprox_tensor::conv::{conv2d_backward, Conv2dSpec, ConvScratch};
use fedprox_tensor::{kernel, vecops, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe (median kept).
const BATCHES: usize = 5;
/// Minimum wall time of one batch.
const BATCH_S: f64 = 0.02;

/// Median seconds per call of `f`, over [`BATCHES`] batches sized so
/// each lasts at least [`BATCH_S`].
pub fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_secs_f64() >= BATCH_S || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    crate::stats::median(&per)
}

/// Bytes allocated by one call of `f`.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let a = alloc::stats().bytes;
    let out = f();
    (out, alloc::stats().bytes.saturating_sub(a))
}

fn filled(n: usize, seed: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed) * 0.618_033_988_7).fract() - 0.5)
        .collect()
}

/// The measured probe values, by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Tensor kernels: matvec and dot at the workload's model shapes, GEMM
/// and conv backward at the small CNN's second convolution, and the
/// host's own GEMM peak.
pub fn tensor(classes: usize, features: usize, dim: usize) -> Values {
    let a = filled(classes * features, 1.0);
    let x = filled(features, 2.0);
    let mut y = vec![0.0; classes];
    let matvec = secs_per_call(|| kernel::matvec_into(&a, classes, features, &x, &mut y));
    let (u, v) = (filled(dim, 3.0), filled(dim, 4.0));
    let dot = secs_per_call(|| {
        black_box(vecops::dot(black_box(&u), &v));
    });
    let gemm = |m: usize, n: usize, k: usize| {
        let a = Matrix::from_vec(m, k, filled(m * k, 5.0));
        let b = Matrix::from_vec(k, n, filled(k * n, 6.0));
        let mut c = Matrix::zeros(m, n);
        let t = secs_per_call(|| {
            let r = kernel::try_matmul_into(&a, &b, &mut c);
            black_box(r.is_ok());
        });
        2.0 * (m * n * k) as f64 / t / 1e9
    };
    let spec = Conv2dSpec::same(8, 16, 5, 14, 14);
    let input = filled(spec.input_len(), 7.0);
    let grad_out = filled(spec.output_len(), 8.0);
    let weight = filled(spec.weight_len(), 9.0);
    let mut gw = vec![0.0; spec.weight_len()];
    let mut gb = vec![0.0; spec.out_ch];
    let mut gi = vec![0.0; spec.input_len()];
    let mut scratch = ConvScratch::new(&spec);
    let conv = secs_per_call(|| {
        conv2d_backward(
            &spec,
            &input,
            &grad_out,
            &weight,
            &mut gw,
            &mut gb,
            &mut gi,
            &mut scratch,
        )
    });
    // dW and dX are each one out_ch × pixels × fields product.
    let conv_flops = 2.0 * 2.0 * (spec.out_ch * spec.col_rows() * spec.col_cols()) as f64;
    vec![
        (
            "tensor.matvec_gflops",
            2.0 * (classes * features) as f64 / matvec / 1e9,
        ),
        ("tensor.dot_gbps", 16.0 * dim as f64 / dot / 1e9),
        (
            "tensor.gemm_gflops",
            gemm(spec.out_ch, spec.col_rows(), spec.col_cols()),
        ),
        ("tensor.conv_bwd_gflops", conv_flops / conv / 1e9),
        ("tensor.peak_gflops", gemm(256, 256, 256)),
    ]
}

/// Model gradients and loss on one device shard, per sample.
pub fn models<M: LossModel>(model: &M, data: &Dataset, batch: usize, seed: u64) -> Values {
    let w = model.init_params(seed);
    let mut g = vec![0.0; model.dim()];
    let n = data.len();
    let idx: Vec<usize> = (0..batch.min(n)).map(|i| (i * 7) % n).collect();
    let batch_s = secs_per_call(|| model.batch_grad(&w, data, &idx, &mut g));
    let full_s = secs_per_call(|| model.full_grad(&w, data, &mut g));
    let loss_s = secs_per_call(|| {
        black_box(model.full_loss(&w, data));
    });
    vec![
        (
            "models.batch_grad_us_per_sample",
            batch_s * 1e6 / idx.len() as f64,
        ),
        ("models.full_grad_us_per_sample", full_s * 1e6 / n as f64),
        ("models.loss_us_per_sample", loss_s * 1e6 / n as f64),
    ]
}

/// Codec speed on the workload's global-model frame, per MiB of frame.
pub fn codec(dim: usize) -> Values {
    let msg = Message::GlobalModel {
        round: 1,
        params: filled(dim, 10.0),
    };
    let frame = codec::encode(&msg);
    let mib = frame.len() as f64 / (1024.0 * 1024.0);
    let enc = secs_per_call(|| {
        black_box(codec::encode(black_box(&msg)));
    });
    let dec = secs_per_call(|| {
        black_box(codec::decode(black_box(&frame)).is_ok());
    });
    vec![
        ("net.encode_us_per_mib", enc * 1e6 / mib),
        ("net.decode_us_per_mib", dec * 1e6 / mib),
    ]
}

/// Sampling and event ordering for a workload whose round loop does not
/// sample (full participation over `n` devices).
pub fn full_participation(n: usize, seed: u64) -> Values {
    let sampler = Sampler::new(fedprox_core::SamplerSpec::Full);
    let sample_s = secs_per_call(|| {
        black_box(sampler.sample(n, 1, seed, |_| 1));
    });
    let (_, bytes) = bytes_of(|| sampler.sample(n, 1, seed, |_| 1));
    let timings: Vec<DeviceTiming> = (0..n)
        .map(|d| DeviceTiming {
            device: d,
            download: 0.05,
            compute: 1e-3 * (1.0 + d as f64 / n as f64),
            upload: 0.05,
        })
        .collect();
    let mut events = ShardedEventLoop::new(8);
    let events_s = secs_per_call(|| {
        black_box(events.run_round(0.0, &timings));
    });
    vec![
        ("sim.sample_us_per_round", sample_s * 1e6),
        ("sim.sample_kib_per_round", bytes as f64 / 1024.0),
        ("sim.events_us_per_round", events_s * 1e6),
    ]
}

/// Fan-out of one round from the initial model: each device's solve
/// timed in turn (together, the sequential fan-out), then
/// `run_round_subset` with `parallel` set. Returns (slowest device s,
/// sequential s, parallel s, bytes of one solve).
pub fn fanout<M: LossModel>(model: &M, devices: &[Device], cfg: &FedConfig) -> [f64; 4] {
    let w = model.init_params(cfg.seed);
    let mut slowest = 0.0f64;
    let mut seq = 0.0;
    let mut solve_bytes = 0;
    for d in devices {
        let t = Instant::now();
        let (u, b) = bytes_of(|| d.local_update(model, &w, cfg, 0));
        let secs = t.elapsed().as_secs_f64();
        black_box(u.is_ok());
        slowest = slowest.max(secs);
        seq += secs;
        solve_bytes = b;
    }
    let all: Vec<usize> = (0..devices.len()).collect();
    let t = Instant::now();
    let r = runner::run_round_subset(model, devices, &all, &w, cfg, 0, true, None);
    let par = t.elapsed().as_secs_f64();
    black_box(r.is_ok());
    [slowest, seq, par, solve_bytes as f64]
}

fn fed_fanout<M: LossModel>(f: &Fed<M>) -> [f64; 4] {
    fanout(&f.model, &f.devices, &f.cfg)
}

/// The `sim-1m` round-1 sample, materialized with positional ids so the
/// in-process fan-out can run it.
fn sim_devices(s: &SimSetup) -> Vec<Device> {
    let lazy = LazyPopulation::new(s.zipf.clone(), s.pool.clone());
    let spec = match &s.cfg.runner {
        fedprox_core::RunnerKind::EventDriven(o) => o.sampler,
        _ => fedprox_core::SamplerSpec::Full,
    };
    Sampler::new(spec)
        .sample(s.zipf.len(), 1, s.cfg.seed, |d| s.zipf.size_of(d))
        .into_iter()
        .enumerate()
        .map(|(j, d)| Device::new(j, lazy.device(d).data))
        .collect()
}

/// Fan-out probe for any workload.
pub fn workload_fanout(setup: &Setup) -> [f64; 4] {
    match setup {
        Setup::Convex(f) | Setup::Net(f) => fed_fanout(f),
        Setup::Cnn(f) => fed_fanout(f),
        Setup::Sim(s) => fanout(&s.model, &sim_devices(s), &s.cfg),
    }
}

/// Model probe for any workload, on its first device (probe device for
/// `sim-1m`).
pub fn workload_models(setup: &Setup) -> Values {
    let cfg = setup.cfg();
    match setup {
        Setup::Convex(f) | Setup::Net(f) => {
            models(&f.model, &f.devices[0].data, cfg.batch_size, cfg.seed)
        }
        Setup::Cnn(f) => models(&f.model, &f.devices[0].data, cfg.batch_size, cfg.seed),
        Setup::Sim(s) => models(&s.model, &s.probe[0].data, cfg.batch_size, cfg.seed),
    }
}

/// `(classes, features)` of the model's dense head.
pub fn dense_shape(setup: &Setup) -> (usize, usize) {
    match setup {
        Setup::Convex(_) | Setup::Net(_) => (10, 784),
        Setup::Cnn(f) => {
            let s = f.model.spec();
            (s.classes, s.conv2_ch * (s.side / 4) * (s.side / 4))
        }
        Setup::Sim(s) => (10, s.pool.config().dim),
    }
}
