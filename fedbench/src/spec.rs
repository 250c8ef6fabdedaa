//! The metric vocabulary: every end-to-end and per-layer metric with its
//! unit, direction and (end-to-end only) regression bound. BENCHMARK.json
//! at the repository root mirrors these tables; a test keeps them equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The BENCHMARK.json spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, e.g. `s`, `ms`, `MiB`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("train_s", "s", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
    e2e("virtual_s", "s", Lower, 0.1),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.build_s", "s", Lower),
    layer("data.build_mib", "MiB", Lower),
    layer("data.shard_synth_us", "us", Lower),
    layer("tensor.matvec_gflops", "GFLOP/s", Higher),
    layer("tensor.dot_gbps", "GB/s", Higher),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.conv_bwd_gflops", "GFLOP/s", Higher),
    layer("tensor.peak_gflops", "GFLOP/s", Higher),
    layer("models.batch_grad_us_per_sample", "us", Lower),
    layer("models.full_grad_us_per_sample", "us", Lower),
    layer("models.loss_us_per_sample", "us", Lower),
    layer("optim.local_solve_ms", "ms", Lower),
    layer("optim.grad_evals_per_solve", "count", Lower),
    layer("optim.solve_alloc_kib", "KiB", Lower),
    layer("core.fanout_ms_per_round", "ms", Lower),
    layer("core.fanout_speedup", "ratio", Higher),
    layer("core.aggregate_us_per_round", "us", Lower),
    layer("core.eval_ms", "ms", Lower),
    layer("core.eval_share", "ratio", Lower),
    layer("core.policy_ms_per_round", "ms", Lower),
    layer("core.rounds_to_target", "count", Lower),
    layer("sim.sample_us_per_round", "us", Lower),
    layer("sim.sample_kib_per_round", "KiB", Lower),
    layer("sim.events_us_per_round", "us", Lower),
    layer("sim.round_alloc_mib", "MiB", Lower),
    layer("sim.policy_ms_per_round", "ms", Lower),
    layer("net.encode_us_per_mib", "us/MiB", Lower),
    layer("net.decode_us_per_mib", "us/MiB", Lower),
    layer("net.worker_busy_ms_per_round", "ms", Lower),
    layer("net.runtime_overhead_ms_per_round", "ms", Lower),
    layer("net.wire_kib_per_round", "KiB", Lower),
    layer("net.retransmissions_per_round", "count", Lower),
    layer("faults.responder_ratio", "ratio", Higher),
    layer("faults.skipped_rounds", "count", Lower),
    layer("trace.train_s", "s", Lower),
    layer("trace.remainder_s", "s", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `s` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    s.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
        assert!(!valid_name(""));
        assert!(!valid_name("-lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = find("setup_s").and_then(|m| m.bound).unwrap_or(0.0);
        for m in END_TO_END {
            let b = m.bound.unwrap_or(f64::INFINITY);
            assert!(b > 0.0 && b <= 0.25 && b <= setup, "{}", m.name);
        }
    }

    /// BENCHMARK.json at the repository root lists exactly these tables.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let list = |key: &str| match v.get(key) {
            Some(serde::Value::Array(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let s = |m: &serde::Value, k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(m, "name"), d.name);
            assert_eq!(s(m, "unit"), d.unit);
            assert_eq!(s(m, "better"), d.better.name());
            let bound = match m.get("bound") {
                Some(serde::Value::Number(n)) => n.as_f64(),
                other => panic!("bound: {other:?}"),
            };
            assert_eq!(Some(bound), d.bound, "{}", d.name);
        }
        let per = list("per_layer");
        assert_eq!(per.len(), PER_LAYER.len());
        for (m, d) in per.iter().zip(PER_LAYER) {
            assert_eq!(s(m, "name"), d.name);
            assert_eq!(s(m, "unit"), d.unit);
            assert_eq!(s(m, "better"), d.better.name());
        }
        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        let ours: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
