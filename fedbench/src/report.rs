//! Run reports: the stamp that says what was measured, the metrics, and
//! the contract line every run ends with.

use crate::spec;
use serde::{Deserialize, Serialize, Value};

/// Schema tag of a full report.
pub const SCHEMA: &str = "fedbench/v1";

/// What a report measured on: two reports are comparable only when their
/// stamps are equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stamp {
    /// Online CPUs.
    pub nproc: u64,
    /// CPU model name from `/proc/cpuinfo` (empty when unreadable).
    pub cpu_model: String,
    /// Active tensor kernel selector.
    pub kernel: String,
    /// Comma-joined compiled feature set.
    pub features: String,
    /// Workload seed.
    pub seed: u64,
    /// FNV-1a-64 digest of the workload's canonical configuration.
    pub config: String,
}

impl Stamp {
    /// Stamp for `workload` run at `seed` with configuration text `config`.
    pub fn current(seed: u64, config: &str) -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_default();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        Stamp {
            nproc,
            cpu_model,
            kernel: fedprox_tensor::kernel::active().name().to_string(),
            features: compiled_features(),
            seed,
            config: fedprox_obs::fnv64(config),
        }
    }

    /// Names of the fields on which `self` and `other` differ.
    pub fn differences(&self, other: &Stamp) -> Vec<&'static str> {
        let mut d = Vec::new();
        if self.nproc != other.nproc {
            d.push("nproc");
        }
        if self.cpu_model != other.cpu_model {
            d.push("cpu_model");
        }
        if self.kernel != other.kernel {
            d.push("kernel");
        }
        if self.features != other.features {
            d.push("features");
        }
        if self.seed != other.seed {
            d.push("seed");
        }
        if self.config != other.config {
            d.push("config");
        }
        d
    }
}

/// Build settings that change speed without changing code.
fn compiled_features() -> String {
    let mut f = Vec::new();
    if fedprox_perfbench::alloc::counting_enabled() {
        f.push("count-alloc");
    }
    if cfg!(debug_assertions) {
        f.push("debug-assertions");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    f.join(",")
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name from [`spec`].
    pub name: String,
    /// Unit from [`spec`].
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

/// A full run report (written with `--report PATH`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// What was measured on.
    pub stamp: Stamp,
    /// Operations (training calls and replays) attempted.
    pub attempted: u64,
    /// Operations whose correctness checks failed.
    pub failed: u64,
    /// The failed checks, one message each.
    pub failures: Vec<String>,
    /// Measured metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report with no metrics yet.
    pub fn new(workload: &str, trace: bool, stamp: Stamp) -> Report {
        Report {
            schema: SCHEMA.to_string(),
            workload: workload.to_string(),
            trace,
            stamp,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record a metric defined in [`spec`]; unknown names are a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = spec::find(name).unwrap_or_else(|| panic!("metric {name} is not in spec"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: def.unit.to_string(),
            value,
        });
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Count one operation and its failed checks.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Whether every check passed and every metric of the run's table
    /// was measured as a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.missing().is_empty()
    }

    /// Table metrics not recorded (or not finite).
    pub fn missing(&self) -> Vec<&'static str> {
        let table = if self.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        table
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// Serialize to one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parse a report, checking its schema and metric names.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let r: Report = serde_json::from_str(text).map_err(|e| format!("parse report: {e:?}"))?;
        if r.schema != SCHEMA {
            return Err(format!("schema {:?}, expected {SCHEMA:?}", r.schema));
        }
        if let Some(m) = r.metrics.iter().find(|m| !spec::valid_name(&m.name)) {
            return Err(format!("malformed metric name {:?}", m.name));
        }
        Ok(r)
    }

    /// The line every run prints last: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (each `{value, unit}`).
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                let v = Value::Object(vec![
                    (
                        "value".to_string(),
                        Value::Number(serde::Number::F64(m.value)),
                    ),
                    ("unit".to_string(), Value::String(m.unit.clone())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Number(serde::Number::U64(self.attempted)),
            ),
            (
                "failed".to_string(),
                Value::Number(serde::Number::U64(self.failed)),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).unwrap_or_default()
    }
}

/// Compare `new` against `base` metric by metric: `(name, base, new,
/// new/base)`. Refused when the stamps differ or the runs are of
/// different workloads or modes.
pub fn compare(base: &Report, new: &Report) -> Result<Vec<(String, f64, f64, f64)>, String> {
    if base.workload != new.workload || base.trace != new.trace {
        return Err(format!(
            "reports are of different runs: {} (trace {}) vs {} (trace {})",
            base.workload, base.trace, new.workload, new.trace
        ));
    }
    let diff = base.stamp.differences(&new.stamp);
    if !diff.is_empty() {
        return Err(format!(
            "stamps differ in {}; refusing to compare",
            diff.join(", ")
        ));
    }
    Ok(base
        .metrics
        .iter()
        .filter_map(|b| {
            new.get(&b.name)
                .map(|v| (b.name.clone(), b.value, v, v / b.value))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let stamp = Stamp {
            nproc: 2,
            cpu_model: "Test CPU @ 1.0GHz".into(),
            kernel: "tiled-par".into(),
            features: "count-alloc,avx2".into(),
            seed: 7,
            config: fedprox_obs::fnv64("convex-fig2 rounds=60"),
        };
        let mut r = Report::new("convex-fig2", false, stamp);
        r.set("train_s", 1.234_567_890_123);
        r.set("setup_s", 0.1 + 0.2);
        r.set("peak_rss_mib", 1e-300);
        r.record(Vec::new());
        r.record(vec![
            "convex-fig2: final loss Some(2.0) above target 0.9".into()
        ]);
        r
    }

    #[test]
    fn report_json_round_trips_exactly() {
        let r = sample();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.get("setup_s").map(f64::to_bits),
            Some((0.1f64 + 0.2).to_bits())
        );
        assert!(Report::from_json(&r.to_json().replace(SCHEMA, "other/v0")).is_err());
        let bad = r.to_json().replace("\"train_s\"", "\"train s\"");
        assert!(Report::from_json(&bad).unwrap_err().contains("malformed"));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = sample();
        let v: Value = serde_json::from_str(&r.contract_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        let train = v.get("metrics").and_then(|m| m.get("train_s")).unwrap();
        assert_eq!(train.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn compare_refuses_differing_stamps() {
        let a = sample();
        let mut b = sample();
        assert_eq!(compare(&a, &b).unwrap().len(), 3);
        b.stamp.seed = 8;
        b.stamp.kernel = "reference".into();
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("kernel") && err.contains("seed"), "{err}");
    }
}
