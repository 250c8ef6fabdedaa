//! `--obs PATH` support: arm the telemetry collector for the duration of a
//! run and stream everything it records to one JSONL file. The run
//! ledger header comes first; raw span and run events are appended as
//! they complete and flushed on every round end, so the file can be read
//! while the run is in flight; [`TraceSession::finish`] appends the
//! aggregate tail (span and path stats, counters, gauges, histograms).
//! Every `fedobs` subcommand reads this one file and skips the events it
//! does not use.
//!
//! The session is a no-op when no path was given, and when built without
//! the `telemetry` feature (it then warns that `--obs` was ignored), so
//! binaries can call it unconditionally.

/// Scoped observability stream for one experiment run.
///
/// ```ignore
/// let trace = TraceSession::start(args.obs.as_deref(), &info)?;
/// // ... run the experiment ...
/// trace.finish(); // appends the aggregate tail
/// ```
#[derive(Debug)]
pub struct TraceSession {
    /// The streamed file; `None` when the session records nothing.
    path: Option<String>,
}

/// What the run ledger records about this invocation. The config and
/// fault-plan descriptions are canonical strings (see
/// [`CommonArgs::describe`](crate::args::CommonArgs::describe));
/// `TraceSession` digests them (FNV-1a 64) into the [`RunMeta`] header
/// that leads the `--obs` stream, so any two run files can be provably
/// joined — or refused — offline.
///
/// [`RunMeta`]: fedprox_telemetry::event::Event::RunMeta
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Canonical config description (digested, never stored raw).
    pub config: String,
    /// Master seed.
    pub seed: u64,
    /// Canonical fault-plan description; empty for fault-free runs.
    pub faults: String,
}

impl RunInfo {
    /// A fault-free run's ledger identity.
    pub fn new(config: impl Into<String>, seed: u64) -> Self {
        RunInfo { config: config.into(), seed, faults: String::new() }
    }

    /// Attach a canonical fault-plan description.
    #[must_use]
    pub fn with_faults(mut self, faults: impl Into<String>) -> Self {
        self.faults = faults.into();
        self
    }

    /// The ledger header event for this run, digests applied. Public
    /// so fedperf can stamp the same identity into its reports.
    #[cfg(feature = "telemetry")]
    pub fn to_event(&self) -> fedprox_telemetry::event::Event {
        fedprox_telemetry::event::Event::RunMeta {
            version: 1,
            config: fedprox_obs::fnv64(&self.config),
            seed: self.seed,
            kernel: fedprox_tensor::kernel::active().name().to_string(),
            faults: fedprox_obs::fnv64(&self.faults),
            features: "telemetry".to_string(),
            crates: format!("fedprox={}", env!("CARGO_PKG_VERSION")),
        }
    }
}

impl TraceSession {
    /// Arm the collector and stream it to `obs`, with `info`'s
    /// [`RunMeta`] header as the first line. With the perfbench counting
    /// allocator compiled in, it is installed as the span allocation
    /// probe so profiles carry bytes/allocs per path. Fails, before any
    /// run event is recorded, when the file cannot be created.
    ///
    /// [`RunMeta`]: fedprox_telemetry::event::Event::RunMeta
    pub fn start(obs: Option<&str>, info: &RunInfo) -> Result<Self, String> {
        let Some(path) = obs else {
            return Ok(TraceSession { path: None });
        };
        #[cfg(feature = "telemetry")]
        {
            use fedprox_telemetry::collector;
            fedprox_perfbench::alloc::install_telemetry_probe();
            collector::arm();
            if let Err(e) = collector::stream_to(path) {
                collector::disarm();
                return Err(format!("cannot create --obs file {path}: {e}"));
            }
            collector::record_event(info.to_event());
            Ok(TraceSession { path: Some(path.to_string()) })
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = (path, info);
            eprintln!(
                "warning: --obs ignored: telemetry instrumentation not compiled in \
                 (rebuild with `--features telemetry`)"
            );
            Ok(TraceSession { path: None })
        }
    }

    /// Whether this session is actually recording.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Drain the collector (flushing what is still buffered to the
    /// stream) and append the aggregate tail. A no-op for inactive
    /// sessions.
    pub fn finish(self) {
        #[cfg(feature = "telemetry")]
        if let Some(path) = &self.path {
            use fedprox_telemetry::{collector, jsonl};
            use std::io::Write as _;
            let tail = collector::drain();
            collector::disarm();
            let appended = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(jsonl::to_jsonl(&tail).as_bytes()));
            match appended {
                Ok(()) => println!("obs: run stream written to {path} (`fedobs summary {path}`)"),
                Err(e) => eprintln!("obs: failed to append aggregates to {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_without_path() {
        let t = TraceSession::start(None, &RunInfo::new("none", 1)).unwrap();
        assert!(!t.active());
        t.finish(); // must be a no-op either way
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn uncreatable_path_fails_before_arming() {
        let dir = std::env::temp_dir().join("fedprox_obs_missing_dir_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("o.jsonl");
        let err = TraceSession::start(path.to_str(), &RunInfo::new("bad path", 1)).unwrap_err();
        assert!(err.contains("cannot create --obs file"), "{err}");
        assert!(!fedprox_telemetry::collector::is_armed());
    }
}
