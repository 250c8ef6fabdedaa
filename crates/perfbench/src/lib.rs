//! `fedperf`: the repo's deterministic benchmark harness.
//!
//! Design goals (see DESIGN.md §9 "Performance methodology"):
//!
//! * **Deterministic iteration counts.** Every benchmark declares fixed
//!   `warmup`/`iters`/`repeats` constants — there is no time-based
//!   calibration, so two runs on the same machine execute the exact same
//!   work and CI can compare reports structurally (same ids, same counts)
//!   without gating on absolute wall time.
//! * **Allocation accounting.** With the default `count-alloc` feature the
//!   global allocator is wrapped in a byte/call counter, so each entry
//!   reports `bytes_per_iter`/`allocs_per_iter` alongside `ns_per_iter`.
//!   The vendored rayon shim's only threaded entry point (`par_iter`)
//!   returns only after every item has run, on a pool whose workers
//!   start once per process, so a measured window holds whole fan-outs
//!   and the counts are exact and reproducible — they are the primary
//!   regression signal (wall time is machine-dependent, allocation
//!   traffic is not).
//! * **Schema'd output.** Reports serialize as `BENCH_<name>.json` with
//!   `schema: "fedperf/v1"`; [`report::validate`] checks the shape and
//!   [`report::gate`] implements the `--baseline old.json --gate 1.25`
//!   regression gate (ns/iter within the ratio, both allocation counters
//!   at or below the baseline's).
//!
//! The library holds the machinery; the `fedperf` binary drives it.

// fedlint: allow(clippy-allow-sync) — crate-wide: the perf harness is R1-exempt; a failing benchmark body is a broken bench, not a recoverable condition
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod alloc;
pub mod report;
pub mod suite;
pub mod timer;
