//! `fedprox-telemetry`: structured tracing, counters, and per-round
//! telemetry for the FedProxVR runtime.
//!
//! # Design
//!
//! * **Outside the math.** The collector never perturbs the math of the
//!   code it observes, and the `fedobs` reader builds in the default
//!   workspace configuration. The one dependency is the vendored serde
//!   shim pair, the workspace's JSON codec, which touches no numeric path.
//! * **Feature-gated to zero.** Without the `enabled` cargo feature the
//!   [`span!`], [`counter!`], [`gauge!`], and [`histogram!`] macros
//!   expand to a never-invoked closure (so attribute expressions stay
//!   "used" without being evaluated) and the collector module does not
//!   exist. Dependents plumb their own `telemetry` feature down to
//!   `fedprox-telemetry/enabled`, mirroring the `check` feature chain.
//! * **Armed at runtime.** Even when compiled in, nothing records until
//!   [`collector::arm`] is called (`fedrun` arms on `--obs`).
//!   Disarmed hooks cost one relaxed atomic load.
//! * **Deterministic where it matters.** Wall-clock readings exist only
//!   inside the collector; everything derived from the simulation
//!   (device timings, bytes, rounds) uses the virtual clock and is
//!   bitwise-reproducible. Telemetry never feeds back into training.
//!
//! The event model lives in [`event`], the JSONL codec in [`jsonl`], and
//! the aggregated per-run summary in [`summary`]. A run streams every
//! family into one `--obs` file, and the `fedobs` CLI (crate
//! `fedprox-obs`) reads it: `fedobs summary` renders top-N tables,
//! `fedobs health` the algorithm-health family (built in [`scope`]) and
//! its two-run diff for CI regression gating, and `fedobs prof` the
//! span-tree profile (built in [`profile`]) as a path table, collapsed
//! flamegraph stacks, or a cross-run aggregate.

pub mod event;
pub mod jsonl;
pub mod profile;
pub mod scope;
pub mod summary;

#[cfg(feature = "enabled")]
pub mod collector;

/// The calling thread's open span path, captured before a fan-out so
/// that worker threads record their spans under it (see the span-tree
/// notes in the collector module). Without the `enabled` feature it is
/// zero-sized and [`SpanPath::enter`] just calls its closure.
#[derive(Clone, Debug, Default)]
pub struct SpanPath {
    #[cfg(feature = "enabled")]
    prefix: String,
}

impl SpanPath {
    /// The calling thread's open path (empty while disarmed).
    #[inline]
    pub fn capture() -> Self {
        #[cfg(feature = "enabled")]
        {
            let prefix = if collector::is_armed() { collector::open_path() } else { String::new() };
            SpanPath { prefix }
        }
        #[cfg(not(feature = "enabled"))]
        SpanPath {}
    }

    /// Run `f` with this path as the current thread's span-path prefix.
    /// Spans `f` opens nest under the captured path and are not credited
    /// to the capturing thread's open spans. On the capturing thread
    /// itself, whose own scopes are still open, this just calls `f`.
    #[inline]
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(feature = "enabled")]
        {
            collector::with_prefix(&self.prefix, f)
        }
        #[cfg(not(feature = "enabled"))]
        f()
    }
}

/// Run `f` with its allocations left out of every span's alloc columns.
/// For growing a thread-local cache that keeps the largest size its
/// thread has needed: how often it grows depends on which fan-out items
/// that thread happened to run, not on the work, so counting the growth
/// would make the columns differ between same-seed runs. Process-wide
/// allocation counters still see it. Without the `enabled` feature it
/// just calls `f`.
#[inline]
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "enabled")]
    {
        collector::excluded(f)
    }
    #[cfg(not(feature = "enabled"))]
    f()
}

/// Lossless-enough conversion of attribute values to `f64` for span
/// attributes and histogram samples (dimensions and counts comfortably
/// fit; beyond 2⁵³ precision loss is acceptable for telemetry).
pub trait IntoF64 {
    /// Convert to `f64`.
    fn into_f64(self) -> f64;
}

impl IntoF64 for f64 {
    #[inline]
    fn into_f64(self) -> f64 {
        self
    }
}

macro_rules! impl_into_f64 {
    ($($t:ty),*) => {
        $(impl IntoF64 for $t {
            #[inline]
            fn into_f64(self) -> f64 {
                self as f64
            }
        })*
    };
}

impl_into_f64!(f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Conversion of counter deltas to `u64`.
pub trait IntoU64 {
    /// Convert to `u64`.
    fn into_u64(self) -> u64;
}

impl IntoU64 for u64 {
    #[inline]
    fn into_u64(self) -> u64 {
        self
    }
}

macro_rules! impl_into_u64 {
    ($($t:ty),*) => {
        $(impl IntoU64 for $t {
            #[inline]
            fn into_u64(self) -> u64 {
                self as u64
            }
        })*
    };
}

impl_into_u64!(u8, u16, u32, usize);

/// Open a wall-clock span covering the rest of the enclosing scope.
///
/// ```ignore
/// fedprox_telemetry::span!("tensor", "matmul", "m" => m, "k" => k, "n" => n);
/// ```
///
/// Expands to a scope-local RAII guard when the `enabled` feature is on,
/// and to a never-invoked closure otherwise (attribute expressions are
/// not evaluated in either disarmed or disabled configurations).
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! span {
    ($layer:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        let _fedtrace_span_guard = $crate::collector::SpanGuard::begin(
            $layer,
            $name,
            &[$(($k, $crate::IntoF64::into_f64($v))),*],
        );
    };
}

/// Disabled expansion of [`span!`]: compiles to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! span {
    ($layer:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        let _ = || {
            let _ = ($layer, $name);
            $(let _ = ($k, &$v);)*
        };
    };
}

/// Add to a named monotone counter.
///
/// ```ignore
/// fedprox_telemetry::counter!("optim.inner_step", 1u32);
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr $(,)?) => {
        $crate::collector::add_counter($name, $crate::IntoU64::into_u64($delta));
    };
}

/// Disabled expansion of [`counter!`]: compiles to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr $(,)?) => {
        let _ = || {
            let _ = ($name, &$delta);
        };
    };
}

/// Set a named gauge (last write wins).
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr $(,)?) => {
        $crate::collector::set_gauge($name, $crate::IntoF64::into_f64($value));
    };
}

/// Disabled expansion of [`gauge!`]: compiles to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr $(,)?) => {
        let _ = || {
            let _ = ($name, &$value);
        };
    };
}

/// Record one sample into a named fixed-bucket histogram.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr $(,)?) => {
        $crate::collector::record_histogram($name, $crate::IntoF64::into_f64($value));
    };
}

/// Disabled expansion of [`histogram!`]: compiles to nothing.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr $(,)?) => {
        let _ = || {
            let _ = ($name, &$value);
        };
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_expand_in_statement_position() {
        // With `enabled` on, these spans and metrics reach the global
        // collector, so they must not land in another test's armed window.
        #[cfg(feature = "enabled")]
        let _g = crate::collector::tests::guard();
        let m = 3usize;
        let n = 4u32;
        crate::span!("tensor", "matmul", "m" => m, "n" => n);
        crate::counter!("test.counter", 1u32);
        crate::gauge!("test.gauge", 2.5);
        crate::histogram!("test.hist", 0.5);
        // With `enabled` off this test proves the no-op arms typecheck
        // without evaluating (or warning about) their arguments; with it
        // on, that the guard binds without shadowing issues.
        crate::span!("tensor", "again");
    }
}
