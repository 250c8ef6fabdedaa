//! Byte/call-counting global allocator (the `count-alloc` feature).
//!
//! The counter tracks **cumulative bytes requested** (frees are not
//! subtracted): the harness measures allocation *traffic* through a timed
//! section, not peak residency, because traffic is what the hot-path
//! allocation pass eliminates and what stays bit-reproducible across runs.
//!
//! Two sets of counters run side by side. The process-wide totals
//! ([`stats`]) see every thread, which is what a whole-round budget
//! (fedsim's `--max-round-alloc-mib`, fedbench) wants. The per-thread
//! totals ([`thread_stats`]) see only the calling thread: the vendored
//! rayon shim's `par_iter` runs device solves on worker threads, so a
//! span's process-wide delta would pick up whatever the other threads
//! allocated meanwhile, while its per-thread delta is exactly its own
//! work. The telemetry probe therefore reads the per-thread counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so reading it from inside the
    // allocator never allocates or registers a destructor.
    static THREAD: Cell<AllocStats> = const { Cell::new(AllocStats { bytes: 0, calls: 0 }) };
}

/// Add one allocator call of `bytes` to both counter sets.
#[inline]
fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while this thread's locals are torn down.
    let _ = THREAD.try_with(|t| {
        let s = t.get();
        t.set(AllocStats { bytes: s.bytes + bytes as u64, calls: s.calls + 1 });
    });
}

/// Wraps [`System`], adding every requested allocation to global counters.
#[derive(Debug, Default)]
pub struct CountingAlloc;

// Every method delegates verbatim to `System`; the counter updates are
// lock-free atomics and a thread-local cell, and never allocate, so there
// is no reentrancy hazard.
// SAFETY: `System` upholds the GlobalAlloc contract and we forward to it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the layout contract; forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: caller upholds the layout contract; forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the full new size: a grow re-requests the whole block, and
        // over-counting reallocs keeps the metric monotone and simple.
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A snapshot of the counters (cumulative since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes requested via alloc/alloc_zeroed/realloc.
    pub bytes: u64,
    /// Total allocator calls (excluding frees).
    pub calls: u64,
}

impl AllocStats {
    /// Counter delta `self − earlier` (saturating).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            calls: self.calls.saturating_sub(earlier.calls),
        }
    }
}

/// Read the process-wide counters (every thread). Zero when
/// `count-alloc` is disabled.
pub fn stats() -> AllocStats {
    AllocStats { bytes: BYTES.load(Ordering::Relaxed), calls: CALLS.load(Ordering::Relaxed) }
}

/// Read the calling thread's counters (cumulative since the thread
/// started). Zero when `count-alloc` is disabled.
pub fn thread_stats() -> AllocStats {
    THREAD.with(Cell::get)
}

/// Whether the counting allocator is installed in this build.
pub fn counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Cumulative `(bytes, calls)` reading of the calling thread, in the
/// shape the telemetry collector's allocation probe expects.
#[cfg(feature = "telemetry")]
fn probe() -> (u64, u64) {
    let s = thread_stats();
    (s.bytes, s.calls)
}

/// Hand the counting allocator to the span-tree profile (`fedobs prof`):
/// registers [`thread_stats`]
/// as the telemetry collector's allocation probe so armed span trees
/// attribute bytes/allocs to the innermost open span of the allocating
/// thread. Call before arming; a no-op
/// build-wise when `count-alloc` is off (the probe then reads constant
/// zeros and the profile's allocation columns stay empty).
#[cfg(feature = "telemetry")]
pub fn install_telemetry_probe() {
    fedprox_telemetry::collector::install_alloc_probe(probe);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_allocation_is_counted() {
        if !counting_enabled() {
            return;
        }
        let before = stats();
        let v = vec![0u8; 4096];
        let after = stats();
        let d = after.since(&before);
        assert!(d.bytes >= 4096, "expected >= 4096 bytes counted, got {}", d.bytes);
        assert!(d.calls >= 1);
        drop(v);
    }

    #[test]
    fn thread_counters_see_only_their_own_thread() {
        if !counting_enabled() {
            return;
        }
        let before = thread_stats();
        let other = std::thread::spawn(|| {
            let t0 = thread_stats();
            let v = vec![0u8; 1 << 20];
            drop(std::hint::black_box(v));
            thread_stats().since(&t0).bytes
        })
        .join()
        .expect("worker");
        let mine = thread_stats().since(&before);
        assert!(other >= 1 << 20, "worker saw {other} bytes of its own 1 MiB");
        assert!(mine.bytes < 1 << 20, "caller's counter picked up the worker's 1 MiB");
        let v = vec![0u8; 4096];
        assert!(thread_stats().since(&before).bytes >= 4096);
        drop(v);
    }

    #[test]
    fn since_is_saturating() {
        let a = AllocStats { bytes: 10, calls: 1 };
        let b = AllocStats { bytes: 30, calls: 4 };
        assert_eq!(b.since(&a), AllocStats { bytes: 20, calls: 3 });
        assert_eq!(a.since(&b), AllocStats { bytes: 0, calls: 0 });
    }
}
