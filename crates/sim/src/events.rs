//! The sharded virtual-time event loop.
//!
//! **Not on any engine path.** The round driver computes each device's
//! finish directly (`((t0 + download) + compute) + upload`, the same
//! additions this loop performs), because legs are independent and the
//! completion order is never used. The loop and [`DeviceTiming`] stay
//! only because the benchmark's traced replay (`fedbench/`) names them;
//! they go when that replay is ported.
//!
//! The networked backend charges each device's download/compute/upload
//! legs by iterating a worker vector; here the same legs become explicit
//! **events** on a virtual-time priority queue, sharded by stable device
//! id so each shard's heap stays small. The dispatcher always pops the
//! globally earliest event by scanning the shard heads, ordered by
//! `(time, stable device id)` with a total order on time — which makes
//! the completion sequence **independent of the shard count**: one shard
//! or sixty-four, the same virtual schedule falls out bitwise (the unit
//! tests lock this invariant; the fault-plan addressing in
//! `fedprox-faults` relies on it).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One sampled device's three round-trip legs, in virtual seconds.
/// (The driver uses `fedprox_net::clock::DeviceRoundTiming`; this type
/// is kept for the benchmark replay only.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceTiming {
    /// Stable device id.
    pub device: usize,
    /// Global-model broadcast (server → device).
    pub download: f64,
    /// Local solver time (scaled by gradient evaluations, fault-plan
    /// slow factors and the population's compute heterogeneity).
    pub compute: f64,
    /// Local-model return (device → server).
    pub upload: f64,
}

/// A device's finish: `(stable id, virtual finish time)`.
pub type Finish = (usize, f64);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg {
    Download,
    Compute,
    Upload,
}

/// A scheduled state transition for one device. `idx` points at the
/// device's entry in the round's timing slice (an O(1) lookup); ordering
/// only ever consults `(time, stable device id)`.
#[derive(Debug, Clone, Copy)]
struct Ev {
    time: f64,
    device: usize,
    idx: usize,
    leg: Leg,
}

// Equality mirrors `Ord` (which consults only `(time, device)`) so the
// heap's ordering contract holds.
impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ev {}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.device.cmp(&other.device))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A virtual-time event loop over `S` shard heaps (shard = id mod S).
/// Kept only for the benchmark replay; no backend runs it.
///
/// Each device holds at most one pending event (its next leg boundary),
/// so a round's queue size is bounded by the active set, never the
/// population.
#[derive(Debug)]
pub struct ShardedEventLoop {
    shards: Vec<BinaryHeap<Reverse<Ev>>>,
}

impl ShardedEventLoop {
    /// Create a loop with `shards` heaps (at least one).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "event loop needs at least one shard");
        ShardedEventLoop {
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
        }
    }

    fn push(&mut self, ev: Ev) {
        let s = ev.device % self.shards.len();
        self.shards[s].push(Reverse(ev));
    }

    /// Pop the globally earliest event by `(time, device id)`.
    fn pop(&mut self) -> Option<Ev> {
        let mut best: Option<(usize, Ev)> = None;
        for (i, heap) in self.shards.iter().enumerate() {
            if let Some(Reverse(head)) = heap.peek() {
                match &best {
                    Some((_, b)) if *head >= *b => {}
                    _ => best = Some((i, *head)),
                }
            }
        }
        let (i, _) = best?;
        self.shards[i].pop().map(|Reverse(ev)| ev)
    }

    /// Run one round starting at virtual time `t0`: every timed device
    /// walks Download → Compute → Upload, and the finishes come back in
    /// completion order (ties broken by stable id). The queues are empty
    /// again on return.
    pub fn run_round(&mut self, t0: f64, timings: &[DeviceTiming]) -> Vec<Finish> {
        debug_assert!(self.shards.iter().all(BinaryHeap::is_empty));
        for (idx, t) in timings.iter().enumerate() {
            self.push(Ev {
                time: t0 + t.download,
                device: t.device,
                idx,
                leg: Leg::Download,
            });
        }
        let mut finishes = Vec::with_capacity(timings.len());
        while let Some(ev) = self.pop() {
            let t = &timings[ev.idx];
            match ev.leg {
                Leg::Download => self.push(Ev {
                    time: ev.time + t.compute,
                    leg: Leg::Compute,
                    ..ev
                }),
                Leg::Compute => self.push(Ev {
                    time: ev.time + t.upload,
                    leg: Leg::Upload,
                    ..ev
                }),
                Leg::Upload => finishes.push((ev.device, ev.time)),
            }
        }
        finishes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings() -> Vec<DeviceTiming> {
        (0..40)
            .map(|d| DeviceTiming {
                device: d * 3 + 1, // sparse, non-contiguous stable ids
                download: 0.05,
                compute: 0.7 + (d as f64 % 7.0) * 0.31,
                upload: 0.05,
            })
            .collect()
    }

    #[test]
    fn finishes_are_in_completion_order_and_sum_the_legs() {
        let mut el = ShardedEventLoop::new(4);
        let ts = timings();
        let fin = el.run_round(10.0, &ts);
        assert_eq!(fin.len(), ts.len());
        assert!(fin.windows(2).all(|w| w[0].1 <= w[1].1), "not sorted by time");
        for (dev, t) in &fin {
            let src = ts.iter().find(|x| x.device == *dev).unwrap();
            let expect = 10.0 + src.download + src.compute + src.upload;
            assert_eq!(t.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn completion_order_is_shard_count_invariant() {
        let ts = timings();
        let base = ShardedEventLoop::new(1).run_round(0.0, &ts);
        for shards in [2, 3, 8, 64] {
            let fin = ShardedEventLoop::new(shards).run_round(0.0, &ts);
            assert_eq!(fin.len(), base.len(), "shards = {shards}");
            for ((d0, t0), (d1, t1)) in base.iter().zip(&fin) {
                assert_eq!(d0, d1, "shards = {shards}");
                assert_eq!(t0.to_bits(), t1.to_bits(), "shards = {shards}");
            }
        }
    }

    #[test]
    fn simultaneous_finishes_tie_break_by_stable_id() {
        let ts: Vec<DeviceTiming> = [9, 2, 5]
            .iter()
            .map(|&d| DeviceTiming { device: d, download: 0.1, compute: 1.0, upload: 0.1 })
            .collect();
        let fin = ShardedEventLoop::new(2).run_round(0.0, &ts);
        let order: Vec<usize> = fin.iter().map(|f| f.0).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn empty_round_is_fine() {
        let mut el = ShardedEventLoop::new(8);
        assert!(el.run_round(3.0, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEventLoop::new(0);
    }
}
