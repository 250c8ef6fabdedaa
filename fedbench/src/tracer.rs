//! In-memory spans recorded from the benchmark's own code around calls
//! into each layer. Nothing inside the program is instrumented.

use fedprox_perfbench::alloc;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`optim`, `core.aggregate`, ...).
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Bytes allocated (process-wide) while the span was open.
    pub bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder: a stack of open spans over a flat list.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the origin at `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().map(|&(p, _)| p),
            bytes: 0,
        });
        self.open.push((id, alloc::stats().bytes));
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let (top, bytes0) = self.open.pop().expect("exit without an open span");
        assert_eq!(top, id, "spans must close innermost first");
        let end = self.now();
        let s = &mut self.spans[id];
        s.end = end;
        s.bytes = alloc::stats().bytes.saturating_sub(bytes0);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-measured closed span under `parent` (work timed
    /// on another thread, or a share of an interval); returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    /// Every closed span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Self time per span name: each span's duration minus its direct
    /// children's, summed by name, in first-seen order. The self times
    /// of all names add up to the root spans' total duration.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = s.secs() - c;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Total duration of the root spans.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new();
        let root = t.enter("train");
        for _ in 0..3 {
            let r = t.enter("round");
            t.span("optim", || {
                std::hint::black_box((0..20_000u64).sum::<u64>())
            });
            let v = t.span("core.aggregate", || vec![0u8; 4096]);
            std::hint::black_box(v);
            t.exit(r);
        }
        let now = t.now();
        let r = t.record("round", now, now + 1e-6, Some(root));
        t.record("net.runtime", now, now + 1e-7, Some(r));
        t.exit(root);
        let sum: f64 = t.self_times().iter().map(|(_, s)| s).sum();
        assert!(
            (sum - t.root_secs()).abs() < 1e-12,
            "{sum} vs {}",
            t.root_secs()
        );
        assert_eq!(t.named("round").count(), 4);
        if alloc::counting_enabled() {
            assert!(t.named("core.aggregate").all(|s| s.bytes >= 4096));
        }
    }
}
