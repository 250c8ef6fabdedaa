//! Span-tree profile model: the read side of `fedobs prof`.
//!
//! Consumes the `path_stat` records a trace carries (produced by the
//! collector's thread-local scope stack), reassembles them into a tree
//! ordered parent-before-child, and renders the three `fedobs prof` views:
//! a path-tree table, collapsed stacks for flamegraph tools, and a
//! cross-run aggregate with per-path medians and deltas. Like the rest
//! of the read side this module needs no cargo features: it parses
//! traces, it never records them.

use crate::event::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One span-tree path aggregated over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRow {
    /// `/`-joined span names from the outermost scope down.
    pub path: String,
    /// Activations of this exact path.
    pub count: u64,
    /// Summed wall time, µs.
    pub total_micros: f64,
    /// Summed wall time minus time inside child spans, µs.
    pub self_micros: f64,
    /// Longest single activation, µs.
    pub max_micros: f64,
    /// Allocator bytes attributed to the subtree (0 without a probe).
    pub total_bytes: u64,
    /// Allocator bytes attributed to this path itself.
    pub self_bytes: u64,
    /// Allocator calls attributed to the subtree.
    pub total_allocs: u64,
    /// Allocator calls attributed to this path itself.
    pub self_allocs: u64,
}

impl PathRow {
    /// Nesting depth: number of `/`-separated segments.
    pub fn depth(&self) -> usize {
        self.path.split('/').count()
    }

    /// Leaf segment (the span's own name).
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// A run's span-tree profile: every observed path, parent before child,
/// siblings in lexicographic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Tree rows in render order.
    pub paths: Vec<PathRow>,
}

/// Sort key: the segment vector, so `a/b` sorts directly after `a` and
/// before `a2` (plain string order would interleave them).
fn segments(path: &str) -> Vec<&str> {
    path.split('/').collect()
}

impl ProfileReport {
    /// Extract and merge the `path_stat` records of a flat event stream
    /// (duplicate paths — e.g. from concatenated partial traces — are
    /// summed; `max` columns take the max).
    pub fn from_events(events: &[Event]) -> Self {
        let mut map: BTreeMap<String, PathRow> = BTreeMap::new();
        for ev in events {
            let Event::PathStat {
                path,
                count,
                total_micros,
                self_micros,
                max_micros,
                total_bytes,
                self_bytes,
                total_allocs,
                self_allocs,
            } = ev
            else {
                continue;
            };
            let row = map.entry(path.clone()).or_insert_with(|| PathRow {
                path: path.clone(),
                count: 0,
                total_micros: 0.0,
                self_micros: 0.0,
                max_micros: 0.0,
                total_bytes: 0,
                self_bytes: 0,
                total_allocs: 0,
                self_allocs: 0,
            });
            row.count = row.count.saturating_add(*count);
            row.total_micros += total_micros;
            row.self_micros += self_micros;
            row.max_micros = row.max_micros.max(*max_micros);
            row.total_bytes = row.total_bytes.saturating_add(*total_bytes);
            row.self_bytes = row.self_bytes.saturating_add(*self_bytes);
            row.total_allocs = row.total_allocs.saturating_add(*total_allocs);
            row.self_allocs = row.self_allocs.saturating_add(*self_allocs);
        }
        let mut paths: Vec<PathRow> = map.into_values().collect();
        paths.sort_by(|a, b| segments(&a.path).cmp(&segments(&b.path)));
        ProfileReport { paths }
    }

    /// Whether the trace carried any allocation attribution (a probe
    /// was installed during the run).
    pub fn has_alloc_data(&self) -> bool {
        self.paths.iter().any(|p| p.total_allocs > 0)
    }

    /// Render the path-tree table: one row per path, leaf name indented
    /// by depth, with count, total/self/max time and — when present —
    /// total/self allocation columns.
    pub fn render_tree(&self) -> String {
        let mut s = String::new();
        if self.paths.is_empty() {
            let _ = writeln!(
                s,
                "no span-tree data in trace (run with --obs on a telemetry build)"
            );
            return s;
        }
        let allocs = self.has_alloc_data();
        let name_w = self
            .paths
            .iter()
            .map(|p| 2 * (p.depth() - 1) + p.leaf().len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = write!(
            s,
            "{:<name_w$} {:>10} {:>12} {:>12} {:>10}",
            "path", "count", "total_ms", "self_ms", "max_us"
        );
        if allocs {
            let _ = write!(s, " {:>14} {:>14} {:>12} {:>12}", "total_bytes", "self_bytes", "total_allocs", "self_allocs");
        }
        let _ = writeln!(s);
        for p in &self.paths {
            let indent = "  ".repeat(p.depth() - 1);
            let label = format!("{indent}{}", p.leaf());
            let _ = write!(
                s,
                "{label:<name_w$} {:>10} {:>12.3} {:>12.3} {:>10.2}",
                p.count,
                p.total_micros / 1000.0,
                p.self_micros / 1000.0,
                p.max_micros
            );
            if allocs {
                let _ = write!(
                    s,
                    " {:>14} {:>14} {:>12} {:>12}",
                    p.total_bytes, p.self_bytes, p.total_allocs, p.self_allocs
                );
            }
            let _ = writeln!(s);
        }
        s
    }

    /// Render collapsed stacks — the `a;b;c <weight>` lines standard
    /// flamegraph tools consume. The weight is the path's *self* time in
    /// integer microseconds (the collapsed-stack convention: totals are
    /// reconstructed by the renderer from descendant frames). Paths with
    /// zero rounded self-time are kept at weight 0 so frame counts stay
    /// faithful.
    pub fn render_flame(&self) -> String {
        let mut s = String::new();
        for p in &self.paths {
            let weight = p.self_micros.max(0.0).round() as u64;
            let _ = writeln!(s, "{} {weight}", p.path.replace('/', ";"));
        }
        s
    }
}

/// One path's statistics across N runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// The span-tree path.
    pub path: String,
    /// Runs (out of those aggregated) in which the path appeared.
    pub runs: usize,
    /// Per-run activation counts, in input order.
    pub counts: Vec<u64>,
    /// Median of per-run total time, µs.
    pub median_total_micros: f64,
    /// Max − min of per-run total time, µs.
    pub delta_total_micros: f64,
    /// Median of per-run self time, µs.
    pub median_self_micros: f64,
    /// Max − min of per-run self time, µs.
    pub delta_self_micros: f64,
    /// Per-run `(total_bytes, self_bytes, total_allocs, self_allocs)`.
    pub allocs: Vec<(u64, u64, u64, u64)>,
}

impl AggRow {
    /// Whether every deterministic column — activation count and the
    /// four allocation columns — is identical across all runs the path
    /// appeared in. Wall-clock columns are host noise and excluded.
    pub fn deterministic_columns_match(&self) -> bool {
        self.counts.windows(2).all(|w| w[0] == w[1])
            && self.allocs.windows(2).all(|w| w[0] == w[1])
    }
}

/// Cross-run aggregate of N profiles (repeated or concurrent runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggReport {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Tree rows in render order (same ordering as [`ProfileReport`]).
    pub rows: Vec<AggRow>,
}

/// Median of an unsorted non-empty sample (mean of the two middles for
/// even sizes); 0 for empty.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

impl AggReport {
    /// Merge N per-run profiles into one cross-run report.
    pub fn from_profiles(profiles: &[ProfileReport]) -> Self {
        let mut by_path: BTreeMap<String, Vec<&PathRow>> = BTreeMap::new();
        for profile in profiles {
            for row in &profile.paths {
                by_path.entry(row.path.clone()).or_default().push(row);
            }
        }
        let mut rows: Vec<AggRow> = by_path
            .into_iter()
            .map(|(path, per_run)| {
                let mut totals: Vec<f64> = per_run.iter().map(|r| r.total_micros).collect();
                let mut selfs: Vec<f64> = per_run.iter().map(|r| r.self_micros).collect();
                let spread = |v: &[f64]| {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for x in v {
                        lo = lo.min(*x);
                        hi = hi.max(*x);
                    }
                    (hi - lo).max(0.0)
                };
                let delta_total_micros = spread(&totals);
                let delta_self_micros = spread(&selfs);
                AggRow {
                    path,
                    runs: per_run.len(),
                    counts: per_run.iter().map(|r| r.count).collect(),
                    median_total_micros: median(&mut totals),
                    delta_total_micros,
                    median_self_micros: median(&mut selfs),
                    delta_self_micros,
                    allocs: per_run
                        .iter()
                        .map(|r| (r.total_bytes, r.self_bytes, r.total_allocs, r.self_allocs))
                        .collect(),
                }
            })
            .collect();
        rows.sort_by(|a, b| segments(&a.path).cmp(&segments(&b.path)));
        AggReport { runs: profiles.len(), rows }
    }

    /// Paths that appeared in every run but whose deterministic columns
    /// (count, bytes, allocs) disagree — plus paths missing from some
    /// runs. Empty means the runs are structurally identical.
    pub fn deterministic_mismatches(&self) -> Vec<&AggRow> {
        self.rows
            .iter()
            .filter(|r| r.runs != self.runs || !r.deterministic_columns_match())
            .collect()
    }

    /// Render the cross-run table: per-path run coverage, the (shared or
    /// ranged) activation count, time medians with max−min deltas, and a
    /// `det` column marking deterministic-column agreement.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "fedobs prof agg: {} runs, {} paths", self.runs, self.rows.len());
        if self.rows.is_empty() {
            return s;
        }
        let name_w = self
            .rows
            .iter()
            .map(|r| 2 * (segments(&r.path).len() - 1) + r.path.rsplit('/').next().unwrap_or("").len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            s,
            "{:<name_w$} {:>5} {:>12} {:>14} {:>12} {:>14} {:>12} {:>4}",
            "path", "runs", "count", "med_total_ms", "d_total_ms", "med_self_ms", "d_self_ms", "det"
        );
        for r in &self.rows {
            let depth = segments(&r.path).len();
            let indent = "  ".repeat(depth - 1);
            let leaf = r.path.rsplit('/').next().unwrap_or(&r.path);
            let label = format!("{indent}{leaf}");
            let count = match (r.counts.iter().min(), r.counts.iter().max()) {
                (Some(lo), Some(hi)) if lo == hi => format!("{lo}"),
                (Some(lo), Some(hi)) => format!("{lo}..{hi}"),
                _ => "-".to_string(),
            };
            let det = if r.runs == self.runs && r.deterministic_columns_match() {
                "yes"
            } else {
                "NO"
            };
            let _ = writeln!(
                s,
                "{label:<name_w$} {:>5} {count:>12} {:>14.3} {:>12.3} {:>14.3} {:>12.3} {det:>4}",
                r.runs,
                r.median_total_micros / 1000.0,
                r.delta_total_micros / 1000.0,
                r.median_self_micros / 1000.0,
                r.delta_self_micros / 1000.0,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(path: &str, count: u64, total: f64, self_us: f64, bytes: u64) -> Event {
        Event::PathStat {
            path: path.to_string(),
            count,
            total_micros: total,
            self_micros: self_us,
            max_micros: total,
            total_bytes: bytes,
            self_bytes: bytes / 2,
            total_allocs: bytes / 10,
            self_allocs: bytes / 20,
        }
    }

    #[test]
    fn tree_orders_parents_before_children() {
        let events = vec![
            stat("round/device_update", 3, 30.0, 10.0, 0),
            stat("round", 1, 50.0, 20.0, 0),
            stat("round/evaluate", 1, 5.0, 5.0, 0),
            stat("round/device_update/local_solve", 3, 20.0, 20.0, 0),
        ];
        let p = ProfileReport::from_events(&events);
        let order: Vec<&str> = p.paths.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            order,
            vec![
                "round",
                "round/device_update",
                "round/device_update/local_solve",
                "round/evaluate"
            ]
        );
        assert!(!p.has_alloc_data());
    }

    #[test]
    fn segment_sort_beats_plain_string_order() {
        // Plain string order would put "a2" between "a" and "a/b"
        // ('/' > '2' in ASCII); segment order must not.
        let events =
            vec![stat("a2", 1, 1.0, 1.0, 0), stat("a/b", 1, 1.0, 1.0, 0), stat("a", 1, 2.0, 1.0, 0)];
        let p = ProfileReport::from_events(&events);
        let order: Vec<&str> = p.paths.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(order, vec!["a", "a/b", "a2"]);
    }

    #[test]
    fn duplicate_paths_merge() {
        let events = vec![stat("round", 2, 10.0, 4.0, 100), stat("round", 3, 20.0, 6.0, 50)];
        let p = ProfileReport::from_events(&events);
        assert_eq!(p.paths.len(), 1);
        assert_eq!(p.paths[0].count, 5);
        assert!((p.paths[0].total_micros - 30.0).abs() < 1e-12);
        assert!((p.paths[0].self_micros - 10.0).abs() < 1e-12);
        assert_eq!(p.paths[0].total_bytes, 150);
        assert!(p.has_alloc_data());
    }

    #[test]
    fn tree_table_indents_and_shows_alloc_columns_only_with_data() {
        let p = ProfileReport::from_events(&[
            stat("round", 1, 50.0, 20.0, 0),
            stat("round/device_update", 3, 30.0, 30.0, 0),
        ]);
        let text = p.render_tree();
        assert!(text.contains("\n  device_update"), "child indented:\n{text}");
        assert!(!text.contains("total_bytes"));
        let q = ProfileReport::from_events(&[stat("round", 1, 50.0, 20.0, 1000)]);
        assert!(q.render_tree().contains("total_bytes"));
    }

    #[test]
    fn flame_lines_are_collapsed_stacks_of_self_time() {
        let p = ProfileReport::from_events(&[
            stat("round", 1, 50.0, 20.4, 0),
            stat("round/device_update", 3, 30.0, 29.6, 0),
        ]);
        let text = p.render_flame();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["round 20", "round;device_update 30"]);
        // Every line must match the `seg(;seg)* <int>` shape.
        for line in lines {
            let (stack, weight) = line.rsplit_once(' ').expect("space");
            assert!(!stack.is_empty() && !stack.contains('/'));
            weight.parse::<u64>().expect("integer weight");
        }
    }

    #[test]
    fn agg_medians_deltas_and_determinism() {
        let run = |t1: f64, t2: f64, bytes: u64| {
            ProfileReport::from_events(&[
                stat("round", 2, t1, t1 / 2.0, bytes),
                stat("round/solve", 4, t2, t2, bytes / 2),
            ])
        };
        let agg = AggReport::from_profiles(&[run(10.0, 6.0, 100), run(14.0, 8.0, 100)]);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.rows.len(), 2);
        let round = &agg.rows[0];
        assert_eq!(round.path, "round");
        assert_eq!(round.counts, vec![2, 2]);
        assert!((round.median_total_micros - 12.0).abs() < 1e-12);
        assert!((round.delta_total_micros - 4.0).abs() < 1e-12);
        assert!(round.deterministic_columns_match());
        assert!(agg.deterministic_mismatches().is_empty());
        assert!(agg.render().contains("yes"));
        // Different alloc bytes → deterministic columns disagree.
        let drifted = AggReport::from_profiles(&[run(10.0, 6.0, 100), run(10.0, 6.0, 102)]);
        let bad = drifted.deterministic_mismatches();
        assert_eq!(bad.len(), 2);
        assert!(drifted.render().contains("NO"));
    }

    #[test]
    fn agg_flags_paths_missing_from_some_runs() {
        let a = ProfileReport::from_events(&[stat("round", 1, 1.0, 1.0, 0)]);
        let b = ProfileReport::from_events(&[
            stat("round", 1, 1.0, 1.0, 0),
            stat("round/extra", 1, 1.0, 1.0, 0),
        ]);
        let agg = AggReport::from_profiles(&[a, b]);
        let bad = agg.deterministic_mismatches();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "round/extra");
        assert_eq!(bad[0].runs, 1);
    }

    #[test]
    fn empty_profile_renders_hint() {
        let p = ProfileReport::from_events(&[]);
        assert!(p.render_tree().contains("no span-tree data"));
        assert_eq!(p.render_flame(), "");
    }
}
