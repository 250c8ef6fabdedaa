//! Workspace call graph over parsed sources.
//!
//! Nodes are the `fn` items the [`crate::parser`] extracted from every
//! crate's library sources; edges are *possible* calls, resolved by
//! name:
//!
//! * free calls `foo(...)` resolve to same-crate free fns, falling back
//!   to `use`-imported fns from other workspace crates;
//! * qualified calls `Type::foo(...)` / `module::foo(...)` resolve
//!   through the path's qualifier, with the leading segment mapped via
//!   `use` declarations and workspace package names;
//! * method calls `.foo(...)` resolve to every impl of that method name
//!   in the caller's crate plus `pub`/trait-callable impls elsewhere —
//!   conservative over-approximation, trimmed by a deny list of
//!   ubiquitous std method names so `.clone()` does not connect the
//!   world;
//! * path references without call parens (`map(Device::samples)`)
//!   resolve like the qualified call they stand for.
//!
//! A qualifier names a type, an inline module or a file module
//! (`codec::encode` lands in `codec.rs`).
//!
//! The graph is an over-approximation by construction: an edge means "a
//! call with this shape could land here", which is the right direction
//! for reachability lints (false edges can only make the analysis more
//! cautious, never blind). Method edges through the deny list and the
//! fan-out cap are kept apart in [`CallGraph::loose`]: too noisy for a
//! panic chain, but a liveness question must follow them. Known misses
//! — bare fn names passed as values (`map(helper)`) and calls through
//! generic parameters (`M::dim()`) — are documented limitations.

use crate::lexer::ScannedFile;
use crate::parser::{FnItem, ParsedFile, Visibility};
use std::collections::BTreeMap;

/// One analyzed source file with everything the graph and rules need.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Crate directory name under `crates/` (e.g. `core`); empty for
    /// root files outside `crates/*/src`.
    pub crate_name: String,
    /// Workspace-relative display path.
    pub display: String,
    /// Whether the file is outside every library: under `src/bin/`, or
    /// a root file (integration test, example, benchmark). Such files
    /// add no graph nodes; their calls land in [`CallGraph::rooted`].
    pub is_bin: bool,
    /// Original text.
    pub source: String,
    /// Masked view + comments.
    pub scanned: ScannedFile,
    /// Item structure.
    pub parsed: ParsedFile,
}

/// One graph node: an `fn` item.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the file list passed to [`build`].
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub fn_idx: usize,
    /// Owning crate directory name.
    pub crate_name: String,
    /// `crate::module::Type::name` display form.
    pub qualified: String,
    /// Whether the fn is `pub` (a public-API entry candidate).
    pub public: bool,
    /// Whether the fn is callable through a trait (trait impls and
    /// trait-declaration defaults) — externally invokable without `pub`.
    pub trait_callable: bool,
}

/// Reachability result from a set of entry nodes (BFS, unit edge cost).
#[derive(Debug, Clone)]
pub struct Reachability {
    /// Shortest distance in calls from any entry, per node.
    pub dist: Vec<Option<u32>>,
    /// BFS predecessor on a shortest path, per node.
    pub parent: Vec<Option<usize>>,
}

/// The workspace call graph.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// All nodes.
    pub nodes: Vec<Node>,
    /// Caller → callee adjacency (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Method edges that the deny list or the fan-out cap keep out of
    /// `edges` (sorted, deduped).
    pub loose: Vec<Vec<usize>>,
    /// Nodes called from code outside every library fn body: the root
    /// files passed to [`build`], `src/bin/` files, and module-scope
    /// library code (`macro_rules!` bodies, `static`/`const`/
    /// `thread_local!` initializers). Sorted, deduped.
    pub rooted: Vec<usize>,
    /// (file index, fn index) → node id.
    by_fn: BTreeMap<(usize, usize), usize>,
}

/// Method names too ubiquitous to resolve by name alone: edges through
/// them would connect every crate to every collection/iterator helper.
const METHOD_DENY: &[&str] = &[
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "borrow", "borrow_mut", "chain", "clamp", "clear", "clone", "cloned", "cmp", "collect",
    "contains", "contains_key", "copied", "count", "dedup", "drain", "entry", "enumerate",
    "eq", "exp", "extend", "filter", "filter_map", "find", "flat_map", "flatten", "flush",
    "fmt", "fold", "for_each", "from", "get", "get_mut", "hash", "insert", "into",
    "into_iter", "is_empty", "is_finite", "is_nan", "is_some", "is_none", "iter",
    "iter_mut", "join", "keys", "last", "len", "ln", "lock", "map", "map_err", "max",
    "max_by", "min", "min_by", "ne", "next", "next_back", "ok", "ok_or", "ok_or_else",
    "partial_cmp", "pop", "position", "powf", "powi", "product", "push", "push_str",
    "read", "recv", "remove", "resize", "retain", "rev", "send", "skip", "sort",
    "sort_by", "sort_by_key", "sort_unstable", "split", "sqrt", "starts_with", "step_by",
    "sum", "take", "then", "to_owned", "to_string", "to_vec", "trim", "truncate",
    "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values", "values_mut", "windows",
    "with_capacity", "write", "zip",
];

/// Keywords that look like `ident (` in expression position.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "else", "break",
    "continue", "move", "fn", "unsafe", "await", "dyn", "where", "impl",
];

/// A call site extracted from one masked line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `a::b::name(...)`, bare `name(...)`, or a path reference
    /// `a::name` without parens — path segments in order.
    Free(Vec<String>),
    /// `.name(...)`.
    Method(String),
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extract the call sites on one masked line.
pub fn calls_on_line(line: &str) -> Vec<Call> {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !(chars[i].is_alphabetic() || chars[i] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        // A leading digit cannot start an ident, so chars[start..i] is a name.
        let name: String = chars[start..i].iter().collect();
        let mut j = i;
        while j < chars.len() && chars[j] == ' ' {
            j += 1;
        }
        // Turbofish: `name::<T>(…)`.
        if chars.get(j) == Some(&':') && chars.get(j + 1) == Some(&':') && chars.get(j + 2) == Some(&'<')
        {
            let mut depth = 0i64;
            let mut k = j + 2;
            while k < chars.len() {
                match chars[k] {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
            while j < chars.len() && chars[j] == ' ' {
                j += 1;
            }
        }
        let called = chars.get(j) == Some(&'(');
        let qualified = start >= 2 && chars[start - 1] == ':' && chars[start - 2] == ':';
        // Without parens only the last segment of a path is a reference
        // (`map(Device::samples)`); `a::b::` continues the path and
        // `a::mac!` is a macro.
        if !called
            && (!qualified || matches!(chars.get(j), Some(':' | '!')))
        {
            continue;
        }
        // Macro invocations (`name!(`) never have `(` directly after the
        // ident, so they are already excluded here.
        let before: String = chars[..start].iter().collect();
        let before = before.trim_end();
        if before.ends_with('.') {
            out.push(Call::Method(name));
            continue;
        }
        // `fn name(` declares the fn; it does not call it.
        if before.strip_suffix("fn").is_some_and(|b| !b.ends_with(is_ident_char)) {
            continue;
        }
        // Walk the path backwards through `::` separators.
        let mut segments = vec![name];
        let mut end = start;
        loop {
            if end >= 2 && chars[end - 1] == ':' && chars[end - 2] == ':' {
                let mut s = end - 2;
                while s > 0 && is_ident_char(chars[s - 1]) {
                    s -= 1;
                }
                if s == end - 2 {
                    // `>::name(` / `)::name(` qualified-self forms: stop.
                    break;
                }
                segments.insert(0, chars[s..end - 2].iter().collect());
                end = s;
            } else {
                break;
            }
        }
        if segments.len() == 1 && CALL_KEYWORDS.contains(&segments[0].as_str()) {
            continue;
        }
        out.push(Call::Free(segments));
    }
    out
}

/// Build the graph. `pkg_idents` maps a crate's path identifier
/// (`fedprox_net`) to its directory name (`net`); `#[cfg(test)]` fns
/// are excluded. Files under `src/bin/` and the `roots` files
/// (integration tests, examples, benchmark sources) add no nodes: every
/// call in them lands in [`CallGraph::rooted`], as does every call in
/// module-scope library code.
pub fn build(
    files: &[SourceFile],
    roots: &[SourceFile],
    pkg_idents: &BTreeMap<String, String>,
) -> CallGraph {
    let mut nodes = Vec::new();
    let mut by_fn = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if file.is_bin {
            continue;
        }
        for (xi, f) in file.parsed.fns.iter().enumerate() {
            if f.cfg_test {
                continue;
            }
            let id = nodes.len();
            nodes.push(Node {
                file: fi,
                fn_idx: xi,
                crate_name: file.crate_name.clone(),
                qualified: format!("{}::{}", file.crate_name, f.qualified()),
                public: f.vis == Visibility::Public,
                trait_callable: f.trait_impl,
            });
            by_fn.insert((fi, xi), id);
        }
    }

    // Name indices. Free fns and associated fns are kept separate so a
    // bare `foo(` cannot resolve to a method.
    let mut free_idx: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut typed_idx: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut method_idx: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, node) in nodes.iter().enumerate() {
        let item = &files[node.file].parsed.fns[node.fn_idx];
        let key = (node.crate_name.as_str(), item.name.as_str());
        if item.impl_type.is_some() {
            typed_idx.entry(key).or_default().push(id);
            method_idx.entry(item.name.as_str()).or_default().push(id);
        } else {
            free_idx.entry(key).or_default().push(id);
        }
    }
    let mut crates: Vec<&str> = nodes.iter().map(|n| n.crate_name.as_str()).collect();
    crates.sort_unstable();
    crates.dedup();
    let file_modules: Vec<Option<String>> = files.iter().map(|f| file_module(&f.display)).collect();
    let resolver = Resolver {
        files,
        nodes: &nodes,
        free_idx,
        typed_idx,
        method_idx,
        crates,
        file_modules,
        pkg_idents,
    };

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut loose: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for caller in 0..nodes.len() {
        let node = &nodes[caller];
        let file = &files[node.file];
        let item = &file.parsed.fns[node.fn_idx];
        let Some((body_start, body_end)) = item.body else { continue };
        let use_map = use_imports(&file.parsed, pkg_idents);
        let from = Caller {
            crate_name: Some(&node.crate_name),
            impl_type: item.impl_type.as_deref(),
            use_map: &use_map,
        };
        let masked = file.scanned.masked_lines();
        let (mut out, mut wide) = (Vec::new(), Vec::new());
        for line_no in body_start..=body_end {
            let Some(line) = masked.get(line_no - 1) else { continue };
            // The first body line still carries the signature up to the
            // opening brace — `pub fn drive(w: &Worker) {` must not read
            // `drive(` as a self-call.
            let line: &str = if line_no == body_start {
                line.find('{').map_or("", |p| &line[p + 1..])
            } else {
                line
            };
            for call in calls_on_line(line) {
                resolver.resolve(&call, &from, &mut out, &mut wide);
            }
        }
        edges[caller] = sorted(out);
        loose[caller] = sorted(wide);
    }

    // Root code: whole root and bin files (resolved as outside callers),
    // and the lines of each library file outside every fn item.
    let (mut rooted, mut wide) = (Vec::new(), Vec::new());
    for file in files.iter().chain(roots) {
        let library = !file.is_bin;
        let use_map = use_imports(&file.parsed, pkg_idents);
        let from = Caller {
            crate_name: library.then_some(file.crate_name.as_str()),
            impl_type: None,
            use_map: &use_map,
        };
        let masked = file.scanned.masked_lines();
        let mut skip = crate::test_item_lines(&masked);
        for u in &file.parsed.uses {
            // A `use` item imports or re-exports; it calls nothing.
            let end = (u.line - 1..masked.len())
                .find(|&i| masked.get(i).is_some_and(|l| l.contains(';')))
                .unwrap_or(u.line - 1);
            for flag in skip.iter_mut().take(end + 1).skip(u.line - 1) {
                *flag = true;
            }
        }
        if library {
            for f in &file.parsed.fns {
                let end = f.body.map_or(f.line, |(_, b)| b);
                for flag in skip.iter_mut().take(end).skip(f.line - 1) {
                    *flag = true;
                }
            }
        }
        for (line, _) in masked.iter().zip(&skip).filter(|(_, s)| !**s) {
            for call in calls_on_line(line) {
                resolver.resolve(&call, &from, &mut rooted, &mut wide);
            }
        }
    }
    rooted.extend(wide);
    let rooted = sorted(rooted);

    CallGraph { nodes, edges, loose, rooted, by_fn }
}

fn sorted(mut ids: Vec<usize>) -> Vec<usize> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The module a file defines: its stem, or its directory for `mod.rs`;
/// `None` for crate roots (`lib.rs`, `main.rs`).
fn file_module(display: &str) -> Option<String> {
    let path = std::path::Path::new(display);
    let stem = path.file_stem()?.to_str()?;
    match stem {
        "lib" | "main" => None,
        "mod" => Some(path.parent()?.file_name()?.to_str()?.to_string()),
        _ => Some(stem.to_string()),
    }
}

/// Map every name a file imports from a workspace crate to that crate's
/// directory name. `use fedprox_net::{NetworkRuntime, runtime::NetError}`
/// maps `NetworkRuntime`, `runtime`, and `NetError` to `net`.
fn use_imports(parsed: &ParsedFile, pkg_idents: &BTreeMap<String, String>) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for decl in &parsed.uses {
        let Some(first) = decl.path.split("::").next() else { continue };
        let Some(crate_dir) = pkg_idents.get(first.trim()) else { continue };
        let tail = &decl.path[first.len()..];
        let mut ident = String::new();
        for c in tail.chars() {
            if is_ident_char(c) {
                ident.push(c);
            } else {
                if !ident.is_empty() && ident != "as" {
                    map.insert(std::mem::take(&mut ident), crate_dir.clone());
                }
                ident.clear();
            }
        }
        if !ident.is_empty() && ident != "as" {
            map.insert(ident, crate_dir.clone());
        }
    }
    map
}

/// Too-popular method names resolve everywhere; above this candidate
/// count an edge fan-out says more about the name than the call.
const METHOD_FANOUT_CAP: usize = 12;

/// Where a call is made from.
struct Caller<'a> {
    /// The calling library crate; `None` outside every library (bins,
    /// tests, examples, benchmarks), where only `pub` items are in reach
    /// and any crate may be the target.
    crate_name: Option<&'a str>,
    /// The caller's `impl` self type, for `Self::name(…)`.
    impl_type: Option<&'a str>,
    /// The caller's file's imports from workspace crates.
    use_map: &'a BTreeMap<String, String>,
}

/// Name indices over the graph's nodes.
struct Resolver<'a> {
    files: &'a [SourceFile],
    nodes: &'a [Node],
    free_idx: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    typed_idx: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    method_idx: BTreeMap<&'a str, Vec<usize>>,
    crates: Vec<&'a str>,
    file_modules: Vec<Option<String>>,
    pkg_idents: &'a BTreeMap<String, String>,
}

impl Resolver<'_> {
    fn item(&self, id: usize) -> &FnItem {
        let n = &self.nodes[id];
        &self.files[n.file].parsed.fns[n.fn_idx]
    }

    /// The innermost module of a free fn: its inline module, else its
    /// file module.
    fn module_of(&self, id: usize) -> Option<&str> {
        let item = self.item(id);
        item.module
            .last()
            .or(self.file_modules[self.nodes[id].file].as_ref())
            .map(String::as_str)
    }

    /// Push the nodes `call` may land in onto `out`; method calls
    /// through the deny list or past the fan-out cap go to `loose`.
    fn resolve(
        &self,
        call: &Call,
        from: &Caller<'_>,
        out: &mut Vec<usize>,
        loose: &mut Vec<usize>,
    ) {
        match call {
            Call::Method(name) => {
                let Some(candidates) = self.method_idx.get(name.as_str()) else { return };
                let noisy = METHOD_DENY.contains(&name.as_str())
                    || candidates.len() > METHOD_FANOUT_CAP;
                let sink = if noisy { loose } else { out };
                for &id in candidates {
                    let n = &self.nodes[id];
                    let same_crate = from.crate_name == Some(n.crate_name.as_str());
                    if same_crate || n.public || n.trait_callable {
                        sink.push(id);
                    }
                }
            }
            Call::Free(segments) => match from.crate_name {
                Some(caller_crate) => self.resolve_inside(segments, caller_crate, from, out),
                None => self.resolve_outside(segments, out),
            },
        }
    }

    /// A path call from library code: resolved through the caller's
    /// crate, its `use` imports and workspace package names.
    fn resolve_inside(
        &self,
        segments: &[String],
        caller_crate: &str,
        from: &Caller<'_>,
        out: &mut Vec<usize>,
    ) {
        let mut segs: Vec<&str> = segments.iter().map(String::as_str).collect();
        let mut target_crate = caller_crate;
        let mut cross = false;
        if segs.len() > 1 {
            if let Some(dir) = self.pkg_idents.get(segs[0]) {
                target_crate = dir;
                cross = dir != caller_crate;
                segs.remove(0);
            } else if segs[0] == "crate" || segs[0] == "self" || segs[0] == "super" {
                segs.remove(0);
            } else if let Some(dir) = from.use_map.get(segs[0]) {
                target_crate = dir;
                cross = dir != caller_crate;
            }
        }
        let Some(&name) = segs.last() else { return };
        let qualifier = if segs.len() >= 2 { Some(segs[segs.len() - 2]) } else { None };
        let typed = self.typed_idx.get(&(target_crate, name)).into_iter().flatten();
        let free = self.free_idx.get(&(target_crate, name)).into_iter().flatten();
        match qualifier {
            Some("Self") => {
                out.extend(
                    typed.filter(|&&id| self.item(id).impl_type.as_deref() == from.impl_type),
                );
            }
            Some(q) => {
                // `Type::name(…)` or `module::name(…)`.
                out.extend(typed.filter(|&&id| {
                    let n = &self.nodes[id];
                    self.item(id).impl_type.as_deref() == Some(q)
                        && (!cross || n.public || n.trait_callable)
                }));
                out.extend(free.filter(|&&id| {
                    self.module_of(id) == Some(q) && (!cross || self.nodes[id].public)
                }));
            }
            None => {
                let before = out.len();
                out.extend(free.filter(|&&id| !cross || self.nodes[id].public));
                if out.len() == before && !cross {
                    // A bare imported name: `use fedprox_net::transfer;
                    // … transfer(…)`.
                    if let Some(dir) = from.use_map.get(name) {
                        if let Some(ids) = self.free_idx.get(&(dir.as_str(), name)) {
                            out.extend(ids.iter().filter(|&&id| self.nodes[id].public));
                        }
                    }
                }
            }
        }
    }

    /// A path call from outside every library: any crate's `pub` fn
    /// with that name and qualifier (a type, a module, or the crate
    /// itself), narrowed to one crate when the path names its package.
    fn resolve_outside(&self, segments: &[String], out: &mut Vec<usize>) {
        let mut segs: Vec<&str> = segments.iter().map(String::as_str).collect();
        let mut crates = self.crates.clone();
        if segs.len() > 1 {
            if let Some(dir) = self.pkg_idents.get(segs[0]) {
                crates = vec![dir.as_str()];
                segs.remove(0);
            }
        }
        let Some(&name) = segs.last() else { return };
        let qualifier = if segs.len() >= 2 { Some(segs[segs.len() - 2]) } else { None };
        for krate in crates {
            if let (Some(q), Some(ids)) = (qualifier, self.typed_idx.get(&(krate, name))) {
                out.extend(ids.iter().filter(|&&id| {
                    let n = &self.nodes[id];
                    self.item(id).impl_type.as_deref() == Some(q) && (n.public || n.trait_callable)
                }));
            }
            if let Some(ids) = self.free_idx.get(&(krate, name)) {
                out.extend(ids.iter().filter(|&&id| {
                    self.nodes[id].public
                        && qualifier.is_none_or(|q| q == krate || self.module_of(id) == Some(q))
                }));
            }
        }
    }
}

impl CallGraph {
    /// Node id for a (file index, fn index) pair.
    pub fn node_for(&self, file: usize, fn_idx: usize) -> Option<usize> {
        self.by_fn.get(&(file, fn_idx)).copied()
    }

    /// Multi-source BFS from `entries` along call edges.
    pub fn reachability(&self, entries: &[usize]) -> Reachability {
        let mut dist: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if e < dist.len() && dist[e].is_none() {
                dist[e] = Some(0);
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u].unwrap_or(0);
            for &v in &self.edges[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        Reachability { dist, parent }
    }

    /// Which nodes `entries` reach along `edges` and `loose` edges both.
    pub fn liveness(&self, entries: &[usize]) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = entries.to_vec();
        while let Some(u) = stack.pop() {
            if live.get(u).copied().unwrap_or(true) {
                continue;
            }
            live[u] = true;
            stack.extend(self.edges[u].iter().chain(&self.loose[u]));
        }
        live
    }

    /// The shortest entry→node call chain as qualified names.
    pub fn chain_to(&self, reach: &Reachability, node: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            rev.push(self.nodes[id].qualified.clone());
            if rev.len() > self.nodes.len() {
                break; // cycle guard; parents from BFS cannot cycle, stay defensive
            }
            cur = reach.parent[id];
        }
        rev.reverse();
        rev
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse;

    fn file(crate_name: &str, display: &str, src: &str) -> SourceFile {
        let scanned = scan(src);
        let parsed = parse(src, &scanned);
        SourceFile {
            crate_name: crate_name.to_string(),
            display: display.to_string(),
            is_bin: false,
            source: src.to_string(),
            scanned,
            parsed,
        }
    }

    fn idents() -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("fedprox_alpha".to_string(), "alpha".to_string());
        m.insert("fedprox_beta".to_string(), "beta".to_string());
        m
    }

    #[test]
    fn extracts_free_method_and_qualified_calls() {
        let calls = calls_on_line("let x = helper(Device::new(1).update(w), other::go());");
        assert!(calls.contains(&Call::Free(vec!["helper".to_string()])));
        assert!(calls.contains(&Call::Free(vec!["Device".to_string(), "new".to_string()])));
        assert!(calls.contains(&Call::Method("update".to_string())));
        assert!(calls.contains(&Call::Free(vec!["other".to_string(), "go".to_string()])));
    }

    #[test]
    fn keywords_macros_and_turbofish() {
        let calls = calls_on_line("if check::<f64>(x) { return make!(y); } while go() {}");
        assert_eq!(
            calls,
            vec![Call::Free(vec!["check".to_string()]), Call::Free(vec!["go".to_string()])]
        );
    }

    #[test]
    fn within_crate_edges_and_reachability() {
        let files = vec![file(
            "alpha",
            "crates/alpha/src/lib.rs",
            "\
pub fn entry() {
    step_one();
}
fn step_one() {
    step_two();
}
fn step_two() {}
fn orphan() {}
",
        )];
        let g = build(&files, &[], &idents());
        assert_eq!(g.nodes.len(), 4);
        let entry = g.node_for(0, 0).expect("entry node");
        let two = g.node_for(0, 2).expect("step_two node");
        let orphan = g.node_for(0, 3).expect("orphan node");
        let reach = g.reachability(&[entry]);
        assert_eq!(reach.dist[two], Some(2));
        assert_eq!(reach.dist[orphan], None);
        let chain = g.chain_to(&reach, two);
        assert_eq!(chain, vec!["alpha::entry", "alpha::step_one", "alpha::step_two"]);
    }

    #[test]
    fn cross_crate_edges_respect_pub() {
        let files = vec![
            file(
                "alpha",
                "crates/alpha/src/lib.rs",
                "\
use fedprox_beta::exported;
pub fn caller() {
    exported();
    fedprox_beta::also_exported();
}
",
            ),
            file(
                "beta",
                "crates/beta/src/lib.rs",
                "\
pub fn exported() { hidden(); }
pub fn also_exported() {}
fn hidden() {}
",
            ),
        ];
        let g = build(&files, &[], &idents());
        let caller = g.node_for(0, 0).expect("caller");
        let exported = g.node_for(1, 0).expect("exported");
        let also = g.node_for(1, 1).expect("also_exported");
        assert!(g.edges[caller].contains(&exported));
        assert!(g.edges[caller].contains(&also));
    }

    #[test]
    fn method_calls_resolve_to_impls_not_denied_names() {
        let files = vec![file(
            "alpha",
            "crates/alpha/src/lib.rs",
            "\
pub struct Worker;
impl Worker {
    pub fn update(&mut self) {
        self.commit();
    }
    fn commit(&mut self) {}
}
pub fn drive(w: &mut Worker) {
    w.update();
    w.clone();
}
",
        )];
        let g = build(&files, &[], &idents());
        let drive = g.node_for(0, 2).expect("drive");
        let update = g.node_for(0, 0).expect("update");
        let commit = g.node_for(0, 1).expect("commit");
        assert!(g.edges[drive].contains(&update));
        assert!(g.edges[update].contains(&commit));
        // `.clone()` is denied: no edge beyond update.
        assert_eq!(g.edges[drive], vec![update]);
    }

    #[test]
    fn path_references_without_parens_are_edges() {
        let calls = calls_on_line("let n: usize = devs.iter().map(Device::samples).sum();");
        assert!(calls.contains(&Call::Free(vec!["Device".to_string(), "samples".to_string()])));
        // A path that continues, a macro path, a bare name and a
        // declaration are not references.
        assert!(calls_on_line("use a::b::{c, d};").is_empty());
        assert!(calls_on_line("fedprox_telemetry::span!(x);").is_empty());
        assert!(calls_on_line("let f = helper;").is_empty());
        assert!(calls_on_line("pub fn samples(&self) -> usize {").is_empty());

        let files = vec![
            file(
                "alpha",
                "crates/alpha/src/lib.rs",
                "\
pub struct Device;
impl Device {
    pub fn samples(&self) -> usize { 1 }
}
pub fn total(devs: &[Device]) -> usize {
    devs.iter().map(Device::samples).sum()
}
pub fn send() {
    codec::encode();
}
",
            ),
            file("alpha", "crates/alpha/src/codec.rs", "pub fn encode() {}\n"),
        ];
        let g = build(&files, &[], &idents());
        let samples = g.node_for(0, 0).expect("samples");
        let total = g.node_for(0, 1).expect("total");
        let send = g.node_for(0, 2).expect("send");
        let encode = g.node_for(1, 0).expect("encode");
        assert_eq!(g.edges[total], vec![samples]);
        // `codec::` names the file module `codec.rs`.
        assert_eq!(g.edges[send], vec![encode]);
    }

    #[test]
    fn root_files_and_module_scope_calls_are_rooted() {
        let lib = file(
            "alpha",
            "crates/alpha/src/lib.rs",
            "\
pub fn hook() {}
pub fn used() {}
pub struct W;
impl W {
    pub fn len(&self) -> usize { 0 }
}
pub fn dead() {}
macro_rules! fire {
    () => { $crate::hook() };
}
#[cfg(test)]
mod tests {
    fn t() { super::dead(); }
}
",
        );
        let mut root = file("", "tests/it.rs", "fn t(v: &W) { fedprox_alpha::used(); v.len(); }\n");
        root.is_bin = true;
        let g = build(&[lib], &[root], &idents());
        let [hook, used, len, dead] = [0, 1, 2, 3].map(|i| g.node_for(0, i).expect("node"));
        assert_eq!(g.rooted, vec![hook, used, len]);
        assert!(!g.rooted.contains(&dead));
    }

    #[test]
    fn cfg_test_fns_are_not_nodes() {
        let files = vec![file(
            "alpha",
            "crates/alpha/src/lib.rs",
            "\
pub fn real() {}
#[cfg(test)]
mod tests {
    fn helper() { real(); }
}
",
        )];
        let g = build(&files, &[], &idents());
        assert_eq!(g.nodes.len(), 1);
    }
}
