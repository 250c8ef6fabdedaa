//! The fedlint v2 analysis engine.
//!
//! Pipeline: lexer (masked text) → [`crate::parser`] (items) →
//! [`crate::callgraph`] (workspace call graph) → rules. The engine runs
//! four layers over one walk of `crates/*/src/**.rs`, with the
//! integration tests, examples and `fedbench/src` read as call-graph
//! roots:
//!
//! 1. the line-local R1–R6 rules via [`crate::check_source`] (same
//!    results as fedlint v1);
//! 2. the graph-aware D/P families — determinism taint and
//!    panic-reachability — which only fire on sites *reachable from a
//!    public API* of a strict-path crate, and report the shortest call
//!    chain that gets there;
//! 3. the F family over `Cargo.toml` manifests — feature-gate
//!    consistency between `cfg(feature = …)` uses, feature definitions,
//!    and cross-crate forwarding chains;
//! 4. `dead-pub` — plain-`pub` library fns that no binary, integration
//!    test, example, `fedbench/src` file, module-scope code or trait
//!    impl reaches.
//!
//! Results serialize to the `fedlint/v1` JSON schema and gate against a
//! committed baseline (`LINT_BASELINE.json`) of per-rule budgets, so
//! the violation count can only go down: lowering a budget is a
//! one-line diff, raising one is a reviewed decision.

use crate::callgraph::{self, CallGraph, Reachability, SourceFile};
use crate::lexer;
use crate::manifest::{self, Manifest};
use crate::parser;
use crate::{check_source, rules_for_crate, Rule, Violation};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose code feeds the bitwise-deterministic training path: the
/// D and P1 rules apply to reachable code here.
pub const STRICT_CRATES: &[&str] = &["tensor", "optim", "net", "core"];

/// Crates where an indexing panic crosses the device-actor boundary:
/// the P2 rule applies here.
pub const INDEX_CRATES: &[&str] = &["net", "core"];

/// Report schema identifier.
pub const SCHEMA: &str = "fedlint/v1";

/// One engine finding: a violation or an annotation-suppressed site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Shortest public-API call chain to the site's function (qualified
    /// names, entry first). Empty when not applicable.
    pub chain: Vec<String>,
    /// `Some(reason)` when a `fedlint: allow(…)` annotation suppresses
    /// the site.
    pub allowed: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}:{}: {}", self.rule.id(), self.file, self.line, self.message)?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Violation/allowed tallies for one rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Counts {
    /// Unsuppressed violations.
    pub violations: u64,
    /// Annotation-suppressed sites.
    pub allowed: u64,
}

/// Full result of analyzing a workspace.
#[derive(Debug)]
pub struct Analysis {
    /// All findings (violations and allowed sites), sorted by
    /// (file, line, rule id).
    pub findings: Vec<Finding>,
    /// Malformed `fedlint:` annotations — always gate failures.
    pub bad_annotations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The analyzed sources (graph node indices point into this).
    pub files: Vec<SourceFile>,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Public-API entry node ids used for reachability.
    pub entries: Vec<usize>,
    /// Reachability from those entries.
    pub reach: Reachability,
}

impl Analysis {
    /// Per-rule tallies, keyed by rule id, covering every rule (zero
    /// entries included so baselines are exhaustive).
    pub fn counts(&self) -> BTreeMap<&'static str, Counts> {
        let mut map: BTreeMap<&'static str, Counts> = BTreeMap::new();
        for rule in crate::ALL_RULES {
            map.insert(rule.id(), Counts::default());
        }
        for f in &self.findings {
            let entry = map.entry(f.rule.id()).or_default();
            if f.allowed.is_some() {
                entry.allowed += 1;
            } else {
                entry.violations += 1;
            }
        }
        map
    }

    /// Unsuppressed violations only.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    /// Serialize to the `fedlint/v1` JSON schema (a finding carries
    /// `reason` only when an annotation allows it).
    pub fn to_json(&self) -> String {
        fn object(fields: Vec<(&str, Value)>) -> Value {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }
        let counts = self.counts().into_iter().map(|(id, c)| (id, c.to_value())).collect();
        let findings = self.findings.iter().map(|f| {
            let mut o = vec![
                ("rule", f.rule.id().to_value()),
                ("file", f.file.to_value()),
                ("line", f.line.to_value()),
                ("allowed", f.allowed.is_some().to_value()),
                ("message", f.message.to_value()),
                ("chain", f.chain.to_value()),
            ];
            o.extend(f.allowed.as_ref().map(|r| ("reason", r.to_value())));
            object(o)
        });
        let bad = self.bad_annotations.iter().map(|v| {
            object(vec![
                ("file", v.file.to_value()),
                ("line", v.line.to_value()),
                ("message", v.message.to_value()),
            ])
        });
        let doc = object(vec![
            ("schema", SCHEMA.to_value()),
            ("files_scanned", self.files_scanned.to_value()),
            (
                "graph",
                object(vec![
                    ("nodes", self.graph.nodes.len().to_value()),
                    ("edges", self.graph.edge_count().to_value()),
                    ("entries", self.entries.len().to_value()),
                ]),
            ),
            ("counts", object(counts)),
            ("findings", Value::Array(findings.collect())),
            ("bad_annotations", Value::Array(bad.collect())),
        ]);
        serde_json::to_string_pretty(&doc).unwrap_or_default() + "\n"
    }
}

// ---------------------------------------------------------------------------
// Baseline + gate
// ---------------------------------------------------------------------------

/// A committed allow-budget: per-rule maxima for violations and
/// annotated allowances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Rule id → budget.
    pub budgets: BTreeMap<String, Counts>,
}

impl Baseline {
    /// Snapshot the current counts as a baseline.
    pub fn from_analysis(analysis: &Analysis) -> Baseline {
        Baseline {
            budgets: analysis
                .counts()
                .into_iter()
                .map(|(id, c)| (id.to_string(), c))
                .collect(),
        }
    }

    /// Parse a committed baseline document.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("baseline schema must be \"{SCHEMA}\", got {schema:?}"));
        }
        let budgets = v
            .get("budgets")
            .and_then(Value::as_object)
            .ok_or_else(|| "baseline missing \"budgets\" object".to_string())?;
        let mut out = Baseline::default();
        for (id, entry) in budgets {
            if Rule::from_id(id).is_none() {
                return Err(format!("baseline budget for unknown rule `{id}`"));
            }
            let violations = entry
                .get("violations")
                .and_then(|n| u64::from_value(n).ok())
                .ok_or_else(|| format!("budget `{id}` missing numeric \"violations\""))?;
            let allowed = entry
                .get("allowed")
                .and_then(|n| u64::from_value(n).ok())
                .ok_or_else(|| format!("budget `{id}` missing numeric \"allowed\""))?;
            out.budgets.insert(id.clone(), Counts { violations, allowed });
        }
        Ok(out)
    }

    /// Serialize for committing.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"budgets\": {\n");
        let mut first = true;
        for (id, c) in &self.budgets {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    \"{id}\": {{\"violations\": {}, \"allowed\": {}}}",
                c.violations, c.allowed
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Result of gating an analysis against a baseline.
#[derive(Debug, Clone, Default)]
pub struct GateResult {
    /// One line per breach; empty means the gate passes.
    pub breaches: Vec<String>,
}

impl GateResult {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.breaches.is_empty()
    }
}

/// Compare current counts against the committed budgets. A rule absent
/// from the baseline has budget zero, so *new* rule families gate
/// automatically; counts below budget pass (and invite a budget cut).
pub fn gate(analysis: &Analysis, baseline: &Baseline) -> GateResult {
    let mut result = GateResult::default();
    for v in &analysis.bad_annotations {
        result.breaches.push(format!("malformed annotation: {v}"));
    }
    let zero = Counts::default();
    for (id, current) in analysis.counts() {
        let budget = baseline.budgets.get(id).unwrap_or(&zero);
        if current.violations > budget.violations {
            result.breaches.push(format!(
                "{id}: {} violation(s) exceed budget {}",
                current.violations, budget.violations
            ));
        }
        if current.allowed > budget.allowed {
            result.breaches.push(format!(
                "{id}: {} annotated allowance(s) exceed budget {} — allowances are \
                 budgeted so the escape hatch cannot silently grow",
                current.allowed, budget.allowed
            ));
        }
    }
    result
}

// ---------------------------------------------------------------------------
// Workspace analysis
// ---------------------------------------------------------------------------

/// Analyze a workspace root (a directory with `crates/*/src`).
pub fn analyze(root: &Path) -> std::io::Result<Analysis> {
    let (files, manifests) = load_workspace(root)?;
    let roots = load_roots(root)?;
    let pkg_idents: BTreeMap<String, String> = manifests
        .iter()
        .filter_map(|(dir, m)| {
            m.package_name.as_ref().map(|p| (p.replace('-', "_"), dir.clone()))
        })
        .collect();
    let graph = callgraph::build(&files, &roots, &pkg_idents);

    // Public-API entries: pub or trait-callable fns in strict-crate lib
    // code. Trait impls count because a caller can reach them through
    // the trait without any `pub` on the fn itself.
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            STRICT_CRATES.contains(&n.crate_name.as_str()) && (n.public || n.trait_callable)
        })
        .map(|(id, _)| id)
        .collect();
    let reach = graph.reachability(&entries);

    let mut analysis = Analysis {
        findings: Vec::new(),
        bad_annotations: Vec::new(),
        files_scanned: files.len(),
        files,
        graph,
        entries,
        reach,
    };

    lexer_rules(&mut analysis);
    determinism_and_panic_rules(&mut analysis);
    feature_rules(&mut analysis, root, &manifests);
    clippy_sync_rule(&mut analysis);
    telemetry_gate_rule(&mut analysis);
    event_fixture_sync_rule(&mut analysis);
    dead_pub_rule(&mut analysis);

    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    Ok(analysis)
}

/// Sources plus per-crate-directory manifests, as loaded from `crates/*`.
type LoadedWorkspace = (Vec<SourceFile>, Vec<(String, Manifest)>);

/// Load every `crates/*/src/**.rs` plus the crate manifests.
fn load_workspace(root: &Path) -> std::io::Result<LoadedWorkspace> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest_path = crate_dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest_path) {
            manifests.push((name.clone(), manifest::parse(&text)));
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for path in crate::rust_files(&src)? {
            let source = std::fs::read_to_string(&path)?;
            let scanned = lexer::scan(&source);
            let parsed = parser::parse(&source, &scanned);
            let display = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            let is_bin = path.strip_prefix(&src).is_ok_and(|rel| rel.starts_with("bin"));
            files.push(SourceFile {
                crate_name: name.clone(),
                display,
                is_bin,
                source,
                scanned,
                parsed,
            });
        }
    }
    Ok((files, manifests))
}

/// Load the code outside every library that calls into it: the
/// integration tests (`tests/*.rs`, `crates/*/tests/*.rs`; files in
/// their subdirectories are fixtures, not tests), `examples/` and
/// `fedbench/src/`. Missing directories are skipped.
fn load_roots(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let mut test_dirs = vec![root.join("tests")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        test_dirs.extend(entries.filter_map(|e| e.ok()).map(|e| e.path().join("tests")));
    }
    for dir in test_dirs.into_iter().filter(|d| d.is_dir()) {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "rs") {
                paths.push(path);
            }
        }
    }
    for dir in [root.join("examples"), root.join("fedbench/src")] {
        if dir.is_dir() {
            paths.extend(crate::rust_files(&dir)?);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path)?;
            let scanned = lexer::scan(&source);
            let parsed = parser::parse(&source, &scanned);
            let display = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
            let crate_name = String::new();
            Ok(SourceFile { crate_name, display, is_bin: true, source, scanned, parsed })
        })
        .collect()
}

/// Layer 1: the line-local R1–R6 rules, scoped per crate by
/// [`rules_for_crate`]: binaries may print, and the net backend's
/// virtual clock may name wall time.
fn lexer_rules(analysis: &mut Analysis) {
    let mut findings = Vec::new();
    for file in &analysis.files {
        let mut rules = rules_for_crate(&file.crate_name);
        if file.is_bin {
            rules = rules.without(Rule::NoDebugPrint);
        }
        if file.crate_name == "net" && file.display.ends_with("clock.rs") {
            rules = rules.without(Rule::WallClock);
        }
        let report = check_source(&file.display, &file.source, rules);
        for v in report.violations {
            findings.push(Finding {
                rule: v.rule,
                file: v.file,
                line: v.line,
                message: v.message,
                chain: Vec::new(),
                allowed: None,
            });
        }
        for a in report.allowed {
            findings.push(Finding {
                rule: a.rule,
                file: a.file,
                line: a.line,
                message: String::new(),
                chain: Vec::new(),
                allowed: Some(a.reason),
            });
        }
        analysis.bad_annotations.extend(report.bad_annotations);
    }
    analysis.findings.extend(findings);
}

/// Parsed annotations of one file, as (line, rule, reason).
fn annotations_of(file: &SourceFile) -> Vec<(usize, Rule, String)> {
    let mut out = Vec::new();
    for comment in &file.scanned.comments {
        if let Some(Ok(ann)) = crate::parse_annotation(&comment.text) {
            out.push((comment.line, ann.rule, ann.reason));
        }
    }
    out
}

/// Whether an annotation for `rule` covers `line` (same line or the
/// line above). `no-panic` annotations also satisfy `panic-path`: one
/// written justification covers both the local and the reachability
/// view of the same site.
fn annotation_for(
    annotations: &[(usize, Rule, String)],
    rule: Rule,
    line: usize,
) -> Option<String> {
    annotations
        .iter()
        .find(|(l, r, _)| {
            (*l == line || *l + 1 == line)
                && (*r == rule || (rule == Rule::PanicPath && *r == Rule::NoPanic))
        })
        .map(|(_, _, reason)| reason.clone())
}

/// Layer 2: graph-aware determinism (D) and panic-reachability (P)
/// rules over strict-crate library sources.
fn determinism_and_panic_rules(analysis: &mut Analysis) {
    let mut findings = Vec::new();
    for (fi, file) in analysis.files.iter().enumerate() {
        let strict = STRICT_CRATES.contains(&file.crate_name.as_str());
        let index_strict = INDEX_CRATES.contains(&file.crate_name.as_str());
        if file.is_bin || (!strict && !index_strict) {
            continue;
        }
        let annotations = annotations_of(file);
        let masked = file.scanned.masked_lines();
        let in_test = crate::test_item_lines(&masked);

        // Reachability of the fn containing a line: Some(chain) when a
        // public entry reaches it, None when dead or test-only code.
        // Module-scope lines (use decls) count as trivially reachable.
        let containing = |line_no: usize| -> Option<Option<Vec<String>>> {
            match file.parsed.fn_containing(line_no) {
                None => Some(None), // module scope: no chain, still live
                Some(fn_idx) => {
                    if file.parsed.fns[fn_idx].cfg_test {
                        return None;
                    }
                    let node = analysis.graph.node_for(fi, fn_idx)?;
                    analysis.reach.dist[node]?;
                    Some(Some(analysis.graph.chain_to(&analysis.reach, node)))
                }
            }
        };

        let mut push = |rule: Rule, line: usize, message: String, chain: Vec<String>| {
            let allowed = annotation_for(&annotations, rule, line);
            findings.push(Finding {
                rule,
                file: file.display.clone(),
                line,
                message,
                chain,
                allowed,
            });
        };

        // Per-fn text for D3: does the body handle an unordered container?
        let body_has_unordered = |fn_idx: usize| -> bool {
            let Some((a, b)) = file.parsed.fns[fn_idx].body else { return false };
            (a..=b).any(|n| {
                masked.get(n - 1).is_some_and(|l| {
                    !crate::word_positions(l, "HashMap").is_empty()
                        || !crate::word_positions(l, "HashSet").is_empty()
                })
            })
        };

        for (idx, line) in masked.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let line_no = idx + 1;

            if strict {
                // D1: unordered containers anywhere live.
                for word in ["HashMap", "HashSet"] {
                    if !crate::word_positions(line, word).is_empty() {
                        if let Some(chain) = containing(line_no) {
                            push(
                                Rule::UnorderedIteration,
                                line_no,
                                format!(
                                    "`{word}` iteration order is nondeterministic; use \
                                     BTreeMap/BTreeSet or sorted keys in strict paths"
                                ),
                                chain.unwrap_or_default(),
                            );
                        }
                    }
                }

                // D2: spawned work joined in completion order.
                for pos in crate::word_positions(line, "spawn") {
                    let after = line[pos + "spawn".len()..].trim_start();
                    if after.starts_with('(') {
                        if let Some(Some(chain)) = containing(line_no) {
                            push(
                                Rule::SpawnOrdering,
                                line_no,
                                "`spawn` results must be collected in a stable order \
                                 (keyed by device id), never completion order"
                                    .to_string(),
                                chain,
                            );
                        }
                    }
                }

                // D3: float reductions inside a fn handling unordered containers.
                if line.contains(".sum(") || line.contains(".fold(") || line.contains(".product(")
                {
                    if let Some(fn_idx) = file.parsed.fn_containing(line_no) {
                        if !file.parsed.fns[fn_idx].cfg_test && body_has_unordered(fn_idx) {
                            if let Some(Some(chain)) = containing(line_no) {
                                push(
                                    Rule::UnorderedFloatReduction,
                                    line_no,
                                    "float reduction in a function handling HashMap/HashSet: \
                                     addition is non-associative, so the result depends on \
                                     iteration order"
                                        .to_string(),
                                    chain,
                                );
                            }
                        }
                    }
                }

                // P1: reachable panic sites, with the shortest chain.
                let mut panic_descs: Vec<String> = Vec::new();
                for word in ["unwrap", "expect"] {
                    for pos in crate::word_positions(line, word) {
                        if crate::is_method_call(line, pos, word) {
                            panic_descs.push(format!("`.{word}()`"));
                        }
                    }
                }
                for mac in ["panic", "todo", "unimplemented"] {
                    for pos in crate::word_positions(line, mac) {
                        if crate::is_macro_call(line, pos, mac) {
                            panic_descs.push(format!("`{mac}!`"));
                        }
                    }
                }
                for desc in panic_descs {
                    if let Some(Some(chain)) = containing(line_no) {
                        push(
                            Rule::PanicPath,
                            line_no,
                            format!("{desc} is reachable from a public API"),
                            chain,
                        );
                    }
                }
            }

            if index_strict && !line.trim_start().starts_with('#') {
                let count = index_sites(line);
                for _ in 0..count {
                    if let Some(Some(chain)) = containing(line_no) {
                        push(
                            Rule::IndexPanic,
                            line_no,
                            "indexing can panic across the device boundary; prefer `get` \
                             with typed error propagation"
                                .to_string(),
                            chain,
                        );
                    }
                }
            }
        }
    }
    analysis.findings.extend(findings);
}

/// Count indexing expressions on a masked line: `[` directly preceded
/// by an identifier character, `)`, or `]` — i.e. `expr[...]`, not
/// slice types (`&[f64]`), array literals (`[0.0; n]`), or attributes.
fn index_sites(line: &str) -> usize {
    let chars: Vec<char> = line.chars().collect();
    let mut count = 0usize;
    for i in 1..chars.len() {
        if chars[i] == '['
            && (is_ident_char_local(chars[i - 1]) || chars[i - 1] == ')' || chars[i - 1] == ']')
        {
            count += 1;
        }
    }
    count
}

fn is_ident_char_local(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Layer 3, F1 + F2: cfg(feature) names must exist in the owning
/// manifest; manifest feature values must resolve (locally or through a
/// dependency's features).
fn feature_rules(analysis: &mut Analysis, root: &Path, manifests: &[(String, Manifest)]) {
    let by_dir: BTreeMap<&str, &Manifest> =
        manifests.iter().map(|(d, m)| (d.as_str(), m)).collect();
    let by_pkg: BTreeMap<&str, &Manifest> = manifests
        .iter()
        .filter_map(|(_, m)| m.package_name.as_deref().map(|p| (p, m)))
        .collect();

    let mut findings = Vec::new();

    // F1: cfg(feature = "…") in sources.
    for file in &analysis.files {
        let Some(m) = by_dir.get(file.crate_name.as_str()) else { continue };
        let annotations = annotations_of(file);
        for feat in &file.parsed.cfg_features {
            if !m.has_feature(&feat.name) {
                let allowed = annotation_for(&annotations, Rule::UnknownFeature, feat.line);
                findings.push(Finding {
                    rule: Rule::UnknownFeature,
                    file: file.display.clone(),
                    line: feat.line,
                    message: format!(
                        "cfg feature `{}` is not declared in the crate's Cargo.toml — \
                         the gated code can never compile in",
                        feat.name
                    ),
                    chain: Vec::new(),
                    allowed,
                });
            }
        }
    }

    // F2: feature forwarding chains in every manifest (crates + the
    // facade/workspace root).
    let mut all: Vec<(String, &Manifest)> = manifests
        .iter()
        .map(|(dir, m)| (format!("crates/{dir}/Cargo.toml"), m))
        .collect();
    let root_manifest_text = std::fs::read_to_string(root.join("Cargo.toml")).ok();
    let root_manifest = root_manifest_text.as_deref().map(manifest::parse);
    if let Some(m) = &root_manifest {
        all.push(("Cargo.toml".to_string(), m));
    }
    for (display, m) in &all {
        for feature in &m.features {
            for value in &feature.values {
                let mut push_f2 = |message: String| {
                    findings.push(Finding {
                        rule: Rule::FeatureChain,
                        file: display.clone(),
                        line: feature.line,
                        message,
                        chain: Vec::new(),
                        allowed: None,
                    });
                };
                if let Some((dep_raw, feat)) = value.split_once('/') {
                    let dep = dep_raw.trim_end_matches('?');
                    if m.dependency(dep).is_none() {
                        push_f2(format!(
                            "feature `{}` forwards to `{value}`, but `{dep}` is not a \
                             dependency of this crate",
                            feature.name
                        ));
                        continue;
                    }
                    if let Some(dep_m) = by_pkg.get(dep) {
                        if !dep_m.has_feature(feat) {
                            push_f2(format!(
                                "feature `{}` forwards to `{value}`, but `{dep}` defines \
                                 no feature `{feat}` — the chain is broken",
                                feature.name
                            ));
                        }
                    }
                } else if let Some(dep) = value.strip_prefix("dep:") {
                    if m.dependency(dep).is_none() {
                        push_f2(format!(
                            "feature `{}` enables `dep:{dep}`, which is not a dependency",
                            feature.name
                        ));
                    }
                } else if !m.has_feature(value) && m.dependency(value).is_none() {
                    push_f2(format!(
                        "feature `{}` references `{value}`, which is neither a feature \
                         nor a dependency of this crate",
                        feature.name
                    ));
                }
            }
        }
    }

    analysis.findings.extend(findings);
}

/// Layer 3, F3: every `#[allow(clippy::unwrap_used / expect_used)]` in
/// library code must sit next to a `fedlint: allow(no-panic)`
/// annotation, so both escape hatches stay justified together.
fn clippy_sync_rule(analysis: &mut Analysis) {
    let mut findings = Vec::new();
    for file in &analysis.files {
        if file.is_bin {
            continue;
        }
        let annotations = annotations_of(file);
        let masked = file.scanned.masked_lines();
        let in_test = crate::test_item_lines(&masked);
        for (idx, line) in masked.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let line_no = idx + 1;
            let is_clippy_allow = line.contains("allow")
                && (line.contains("clippy::unwrap_used") || line.contains("clippy::expect_used"));
            if !is_clippy_allow {
                continue;
            }
            // cfg_test fns carry their own rules; skip them here too.
            if file
                .parsed
                .fn_containing(line_no)
                .is_some_and(|i| file.parsed.fns[i].cfg_test)
            {
                continue;
            }
            let synced = annotations.iter().any(|(l, r, _)| {
                (*r == Rule::NoPanic || *r == Rule::PanicPath)
                    && l.abs_diff(line_no) <= 2
            });
            let allowed = annotation_for(&annotations, Rule::ClippyAllowSync, line_no);
            if synced {
                continue;
            }
            findings.push(Finding {
                rule: Rule::ClippyAllowSync,
                file: file.display.clone(),
                line: line_no,
                message: "clippy unwrap/expect allowance without an adjacent \
                          `fedlint: allow(no-panic)` justification"
                    .to_string(),
                chain: Vec::new(),
                allowed,
            });
        }
    }
    analysis.findings.extend(findings);
}

/// Layer 3, F4: runtime collector calls (`collector::…`) in
/// non-telemetry library code must sit behind a `feature = "telemetry"`
/// cfg gate. The two-stage gating contract says profiling hooks vanish
/// from default builds at *compile* time; an ungated call would drag
/// the instrumentation into every build and leave it reachable behind
/// only the runtime `arm()` flag. A gate counts when a positive
/// telemetry cfg line (attribute or `cfg!`, but never a
/// `not(feature = …)` arm — that gates the *absence* of the
/// instrumentation) appears on the fn's own attributes or between just
/// above the enclosing fn and the call line.
fn telemetry_gate_rule(analysis: &mut Analysis) {
    let mut findings = Vec::new();
    for file in &analysis.files {
        if file.is_bin || file.crate_name == "telemetry" {
            continue;
        }
        let annotations = annotations_of(file);
        let masked = file.scanned.masked_lines();
        let in_test = crate::test_item_lines(&masked);
        let source_lines: Vec<&str> = file.source.lines().collect();
        // Lines that positively select the telemetry feature.
        let positive_gate = |line: usize| -> bool {
            source_lines
                .get(line - 1)
                .is_some_and(|l| !l.contains("not(feature"))
        };
        let gate_lines: Vec<usize> = file
            .parsed
            .cfg_features
            .iter()
            .filter(|f| f.name == "telemetry" && positive_gate(f.line))
            .map(|f| f.line)
            .collect();
        for (idx, line) in masked.iter().enumerate() {
            if in_test[idx] || !line.contains("collector::") {
                continue;
            }
            let line_no = idx + 1;
            // Window start: just above the enclosing fn (covering its
            // attribute stack), or just above the line itself at module
            // scope (use decls).
            let window_start = match file.parsed.fn_containing(line_no) {
                Some(fn_idx) => {
                    let f = &file.parsed.fns[fn_idx];
                    if f.cfg_test {
                        continue;
                    }
                    if f.cfgs.iter().any(|c| {
                        c.contains("feature = \"telemetry\"") && !c.contains("not(feature")
                    }) {
                        continue;
                    }
                    f.line.saturating_sub(3)
                }
                None => line_no.saturating_sub(3),
            };
            if gate_lines.iter().any(|g| *g >= window_start && *g <= line_no) {
                continue;
            }
            let allowed = annotation_for(&annotations, Rule::TelemetryGate, line_no);
            findings.push(Finding {
                rule: Rule::TelemetryGate,
                file: file.display.clone(),
                line: line_no,
                message: "runtime collector call outside a `feature = \"telemetry\"` cfg \
                          gate — instrumentation must compile out of default builds"
                    .to_string(),
                chain: Vec::new(),
                allowed,
            });
        }
    }
    analysis.findings.extend(findings);
}

/// Variant names of `pub enum Event` in masked source text, with the
/// 1-indexed line each is declared on. Masked text means doc comments
/// and string literals cannot fake a variant.
fn event_variants(masked: &[&str]) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut depth: i64 = 0;
    let mut in_enum = false;
    for (idx, line) in masked.iter().enumerate() {
        if !in_enum {
            if line.contains("pub enum Event") {
                in_enum = true;
                for c in line.chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
            }
            continue;
        }
        let at_start = depth;
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if at_start == 1 {
            let t = line.trim_start();
            if t.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let name: String =
                    t.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                if !name.is_empty() {
                    variants.push((name, idx + 1));
                }
            }
        }
        if depth <= 0 {
            break;
        }
    }
    variants
}

/// Layer 3, F5: every `Event` variant must be constructed inside
/// `fn sample_events` in the telemetry crate's `jsonl.rs` — that list
/// drives the codec round-trip suite, so a variant absent from it has
/// an untested `write_line`/`event_from_json` pair. The check parses
/// the enum and the fixture body from the already-loaded sources; if
/// either file or the fixture fn is missing, that is itself a finding
/// (the contract cannot be silently dropped).
fn event_fixture_sync_rule(analysis: &mut Analysis) {
    let Some(event_file) = analysis
        .files
        .iter()
        .find(|f| f.crate_name == "telemetry" && f.display.ends_with("event.rs"))
    else {
        return; // no telemetry crate in this tree (fixture workspaces)
    };
    let masked = event_file.scanned.masked_lines();
    let variants = event_variants(&masked);
    if variants.is_empty() {
        return;
    }
    let annotations = annotations_of(event_file);
    let jsonl = analysis
        .files
        .iter()
        .find(|f| f.crate_name == "telemetry" && f.display.ends_with("jsonl.rs"));
    let fixture_body: Option<String> = jsonl.and_then(|file| {
        let f = file.parsed.fns.iter().find(|f| f.name == "sample_events")?;
        let (a, b) = f.body?;
        let lines: Vec<&str> = file.source.lines().collect();
        Some(lines.get(a - 1..b).unwrap_or(&[]).join("\n"))
    });

    let mut findings = Vec::new();
    let event_display = event_file.display.clone();
    match fixture_body {
        None => findings.push(Finding {
            rule: Rule::EventFixtureSync,
            file: event_display,
            line: variants[0].1,
            message: "no `fn sample_events` fixture list found in the telemetry crate's \
                      jsonl.rs — the Event codec round-trip suite has nothing to exercise"
                .to_string(),
            chain: Vec::new(),
            allowed: None,
        }),
        Some(body) => {
            for (name, line) in variants {
                let needle = format!("Event::{name}");
                let covered = body.match_indices(&needle).any(|(pos, _)| {
                    body[pos + needle.len()..]
                        .chars()
                        .next()
                        .is_none_or(|c| !(c.is_alphanumeric() || c == '_'))
                });
                if !covered {
                    let allowed = annotation_for(&annotations, Rule::EventFixtureSync, line);
                    findings.push(Finding {
                        rule: Rule::EventFixtureSync,
                        file: event_display.clone(),
                        line,
                        message: format!(
                            "Event::{name} has no fixture in jsonl.rs `sample_events` — its \
                             JSONL codec round-trip is untested"
                        ),
                        chain: Vec::new(),
                        allowed,
                    });
                }
            }
        }
    }
    analysis.findings.extend(findings);
}

/// Layer 4, `dead-pub`: every plain-`pub` library fn that neither the
/// root code ([`CallGraph::rooted`]) nor a trait-callable fn reaches,
/// following loose method edges too. Test-only callers are not nodes,
/// so a fn only its own `#[cfg(test)]` module calls is flagged.
fn dead_pub_rule(analysis: &mut Analysis) {
    let graph = &analysis.graph;
    let mut entries = graph.rooted.clone();
    entries.extend((0..graph.nodes.len()).filter(|&id| graph.nodes[id].trait_callable));
    let live = graph.liveness(&entries);
    let mut annotations: BTreeMap<usize, Vec<(usize, Rule, String)>> = BTreeMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if live[id] || !node.public || node.trait_callable {
            continue;
        }
        let file = &analysis.files[node.file];
        let line = file.parsed.fns[node.fn_idx].line;
        let notes = annotations.entry(node.file).or_insert_with(|| annotations_of(file));
        analysis.findings.push(Finding {
            rule: Rule::DeadPub,
            file: file.display.clone(),
            line,
            message: format!(
                "`pub fn {}` is reached by no binary, integration test, example, \
                 fedbench file, macro body or trait impl; delete it",
                node.qualified
            ),
            chain: Vec::new(),
            allowed: annotation_for(notes, Rule::DeadPub, line),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_variant_parsing_sees_only_depth_one_names() {
        let src = "\
/// docs\n\
pub enum Event {\n\
    /// A span.\n\
    Span {\n\
        name: String,\n\
    },\n\
    RoundEnd { round: u32 },\n\
    Simple,\n\
}\n\
pub enum Other { NotCounted }\n";
        let scanned = lexer::scan(src);
        let masked = scanned.masked_lines();
        let vars = event_variants(&masked);
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Span", "RoundEnd", "Simple"]);
        assert_eq!(vars[1].1, 7, "RoundEnd declared on line 7");
    }

    #[test]
    fn baseline_roundtrip_and_gate() {
        let mut baseline = Baseline::default();
        baseline.budgets.insert("no-panic".to_string(), Counts { violations: 0, allowed: 4 });
        baseline
            .budgets
            .insert("panic-path".to_string(), Counts { violations: 2, allowed: 1 });
        let text = baseline.emit();
        let parsed = Baseline::parse(&text).expect("parse emitted baseline");
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn baseline_rejects_unknown_rule_and_bad_schema() {
        assert!(Baseline::parse(r#"{"schema":"fedlint/v1","budgets":{"bogus":{"violations":0,"allowed":0}}}"#).is_err());
        assert!(Baseline::parse(r#"{"schema":"fedperf/v1","budgets":{}}"#).is_err());
    }

    #[test]
    fn index_site_detection() {
        assert_eq!(index_sites("let x = slots[i];"), 1);
        assert_eq!(index_sites("m[i][j] = v;"), 2);
        assert_eq!(index_sites("fn f(xs: &[f64]) -> Vec<[u8; 4]> {"), 0);
        assert_eq!(index_sites("let a = [0.0; 8];"), 0);
        assert_eq!(index_sites("take(v)[0]"), 1);
    }
}
