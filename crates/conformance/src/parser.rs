//! Item-level parsing of masked Rust source.
//!
//! The parser sits on top of [`crate::lexer`]: it tokenizes the *masked*
//! view of a file (so string/comment contents can never desynchronise
//! brace matching) and extracts the item structure the analysis layer
//! needs — functions with their spans, visibility, module path, impl
//! context and cfg attributes, `use` declarations for cross-crate call
//! resolution, and every `feature = "…"` name mentioned in a cfg
//! position (those come from the *original* text, because the lexer
//! blanks string interiors).
//!
//! This is deliberately not a full Rust grammar: bodies are treated as
//! opaque token ranges (the call-graph layer scans them separately),
//! nested items inside bodies are not recorded, and generics are only
//! tracked far enough to find the self type of an `impl` block. Those
//! approximations are safe for lint purposes — they can only make the
//! analysis miss edges, never miscount braces.

use crate::lexer::ScannedFile;

/// Item visibility as written in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` qualifier.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — visible inside the
    /// crate but not part of its public API.
    Crate,
    /// Plain `pub`.
    Public,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing inline-module path within the file (`mod a { mod b {` →
    /// `["a", "b"]`).
    pub module: Vec<String>,
    /// Self type when the fn lives in an `impl` block (`impl Foo` /
    /// `impl Trait for Foo` → `Foo`), or the trait name inside a
    /// `trait` declaration.
    pub impl_type: Option<String>,
    /// Whether the fn belongs to a trait impl (`impl Trait for Type`)
    /// or a trait declaration — i.e. is callable through a trait.
    pub trait_impl: bool,
    /// Visibility qualifier.
    pub vis: Visibility,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Inclusive 1-indexed line span of the body block, `None` for
    /// bodyless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Whether the fn (or an enclosing item) is `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Raw text of the fn's own `#[cfg(...)]` attributes.
    pub cfgs: Vec<String>,
}

impl FnItem {
    /// Qualified display name: `module::Type::name`.
    pub fn qualified(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(t) = &self.impl_type {
            parts.push(t);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// One `use` declaration, kept as raw path text (`a::b::{c, d}`).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// 1-indexed line of the `use` keyword.
    pub line: usize,
    /// The declaration's path text with whitespace collapsed.
    pub path: String,
}

/// A `feature = "name"` occurrence in a cfg position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgFeature {
    /// 1-indexed line.
    pub line: usize,
    /// The feature name as written (unmasked).
    pub name: String,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every `use` declaration.
    pub uses: Vec<UseDecl>,
    /// Every cfg-position `feature = "…"` name.
    pub cfg_features: Vec<CfgFeature>,
}

impl ParsedFile {
    /// The fn whose body contains `line`, if any. Bodies never nest
    /// (items inside bodies are not recorded), so the match is unique.
    pub fn fn_containing(&self, line: usize) -> Option<usize> {
        self.fns.iter().position(|f| {
            f.body.is_some_and(|(a, b)| line >= a && line <= b) || f.line == line
        })
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
    Open(char),
    Close(char),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize masked source. Lifetimes, numbers and masked literal
/// interiors are consumed silently; only identifiers, punctuation and
/// bracket tokens survive.
fn tokenize(masked: &str) -> Vec<Token> {
    let chars: Vec<char> = masked.chars().collect();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() || c == '"' {
            // Masked literal interiors are spaces; the delimiting quotes
            // carry no structure either.
            i += 1;
            continue;
        }
        if c == '\'' {
            // Lifetime / loop label (char-literal interiors are masked).
            i += 1;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            out.push(Token { tok: Tok::Ident(chars[start..i].iter().collect()), line });
            continue;
        }
        if c.is_ascii_digit() {
            // Number literal: consume digits/underscores/suffix chars and
            // a decimal point only when a digit follows (so `0..n` and
            // `1.max(x)` terminate correctly).
            i += 1;
            while i < chars.len() {
                let d = chars[i];
                if d.is_ascii_alphanumeric()
                    || d == '_'
                    || (d == '.'
                        && chars.get(i + 1).copied().is_some_and(|n| n.is_ascii_digit()))
                {
                    i += 1;
                } else {
                    break;
                }
            }
            continue;
        }
        let tok = match c {
            '{' | '(' | '[' => Tok::Open(c),
            '}' | ')' | ']' => Tok::Close(c),
            other => Tok::Punct(other),
        };
        out.push(Token { tok, line });
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Item parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ScopeKind {
    Module(String),
    Impl { ty: Option<String>, trait_impl: bool },
    Trait(String),
    Other,
}

#[derive(Debug, Clone)]
struct Scope {
    kind: ScopeKind,
    cfg_test: bool,
}

fn ident_of(tok: &Tok) -> Option<&str> {
    match tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

/// Join the tokens of a bracketed group into display text (used for
/// attribute bodies). `i` points at the opening bracket; returns the
/// joined interior text and the index just past the matching close.
fn capture_group(toks: &[Token], i: usize) -> (String, usize) {
    let mut depth = 0i64;
    let mut text = String::new();
    let mut j = i;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Open(_) => {
                if depth > 0 {
                    text.push(open_char(&toks[j].tok));
                }
                depth += 1;
            }
            Tok::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return (text, j + 1);
                }
                text.push(close_char(&toks[j].tok));
            }
            Tok::Ident(s) => {
                if !text.is_empty() && text.ends_with(|c: char| is_ident_char(c)) {
                    text.push(' ');
                }
                text.push_str(s);
            }
            Tok::Punct(p) => text.push(*p),
        }
        j += 1;
    }
    (text, j)
}

fn open_char(t: &Tok) -> char {
    match t {
        Tok::Open(c) => *c,
        _ => ' ',
    }
}

fn close_char(t: &Tok) -> char {
    match t {
        Tok::Close(c) => *c,
        _ => ' ',
    }
}

/// Skip past a balanced bracket group starting at `i` (which must be an
/// `Open`). Returns the index just past the matching close.
fn skip_group(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Does an attribute body name `test` in a cfg position (`cfg(test)`,
/// `cfg(all(test, …))`, `cfg_attr(test, …)`)?
fn attr_is_cfg_test(attr: &str) -> bool {
    if !attr.starts_with("cfg") {
        return false;
    }
    let mut rest = attr;
    while let Some(pos) = rest.find("test") {
        let before_ok =
            rest[..pos].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let after_ok =
            rest[pos + 4..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + 4..];
    }
    false
}

/// Parse one file. `source` is the original text (for cfg feature
/// names), `scanned` its masked view.
pub fn parse(source: &str, scanned: &ScannedFile) -> ParsedFile {
    let toks = tokenize(&scanned.masked);
    let mut out = ParsedFile {
        cfg_features: extract_cfg_features(source, scanned),
        ..ParsedFile::default()
    };

    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut pending_vis = Visibility::Private;
    let mut i = 0usize;

    macro_rules! clear_pending {
        () => {{
            pending_attrs.clear();
            pending_vis = Visibility::Private;
        }};
    }

    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            // Attribute: `#[...]` or `#![...]`.
            Tok::Punct('#') => {
                let mut j = i + 1;
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    j += 1;
                }
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Open('['))) {
                    let (text, ni) = capture_group(&toks, j);
                    pending_attrs.push(text);
                    i = ni;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(w) if w == "pub" => {
                i += 1;
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Open('('))) {
                    pending_vis = Visibility::Crate;
                    i = skip_group(&toks, i);
                } else {
                    pending_vis = Visibility::Public;
                }
            }
            Tok::Ident(w) if w == "mod" => {
                let name = toks
                    .get(i + 1)
                    .and_then(|t| ident_of(&t.tok))
                    .unwrap_or("")
                    .to_string();
                i += 2;
                // `mod name;` declares a file module — nothing to scope.
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Open('{'))) {
                    let cfg_test = enclosing_cfg_test(&scopes)
                        || pending_attrs.iter().any(|a| attr_is_cfg_test(a));
                    scopes.push(Scope { kind: ScopeKind::Module(name), cfg_test });
                    i += 1;
                }
                clear_pending!();
            }
            Tok::Ident(w) if w == "impl" => {
                let (scope, ni) = parse_impl_header(&toks, i + 1);
                let cfg_test = enclosing_cfg_test(&scopes)
                    || pending_attrs.iter().any(|a| attr_is_cfg_test(a));
                scopes.push(Scope { kind: scope, cfg_test });
                i = ni;
                clear_pending!();
            }
            Tok::Ident(w) if w == "trait" => {
                let name = toks
                    .get(i + 1)
                    .and_then(|t| ident_of(&t.tok))
                    .unwrap_or("")
                    .to_string();
                // Scan to the trait's `{` (or `;` for alias-like forms).
                let mut j = i + 1;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Open('{') => break,
                        Tok::Punct(';') => break,
                        Tok::Open(_) => {
                            j = skip_group(&toks, j);
                            continue;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Open('{'))) {
                    let cfg_test = enclosing_cfg_test(&scopes)
                        || pending_attrs.iter().any(|a| attr_is_cfg_test(a));
                    scopes.push(Scope { kind: ScopeKind::Trait(name), cfg_test });
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                clear_pending!();
            }
            Tok::Ident(w) if w == "fn" => {
                let name = toks
                    .get(i + 1)
                    .and_then(|t| ident_of(&t.tok))
                    .unwrap_or("")
                    .to_string();
                // Signature runs to the body `{` or a terminating `;`,
                // skipping bracket groups (argument list, where-bounds).
                let mut j = i + 1;
                let mut body = None;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Open('{') => {
                            let start_line = toks[j].line;
                            let end = skip_group(&toks, j);
                            let end_line =
                                toks.get(end.saturating_sub(1)).map_or(start_line, |t| t.line);
                            body = Some((start_line, end_line));
                            j = end;
                            break;
                        }
                        Tok::Punct(';') => {
                            j += 1;
                            break;
                        }
                        Tok::Open(_) => {
                            j = skip_group(&toks, j);
                            continue;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let cfg_test = enclosing_cfg_test(&scopes)
                    || pending_attrs.iter().any(|a| attr_is_cfg_test(a));
                let (impl_type, trait_impl) = impl_context(&scopes);
                out.fns.push(FnItem {
                    name,
                    module: module_path(&scopes),
                    impl_type,
                    trait_impl,
                    vis: pending_vis,
                    line,
                    body,
                    cfg_test,
                    cfgs: pending_attrs
                        .iter()
                        .filter(|a| a.starts_with("cfg"))
                        .cloned()
                        .collect(),
                });
                i = j;
                clear_pending!();
            }
            Tok::Ident(w) if w == "use" => {
                let mut j = i + 1;
                let mut path = String::new();
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct(';') => break,
                        Tok::Ident(s) => {
                            if path.ends_with(|c: char| is_ident_char(c)) {
                                path.push(' ');
                            }
                            path.push_str(s);
                        }
                        Tok::Punct(p) => path.push(*p),
                        Tok::Open(c) => path.push(*c),
                        Tok::Close(c) => path.push(*c),
                    }
                    j += 1;
                }
                out.uses.push(UseDecl { line, path });
                i = j + 1;
                clear_pending!();
            }
            Tok::Ident(w) if w == "macro_rules" => {
                // `macro_rules! name { arbitrary token soup }` — the body
                // may contain `fn` fragments; skip it wholesale.
                let mut j = i + 1;
                while j < toks.len() && !matches!(toks[j].tok, Tok::Open(_)) {
                    j += 1;
                }
                i = if j < toks.len() { skip_group(&toks, j) } else { j };
                clear_pending!();
            }
            // `const fn` keeps its pending qualifiers; a const *item*
            // consumes them (its initializer may contain brace groups,
            // which fall through to the generic handling below).
            Tok::Ident(w) if w == "const" || w == "static" || w == "unsafe" || w == "async"
                || w == "extern" || w == "default" =>
            {
                i += 1;
            }
            Tok::Ident(w)
                if w == "struct" || w == "enum" || w == "union" || w == "type" =>
            {
                i += 1;
                clear_pending!();
            }
            Tok::Open('{') => {
                scopes.push(Scope {
                    kind: ScopeKind::Other,
                    cfg_test: enclosing_cfg_test(&scopes),
                });
                i += 1;
                clear_pending!();
            }
            Tok::Close('}') => {
                scopes.pop();
                i += 1;
                clear_pending!();
            }
            // A field's or item's end: its `pub` must not leak onto the
            // next `fn`.
            Tok::Punct(';' | ',') => {
                i += 1;
                clear_pending!();
            }
            Tok::Open(_) => {
                i = skip_group(&toks, i);
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

fn enclosing_cfg_test(scopes: &[Scope]) -> bool {
    scopes.iter().any(|s| s.cfg_test)
}

fn module_path(scopes: &[Scope]) -> Vec<String> {
    scopes
        .iter()
        .filter_map(|s| match &s.kind {
            ScopeKind::Module(m) => Some(m.clone()),
            _ => None,
        })
        .collect()
}

fn impl_context(scopes: &[Scope]) -> (Option<String>, bool) {
    for s in scopes.iter().rev() {
        match &s.kind {
            ScopeKind::Impl { ty, trait_impl } => return (ty.clone(), *trait_impl),
            ScopeKind::Trait(name) => return (Some(name.clone()), true),
            _ => {}
        }
    }
    (None, false)
}

/// Parse an `impl` header starting just past the `impl` keyword:
/// `impl<G> Type<G> {`, `impl Trait for Type {`. Returns the scope and
/// the index just past the opening `{`.
fn parse_impl_header(toks: &[Token], start: usize) -> (ScopeKind, usize) {
    let mut j = start;
    let mut angle = 0i64;
    let mut prev_dash = false;
    let mut idents_top: Vec<String> = Vec::new();
    let mut after_for: Option<usize> = None;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Open('{') => {
                let pool: Vec<String> = match after_for {
                    Some(k) => idents_top[k..].to_vec(),
                    None => idents_top.clone(),
                };
                let ty = pool.into_iter().next_back();
                return (
                    ScopeKind::Impl { ty, trait_impl: after_for.is_some() },
                    j + 1,
                );
            }
            Tok::Punct(';') => {
                // Degenerate (`impl Trait for Type;` never parses in real
                // Rust, but stay robust).
                return (ScopeKind::Other, j + 1);
            }
            Tok::Open(_) => {
                j = skip_group(toks, j);
                prev_dash = false;
                continue;
            }
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                if prev_dash {
                    // `->` arrow inside an fn-pointer type.
                } else if angle > 0 {
                    angle -= 1;
                }
            }
            Tok::Ident(w) if w == "where" && angle == 0 => {
                // Bounds follow; the self type is already collected.
                // Fast-forward to the `{`.
                let mut k = j + 1;
                while k < toks.len() {
                    match &toks[k].tok {
                        Tok::Open('{') => {
                            let pool: Vec<String> = match after_for {
                                Some(p) => idents_top[p..].to_vec(),
                                None => idents_top.clone(),
                            };
                            let ty = pool.into_iter().next_back();
                            return (
                                ScopeKind::Impl { ty, trait_impl: after_for.is_some() },
                                k + 1,
                            );
                        }
                        Tok::Open(_) => {
                            k = skip_group(toks, k);
                            continue;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return (ScopeKind::Other, k);
            }
            Tok::Ident(w) if w == "for" && angle == 0 => {
                after_for = Some(idents_top.len());
            }
            Tok::Ident(w) if angle == 0 && w != "dyn" => {
                idents_top.push(w.clone());
            }
            _ => {}
        }
        prev_dash = matches!(&toks[j].tok, Tok::Punct('-'));
        j += 1;
    }
    (ScopeKind::Other, j)
}

// ---------------------------------------------------------------------------
// cfg feature extraction (reads the original text)
// ---------------------------------------------------------------------------

/// Collect every `feature = "name"` occurrence on lines that carry a
/// `cfg` token in *code* position (masked view) — `#[cfg(feature =
/// "x")]`, `#[cfg_attr(feature = "x", …)]`, `cfg!(feature = "x")`.
/// Prose in comments or strings never matches because the `cfg` token
/// itself is masked there.
fn extract_cfg_features(source: &str, scanned: &ScannedFile) -> Vec<CfgFeature> {
    let mut out = Vec::new();
    let masked_lines = scanned.masked_lines();
    for (idx, orig) in source.lines().enumerate() {
        let Some(masked) = masked_lines.get(idx) else { continue };
        if !has_word(masked, "cfg") && !has_word(masked, "cfg_attr") {
            continue;
        }
        let mut rest = orig;
        let mut base = 0usize;
        while let Some(pos) = rest.find("feature") {
            let abs = base + pos;
            let before_ok =
                orig[..abs].chars().next_back().is_none_or(|c| !is_ident_char(c));
            let after = &orig[abs + "feature".len()..];
            let trimmed = after.trim_start();
            if before_ok {
                if let Some(eq_rest) = trimmed.strip_prefix('=') {
                    let v = eq_rest.trim_start();
                    if let Some(q) = v.strip_prefix('"') {
                        if let Some(close) = q.find('"') {
                            out.push(CfgFeature {
                                line: idx + 1,
                                name: q[..close].to_string(),
                            });
                        }
                    }
                }
            }
            base = abs + "feature".len();
            rest = &orig[base..];
        }
    }
    out
}

fn has_word(line: &str, word: &str) -> bool {
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(word) {
        let start = from + rel;
        let end = start + word.len();
        let before_ok = line[..start].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let after_ok = line[end..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parsed(src: &str) -> ParsedFile {
        parse(src, &scan(src))
    }

    #[test]
    fn plain_and_pub_fns_with_spans() {
        let src = "\
pub fn alpha(x: u32) -> u32 {
    x + 1
}

fn beta() {}
pub(crate) fn gamma() -> Result<(), ()> {
    Ok(())
}
";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "alpha");
        assert_eq!(p.fns[0].vis, Visibility::Public);
        assert_eq!(p.fns[0].body, Some((1, 3)));
        assert_eq!(p.fns[1].name, "beta");
        assert_eq!(p.fns[1].vis, Visibility::Private);
        assert_eq!(p.fns[1].body, Some((5, 5)));
        assert_eq!(p.fns[2].vis, Visibility::Crate);
    }

    #[test]
    fn impl_blocks_and_trait_impls() {
        let src = "\
struct Foo;
impl Foo {
    pub fn new() -> Foo { Foo }
    fn helper(&self) {}
}
impl std::fmt::Display for Foo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, \"foo\")
    }
}
impl<T: Clone> From<T> for Foo where T: Default {
    fn from(_: T) -> Foo { Foo }
}
";
        let p = parsed(src);
        let names: Vec<(&str, Option<&str>, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.trait_impl))
            .collect();
        assert_eq!(
            names,
            vec![
                ("new", Some("Foo"), false),
                ("helper", Some("Foo"), false),
                ("fmt", Some("Foo"), true),
                ("from", Some("Foo"), true),
            ]
        );
        assert_eq!(p.fns[0].vis, Visibility::Public);
    }

    #[test]
    fn modules_nest_and_cfg_test_propagates() {
        let src = "\
mod outer {
    pub fn visible() {}
    #[cfg(test)]
    mod tests {
        fn helper() { body(); }
    }
}
#[cfg(test)]
fn top_level_test_helper() {}
";
        let p = parsed(src);
        assert_eq!(p.fns[0].module, vec!["outer".to_string()]);
        assert!(!p.fns[0].cfg_test);
        assert_eq!(p.fns[1].name, "helper");
        assert!(p.fns[1].cfg_test);
        assert!(p.fns[2].cfg_test);
    }

    #[test]
    fn trait_decl_methods_are_trait_callable() {
        let src = "\
pub trait Worker {
    fn update(&mut self, round: u32) -> u32;
    fn reset(&mut self) {
        self.update(0);
    }
}
";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns.iter().all(|f| f.trait_impl));
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Worker"));
        assert_eq!(p.fns[0].body, None);
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn strings_and_macros_cannot_fake_items() {
        let src = "\
pub fn real() {
    let s = \"fn fake_in_string() {}\";
    let _ = s;
}
macro_rules! gen {
    () => {
        fn fake_in_macro() {}
    };
}
fn after_macro() {}
";
        let p = parsed(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real", "after_macro"]);
    }

    #[test]
    fn use_decls_and_cfg_features() {
        let src = "\
use std::collections::BTreeMap;
use fedprox_net::{NetworkRuntime, runtime::NetError};

#[cfg(feature = \"telemetry\")]
pub fn armed() {}

pub fn probe() -> bool {
    cfg!(feature = \"check\")
}
// a comment mentioning cfg(feature = \"not-real\") is ignored
";
        let p = parsed(src);
        assert_eq!(p.uses.len(), 2);
        assert!(p.uses[1].path.contains("fedprox_net"));
        let names: Vec<&str> = p.cfg_features.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["telemetry", "check"]);
        assert_eq!(p.cfg_features[0].line, 4);
    }

    #[test]
    fn fn_containing_maps_lines_to_bodies() {
        let src = "\
pub fn a() {
    inner();
}

pub fn b() { x(); }
";
        let p = parsed(src);
        assert_eq!(p.fn_containing(2), Some(0));
        assert_eq!(p.fn_containing(5), Some(1));
        assert_eq!(p.fn_containing(4), None);
    }

    #[test]
    fn const_fn_keeps_visibility() {
        let src = "pub const fn answer() -> u32 { 42 }\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].vis, Visibility::Public);
        assert_eq!(p.fns[0].name, "answer");
    }

    #[test]
    fn generic_signatures_span_lines() {
        let src = "\
pub fn run<W: Worker>(
    &self,
    workers: Vec<W>,
    on_round: impl FnMut(u32, &[f64]) -> bool,
) -> Result<Report, NetError> {
    body()
}
";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "run");
        assert_eq!(p.fns[0].body, Some((5, 7)));
    }
}
