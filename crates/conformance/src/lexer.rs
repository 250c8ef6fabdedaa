//! String/comment-aware scanning of Rust source text.
//!
//! The scanner produces a *masked* view of a file: byte-for-byte the same
//! shape as the input, but with comment bodies and string/char-literal
//! interiors replaced by spaces. Rule matching runs over the masked view,
//! so `"unwrap()"` inside a string literal or a doc comment can never
//! trigger a lint. Comments are collected separately (per line) because
//! two rules read them: `fedlint: allow(...)` annotations and `SAFETY:`
//! justifications for `unsafe` blocks.

/// One comment occurrence, with the 1-indexed line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-indexed line of the comment's first character.
    pub line: usize,
    /// Comment text without the `//` / `/*` markers, trimmed.
    pub text: String,
}

/// The masked view of one source file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Source text with comments and literal interiors blanked to spaces.
    /// Newlines are preserved, so line numbers match the original.
    pub masked: String,
    /// Every comment in the file, in order of appearance.
    pub comments: Vec<Comment>,
}

impl ScannedFile {
    /// Masked lines, 0-indexed (line `n` of the file is `lines()[n-1]`).
    pub fn masked_lines(&self) -> Vec<&str> {
        self.masked.lines().collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the depth is tracked.
    BlockComment(u32),
    Str,
    /// Raw string with `n` closing hashes expected (`r##"…"##` → 2).
    RawStr(u32),
    CharLit,
}

/// Scan Rust source into its masked view. The scanner is a hand-rolled
/// state machine and deliberately recognises only the lexical shapes that
/// affect masking: line/block comments (nested), plain and raw string
/// literals (with `b`/`r` prefixes), char literals, and lifetimes (which
/// must *not* be confused with an unterminated char literal).
pub fn scan(source: &str) -> ScannedFile {
    let bytes: Vec<char> = source.chars().collect();
    let mut masked = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut state = State::Code;
    let mut line = 1usize;
    let mut comment_buf = String::new();
    let mut comment_line = 0usize;
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    comment_line = line;
                    comment_buf.clear();
                    masked.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    comment_line = line;
                    comment_buf.clear();
                    masked.push_str("  ");
                    i += 2;
                    continue;
                }
                // Raw / byte-string prefixes. The `r` or `b` must not be
                // part of a longer identifier (e.g. `number` ends in `r`).
                let prev_is_ident = i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_');
                if !prev_is_ident && (c == 'r' || c == 'b') {
                    if let Some((consumed, hashes, is_str)) = raw_prefix(&bytes[i..]) {
                        for _ in 0..consumed {
                            masked.push(' ');
                        }
                        i += consumed;
                        state = if is_str { State::RawStr(hashes) } else { State::Str };
                        continue;
                    }
                }
                if c == '"' {
                    state = State::Str;
                    masked.push('"');
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Distinguish char literal from lifetime: a char
                    // literal is '\…' or 'X' followed by a closing quote.
                    let is_char_lit = matches!(
                        (next, bytes.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char_lit {
                        state = State::CharLit;
                        masked.push('\'');
                        i += 1;
                        continue;
                    }
                    // Lifetime or loop label: emit as code.
                    masked.push('\'');
                    i += 1;
                    continue;
                }
                if c == '\n' {
                    line += 1;
                }
                masked.push(c);
                i += 1;
            }
            State::LineComment => {
                if c == '\n' {
                    comments.push(Comment {
                        line: comment_line,
                        text: comment_buf.trim().to_string(),
                    });
                    state = State::Code;
                    masked.push('\n');
                    line += 1;
                } else {
                    comment_buf.push(c);
                    masked.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        comments.push(Comment {
                            line: comment_line,
                            text: comment_buf.trim().to_string(),
                        });
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    masked.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    masked.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '\n' {
                    line += 1;
                    masked.push('\n');
                } else {
                    comment_buf.push(c);
                    masked.push(' ');
                }
                i += 1;
            }
            State::Str => {
                if c == '\\' && next.is_some() {
                    masked.push_str("  ");
                    if next == Some('\n') {
                        // Line continuation inside a string.
                        masked.pop();
                        masked.push('\n');
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Code;
                    masked.push('"');
                } else if c == '\n' {
                    line += 1;
                    masked.push('\n');
                } else {
                    masked.push(' ');
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&bytes[i + 1..], hashes) {
                    masked.push('"');
                    for _ in 0..hashes {
                        masked.push(' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                    continue;
                }
                if c == '\n' {
                    line += 1;
                    masked.push('\n');
                } else {
                    masked.push(' ');
                }
                i += 1;
            }
            State::CharLit => {
                if c == '\\' && next.is_some() {
                    masked.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    state = State::Code;
                    masked.push('\'');
                } else {
                    masked.push(' ');
                }
                i += 1;
            }
        }
    }
    if state == State::LineComment {
        comments.push(Comment { line: comment_line, text: comment_buf.trim().to_string() });
    }
    ScannedFile { masked, comments }
}

/// If `chars` starts a raw/byte string literal prefix (`r"`, `r#"`,
/// `br##"`, `b"` …), return `(consumed_chars, hash_count, is_raw)`.
/// `is_raw == false` means a plain `b"…"` byte string (escapes apply).
fn raw_prefix(chars: &[char]) -> Option<(usize, u32, bool)> {
    let mut idx = 0;
    if chars[idx] == 'b' {
        idx += 1;
    }
    let raw = chars.get(idx) == Some(&'r');
    if raw {
        idx += 1;
    }
    let mut hashes = 0u32;
    while chars.get(idx) == Some(&'#') {
        hashes += 1;
        idx += 1;
    }
    if chars.get(idx) != Some(&'"') {
        return None;
    }
    if !raw && hashes > 0 {
        return None;
    }
    if idx == 0 {
        return None; // plain '"' is handled by the caller
    }
    Some((idx + 1, hashes, raw))
}

/// Whether the chars after a `"` inside a raw string close it
/// (i.e. are followed by `hashes` `#` characters).
fn closes_raw(after_quote: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| after_quote.get(k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_string_interiors_but_keeps_shape() {
        let src = "let x = \"unwrap() inside\"; x.unwrap();\n";
        let s = scan(src);
        assert_eq!(s.masked.len(), src.len());
        assert!(!s.masked.contains("unwrap() inside"));
        assert!(s.masked.contains(".unwrap()"));
    }

    #[test]
    fn collects_line_comments_with_line_numbers() {
        let src = "fn f() {}\n// SAFETY: fine\nunsafe { }\n";
        let s = scan(src);
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].line, 2);
        assert_eq!(s.comments[0].text, "SAFETY: fine");
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* a /* b */ c */ let s = r#\"panic!(\"x\")\"#;\n";
        let s = scan(src);
        assert!(!s.masked.contains("panic"));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // trailing\n";
        let s = scan(src);
        assert!(s.masked.contains("&'a str"));
        assert_eq!(s.comments[0].text, "trailing");
    }

    #[test]
    fn char_literal_with_quote_escape() {
        let src = "let q = '\\''; let p = '\"'; x.unwrap();\n";
        let s = scan(src);
        assert!(s.masked.contains(".unwrap()"));
    }

    #[test]
    fn newlines_inside_strings_keep_line_count() {
        let src = "let s = \"line\nbreak\";\n// after\n";
        let s = scan(src);
        assert_eq!(s.comments[0].line, 3);
    }
}
