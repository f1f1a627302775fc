//! Per-file analysis context shared by all rules: the token stream and
//! which lines are test code.

use crate::lexer::{Tok, Token};

/// Everything the rules need about one source file.
pub struct FileCtx<'a> {
    /// Repo-relative path with forward slashes.
    pub path: &'a str,
    pub tokens: &'a [Token],
    /// Whole file is test/bench/example code (by directory convention).
    pub test_file: bool,
    test_spans: Vec<(u32, u32)>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: &'a str, tokens: &'a [Token]) -> FileCtx<'a> {
        FileCtx {
            path,
            tokens,
            test_file: is_test_path(path),
            test_spans: test_spans(tokens),
        }
    }

    /// Name of the workspace crate this file belongs to (`la`, `db`, …);
    /// the root package maps to `gptune`.
    pub fn crate_name(&self) -> &str {
        if let Some(rest) = self.path.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("")
        } else {
            "gptune"
        }
    }

    /// True when `line` lies in test code (test file, `#[cfg(test)]`
    /// module, or `#[test]` function).
    pub fn in_test(&self, line: u32) -> bool {
        self.test_file || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Directory conventions for whole-file test code.
fn is_test_path(path: &str) -> bool {
    let p = path;
    p.starts_with("tests/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || p.contains("/fixtures/")
}

/// Single pass over the token stream collecting the line spans of
/// `#[cfg(test)]` / `#[test]` items.
fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![…]`: applies to the enclosing scope, not the
        // next item (`#![cfg_attr(not(test), …)]` must NOT mark the
        // following item as test code).
        if i + 1 < tokens.len() && tokens[i + 1].is_punct('!') {
            let Some(end) = match_delim(tokens, i + 2, '[', ']') else {
                break;
            };
            i = end + 1;
            continue;
        }
        if i + 1 >= tokens.len() || !tokens[i + 1].is_punct('[') {
            i += 1;
            continue;
        }

        // Accumulate across the run of outer attributes on one item, then
        // measure the item's extent once.
        let mut any_test = false;
        let mut k = i;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let Some(e) = match_delim(tokens, k + 1, '[', ']') else {
                return spans;
            };
            let attr = &tokens[k + 2..e];
            // `#[cfg(test)]` (or cfg(all/any containing test, un-negated))
            // gates the item out of production builds; `#[cfg_attr]` does
            // not, and `#[cfg(not(test))]` is production code.
            any_test |= attr.first().map(|t| t.is_ident("cfg")) == Some(true)
                && attr.iter().any(|t| t.is_ident("test"))
                && !attr.iter().any(|t| t.is_ident("not"));
            any_test |= attr.len() == 1 && attr[0].is_ident("test");
            k = e + 1;
        }
        if any_test {
            spans.push((tokens[i].line, item_extent(tokens, k)));
        }
        i = k.max(i + 1);
    }
    spans
}

/// Index of the closing delimiter matching `tokens[open]` (which must be
/// `open_c`). Counts only this delimiter kind — contents were already
/// string/comment-stripped by the lexer, so counting is sound.
pub fn match_delim(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Last line of the item starting at token `start`: the first `;` or `,`
/// at zero delimiter depth ends it, or the brace block that opens at zero
/// depth does.
fn item_extent(tokens: &[Token], start: usize) -> u32 {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut k = start;
    while k < tokens.len() {
        let t = &tokens[k];
        match t.kind {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => bracket += 1,
            Tok::Punct(']') => bracket -= 1,
            Tok::Punct('{') if paren == 0 && bracket == 0 => {
                return match match_delim(tokens, k, '{', '}') {
                    Some(e) => tokens[e].line,
                    None => tokens.last().map_or(t.line, |l| l.line),
                };
            }
            Tok::Punct(';') | Tok::Punct(',') if paren == 0 && bracket == 0 => return t.line,
            _ => {}
        }
        k += 1;
    }
    tokens.last().map_or(0, |l| l.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_span() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn b() {}\n";
        let lexed = lex(src);
        let ctx = FileCtx::new("crates/la/src/x.rs", &lexed);
        assert!(!ctx.in_test(1));
        assert!(ctx.in_test(4));
        assert!(!ctx.in_test(6));
    }

    #[test]
    fn test_attr_fn_span() {
        let src = "#[test]\nfn t() {\n  boom();\n}\nfn prod() {}\n";
        let lexed = lex(src);
        let ctx = FileCtx::new("crates/la/src/x.rs", &lexed);
        assert!(ctx.in_test(3));
        assert!(!ctx.in_test(5));
    }

    #[test]
    fn crate_names() {
        let lexed = lex("");
        assert_eq!(
            FileCtx::new("crates/gp/src/lcm.rs", &lexed).crate_name(),
            "gp"
        );
        assert_eq!(FileCtx::new("src/cli.rs", &lexed).crate_name(), "gptune");
    }

    #[test]
    fn fixture_dirs_are_test_files() {
        let lexed = lex("");
        assert!(FileCtx::new("crates/xtask/tests/fixtures/a.rs", &lexed).test_file);
        assert!(FileCtx::new("crates/db/tests/x.rs", &lexed).test_file);
        assert!(!FileCtx::new("crates/db/src/x.rs", &lexed).test_file);
    }
}
