//! Scanned source files: the lexer + item scanner packaged per file.
//!
//! PR 1's `SourceFile` blanked comments and strings line-by-line and
//! guessed `#[cfg(test)]` regions by brace depth; rules then substring-
//! matched the blanked text. This version is syntax-aware: it lexes the
//! file into spanned [`Token`]s ([`crate::lex`]), scans the token stream
//! into [`Item`]s ([`crate::items`]), and derives exact per-line test
//! containment from the item tree. Rules query tokens and items instead
//! of blanked strings, so string literals, comments, raw strings and
//! nested block comments can never produce false positives, and `'a`
//! lifetimes are never confused with `'a'` char literals.
//!
//! Suppressions stay line-oriented (`// nsky-lint: allow(rule) — why`),
//! parsed from the raw line text so they work identically in `.rs` and
//! `Cargo.toml` (`#` comments).

use crate::items::{scan_items, Item};
use crate::lex::{lex, Token};
use crate::Rule;

/// One scanned source line (suppression facts only; token-level facts
/// live in [`SourceFile::tokens`]).
#[derive(Debug)]
pub struct Line {
    /// The original text.
    pub raw: String,
    /// Rule names suppressed on this line via `nsky-lint: allow(...)`.
    pub suppressed: Vec<String>,
}

/// A scanned file: raw lines with suppressions, the lexed token stream,
/// the scanned items, and per-line `#[cfg(test)]` containment.
#[derive(Debug)]
pub struct SourceFile {
    /// Scanned lines, in order.
    pub lines: Vec<Line>,
    /// The lexed tokens (comments included), in source order.
    pub tokens: Vec<Token>,
    /// The scanned items (functions, types, impls, mods, …).
    pub items: Vec<Item>,
    /// Per-line test containment (1-based lookup via [`SourceFile::in_test`]).
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Scans `text` (the contents of one `.rs` file).
    pub fn scan(text: &str) -> SourceFile {
        let tokens = lex(text);
        let items = scan_items(&tokens);
        let lines: Vec<Line> = text
            .lines()
            .map(|raw| {
                let (suppressed, _) = parse_suppressions(raw);
                Line {
                    raw: raw.to_string(),
                    suppressed,
                }
            })
            .collect();
        let mut test_lines = vec![false; lines.len() + 1];
        for item in &items {
            if item.in_test {
                let first = tokens[item.span.0].line;
                let last = tokens[item.span.1].line;
                for flag in &mut test_lines[first..=last.min(lines.len())] {
                    *flag = true;
                }
            }
        }
        SourceFile {
            lines,
            tokens,
            items,
            test_lines,
        }
    }

    /// Whether 1-based line `lineno` lies inside a `#[cfg(test)]` /
    /// `#[test]` item.
    pub fn in_test(&self, lineno: usize) -> bool {
        self.test_lines.get(lineno).copied().unwrap_or(false)
    }

    /// Whether `rule` is suppressed for 1-based line `lineno` (a
    /// suppression comment on the flagged line or the line directly
    /// above it).
    pub fn is_suppressed(&self, rule: Rule, lineno: usize) -> bool {
        let hit = |idx: usize| {
            self.lines
                .get(idx)
                .is_some_and(|l| l.suppressed.iter().any(|s| s == rule.name()))
        };
        lineno >= 1 && (hit(lineno - 1) || (lineno >= 2 && hit(lineno - 2)))
    }

    /// Whether a comment containing `marker` sits on `lineno` or above
    /// it. Walking upward, comment lines are free (a multi-line
    /// `// MARKER: …` block counts however long it is) while code and
    /// blank lines consume the `above` budget — so the marker attaches
    /// across a rustfmt-split statement but not across unrelated code.
    /// Doc comments count: a `/// SAFETY:` note is still a note.
    pub fn comment_marker_near(&self, marker: &str, lineno: usize, above: usize) -> bool {
        if self
            .lines
            .get(lineno.wrapping_sub(1))
            .is_some_and(|l| l.raw.contains(marker))
        {
            return true;
        }
        let mut budget = above;
        for l in (1..lineno).rev() {
            let Some(line) = self.lines.get(l - 1) else {
                break;
            };
            let is_comment = line.raw.trim_start().starts_with("//");
            if !is_comment {
                if budget == 0 {
                    return false;
                }
                budget -= 1;
            }
            if line.raw.contains(marker) {
                return true;
            }
        }
        false
    }

    /// Indices of non-comment tokens, in order (the "code view" rules
    /// iterate).
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| !self.tokens[i].is_comment())
            .collect()
    }
}

/// Parses `nsky-lint: allow(rule)` suppressions out of a raw line.
/// Returns the justified rule names and the bare (unjustified) ones.
pub(crate) fn parse_suppressions(raw: &str) -> (Vec<String>, Vec<String>) {
    const MARKER: &str = "nsky-lint: allow(";
    let mut suppressed = Vec::new();
    let mut bare = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find(MARKER) {
        rest = &rest[pos + MARKER.len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        // A justification is any alphanumeric text after the paren.
        let justified = after.chars().any(|c| c.is_alphanumeric());
        if justified {
            suppressed.push(rule);
        } else {
            bare.push(rule);
        }
        rest = after;
    }
    (suppressed, bare)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::TokenKind;

    #[test]
    fn strings_and_comments_produce_no_code_tokens() {
        let f = SourceFile::scan("let x = \"unwrap()\"; // unwrap()\n");
        let code_idents: Vec<&str> = f
            .code_indices()
            .into_iter()
            .filter(|&i| f.tokens[i].kind == TokenKind::Ident)
            .map(|i| f.tokens[i].text.as_str())
            .collect();
        assert_eq!(code_idents, vec!["let", "x"]);
        assert!(f.lines[0].raw.contains("unwrap"));
    }

    #[test]
    fn cfg_test_region_tracking_is_exact() {
        let src = "\
fn real() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn real2() {}
";
        let f = SourceFile::scan(src);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn brace_chars_and_raw_strings_do_not_break_test_regions() {
        let src = "\
#[cfg(test)]
mod tests {
    const C: char = '}';
    const S: &str = r#\"}}}\"#;
    fn t() { helper(); }
}
fn real() {}
";
        let f = SourceFile::scan(src);
        assert!(f.in_test(5), "test region survives brace-like literals");
        assert!(!f.in_test(7));
    }

    #[test]
    fn suppression_requires_justification() {
        let (s, bare) = parse_suppressions("x(); // nsky-lint: allow(cast-audit) — invariant");
        assert_eq!(s, vec!["cast-audit".to_string()]);
        assert!(bare.is_empty());
        let (s, bare) = parse_suppressions("x(); // nsky-lint: allow(cast-audit)");
        assert!(s.is_empty());
        assert_eq!(bare, vec!["cast-audit".to_string()]);
    }

    #[test]
    fn suppression_applies_to_line_below() {
        let src = "// nsky-lint: allow(cast-audit) — fine here\nlet n = len as u32;\n";
        let f = SourceFile::scan(src);
        assert!(f.is_suppressed(Rule::CastAudit, 2));
        assert!(!f.is_suppressed(Rule::HotLoopAlloc, 2));
    }

    #[test]
    fn comment_markers_near() {
        let src = "// SAFETY: bounds checked above\n\nunsafe { go() }\n";
        let f = SourceFile::scan(src);
        assert!(f.comment_marker_near("SAFETY:", 3, 3));
        assert!(
            f.comment_marker_near("SAFETY:", 3, 1),
            "blank consumes budget, comment is free"
        );
    }

    #[test]
    fn comment_marker_blocked_by_code() {
        let src = "// SAFETY: for the other site\nlet a = 1;\nlet b = 2;\nunsafe { go() }\n";
        let f = SourceFile::scan(src);
        assert!(!f.comment_marker_near("SAFETY:", 4, 1));
        assert!(f.comment_marker_near("SAFETY:", 4, 2));
    }

    #[test]
    fn comment_marker_in_long_block() {
        let src = "\
// ORDERING: Release pairs with the Acquire load in poll,
// so everything written before cancel() is visible to the
// kernel when it unwinds.
self.flag
    .store(true, Ordering::Release);
";
        let f = SourceFile::scan(src);
        assert!(
            f.comment_marker_near("ORDERING:", 5, 3),
            "marker atop a block, op mid-statement"
        );
    }
}
