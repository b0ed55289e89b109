//! Torture suite for the std-only Rust lexer and item scanner: the
//! adversarial inputs that broke (or would break) a substring-based
//! policy engine. Every case here is a construct that appears in real
//! Rust and must lex without panicking, classify correctly, and keep
//! the item scanner's `#[cfg(test)]`/doc/visibility facts exact.

use nsky_xtask::{lex, scan_items, ItemKind, SourceFile, Token, TokenKind, Visibility};

fn code_texts(tokens: &[Token]) -> Vec<&str> {
    tokens
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.text.as_str())
        .collect()
}

fn kinds_of(src: &str) -> Vec<TokenKind> {
    lex(src).into_iter().map(|t| t.kind).collect()
}

#[test]
fn raw_strings_with_hashes_and_quotes() {
    let toks = lex(r####"let s = r#"she said "unwrap()" twice"#;"####);
    let strs: Vec<&Token> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::StrLit)
        .collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].text.contains("unwrap"));
    assert!(!code_texts(&toks).contains(&"unwrap"));
}

#[test]
fn raw_byte_strings_and_byte_chars() {
    let toks = lex("let a = br#\"panic!()\"#; let b = b'x'; let c = b\"\\\"\";");
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokenKind::StrLit).count(),
        2
    );
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokenKind::CharLit).count(),
        1
    );
}

#[test]
fn nested_block_comments() {
    let toks = lex("/* outer /* inner unwrap() */ still comment */ fn f() {}");
    assert_eq!(toks.iter().filter(|t| t.is_comment()).count(), 1);
    assert_eq!(code_texts(&toks), vec!["fn", "f", "(", ")", "{", "}"]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let toks = lex("fn f<'a>(x: &'a str) -> &'a str { let c = 'a'; x }");
    assert_eq!(
        toks.iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count(),
        3
    );
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokenKind::CharLit).count(),
        1
    );
}

#[test]
fn char_escapes_do_not_derail() {
    for src in ["'\\''", "'\\\\'", "'\\n'", "'\\u{1F600}'", "'}'", "'{'"] {
        let toks = lex(&format!("let c = {src};"));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::CharLit).count(),
            1,
            "{src}"
        );
    }
}

#[test]
fn numeric_literals_parse_values_and_suffixes() {
    let toks = lex("let a = 0xFF_u32; let b = 0b1010; let c = 1_000_000; let d = 1.5e3f32;");
    let ints: Vec<(Option<u128>, Option<String>)> = toks
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::IntLit { value, suffix } => Some((*value, suffix.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(ints[0], (Some(255), Some("u32".to_string())));
    assert_eq!(ints[1], (Some(10), None));
    assert_eq!(ints[2], (Some(1_000_000), None));
    assert!(toks
        .iter()
        .any(|t| matches!(&t.kind, TokenKind::FloatLit { suffix: Some(s) } if s == "f32")));
}

#[test]
fn float_vs_range_vs_field_access() {
    // `0..10` must not lex `0.` as a float; tuple access `t.0` must not
    // glue onto a float either.
    let toks = lex("for i in 0..10 { f(t.0); }");
    assert!(toks.iter().any(|t| t.is_punct("..")));
    assert!(!toks
        .iter()
        .any(|t| matches!(t.kind, TokenKind::FloatLit { .. })));
}

#[test]
fn raw_identifiers_lex_as_bare_names() {
    let toks = lex("fn r#match(r#type: u32) -> u32 { r#type }");
    assert!(toks.iter().any(|t| t.is_ident("match")));
    assert!(toks.iter().any(|t| t.is_ident("type")));
}

#[test]
fn doc_comment_kinds_are_distinguished() {
    let kinds = kinds_of("//! inner\n/// outer\n// plain\n/** block doc */\n/*! block inner */\n");
    assert_eq!(
        kinds,
        vec![
            TokenKind::InnerDocComment,
            TokenKind::DocComment,
            TokenKind::Comment,
            TokenKind::DocComment,
            TokenKind::InnerDocComment,
        ]
    );
}

#[test]
fn longest_match_punctuation() {
    let toks = lex("a <<= 1; b ..= c; x => y; z :: w;");
    for p in ["<<=", "..=", "=>", "::"] {
        assert!(toks.iter().any(|t| t.is_punct(p)), "{p}");
    }
}

#[test]
fn unterminated_constructs_close_at_eof() {
    // The engine must degrade gracefully on code rustc would reject.
    for src in ["\"never closed", "/* never closed", "r#\"never closed", "'"] {
        let toks = lex(src);
        assert!(!toks.is_empty() || src == "'", "{src:?} lexes");
    }
}

#[test]
fn line_and_column_positions_are_exact() {
    let toks = lex("fn f() {\n    x.unwrap();\n}\n");
    let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).expect("lexed");
    assert_eq!(unwrap.line, 2);
    assert_eq!(unwrap.col, 7);
}

#[test]
fn items_survive_brace_noise_in_strings() {
    let src = r####"
const A: &str = "}}}{{{";
const B: &str = r#"fn fake() {}"#;
/// Documented.
pub fn real() {}
"####;
    let items = scan_items(&lex(src));
    let f = items
        .iter()
        .find(|i| i.kind == ItemKind::Fn)
        .expect("one real fn");
    assert_eq!(f.name, "real");
    assert_eq!(f.vis, Visibility::Pub);
    assert!(!items.iter().any(|i| i.name == "fake"));
}

#[test]
fn inner_attribute_stays_off_the_next_item() {
    let src = "//! Module docs.\n\n#![warn(missing_docs)]\n\n/// Doc.\npub fn f() {}\n";
    let items = scan_items(&lex(src));
    assert_eq!(items.len(), 1, "the inner attribute is not an item");
    let f = &items[0];
    assert_eq!(f.name, "f");
    assert_eq!(f.line, 6, "the declaration line, not the attribute's");
    assert_eq!(f.vis, Visibility::Pub);
    assert_eq!(
        f.signature, "fn f()",
        "no attribute tokens in the signature"
    );
}

#[test]
fn cfg_test_tracks_through_adversarial_bodies() {
    let src = r####"
#[cfg(test)]
mod tests {
    const NOISE: &str = r#"}"#;
    const C: char = '}';
    fn t() { x.unwrap(); }
}
pub fn real() {}
"####;
    let file = SourceFile::scan(src);
    let t_line = src
        .lines()
        .position(|l| l.contains("fn t()"))
        .expect("present")
        + 1;
    let real_line = src
        .lines()
        .position(|l| l.contains("fn real()"))
        .expect("present")
        + 1;
    assert!(file.in_test(t_line));
    assert!(!file.in_test(real_line));
}

#[test]
fn generics_and_where_clauses_keep_signatures_intact() {
    let src =
        "/// D.\npub fn f<T: Into<u64>>(x: T, ys: &[u8]) -> Vec<u64> where T: Copy { vec![] }\n";
    let items = scan_items(&lex(src));
    let f = &items[0];
    assert_eq!(f.name, "f");
    assert_eq!(f.ret.as_deref(), Some("Vec<u64>"));
    assert_eq!(f.params.len(), 2);
}

#[test]
fn shebang_like_and_macro_heavy_files_lex() {
    // `#!` attribute vs `#` `!` punct pair must not panic; macro_rules
    // bodies are token soup and must still balance test tracking.
    let src = "#![allow(dead_code)]\nmacro_rules! m { ($x:expr) => { $x + 1 }; }\nfn f() {}\n";
    let file = SourceFile::scan(src);
    assert!(!file.in_test(3));
    assert!(file.tokens.iter().any(|t| t.is_ident("macro_rules")));
}
