//! Item-level scanner on top of the lexer.
//!
//! Walks one file's token stream and produces the list of [`Item`]s —
//! functions (with parsed parameter and return types), structs, enums,
//! traits, impl blocks (with the implemented trait's name), modules,
//! consts, statics, type aliases and `use` declarations — each with its
//! visibility, `#[cfg(test)]` containment, inline module path and exact
//! token extent. Rules R8/R9/R13 consume these spans instead of line
//! heuristics, R10's cast audit uses the parameter and return types for
//! local type inference, and R12 renders the public items into the
//! committed API-surface baselines.
//!
//! The scanner recurses into `mod`, `impl` and `trait` bodies (their
//! members are independently addressable items) but treats a function
//! body as opaque: nested helper functions are not API and fold into the
//! enclosing function's extent, which is exactly the lexical containment
//! R13's loop/poll check asks for.

use crate::lex::{Token, TokenKind};

/// The syntactic kind of one [`Item`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free function, method or trait default method).
    Fn,
    /// `struct` (named, tuple or unit).
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// `type` alias (including associated types).
    TypeAlias,
    /// `const` (including associated consts).
    Const,
    /// `static`.
    Static,
    /// `mod` (inline or file declaration).
    Mod,
    /// `impl` block (inherent or trait).
    Impl,
    /// `use` declaration.
    Use,
    /// `macro_rules!` definition.
    Macro,
}

/// Item visibility, as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility {
    /// Plain `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — not public API.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// One scanned item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Syntactic kind.
    pub kind: ItemKind,
    /// Item name. For an [`ItemKind::Impl`] this is the implemented
    /// *type*'s leading identifier; for [`ItemKind::Use`] the rendered
    /// path.
    pub name: String,
    /// Visibility as written on the item.
    pub vis: Visibility,
    /// 1-based line of the declaration (its first non-attribute token).
    pub line: usize,
    /// Token range (inclusive) covering the whole item, body included.
    pub span: (usize, usize),
    /// Token index at which the signature ends: the body `{` or the `;`.
    pub sig_end: usize,
    /// Whether the item lies under `#[cfg(test)]` / `#[test]` (its own
    /// attributes or an enclosing module's).
    pub in_test: bool,
    /// Inline `mod` chain enclosing this item within the file.
    pub module_path: Vec<String>,
    /// For members of an `impl` block: the implemented type's name.
    pub owner: Option<String>,
    /// For [`ItemKind::Impl`]: the implemented trait's trailing
    /// identifier (`None` for inherent impls). For members of a trait
    /// impl this is the enclosing impl's trait.
    pub trait_name: Option<String>,
    /// For [`ItemKind::Fn`]: `(pattern, type)` per parameter, skipping
    /// `self` receivers. Types are rendered token strings.
    pub params: Vec<(String, String)>,
    /// For [`ItemKind::Fn`]: the rendered return type (`None` = unit).
    pub ret: Option<String>,
    /// The rendered declaration: normalized signature tokens without
    /// body, attributes or doc comments.
    pub signature: String,
}

/// Scans a file's token stream (comments included, as produced by
/// [`crate::lex::lex`]) into items.
pub fn scan_items(tokens: &[Token]) -> Vec<Item> {
    let mut out = Vec::new();
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    scan_block(
        tokens,
        &code,
        0,
        code.len(),
        &mut Scope::default(),
        &mut out,
    );
    out
}

/// Scanner context threaded through nested blocks.
#[derive(Clone, Debug, Default)]
struct Scope {
    module_path: Vec<String>,
    in_test: bool,
    owner: Option<String>,
    trait_name: Option<String>,
}

/// Scans `code[ci_start..ci_end]` (indices into `code`, which maps to
/// token indices) for items, appending to `out`.
fn scan_block(
    tokens: &[Token],
    code: &[usize],
    ci_start: usize,
    ci_end: usize,
    scope: &mut Scope,
    out: &mut Vec<Item>,
) {
    let mut ci = ci_start;
    while ci < ci_end {
        match parse_item(tokens, code, ci, ci_end, scope) {
            Some((item, body, next_ci)) => {
                let recurse = matches!(item.kind, ItemKind::Mod | ItemKind::Impl | ItemKind::Trait);
                let mut inner = Scope {
                    module_path: scope.module_path.clone(),
                    in_test: item.in_test,
                    owner: scope.owner.clone(),
                    trait_name: scope.trait_name.clone(),
                };
                match item.kind {
                    ItemKind::Mod => inner.module_path.push(item.name.clone()),
                    ItemKind::Impl => {
                        inner.owner = Some(item.name.clone());
                        inner.trait_name = item.trait_name.clone();
                    }
                    ItemKind::Trait => inner.owner = Some(item.name.clone()),
                    _ => {}
                }
                out.push(item);
                if recurse {
                    if let Some((b_start, b_end)) = body {
                        scan_block(tokens, code, b_start, b_end, &mut inner, out);
                    }
                }
                ci = next_ci;
            }
            None => ci += 1, // unrecognized token at item position: skip
        }
    }
}

/// Item-introducing keywords and the modifiers that may precede them.
const MODIFIERS: &[&str] = &["const", "async", "unsafe", "extern", "default"];

/// A parsed item, its body's `code`-index range (for recursion), and
/// the `code` index just past the item.
type ParsedItem = (Item, Option<(usize, usize)>, usize);

/// Tries to parse one item starting at `code[ci]`.
fn parse_item(
    tokens: &[Token],
    code: &[usize],
    ci: usize,
    ci_end: usize,
    scope: &Scope,
) -> Option<ParsedItem> {
    let mut j = ci;
    let mut in_test = scope.in_test;

    // Attributes: `#[…]` (outer) and `#![…]` (inner, skipped; it
    // belongs to the enclosing module, not the item after it).
    while j < ci_end && tokens[code[j]].is_punct("#") {
        let mut k = j + 1;
        if k < ci_end && tokens[code[k]].is_punct("!") {
            k += 1;
        }
        if k >= ci_end || !tokens[code[k]].is_punct("[") {
            return None;
        }
        // Match the bracket.
        let mut depth = 0i32;
        let attr_start = k;
        while k < ci_end {
            let t = &tokens[code[k]];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        if attr_cfg_test(tokens, code, attr_start, k) {
            in_test = true;
        }
        j = k + 1;
    }
    if j >= ci_end {
        return None;
    }

    let decl_tok = code[j];

    // Visibility.
    let mut vis = Visibility::Private;
    if tokens[code[j]].is_ident("pub") {
        vis = Visibility::Pub;
        j += 1;
        if j < ci_end && tokens[code[j]].is_punct("(") {
            vis = Visibility::Restricted;
            let mut depth = 0i32;
            while j < ci_end {
                let t = &tokens[code[j]];
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
    }

    // Modifier keywords before the item keyword (`pub const unsafe fn`).
    let sig_start = j;
    while j < ci_end
        && MODIFIERS.iter().any(|m| tokens[code[j]].is_ident(m))
        && !(tokens[code[j]].is_ident("const") && is_const_item(tokens, code, j, ci_end))
    {
        // `extern "C"` carries a string literal.
        if tokens[code[j]].is_ident("extern")
            && j + 1 < ci_end
            && tokens[code[j + 1]].kind == TokenKind::StrLit
        {
            j += 1;
        }
        j += 1;
    }
    if j >= ci_end {
        return None;
    }

    let kw = &tokens[code[j]];
    let kind = match kw.text.as_str() {
        "fn" => ItemKind::Fn,
        "struct" => ItemKind::Struct,
        "enum" => ItemKind::Enum,
        "union" => ItemKind::Union,
        "trait" => ItemKind::Trait,
        "type" => ItemKind::TypeAlias,
        "const" => ItemKind::Const,
        "static" => ItemKind::Static,
        "mod" => ItemKind::Mod,
        "impl" => ItemKind::Impl,
        "use" => ItemKind::Use,
        "macro_rules" => ItemKind::Macro,
        _ => return None,
    };
    if kw.kind != TokenKind::Ident {
        return None;
    }

    // Signature end: the body `{` or the terminating `;`, at bracket
    // depth zero (initializer expressions may themselves hold braces).
    let mut k = j;
    let mut brace = 0i32;
    let mut paren = 0i32;
    let (mut sig_end_ci, mut has_body) = (ci_end - 1, false);
    while k < ci_end {
        let t = &tokens[code[k]];
        if t.is_punct("{") && paren == 0 {
            if brace == 0 && !in_initializer(tokens, code, j, k, kind) {
                sig_end_ci = k;
                has_body = true;
                break;
            }
            brace += 1;
        } else if t.is_punct("}") && paren == 0 {
            brace -= 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            paren += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            paren -= 1;
        } else if t.is_punct(";") && brace == 0 && paren == 0 {
            sig_end_ci = k;
            break;
        }
        k += 1;
    }

    // Body extent (code indices inside the braces) and item end.
    let (body, end_ci) = if has_body {
        let mut depth = 0i32;
        let mut k = sig_end_ci;
        let mut close = ci_end - 1;
        while k < ci_end {
            let t = &tokens[code[k]];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            k += 1;
        }
        (Some((sig_end_ci + 1, close)), close)
    } else {
        (None, sig_end_ci)
    };

    // Name.
    let name = match kind {
        ItemKind::Impl => impl_type_name(tokens, code, j + 1, sig_end_ci),
        ItemKind::Use => render(tokens, code, j + 1, sig_end_ci),
        ItemKind::Macro => code
            .get(j + 2)
            .map(|&t| tokens[t].text.clone())
            .unwrap_or_default(),
        _ => code[j + 1..sig_end_ci]
            .iter()
            .find(|&&t| tokens[t].kind == TokenKind::Ident)
            .map(|&t| tokens[t].text.clone())
            .unwrap_or_default(),
    };
    let trait_name = if kind == ItemKind::Impl {
        impl_trait_name(tokens, code, j + 1, sig_end_ci)
    } else {
        scope.trait_name.clone()
    };

    // Function parameter and return types.
    let (params, ret) = if kind == ItemKind::Fn {
        parse_fn_types(tokens, code, j, sig_end_ci)
    } else {
        (Vec::new(), None)
    };

    let item = Item {
        kind,
        name,
        vis,
        line: tokens[decl_tok].line,
        span: (code[ci], code[end_ci.min(ci_end - 1)]),
        sig_end: code[sig_end_ci.min(ci_end - 1)],
        in_test,
        module_path: scope.module_path.clone(),
        owner: if kind == ItemKind::Impl {
            scope.owner.clone()
        } else {
            scope.owner.clone().or(None)
        },
        trait_name: if kind == ItemKind::Impl {
            trait_name.clone()
        } else {
            trait_name
        },
        params,
        ret,
        signature: render(tokens, code, sig_start, sig_end_ci),
    };
    Some((item, body, end_ci + 1))
}

/// Whether the `const` at `code[j]` introduces a const *item* rather
/// than a `const fn` modifier: the next code token is an identifier or
/// `_` that is not itself `fn`/`unsafe`/`async`/`extern`.
fn is_const_item(tokens: &[Token], code: &[usize], j: usize, ci_end: usize) -> bool {
    let Some(&next) = code.get(j + 1) else {
        return false;
    };
    if j + 1 >= ci_end {
        return false;
    }
    let t = &tokens[next];
    (t.kind == TokenKind::Ident || t.is_punct("_"))
        && !["fn", "unsafe", "async", "extern"]
            .iter()
            .any(|m| t.is_ident(m))
}

/// Whether a `{` belongs to an initializer expression rather than an
/// item body: `const`/`static`/`type`/`use` items have no brace body, so
/// any `{` before their `;` is expression-level.
fn in_initializer(
    _tokens: &[Token],
    _code: &[usize],
    _kw: usize,
    _at: usize,
    kind: ItemKind,
) -> bool {
    matches!(
        kind,
        ItemKind::Const | ItemKind::Static | ItemKind::TypeAlias | ItemKind::Use
    )
}

/// Whether the attribute tokens in `code[start..end]` are a
/// `cfg(test)`-style gate: an ident `test` not directly under `not(`.
fn attr_cfg_test(tokens: &[Token], code: &[usize], start: usize, end: usize) -> bool {
    let has_cfg = (start..end).any(|i| tokens[code[i]].is_ident("cfg"));
    for i in start..end {
        if tokens[code[i]].is_ident("test") {
            let negated =
                i >= 2 && tokens[code[i - 1]].is_punct("(") && tokens[code[i - 2]].is_ident("not");
            if !negated && (has_cfg || end - start <= 3) {
                return true; // `#[cfg(test)]`, `#[cfg(any(test,…))]`, `#[test]`
            }
        }
    }
    false
}

/// The implemented type's leading identifier in `impl … [Trait for] Type`.
fn impl_type_name(tokens: &[Token], code: &[usize], start: usize, sig_end: usize) -> String {
    let mut j = skip_generics(tokens, code, start, sig_end);
    // If a `for` occurs at angle depth 0, the type follows it.
    let mut angle = 0i32;
    let mut for_at = None;
    for k in j..sig_end {
        let t = &tokens[code[k]];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        } else if t.is_ident("for") && angle <= 0 {
            for_at = Some(k);
        } else if t.is_ident("where") && angle <= 0 {
            break;
        }
    }
    if let Some(f) = for_at {
        j = f + 1;
    }
    code[j..sig_end]
        .iter()
        .find(|&&t| tokens[t].kind == TokenKind::Ident && !tokens[t].is_ident("dyn"))
        .map(|&t| tokens[t].text.clone())
        .unwrap_or_default()
}

/// The implemented trait's trailing identifier, when the impl block has
/// a `… Trait for Type` head.
fn impl_trait_name(
    tokens: &[Token],
    code: &[usize],
    start: usize,
    sig_end: usize,
) -> Option<String> {
    let j = skip_generics(tokens, code, start, sig_end);
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    for k in j..sig_end {
        let t = &tokens[code[k]];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        } else if t.is_ident("for") && angle <= 0 {
            return last_ident;
        } else if t.kind == TokenKind::Ident && angle <= 0 && !t.is_ident("dyn") {
            last_ident = Some(t.text.clone());
        }
    }
    None
}

/// Skips a `<…>` generic parameter list starting at `code[start]`.
fn skip_generics(tokens: &[Token], code: &[usize], start: usize, sig_end: usize) -> usize {
    if start >= sig_end || !tokens[code[start]].is_punct("<") {
        return start;
    }
    let mut angle = 0i32;
    for k in start..sig_end {
        let t = &tokens[code[k]];
        if t.is_punct("<") || t.is_punct("<<") {
            angle += if t.is_punct("<<") { 2 } else { 1 };
        } else if t.is_punct(">") || t.is_punct(">>") {
            angle -= if t.is_punct(">>") { 2 } else { 1 };
            if angle <= 0 {
                return k + 1;
            }
        }
    }
    sig_end
}

/// Parses a function's parameter `(pattern, type)` pairs and return
/// type from its signature tokens (`code[kw..sig_end]`, `kw` at `fn`).
fn parse_fn_types(
    tokens: &[Token],
    code: &[usize],
    kw: usize,
    sig_end: usize,
) -> (Vec<(String, String)>, Option<String>) {
    // Find the parameter list: first `(` after the name/generics.
    let mut open = None;
    let mut angle = 0i32;
    for k in kw..sig_end {
        let t = &tokens[code[k]];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        } else if t.is_punct("(") && angle <= 0 {
            open = Some(k);
            break;
        }
    }
    let Some(open) = open else {
        return (Vec::new(), None);
    };
    let mut depth = 0i32;
    let mut close = sig_end;
    for k in open..sig_end {
        let t = &tokens[code[k]];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                close = k;
                break;
            }
        }
    }

    // Split top-level commas into parameters; each is `pattern : type`.
    let mut params = Vec::new();
    let mut seg_start = open + 1;
    let mut d = 0i32;
    let mut angle = 0i32;
    for k in open + 1..=close {
        let t = &tokens[code[k]];
        let boundary = (t.is_punct(",") && d == 0 && angle <= 0) || k == close;
        if t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            d -= 1;
        } else if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        }
        if boundary {
            if let Some(p) = parse_param(tokens, code, seg_start, k) {
                params.push(p);
            }
            seg_start = k + 1;
        }
    }

    // Return type: tokens between `->` and `where`/end.
    let mut ret = None;
    for k in close + 1..sig_end {
        if tokens[code[k]].is_punct("->") {
            let mut stop = sig_end;
            for m in k + 1..sig_end {
                if tokens[code[m]].is_ident("where") {
                    stop = m;
                    break;
                }
            }
            ret = Some(render(tokens, code, k + 1, stop));
            break;
        }
    }
    (params, ret)
}

/// One parameter segment: `name: Type`, `mut name: Type` or a receiver
/// (`self`, `&self`, `&mut self` — skipped, returns `None`).
fn parse_param(
    tokens: &[Token],
    code: &[usize],
    start: usize,
    end: usize,
) -> Option<(String, String)> {
    let mut colon = None;
    let mut d = 0i32;
    let mut angle = 0i32;
    for k in start..end {
        let t = &tokens[code[k]];
        if t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            d -= 1;
        } else if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(":") && d == 0 && angle <= 0 {
            colon = Some(k);
            break;
        }
    }
    let colon = colon?;
    // Pattern: take the last plain ident before the colon (`mut x` → x;
    // destructuring patterns yield their last binder, good enough for
    // identifier-level type lookup).
    let name = code[start..colon]
        .iter()
        .rev()
        .find(|&&t| tokens[t].kind == TokenKind::Ident && !tokens[t].is_ident("mut"))
        .map(|&t| tokens[t].text.clone())?;
    if name == "self" {
        return None;
    }
    Some((name, render(tokens, code, colon + 1, end)))
}

/// Renders code tokens `code[start..end]` into a normalized one-line
/// string: single spaces between tokens, tightened around punctuation
/// that conventionally binds (`::`, `.`, `&`, brackets, `,`, `;`).
pub(crate) fn render(tokens: &[Token], code: &[usize], start: usize, end: usize) -> String {
    let mut out = String::new();
    for k in start..end.min(code.len()) {
        let t = &tokens[code[k]];
        let text = t.text.as_str();
        if !out.is_empty() {
            let prev = &tokens[code[k - 1]];
            let tight_after_prev = matches!(
                prev.text.as_str(),
                "::" | "." | "&" | "(" | "[" | "<" | "#" | "!" | "'" | ".." | "..="
            ) && prev.kind == TokenKind::Punct
                || prev.kind == TokenKind::Lifetime && text == ","
                || prev.kind == TokenKind::Lifetime && text == ">";
            let tight_before = matches!(
                text,
                "::" | "." | "," | ";" | ":" | ")" | "]" | ">" | "(" | "[" | "?" | "!"
            ) && t.kind == TokenKind::Punct
                && !(text == "(" && prev.kind == TokenKind::Punct && prev.text == ")");
            // `fn name(` binds tight; `where` etc. keep spaces. `&'a str`
            // needs the space after the lifetime.
            let tight = tight_after_prev
                || (tight_before && !matches!(prev.text.as_str(), "," | "->" | "=>" | "where"))
                || (prev.kind == TokenKind::Ident && text == "<" && k + 1 < end);
            if !tight {
                out.push(' ');
            }
        }
        out.push_str(text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn items(src: &str) -> Vec<Item> {
        scan_items(&lex(src))
    }

    #[test]
    fn top_level_items_with_visibility() {
        let src = "\
/// Doc.
pub fn documented(x: u32) -> u32 { x }
pub(crate) fn crate_only() {}
fn private() {}
pub struct S { pub field: u32 }
pub enum E { A, B }
pub const K: usize = 3;
pub use std::collections::HashMap;
";
        let it = items(src);
        let names: Vec<(&str, ItemKind, Visibility)> = it
            .iter()
            .map(|i| (i.name.as_str(), i.kind, i.vis))
            .collect();
        assert_eq!(names[0], ("documented", ItemKind::Fn, Visibility::Pub));
        assert_eq!(
            names[1],
            ("crate_only", ItemKind::Fn, Visibility::Restricted)
        );
        assert_eq!(names[2], ("private", ItemKind::Fn, Visibility::Private));
        assert_eq!(names[3], ("S", ItemKind::Struct, Visibility::Pub));
        assert_eq!(names[4], ("E", ItemKind::Enum, Visibility::Pub));
        assert_eq!(names[5], ("K", ItemKind::Const, Visibility::Pub));
        assert_eq!(it[0].line, 2);
    }

    #[test]
    fn fn_params_and_return_types() {
        let it =
            items("pub fn f(g: &Graph, mut k: usize, (a, b): (u32, u32)) -> Vec<u32> { todo()\n}");
        assert_eq!(it[0].params.len(), 3);
        assert_eq!(it[0].params[0], ("g".to_string(), "&Graph".to_string()));
        assert_eq!(it[0].params[1], ("k".to_string(), "usize".to_string()));
        assert_eq!(it[0].ret.as_deref(), Some("Vec<u32>"));
    }

    #[test]
    fn methods_inside_impls_carry_owner_and_trait() {
        let src = "\
struct S;
impl S {
    pub fn inherent(&self) -> u32 { 1 }
}
impl KernelState for S {
    const FORMAT_VERSION: u32 = 1;
    fn decode(r: &mut R) -> Self { r.expect_version(1) }
}
";
        let it = items(src);
        let inherent = it.iter().find(|i| i.name == "inherent").expect("method");
        assert_eq!(inherent.owner.as_deref(), Some("S"));
        assert_eq!(inherent.trait_name, None);
        assert!(inherent.params.is_empty(), "self receiver is skipped");
        let imp = it
            .iter()
            .find(|i| i.kind == ItemKind::Impl && i.trait_name.is_some())
            .expect("trait impl");
        assert_eq!(imp.name, "S");
        assert_eq!(imp.trait_name.as_deref(), Some("KernelState"));
        let decode = it.iter().find(|i| i.name == "decode").expect("method");
        assert_eq!(decode.trait_name.as_deref(), Some("KernelState"));
        let fv = it
            .iter()
            .find(|i| i.name == "FORMAT_VERSION")
            .expect("const");
        assert_eq!(fv.kind, ItemKind::Const);
        assert_eq!(fv.owner.as_deref(), Some("S"));
    }

    #[test]
    fn generic_impls_resolve_names() {
        let it = items("impl<C: DeadlineClock + ?Sized> DeadlineClock for Arc<C> { fn expired(&self) -> bool { true } }");
        assert_eq!(it[0].kind, ItemKind::Impl);
        assert_eq!(it[0].name, "Arc");
        assert_eq!(it[0].trait_name.as_deref(), Some("DeadlineClock"));
    }

    #[test]
    fn cfg_test_containment() {
        let src = "\
pub fn real() {}
#[cfg(test)]
mod tests {
    pub fn helper() {}
    #[test]
    fn t() {}
}
#[cfg(not(test))]
fn shipped() {}
";
        let it = items(src);
        assert!(!it.iter().find(|i| i.name == "real").expect("real").in_test);
        assert!(
            it.iter()
                .find(|i| i.name == "helper")
                .expect("helper")
                .in_test
        );
        assert!(it.iter().find(|i| i.name == "t").expect("t").in_test);
        assert!(
            !it.iter().find(|i| i.name == "shipped").expect("s").in_test,
            "cfg(not(test)) is not a test gate"
        );
    }

    #[test]
    fn inline_module_paths() {
        let src = "pub mod outer { pub mod inner { pub fn leaf() {} } }";
        let it = items(src);
        let leaf = it.iter().find(|i| i.name == "leaf").expect("leaf");
        assert_eq!(leaf.module_path, vec!["outer", "inner"]);
    }

    #[test]
    fn const_initializer_braces_do_not_open_bodies() {
        let src = "pub const X: S = S { a: 1 };\npub fn after() {}\n";
        let it = items(src);
        assert_eq!(it.len(), 2);
        assert_eq!(it[1].name, "after");
    }

    #[test]
    fn nested_fns_fold_into_enclosing_fn() {
        let src = "\
pub fn outer() {
    fn inner() {}
    inner();
}
pub fn next() {}
";
        let it = items(src);
        let names: Vec<&str> = it.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "next"], "inner is not an item");
    }

    #[test]
    fn signatures_render_normalized() {
        let it = items("pub fn base_sky ( g : & Graph ) -> SkylineResult { x }");
        assert_eq!(it[0].signature, "fn base_sky(g: &Graph) -> SkylineResult");
        let it = items("pub struct Foo<T: Clone> { x: T }");
        assert_eq!(it[0].signature, "struct Foo<T: Clone>");
    }

    #[test]
    fn mod_declarations_without_bodies() {
        let it = items("pub mod generators;\nmod private_mod;\n");
        assert_eq!(it[0].kind, ItemKind::Mod);
        assert_eq!(it[0].name, "generators");
        assert_eq!(it[0].vis, Visibility::Pub);
        assert_eq!(it[1].vis, Visibility::Private);
    }

    #[test]
    fn trait_default_methods_are_items() {
        let src = "pub trait Recorder { fn add(&mut self, c: Counter, delta: u64) {} fn required(&self); }";
        let it = items(src);
        assert_eq!(it[0].kind, ItemKind::Trait);
        let add = it.iter().find(|i| i.name == "add").expect("add");
        assert_eq!(add.owner.as_deref(), Some("Recorder"));
        assert!(it.iter().any(|i| i.name == "required"));
    }
}
