//! The policy rules R1, R6, R8 and R9 (see crate docs and DESIGN.md §8).
//!
//! Source-level rules run on the lexed token stream and the scanned item
//! tree ([`crate::lex`], [`crate::items`]) — not on blanked text — so a
//! string literal or comment can never fake a match. R10 (cast audit),
//! R11 (atomic orderings) and R12 (API surface) live in
//! [`crate::casts`], [`crate::atomics`] and [`crate::surface`].

use std::path::Path;

use crate::items::{Item, ItemKind, Visibility};
use crate::lex::Token;
use crate::manifest::{is_path_dep, is_workspace_ref, Manifest};
use crate::source::SourceFile;
use crate::{library_src_dirs, rel, rust_files, Rule, Violation, LIBRARY_CRATES};

/// R1 `no-registry-deps`: library crates must resolve every dependency
/// (normal, dev and build) inside the workspace, so tier-1 builds with
/// no network. A dependency passes when it is an inline `path` dep or a
/// `workspace = true` reference to a root `[workspace.dependencies]`
/// entry that is itself a path dep.
pub(crate) fn check_manifests(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    let workspace_path_deps: Vec<String> = if root_manifest.is_file() {
        Manifest::read(&root_manifest)?
            .entries("workspace.dependencies")
            .filter(|e| is_path_dep(e) || e.value.contains("path"))
            .map(|e| e.key.clone())
            .collect()
    } else {
        Vec::new()
    };

    for name in LIBRARY_CRATES {
        let path = root.join("crates").join(name).join("Cargo.toml");
        if !path.is_file() {
            continue;
        }
        let man = Manifest::read(&path)?;
        for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
            for entry in man.entries(section) {
                let ok = if is_path_dep(entry) {
                    true
                } else {
                    let (is_ws, base) = is_workspace_ref(entry);
                    is_ws && workspace_path_deps.contains(&base)
                };
                if !ok && !manifest_suppressed(&man, Rule::NoRegistryDeps, entry.line) {
                    out.push(Violation {
                        file: rel(root, &path),
                        line: entry.line,
                        rule: Rule::NoRegistryDeps,
                        message: format!(
                            "library crate `{name}` declares non-workspace dependency `{}` in [{section}] (registry deps break the hermetic tier-1 build)",
                            entry.key
                        ),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// Whether a manifest line (or the one above it) carries a justified
/// `# nsky-lint: allow(<rule>)` suppression.
fn manifest_suppressed(man: &Manifest, rule: Rule, lineno: usize) -> bool {
    let hit = |idx: usize| {
        man.raw_lines.get(idx).is_some_and(|raw| {
            let (suppressed, _) = crate::source::parse_suppressions(raw);
            suppressed.iter().any(|s| s == rule.name())
        })
    };
    hit(lineno - 1) || (lineno >= 2 && hit(lineno - 2))
}

/// R6 `design-drift`: every ablation/config identifier named in
/// DESIGN.md §6 must occur somewhere under `crates/` (source, benches
/// or binaries), so the documented levers cannot silently disappear.
pub(crate) fn check_design_drift(root: &Path) -> std::io::Result<Vec<Violation>> {
    let design = root.join("DESIGN.md");
    if !design.is_file() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&design)?;
    let flags = section6_flags(&text);
    if flags.is_empty() {
        return Ok(Vec::new());
    }

    // One concatenated haystack over every Rust file under crates/.
    let mut haystack = String::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if dir.is_dir() {
                for path in rust_files(&dir)? {
                    haystack.push_str(&std::fs::read_to_string(&path)?);
                }
            }
        }
    }

    let mut out = Vec::new();
    for (flag, lineno) in flags {
        if !haystack.contains(&flag) {
            out.push(Violation {
                file: rel(root, &design),
                line: lineno,
                rule: Rule::DesignDrift,
                message: format!(
                    "DESIGN.md §6 names `{flag}` but it does not occur anywhere under crates/ (doc drift)"
                ),
            });
        }
    }
    Ok(out)
}

/// Extracts candidate flag identifiers from DESIGN.md §6: backticked
/// snake_case identifiers (underscore required, so prose words and type
/// names are skipped). Returns `(identifier, line)` pairs, deduplicated.
fn section6_flags(text: &str) -> Vec<(String, usize)> {
    let mut flags: Vec<(String, usize)> = Vec::new();
    let mut in_section6 = false;
    for (idx, line) in text.lines().enumerate() {
        if line.starts_with("## ") {
            in_section6 = line.starts_with("## 6");
            continue;
        }
        if !in_section6 {
            continue;
        }
        for span in backtick_spans(line) {
            for token in span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if token.contains('_')
                    && token.len() > 2
                    && token.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && !flags.iter().any(|(f, _)| f == token)
                {
                    flags.push((token.to_string(), idx + 1));
                }
            }
        }
    }
    flags
}

/// The contents of `` `...` `` spans in one line.
fn backtick_spans(line: &str) -> Vec<&str> {
    line.split('`').skip(1).step_by(2).collect()
}

/// R13 `poll-reachability`: the kernel modules whose hot loops the
/// execution budget must be able to interrupt (workspace-relative paths;
/// a fixture or partial workspace simply omits the ones it does not
/// exercise). The rule runs in [`crate::flow`].
pub(crate) const KERNEL_MODULES: &[&str] = &[
    "crates/core/src/base.rs",
    "crates/core/src/refine.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/dynamic.rs",
    "crates/clique/src/bnb.rs",
    "crates/clique/src/mcbrb.rs",
    "crates/clique/src/topk.rs",
    "crates/centrality/src/greedy.rs",
];

/// Whether the token span of `item` contains a loop keyword.
pub(crate) fn span_has_loop(file: &SourceFile, item: &Item) -> bool {
    span_tokens(file, item).any(|t| t.is_ident("for") || t.is_ident("while") || t.is_ident("loop"))
}

/// Non-comment tokens within an item's span.
fn span_tokens<'a>(file: &'a SourceFile, item: &Item) -> impl Iterator<Item = &'a Token> {
    let (a, b) = item.span;
    file.tokens[a..=b].iter().filter(|t| !t.is_comment())
}

/// R8 `snapshot-versioned`: every `impl KernelState for` block in a
/// library crate must declare a `FORMAT_VERSION` const and call
/// `expect_version(` (in its `decode`), or carry a justified suppression
/// on the `impl` line or the line above. Recovery never trusts the disk:
/// a state type whose decoder skips the version gate could reinterpret
/// bytes written by an older layout as live kernel state.
pub(crate) fn check_snapshot_versioned(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for (crate_name, src_dir) in library_src_dirs(root) {
        for path in rust_files(&src_dir)? {
            let text = std::fs::read_to_string(&path)?;
            if !text.contains("impl KernelState for") {
                continue;
            }
            let file = SourceFile::scan(&text);
            for item in &file.items {
                if item.kind != ItemKind::Impl
                    || item.trait_name.as_deref() != Some("KernelState")
                    || item.in_test
                    || file.is_suppressed(Rule::SnapshotVersioned, item.line)
                {
                    continue;
                }
                let has = |name: &str| span_tokens(&file, item).any(|t| t.is_ident(name));
                for (token, why) in [
                    ("FORMAT_VERSION", "declares no `FORMAT_VERSION` const"),
                    ("expect_version", "never calls `expect_version(` on decode"),
                ] {
                    if !has(token) {
                        out.push(Violation {
                            file: rel(root, &path),
                            line: item.line,
                            rule: Rule::SnapshotVersioned,
                            message: format!(
                                "snapshot state `{}` in `{crate_name}` {why} (unversioned decode defeats corruption-tolerant recovery; gate it or justify a suppression)",
                                item.name
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

/// R9 `obs-instrumented`: the modules that must expose an instrumented
/// entry point — the R13 kernel modules plus the two NeiSky application
/// modules (whose hot loops live in the kernels they call, but whose
/// entry points are what the CLI and benches time).
const OBS_MODULES: &[&str] = &[
    "crates/core/src/base.rs",
    "crates/core/src/refine.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/dynamic.rs",
    "crates/clique/src/bnb.rs",
    "crates/clique/src/mcbrb.rs",
    "crates/clique/src/neisky.rs",
    "crates/clique/src/topk.rs",
    "crates/centrality/src/greedy.rs",
    "crates/centrality/src/neisky.rs",
    "crates/server/src/engine.rs",
];

/// R9 `obs-instrumented`: every kernel module with public entry points
/// must have at least one non-test `pub fn` whose signature takes an
/// `ExecutionContext` (the kernel's one entry point, which carries the
/// observability recorder) or a `*Recorder` (the server engine's
/// per-request recorder), or carry a justified suppression on its first
/// public function. Only parameter types count: a fn that builds a
/// context in its body gives its callers no way to observe it. One
/// violation per module — the fix is one `*_with(ctx)` entry point, not
/// one per function.
pub(crate) fn check_obs_instrumented(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for module in OBS_MODULES {
        let path = root.join(module);
        if !path.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let file = SourceFile::scan(&text);
        let pub_fns: Vec<&Item> = file
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn && !i.in_test && i.vis == Visibility::Pub)
            .collect();
        let Some(first) = pub_fns.first() else {
            continue;
        };
        let instrumented = pub_fns.iter().any(|i| {
            i.params.iter().any(|(_, ty)| {
                ty.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|w| w == "ExecutionContext" || w.ends_with("Recorder"))
            })
        });
        if !instrumented && !file.is_suppressed(Rule::ObsInstrumented, first.line) {
            out.push(Violation {
                file: rel(root, &path),
                line: first.line,
                rule: Rule::ObsInstrumented,
                message: format!(
                    "kernel module `{module}` exposes no observability-instrumented public entry point (add a `*_with` fn taking an `ExecutionContext` — or, in the server engine, a `Recorder` — or justify a suppression)"
                ),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        SourceFile::scan(src)
    }

    #[test]
    fn loop_and_check_span_facts() {
        let src = "\
fn looping(xs: &[u32], t: &mut BudgetTicker) -> u32 {
    let mut s = 0;
    for &x in xs {
        if t.check().is_some() { break; }
        s += x;
    }
    s
}
fn no_loop() -> u32 { workforce() }
fn foreach_free() { xs.iter().for_each(|x| f(x)); }
";
        let f = scan(src);
        let fns: Vec<&Item> = f.items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert!(span_has_loop(&f, fns[0]));
        assert!(
            !span_has_loop(&f, fns[1]),
            "workforce() is not a loop keyword"
        );
        assert!(
            !span_has_loop(&f, fns[2]),
            "for_each is an identifier, not the `for` keyword"
        );
    }

    #[test]
    fn section6_extraction() {
        let md = "\
## 5. other
`ignored_flag`
## 6. Design choices
* **bloom width** (`bloom_bits_per_element`) — `ablation_bloom`;
* `RefineConfig::paper_faithful()` turns every lever off.
## 7. next
`also_ignored`
";
        let flags: Vec<String> = section6_flags(md).into_iter().map(|(f, _)| f).collect();
        assert_eq!(
            flags,
            vec!["bloom_bits_per_element", "ablation_bloom", "paper_faithful"]
        );
    }
}
