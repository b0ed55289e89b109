//! Intra-workspace call-graph builder for the flow-aware rules.
//!
//! Scans every library crate ([`crate::LIBRARY_CRATES`]) into a function
//! index and extracts each function's lowercase call targets (free-
//! function and method names — the linter resolves by name, so `x.gain(`
//! and `gain(` both produce the edge `gain`). Resolution prefers a
//! same-file definition, then a same-crate one, then a globally unique
//! one; an ambiguous name produces no edge, which errs on the strict
//! side for every rule built on top.
//!
//! The polling fact R13 needs is computed over the graph to the bounded
//! call depth [`CALL_DEPTH`]: [`CallGraph::polls_all_paths_names`] —
//! functions guaranteed to poll on every continuing path through their
//! body (early returns are exempt fast paths, same as R13's loop
//! analysis). These names credit loop bodies in
//! [`crate::cfg::FlowAnalysis`]. A name qualifies only when *every*
//! function bearing it qualifies, so collisions cannot launder a
//! non-polling helper.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

use crate::cfg::{parse_body, Block, FlowAnalysis};
use crate::items::ItemKind;
use crate::lex::TokenKind;
use crate::source::SourceFile;
use crate::{library_src_dirs, rel, rust_files};

/// Bounded call depth for the transitive polling fixpoints: a poll is
/// credited through at most this many helper hops.
pub const CALL_DEPTH: usize = 3;

/// One function in the workspace index.
#[derive(Debug)]
pub struct FnNode {
    /// The crate the function lives in (`core`, `clique`, …).
    pub crate_name: String,
    /// Workspace-relative source path.
    pub file: PathBuf,
    /// Function name (methods use their bare name).
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Whether the function lies under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
    /// `(pattern, rendered type)` per parameter.
    pub params: Vec<(String, String)>,
    /// Callee names extracted from the body, deduplicated.
    pub calls: Vec<String>,
    /// The subset of `calls` that are free calls (`name(`) or
    /// `self.name(` methods — the only forms [`CallGraph::resolve`]
    /// turns into edges. Method calls on other receivers (`x.len(`) and
    /// qualified paths (`Vec::new(`) routinely collide with workspace
    /// names (`Ord::cmp` delegation, `Vec::len` forwarding) and would
    /// fabricate recursion cycles that do not exist.
    pub calls_strict: Vec<String>,
    /// Index of the item within its file's item list.
    pub item_index: usize,
}

/// The scanned workspace: files plus the function index.
pub struct CallGraph {
    /// Scanned sources keyed by workspace-relative path.
    pub files: HashMap<PathBuf, SourceFile>,
    /// Every function found, in scan order.
    pub fns: Vec<FnNode>,
    /// Parsed bodies, index-aligned with `fns`.
    bodies: Vec<(Vec<usize>, Block)>,
}

/// Builds the call graph for the library crates under `root`.
pub fn build(root: &Path) -> std::io::Result<CallGraph> {
    let mut files = HashMap::new();
    let mut fns = Vec::new();
    let mut bodies = Vec::new();
    for (crate_name, src_dir) in library_src_dirs(root) {
        for path in rust_files(&src_dir)? {
            let text = std::fs::read_to_string(&path)?;
            let file = SourceFile::scan(&text);
            let rel_path = rel(root, &path);
            for (item_index, item) in file.items.iter().enumerate() {
                if item.kind != ItemKind::Fn {
                    continue;
                }
                let body = parse_body(&file, (item.sig_end, item.span.1));
                let (calls, calls_strict) = call_targets(&file, (item.sig_end, item.span.1));
                fns.push(FnNode {
                    crate_name: crate_name.clone(),
                    file: rel_path.clone(),
                    name: item.name.clone(),
                    line: item.line,
                    in_test: item.in_test,
                    params: item.params.clone(),
                    calls,
                    calls_strict,
                    item_index,
                });
                bodies.push(body);
            }
            files.insert(rel_path, file);
        }
    }
    Ok(CallGraph { files, fns, bodies })
}

/// Lowercase call and method targets in a raw token range, deduplicated
/// in first-seen order. Macro invocations are skipped (they are never
/// workspace functions). Returns `(all, strict)`: `all` is every call
/// form (used by the name-based polling fixpoints), `strict` keeps only
/// free calls and `self.`-methods (used by edge resolution — see
/// [`FnNode::calls_strict`]).
pub fn call_targets(file: &SourceFile, (a, b): (usize, usize)) -> (Vec<String>, Vec<String>) {
    let mut all: Vec<String> = Vec::new();
    let mut strict: Vec<String> = Vec::new();
    let code: Vec<usize> = (a..=b.min(file.tokens.len().saturating_sub(1)))
        .filter(|&i| !file.tokens[i].is_comment())
        .collect();
    for k in 0..code.len() {
        let t = &file.tokens[code[k]];
        if t.kind != TokenKind::Ident
            || !t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        {
            continue;
        }
        const KEYWORDS: &[&str] = &[
            "if", "while", "for", "match", "loop", "return", "in", "move", "as", "break",
            "continue", "unsafe", "let", "else", "fn", "ref", "mut",
        ];
        if KEYWORDS.iter().any(|kw| t.is_ident(kw)) {
            continue;
        }
        let Some(&next) = code.get(k + 1) else {
            continue;
        };
        if !file.tokens[next].is_punct("(") {
            continue;
        }
        if !all.contains(&t.text) {
            all.push(t.text.clone());
        }
        let prev = k.checked_sub(1).map(|p| &file.tokens[code[p]]);
        let is_method = prev.is_some_and(|p| p.is_punct("."));
        let is_qualified = prev.is_some_and(|p| p.is_punct("::"));
        let on_self = is_method
            && k >= 2
            && file.tokens[code[k - 2]].is_ident("self")
            && (k == 2 || !file.tokens[code[k - 3]].is_punct("."));
        if ((!is_method && !is_qualified) || on_self) && !strict.contains(&t.text) {
            strict.push(t.text.clone());
        }
    }
    (all, strict)
}

impl CallGraph {
    /// The parsed body of function `i` (code-index vector plus block).
    pub fn body(&self, i: usize) -> (&[usize], &Block) {
        let (code, block) = &self.bodies[i];
        (code, block)
    }

    /// Generic any-path name fixpoint: seeds the names of every non-test
    /// function accepted by `seed`, then for ≤ [`CALL_DEPTH`] rounds
    /// adds any non-test function that calls a name already in the set.
    /// Propagation follows only strict call forms (free calls and
    /// `self.`-methods, [`FnNode::calls_strict`]) — bare-name matching
    /// over method/qualified forms would infect every `.load(` and
    /// `Arc::new(` site whenever a workspace fn shares those names.
    /// The concurrency rules use it for "transitively reaches a blocking
    /// primitive". The seed predicate receives the function index (for
    /// [`Self::body`] lookups) and the node.
    pub fn propagate_names(&self, seed: impl Fn(usize, &FnNode) -> bool) -> HashSet<String> {
        let mut set: HashSet<String> = self
            .fns
            .iter()
            .enumerate()
            .filter(|&(i, f)| !f.in_test && seed(i, f))
            .map(|(_, f)| f.name.clone())
            .collect();
        for _ in 0..CALL_DEPTH {
            let mut grew = false;
            for f in &self.fns {
                if !f.in_test
                    && !set.contains(&f.name)
                    && f.calls_strict.iter().any(|c| set.contains(c))
                {
                    set.insert(f.name.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        set
    }

    /// Generic set-valued name fixpoint: each non-test function starts
    /// with the facts `seed` assigns it (index-aligned with `fns`), then
    /// for ≤ [`CALL_DEPTH`] rounds each name unions in the facts of
    /// every callee name. A name's facts are the union over all
    /// functions bearing it — conservative under collisions, matching
    /// the polling fixpoints. R17 uses this for "locks transitively
    /// acquired by a call to `name`".
    pub fn propagate_sets(&self, seed: &[BTreeSet<String>]) -> HashMap<String, BTreeSet<String>> {
        let mut by_name: HashMap<String, BTreeSet<String>> = HashMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_name
                .entry(f.name.clone())
                .or_default()
                .extend(seed[i].iter().cloned());
        }
        for _ in 0..CALL_DEPTH {
            let mut grew = false;
            let mut next = by_name.clone();
            for f in &self.fns {
                if f.in_test {
                    continue;
                }
                let entry = next.entry(f.name.clone()).or_default();
                for callee in &f.calls {
                    if let Some(facts) = by_name.get(callee) {
                        for fact in facts {
                            if entry.insert(fact.clone()) {
                                grew = true;
                            }
                        }
                    }
                }
            }
            by_name = next;
            if !grew {
                break;
            }
        }
        by_name
    }

    /// Names of functions guaranteed to poll on every continuing path
    /// through their body, computed by a fixpoint of ≤ [`CALL_DEPTH`]
    /// rounds over the flow analysis. A name qualifies only when every
    /// non-test function bearing it qualifies.
    pub fn polls_all_paths_names(&self) -> HashSet<String> {
        let mut set: HashSet<String> = HashSet::new();
        for _ in 0..CALL_DEPTH {
            let mut qualified: HashMap<&str, bool> = HashMap::new();
            for (i, f) in self.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let Some(file) = self.files.get(&f.file) else {
                    continue;
                };
                let (code, block) = self.body(i);
                let fa = FlowAnalysis::new(file, code, &set);
                let polls = fa.block_flow(block) == crate::cfg::Flow::Polls;
                qualified
                    .entry(f.name.as_str())
                    .and_modify(|q| *q &= polls)
                    .or_insert(polls);
            }
            let next: HashSet<String> = qualified
                .into_iter()
                .filter(|&(_, q)| q)
                .map(|(n, _)| n.to_string())
                .collect();
            if next == set {
                break;
            }
            set = next;
        }
        set
    }

    /// Resolved call edges: for each function, the indices of its
    /// callees. Only strict call forms ([`FnNode::calls_strict`]) become
    /// edges; resolution prefers same-file, then same-crate, then a
    /// globally unique definition, and an ambiguous name produces no
    /// edge.
    pub fn resolve(&self) -> Vec<Vec<usize>> {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        self.fns
            .iter()
            .map(|f| {
                let mut edges = Vec::new();
                for callee in &f.calls_strict {
                    let Some(cands) = by_name.get(callee.as_str()) else {
                        continue;
                    };
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| self.fns[c].file == f.file)
                        .collect();
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| self.fns[c].crate_name == f.crate_name)
                        .collect();
                    let pick = if same_file.len() == 1 {
                        Some(same_file[0])
                    } else if same_crate.len() == 1 {
                        Some(same_crate[0])
                    } else if cands.len() == 1 {
                        Some(cands[0])
                    } else {
                        None
                    };
                    if let Some(c) = pick {
                        edges.push(c);
                    }
                }
                edges.sort_unstable();
                edges.dedup();
                edges
            })
            .collect()
    }

    /// Functions on a recursion cycle within the given crates, with a
    /// witness cycle path (function names, starting and ending at the
    /// function itself). Test functions are skipped on both ends.
    pub fn recursive_fns(&self, crates: &[&str]) -> Vec<(usize, Vec<String>)> {
        let edges = self.resolve();
        let in_scope = |i: usize| {
            let f = &self.fns[i];
            !f.in_test && crates.contains(&f.crate_name.as_str())
        };
        let mut out = Vec::new();
        for start in 0..self.fns.len() {
            if !in_scope(start) {
                continue;
            }
            // BFS back to `start` through in-scope nodes, tracking
            // parents for the witness path.
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut queue: Vec<usize> = vec![start];
            let mut seen: HashSet<usize> = HashSet::new();
            let mut found = false;
            let mut qi = 0;
            'bfs: while qi < queue.len() {
                let u = queue[qi];
                qi += 1;
                for &v in &edges[u] {
                    if !in_scope(v) {
                        continue;
                    }
                    if v == start {
                        parent.insert(usize::MAX, u);
                        found = true;
                        break 'bfs;
                    }
                    if seen.insert(v) {
                        parent.insert(v, u);
                        queue.push(v);
                    }
                }
            }
            if found {
                let mut path = vec![self.fns[start].name.clone()];
                let mut cur = parent[&usize::MAX];
                let mut tail = Vec::new();
                while cur != start {
                    tail.push(self.fns[cur].name.clone());
                    cur = parent[&cur];
                }
                tail.reverse();
                path.extend(tail);
                path.push(self.fns[start].name.clone());
                out.push((start, path));
            }
        }
        out
    }
}
