//! Call-graph builder tests over the two-crate fixture workspace
//! (`fixtures/callgraph`): name resolution order, transitive polling
//! facts, and recursion-cycle detection with witness paths.

use std::path::{Path, PathBuf};

use nsky_xtask::callgraph::{self, CallGraph};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("callgraph")
}

fn graph() -> CallGraph {
    callgraph::build(&fixture_root()).expect("fixture scans")
}

fn idx(g: &CallGraph, name: &str, krate: &str) -> usize {
    g.fns
        .iter()
        .position(|f| f.name == name && f.crate_name == krate)
        .unwrap_or_else(|| panic!("fn {krate}::{name} in fixture"))
}

#[test]
fn resolution_prefers_same_file_then_same_crate_then_unique() {
    let g = graph();
    let edges = g.resolve();

    // Same file beats the cross-crate duplicate.
    let local_caller = idx(&g, "local_caller", "core");
    assert_eq!(edges[local_caller], vec![idx(&g, "shared", "core")]);

    // Same crate (from another file) beats the cross-crate duplicate.
    let extra_caller = idx(&g, "extra_caller", "clique");
    assert_eq!(edges[extra_caller], vec![idx(&g, "shared", "clique")]);

    // A globally unique name resolves across crates.
    let cross_caller = idx(&g, "cross_caller", "clique");
    assert_eq!(edges[cross_caller], vec![idx(&g, "core_only", "core")]);

    // Two same-crate candidates with no same-file copy: no edge.
    let ambiguous = idx(&g, "ambiguous_caller", "clique");
    assert!(
        edges[ambiguous].is_empty(),
        "ambiguous `dup` must not resolve"
    );
}

#[test]
fn transitive_polling_facts() {
    let g = graph();
    let all = g.polls_all_paths_names();
    assert!(
        all.contains("deep_poll"),
        "a body that is exactly the poll qualifies on all paths"
    );
    assert!(
        all.contains("local_poller"),
        "a poll in condition position covers both branches"
    );
    assert!(!all.contains("crate_caller"));
}

#[test]
fn recursion_cycles_carry_witness_paths() {
    let g = graph();
    let recursive = g.recursive_fns(&["core", "clique"]);
    let by_name: Vec<(&str, &[String])> = recursive
        .iter()
        .map(|(i, path)| (g.fns[*i].name.as_str(), path.as_slice()))
        .collect();
    let ping = by_name
        .iter()
        .find(|(n, _)| *n == "ping")
        .expect("ping is on a cycle");
    assert_eq!(ping.1, ["ping", "pong", "ping"]);
    assert!(by_name.iter().any(|(n, _)| *n == "pong"));
    assert!(
        !by_name.iter().any(|(n, _)| *n == "local_caller"),
        "non-recursive fns are not reported"
    );

    // Crate scoping: a cycle confined to clique disappears when only
    // core is in scope.
    assert!(
        g.recursive_fns(&["core"]).is_empty(),
        "ping/pong live in clique"
    );
}
