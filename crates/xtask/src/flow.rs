//! Drivers for the flow-aware rules: R13 `poll-reachability`, R14
//! `bounded-recursion` and R15 `hot-loop-alloc`.
//!
//! R13 asks of every loop in a loop-bearing kernel function: does its
//! body reach a budget poll on *all* non-early-exit paths (directly or
//! through helpers that poll on all paths)? A function that never polls
//! gets one finding per loop, call-free leaf loops included. A
//! `poll-reachability` suppression on the function's line argues a
//! bound for the whole function and waives all of its loops; one on a
//! loop's line waives that loop.

use std::path::Path;

use crate::callgraph::{self, CallGraph};
use crate::cfg::{alloc_sites, loop_body_ranges, FlowAnalysis};
use crate::items::ItemKind;
use crate::rules::{span_has_loop, KERNEL_MODULES};
use crate::{Rule, Violation};

/// The crates whose call graph R14 polices for unbounded recursion —
/// the ones holding kernel search/refine loops.
pub(crate) const KERNEL_CRATES: &[&str] = &["core", "clique", "centrality"];

/// Parameter-name fragments that satisfy R14's bound requirement.
const BOUND_PARAM_NAMES: &[&str] = &["depth", "budget", "fuel"];

/// Parameter types that satisfy R14's bound requirement (a budget
/// carrier threaded through the recursion is a bound).
const BOUND_PARAM_TYPES: &[&str] = &["BudgetTicker", "ExecutionBudget"];

/// Runs R13, R14 and R15 over the workspace at `root`.
pub(crate) fn check_flow(root: &Path) -> std::io::Result<Vec<Violation>> {
    let graph = callgraph::build(root)?;
    let all_path_names = graph.polls_all_paths_names();
    let mut out = Vec::new();

    // R13 over the kernel modules.
    for module in KERNEL_MODULES {
        let module_path = Path::new(module);
        let Some(file) = graph.files.get(module_path) else {
            continue;
        };
        for (i, f) in graph.fns.iter().enumerate() {
            if f.file != module_path || f.in_test {
                continue;
            }
            let item = &file.items[f.item_index];
            if item.kind != ItemKind::Fn || !span_has_loop(file, item) {
                continue;
            }
            if file.is_suppressed(Rule::PollReachability, item.line) {
                continue; // The suppression argued a bound for the whole fn.
            }
            let (code, block) = graph.body(i);
            let fa = FlowAnalysis::new(file, code, &all_path_names);
            // A function that never polls cannot be interrupted at all,
            // so not even its call-free leaf loops are exempt.
            let polls = fa.range_polls(block.range);
            for v in fa.loop_verdicts(block) {
                if (polls && v.satisfied) || file.is_suppressed(Rule::PollReachability, v.line) {
                    continue;
                }
                out.push(Violation {
                    file: f.file.clone(),
                    line: v.line,
                    rule: Rule::PollReachability,
                    message: format!(
                        "`{}` loop in kernel function `{}` can complete an iteration without reaching a budget poll (poll on every non-exit path — a conditional `.check(` does not cover the fallthrough — or justify with a suppression on the loop or the fn)",
                        v.keyword, item.name
                    ),
                });
            }
        }
    }

    out.extend(check_bounded_recursion(&graph));
    out.extend(check_hot_loop_alloc(&graph));
    Ok(out)
}

/// R14 `bounded-recursion`: every function on a recursion cycle within
/// the kernel crates must carry a depth/budget parameter, a
/// `// RECURSION:` termination argument, or a justified suppression.
fn check_bounded_recursion(graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, cycle) in graph.recursive_fns(KERNEL_CRATES) {
        let f = &graph.fns[i];
        let Some(file) = graph.files.get(&f.file) else {
            continue;
        };
        let bounded = f.params.iter().any(|(name, ty)| {
            BOUND_PARAM_NAMES.iter().any(|n| name.contains(n))
                || BOUND_PARAM_TYPES.iter().any(|t| ty.contains(t))
        });
        if bounded
            || file.comment_marker_near("RECURSION:", f.line, 3)
            || file.is_suppressed(Rule::BoundedRecursion, f.line)
        {
            continue;
        }
        out.push(Violation {
            file: f.file.clone(),
            line: f.line,
            rule: Rule::BoundedRecursion,
            message: format!(
                "kernel function `{}` recurses ({}) without a depth/budget parameter (thread a bound through the cycle, or argue termination with a `// RECURSION:` comment)",
                f.name,
                cycle.join(" -> ")
            ),
        });
    }
    out
}

/// R15 `hot-loop-alloc`: loop bodies in `// HOT:`-marked functions may
/// not call allocating constructors without an `// ALLOC:` justification
/// at the site (or a suppression). The marker seeds the allocation-free
/// discipline in the filter/refine/2-hop paths (ROADMAP item 2).
fn check_hot_loop_alloc(graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some(file) = graph.files.get(&f.file) else {
            continue;
        };
        if !file.comment_marker_near("HOT:", f.line, 3) {
            continue;
        }
        let (code, block) = graph.body(i);
        let mut bodies = Vec::new();
        loop_body_ranges(block, &mut bodies);
        let mut sites = std::collections::BTreeMap::new();
        for r in bodies {
            sites.extend(alloc_sites(file, code, r));
        }
        for (line, pattern) in sites.values() {
            if file.comment_marker_near("ALLOC:", *line, 3)
                || file.is_suppressed(Rule::HotLoopAlloc, *line)
            {
                continue;
            }
            out.push(Violation {
                file: f.file.clone(),
                line: *line,
                rule: Rule::HotLoopAlloc,
                message: format!(
                    "`{pattern}` allocates inside a loop of `// HOT:` function `{}` (hoist it out of the loop, or justify with an `// ALLOC:` comment)",
                    f.name
                ),
            });
        }
    }
    out
}
