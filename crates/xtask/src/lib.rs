//! # nsky-xtask
//!
//! First-party static analysis for the neighborhood-skyline workspace:
//! repo-specific policy rules that the stock toolchain (`rustc` lints +
//! clippy) cannot express, enforced by `cargo run -p nsky-xtask -- lint`
//! and by `scripts/verify.sh`. See DESIGN.md §8 for the policy table.
//!
//! Policies a stock lint can express are not re-implemented here. The
//! retired codes point at their replacements: R2 `panic-free` and R5
//! `no-stdout` are clippy's `unwrap_used`/`expect_used`/`panic`/
//! `print_stdout`/`print_stderr`/`exit`, warned at each library crate
//! root (`clippy.toml` exempts tests); R3 `safety-comment` is
//! `unsafe_code = "forbid"` plus `clippy::undocumented_unsafe_blocks`;
//! R4 `doc-public` is `missing_docs` plus `unreachable_pub`; R7
//! `budget-check` folded into R13. Those codes, like R16's, stay
//! unassigned.
//!
//! The rules:
//!
//! | rule | name | what it enforces |
//! |------|------|------------------|
//! | R1 | `no-registry-deps`  | library crates declare zero registry dependencies (workspace-path deps only), keeping tier-1 resolvable offline |
//! | R6 | `design-drift`      | ablation/config flags named in DESIGN.md §6 exist in source |
//! | R8 | `snapshot-versioned` | every `impl KernelState for` block declares a `FORMAT_VERSION` const and calls `expect_version(` in `decode` |
//! | R9 | `obs-instrumented`  | every kernel module exposes at least one public entry point whose signature takes an `ExecutionContext` (or, for the server engine, a `Recorder`) |
//! | R10 | `cast-audit`       | potentially-lossy `as` casts in library crates carry a `// CAST: <why in range>` justification (or use `try_from`/`From`) |
//! | R11 | `atomic-ordering`  | atomic ops in the concurrency modules name their `Ordering` explicitly with an `// ORDERING:` rationale; `Relaxed` on cross-thread completion/cancel flags is an error |
//! | R12 | `api-surface`      | each library crate's public-item surface matches its committed `api/<crate>.surface` baseline (`cargo xtask api --bless` to accept changes) |
//! | R13 | `poll-reachability` | every loop body in kernel modules reaches a budget poll on all non-early-exit paths, transitively through helpers; a suppression on the fn line waives all of its loops |
//! | R14 | `bounded-recursion` | recursion cycles in the kernel crates carry a depth/budget parameter or a `// RECURSION:` termination argument |
//! | R15 | `hot-loop-alloc`   | loop bodies in `// HOT:`-marked functions do not allocate without an `// ALLOC:` justification |
//! | R17 | `lock-order`       | the acquired-while-holding graph over the named `Mutex` fields is acyclic; `cargo xtask locks --check` diffs it against the committed `api/locks.report` |
//! | R18 | `guard-held-across-blocking` | no kernel entry, socket/file I/O, condvar wait, sleep or thread spawn/join while a `MutexGuard` is live, unless `// GUARD:`-justified (`Shared::epoch`/`queue` findings are unsuppressible) |
//! | R19 | `condvar-discipline` | every `Condvar::wait` sits in a predicate-retesting loop; every `notify_*` holds the paired mutex |
//! | R20 | `thread-lifecycle` | every non-test `spawn` is scoped, joined on all paths, escapes as a handle in a joining crate, or carries a `// DETACH:` justification |
//!
//! A violation can be suppressed at the site with an inline comment
//! carrying a justification:
//!
//! ```text
//! // nsky-lint: allow(cast-audit) — invariant: pool ≤ n, and n fits in u32
//! ```
//!
//! (`#` comments in `Cargo.toml` use the same syntax.) The suppression
//! applies to the same line or the line directly below it, and an empty
//! justification is itself a violation.
//!
//! The engine is plain `std` (the dependency policy applies to the tools
//! that enforce it) and is driven entirely by a workspace-root path, so
//! the fixture suites under `fixtures/` exercise every rule on miniature
//! workspaces.
//!
//! Since PR 5 the engine is syntax-aware: every source-level rule runs
//! on a real lexed token stream ([`lex`]) and a scanned item tree
//! ([`scan_items`]) rather than blanked line text, so raw strings,
//! nested block comments, `'a` lifetimes vs `'a'` char literals and
//! multi-line declarations are all handled exactly.
//!
//! Since PR 6 it is also flow-aware: [`cfg`] builds a brace-matched
//! block/branch/loop tree with exit edges (`return`/`break`/
//! `continue`/`?`) over the token stream, and [`callgraph`] indexes
//! every workspace function with its call targets, so R13–R15 reason
//! about *paths* (does every continuing path through this loop body
//! reach a poll?) rather than token presence.

use std::fmt;
use std::path::{Path, PathBuf};

mod atomics;
pub mod callgraph;
mod casts;
pub mod cfg;
mod flow;
mod items;
mod lex;
mod locks;
mod manifest;
mod rules;
mod source;
pub mod surface;

pub use locks::locks_report;

pub use items::{scan_items, Item, ItemKind, Visibility};
pub use lex::{lex, Token, TokenKind};
pub use source::SourceFile;

/// The library crates: the ones the source rules scan, and whose
/// `lib.rs` warns clippy's panic/console lints. `bench`, `cli` and
/// `xtask` itself are tools: they may print, exit and pull workspace
/// dev-paths, but they still get the workspace lint tables.
pub const LIBRARY_CRATES: &[&str] = &[
    "graph",
    "bloom",
    "core",
    "setjoin",
    "centrality",
    "clique",
    "datasets",
    "server",
];

/// The policy rules, in DESIGN.md §8 order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: library crates declare zero registry dependencies.
    NoRegistryDeps,
    /// R6: DESIGN.md §6 ablation/config flags exist in source.
    DesignDrift,
    /// R8: every `impl KernelState for` block carries a `FORMAT_VERSION`
    /// const and checks it on decode via `expect_version(` (or carries a
    /// justified suppression), so no snapshot state can be deserialized
    /// without a version gate.
    SnapshotVersioned,
    /// R9: every kernel module exposes at least one non-test public
    /// entry point whose signature takes an `ExecutionContext` (or, for
    /// the server engine, a `Recorder`), or carries a justified
    /// suppression, so no kernel can land without a way to extract
    /// counters and phase timings from it.
    ObsInstrumented,
    /// R10: every potentially-lossy `as` cast in library crates carries
    /// a `// CAST: <why the value is in range>` justification (or a
    /// suppression), nudging new code toward `try_from`/`From`. Lossless
    /// widenings (`u32 as usize`, `u8 as u64`, …) are exempt.
    CastAudit,
    /// R11: every atomic operation in the concurrency-bearing modules
    /// names its `Ordering` explicitly and carries an `// ORDERING:
    /// <happens-before rationale>` comment; `Ordering::Relaxed` on a
    /// cross-thread completion/cancel flag is an error (a suppression
    /// cannot waive correctness, only the comment-form requirements).
    AtomicOrdering,
    /// R12: each library crate's public-item surface (extracted by
    /// `cargo xtask api`) matches the committed `api/<crate>.surface`
    /// baseline, so accidental breaking changes surface as reviewed
    /// diffs. `cargo xtask api --bless` accepts intentional changes.
    ApiSurface,
    /// R13: every loop body in a kernel module reaches a budget poll on
    /// all non-early-exit paths — a `.check(` that only executes inside
    /// one branch arm does not cover the fallthrough iteration. Polls
    /// are credited transitively through helper calls whose own bodies
    /// poll on all paths (bounded call depth). A function that never
    /// polls gets one finding per loop; a suppression on its `fn` line
    /// argues a bound for the whole function and waives all of them.
    PollReachability,
    /// R14: any recursion cycle in the kernel crates' call graph must
    /// carry a depth/budget/fuel parameter (or a `BudgetTicker`/
    /// `ExecutionBudget` carrier), or argue termination with a
    /// `// RECURSION:` comment near the declaration.
    BoundedRecursion,
    /// R15: loop bodies in functions marked with a `// HOT:` comment may
    /// not call allocating constructors (`Vec::new`, `push`, `format!`,
    /// `to_vec`, `clone`, map/set inserts, …) without an `// ALLOC:`
    /// justification at the site — the enforcement rail for the
    /// allocation-free hot-path discipline (ROADMAP item 2).
    HotLoopAlloc,
    /// R17: the acquired-while-holding graph over the workspace's named
    /// `Mutex` fields (guard-live regions, nested and transitive
    /// acquisitions through the call graph) contains no cycle. The
    /// blessed graph is committed as `api/locks.report` and diffed by
    /// `cargo xtask locks --check` (`--bless` to accept changes).
    LockOrder,
    /// R18: no kernel entry point, socket/file I/O, `Condvar` wait,
    /// sleep or thread spawn/join is reachable while a `MutexGuard` is
    /// live, unless justified with a `// GUARD:` marker at the
    /// acquisition or blocking site. Findings under the server's
    /// `epoch`/`queue` locks are unsuppressible (they sit on the
    /// serving path), mirroring R11's Relaxed-flag case.
    GuardBlocking,
    /// R19: every `Condvar::wait` sits in a loop that re-tests its
    /// predicate (spurious wakeups fall through otherwise), and every
    /// `notify_*` happens while the paired mutex — inferred from
    /// `cv.wait(guard)` sightings — is held (a waiter between its
    /// predicate check and its wait would miss the wakeup otherwise).
    CondvarDiscipline,
    /// R20: every `spawn` in non-test library code is accounted for:
    /// scoped (`thread::scope`), joined on all continuing paths (the
    /// R13 all-paths lattice with `join` as the primitive), escaping as
    /// a `JoinHandle` in a crate that joins elsewhere, or justified
    /// with a `// DETACH:` marker.
    ThreadLifecycle,
}

impl Rule {
    /// The stable rule name used in reports and `allow(...)` suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoRegistryDeps => "no-registry-deps",
            Rule::DesignDrift => "design-drift",
            Rule::SnapshotVersioned => "snapshot-versioned",
            Rule::ObsInstrumented => "obs-instrumented",
            Rule::CastAudit => "cast-audit",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::ApiSurface => "api-surface",
            Rule::PollReachability => "poll-reachability",
            Rule::BoundedRecursion => "bounded-recursion",
            Rule::HotLoopAlloc => "hot-loop-alloc",
            Rule::LockOrder => "lock-order",
            Rule::GuardBlocking => "guard-held-across-blocking",
            Rule::CondvarDiscipline => "condvar-discipline",
            Rule::ThreadLifecycle => "thread-lifecycle",
        }
    }

    /// The short code (`r1` … `r20`) used by `lint --rule` and the
    /// DESIGN.md §8 table. Codes are fixed, never positional: retired
    /// rules' codes (`r2`–`r5`, `r7`, `r16`) stay unassigned so later
    /// codes keep their meaning.
    pub fn code(self) -> &'static str {
        match self {
            Rule::NoRegistryDeps => "r1",
            Rule::DesignDrift => "r6",
            Rule::SnapshotVersioned => "r8",
            Rule::ObsInstrumented => "r9",
            Rule::CastAudit => "r10",
            Rule::AtomicOrdering => "r11",
            Rule::ApiSurface => "r12",
            Rule::PollReachability => "r13",
            Rule::BoundedRecursion => "r14",
            Rule::HotLoopAlloc => "r15",
            Rule::LockOrder => "r17",
            Rule::GuardBlocking => "r18",
            Rule::CondvarDiscipline => "r19",
            Rule::ThreadLifecycle => "r20",
        }
    }

    /// Looks a rule up by its stable name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::all().iter().copied().find(|r| r.name() == name)
    }

    /// Every rule, in report order.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::NoRegistryDeps,
            Rule::DesignDrift,
            Rule::SnapshotVersioned,
            Rule::ObsInstrumented,
            Rule::CastAudit,
            Rule::AtomicOrdering,
            Rule::ApiSurface,
            Rule::PollReachability,
            Rule::BoundedRecursion,
            Rule::HotLoopAlloc,
            Rule::LockOrder,
            Rule::GuardBlocking,
            Rule::CondvarDiscipline,
            Rule::ThreadLifecycle,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One policy violation: `file:line` (1-based), the rule and a message.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Runs every rule against the workspace rooted at `root` and returns
/// the violations sorted by file and line.
///
/// `root` is any directory laid out like this repository: library crates
/// under `crates/<name>` (the subset of [`LIBRARY_CRATES`] that exists),
/// an optional root `Cargo.toml` with `[workspace.dependencies]`, and an
/// optional `DESIGN.md` with a §6 ablation list (R6 is skipped when the
/// file is absent, so rule fixtures stay minimal).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    violations.extend(rules::check_manifests(root)?);
    violations.extend(check_bare_suppressions(root)?);
    violations.extend(rules::check_design_drift(root)?);
    violations.extend(flow::check_flow(root)?);
    violations.extend(rules::check_snapshot_versioned(root)?);
    violations.extend(rules::check_obs_instrumented(root)?);
    violations.extend(casts::check_casts(root)?);
    violations.extend(atomics::check_atomics(root)?);
    violations.extend(surface::check_surfaces(root)?);
    violations.extend(locks::check_locks(root)?);
    violations.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.name().cmp(b.rule.name()))
    });
    Ok(violations)
}

/// A suppression without a justification never suppresses; flag every
/// one in the library crates so it cannot linger as dead policy.
fn check_bare_suppressions(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for (_, src_dir) in library_src_dirs(root) {
        for path in rust_files(&src_dir)? {
            let text = std::fs::read_to_string(&path)?;
            for (idx, raw) in text.lines().enumerate() {
                let (_, bare) = source::parse_suppressions(raw);
                for rule in bare.iter().filter_map(|name| Rule::from_name(name)) {
                    out.push(Violation {
                        file: rel(root, &path),
                        line: idx + 1,
                        rule,
                        message: format!(
                            "`nsky-lint: allow({rule})` without a justification (add `— <reason>`)"
                        ),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// Library crate source directories that exist under `root`.
pub(crate) fn library_src_dirs(root: &Path) -> Vec<(String, PathBuf)> {
    LIBRARY_CRATES
        .iter()
        .map(|c| (c.to_string(), root.join("crates").join(c).join("src")))
        .filter(|(_, dir)| dir.is_dir())
        .collect()
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
pub(crate) fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Strips the workspace root from a path for reporting.
pub(crate) fn rel(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}
