//! `nsky-xtask` — workspace policy tooling.
//!
//! ```text
//! cargo run -p nsky-xtask -- lint [--json] [--rule <rN|name>] [--root <path>]
//! cargo run -p nsky-xtask -- api [--check | --bless] [--root <path>]
//! cargo run -p nsky-xtask -- locks [--check | --bless] [--root <path>]
//! ```
//!
//! `lint` runs the repo-specific policy rules (DESIGN.md §8: R1, R6,
//! R8–R15 and R17–R20; the retired codes r2–r5, r7 and r16 stay
//! unassigned, and naming one is a usage error) against the
//! workspace and exits non-zero if any violation is found;
//! `--rule` restricts the run to one rule for fast local iteration and
//! `--json` emits the findings as a checksum-trailed `RunReport`
//! (schema-versioned, drift-stable: findings sorted by file/line/rule).
//! `api` prints each library crate's public surface; `api --check`
//! fails on drift from the committed `api/<crate>.surface` baselines
//! and `api --bless` regenerates them (the intentional-change flow).
//! `locks` prints the R17 lock landscape (declared mutexes, condvar
//! pairings, acquired-while-holding order edges); `--check` diffs it
//! against the committed `api/locks.report` baseline so any new lock or
//! ordering edge fails loudly, `--bless` regenerates the baseline.
//! `--root` points the engine at another workspace layout (used by the
//! fixture self-tests).

use std::path::PathBuf;
use std::process::ExitCode;

use nsky_skyline::{Completion, RunReport};
use nsky_xtask::{lint_workspace, locks_report, surface, Rule, Violation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("api") => api(&args[1..]),
        Some("locks") => locks(&args[1..]),
        Some(other) => {
            eprintln!("unknown command `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: cargo run -p nsky-xtask -- lint [--json] [--rule <rN|name>] [--root <path>]");
    eprintln!("       cargo run -p nsky-xtask -- api [--check | --bless] [--root <path>]");
    eprintln!("       cargo run -p nsky-xtask -- locks [--check | --bless] [--root <path>]");
    eprintln!("rules: {}", rule_list());
}

fn rule_list() -> String {
    Rule::all()
        .iter()
        .map(|r| r.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parsed command line: the resolved workspace root, which boolean
/// flags were seen, and the `(option, value)` pairs.
type ParsedArgs = (PathBuf, Vec<String>, Vec<(String, String)>);

/// Parses `--root <path>`, the given boolean flags, and the given
/// valued options (`--opt <value>`), or returns an exit code on error.
fn parse_args(args: &[String], flags: &[&str], valued: &[&str]) -> Result<ParsedArgs, ExitCode> {
    let mut root: Option<PathBuf> = None;
    let mut seen = Vec::new();
    let mut opts = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return Err(ExitCode::from(2));
                }
            },
            other if flags.contains(&other) => seen.push(other.to_string()),
            other if valued.contains(&other) => match it.next() {
                Some(v) => opts.push((other.to_string(), v.clone())),
                None => {
                    eprintln!("{other} requires a value");
                    return Err(ExitCode::from(2));
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    match root.or_else(find_workspace_root) {
        Some(r) => Ok((r, seen, opts)),
        None => {
            eprintln!(
                "could not locate the workspace root (run from inside the repo or pass --root)"
            );
            Err(ExitCode::from(2))
        }
    }
}

/// Renders the lint findings as a schema-versioned `RunReport` with the
/// FNV checksum trailer, so CI consumes the same stream as kernel runs:
/// one counter row per rule (report order) plus a `total`, and one event
/// line per finding, already sorted by file/line/rule.
fn lint_json(violations: &[Violation]) -> String {
    let mut report = RunReport::new("nsky-xtask-lint", 0, Completion::Complete);
    for rule in Rule::all() {
        let n = violations.iter().filter(|v| v.rule == *rule).count() as u64;
        report.counters.push((rule.name().to_string(), n));
    }
    report
        .counters
        .push(("total".to_string(), violations.len() as u64));
    report.events = violations.iter().map(|v| v.to_string()).collect();
    report.to_json()
}

fn lint(args: &[String]) -> ExitCode {
    let (root, flags, opts) = match parse_args(args, &["--json"], &["--rule"]) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let only: Option<Rule> = match opts.iter().find(|(o, _)| o == "--rule") {
        Some((_, v)) => match Rule::from_name(v)
            .or_else(|| Rule::all().iter().copied().find(|r| r.code() == v))
        {
            Some(r) => Some(r),
            None => {
                let codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
                eprintln!(
                    "unknown rule `{v}` (expected one of {} or a rule name)",
                    codes.join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let json = flags.iter().any(|f| f == "--json");
    match lint_workspace(&root) {
        Ok(mut violations) => {
            if let Some(rule) = only {
                violations.retain(|v| v.rule == rule);
            }
            if json {
                println!("{}", lint_json(&violations));
                return if violations.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            if violations.is_empty() {
                match only {
                    Some(rule) => println!("nsky-xtask lint: clean ({rule})"),
                    None => println!("nsky-xtask lint: clean ({})", rule_list()),
                }
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    println!("{v}");
                }
                println!("nsky-xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("nsky-xtask lint: I/O error: {err}");
            ExitCode::from(2)
        }
    }
}

/// The `locks` subcommand: print, check or bless the R17 lock-landscape
/// report (baseline at `api/locks.report`).
fn locks(args: &[String]) -> ExitCode {
    let (root, flags, _) = match parse_args(args, &["--check", "--bless"], &[]) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let report = match locks_report(&root) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("nsky-xtask locks: I/O error: {err}");
            return ExitCode::from(2);
        }
    };
    let baseline_path = root.join("api").join("locks.report");
    if flags.iter().any(|f| f == "--bless") {
        if let Err(err) = std::fs::write(&baseline_path, &report) {
            eprintln!("nsky-xtask locks: I/O error: {err}");
            return ExitCode::from(2);
        }
        println!("nsky-xtask locks: blessed {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }
    if flags.iter().any(|f| f == "--check") {
        let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_default();
        if baseline == report {
            println!(
                "nsky-xtask locks: report matches baseline ({} line(s))",
                report.lines().count()
            );
            return ExitCode::SUCCESS;
        }
        for line in report.lines() {
            if !baseline.lines().any(|b| b == line) {
                println!("+ {line}");
            }
        }
        for line in baseline.lines() {
            if !report.lines().any(|r| r == line) {
                println!("- {line}");
            }
        }
        println!(
            "nsky-xtask locks: report drifts from {} (run `cargo xtask locks --bless` if the change is intentional)",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    }
    print!("{report}");
    ExitCode::SUCCESS
}

fn api(args: &[String]) -> ExitCode {
    let (root, flags, _) = match parse_args(args, &["--check", "--bless"], &[]) {
        Ok(v) => v,
        Err(code) => return code,
    };
    if flags.iter().any(|f| f == "--bless") {
        return match surface::bless_surfaces(&root) {
            Ok(written) => {
                println!(
                    "nsky-xtask api: blessed {} baseline(s): {}",
                    written.len(),
                    written.join(", ")
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("nsky-xtask api: I/O error: {err}");
                ExitCode::from(2)
            }
        };
    }
    if flags.iter().any(|f| f == "--check") {
        return match surface::check_surfaces_cli(&root) {
            Ok(violations) if violations.is_empty() => {
                println!("nsky-xtask api: surfaces match baselines");
                ExitCode::SUCCESS
            }
            Ok(violations) => {
                for v in &violations {
                    println!("{v}");
                }
                println!("nsky-xtask api: {} drift(s)", violations.len());
                ExitCode::FAILURE
            }
            Err(err) => {
                eprintln!("nsky-xtask api: I/O error: {err}");
                ExitCode::from(2)
            }
        };
    }
    match surface::render_surfaces(&root) {
        Ok(s) => {
            print!("{s}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("nsky-xtask api: I/O error: {err}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
