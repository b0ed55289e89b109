//! `nsky-perfbench`: the serving benchmark of `nsky-server`.
//!
//! ```text
//! nsky-perfbench --workload <serve-read|serve-update|serve-large|serve-apps>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A closed-loop client drives a separately spawned daemon and verifies
//! every answer. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer ones.
//! See README.md beside this crate for the metric dictionary.

mod client;
mod inputs;
mod layers;
mod run;
mod stats;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Op, Workload, WORKLOADS};
use run::{merge_counts, run_round, Round, RoundSpec, Window};
use stats::{median, quantile, Trace, P90_MIN_SAMPLES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = flag("--workload")
        .and_then(Workload::by_name)
        .ok_or_else(|| format!("--workload must be one of {names:?}"))?;
    let seed = flag("--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("--seed expects a non-negative integer")?;
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .ok_or("--seconds expects a positive number")?;
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    // `run.sh` builds the daemon into the same directory.
    let server = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("nsky-server");
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsky-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nsky-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-run totals over every round.
struct Totals {
    rounds: Vec<Round>,
    windows: [Window; 2],
    attempted: BTreeMap<Op, u64>,
    failed: BTreeMap<Op, u64>,
    /// Answers checked, and how many of them were wrong.
    checked: u64,
    wrong: u64,
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-trace{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let window_s = args.seconds / w.rounds as f64;
    let mut totals = Totals {
        rounds: Vec::new(),
        windows: Default::default(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        checked: 0,
        wrong: 0,
    };
    for round in 0..w.rounds {
        let spec = RoundSpec {
            workload: w,
            seed: args.seed,
            round,
            window_s,
            traced_run: args.trace,
            server_bin: &args.server,
            work_dir: &work_dir,
        };
        let mut r = run_round(&spec).map_err(|e| format!("round {round}: {e}"))?;
        for m in &r.verdict.messages {
            eprintln!("nsky-perfbench: round {round}: wrong answer: {m}");
        }
        merge_counts(&mut totals.attempted, &r.attempted);
        merge_counts(&mut totals.failed, &r.failed);
        merge_counts(&mut totals.failed, &r.verdict.wrong);
        totals.checked += r.verdict.checked;
        totals.wrong += r.verdict.wrong.values().sum::<u64>();
        for (i, window) in std::mem::take(&mut r.windows).into_iter().enumerate() {
            totals.windows[i].absorb(window);
        }
        totals.rounds.push(r);
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "nsky-perfbench {} seed={} seconds={} trace={} rounds={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.rounds
    );
    let window = &totals.windows[0];
    let _ = writeln!(
        report,
        "{:<10} {:>9} {:>6} {:>7}",
        "op", "attempted", "failed", "samples"
    );
    let mut lines = String::new();
    for op in w.ops() {
        let xs = window.latencies.get(&op).map_or(&[][..], Vec::as_slice);
        let _ = writeln!(
            report,
            "{:<10} {:>9} {:>6} {:>7}",
            op.stem(),
            totals.attempted.get(&op).copied().unwrap_or(0),
            totals.failed.get(&op).copied().unwrap_or(0),
            xs.len()
        );
        let n = xs.len();
        if let Some(p50) = median(xs) {
            let _ = writeln!(lines, "{}_p50_ms {p50:.4} ms (n={n})", op.stem());
        }
        if n >= P90_MIN_SAMPLES {
            let p90 = quantile(xs, 0.9).unwrap_or(0.0);
            let _ = writeln!(lines, "{}_p90_ms {p90:.4} ms (n={n})", op.stem());
        }
    }
    let setup: Vec<f64> = totals.rounds.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = totals.rounds.iter().map(|r| r.peak_rss_mb).collect();
    let ops_per_s = window.completed as f64 / window.seconds.max(1e-9);
    let _ = write!(report, "{lines}");
    let _ = writeln!(
        report,
        "setup_s {:.4} s (median of {setup:.3?})",
        median(&setup).unwrap_or(0.0)
    );
    let _ = writeln!(
        report,
        "ops_per_s {ops_per_s:.2} 1/s ({} requests in {:.2} s)",
        window.completed, window.seconds
    );
    let _ = writeln!(
        report,
        "peak_rss_mb {:.2} MB (median of {rss:.1?})",
        median(&rss).unwrap_or(0.0)
    );

    let attempted: u64 = totals.attempted.values().sum();
    let failed: u64 = totals.failed.values().sum();
    let mut metrics: Vec<layers::Metric> = Vec::new();
    if args.trace {
        let _ = writeln!(
            report,
            "(traced run: the figures above are its untraced halves)"
        );
        metrics = per_layer(args, &mut totals, &mut report)?;
    } else {
        metrics.push(("setup_s".into(), median(&setup).unwrap_or(0.0), "s"));
        metrics.push((
            "skyline_p50_ms".into(),
            window.p50(Op::Skyline).unwrap_or(0.0),
            "ms",
        ));
        metrics.push(("ops_per_s".into(), ops_per_s, "1/s"));
        metrics.push(("peak_rss_mb".into(), median(&rss).unwrap_or(0.0), "MB"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        report,
        "verification: {} checks, {} wrong",
        totals.checked, totals.wrong
    );
    let correct = failed == 0;
    let mut stdout = std::io::stdout().lock();
    let _ = write!(stdout, "{report}");
    writeln!(
        stdout,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
    .map_err(|e| e.to_string())
}

/// The traced run's per-layer metrics: in-process layer calls, response
/// report phases, server counters, trace self times and the tracing
/// overhead (traced against untraced halves of the same rounds).
fn per_layer(
    args: &Args,
    totals: &mut Totals,
    report: &mut String,
) -> Result<Vec<layers::Metric>, String> {
    let w = args.workload;
    let first = &totals.rounds[0];
    let mut out = layers::measure(&w, args.seed, &first.graph, &first.skyline_response);
    let parse: Vec<f64> = totals.rounds.iter().map(|r| r.parse_ms).collect();
    out.push((
        "graph.io.parse_ms".into(),
        median(&parse).unwrap_or(0.0),
        "ms",
    ));

    let mut served: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut bytes = Vec::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut fresh, mut kept) = (Vec::new(), Vec::new());
    let mut trace = Trace::new();
    for r in &mut totals.rounds {
        for (name, xs) in &r.served_phases {
            served.entry(name.clone()).or_default().extend(xs);
        }
        bytes.extend(&r.response_bytes);
        for (k, v) in &r.server_counters {
            *counters.entry(k).or_default() += v;
        }
        if let Some((f, k)) = r.ping_p50_ms {
            fresh.push(f);
            kept.push(k);
        }
        trace.absorb(std::mem::replace(&mut r.trace, Trace::new()));
    }
    for phase in ["filter", "bloom_build", "refine"] {
        let v = served.get(phase).and_then(|xs| median(xs)).unwrap_or(0.0);
        out.push((format!("core.served.{phase}_ms"), v, "ms"));
    }
    out.push((
        "server.response_bytes".into(),
        median(&bytes).unwrap_or(0.0),
        "bytes",
    ));
    let accept_wait = median(&fresh).unwrap_or(0.0) - median(&kept).unwrap_or(0.0);
    out.push(("server.accept_wait_ms".into(), accept_wait, "ms"));
    for (k, v) in counters {
        out.push((format!("server.{k}"), v as f64, "count"));
    }
    let [untraced, traced] = &totals.windows;
    let execute = out
        .iter()
        .find(|m| m.0 == "server.engine.execute_query_ms")
        .map_or(0.0, |m| m.1);
    let sky_untraced = untraced.p50(Op::Skyline).unwrap_or(0.0);
    out.push((
        "server.outside_engine_ms".into(),
        sky_untraced - execute,
        "ms",
    ));

    let self_times = trace.self_times();
    let _ = writeln!(report, "self time per span (count, median ms):");
    for (name, (count, ms)) in &self_times {
        let _ = writeln!(report, "  {name:<22} {count:>7} {ms:>10.4}");
    }
    let wait_self = self_times.get("skyline.wait").map_or(0.0, |t| t.1);
    out.push(("trace.skyline_wait_self_ms".into(), wait_self, "ms"));
    let pct = |t: f64, u: f64| if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
    let ops = |win: &Window| win.completed as f64 / win.seconds.max(1e-9);
    out.push((
        "trace.overhead.skyline_p50_pct".into(),
        pct(traced.p50(Op::Skyline).unwrap_or(0.0), sky_untraced),
        "%",
    ));
    out.push((
        "trace.overhead.ops_per_s_pct".into(),
        pct(ops(traced), ops(untraced)),
        "%",
    ));

    let path =
        PathBuf::from(".bench_work").join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    trace
        .write_jsonl(&mut file)
        .and_then(|()| file.flush())
        .map_err(|e| e.to_string())?;
    let _ = writeln!(
        report,
        "{} spans written to {}",
        trace.len(),
        path.display()
    );
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}
