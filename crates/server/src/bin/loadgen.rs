//! `nsky-loadgen` — open-loop load generator for `nsky-server`.
//!
//! Schedules request arrivals at a fixed rate (independent of
//! completions, so a slow server accrues queueing latency instead of
//! silently throttling the generator), mixes in a configurable fraction
//! of byzantine clients (torn frames, garbage bytes, oversized frames,
//! connect-and-close), and reports p50/p99 latency and throughput. With
//! `NSKY_BENCH_JSON=<dir>` the summary is also written as
//! `BENCH_server.json` in the RunReport v1 schema used by
//! `nsky_bench::micro`. `NSKY_QUICK=1` shrinks the run for CI smoke.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nsky_server::{Server, ServerConfig};
use nsky_skyline::obs::RunReport;
use nsky_skyline::Completion;

const HELP: &str = "\
nsky-loadgen — open-loop load generator for nsky-server

USAGE:
    nsky-loadgen [OPTIONS]

OPTIONS:
    --dataset <NAME>       graph for the in-process server
                           (karate, bombing, scalability stand-in)
                           [default: karate]
    --addr <HOST:PORT>     target an already-running server instead of
                           spawning one in-process
    --requests <N>         total arrivals              [default: 200]
    --concurrency <C>      client threads              [default: 8]
    --rate <R>             arrivals per second         [default: 200]
    --fault-mix <PCT>      percent byzantine arrivals  [default: 0]
    --op <OP>              request op                  [default: skyline]
    --timeout-ms <N>       per-request server deadline [default: 1000]
    --help                 print this help

NSKY_QUICK=1 shrinks the run; NSKY_BENCH_JSON=<dir> writes
BENCH_server.json (p50/p99/qps in the RunReport v1 schema).
";

/// Shared run state: the arrival cursor and the outcome counters.
/// Latencies are NOT here — each client thread keeps its own `Vec` and
/// returns it through `join`, so the hot path never takes a lock (and
/// `run` never joins while holding one).
struct Run {
    addr: String,
    op: String,
    timeout_ms: u64,
    requests: usize,
    rate: f64,
    fault_pct: u64,
    start: Instant,
    next: AtomicUsize,
    ok: AtomicU64,
    partial: AtomicU64,
    errors: AtomicU64,
    faults_injected: AtomicU64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("nsky-loadgen: {message}");
            ExitCode::from(code)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn numeric(args: &[String], name: &str, default: u64) -> Result<u64, (u8, String)> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            (
                1,
                format!("{name} expects a non-negative integer, got {raw:?}"),
            )
        }),
    }
}

fn quick() -> bool {
    std::env::var_os("NSKY_QUICK").is_some_and(|v| v == "1")
}

fn run(args: &[String]) -> Result<(), (u8, String)> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let dataset = flag(args, "--dataset").unwrap_or("karate");
    let requests = usize::try_from(numeric(args, "--requests", if quick() { 30 } else { 200 })?)
        .map_err(|_| (1, "--requests out of range".to_owned()))?;
    let concurrency = usize::try_from(numeric(args, "--concurrency", 8)?.max(1))
        .map_err(|_| (1, "--concurrency out of range".to_owned()))?;
    let rate = numeric(args, "--rate", if quick() { 100 } else { 200 })?;
    let fault_pct = numeric(args, "--fault-mix", 0)?.min(100);
    let timeout_ms = numeric(args, "--timeout-ms", 1000)?;
    let op = flag(args, "--op").unwrap_or("skyline").to_owned();

    // Spawn an in-process server unless a target address was given.
    let (addr, server, fingerprint) = match flag(args, "--addr") {
        Some(addr) => (addr.to_owned(), None, 0_u64),
        None => {
            let graph = match dataset {
                "karate" => nsky_datasets::karate(),
                "bombing" => nsky_datasets::bombing(),
                other => nsky_datasets::scalability_dataset(other)
                    .map(|spec| spec.build())
                    .ok_or_else(|| (2_u8, format!("unknown dataset {other:?}")))?,
            };
            let fingerprint = graph.fingerprint();
            let config = ServerConfig {
                workers: concurrency.clamp(2, 8),
                queue_capacity: concurrency * 4,
                read_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            };
            let handle = Server::start(graph, config)
                .map_err(|e| (2, format!("failed to start in-process server: {e}")))?;
            (handle.addr().to_string(), Some(handle), fingerprint)
        }
    };

    let state = Arc::new(Run {
        addr,
        op,
        timeout_ms,
        requests,
        // CAST: u64 -> f64 rate; loadgen rates are far below 2^53.
        rate: (rate.max(1)) as f64,
        fault_pct,
        start: Instant::now(),
        next: AtomicUsize::new(0),
        ok: AtomicU64::new(0),
        partial: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        faults_injected: AtomicU64::new(0),
    });

    let mut clients = Vec::with_capacity(concurrency);
    for _ in 0..concurrency {
        let state = Arc::clone(&state);
        clients.push(std::thread::spawn(move || client_loop(&state)));
    }
    let mut lat: Vec<u64> = Vec::with_capacity(requests);
    for c in clients {
        lat.extend(c.join().unwrap_or_default());
    }
    let elapsed = state.start.elapsed();

    let shed = if let Some(handle) = server {
        let stats = handle.shutdown_and_drain();
        stats.shed
    } else {
        0
    };

    lat.sort_unstable();
    let pick = |pct: usize| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let idx = (lat.len() * pct / 100).min(lat.len() - 1);
        lat[idx]
    };
    let p50 = pick(50);
    let p99 = pick(99);
    let ok = state.ok.load(Ordering::Relaxed);
    let partial = state.partial.load(Ordering::Relaxed);
    let errors = state.errors.load(Ordering::Relaxed);
    let faults = state.faults_injected.load(Ordering::Relaxed);
    let qps_milli = if elapsed.as_millis() == 0 {
        0
    } else {
        // CAST: guarded — elapsed_ms is nonzero and the products stay
        // far below u64::MAX for any realistic run length.
        (ok.saturating_add(partial)) * 1_000_000 / (elapsed.as_millis() as u64)
    };
    println!(
        "loadgen: {} arrivals ({} ok, {} partial, {} errors, {} faults injected, {} shed) \
         p50={:.3}ms p99={:.3}ms qps={:.1}",
        requests,
        ok,
        partial,
        errors,
        faults,
        shed,
        // CAST: nanos -> f64 for display only.
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        qps_milli as f64 / 1e3,
    );

    if let Some(dir) = std::env::var_os("NSKY_BENCH_JSON") {
        let dir = std::path::PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        let mut report = RunReport::new("bench/server", fingerprint, Completion::Complete);
        report.counters = vec![
            ("server_p50_nanos".to_owned(), p50),
            ("server_p99_nanos".to_owned(), p99),
            ("server_samples".to_owned(), ok.saturating_add(partial)),
            ("server_qps_milli".to_owned(), qps_milli),
            ("server_partial".to_owned(), partial),
            ("server_errors".to_owned(), errors),
            ("server_faults_injected".to_owned(), faults),
            ("server_shed".to_owned(), shed),
        ];
        report.push_event(format!(
            "loadgen: requests={requests} concurrency={concurrency} rate={} fault_mix={fault_pct}%",
            state.rate
        ));
        let path = dir.join("BENCH_server.json");
        let written = std::fs::File::create(&path)
            .and_then(|mut f| report.write_to(&mut f))
            .is_ok();
        if written {
            println!("loadgen: wrote {}", path.display());
        } else {
            eprintln!("loadgen: failed to write {}", path.display());
        }
    }
    if errors > 0 {
        return Err((3, format!("{errors} healthy requests failed")));
    }
    Ok(())
}

/// One client thread: claim arrival slots, pace to the schedule, fire.
/// Returns the latencies this thread measured; `run` merges the
/// per-thread vectors after the joins.
fn client_loop(state: &Run) -> Vec<u64> {
    let mut latencies: Vec<u64> = Vec::new();
    loop {
        let i = state.next.fetch_add(1, Ordering::Relaxed);
        if i >= state.requests {
            return latencies;
        }
        // Open-loop pacing: arrival i is due at start + i/rate,
        // regardless of how long earlier requests took.
        // CAST: arrival index -> f64 is exact below 2^53.
        let due = Duration::from_secs_f64(i as f64 / state.rate);
        let now = state.start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        // Deterministic byzantine mix: spread the faulty arrivals
        // uniformly through the index space.
        if state.fault_pct > 0 && (i as u64) % 100 < state.fault_pct {
            state.faults_injected.fetch_add(1, Ordering::Relaxed);
            inject_fault(state, i);
            continue;
        }
        let scheduled = due.max(now);
        match fire_request(state, i) {
            Ok(partial) => {
                let done = state.start.elapsed();
                let lat = done.saturating_sub(scheduled);
                // CAST: guarded — latencies are far below u64 nanos.
                let nanos = u64::try_from(lat.as_nanos()).unwrap_or(u64::MAX);
                latencies.push(nanos);
                if partial {
                    state.partial.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.ok.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(()) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Sends one healthy request and reads the one-line response. A
/// `dominates` request asks about `(0, 1)` on even arrivals and `(1, 0)`
/// on odd ones, a pair that is valid on any graph with two vertices.
fn fire_request(state: &Run, i: usize) -> Result<bool, ()> {
    let stream = TcpStream::connect(&state.addr).map_err(|_| ())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|_| ())?;
    let mut writer = stream.try_clone().map_err(|_| ())?;
    let pair = match (state.op.as_str(), i % 2) {
        ("dominates", 0) => ",\"u\":0,\"v\":1",
        ("dominates", _) => ",\"u\":1,\"v\":0",
        _ => "",
    };
    let line = format!(
        "{{\"op\":\"{}\",\"timeout_ms\":{}{pair}}}\n",
        state.op, state.timeout_ms
    );
    writer.write_all(line.as_bytes()).map_err(|_| ())?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).map_err(|_| ())?;
    let parsed = nsky_server::json::parse(response.trim_end()).map_err(|_| ())?;
    if parsed.get("ok").and_then(nsky_server::json::Value::as_bool) != Some(true) {
        return Err(());
    }
    Ok(parsed
        .get("partial")
        .and_then(nsky_server::json::Value::as_bool)
        == Some(true))
}

/// One byzantine arrival. The flavor rotates deterministically by index.
fn inject_fault(state: &Run, i: usize) {
    let Ok(mut stream) = TcpStream::connect(&state.addr) else {
        return;
    };
    match i % 4 {
        0 => {
            // Torn frame: half a request, then close.
            let _ = stream.write_all(b"{\"op\":\"sky");
        }
        1 => {
            // Garbage bytes.
            let _ = stream.write_all(b"\x01\x02\x03 not json at all\n");
        }
        2 => {
            // Oversized frame: a long line with no newline.
            let junk = vec![b'x'; 256 * 1024];
            let _ = stream.write_all(&junk);
        }
        _ => {
            // Connect-and-close (half-open probe).
        }
    }
    // Dropping the stream closes the connection immediately.
}
