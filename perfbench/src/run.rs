//! One round of a workload: generate the graph file, spawn the daemon,
//! warm every op class up (timed as set-up), run the closed loop, then
//! shut down and verify every answer.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use nsky_graph::{Graph, VertexId};
use nsky_server::json::Value;
use nsky_skyline::obs::RunReport;

use crate::client::{decode, exchange_fresh, Conn, ServerProc, Timing};
use crate::inputs::{
    wire_delta, write_edges, DeltaStream, Op, Traffic, Transport, Workload, BATCH_EVERY, BATCH_LEN,
};
use crate::stats::{median, ms, Trace};
use crate::verify::{verify_round, Check, Digest, UpdateAnswer, UpdateRecord, Verdict};

/// A deadline far above any expected latency: a trip is a failure,
/// never quietly absorbed.
const TIMEOUT_MS: u64 = 60_000;
/// The writer's think time between updates. Without it the reader and
/// writer keep both cores of a two-core host busy, and the figures
/// follow the host's scheduler more than the daemon.
const WRITER_THINK: std::time::Duration = std::time::Duration::from_millis(2);
/// Ping pairs (fresh, persistent) behind `server.accept_wait_ms`.
const PING_PAIRS: usize = 64;

pub fn request_line(op: Op, body: &str) -> Vec<u8> {
    let name = match op {
        Op::Skyline => "skyline\",\"algorithm\":\"refine",
        Op::Dominates => "dominates",
        Op::Update1 | Op::Update128 => "update",
        Op::Clique => "clique",
    };
    format!("{{\"op\":\"{name}\"{body},\"timeout_ms\":{TIMEOUT_MS}}}\n").into_bytes()
}

pub fn dominates_line(u: VertexId, v: VertexId) -> Vec<u8> {
    request_line(Op::Dominates, &format!(",\"u\":{u},\"v\":{v}"))
}

/// Latencies and completions of one measured window (or half of one).
#[derive(Default)]
pub struct Window {
    pub latencies: BTreeMap<Op, Vec<f64>>,
    pub completed: u64,
    pub seconds: f64,
}

impl Window {
    pub fn absorb(&mut self, other: Window) {
        for (op, mut xs) in other.latencies {
            self.latencies.entry(op).or_default().append(&mut xs);
        }
        self.completed += other.completed;
        self.seconds += other.seconds;
    }

    pub fn p50(&self, op: Op) -> Option<f64> {
        self.latencies.get(&op).and_then(|xs| median(xs))
    }
}

/// One client thread: its connection, its tallies and its trace.
struct Client<'a> {
    addr: &'a str,
    conn: Option<Conn>,
    buf: Vec<u8>,
    traced: bool,
    request: u64,
    attempted: BTreeMap<Op, u64>,
    failed: BTreeMap<Op, u64>,
    /// Index 1 collects the traced half of a traced run.
    windows: [Window; 2],
    last_end: Instant,
    checks: Vec<Check>,
    trace: Trace,
    served: BTreeMap<String, Vec<f64>>,
    response_bytes: Vec<f64>,
    skyline_response: Vec<u8>,
}

impl<'a> Client<'a> {
    fn new(addr: &'a str, transport: Transport, first_request: u64) -> io::Result<Client<'a>> {
        let conn = match transport {
            Transport::Persistent => Some(Conn::open(addr)?),
            Transport::Fresh => None,
        };
        Ok(Client {
            addr,
            conn,
            buf: Vec::with_capacity(1 << 16),
            traced: false,
            request: first_request,
            attempted: BTreeMap::new(),
            failed: BTreeMap::new(),
            windows: Default::default(),
            last_end: Instant::now(),
            checks: Vec::new(),
            trace: Trace::new(),
            served: BTreeMap::new(),
            response_bytes: Vec::new(),
            skyline_response: Vec::new(),
        })
    }

    fn fail(&mut self, op: Op, why: &str) {
        let failed = self.failed.entry(op).or_default();
        *failed += 1;
        if *failed <= 3 {
            eprintln!("nsky-perfbench: {} request failed: {why}", op.stem());
        }
    }

    /// One exchange, decoded and vetted: `None` (counted as failed) for
    /// a wire error, a refusal or a partial answer.
    fn call(&mut self, op: Op, line: &[u8], in_window: bool) -> Option<Value> {
        *self.attempted.entry(op).or_default() += 1;
        self.request += 1;
        let exchanged = match self.conn.as_mut() {
            Some(conn) => conn.exchange(line, &mut self.buf, self.traced),
            None => exchange_fresh(self.addr, line, &mut self.buf, self.traced),
        };
        let timing = match exchanged {
            Ok(t) => t,
            Err(e) => {
                self.fail(op, &e.to_string());
                if self.conn.is_some() {
                    self.conn = Conn::open(self.addr).ok();
                }
                return None;
            }
        };
        self.last_end = timing.end;
        let decoded = decode(&self.buf);
        let decoded_at = Instant::now();
        let value = match decoded {
            Ok(v) => v,
            Err(e) => {
                self.fail(op, &e.to_string());
                return None;
            }
        };
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            let error = value.get("error").and_then(Value::as_str).unwrap_or("?");
            self.fail(op, &format!("refused: {error}"));
            return None;
        }
        if value.get("partial").and_then(Value::as_bool) != Some(false) {
            self.fail(op, "partial answer");
            return None;
        }
        if in_window {
            let w = &mut self.windows[usize::from(self.traced)];
            w.latencies.entry(op).or_default().push(timing.latency_ms());
            w.completed += 1;
            if op == Op::Skyline {
                self.response_bytes.push(self.buf.len() as f64);
                if self.skyline_response.is_empty() {
                    self.skyline_response = self.buf.clone();
                }
            }
        }
        if self.traced {
            self.record_spans(op, &timing, &value, decoded_at);
        }
        Some(value)
    }

    /// Client-side spans of one exchange, with the kernel phases of the
    /// response's `RunReport` nested under the wait for the answer.
    fn record_spans(&mut self, op: Op, t: &Timing, value: &Value, decoded_at: Instant) {
        let (tr, id) = (&mut self.trace, self.request);
        // Span names carry the class, so self times never mix classes.
        let name = |part: &str| format!("{}.{part}", op.stem());
        let root = tr.push(id, None, op.stem(), tr.at(t.start), tr.at(t.end));
        let mut child = |part: &str, from: Instant, to: Instant| {
            tr.push(id, Some(root), &name(part), tr.at(from), tr.at(to))
        };
        if t.connected > t.start {
            child("connect", t.start, t.connected);
        }
        child("send", t.connected, t.sent);
        let wait = child("wait", t.sent, t.first_byte);
        child("receive", t.first_byte, t.end);
        tr.push(id, None, &name("decode"), tr.at(t.end), tr.at(decoded_at));
        let report = value
            .get("report")
            .and_then(Value::as_str)
            .and_then(|r| RunReport::from_json(r).ok());
        if let Some(report) = report {
            // The server's recorder starts when it picks the request up;
            // the client's send end is the closest instant it can see.
            let anchor = tr.at(t.sent);
            let limit = tr.at(t.first_byte);
            for p in &report.phases {
                let start = (anchor + p.start_nanos).min(limit);
                let end = (anchor + p.end_nanos).min(limit);
                tr.push(id, Some(wait), &format!("kernel.{}", p.name), start, end);
                if op == Op::Skyline {
                    let span_ms = (p.end_nanos - p.start_nanos) as f64 / 1e6;
                    self.served.entry(p.name.clone()).or_default().push(span_ms);
                }
            }
        }
    }

    /// One reader request of class `op`; its answer joins the checks.
    fn read(&mut self, op: Op, g: &Graph, traffic: &mut Traffic, in_window: bool) {
        match op {
            Op::Skyline | Op::Clique => {
                let line = request_line(op, "");
                let Some(v) = self.call(op, &line, in_window) else {
                    return;
                };
                let generation = v.get("generation").and_then(Value::as_u64);
                let result = v.get("result").and_then(|r| {
                    r.get(if op == Op::Skyline {
                        "skyline"
                    } else {
                        "clique"
                    })
                });
                match (generation, result.and_then(ids)) {
                    (Some(generation), Some(ids)) if op == Op::Skyline => {
                        self.checks.push(Check::Skyline {
                            generation,
                            digest: Digest::of(&ids),
                        });
                    }
                    (Some(_), Some(ids)) => self.checks.push(Check::Clique { ids }),
                    _ => self.fail(op, "answer lacks its generation or ids"),
                }
            }
            Op::Dominates => {
                let (u, w) = traffic.pair(g);
                let Some(v) = self.call(op, &dominates_line(u, w), in_window) else {
                    return;
                };
                let generation = v.get("generation").and_then(Value::as_u64);
                let answer = v
                    .get("result")
                    .and_then(|r| r.get("dominates"))
                    .and_then(Value::as_bool);
                match (generation, answer) {
                    (Some(generation), Some(answer)) => {
                        self.checks.push(Check::Dominates {
                            generation,
                            u,
                            v: w,
                            answer,
                        });
                    }
                    _ => self.fail(op, "answer lacks its generation or verdict"),
                }
            }
            Op::Update1 | Op::Update128 => unreachable!("updates are the writer's"),
        }
    }

    /// One writer request: the next 1 or 128 deltas of the stream.
    fn write(
        &mut self,
        op: Op,
        stream: &mut DeltaStream,
        records: &mut Vec<UpdateRecord>,
        in_window: bool,
    ) {
        let deltas = stream.take(if op == Op::Update128 { BATCH_LEN } else { 1 });
        let wire: Vec<String> = deltas
            .iter()
            .map(|&d| format!("\"{}\"", wire_delta(d)))
            .collect();
        let line = request_line(op, &format!(",\"deltas\":[{}]", wire.join(",")));
        let Some(v) = self.call(op, &line, in_window) else {
            // The daemon may still have applied it; the replay assumes so.
            records.push(UpdateRecord {
                op,
                deltas,
                answer: None,
            });
            return;
        };
        let len = deltas.len() as u64;
        let answer = v.get("result").and_then(|r| {
            let complete = r.get("cursor").and_then(Value::as_u64) == Some(len)
                && r.get("total").and_then(Value::as_u64) == Some(len);
            complete.then_some(())?;
            Some(UpdateAnswer {
                generation: v.get("generation").and_then(Value::as_u64)?,
                digest: Digest::of(&ids(r.get("skyline")?)?),
                edges: r.get("edges").and_then(Value::as_u64)?,
            })
        });
        if answer.is_none() {
            self.fail(op, "update answer incomplete or malformed");
        }
        records.push(UpdateRecord { op, deltas, answer });
    }
}

fn ids(v: &Value) -> Option<Vec<VertexId>> {
    v.as_array()?
        .iter()
        .map(|x| x.as_u64().and_then(|x| VertexId::try_from(x).ok()))
        .collect()
}

/// Everything one round measured.
pub struct Round {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub parse_ms: f64,
    /// `[untraced, traced]` windows.
    pub windows: [Window; 2],
    pub attempted: BTreeMap<Op, u64>,
    pub failed: BTreeMap<Op, u64>,
    pub verdict: Verdict,
    /// `stats` op counters at the end of the round.
    pub server_counters: BTreeMap<&'static str, u64>,
    pub served_phases: BTreeMap<String, Vec<f64>>,
    pub response_bytes: Vec<f64>,
    pub skyline_response: Vec<u8>,
    /// `(fresh, persistent)` ping p50s, traced runs only.
    pub ping_p50_ms: Option<(f64, f64)>,
    pub trace: Trace,
    pub graph: Graph,
}

pub struct RoundSpec<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub round: usize,
    pub window_s: f64,
    pub traced_run: bool,
    pub server_bin: &'a PathBuf,
    pub work_dir: &'a PathBuf,
}

pub fn run_round(spec: &RoundSpec<'_>) -> io::Result<Round> {
    let w = spec.workload;
    let seed = w.round_seed(spec.seed, spec.round);
    let path = spec.work_dir.join(format!("round{}.edges", spec.round));
    write_edges(&w.graph(seed), &path)?;
    let t = Instant::now();
    let g =
        nsky_graph::io::read_edge_list_file(&path).map_err(|e| io::Error::other(e.to_string()))?;
    let parse_ms = ms(t);
    let mut traffic = Traffic::new(seed ^ 1, w.cycle);
    let mut stream = DeltaStream::new(&g, seed ^ 2);
    let mut records = Vec::new();
    let round_tag = (spec.round as u64) << 40;
    let mut run_trace = Trace::new();

    // Set-up: spawn until every op class has been answered once. That
    // includes edge-list parsing, CSR build, bind and, on the update
    // workload, the lazy engine build of the first update.
    let t0 = Instant::now();
    let server = ServerProc::spawn(spec.server_bin, &path)?;
    let addr = server.addr.clone();
    let mut reader = Client::new(&addr, w.transport, round_tag)?;
    let mut writer = if w.writer {
        Some(Client::new(
            &addr,
            Transport::Persistent,
            round_tag | 1 << 32,
        )?)
    } else {
        None
    };
    for &(op, _) in w.cycle {
        reader.read(op, &g, &mut traffic, false);
    }
    if let Some(wr) = writer.as_mut() {
        wr.write(Op::Update1, &mut stream, &mut records, false);
        wr.write(Op::Update128, &mut stream, &mut records, false);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    run_trace.push(
        round_tag,
        None,
        "round.setup",
        run_trace.at(t0),
        run_trace.at(Instant::now()),
    );

    // The closed loop. A traced run splits the window into an untraced
    // and a traced half, alternating their order between rounds.
    let halves: &[bool] = match (spec.traced_run, spec.round % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    };
    let mut windows: [Window; 2] = Default::default();
    for &traced in halves {
        reader.traced = traced;
        let start = Instant::now();
        let deadline =
            start + std::time::Duration::from_secs_f64(spec.window_s / halves.len() as f64);
        reader.last_end = start;
        std::thread::scope(|scope| {
            if let Some(wr) = writer.as_mut() {
                wr.traced = traced;
                wr.last_end = start;
                let (stream, records) = (&mut stream, &mut records);
                scope.spawn(move || {
                    let mut k = 0_usize;
                    while Instant::now() < deadline {
                        k += 1;
                        let op = if k.is_multiple_of(BATCH_EVERY) {
                            Op::Update128
                        } else {
                            Op::Update1
                        };
                        wr.write(op, stream, records, true);
                        std::thread::sleep(WRITER_THINK);
                    }
                });
            }
            while Instant::now() < deadline {
                let op = traffic.next_op();
                reader.read(op, &g, &mut traffic, true);
            }
        });
        let end = writer
            .as_ref()
            .map_or(reader.last_end, |wr| wr.last_end.max(reader.last_end));
        let window = &mut windows[usize::from(traced)];
        window.seconds += (end - start).as_secs_f64();
    }

    // After the window: the final skyline (equal to a recompute once
    // the writer has stopped), the accept-path probes of traced runs,
    // the daemon's own counters and its peak RSS.
    if w.writer {
        reader.traced = false;
        reader.read(Op::Skyline, &g, &mut traffic, false);
    }
    let ping_p50_ms = if spec.traced_run {
        Some(ping_probe(&addr)?)
    } else {
        None
    };
    reader.conn = None;
    if let Some(wr) = writer.as_mut() {
        wr.conn = None;
    }
    let stats = server.ask(r#"{"op":"stats"}"#)?;
    let mut server_counters = BTreeMap::new();
    for key in ["shed", "partial", "cancelled", "protocol_errors"] {
        let n = stats
            .get("result")
            .and_then(|r| r.get(key))
            .and_then(Value::as_u64);
        let n = n.ok_or_else(|| io::Error::other(format!("stats op lacks {key}: {stats}")))?;
        server_counters.insert(key, n);
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;
    std::fs::remove_file(&path)?;

    let tv = Instant::now();
    let mut clients = vec![reader];
    clients.extend(writer);
    let mut checks = Vec::new();
    let mut round = Round {
        setup_s,
        peak_rss_mb,
        parse_ms,
        windows,
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        verdict: Verdict::default(),
        server_counters,
        served_phases: BTreeMap::new(),
        response_bytes: Vec::new(),
        skyline_response: Vec::new(),
        ping_p50_ms,
        trace: Trace::new(),
        graph: Graph::empty(0),
    };
    for c in clients {
        for (into, window) in round.windows.iter_mut().zip(c.windows) {
            into.absorb(window);
        }
        merge_counts(&mut round.attempted, &c.attempted);
        merge_counts(&mut round.failed, &c.failed);
        checks.extend(c.checks);
        for (name, mut xs) in c.served {
            round.served_phases.entry(name).or_default().append(&mut xs);
        }
        round.response_bytes.extend(c.response_bytes);
        if round.skyline_response.is_empty() {
            round.skyline_response = c.skyline_response;
        }
        run_trace.absorb(c.trace);
    }
    round.verdict = verify_round(&g, checks, &records);
    run_trace.push(
        round_tag,
        None,
        "round.verify",
        run_trace.at(tv),
        run_trace.at(Instant::now()),
    );
    round.trace = run_trace;
    round.graph = g;
    Ok(round)
}

pub fn merge_counts(into: &mut BTreeMap<Op, u64>, from: &BTreeMap<Op, u64>) {
    for (&op, &n) in from {
        *into.entry(op).or_default() += n;
    }
}

/// Median `ping` latency on fresh connections and on one persistent
/// connection, alternating; their difference is the accept path's wait.
fn ping_probe(addr: &str) -> io::Result<(f64, f64)> {
    let line = b"{\"op\":\"ping\"}\n";
    let mut conn = Conn::open(addr)?;
    let (mut fresh, mut kept) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    for _ in 0..PING_PAIRS {
        fresh.push(exchange_fresh(addr, line, &mut out, false)?.latency_ms());
        kept.push(conn.exchange(line, &mut out, false)?.latency_ms());
    }
    Ok((median(&fresh).unwrap_or(0.0), median(&kept).unwrap_or(0.0)))
}
