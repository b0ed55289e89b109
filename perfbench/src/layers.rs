//! Per-layer numbers of the traced run: calls into each crate's public
//! functions, timed from here on the workload's own seeded inputs.

use std::time::Instant;

use nsky_clique::mcbrb::mc_brb_with;
use nsky_clique::neisky::nei_sky_mc_with;
use nsky_graph::Graph;
use nsky_server::json;
use nsky_server::protocol::parse_request;
use nsky_skyline::budget::CancelToken;
use nsky_skyline::obs::{Counter, CountingRecorder};
use nsky_skyline::{
    domination, filter_refine_sky_with, ExecutionContext, MutableSkyline, RefineConfig,
};

use crate::inputs::{DeltaStream, Op, Traffic, Workload, BATCH_LEN};
use crate::run::{dominates_line, request_line};
use crate::stats::{median, median_ms, ms};

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_owned(), value, unit));
}

fn count(out: &mut Vec<Metric>, name: &str, rec: &CountingRecorder, counter: Counter) {
    push(out, name, rec.value(counter) as f64, "count");
}

/// Times `reps` batches of `per_batch` calls; the median per call, in µs.
fn per_call_us(reps: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..per_batch {
                f(i);
            }
            ms(t) * 1e3 / per_batch as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// The in-process layer measurements on `g`, the graph of the
/// workload's first round, with that round's seeded inputs.
pub fn measure(w: &Workload, run_seed: u64, g: &Graph, skyline_response: &[u8]) -> Vec<Metric> {
    let seed = w.round_seed(run_seed, 0);
    let mut out = Vec::new();
    let cfg = RefineConfig::default();

    // graph
    push(
        &mut out,
        "graph.csr.fingerprint_ms",
        median_ms(9, || g.fingerprint()),
        "ms",
    );

    // core: FRSky phases and work counts under a CountingRecorder.
    let mut phases: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut totals = Vec::new();
    let mut last = None;
    for _ in 0..5 {
        let rec = CountingRecorder::new();
        let t = Instant::now();
        let run = filter_refine_sky_with(g, &cfg, &mut ExecutionContext::new().recorder(&rec));
        totals.push(ms(t));
        for p in rec.phases() {
            phases
                .entry(p.name)
                .or_default()
                .push((p.end_nanos - p.start_nanos) as f64 / 1e6);
        }
        last = Some((rec, run.outcome.skyline.len()));
    }
    for phase in ["filter", "bloom_build", "refine"] {
        let v = phases.get(phase).and_then(|xs| median(xs)).unwrap_or(0.0);
        push(&mut out, &format!("core.{phase}_ms"), v, "ms");
    }
    let recompute_ms = median(&totals).unwrap_or(0.0);
    let (rec, skyline_size) = last.expect("five runs");
    let candidates = rec.value(Counter::CandidatesEmitted) as f64;
    let queries = rec.value(Counter::BloomQueries) as f64;
    let rejects =
        (rec.value(Counter::BloomWordRejects) + rec.value(Counter::BloomBitRejects)) as f64;
    push(&mut out, "core.candidates", candidates, "count");
    push(&mut out, "core.skyline_size", skyline_size as f64, "count");
    count(&mut out, "core.pair_tests", &rec, Counter::PairTests);
    push(&mut out, "core.bloom_queries", queries, "count");
    count(
        &mut out,
        "core.adjacency_probes",
        &rec,
        Counter::AdjacencyProbes,
    );
    push(
        &mut out,
        "core.skyline_per_candidate",
        skyline_size as f64 / candidates.max(1.0),
        "ratio",
    );
    push(
        &mut out,
        "core.bloom_reject_rate",
        rejects / queries.max(1.0),
        "ratio",
    );

    let mut traffic = Traffic::new(seed ^ 1, w.cycle);
    let pairs: Vec<_> = (0..1000).map(|_| traffic.pair(g)).collect();
    let dominates_us = per_call_us(5, pairs.len(), |i| {
        std::hint::black_box(domination::dominates(g, pairs[i].0, pairs[i].1));
    });
    push(&mut out, "core.dominates_us", dominates_us, "us");

    // core.dynamic: the engine the daemon builds on the first update,
    // fed the same stationary stream as the round's writer.
    let mut build = Vec::new();
    for _ in 0..3 {
        let copy = g.clone();
        let t = Instant::now();
        std::hint::black_box(MutableSkyline::new(copy));
        build.push(ms(t));
    }
    push(
        &mut out,
        "core.dynamic.engine_build_ms",
        median(&build).unwrap_or(0.0),
        "ms",
    );
    let mut engine = MutableSkyline::new(g.clone());
    let mut stream = DeltaStream::new(g, seed ^ 2);
    let rec = CountingRecorder::new();
    let mut apply = |n: usize, reps: usize| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let batch = stream.take(n);
                let t = Instant::now();
                engine.apply_batch_with(&batch, &mut ExecutionContext::new().recorder(&rec));
                ms(t)
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    };
    let apply1 = apply(1, 256);
    let apply128 = apply(BATCH_LEN, 8);
    push(&mut out, "core.dynamic.apply1_ms", apply1, "ms");
    push(&mut out, "core.dynamic.apply128_ms", apply128, "ms");
    count(
        &mut out,
        "core.dynamic.deltas_applied",
        &rec,
        Counter::DeltasApplied,
    );
    count(
        &mut out,
        "core.dynamic.dirty_vertices",
        &rec,
        Counter::DirtyVertices,
    );
    count(
        &mut out,
        "core.dynamic.scoped_refines",
        &rec,
        Counter::ScopedRefines,
    );
    push(
        &mut out,
        "core.dynamic.repair_vs_recompute",
        apply128 / recompute_ms.max(1e-9),
        "ratio",
    );
    push(
        &mut out,
        "graph.delta.materialize_ms",
        median_ms(9, || engine.current_graph()),
        "ms",
    );

    // clique: always on the serve-apps input of this seed, the one
    // workload whose traffic reaches it (on the leafy graphs a single
    // search runs from 0.2 s to over 30 s).
    let apps = Workload::by_name("serve-apps").expect("a defined workload");
    let own;
    let cg = if w.name == apps.name {
        g
    } else {
        own = apps.graph(apps.round_seed(run_seed, 0));
        &own
    };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let rec = CountingRecorder::new();
        let t = Instant::now();
        std::hint::black_box(nei_sky_mc_with(
            cg,
            &mut ExecutionContext::new().recorder(&rec),
        ));
        times.push(ms(t));
        last = Some(rec);
    }
    let rec = last.expect("three runs");
    push(
        &mut out,
        "clique.nei_sky_mc_ms",
        median(&times).unwrap_or(0.0),
        "ms",
    );
    push(
        &mut out,
        "clique.mc_brb_ms",
        median_ms(3, || mc_brb_with(cg, &mut ExecutionContext::new())),
        "ms",
    );
    count(
        &mut out,
        "clique.nodes_expanded",
        &rec,
        Counter::NodesExpanded,
    );
    count(&mut out, "clique.bound_cuts", &rec, Counter::BoundCuts);
    count(
        &mut out,
        "clique.skyline_prunes",
        &rec,
        Counter::SkylinePrunes,
    );
    count(&mut out, "clique.root_calls", &rec, Counter::RootCalls);

    // server: the request path without transport.
    let skyline_line = String::from_utf8(request_line(Op::Skyline, "")).expect("ASCII");
    let (u, v) = pairs[0];
    let dominates = String::from_utf8(dominates_line(u, v)).expect("ASCII");
    let lines = [skyline_line.trim_end(), dominates.trim_end()];
    let parse_us = per_call_us(5, 2000, |i| {
        std::hint::black_box(parse_request(lines[i % 2]).ok());
    });
    push(&mut out, "server.protocol.parse_us", parse_us, "us");
    let req = parse_request(lines[0]).expect("a well-formed request");
    let execute = median_ms(5, || {
        nsky_server::execute_query(g, &req, None, &CancelToken::new(), &CountingRecorder::new())
            .ok()
    });
    push(&mut out, "server.engine.execute_query_ms", execute, "ms");
    let text = std::str::from_utf8(skyline_response)
        .unwrap_or("")
        .trim_end();
    let decode = median_ms(5, || json::parse(text).ok());
    let value = json::parse(text).unwrap_or(json::Value::Null);
    let encode = median_ms(5, || value.to_string());
    push(&mut out, "server.json.decode_ms", decode, "ms");
    push(&mut out, "server.json.encode_ms", encode, "ms");
    out
}
