//! Answer verification, outside every timed window.
//!
//! - `skyline` equals `filter_refine_sky` on the graph of the response's
//!   generation; the benchmark knows that graph by replaying its own
//!   delta stream.
//! - `dominates` equals `domination::dominates` on that graph.
//! - `clique` is a clique of the size `mc_brb` finds.
//! - every `update` response's skyline equals the replayed engine's, and
//!   the replay itself is checked against a recompute at every
//!   generation a reader saw, including the final one.

use std::collections::BTreeMap;
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use nsky_clique::mcbrb::mc_brb;
use nsky_graph::{EdgeDelta, Graph, VertexId};
use nsky_skyline::{domination, filter_refine_sky, MutableSkyline, RefineConfig};

use crate::inputs::Op;

/// A decoded answer awaiting its check.
#[derive(Clone, Debug)]
pub enum Check {
    Skyline {
        generation: u64,
        digest: Digest,
    },
    Dominates {
        generation: u64,
        u: VertexId,
        v: VertexId,
        answer: bool,
    },
    Clique {
        ids: Vec<VertexId>,
    },
}

/// One `update` the writer sent, in send order, with its answer.
#[derive(Clone, Debug)]
pub struct UpdateRecord {
    pub op: Op,
    pub deltas: Vec<EdgeDelta>,
    /// `None` when the request failed on the wire (already counted).
    pub answer: Option<UpdateAnswer>,
}

#[derive(Clone, Debug)]
pub struct UpdateAnswer {
    pub generation: u64,
    pub digest: Digest,
    pub edges: u64,
}

/// Length and FNV-1a hash of a vertex set, sorted first, so answers
/// are compared without being kept whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(ids: &[VertexId]) -> Digest {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        let hash = sorted.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &v| {
            v.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
        Digest {
            len: sorted.len(),
            hash,
        }
    }
}

/// Wrong answers per op class, with a few messages for stderr.
#[derive(Default)]
pub struct Verdict {
    pub wrong: BTreeMap<Op, u64>,
    pub checked: u64,
    pub messages: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, op: Op, message: String) {
        *self.wrong.entry(op).or_default() += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    fn merge(&mut self, other: Verdict) {
        for (op, n) in other.wrong {
            *self.wrong.entry(op).or_default() += n;
        }
        self.checked += other.checked;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// The reader checks of one generation, with the replayed engine's
/// skyline there (`None` at generation 0 before any replay).
struct Job {
    generation: u64,
    graph: Graph,
    replay: Option<Digest>,
    checks: Vec<Check>,
}

fn check_job(job: Job) -> Verdict {
    let mut verdict = Verdict::default();
    let needs_skyline = job.replay.is_some()
        || job
            .checks
            .iter()
            .any(|c| matches!(c, Check::Skyline { .. }));
    let expected = needs_skyline
        .then(|| Digest::of(&filter_refine_sky(&job.graph, &RefineConfig::default()).skyline));
    if let (Some(replay), Some(expected)) = (job.replay, expected) {
        verdict.checked += 1;
        if replay != expected {
            verdict.fail(
                Op::Update1,
                format!(
                    "generation {}: replayed update skyline differs from a recompute",
                    job.generation
                ),
            );
        }
    }
    for check in job.checks {
        verdict.checked += 1;
        match check {
            Check::Skyline { digest, .. } => {
                if Some(digest) != expected {
                    verdict.fail(
                        Op::Skyline,
                        format!(
                            "generation {}: skyline of {} ids differs from filter_refine_sky",
                            job.generation, digest.len
                        ),
                    );
                }
            }
            Check::Dominates { u, v, answer, .. } => {
                if answer != domination::dominates(&job.graph, u, v) {
                    verdict.fail(
                        Op::Dominates,
                        format!(
                            "generation {}: dominates({u}, {v}) answered {answer}",
                            job.generation
                        ),
                    );
                }
            }
            Check::Clique { .. } => unreachable!("clique checks are not generation-bound"),
        }
    }
    verdict
}

/// Verifies one round's answers against `base`, the graph the daemon
/// loaded, and `updates`, the writer's batches in send order.
pub fn verify_round(base: &Graph, checks: Vec<Check>, updates: &[UpdateRecord]) -> Verdict {
    let mut verdict = Verdict::default();
    let mut by_generation: BTreeMap<u64, Vec<Check>> = BTreeMap::new();
    let mut cliques = Vec::new();
    for check in checks {
        match check {
            Check::Clique { ids } => cliques.push(ids),
            Check::Skyline { generation, .. } | Check::Dominates { generation, .. } => {
                by_generation.entry(generation).or_default().push(check);
            }
        }
    }
    if !cliques.is_empty() {
        let best = mc_brb(base).0.len();
        for ids in cliques {
            verdict.checked += 1;
            let is_clique = ids
                .iter()
                .enumerate()
                .all(|(i, &a)| ids[i + 1..].iter().all(|&b| a != b && base.has_edge(a, b)));
            if !is_clique || ids.len() != best {
                verdict.fail(
                    Op::Clique,
                    format!(
                        "clique of {} ids (is a clique: {is_clique}); mc_brb finds {best}",
                        ids.len()
                    ),
                );
            }
        }
    }
    if let Some(&last) = by_generation.keys().next_back() {
        if last > updates.len() as u64 {
            for check in by_generation
                .split_off(&(updates.len() as u64 + 1))
                .into_values()
                .flatten()
            {
                let op = if matches!(check, Check::Skyline { .. }) {
                    Op::Skyline
                } else {
                    Op::Dominates
                };
                verdict.fail(
                    op,
                    "answer stamped with a generation no update produced".to_owned(),
                );
            }
        }
    }

    let shared = Mutex::new(Verdict::default());
    let (tx, rx) = sync_channel::<Job>(2);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let job = match rx.lock().expect("job queue lock").recv() {
                    Ok(job) => job,
                    Err(_) => return,
                };
                let v = check_job(job);
                shared.lock().expect("verdict lock").merge(v);
            });
        }
        if let Some(checks) = by_generation.remove(&0) {
            let job = Job {
                generation: 0,
                graph: base.clone(),
                replay: None,
                checks,
            };
            tx.send(job).expect("verifier threads outlive the replay");
        }
        if !updates.is_empty() {
            let mut engine = MutableSkyline::new(base.clone());
            for (k, record) in updates.iter().enumerate() {
                let generation = k as u64 + 1;
                engine.apply_batch(&record.deltas);
                let replay = Digest::of(&engine.skyline());
                if let Some(answer) = &record.answer {
                    verdict.checked += 1;
                    if answer.generation != generation
                        || answer.digest != replay
                        || answer.edges != engine.num_edges() as u64
                    {
                        verdict.fail(
                            record.op,
                            format!("update {generation}: answer differs from the replayed engine"),
                        );
                    }
                }
                if let Some(checks) = by_generation.remove(&generation) {
                    let job = Job {
                        generation,
                        graph: engine.current_graph(),
                        replay: Some(replay),
                        checks,
                    };
                    tx.send(job).expect("verifier threads outlive the replay");
                }
            }
        }
        drop(tx);
    });
    verdict.merge(shared.into_inner().expect("verdict lock"));
    verdict
}
