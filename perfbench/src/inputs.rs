//! The four workloads and their seeded inputs: graph edge-list files,
//! request interleaves and the stationary delta stream.
//!
//! Everything here is a pure function of `--seed`, the workload and the
//! round, so one seed always yields the same inputs.

use std::fs::File;
use std::io;
use std::path::Path;

use nsky_datasets::scalability_dataset;
use nsky_graph::prng::SplitMix64;
use nsky_graph::{EdgeDelta, Graph, VertexId};

/// The op classes a workload sends. Percentiles are only ever taken
/// within one class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Skyline,
    Dominates,
    Update1,
    Update128,
    Clique,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Skyline,
        Op::Dominates,
        Op::Update1,
        Op::Update128,
        Op::Clique,
    ];

    /// The class's metric stem (`<stem>_p50_ms`).
    pub fn stem(self) -> &'static str {
        match self {
            Op::Skyline => "skyline",
            Op::Dominates => "dominates",
            Op::Update1 => "update",
            Op::Update128 => "update128",
            Op::Clique => "clique",
        }
    }
}

/// How the client reaches the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// A fresh TCP connection per request, as every existing client does.
    Fresh,
    /// One long-lived connection per client thread.
    Persistent,
}

/// One workload: its input graph, its traffic and why it exists.
///
/// - `serve-read`: LiveJournal stand-in (20 000 vertices), one client on
///   fresh connections, skyline and dominates interleaved. Skyline time
///   is mostly kernel; dominates time is almost all connection handoff,
///   so the two classes load opposite layers.
/// - `serve-update`: the same graph, a writer sending a stationary delta
///   stream (single deltas, every 16th request a 128-delta batch, 2 ms
///   think time between requests) beside
///   a reader sending skyline and dominates, each on its own persistent
///   connection. The update path (dynamic repair, publish, encoding the
///   full skyline) does the work; persistent connections bypass accept.
/// - `serve-large`: a LiveJournal-shaped graph at 250 000 vertices served
///   from an edge-list file; skyline only, on one persistent connection.
///   The kernel at scale does the work and no update can start a lazy
///   engine build in the window. Memory-bound, so its figures follow the
///   host's memory traffic: it is run by hand, not gated.
/// - `serve-apps`: the Orkut stand-in (affiliation family); clique and
///   skyline on one persistent connection. The only workload where
///   `nsky_clique` runs; its skyline is filter-dominated, the opposite
///   balance from the leafy graphs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Registry stand-in whose generator family and parameters are used.
    pub dataset: &'static str,
    /// Vertex count override (`None`: the registry size).
    pub n: Option<usize>,
    pub transport: Transport,
    /// Servers spawned per run, each on its own seeded graph. Each spawn
    /// is one `setup_s` sample; the measured window is split among them,
    /// which averages out per-graph differences within a run.
    pub rounds: usize,
    /// The reader's cycle: each class is sent that many times per
    /// cycle, in a seeded order.
    pub cycle: &'static [(Op, usize)],
    /// Whether a writer thread sends the delta stream beside the reader.
    pub writer: bool,
}

/// Every 16th writer request is a 128-delta batch; the rest carry one.
pub const BATCH_EVERY: usize = 16;
pub const BATCH_LEN: usize = 128;
/// Distinct edges the delta stream toggles; each is toggled away from
/// the base graph and back once per `2 * TOGGLE_POOL` deltas.
pub const TOGGLE_POOL: usize = 512;

const READ_CYCLE: &[(Op, usize)] = &[(Op::Skyline, 1), (Op::Dominates, 4)];
const LARGE_CYCLE: &[(Op, usize)] = &[(Op::Skyline, 1)];
/// One clique per sixteen skylines: clique cost differs several-fold
/// between seeded graphs (about one Orkut stand-in in six takes ~4x
/// longer), so a larger clique share would make the workload's
/// throughput a draw of the seed.
const APPS_CYCLE: &[(Op, usize)] = &[(Op::Clique, 1), (Op::Skyline, 16)];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-read",
        dataset: "LiveJournal",
        n: None,
        transport: Transport::Fresh,
        rounds: 8,
        cycle: READ_CYCLE,
        writer: false,
    },
    Workload {
        name: "serve-update",
        dataset: "LiveJournal",
        n: None,
        transport: Transport::Persistent,
        rounds: 8,
        cycle: READ_CYCLE,
        writer: true,
    },
    Workload {
        name: "serve-large",
        dataset: "LiveJournal",
        n: Some(250_000),
        transport: Transport::Persistent,
        rounds: 3,
        cycle: LARGE_CYCLE,
        writer: false,
    },
    Workload {
        name: "serve-apps",
        dataset: "Orkut",
        n: None,
        transport: Transport::Persistent,
        rounds: 8,
        cycle: APPS_CYCLE,
        writer: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Op classes this workload sends, in report order.
    pub fn ops(&self) -> Vec<Op> {
        Op::ALL
            .into_iter()
            .filter(|op| {
                self.cycle.iter().any(|(o, _)| o == op)
                    || (self.writer && matches!(op, Op::Update1 | Op::Update128))
            })
            .collect()
    }

    fn tag(&self) -> u64 {
        self.name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The seed of everything drawn for `round` of this workload.
    pub fn round_seed(&self, seed: u64, round: usize) -> u64 {
        SplitMix64::new(seed ^ self.tag() ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64()
    }

    /// Generates the round's graph with the stand-in's generator family
    /// and parameters, seeded from `seed`.
    pub fn graph(&self, seed: u64) -> Graph {
        stand_in(self.dataset, self.n, seed)
    }
}

/// A registry stand-in rebuilt with its own parameters but `seed` (and
/// optionally `n`) replaced.
pub fn stand_in(dataset: &str, n: Option<usize>, seed: u64) -> Graph {
    let mut spec = scalability_dataset(dataset).expect("a registry stand-in name");
    spec.seed = seed;
    if let Some(n) = n {
        spec.n = n;
    }
    spec.build()
}

/// Writes `g` as an edge-list file for the daemon to load.
pub fn write_edges(g: &Graph, path: &Path) -> io::Result<()> {
    nsky_graph::io::write_edge_list(g, File::create(path)?)
}

/// A seeded stream of request choices for one client thread.
pub struct Traffic {
    rng: SplitMix64,
    order: Vec<Op>,
    next: usize,
}

impl Traffic {
    pub fn new(seed: u64, cycle: &[(Op, usize)]) -> Traffic {
        let order: Vec<Op> = cycle
            .iter()
            .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
            .collect();
        Traffic {
            rng: SplitMix64::new(seed),
            next: order.len(),
            order,
        }
    }

    /// The next class of the seeded interleave: each cycle is a fresh
    /// shuffle of the workload's cycle.
    pub fn next_op(&mut self) -> Op {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }

    /// A seeded vertex pair: `u` uniform, `v` one of `u`'s neighbors
    /// (so the check does real work) or uniform when `u` is isolated.
    pub fn pair(&mut self, g: &Graph) -> (VertexId, VertexId) {
        let n = g.num_vertices();
        let u = self.rng.next_index(n) as VertexId;
        let nbrs = g.neighbors(u);
        let v = if nbrs.is_empty() {
            self.rng.next_index(n) as VertexId
        } else {
            nbrs[self.rng.next_index(nbrs.len())]
        };
        (u, v)
    }
}

/// The writer's stationary delta stream. A fixed pool of edges — half
/// absent from the base graph, half present — is walked cyclically, and
/// each visit toggles the edge. After every `2 * TOGGLE_POOL` deltas the
/// graph is the base graph again, so per-request cost does not drift
/// however long the run.
pub struct DeltaStream {
    pool: Vec<(VertexId, VertexId)>,
    present: Vec<bool>,
    cursor: usize,
}

impl DeltaStream {
    pub fn new(g: &Graph, seed: u64) -> DeltaStream {
        let mut rng = SplitMix64::new(seed);
        let n = g.num_vertices();
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let mut pool: Vec<(VertexId, VertexId)> = Vec::with_capacity(TOGGLE_POOL);
        let mut present = Vec::with_capacity(TOGGLE_POOL);
        while pool.len() < TOGGLE_POOL {
            let (u, v, on) = if pool.len().is_multiple_of(2) {
                let (u, v) = edges[rng.next_index(edges.len())];
                (u, v, true)
            } else {
                let u = rng.next_index(n) as VertexId;
                let v = rng.next_index(n) as VertexId;
                (u, v, false)
            };
            let key = (u.min(v), u.max(v));
            if u == v || g.has_edge(u, v) != on || pool.contains(&key) {
                continue;
            }
            pool.push(key);
            present.push(on);
        }
        DeltaStream {
            pool,
            present,
            cursor: 0,
        }
    }

    /// The next `len` deltas of the stream. `len <= TOGGLE_POOL`, so a
    /// batch never touches one edge twice.
    pub fn take(&mut self, len: usize) -> Vec<EdgeDelta> {
        (0..len)
            .map(|_| {
                let i = self.cursor % TOGGLE_POOL;
                self.cursor += 1;
                let (u, v) = self.pool[i];
                self.present[i] = !self.present[i];
                if self.present[i] {
                    EdgeDelta::Insert(u, v)
                } else {
                    EdgeDelta::Delete(u, v)
                }
            })
            .collect()
    }
}

/// Renders deltas in the wire's `"+ u v"` / `"- u v"` form.
pub fn wire_delta(d: EdgeDelta) -> String {
    let (u, v) = d.endpoints();
    let sign = if d.is_insert() { '+' } else { '-' };
    format!("{sign} {u} {v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_stream_returns_to_the_base_graph() {
        let g = stand_in("LiveJournal", Some(2_000), 7);
        let mut stream = DeltaStream::new(&g, 3);
        let mut view = nsky_graph::DeltaGraph::from_graph(g.clone());
        for _ in 0..2 * TOGGLE_POOL / BATCH_LEN {
            for d in stream.take(BATCH_LEN) {
                assert!(view.apply(d), "every delta is effective");
            }
        }
        assert_eq!(view.materialize().fingerprint(), g.fingerprint());
    }

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut t = Traffic::new(seed, READ_CYCLE);
            (0..20).map(|_| t.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        let ops = draw(5);
        assert_eq!(ops.iter().filter(|&&o| o == Op::Skyline).count(), 4);
    }
}
