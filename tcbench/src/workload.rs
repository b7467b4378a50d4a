//! Seeded workload generation: the transportation network, its
//! by-country fragmentation, and the per-client op streams.
//!
//! Everything here is a pure function of the benchmark's `--seed`: the
//! same seed gives the same graph, hot routes, update edges, batch and
//! op streams. A client's stream is an endless deterministic sequence
//! (a seeded generator), so a closed loop never wraps around and
//! re-issues old pairs — wrapping would turn uniform reads into cache
//! hits on the second lap.

use std::sync::Arc;

use discset::fragment::CrossingPolicy;
use discset::gen::output::expand_connections;
use discset::gen::{
    generate_transportation, ClusterTopology, GeneratedGraph, TransportationConfig,
};
use discset::graph::{CsrGraph, Edge, NodeId, ScratchDijkstra};
use discset::{EngineSnapshot, Fragmenter, NetworkUpdate, QueryRequest, System, SystemBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Countries (clusters) in the chain; one site each.
pub const COUNTRIES: usize = 16;
/// Cities per country.
pub const NODES_PER_COUNTRY: usize = 100;
/// Expected in-country connections per country.
pub const EDGES_PER_COUNTRY: usize = 400;
/// Hot routes of `hot-read`, all from the first country to the last.
pub const HOT_ROUTES: usize = 6;
/// Pairs in the fixed `batch-closure` batch.
pub const BATCH_PAIRS: usize = 500;
/// Delete/re-insert edges each `cold-mixed` client owns.
pub const UPDATE_EDGES_PER_CLIENT: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ColdMixed,
    BatchClosure,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotRead,
        Workload::ColdMixed,
        Workload::BatchClosure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdMixed => "cold-mixed",
            Workload::BatchClosure => "batch-closure",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Server::query`; `uniform` marks endpoints drawn uniformly (as
    /// opposed to a hot route).
    Query { x: NodeId, y: NodeId, uniform: bool },
    /// `Server::connected`.
    Connected { x: NodeId, y: NodeId },
    /// `Server::update`.
    Update(NetworkUpdate),
}

/// The benchmark network for `seed`: 16 countries × 100 cities in a
/// chain, ~400 connections per country.
pub fn network(seed: u64) -> GeneratedGraph {
    generate_transportation(
        &TransportationConfig {
            clusters: COUNTRIES,
            nodes_per_cluster: NODES_PER_COUNTRY,
            target_edges_per_cluster: EDGES_PER_COUNTRY,
            topology: ClusterTopology::Chain,
            ..TransportationConfig::default()
        },
        seed,
    )
}

/// A system builder over `g`, fragmented by country with crossing
/// connections assigned to the lower block.
pub fn builder(g: &GeneratedGraph) -> SystemBuilder {
    System::builder().graph(g).fragmenter(Fragmenter::ByLabels {
        labels: g
            .cluster_of
            .clone()
            .expect("transportation graphs label every city with its country"),
        parts: COUNTRIES,
        policy: CrossingPolicy::LowerBlock,
    })
}

/// A delete and the re-insert that undoes it.
pub type UpdatePair = (NetworkUpdate, NetworkUpdate);

/// Everything the op streams of one workload draw from.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub nodes: usize,
    /// `hot-read`: the hot routes.
    pub hot: Vec<(NodeId, NodeId)>,
    /// `cold-mixed`: per client, the update edges it owns.
    pub updates: Vec<Vec<UpdatePair>>,
    /// `batch-closure`: the fixed batch.
    pub batch: Vec<QueryRequest>,
}

impl Plan {
    /// The plan for `workload` on `g`. `snapshot` (the system's initial
    /// snapshot) is probed to pick update edges that stay incremental;
    /// only `cold-mixed` reads it.
    pub fn new(
        workload: Workload,
        seed: u64,
        g: &GeneratedGraph,
        snapshot: &EngineSnapshot,
        clients: usize,
    ) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7C_BE4C_0000);
        let nodes = g.nodes;
        let mut plan = Plan {
            workload,
            seed,
            nodes,
            hot: Vec::new(),
            updates: Vec::new(),
            batch: Vec::new(),
        };
        match workload {
            Workload::HotRead => {
                let last = (COUNTRIES - 1) * NODES_PER_COUNTRY;
                while plan.hot.len() < HOT_ROUTES {
                    let x = NodeId(rng.gen_index(NODES_PER_COUNTRY) as u32);
                    let y = NodeId((last + rng.gen_index(NODES_PER_COUNTRY)) as u32);
                    if !plan.hot.contains(&(x, y)) {
                        plan.hot.push((x, y));
                    }
                }
            }
            Workload::ColdMixed => {
                plan.updates = (0..clients)
                    .map(|c| client_update_pairs(snapshot, &mut rng, c, clients))
                    .collect();
            }
            Workload::BatchClosure => {
                plan.batch = (0..BATCH_PAIRS)
                    .map(|_| {
                        QueryRequest::new(
                            uniform_node(&mut rng, nodes),
                            uniform_node(&mut rng, nodes),
                        )
                    })
                    .collect();
            }
        }
        plan
    }

    /// Client `client`'s op stream.
    pub fn stream(self: &Arc<Self>, client: usize) -> Stream {
        Stream {
            plan: Arc::clone(self),
            rng: StdRng::seed_from_u64(
                self.seed.rotate_left(17) ^ ((client as u64 + 1) * 0x9E37_79B9),
            ),
            client,
            next_update: 0,
            removed: false,
        }
    }

    /// The connection list after every client's stream ended in the
    /// given states: a client whose last update was a delete leaves
    /// that edge out.
    pub fn final_connections(&self, g: &GeneratedGraph, ends: &[StreamEnd]) -> Vec<Edge> {
        let removed: Vec<NetworkUpdate> = ends
            .iter()
            .filter(|e| e.removed)
            .map(|e| self.updates[e.client][e.next_update].0)
            .collect();
        without(g, &removed)
    }

    /// The connection list with every update edge removed at once: the
    /// longest any `cold-mixed` distance can get.
    pub fn all_removed_connections(&self, g: &GeneratedGraph) -> Vec<Edge> {
        let removed: Vec<NetworkUpdate> = self.updates.iter().flatten().map(|p| p.0).collect();
        without(g, &removed)
    }
}

/// The directed closure graph of a symmetric connection list.
pub fn closure_graph(nodes: usize, connections: &[Edge]) -> CsrGraph {
    CsrGraph::from_edges(nodes, &expand_connections(connections, true))
}

fn without(g: &GeneratedGraph, removed: &[NetworkUpdate]) -> Vec<Edge> {
    g.connections
        .iter()
        .filter(|e| {
            !removed.iter().any(|u| match *u {
                NetworkUpdate::Remove { src, dst, .. } => {
                    (e.src == src && e.dst == dst) || (e.src == dst && e.dst == src)
                }
                NetworkUpdate::Insert { .. } => false,
            })
        })
        .copied()
        .collect()
}

fn uniform_node(rng: &mut StdRng, nodes: usize) -> NodeId {
    NodeId(rng.gen_index(nodes) as u32)
}

/// Update edges for `client`: interior connections of the fragments it
/// owns (`fragment % clients == client`), each unique between its
/// endpoints and probed on a private snapshot clone to maintain without
/// a full recompute — the `safe_update_pairs` recipe of the serve
/// bench. Disjoint fragment ownership keeps concurrent clients' updates
/// independent, and a client has at most one of its edges deleted at a
/// time.
fn client_update_pairs(
    snapshot: &EngineSnapshot,
    rng: &mut StdRng,
    client: usize,
    clients: usize,
) -> Vec<UpdatePair> {
    let frag = snapshot.fragmentation();
    let border = |v: NodeId| frag.fragments_of_node(v).len() >= 2;
    let mut candidates: Vec<(usize, Edge)> = frag
        .fragments()
        .iter()
        .filter(|f| f.id() % clients == client)
        .flat_map(|f| f.edges().iter().map(move |e| (f.id(), *e)))
        .filter(|(_, e)| !(border(e.src) && border(e.dst)))
        .collect();
    // Seeded Fisher-Yates, so the picked edges vary with the seed.
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.gen_index(i + 1));
    }
    let mut scratch = ScratchDijkstra::new();
    let mut out = Vec::new();
    for (owner, e) in candidates {
        if out.len() == UPDATE_EDGES_PER_CLIENT {
            break;
        }
        let parallel = frag.fragments()[owner]
            .edges()
            .iter()
            .filter(|x| (x.src == e.src && x.dst == e.dst) || (x.src == e.dst && x.dst == e.src))
            .count();
        if parallel != 1 {
            continue;
        }
        let remove = NetworkUpdate::Remove {
            src: e.src,
            dst: e.dst,
            owner,
        };
        let mut probe = snapshot.clone();
        match probe.maintain(&remove, &mut scratch) {
            Ok(report) if !report.full_recompute => {}
            _ => continue,
        }
        out.push((remove, NetworkUpdate::Insert { edge: e, owner }));
    }
    assert_eq!(
        out.len(),
        UPDATE_EDGES_PER_CLIENT,
        "client {client} found too few incremental update edges"
    );
    out
}

/// Where a client's stream stopped: which of its update edges is next
/// and whether it is currently deleted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamEnd {
    pub client: usize,
    pub next_update: usize,
    pub removed: bool,
}

/// One client's endless op stream.
pub struct Stream {
    plan: Arc<Plan>,
    rng: StdRng,
    client: usize,
    next_update: usize,
    removed: bool,
}

impl Stream {
    /// The state the stream is in after the ops drawn so far.
    pub fn end(&self) -> StreamEnd {
        StreamEnd {
            client: self.client,
            next_update: self.next_update,
            removed: self.removed,
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let plan = &self.plan;
        Some(match plan.workload {
            // 80% query / 20% connected; 85% of endpoints a hot route.
            Workload::HotRead => {
                let query = self.rng.gen_index(100) < 80;
                let (x, y, uniform) = if self.rng.gen_index(100) < 85 {
                    let (x, y) = plan.hot[self.rng.gen_index(plan.hot.len())];
                    (x, y, false)
                } else {
                    let x = uniform_node(&mut self.rng, plan.nodes);
                    (x, uniform_node(&mut self.rng, plan.nodes), true)
                };
                if query {
                    Op::Query { x, y, uniform }
                } else {
                    Op::Connected { x, y }
                }
            }
            // 95% uniform query / 5% the client's next delete or re-insert.
            Workload::ColdMixed => {
                if self.rng.gen_index(100) < 5 {
                    let pairs = &plan.updates[self.client];
                    let (remove, insert) = pairs[self.next_update];
                    if self.removed {
                        self.removed = false;
                        self.next_update = (self.next_update + 1) % pairs.len();
                        Op::Update(insert)
                    } else {
                        self.removed = true;
                        Op::Update(remove)
                    }
                } else {
                    let x = uniform_node(&mut self.rng, plan.nodes);
                    let y = uniform_node(&mut self.rng, plan.nodes);
                    Op::Query {
                        x,
                        y,
                        uniform: true,
                    }
                }
            }
            // Not served: it replays its fixed batch instead.
            Workload::BatchClosure => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discset::TcEngine;

    const CLIENTS: usize = 2;

    fn setup(workload: Workload, seed: u64) -> (GeneratedGraph, EngineSnapshot, Arc<Plan>) {
        let g = network(seed);
        let snap = builder(&g)
            .build()
            .expect("benchmark network builds")
            .snapshot();
        let plan = Arc::new(Plan::new(workload, seed, &g, &snap, CLIENTS));
        (g, snap, plan)
    }

    fn ops(plan: &Arc<Plan>, n: usize) -> Vec<Vec<Op>> {
        (0..CLIENTS)
            .map(|c| plan.stream(c).take(n).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        for w in Workload::ALL {
            let inputs = |seed| {
                let (g, _, p) = setup(w, seed);
                let streams = ops(&p, 2000);
                (
                    g.connections,
                    p.hot.clone(),
                    p.updates.clone(),
                    p.batch.clone(),
                    streams,
                )
            };
            let (a, b, c) = (inputs(7), inputs(7), inputs(8));
            assert_eq!(a, b);
            assert_ne!(a.0, c.0);
            assert_ne!((&a.1, &a.2, &a.3), (&c.1, &c.2, &c.3));
            if w != Workload::BatchClosure {
                assert_ne!(a.4, c.4);
            }
        }
    }

    #[test]
    fn network_is_the_specified_shape() {
        let (g, snap, _) = setup(Workload::HotRead, 1);
        assert_eq!(g.nodes, COUNTRIES * NODES_PER_COUNTRY);
        assert_eq!(snap.site_count(), COUNTRIES);
    }

    #[test]
    fn hot_read_mix_matches_its_definition() {
        let (_, _, plan) = setup(Workload::HotRead, 3);
        let ops: Vec<Op> = plan.stream(0).take(20_000).collect();
        let queries = ops.iter().filter(|o| matches!(o, Op::Query { .. })).count();
        let hot = ops
            .iter()
            .filter(|o| match **o {
                Op::Query { x, y, .. } | Op::Connected { x, y } => plan.hot.contains(&(x, y)),
                Op::Update(_) => false,
            })
            .count();
        assert!((15_500..16_500).contains(&queries), "{queries}");
        assert!((16_600..17_400).contains(&hot), "{hot}");
    }

    #[test]
    fn cold_mixed_update_edges_are_disjoint_across_clients() {
        for seed in [1, 2] {
            let (_, _, plan) = setup(Workload::ColdMixed, seed);
            let edge = |u: &NetworkUpdate| match *u {
                NetworkUpdate::Remove { src, dst, .. } => (src.min(dst), src.max(dst)),
                NetworkUpdate::Insert { .. } => unreachable!("the first of a pair is the delete"),
            };
            let all: Vec<_> = plan.updates.iter().flatten().map(|p| edge(&p.0)).collect();
            let mut distinct = all.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), all.len());
            assert_eq!(all.len(), CLIENTS * UPDATE_EDGES_PER_CLIENT);
        }
    }

    #[test]
    fn every_cold_mixed_update_stays_incremental() {
        let (g, snap, plan) = setup(Workload::ColdMixed, 4);
        let mut private = snap.clone();
        let mut scratch = ScratchDijkstra::new();
        let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| plan.stream(c)).collect();
        let mut updates = 0;
        for i in 0..8_000 {
            let op = streams[i % CLIENTS].next().expect("streams are endless");
            if let Op::Update(u) = op {
                let report = private.maintain(&u, &mut scratch).expect("update applies");
                assert!(
                    !report.full_recompute,
                    "{u:?} fell back to a full recompute"
                );
                updates += 1;
            }
        }
        assert!(updates > 300, "{updates}");
        // Every combination of one deleted edge per client maintains
        // incrementally too, whatever the interleaving.
        for &(r0, i0) in &plan.updates[0] {
            for &(r1, _) in &plan.updates[1] {
                let mut s = snap.clone();
                for u in [r0, r1] {
                    let report = s.maintain(&u, &mut scratch).expect("update applies");
                    assert!(!report.full_recompute);
                }
                assert!(
                    !s.maintain(&i0, &mut scratch)
                        .expect("re-insert applies")
                        .full_recompute
                );
            }
        }
        // The final connection list is what the stream states say.
        let ends: Vec<StreamEnd> = streams.iter().map(Stream::end).collect();
        let finals = closure_graph(g.nodes, &plan.final_connections(&g, &ends));
        assert_eq!(finals.edge_count(), private.graph().edge_count());
    }
}
