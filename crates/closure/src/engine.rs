//! The disconnection set engine: precompute once, query many times.
//!
//! Since the snapshot split (see [`crate::snapshot`]) the engine is a
//! thin pairing of the immutable [`EngineSnapshot`] — tables, augmented
//! graphs, planner — with one persistent [`ScratchDijkstra`]: exactly the
//! single-threaded special case of the serve subsystem's
//! one-snapshot-many-scratches architecture.

use std::time::Duration;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, CsrGraph, NodeId, ScratchDijkstra, ScratchStats};

use crate::api::{BatchAnswer, NetworkUpdate, QueryRequest, TcEngine};
use crate::complementary::{ComplementaryInfo, ComplementaryScope, PrecomputeStats};
use crate::error::ClosureError;
use crate::executor::ExecutionMode;
use crate::snapshot::EngineSnapshot;
use crate::updates::UpdateReport;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which border pairs get complementary shortcuts.
    pub scope: ComplementaryScope,
    /// Keep one concrete path per shortcut, enabling
    /// [`DisconnectionSetEngine::route`].
    pub store_paths: bool,
    /// Chain enumeration caps for cyclic fragmentation graphs.
    pub max_chains: usize,
    pub max_chain_len: usize,
    /// Phase-one execution mode; it has a single value and is kept
    /// only for callers that still name it (see [`ExecutionMode`]).
    pub mode: ExecutionMode,
    /// Parallel Hierarchical Evaluation: the mandatory hub fragment, if
    /// the fragmentation was built with one (see [`crate::phe`]).
    pub hub: Option<FragmentId>,
    /// OS threads for the precompute's fragment-local sweep phase (and
    /// for fallback full recomputes during update maintenance). `1` (the
    /// default) runs sequentially; larger values engage
    /// [`crate::complementary::ComplementaryInfo::compute_with_threads`]
    /// — results are identical either way.
    pub precompute_threads: usize,
    /// Maintain an SCC/chain reachability index (`ds_graph::ReachIndex`)
    /// so `connected` queries bypass the shortest-path machinery
    /// entirely. On (the default) the index is built at deploy time,
    /// kept across updates that provably cannot change reachability and
    /// rebuilt (linear time) otherwise; off, `connected` always takes
    /// the Dijkstra-grade fallback path.
    pub reach_index: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scope: ComplementaryScope::default(),
            store_paths: false,
            max_chains: 64,
            max_chain_len: 16,
            mode: ExecutionMode::Sequential,
            hub: None,
            precompute_threads: 1,
            reach_index: true,
        }
    }
}

/// Per-query accounting.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Chains of fragments evaluated.
    pub chains_evaluated: usize,
    /// Site subqueries run (Σ chain lengths).
    pub site_queries: usize,
    /// Total tuples in the shipped segment relations.
    pub tuples_shipped: usize,
    /// Longest single site subquery — the phase-one wall time under full
    /// parallelism.
    pub max_site_busy: Duration,
    /// Total site work — the phase-one wall time on one processor.
    pub total_site_busy: Duration,
    /// Whether multi-chain enumeration was needed (cyclic G').
    pub enumerated: bool,
}

/// Result of a shortest-path query.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// Cheapest cost, `None` if unreachable.
    pub cost: Option<Cost>,
    /// The chain of fragments that achieved it.
    pub best_chain: Option<Vec<FragmentId>>,
    pub stats: QueryStats,
}

/// A fully reconstructed route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    pub cost: Cost,
    /// Every node of the path, source to destination.
    pub nodes: Vec<NodeId>,
    /// The fragment chain used.
    pub chain: Vec<FragmentId>,
    /// The border cities crossed (junction nodes of the assembly).
    pub waypoints: Vec<NodeId>,
}

/// The engine: a fragmented relation plus its precomputed complementary
/// information, ready to answer connection and shortest-path queries.
#[derive(Clone, Debug)]
pub struct DisconnectionSetEngine {
    snap: EngineSnapshot,
    /// The reusable Dijkstra kernel the batch path and update repair
    /// sweeps run on — persists across calls, so the steady state is
    /// allocation-free (see [`DisconnectionSetEngine::scratch_stats`]).
    scratch: ScratchDijkstra,
}

impl DisconnectionSetEngine {
    /// Build the engine: computes complementary information (the paper's
    /// pre-processing phase) and the per-site augmented graphs.
    ///
    /// `symmetric` declares that each fragment tuple stands for both
    /// travel directions (transportation networks); `graph` must be the
    /// matching directed closure graph.
    pub fn build(
        graph: CsrGraph,
        frag: Fragmentation,
        symmetric: bool,
        cfg: EngineConfig,
    ) -> Result<Self, ClosureError> {
        // The build path is shared with every other backend (the machine
        // simulation deploys from the same parts).
        Ok(DisconnectionSetEngine {
            snap: EngineSnapshot::build(graph, frag, symmetric, cfg)?,
            scratch: ScratchDijkstra::new(),
        })
    }

    /// Wrap an already-built snapshot (e.g. one the durability layer
    /// recovered from disk) without re-running the precompute.
    pub fn from_snapshot(snap: EngineSnapshot) -> Self {
        DisconnectionSetEngine {
            snap,
            scratch: ScratchDijkstra::new(),
        }
    }

    /// Reuse accounting of the engine's persistent scratch kernel: after
    /// warmup, batches run with zero array growths.
    pub fn scratch_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// Whether fragment tuples stand for both travel directions.
    pub fn is_symmetric(&self) -> bool {
        self.snap.is_symmetric()
    }

    /// The fragmentation this engine serves.
    pub fn fragmentation(&self) -> &Fragmentation {
        self.snap.fragmentation()
    }

    /// The precomputed complementary information.
    pub fn complementary(&self) -> &ComplementaryInfo {
        self.snap.complementary()
    }

    /// The global closure graph.
    pub fn graph(&self) -> &CsrGraph {
        self.snap.graph()
    }

    /// Borrow the engine's immutable snapshot (the shareable half).
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snap
    }

    /// Take the snapshot out of the engine (e.g. to publish it to a
    /// serve worker pool without cloning).
    pub fn into_snapshot(self) -> EngineSnapshot {
        self.snap
    }

    /// Shortest-path cost from `x` to `y`. Nodes outside every fragment
    /// yield an unreachable answer; see [`Self::try_shortest_path`] for
    /// the strict variant.
    pub fn shortest_path(&self, x: NodeId, y: NodeId) -> QueryAnswer {
        // One scratch per query (`&self` receiver), reused across every
        // chain and subquery of the query; the batch path reuses the
        // engine's persistent scratch instead.
        self.snap.shortest_path(x, y, &mut ScratchDijkstra::new())
    }

    /// Shortest-path cost, erring when an endpoint is in no fragment.
    pub fn try_shortest_path(&self, x: NodeId, y: NodeId) -> Result<QueryAnswer, ClosureError> {
        self.snap
            .try_shortest_path(x, y, &mut ScratchDijkstra::new())
    }

    /// Connection query — "Is A connected to B?". Answered by the
    /// snapshot's SCC/chain reachability index when fresh (no Dijkstra
    /// sweep); falls back to the shortest-path machinery otherwise.
    pub fn reachable(&self, x: NodeId, y: NodeId) -> bool {
        self.snap.connected(x, y, &mut ScratchDijkstra::new())
    }

    /// Reconstruct the full cheapest route. Requires
    /// `EngineConfig::store_paths`.
    pub fn route(&self, x: NodeId, y: NodeId) -> Result<Option<Route>, ClosureError> {
        self.snap.route(x, y, &mut ScratchDijkstra::new())
    }

    // --- update maintenance (see crate::updates for the algorithms) ---

    /// Insert a connection into fragment `owner`. For symmetric engines
    /// the reverse direction is inserted too.
    ///
    /// Both endpoints must already belong to the owner fragment —
    /// inserting within a region never changes the fragmentation's node
    /// sets, so disconnection sets (and the set of shortcut *pairs*) stay
    /// fixed and only shortcut *costs* can improve. Growing a fragment's
    /// node set is a re-fragmentation concern, out of scope for an
    /// engine-level update.
    pub fn insert_connection(
        &mut self,
        edge: ds_graph::Edge,
        owner: FragmentId,
    ) -> Result<UpdateReport, ClosureError> {
        let report = self
            .snap
            .maintain(&NetworkUpdate::Insert { edge, owner }, &mut self.scratch)?;
        self.snap.ensure_reach();
        Ok(report)
    }

    /// Remove every connection `src -> dst` (and the reverse direction on
    /// symmetric engines) from fragment `owner`. Repaired incrementally
    /// via the deletion repair rule; falls back to a full recompute only
    /// under the conditions listed in [`crate::updates`].
    pub fn remove_connection(
        &mut self,
        src: NodeId,
        dst: NodeId,
        owner: FragmentId,
    ) -> Result<UpdateReport, ClosureError> {
        let report = self.snap.maintain(
            &NetworkUpdate::Remove { src, dst, owner },
            &mut self.scratch,
        )?;
        self.snap.ensure_reach();
        Ok(report)
    }
}

impl TcEngine for DisconnectionSetEngine {
    fn backend_name(&self) -> &'static str {
        "inline"
    }

    fn site_count(&self) -> usize {
        self.snap.site_count()
    }

    fn fragmentation(&self) -> &Fragmentation {
        self.snap.fragmentation()
    }

    /// Unlike the inherent `&self` method (which must allocate a scratch
    /// per call), the `&mut self` trait path runs on the engine's
    /// persistent scratch — single queries through `TcEngine`/`System`
    /// are allocation-free in the steady state, like batches.
    fn shortest_path(&mut self, x: NodeId, y: NodeId) -> QueryAnswer {
        self.snap.shortest_path(x, y, &mut self.scratch)
    }

    fn route(&mut self, x: NodeId, y: NodeId) -> Result<Option<Route>, ClosureError> {
        self.snap.route(x, y, &mut self.scratch)
    }

    fn update(&mut self, update: &NetworkUpdate) -> Result<UpdateReport, ClosureError> {
        let report = self.snap.maintain(update, &mut self.scratch)?;
        // Eager per-update rebuild: the inline engine has no publication
        // boundary to amortize across, and a fresh index keeps
        // `connected` sweep-free immediately after the update.
        self.snap.ensure_reach();
        Ok(report)
    }

    fn precompute_stats(&self) -> PrecomputeStats {
        self.snap.precompute_stats()
    }

    fn snapshot(&self) -> EngineSnapshot {
        self.snap.clone()
    }

    /// Routed through the snapshot's reachability index when fresh —
    /// overriding the trait default, which computes a full shortest
    /// path to learn a boolean.
    fn connected(&mut self, x: NodeId, y: NodeId) -> bool {
        self.snap.connected(x, y, &mut self.scratch)
    }

    fn query_batch(&mut self, requests: &[QueryRequest]) -> BatchAnswer {
        self.snap.query_batch(requests, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use ds_fragment::linear::{linear_sweep, LinearConfig};
    use ds_gen::deterministic::{grid, two_triangles_bridge};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn grid_engine(cfg: EngineConfig) -> (ds_gen::GeneratedGraph, DisconnectionSetEngine) {
        let g = grid(10, 4);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let engine = DisconnectionSetEngine::build(g.closure_graph(), frag, true, cfg).unwrap();
        (g, engine)
    }

    #[test]
    fn matches_global_dijkstra_everywhere() {
        let (g, engine) = grid_engine(EngineConfig::default());
        let csr = g.closure_graph();
        for x in (0..40).step_by(7) {
            for y in (0..40).step_by(5) {
                let got = engine.shortest_path(n(x), n(y)).cost;
                let want = baseline::shortest_path_cost(&csr, n(x), n(y));
                assert_eq!(got, want, "query {x}->{y}");
            }
        }
    }

    #[test]
    fn same_fragment_fast_path_uses_one_site() {
        let (_, engine) = grid_engine(EngineConfig::default());
        // Nodes 0 and 1 are in the first sweep fragment.
        let a = engine.shortest_path(n(0), n(1));
        assert_eq!(a.cost, Some(1));
        assert_eq!(a.best_chain.as_deref(), Some(&[0][..]));
        assert_eq!(a.stats.site_queries, 1);
    }

    #[test]
    fn self_query_is_zero() {
        let (_, engine) = grid_engine(EngineConfig::default());
        let a = engine.shortest_path(n(17), n(17));
        assert_eq!(a.cost, Some(0));
        assert!(engine.reachable(n(17), n(17)));
    }

    /// The steady-state `query_batch` path performs zero O(V) heap
    /// allocations: the engine's persistent scratch grows once (on the
    /// first batch) and is only reused from then on.
    #[test]
    fn query_batch_steady_state_is_allocation_free() {
        use crate::api::QueryRequest;
        let (_, mut engine) = grid_engine(EngineConfig::default());
        let requests: Vec<QueryRequest> = (0..8u32)
            .map(|i| QueryRequest::new(n(i), n(39 - i)))
            .collect();
        assert_eq!(engine.scratch_stats(), ds_graph::ScratchStats::default());
        let first = engine.query_batch(&requests);
        let warm = engine.scratch_stats();
        assert_eq!(warm.grows, 1, "arrays grow exactly once, on first use");
        assert!(warm.sweeps > 0);
        let second = engine.query_batch(&requests);
        let steady = engine.scratch_stats();
        assert_eq!(steady.grows, warm.grows, "steady state: no allocations");
        assert!(
            steady.sweeps > warm.sweeps,
            "batches really use the scratch"
        );
        assert_eq!(first.costs(), second.costs());
    }

    /// Per-phase precompute timing is exposed through the engine (and the
    /// `TcEngine` trait) so callers can see where build time goes.
    #[test]
    fn precompute_stats_exposed_through_the_trait() {
        let (_, mut engine) = grid_engine(EngineConfig::default());
        let stats = TcEngine::precompute_stats(&engine);
        assert_eq!(
            stats.strategy,
            crate::complementary::PrecomputeStrategy::Skeleton
        );
        assert!(stats.local_sweeps_ns > 0, "{stats:?}");
        assert!(stats.total_ns() >= stats.local_sweeps_ns);
        // Stats survive (and reflect) update maintenance.
        let f0 = engine.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        engine
            .insert_connection(ds_graph::Edge::new(a, b, 1), 0)
            .unwrap();
        assert!(TcEngine::precompute_stats(&engine).total_ns() > 0);
    }

    /// The trait-level snapshot is the engine's own immutable half: same
    /// tables, same answers, attributed to the inline backend.
    #[test]
    fn snapshot_through_the_trait_answers_identically() {
        let (_, engine) = grid_engine(EngineConfig::default());
        let snap = TcEngine::snapshot(&engine);
        assert_eq!(snap.source_backend(), "inline");
        assert_eq!(snap.precompute_stats(), TcEngine::precompute_stats(&engine));
        let mut scratch = ScratchDijkstra::new();
        for (x, y) in [(0u32, 39u32), (5, 33), (12, 12)] {
            assert_eq!(
                snap.shortest_path(n(x), n(y), &mut scratch).cost,
                engine.shortest_path(n(x), n(y)).cost,
                "query {x}->{y}"
            );
        }
    }

    #[test]
    fn route_reconstruction_is_a_real_path() {
        let (g, engine) = grid_engine(EngineConfig {
            store_paths: true,
            ..EngineConfig::default()
        });
        let csr = g.closure_graph();
        let route = engine.route(n(0), n(39)).unwrap().expect("reachable");
        assert_eq!(
            Some(route.cost),
            baseline::shortest_path_cost(&csr, n(0), n(39))
        );
        assert_eq!(*route.nodes.first().unwrap(), n(0));
        assert_eq!(*route.nodes.last().unwrap(), n(39));
        // Every hop must be a real edge; costs must sum to the total.
        let mut total = 0;
        for hop in route.nodes.windows(2) {
            let cost = csr
                .neighbors(hop[0])
                .filter(|(t, _)| *t == hop[1])
                .map(|(_, c)| c)
                .min()
                .unwrap_or_else(|| panic!("hop {}->{} is not a real edge", hop[0], hop[1]));
            total += cost;
        }
        assert_eq!(total, route.cost);
    }

    #[test]
    fn route_requires_store_paths() {
        let (_, engine) = grid_engine(EngineConfig::default());
        assert_eq!(
            engine.route(n(0), n(5)).unwrap_err(),
            ClosureError::RoutesNotEnabled
        );
    }

    #[test]
    fn unreachable_is_none_not_error() {
        // Two disconnected triangles fragmented apart.
        let g = two_triangles_bridge();
        // Remove the bridge connection (2,3) to disconnect.
        let mut connections = g.connections.clone();
        connections.retain(|e| !(e.src == n(2) && e.dst == n(3)));
        let frag = ds_fragment::semantic::by_labels(
            6,
            &connections,
            &[0, 0, 0, 1, 1, 1],
            2,
            ds_fragment::CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let csr = ds_graph::CsrGraph::from_edges(
            6,
            &ds_gen::output::expand_connections(&connections, true),
        );
        let engine =
            DisconnectionSetEngine::build(csr, frag, true, EngineConfig::default()).unwrap();
        let a = engine.shortest_path(n(0), n(4));
        assert_eq!(a.cost, None);
        assert!(!engine.reachable(n(0), n(4)));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let g = grid(3, 3);
        let frag = linear_sweep(&g.edge_list(), &LinearConfig::default())
            .unwrap()
            .fragmentation;
        let wrong = grid(4, 4).closure_graph();
        assert!(matches!(
            DisconnectionSetEngine::build(wrong, frag, true, EngineConfig::default()),
            Err(ClosureError::NodeCountMismatch { .. })
        ));
    }

    #[test]
    fn stats_reflect_chain_structure() {
        let (_, engine) = grid_engine(EngineConfig::default());
        // Corner to corner crosses all 4 sweep fragments.
        let a = engine.shortest_path(n(0), n(39));
        assert!(a.stats.chains_evaluated >= 1);
        assert!(
            a.stats.site_queries >= 4,
            "at least one query per chain fragment"
        );
        assert!(a.stats.tuples_shipped > 0);
        assert!(
            !a.stats.enumerated,
            "linear fragmentation is loosely connected"
        );
    }
}
