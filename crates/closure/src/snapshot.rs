//! The immutable half of an engine: everything queries read, nothing
//! they write.
//!
//! The paper's phase-one independence is a statement about *data*: query
//! evaluation only ever reads the precomputed complementary information,
//! the per-site augmented graphs and the planner. The mutable pieces of
//! an engine — the Dijkstra scratch, batch buffers — are per-*execution*
//! state, not per-*engine* state. [`EngineSnapshot`] makes that split
//! explicit:
//!
//! * a snapshot is `Send + Sync` and can be shared across any number of
//!   reader threads behind an `Arc` (the `ds_serve` crate does exactly
//!   that: one snapshot, one worker pool, per-worker scratch);
//! * every query method takes `&self` plus a caller-owned
//!   [`ScratchDijkstra`], so concurrent readers never contend;
//! * updates go through [`EngineSnapshot::maintain`], which mutates in
//!   place — an exclusive owner (the inline engine, the serve writer
//!   thread working on a private clone) applies the incremental
//!   maintenance of [`crate::updates`] and republishes.
//!
//! [`crate::engine::DisconnectionSetEngine`] is now a thin wrapper:
//! one snapshot plus one persistent scratch.
//!
//! ## Structural sharing
//!
//! Every per-site component — each augmented graph, each real-hop set,
//! and (inside [`ComplementaryInfo`]) each shortcut table — lives behind
//! its own `Arc`, as do the whole-graph pieces (global graph,
//! fragmentation, planner). Cloning a snapshot therefore costs O(sites)
//! refcount bumps, not a deep copy: that is what makes the serve
//! writer's per-epoch publication cheap. [`EngineSnapshot::maintain`]
//! preserves the sharing — it replaces exactly the Arcs of the sites an
//! update touched (via fresh allocations or [`std::sync::Arc::make_mut`])
//! and leaves every other site pointer-shared with the previous epoch.
//! `tests/properties.rs` asserts `Arc::ptr_eq` for untouched sites across
//! consecutive epochs on both fragmenter families.

use std::collections::HashSet;
use std::sync::Arc;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, CsrGraph, NodeId, ReachIndex, ScratchDijkstra};
use ds_relation::{PathTuple, Relation};

use crate::api::{
    build_parts, run_batch_bounded, BatchAnswer, EngineParts, NetworkUpdate, QueryRequest,
    RealHopSet, SiteEvaluator,
};
use crate::assemble;
use crate::complementary::{ComplementaryInfo, PrecomputeStats};
use crate::engine::{EngineConfig, QueryAnswer, QueryStats, Route};
use crate::error::ClosureError;
use crate::executor::run_chain;
use crate::local::augmented_graph;
use crate::planner::{ChainPlan, Planner};
use crate::updates::{ConnectivityEffect, UpdateReport};

/// The immutable, shareable state of a deployed engine: the global
/// closure graph, the fragmentation, the complementary tables, the
/// per-site augmented graphs and the chain planner.
///
/// A snapshot answers queries through `&self` methods that borrow a
/// caller-owned scratch kernel; it never locks and never allocates
/// per-query beyond the answer itself. Sharing is by `Arc`: the serve
/// subsystem publishes a snapshot per *epoch* and lets in-flight readers
/// finish on whatever epoch they started with.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    graph: Arc<CsrGraph>,
    frag: Arc<Fragmentation>,
    symmetric: bool,
    cfg: EngineConfig,
    comp: ComplementaryInfo,
    /// Per site, behind its own `Arc`: the site's augmented local graph.
    augmented: Vec<Arc<CsrGraph>>,
    /// Per site, behind its own `Arc`: the real (non-shortcut) hops
    /// available locally, with costs — used to tell shortcut hops apart
    /// during route expansion.
    real_hops: Vec<Arc<RealHopSet>>,
    planner: Arc<Planner>,
    /// SCC/chain reachability index over the global closure graph, the
    /// fast path behind [`EngineSnapshot::connected`]. `None` when
    /// [`EngineConfig::reach_index`] is off, or when the last update
    /// could have changed reachability (*stale*) — `connected` then
    /// falls back to the shortest-path machinery until
    /// [`EngineSnapshot::ensure_reach`] rebuilds it. Arc-shared across
    /// epochs like every other component: a kept index costs one
    /// refcount bump per publication.
    reach: Option<Arc<ReachIndex>>,
    /// Which backend's build path produced this snapshot ("inline",
    /// "site-threads") — reported by `ds_serve::ServeStats` so operators
    /// can see what they are serving.
    source_backend: &'static str,
}

/// What one [`EngineSnapshot::maintain_cow`] call replaced: the update
/// report plus the concrete per-site sharing outcome, so callers (and the
/// structural-sharing property tests) know exactly which sites' Arcs were
/// detached from the previous epoch.
#[derive(Clone, Debug)]
pub struct CowMaintenance {
    pub report: UpdateReport,
    /// The fragment whose edge set changed (`None` for a no-op removal):
    /// its augmented graph and real-hop set were replaced.
    pub owner: Option<FragmentId>,
    /// Sites whose shortcut table (and hence augmented graph) was
    /// replaced — every site after a fallback full recompute.
    pub shortcut_sites: Vec<FragmentId>,
    /// Union of `owner` and `shortcut_sites`, sorted: the sites whose
    /// components are *not* shared with the pre-update snapshot. Every
    /// other site remains `Arc::ptr_eq` with it.
    pub touched_sites: Vec<FragmentId>,
    /// Whether the reachability index survived this update (`true` also
    /// when the index is disabled — there was nothing to invalidate).
    /// `false` means the index was dropped as stale; `connected` falls
    /// back until [`EngineSnapshot::ensure_reach`] rebuilds it.
    pub reach_kept: bool,
}

impl EngineSnapshot {
    /// Build a snapshot from scratch: runs the shared build path
    /// ([`build_parts`]) and assembles the per-site real-hop sets.
    pub fn build(
        graph: CsrGraph,
        frag: Fragmentation,
        symmetric: bool,
        cfg: EngineConfig,
    ) -> Result<Self, ClosureError> {
        let parts = build_parts(&graph, &frag, symmetric, &cfg)?;
        Ok(Self::from_parts(
            graph, frag, symmetric, cfg, parts, "inline",
        ))
    }

    /// Wrap an already-built [`EngineParts`] (the shared pre-processing
    /// outcome both backends deploy from) into a snapshot.
    pub fn from_parts(
        graph: CsrGraph,
        frag: Fragmentation,
        symmetric: bool,
        cfg: EngineConfig,
        parts: EngineParts,
        source_backend: &'static str,
    ) -> Self {
        let reach = cfg.reach_index.then(|| Arc::new(ReachIndex::build(&graph)));
        EngineSnapshot {
            graph: Arc::new(graph),
            frag: Arc::new(frag),
            symmetric,
            cfg,
            comp: parts.comp,
            augmented: parts.augmented,
            real_hops: parts.real_hops,
            planner: parts.planner,
            reach,
            source_backend,
        }
    }

    /// Assemble a snapshot from retained coordinator state (graph,
    /// fragmentation, complementary tables, planner), rebuilding the
    /// augmented graphs and real-hop sets. This is how the machine
    /// backend — whose sites own their augmented graphs — produces a
    /// snapshot without re-running the precompute. The coordinator hands
    /// over `Arc` handles, so the whole-graph pieces are shared with the
    /// machine rather than copied.
    ///
    /// `reach` is the caller's reachability index over `graph`, shared
    /// rather than rebuilt when it has one; pass `None` to build it here
    /// (gated on [`EngineConfig::reach_index`]).
    #[allow(clippy::too_many_arguments)] // mirrors the retained coordinator state
    pub fn assemble(
        graph: Arc<CsrGraph>,
        frag: Arc<Fragmentation>,
        symmetric: bool,
        cfg: EngineConfig,
        comp: ComplementaryInfo,
        planner: Arc<Planner>,
        reach: Option<Arc<ReachIndex>>,
        source_backend: &'static str,
    ) -> Self {
        let n = graph.node_count();
        let mut augmented = Vec::with_capacity(frag.fragment_count());
        let mut real_hops = Vec::with_capacity(frag.fragment_count());
        for f in frag.fragments() {
            augmented.push(Arc::new(augmented_graph(
                n,
                f.edges(),
                symmetric,
                comp.shortcuts(f.id()),
            )));
            real_hops.push(Arc::new(real_hop_set(f.edges(), symmetric)));
        }
        let reach = reach.or_else(|| cfg.reach_index.then(|| Arc::new(ReachIndex::build(&graph))));
        EngineSnapshot {
            graph,
            frag,
            symmetric,
            cfg,
            comp,
            augmented,
            real_hops,
            planner,
            reach,
            source_backend,
        }
    }

    /// A deep copy that shares **nothing** with `self`: every component —
    /// global graph, fragmentation, planner, per-site augmented graphs,
    /// real-hop sets and shortcut tables — gets a fresh allocation.
    ///
    /// This is exactly what a per-epoch publication cost before
    /// structural sharing; the serve bench uses it as the baseline of the
    /// publication-cost measurement. It is also the right tool to detach
    /// a snapshot from a long-lived shared lineage (e.g. to archive one
    /// epoch without pinning another epoch's memory).
    pub fn unshared_clone(&self) -> Self {
        EngineSnapshot {
            graph: Arc::new((*self.graph).clone()),
            frag: Arc::new((*self.frag).clone()),
            symmetric: self.symmetric,
            cfg: self.cfg.clone(),
            comp: self.comp.unshared_clone(),
            augmented: self
                .augmented
                .iter()
                .map(|g| Arc::new((**g).clone()))
                .collect(),
            real_hops: self
                .real_hops
                .iter()
                .map(|h| Arc::new((**h).clone()))
                .collect(),
            planner: Arc::new((*self.planner).clone()),
            reach: self.reach.as_ref().map(|r| Arc::new((**r).clone())),
            source_backend: self.source_backend,
        }
    }

    // --- accessors -----------------------------------------------------

    /// The global closure graph this snapshot answers for.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The fragmentation this snapshot serves.
    pub fn fragmentation(&self) -> &Fragmentation {
        &self.frag
    }

    /// Number of sites (fragments = processors).
    pub fn site_count(&self) -> usize {
        self.frag.fragment_count()
    }

    /// Whether fragment tuples stand for both travel directions.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The engine configuration the snapshot was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The precomputed complementary information.
    pub fn complementary(&self) -> &ComplementaryInfo {
        &self.comp
    }

    /// The chain planner over this snapshot's fragmentation.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    // --- structural-sharing handles ------------------------------------

    /// The shared handle behind site `f`'s augmented graph. Two snapshots
    /// whose handles are `Arc::ptr_eq` physically share that site's
    /// graph — the structural-sharing contract across epochs.
    pub fn augmented_handle(&self, f: FragmentId) -> &Arc<CsrGraph> {
        &self.augmented[f]
    }

    /// The shared handle behind site `f`'s real-hop set.
    pub fn real_hops_handle(&self, f: FragmentId) -> &Arc<RealHopSet> {
        &self.real_hops[f]
    }

    /// The shared handle behind the global closure graph.
    pub fn graph_handle(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The shared handle behind the chain planner.
    pub fn planner_handle(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// The reachability index, when present and fresh. `None` means
    /// [`EngineSnapshot::connected`] currently falls back to the
    /// shortest-path machinery (index disabled, or stale after an
    /// update that could have changed reachability).
    pub fn reach_index(&self) -> Option<&ReachIndex> {
        self.reach.as_deref()
    }

    /// The shared handle behind the reachability index (for the
    /// structural-sharing property tests: a kept index stays
    /// `Arc::ptr_eq` across epochs).
    pub fn reach_handle(&self) -> Option<&Arc<ReachIndex>> {
        self.reach.as_ref()
    }

    /// Rebuild the reachability index if it is enabled but stale
    /// (linear in the graph). Owners call this eagerly after updates —
    /// the inline engine per update, the serve writer once per write
    /// batch before publishing — so readers never pay the rebuild.
    /// Returns whether a fresh index is now present.
    pub fn ensure_reach(&mut self) -> bool {
        if self.cfg.reach_index && self.reach.is_none() {
            self.reach = Some(Arc::new(ReachIndex::build(&self.graph)));
        }
        self.reach.is_some()
    }

    /// Per-phase timing of the precompute that built (or last rebuilt)
    /// the tables this snapshot serves.
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.comp.precompute_stats()
    }

    /// Which backend's build path produced this snapshot.
    pub fn source_backend(&self) -> &'static str {
        self.source_backend
    }

    // --- queries (&self + caller-owned scratch) ------------------------

    /// Shortest-path cost from `x` to `y` on `scratch`. Nodes outside
    /// every fragment yield an unreachable answer; see
    /// [`EngineSnapshot::try_shortest_path`] for the strict variant.
    pub fn shortest_path(
        &self,
        x: NodeId,
        y: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> QueryAnswer {
        self.try_shortest_path(x, y, scratch)
            .unwrap_or(QueryAnswer {
                cost: None,
                best_chain: None,
                stats: QueryStats::default(),
            })
    }

    /// Shortest-path cost, erring when an endpoint is in no fragment.
    pub fn try_shortest_path(
        &self,
        x: NodeId,
        y: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> Result<QueryAnswer, ClosureError> {
        if x == y {
            return Ok(QueryAnswer {
                cost: Some(0),
                best_chain: self.planner.fragments_of(x).first().map(|&f| vec![f]),
                stats: QueryStats::default(),
            });
        }
        let plan = self.planner.plan(x, y)?;
        let mut stats = QueryStats {
            enumerated: plan.enumerated,
            ..QueryStats::default()
        };
        let mut best: Option<(Cost, Vec<FragmentId>)> = None;
        for chain in &plan.chains {
            let (segments, runs) = run_chain(&self.augmented, chain, self.cfg.mode, scratch);
            stats.chains_evaluated += 1;
            stats.site_queries += runs.len();
            for r in &runs {
                stats.tuples_shipped += r.tuples;
                stats.total_site_busy += r.busy;
                stats.max_site_busy = stats.max_site_busy.max(r.busy);
            }
            if let Some(cost) = assemble::chain_cost(&segments, x, y) {
                if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, chain.fragments.clone()));
                }
            }
        }
        let (cost, best_chain) = match best {
            Some((c, ch)) => (Some(c), Some(ch)),
            None => (None, None),
        };
        Ok(QueryAnswer {
            cost,
            best_chain,
            stats,
        })
    }

    /// Connection query — "is `x` connected to `y`?".
    ///
    /// Answered by the SCC/chain reachability index when it is present
    /// and fresh — one component comparison plus at most one binary
    /// search, no Dijkstra sweep, `scratch` untouched. Falls back to
    /// the shortest-path machinery when the index is disabled or stale.
    pub fn connected(&self, x: NodeId, y: NodeId, scratch: &mut ScratchDijkstra) -> bool {
        if x == y {
            return true;
        }
        if let Some(reach) = &self.reach {
            if x.index() < reach.node_count() && y.index() < reach.node_count() {
                return reach.reaches(x, y);
            }
        }
        self.shortest_path(x, y, scratch).cost.is_some()
    }

    /// Answer many shortest-path requests on `scratch`, amortizing chain
    /// planning and interior segment evaluation across the batch (see
    /// [`run_batch_bounded`]).
    pub fn query_batch(
        &self,
        requests: &[QueryRequest],
        scratch: &mut ScratchDijkstra,
    ) -> BatchAnswer {
        self.query_batch_bounded(requests, scratch, &[], None, &[])
            .into()
    }

    /// [`EngineSnapshot::query_batch`] with request tracing and
    /// cooperative cancellation. `traces[i]` is request `i`'s id, and
    /// per-request evaluation timings (total plus per-chain segments)
    /// are appended to `sink`; answers are identical to the untraced
    /// path. `deadlines[i]` is request `i`'s absolute deadline (empty
    /// slice or `None` = unbounded), checked between requests and
    /// between fragment chains. A request that blows its deadline
    /// mid-evaluation comes back as `None` instead of an answer; the
    /// serve tier resolves those with
    /// [`ClosureError::DeadlineExceeded`]. Tracing is optional: pass an
    /// empty `traces` slice and `None` for `sink` on the untraced path.
    pub fn query_batch_bounded(
        &self,
        requests: &[QueryRequest],
        scratch: &mut ScratchDijkstra,
        traces: &[ds_obs::TraceId],
        sink: Option<&mut Vec<ds_obs::EvalTrace>>,
        deadlines: &[Option<std::time::Instant>],
    ) -> crate::api::BoundedBatchAnswer {
        let mut eval = InlineEval {
            augmented: &self.augmented,
            scratch,
        };
        run_batch_bounded(&self.planner, &mut eval, requests, traces, sink, deadlines)
    }

    /// Reconstruct the full cheapest route. Requires
    /// [`EngineConfig::store_paths`].
    pub fn route(
        &self,
        x: NodeId,
        y: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> Result<Option<Route>, ClosureError> {
        if !self.comp.has_paths() {
            return Err(ClosureError::RoutesNotEnabled);
        }
        if x == y {
            return Ok(Some(Route {
                cost: 0,
                nodes: vec![x],
                chain: self
                    .planner
                    .fragments_of(x)
                    .first()
                    .map(|&f| vec![f])
                    .unwrap_or_default(),
                waypoints: vec![x],
            }));
        }
        let plan = self.planner.plan(x, y)?;
        let mut best: Option<(Cost, Vec<NodeId>, Vec<FragmentId>)> = None;
        for chain in &plan.chains {
            let (segments, _) = run_chain(&self.augmented, chain, self.cfg.mode, scratch);
            if let Some((cost, waypoints)) = assemble::best_waypoints(&segments, x, y) {
                if best.as_ref().is_none_or(|(b, _, _)| cost < *b) {
                    best = Some((cost, waypoints, chain.fragments.clone()));
                }
            }
        }
        let Some((cost, waypoints, chain)) = best else {
            return Ok(None);
        };

        // Expand each junction-to-junction leg within its site, on the
        // same scratch the chain evaluation used.
        // waypoints = [x, w1, …, y]; leg k runs at site chain[k].
        debug_assert_eq!(waypoints.len(), chain.len() + 1);
        let mut nodes = vec![x];
        for (k, leg) in waypoints.windows(2).enumerate() {
            let expanded = self.expand_leg(chain[k], leg[0], leg[1], scratch);
            nodes.extend_from_slice(&expanded[1..]);
        }
        Ok(Some(Route {
            cost,
            nodes,
            chain,
            waypoints,
        }))
    }

    /// Expand one leg `a -> b` at `site` into real graph nodes, splicing
    /// complementary shortcut hops with their stored global paths.
    fn expand_leg(
        &self,
        site: FragmentId,
        a: NodeId,
        b: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> Vec<NodeId> {
        if a == b {
            return vec![a];
        }
        scratch.sweep_to_targets(&self.augmented[site], &[(a, 0)], &[b]);
        let local = scratch
            .path_to(b)
            .expect("assembly proved this leg reachable at this site");
        let mut out = vec![a];
        for hop in local.windows(2) {
            let (p, q) = (hop[0], hop[1]);
            let hop_cost = scratch.cost(q).expect("on path") - scratch.cost(p).expect("on path");
            if self.real_hops[site].contains(&(p, q, hop_cost)) {
                out.push(q);
            } else {
                let shortcut = self
                    .comp
                    .path(p, q)
                    .expect("non-fragment hop must be a stored shortcut");
                out.extend_from_slice(&shortcut[1..]);
            }
        }
        out
    }

    // --- maintenance (exclusive owner only) ----------------------------

    /// Apply a network update in place, keeping answers exact afterwards:
    /// runs the shared maintenance path ([`crate::updates::maintain`]),
    /// then refreshes the touched sites' augmented graphs and the owner's
    /// real-hop set. See [`EngineSnapshot::maintain_cow`] for the variant
    /// that also reports *which* sites were touched.
    ///
    /// A snapshot shared behind an `Arc` cannot (and must not) be
    /// maintained through the `Arc` — clone it first (O(sites): every
    /// component is `Arc`-shared) and republish the maintained clone,
    /// which is exactly what the `ds_serve` writer thread does. The
    /// maintenance replaces only the touched sites' Arcs; everything else
    /// stays physically shared with the pre-update snapshot.
    pub fn maintain(
        &mut self,
        update: &NetworkUpdate,
        scratch: &mut ScratchDijkstra,
    ) -> Result<UpdateReport, ClosureError> {
        self.maintain_cow(update, scratch).map(|m| m.report)
    }

    /// [`EngineSnapshot::maintain`] with the copy-on-write outcome made
    /// explicit: which sites' components were detached from the previous
    /// epoch (and must be shipped / re-cached), and which remain shared.
    pub fn maintain_cow(
        &mut self,
        update: &NetworkUpdate,
        scratch: &mut ScratchDijkstra,
    ) -> Result<CowMaintenance, ClosureError> {
        let m = crate::updates::maintain(
            &mut self.graph,
            &mut self.frag,
            self.symmetric,
            &self.cfg,
            &mut self.comp,
            update,
            scratch,
        )?;
        // Keep-vs-drop for the reachability index, decided *after* the
        // maintenance succeeded (an erring update leaves it untouched),
        // while `self.reach` still holds the pre-update index — the
        // rules of [`ConnectivityEffect`]:
        let keep = match m.connectivity {
            ConnectivityEffect::Unchanged => true,
            ConnectivityEffect::Inserted { src, dst } => self.reach.as_ref().is_some_and(|r| {
                r.reaches(src, dst) && (!self.symmetric || src == dst || r.reaches(dst, src))
            }),
            ConnectivityEffect::Removed { parallel_remains } => parallel_remains,
        };
        if !keep {
            self.reach = None;
        }
        let reach_kept = keep || !self.cfg.reach_index;
        let Some(owner) = m.owner else {
            return Ok(CowMaintenance {
                report: m.report,
                owner: None,
                shortcut_sites: Vec::new(),
                touched_sites: Vec::new(),
                reach_kept,
            });
        };
        let mut sites: std::collections::BTreeSet<FragmentId> =
            m.shortcut_sites.iter().copied().collect();
        sites.insert(owner);
        for &f in &sites {
            // A fresh Arc per touched site; untouched sites keep sharing
            // their augmented graph with the pre-update snapshot.
            self.augmented[f] = Arc::new(augmented_graph(
                self.graph.node_count(),
                self.frag.fragment(f).edges(),
                self.symmetric,
                self.comp.shortcuts(f),
            ));
        }
        self.real_hops[owner] = Arc::new(real_hop_set(
            self.frag.fragment(owner).edges(),
            self.symmetric,
        ));
        Ok(CowMaintenance {
            report: m.report,
            owner: Some(owner),
            shortcut_sites: m.shortcut_sites,
            touched_sites: sites.into_iter().collect(),
            reach_kept,
        })
    }
}

fn real_hop_set(edges: &[ds_graph::Edge], symmetric: bool) -> RealHopSet {
    let mut hops = HashSet::with_capacity(edges.len() * 2);
    for e in edges {
        hops.insert((e.src, e.dst, e.cost));
        if symmetric && !e.is_loop() {
            hops.insert((e.dst, e.src, e.cost));
        }
    }
    hops
}

/// Site evaluation for snapshot-backed (and inline-engine) batches:
/// subqueries run on the calling thread against the caller's scratch.
struct InlineEval<'a> {
    augmented: &'a [Arc<CsrGraph>],
    scratch: &'a mut ScratchDijkstra,
}

impl SiteEvaluator for InlineEval<'_> {
    fn eval_positions(
        &mut self,
        chain: &ChainPlan,
        positions: &[usize],
        stats: &mut QueryStats,
    ) -> Vec<Relation<PathTuple>> {
        let sub = ChainPlan {
            fragments: positions.iter().map(|&p| chain.queries[p].site).collect(),
            queries: positions
                .iter()
                .map(|&p| chain.queries[p].clone())
                .collect(),
        };
        let (segments, runs) = run_chain(
            self.augmented,
            &sub,
            crate::executor::ExecutionMode::Sequential,
            self.scratch,
        );
        for r in &runs {
            stats.site_queries += 1;
            stats.tuples_shipped += r.tuples;
            stats.total_site_busy += r.busy;
            stats.max_site_busy = stats.max_site_busy.max(r.busy);
        }
        segments
    }
}

/// Compile-time `Send + Sync` guarantees for everything the serve layer
/// shares across threads. A future `Rc`/`RefCell`/raw-pointer regression
/// in any of these types fails *here*, in the crate that owns the
/// invariant, rather than as a confusing trait-bound error in `ds_serve`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineParts>();
    assert_send_sync::<ComplementaryInfo>();
    assert_send_sync::<Fragmentation>();
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Planner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use ds_fragment::linear::{linear_sweep, LinearConfig};
    use ds_gen::deterministic::grid;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn snapshot() -> (ds_gen::GeneratedGraph, EngineSnapshot) {
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
        let snap =
            EngineSnapshot::build(g.closure_graph(), frag, true, EngineConfig::default()).unwrap();
        (g, snap)
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let snap = std::sync::Arc::new(snap);
        let answers: Vec<Vec<Option<Cost>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|t| {
                    let snap = std::sync::Arc::clone(&snap);
                    s.spawn(move || {
                        let mut scratch = ScratchDijkstra::new();
                        (0..40u32)
                            .map(|i| {
                                snap.shortest_path(n((i + t) % 40), n(39 - i), &mut scratch)
                                    .cost
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, row) in answers.iter().enumerate() {
            for (i, got) in row.iter().enumerate() {
                let want = baseline::shortest_path_cost(
                    &csr,
                    n(((i as u32) + t as u32) % 40),
                    n(39 - i as u32),
                );
                assert_eq!(*got, want, "thread {t} query {i}");
            }
        }
    }

    #[test]
    fn assemble_equals_from_parts() {
        let g = grid(8, 3);
        let frag = linear_sweep(
            &g.edge_list(),
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let cfg = EngineConfig::default();
        let built =
            EngineSnapshot::build(g.closure_graph(), frag.clone(), true, cfg.clone()).unwrap();
        let assembled = EngineSnapshot::assemble(
            Arc::new(g.closure_graph()),
            Arc::new(frag),
            true,
            cfg,
            built.complementary().clone(),
            Arc::clone(built.planner_handle()),
            None,
            "site-threads",
        );
        assert_eq!(assembled.source_backend(), "site-threads");
        assert!(
            assembled.reach_index().is_some(),
            "assemble builds the index when the caller has none"
        );
        let mut s1 = ScratchDijkstra::new();
        let mut s2 = ScratchDijkstra::new();
        for (x, y) in [(0u32, 23u32), (5, 17), (12, 12), (23, 0)] {
            assert_eq!(
                built.shortest_path(n(x), n(y), &mut s1).cost,
                assembled.shortest_path(n(x), n(y), &mut s2).cost,
                "query {x}->{y}"
            );
        }
    }

    #[test]
    fn connected_answers_from_the_index_without_sweeps() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let mut scratch = ScratchDijkstra::new();
        assert!(snap.reach_index().is_some(), "index built by default");
        let sweeps_before = scratch.stats().sweeps;
        for x in 0..40u32 {
            for y in 0..40u32 {
                let got = snap.connected(n(x), n(y), &mut scratch);
                let want = x == y || baseline::shortest_path_cost(&csr, n(x), n(y)).is_some();
                assert_eq!(got, want, "connected({x}, {y})");
            }
        }
        assert_eq!(
            scratch.stats().sweeps,
            sweeps_before,
            "the index path must never run a Dijkstra sweep"
        );
    }

    #[test]
    fn index_disabled_falls_back_and_stays_correct() {
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
        let cfg = EngineConfig {
            reach_index: false,
            ..Default::default()
        };
        let mut snap = EngineSnapshot::build(g.closure_graph(), frag, true, cfg).unwrap();
        assert!(snap.reach_index().is_none());
        assert!(!snap.ensure_reach(), "disabled index never rebuilds");
        let mut scratch = ScratchDijkstra::new();
        assert!(snap.connected(n(0), n(39), &mut scratch));
        assert!(scratch.stats().sweeps > 0, "fallback path sweeps");
    }

    #[test]
    fn redundant_insert_keeps_the_index_shared() {
        let (_, mut snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        let before = Arc::clone(snap.reach_handle().unwrap());
        // The grid is connected, so any insert between existing nodes is
        // inside the reachability relation: the index must survive —
        // pointer-shared, not rebuilt.
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        let cow = snap
            .maintain_cow(
                &NetworkUpdate::Insert {
                    edge: ds_graph::Edge::new(a, b, 1),
                    owner: 0,
                },
                &mut scratch,
            )
            .unwrap();
        assert!(cow.reach_kept);
        assert!(
            Arc::ptr_eq(&before, snap.reach_handle().unwrap()),
            "kept index must stay pointer-shared with the previous epoch"
        );
    }

    #[test]
    fn removal_without_parallel_drops_the_index_until_rebuilt() {
        let (_, mut snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        // Remove a real grid edge with no parallel connection: the index
        // is dropped as stale; connected falls back (and stays exact).
        let f0 = snap.fragmentation().fragment(0).clone();
        let e = f0.edges()[0];
        let cow = snap
            .maintain_cow(
                &NetworkUpdate::Remove {
                    src: e.src,
                    dst: e.dst,
                    owner: 0,
                },
                &mut scratch,
            )
            .unwrap();
        assert!(!cow.reach_kept);
        assert!(snap.reach_index().is_none(), "stale index dropped");
        for (x, y) in [(0u32, 39u32), (5, 17), (39, 0)] {
            assert_eq!(
                snap.connected(n(x), n(y), &mut scratch),
                baseline::shortest_path_cost(snap.graph(), n(x), n(y)).is_some(),
                "fallback connected({x}, {y})"
            );
        }
        assert!(snap.ensure_reach(), "rebuild on demand");
        let sweeps = scratch.stats().sweeps;
        for x in 0..40u32 {
            for y in 0..40u32 {
                assert_eq!(
                    snap.connected(n(x), n(y), &mut scratch),
                    baseline::shortest_path_cost(snap.graph(), n(x), n(y)).is_some(),
                    "rebuilt connected({x}, {y})"
                );
            }
        }
        assert_eq!(scratch.stats().sweeps, sweeps, "rebuilt index: no sweeps");
    }

    #[test]
    fn maintained_clone_leaves_the_original_untouched() {
        let (_, snap) = snapshot();
        let mut scratch = ScratchDijkstra::new();
        let before = snap.shortest_path(n(0), n(39), &mut scratch).cost.unwrap();
        let mut successor = snap.clone();
        let f0 = snap.fragmentation().fragment(0).clone();
        let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
        successor
            .maintain(
                &NetworkUpdate::Insert {
                    edge: ds_graph::Edge::new(a, b, 1),
                    owner: 0,
                },
                &mut scratch,
            )
            .unwrap();
        // Copy-on-write: the published (old) snapshot still answers the
        // pre-update network; the successor reflects the insert.
        assert_eq!(
            snap.shortest_path(n(0), n(39), &mut scratch).cost,
            Some(before)
        );
        let after = successor
            .shortest_path(n(0), n(39), &mut scratch)
            .cost
            .unwrap();
        assert!(after <= before);
        assert_eq!(
            Some(after),
            baseline::shortest_path_cost(successor.graph(), n(0), n(39))
        );
    }
}
