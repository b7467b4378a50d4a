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
//!   place — an exclusive owner (the inline engine, the machine
//!   coordinator, the serve writer thread working on a private clone)
//!   applies the incremental maintenance of [`crate::updates`] and
//!   republishes.
//!
//! Every owner of engine state holds exactly one snapshot: the inline
//! [`crate::engine::DisconnectionSetEngine`] (plus one scratch), the
//! `ds_machine` coordinator (plus its site threads, which own by-value
//! copies of their fragment and shortcut table), and the `ds_serve`
//! writer (a private working copy it republishes per epoch).
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
//!
//! ## The transit memo
//!
//! Beside each site's augmented graph the snapshot holds that site's
//! [`TransitMemo`]: the interior segments `DS(prev, f) → DS(f, next)`,
//! which do not depend on the query endpoints. The batch driver
//! ([`run_batch_bounded`]) fills them from whatever backend evaluated the
//! segment first, and every reader of every epoch that still shares the
//! site then reads them lock-free; [`EngineSnapshot::route`] reads them
//! through the same path. A memo is replaced
//! (by an empty one) exactly when its site's augmented graph is, so an
//! update invalidates only the touched sites' segments; clones share
//! the memos like every other per-site component, and
//! [`EngineSnapshot::unshared_clone`] starts with empty ones. The memo
//! is derived state — checkpoints and the write-ahead log never see it.

use std::collections::BTreeSet;
use std::sync::Arc;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, CsrGraph, NodeId, ReachIndex, ScratchDijkstra};
use ds_relation::{PathTuple, Relation};

use crate::api::{
    build_parts, chain_segments, real_hop_set, run_batch_bounded, BatchAnswer, BatchStats,
    EngineParts, NetworkUpdate, QueryRequest, RealHopSet, SiteEvaluator,
};
use crate::assemble;
use crate::complementary::{ComplementaryInfo, PrecomputeStats};
use crate::engine::{EngineConfig, QueryAnswer, QueryStats, Route};
use crate::error::ClosureError;
use crate::executor::run_one;
use crate::local::augmented_graph;
use crate::planner::{ChainPlan, Planner};
use crate::transit::TransitMemo;
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
    /// Per site, behind its own `Arc` and replaced together with
    /// `augmented[f]`: the memo of the site's interior segments.
    transit: Vec<Arc<TransitMemo>>,
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
    /// ([`build_parts`]) and wraps its output with
    /// [`EngineSnapshot::from_parts`].
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
        let transit = empty_memos(&parts.planner, parts.augmented.len());
        EngineSnapshot {
            graph: Arc::new(graph),
            frag: Arc::new(frag),
            symmetric,
            cfg,
            comp: parts.comp,
            augmented: parts.augmented,
            transit,
            real_hops: parts.real_hops,
            planner: parts.planner,
            reach,
            source_backend,
        }
    }

    /// A deep copy that shares **nothing** with `self`: every component —
    /// global graph, fragmentation, planner, per-site augmented graphs,
    /// real-hop sets and shortcut tables — gets a fresh allocation, and
    /// every site starts with an empty transit memo.
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
            transit: empty_memos(&self.planner, self.augmented.len()),
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

    /// The shared handle behind site `f`'s transit memo. It is replaced
    /// exactly when [`EngineSnapshot::augmented_handle`] is, so the two
    /// are `Arc::ptr_eq` across the same epochs.
    pub fn transit_handle(&self, f: FragmentId) -> &Arc<TransitMemo> {
        &self.transit[f]
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
    /// the inline engine and the machine coordinator per update, the
    /// serve writer once per write batch before publishing — so readers
    /// never pay the rebuild.
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
            .unwrap_or_else(|_| QueryAnswer::unreachable())
    }

    /// Shortest-path cost, erring when an endpoint is in no fragment.
    /// Evaluated as a one-request batch, so it reads and fills the
    /// transit memos like every other query.
    pub fn try_shortest_path(
        &self,
        x: NodeId,
        y: NodeId,
        scratch: &mut ScratchDijkstra,
    ) -> Result<QueryAnswer, ClosureError> {
        self.check_endpoints(x, y)?;
        let mut batch = self.query_batch(&[QueryRequest::new(x, y)], scratch);
        Ok(batch.answers.pop().unwrap_or_else(QueryAnswer::unreachable))
    }

    /// The strict single-query endpoint check every backend's
    /// `try_shortest_path` makes: a query between distinct nodes errs
    /// with [`ClosureError::NodeNotInAnyFragment`] for an endpoint in no
    /// fragment (including ids beyond the graph).
    pub fn check_endpoints(&self, x: NodeId, y: NodeId) -> Result<(), ClosureError> {
        let outside = [x, y]
            .into_iter()
            .find(|&v| self.planner.fragments_of(v).is_empty());
        match outside {
            Some(v) if x != y => Err(ClosureError::NodeNotInAnyFragment(v)),
            _ => Ok(()),
        }
    }

    /// Connection query — "is `x` connected to `y`?".
    ///
    /// Answered by the SCC/chain reachability index when it is present
    /// and fresh — one component comparison plus at most one binary
    /// search, no Dijkstra sweep, `scratch` untouched. Falls back to
    /// the shortest-path machinery when the index is disabled or stale.
    pub fn connected(&self, x: NodeId, y: NodeId, scratch: &mut ScratchDijkstra) -> bool {
        self.reach_probe(x, y)
            .unwrap_or_else(|| self.shortest_path(x, y, scratch).cost.is_some())
    }

    /// The connection answer when it can be read without a sweep: `x ==
    /// y`, or a fresh reachability index that covers both endpoints.
    /// `None` otherwise; each caller then falls back its own way (a
    /// shortest-path query here, through the sites on the machine,
    /// through the queue on the serve tier).
    pub fn reach_probe(&self, x: NodeId, y: NodeId) -> Option<bool> {
        if x == y {
            return Some(true);
        }
        let reach = self.reach.as_ref()?;
        (x.index() < reach.node_count() && y.index() < reach.node_count())
            .then(|| reach.reaches(x, y))
    }

    /// Answer many shortest-path requests on `scratch`, amortizing chain
    /// planning across the batch (see [`run_batch_bounded`]) and reading
    /// interior segments from the transit memos.
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
        run_batch_bounded(self, &mut eval, requests, traces, sink, deadlines)
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
        let mut eval = InlineEval {
            augmented: &self.augmented,
            scratch,
        };
        for chain in &plan.chains {
            // The same memo-reading evaluation as every query.
            let segments = chain_segments(
                self,
                &mut eval,
                chain,
                &mut QueryStats::default(),
                &mut BatchStats::default(),
            );
            let waypoints = segments.and_then(|segs| assemble::best_waypoints(&segs, x, y));
            if let Some((cost, waypoints)) = waypoints {
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
    /// runs the shared maintenance path (`crate::updates::maintain`),
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
        let mut sites: BTreeSet<FragmentId> = m.shortcut_sites.iter().copied().collect();
        sites.insert(owner);
        for &f in &sites {
            // Fresh Arcs per touched site; untouched sites keep sharing
            // their augmented graph and transit memo with the pre-update
            // snapshot.
            let graph = augmented_graph(
                self.graph.node_count(),
                self.frag.fragment(f).edges(),
                self.symmetric,
                self.comp.shortcuts(f),
            );
            self.replace_site_graph(f, graph);
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

    /// Install `graph` as site `f`'s augmented graph, with an empty
    /// transit memo: the old memo holds segments of the old graph, so the
    /// two are only ever replaced together, here.
    fn replace_site_graph(&mut self, f: FragmentId, graph: CsrGraph) {
        self.augmented[f] = Arc::new(graph);
        self.transit[f] = empty_memo(&self.planner, f);
    }
}

/// An empty transit memo for site `f`, sized from the site's
/// fragmentation-graph neighbours.
fn empty_memo(planner: &Planner, f: FragmentId) -> Arc<TransitMemo> {
    Arc::new(TransitMemo::new(planner.fragmentation_graph().neighbors(f)))
}

/// One empty transit memo per site.
fn empty_memos(planner: &Planner, sites: usize) -> Vec<Arc<TransitMemo>> {
    (0..sites).map(|f| empty_memo(planner, f)).collect()
}

/// Site evaluation for snapshot-backed (and inline-engine) batches: the
/// given subqueries are swept on the calling thread against the caller's
/// scratch.
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
    ) -> Option<Vec<Relation<PathTuple>>> {
        let segments = positions
            .iter()
            .map(|&p| {
                let (seg, run) = run_one(self.augmented, &chain.queries[p], self.scratch);
                stats.site_queries += 1;
                stats.tuples_shipped += run.tuples;
                stats.total_site_busy += run.busy;
                stats.max_site_busy = stats.max_site_busy.max(run.busy);
                seg
            })
            .collect();
        Some(segments)
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

    /// Readers share one snapshot whose transit memos start empty: they
    /// race to fill the same slots, and every answer — swept or read
    /// from a slot another thread filled — equals the oracle.
    #[test]
    fn concurrent_readers_share_one_snapshot() {
        const THREADS: u32 = 6;
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let sites = snap.site_count();
        assert!((0..sites).all(|f| snap.transit_handle(f).entries().count() == 0));
        let snap = std::sync::Arc::new(snap);
        let start = std::sync::Barrier::new(THREADS as usize);
        let answers: Vec<Vec<Option<Cost>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let snap = std::sync::Arc::clone(&snap);
                    let start = &start;
                    s.spawn(move || {
                        let mut scratch = ScratchDijkstra::new();
                        start.wait();
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
        // The chain crosses all four sites, so the interior sites' memos
        // were filled, and each slot holds what a sweep computes.
        let planner = snap.planner();
        let mut filled = 0;
        for f in 0..sites {
            for (prev, next, memo) in snap.transit_handle(f).entries() {
                let sweep = crate::local::border_matrix(
                    snap.augmented_handle(f),
                    planner.ds_between(prev, f),
                    planner.ds_between(f, next),
                );
                assert_eq!(*memo, sweep, "site {f} segment {prev}->{next}");
                filled += 1;
            }
        }
        assert!(filled > 0, "interior segments were memoized");
    }

    #[test]
    fn memo_hits_are_counted_and_answer_like_sweeps() {
        let (g, snap) = snapshot();
        let csr = g.closure_graph();
        let mut scratch = ScratchDijkstra::new();
        let requests = [QueryRequest::new(n(0), n(39))];
        let cold = snap.query_batch(&requests, &mut scratch);
        let sweeps = scratch.stats().sweeps;
        let warm = snap.query_batch(&requests, &mut scratch);
        assert_eq!(cold.costs(), warm.costs());
        assert_eq!(
            cold.costs()[0],
            baseline::shortest_path_cost(&csr, n(0), n(39))
        );
        // Same segments computed; the second time the interior ones come
        // from the memo, which counts them but runs no sweep for them.
        assert_eq!(
            cold.stats,
            BatchStats {
                segments_memoized: 0,
                ..warm.stats
            }
        );
        assert_eq!(cold.stats.segments_memoized, 0);
        assert!(warm.stats.segments_memoized > 0);
        let (c, w) = (&cold.answers[0].stats, &warm.answers[0].stats);
        assert_eq!(c.site_queries, w.site_queries);
        assert_eq!(c.tuples_shipped, w.tuples_shipped);
        // A warm batch sweeps only for the endpoint subqueries, the same
        // number every time.
        let warm_sweeps = scratch.stats().sweeps - sweeps;
        assert!(warm_sweeps > 0, "endpoint subqueries still sweep");
        let again = snap.query_batch(&requests, &mut scratch);
        assert_eq!(scratch.stats().sweeps - sweeps, 2 * warm_sweeps);
        assert_eq!(again.stats, warm.stats);
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
