//! The backend-polymorphic query surface of the disconnection set
//! approach.
//!
//! The paper's phase-one independence means the *same* pipeline —
//! complementary information, chain planning, fragment-local evaluation,
//! min-plus assembly — can execute on very different substrates: inside
//! the calling process ([`crate::engine::DisconnectionSetEngine`]) or on a
//! simulated shared-nothing machine with one thread per site
//! (`ds_machine::Machine`). [`TcEngine`] captures that shared surface so
//! examples, tests and benchmarks drive every backend through one code
//! path, and so backends can be swapped declaratively (see the umbrella
//! crate's `System` builder).
//!
//! The module also hosts the pieces both backends share:
//!
//! * [`build_parts`] — the one build path (complementary info, augmented
//!   site graphs, planner) that both backends deploy from;
//! * [`BatchPlanner`] — chain planning amortized across a batch: the
//!   expensive chain enumeration runs once per (source-fragment,
//!   target-fragment) pair instead of once per query;
//! * [`run_batch_bounded`] — the one batch driver: besides reusing
//!   plans, it reads and fills the snapshot's per-site
//!   [`crate::transit::TransitMemo`]s, which hold the *interior* segment
//!   relations of the fragment chains (those depend only on the
//!   disconnection sets, not on the query endpoints). Once a chain's
//!   interior segments are memoized, a query along it costs only its two
//!   endpoint subqueries.
//!
//! The memo lives on the [`EngineSnapshot`], so it is shared by every
//! reader thread, every batch and every later epoch that shares the site,
//! and it serves every backend alike: the inline evaluator sweeps only
//! the memo misses, the machine sends messages only for them. The memos
//! hold at most `Σ_f deg(f)²` relations (one per ordered pair of a site's
//! fragmentation-graph neighbours) of at most `|DS|²` tuples each.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ds_fragment::{FragmentId, Fragmentation};
use ds_graph::{Cost, CsrGraph, Edge, NodeId};
use ds_obs::{ChainEval, EvalTrace, TraceId};
use ds_relation::{PathTuple, Relation};

use crate::assemble;
use crate::complementary::{ComplementaryInfo, PrecomputeStats};
use crate::engine::{EngineConfig, QueryAnswer, QueryStats, Route};
use crate::error::ClosureError;
use crate::local::augmented_graph;
use crate::planner::{ChainPlan, Planner, QueryPlan};
use crate::snapshot::EngineSnapshot;
use crate::updates::{UpdateBatchReport, UpdateReport};

/// One shortest-path request of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    pub source: NodeId,
    pub target: NodeId,
}

impl QueryRequest {
    pub fn new(source: NodeId, target: NodeId) -> Self {
        QueryRequest { source, target }
    }
}

impl From<(NodeId, NodeId)> for QueryRequest {
    fn from((source, target): (NodeId, NodeId)) -> Self {
        QueryRequest { source, target }
    }
}

/// Amortization accounting for one [`TcEngine::query_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub queries: usize,
    /// Chain enumerations actually performed — one per distinct
    /// (source-fragments, target-fragments) pair.
    pub plans_computed: usize,
    /// Queries that reused a previously enumerated chain set.
    pub plans_reused: usize,
    /// Segment relations the evaluated chains consist of: one per site
    /// subquery, whether evaluated at a site or read from a memo.
    pub segments_computed: usize,
    /// Of `segments_computed`, the interior segments a snapshot's
    /// transit memo answered without site work.
    pub segments_memoized: usize,
}

impl BatchStats {
    /// Fraction of per-query work avoided: `(plans_reused +
    /// segments_memoized) / (plans_computed + plans_reused +
    /// segments_computed)`. 0.0 for a batch with no sharing.
    pub fn amortization(&self) -> f64 {
        let reused = (self.plans_reused + self.segments_memoized) as f64;
        let total = (self.plans_computed + self.plans_reused + self.segments_computed) as f64;
        if total == 0.0 {
            0.0
        } else {
            reused / total
        }
    }
}

/// Result of a batch: one [`QueryAnswer`] per request, in request order,
/// plus the batch-level amortization stats. Per-answer [`QueryStats`]
/// count every segment of the query's chains: a segment answered from a
/// transit memo counts as a site query with its tuples shipped, but adds
/// no site busy time.
#[derive(Clone, Debug)]
pub struct BatchAnswer {
    pub answers: Vec<QueryAnswer>,
    pub stats: BatchStats,
}

impl BatchAnswer {
    /// The costs, in request order.
    pub fn costs(&self) -> Vec<Option<Cost>> {
        self.answers.iter().map(|a| a.cost).collect()
    }
}

/// A network change, expressed backend-independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkUpdate {
    /// Insert a connection into fragment `owner` (both endpoints must
    /// already belong to it; see
    /// [`crate::engine::DisconnectionSetEngine::insert_connection`]).
    Insert { edge: Edge, owner: FragmentId },
    /// Remove every connection `src -> dst` (and the reverse on symmetric
    /// networks) from fragment `owner`.
    Remove {
        src: NodeId,
        dst: NodeId,
        owner: FragmentId,
    },
}

/// The transitive closure query surface every execution backend offers.
///
/// Implementations answer exactly like the centralized baseline
/// (`crate::baseline`) on the default complementary scope — that is the
/// paper's correctness contract, and `tests/properties.rs` asserts it for
/// every backend. Methods take `&mut self` because message-passing
/// backends mutate coordinator state (correlation tags, accounting) even
/// on reads.
pub trait TcEngine {
    /// Short backend identifier ("inline", "site-threads", …).
    fn backend_name(&self) -> &'static str;

    /// Number of sites (fragments = processors).
    fn site_count(&self) -> usize;

    /// The fragmentation this engine serves.
    fn fragmentation(&self) -> &Fragmentation;

    /// Shortest-path cost from `x` to `y`, with chain/stats detail.
    /// Endpoints outside every fragment yield an unreachable answer.
    fn shortest_path(&mut self, x: NodeId, y: NodeId) -> QueryAnswer;

    /// Connection query — "is `x` connected to `y`?".
    fn connected(&mut self, x: NodeId, y: NodeId) -> bool {
        x == y || self.shortest_path(x, y).cost.is_some()
    }

    /// Reconstruct the full cheapest route. Backends that do not retain
    /// shortcut paths return [`ClosureError::RoutesNotEnabled`].
    fn route(&mut self, x: NodeId, y: NodeId) -> Result<Option<Route>, ClosureError>;

    /// Apply a network update, keeping answers exact afterwards.
    fn update(&mut self, update: &NetworkUpdate) -> Result<UpdateReport, ClosureError>;

    /// Per-phase timing of the pre-processing that deployed this engine
    /// (the paper's dominant cost): local sweeps, skeleton closure, table
    /// assembly. After a fallback full recompute, reflects the latest
    /// recompute.
    fn precompute_stats(&self) -> PrecomputeStats;

    /// An immutable, `Send + Sync` snapshot of this engine's current
    /// state (tables, augmented graphs, planner), ready to be shared
    /// across reader threads — the input to the `ds_serve` worker pool.
    /// The snapshot is independent of the engine: later updates to either
    /// side do not affect the other.
    fn snapshot(&self) -> EngineSnapshot;

    /// Apply a sequence of updates in order, collecting per-update
    /// reports. Stops at (and returns) the first error; updates applied
    /// before it remain applied.
    fn update_batch(
        &mut self,
        updates: &[NetworkUpdate],
    ) -> Result<UpdateBatchReport, ClosureError> {
        let mut reports = Vec::with_capacity(updates.len());
        for u in updates {
            reports.push(self.update(u)?);
        }
        Ok(UpdateBatchReport { reports })
    }

    /// Answer many shortest-path requests, amortizing chain planning
    /// across the batch (interior segments are memoized on the snapshot
    /// for every query). Semantically equivalent to calling
    /// [`TcEngine::shortest_path`] per request.
    fn query_batch(&mut self, requests: &[QueryRequest]) -> BatchAnswer;
}

/// The real (non-shortcut) hops available at one site, with costs — used
/// to tell shortcut hops apart during route expansion.
pub type RealHopSet = HashSet<(NodeId, NodeId, Cost)>;

/// The real hops of one site's fragment tuples (both directions on a
/// symmetric network).
pub(crate) fn real_hop_set(edges: &[Edge], symmetric: bool) -> RealHopSet {
    let mut hops = HashSet::with_capacity(edges.len() * 2);
    for e in edges {
        hops.insert((e.src, e.dst, e.cost));
        if symmetric && !e.is_loop() {
            hops.insert((e.dst, e.src, e.cost));
        }
    }
    hops
}

/// The shared pre-processing outcome both backends deploy from: the
/// paper's complementary information, the per-site augmented graphs, the
/// real (non-shortcut) hops per site, and the chain planner.
///
/// Every per-site component lives behind its own [`Arc`] (as do the
/// per-site shortcut tables inside [`ComplementaryInfo`]), so a snapshot
/// built from these parts clones in O(sites) and an updated successor
/// shares every untouched site's data with its predecessor.
#[derive(Clone, Debug)]
pub struct EngineParts {
    pub comp: ComplementaryInfo,
    pub augmented: Vec<Arc<CsrGraph>>,
    /// Per site: the real hops available locally.
    pub real_hops: Vec<Arc<RealHopSet>>,
    pub planner: Arc<Planner>,
}

/// Run the build path shared by every backend: validate, compute
/// complementary information (the paper's pre-processing phase), build
/// the per-site augmented graphs and the planner. The local-sweep phase
/// runs on [`EngineConfig::precompute_threads`] OS threads.
pub fn build_parts(
    graph: &CsrGraph,
    frag: &Fragmentation,
    symmetric: bool,
    cfg: &EngineConfig,
) -> Result<EngineParts, ClosureError> {
    if graph.node_count() != frag.node_count() {
        return Err(ClosureError::NodeCountMismatch {
            graph: graph.node_count(),
            fragmentation: frag.node_count(),
        });
    }
    let comp = ComplementaryInfo::compute_with_threads(
        graph,
        frag,
        cfg.scope,
        cfg.store_paths,
        cfg.precompute_threads,
    );
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
    let planner = Arc::new(Planner::new(
        frag,
        cfg.max_chains,
        cfg.max_chain_len,
        cfg.hub,
    ));
    Ok(EngineParts {
        comp,
        augmented,
        real_hops,
        planner,
    })
}

/// Validate a [`NetworkUpdate`] against `frag` and apply its structural
/// half, shared by every backend: mutate the owner fragment and return
/// the rebuilt global closure graph (`None` when a removal matched
/// nothing). `crate::updates::maintain` calls it, behind
/// [`EngineSnapshot::maintain_cow`]: the one update path every backend's
/// snapshot goes through. The snapshot then patches its shortcut tables
/// and the touched sites' augmented graphs; the machine also ships
/// `Delta` messages to those sites.
///
/// Update maintenance assumes the partition invariant the fragmenters
/// guarantee (see `Fragmentation::validate`): the closure graph equals
/// the symmetric expansion of the fragment-edge union. Removals rebuild
/// the graph from that union, so a caller that paired a `Prebuilt`
/// fragmentation with a *different* connection relation would see the
/// first removal re-derive the graph from the fragments.
pub fn apply_update(
    graph: &CsrGraph,
    frag: &mut Fragmentation,
    symmetric: bool,
    update: &NetworkUpdate,
) -> Result<Option<CsrGraph>, ClosureError> {
    match *update {
        NetworkUpdate::Insert { edge, owner } => {
            validate_insert(frag, edge, owner)?;
            frag.fragment_mut(owner).add_edge(edge);
            let mut edges: Vec<Edge> = graph.edges().collect();
            edges.push(edge);
            if symmetric && !edge.is_loop() {
                edges.push(edge.reversed());
            }
            Ok(Some(CsrGraph::from_edges(graph.node_count(), &edges)))
        }
        NetworkUpdate::Remove { src, dst, owner } => {
            if owner >= frag.fragment_count() {
                return Err(ClosureError::NodeNotInAnyFragment(src));
            }
            let matches = |e: &Edge| e.connects(src, dst, symmetric);
            if frag.fragment_mut(owner).remove_edges_matching(matches) == 0 {
                return Ok(None);
            }
            // Rebuild from the fragment union rather than filtering the old
            // graph: another fragment may own an identical (src, dst) tuple
            // that must survive the removal.
            let mut kept = Vec::with_capacity(graph.edge_count());
            for f in frag.fragments() {
                for e in f.edges() {
                    kept.push(*e);
                    if symmetric && !e.is_loop() {
                        kept.push(e.reversed());
                    }
                }
            }
            Ok(Some(CsrGraph::from_edges(graph.node_count(), &kept)))
        }
    }
}

/// The insert half of [`apply_update`]'s validation: `owner` must exist
/// and both endpoints must already belong to it. One definition, used
/// both here and by `crate::updates::maintain` *before* it detaches a
/// shared fragmentation (`Arc::make_mut`), so an invalid update can
/// never clone anything and the two checks can never diverge.
pub(crate) fn validate_insert(
    frag: &Fragmentation,
    edge: Edge,
    owner: FragmentId,
) -> Result<(), ClosureError> {
    if owner >= frag.fragment_count() {
        return Err(ClosureError::NodeNotInAnyFragment(edge.src));
    }
    for v in [edge.src, edge.dst] {
        if !frag.fragment(owner).contains_node(v) {
            return Err(ClosureError::NodeNotInAnyFragment(v));
        }
    }
    Ok(())
}

/// Chain planning with per-(source-fragments, target-fragments) caching.
///
/// [`Planner::plan`] does two things: enumerate the fragment chains
/// (expensive — graph search over the fragmentation graph, possibly
/// multi-chain on cyclic fragmentations) and instantiate site subqueries
/// for the concrete endpoints (cheap). The chain enumeration depends only
/// on the endpoints' fragment sets, so a batch caches it here.
pub struct BatchPlanner<'a> {
    planner: &'a Planner,
    cache: HashMap<(Vec<FragmentId>, Vec<FragmentId>), CachedChains>,
}

struct CachedChains {
    chains: Vec<Vec<FragmentId>>,
    enumerated: bool,
}

impl<'a> BatchPlanner<'a> {
    pub fn new(planner: &'a Planner) -> Self {
        BatchPlanner {
            planner,
            cache: HashMap::new(),
        }
    }

    /// Plan `x -> y`. The boolean reports whether the chain set was
    /// served from cache (plan reuse).
    pub fn plan(&mut self, x: NodeId, y: NodeId) -> Result<(QueryPlan, bool), ClosureError> {
        let fx = self.planner.fragments_of(x);
        if fx.is_empty() {
            return Err(ClosureError::NodeNotInAnyFragment(x));
        }
        let fy = self.planner.fragments_of(y);
        if fy.is_empty() {
            return Err(ClosureError::NodeNotInAnyFragment(y));
        }
        let key = (fx, fy);
        let reused = self.cache.contains_key(&key);
        if !reused {
            let (chains, enumerated) = self.planner.chain_sets(&key.0, &key.1);
            self.cache
                .insert(key.clone(), CachedChains { chains, enumerated });
        }
        let cached = &self.cache[&key];
        let chains = cached
            .chains
            .iter()
            .filter_map(|c| self.planner.instantiate_chain(c, x, y))
            .collect();
        Ok((
            QueryPlan {
                chains,
                enumerated: cached.enumerated,
            },
            reused,
        ))
    }
}

/// How a backend evaluates site subqueries for the shared batch driver.
///
/// `positions` indexes into `chain.queries`: the endpoint subqueries and
/// the interior ones not yet memoized. Implementations return the segment
/// relations in the same order and add the site accounting to `stats`,
/// or `None` when a site failed. The inline backend sweeps on the calling
/// thread; the machine backend sends one message per position.
pub trait SiteEvaluator {
    fn eval_positions(
        &mut self,
        chain: &ChainPlan,
        positions: &[usize],
        stats: &mut QueryStats,
    ) -> Option<Vec<Relation<PathTuple>>>;

    /// Called by [`run_batch_bounded`] before each request's evaluation
    /// with that request's trace id, so message-passing backends can
    /// stamp the id into their protocol traffic. The default is a no-op;
    /// untraced batches never call it.
    fn begin_query(&mut self, _trace: TraceId) {}
}

/// Result of a deadline-bounded batch ([`run_batch_bounded`]): `None`
/// marks a request abandoned at a deadline check instead of answered.
#[derive(Clone, Debug)]
pub struct BoundedBatchAnswer {
    pub answers: Vec<Option<QueryAnswer>>,
    pub stats: BatchStats,
}

/// The answers of a batch run without deadlines, where no request can be
/// abandoned. The conversion is total anyway: an unanswered slot
/// degrades to "unreachable", never to a panic.
impl From<BoundedBatchAnswer> for BatchAnswer {
    fn from(bounded: BoundedBatchAnswer) -> Self {
        BatchAnswer {
            answers: bounded
                .answers
                .into_iter()
                .map(|a| a.unwrap_or_else(QueryAnswer::unreachable))
                .collect(),
            stats: bounded.stats,
        }
    }
}

/// The batch driver shared by every backend.
///
/// Per request: plan through the [`BatchPlanner`] (chain enumeration once
/// per fragment-pair), then evaluate each chain with `chain_segments`:
/// the interior subqueries — `DS(f_{i-1}, f_i) -> DS(f_i, f_{i+1})`,
/// which do not mention the query endpoints — are read from `snap`'s
/// transit memos, and only the endpoint subqueries and the memo misses
/// go to `eval`, in one call per chain. The misses' results fill the
/// memos, so later requests, batches and readers of the snapshot reuse
/// them. An evaluator failure (`None`) fills nothing and leaves that
/// request unanswered (`None`).
///
/// Tracing: `traces[i]` is request `i`'s [`TraceId`] (an empty slice
/// means untraced), and when `sink` is given, one [`EvalTrace`] per
/// request is appended to it carrying the request's total evaluation
/// time and per-chain segment times. Before each traced request the
/// driver calls [`SiteEvaluator::begin_query`] so the backend can stamp
/// the id into its protocol messages. The untraced path takes no
/// timestamps and performs no extra work beyond one branch per request.
///
/// Cooperative cancellation: `deadlines[i]` is request `i`'s absolute
/// deadline (an empty slice, or `None` at a position, means unbounded).
/// The driver checks the clock between requests and — inside a
/// request — between fragment chains, so even a pathological
/// multi-chain evaluation is abandoned at the next chain boundary rather
/// than running to completion. A cancelled request yields `None`; work
/// already performed for it (plans, memoized interior segments) keeps
/// benefiting the remaining requests. The serve tier threads each job's
/// admission-stamped deadline through here and resolves `None` slots
/// with [`ClosureError::DeadlineExceeded`]. Without deadlines every slot
/// is answered, and `.into()` gives the plain [`BatchAnswer`].
pub fn run_batch_bounded<E: SiteEvaluator>(
    snap: &EngineSnapshot,
    eval: &mut E,
    requests: &[QueryRequest],
    traces: &[TraceId],
    mut sink: Option<&mut Vec<EvalTrace>>,
    deadlines: &[Option<Instant>],
) -> BoundedBatchAnswer {
    let mut bp = BatchPlanner::new(snap.planner());
    let mut stats = BatchStats {
        queries: requests.len(),
        ..BatchStats::default()
    };
    let mut answers = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let trace = traces.get(i).copied().unwrap_or(TraceId::NONE);
        if !traces.is_empty() {
            eval.begin_query(trace);
        }
        let mut et = sink.as_ref().map(|_| EvalTrace {
            trace,
            ..EvalTrace::default()
        });
        let t0 = sink.as_ref().map(|_| Instant::now());
        let deadline = deadlines.get(i).copied().flatten();
        answers.push(one_query(
            snap,
            eval,
            &mut bp,
            &mut stats,
            req,
            et.as_mut(),
            deadline,
        ));
        if let (Some(sink), Some(mut et), Some(t0)) = (sink.as_deref_mut(), et, t0) {
            et.eval_ns = t0.elapsed().as_nanos() as u64;
            sink.push(et);
        }
    }
    BoundedBatchAnswer { answers, stats }
}

fn one_query<E: SiteEvaluator>(
    snap: &EngineSnapshot,
    eval: &mut E,
    bp: &mut BatchPlanner<'_>,
    bstats: &mut BatchStats,
    req: &QueryRequest,
    mut tr: Option<&mut EvalTrace>,
    deadline: Option<Instant>,
) -> Option<QueryAnswer> {
    let (x, y) = (req.source, req.target);
    if x == y {
        return Some(QueryAnswer {
            cost: Some(0),
            best_chain: snap.planner().fragments_of(x).first().map(|&f| vec![f]),
            stats: QueryStats::default(),
        });
    }
    // Cooperative cancellation, checked before the (possibly expensive)
    // chain enumeration and again at every chain boundary below: a
    // request whose deadline has passed is abandoned, not evaluated.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return None;
    }
    let plan = match bp.plan(x, y) {
        Ok((plan, reused)) => {
            if reused {
                bstats.plans_reused += 1;
            } else {
                bstats.plans_computed += 1;
            }
            plan
        }
        // Endpoint in no fragment: unreachable, like shortest_path.
        Err(_) => return Some(QueryAnswer::unreachable()),
    };
    let mut qstats = QueryStats {
        enumerated: plan.enumerated,
        ..QueryStats::default()
    };
    let mut best: Option<(Cost, Vec<FragmentId>)> = None;
    for (chain_idx, chain) in plan.chains.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let chain_t0 = tr.as_ref().map(|_| std::time::Instant::now());
        qstats.chains_evaluated += 1;
        let segments = chain_segments(snap, eval, chain, &mut qstats, bstats)?;
        let cost = assemble::chain_cost(&segments, x, y);
        if let (Some(tr), Some(t0)) = (tr.as_deref_mut(), chain_t0) {
            tr.chains.push(ChainEval {
                chain: chain_idx as u32,
                ns: t0.elapsed().as_nanos() as u64,
            });
        }
        if let Some(cost) = cost {
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, chain.fragments.clone()));
            }
        }
    }
    let (cost, best_chain) = match best {
        Some((c, ch)) => (Some(c), Some(ch)),
        None => (None, None),
    };
    Some(QueryAnswer {
        cost,
        best_chain,
        stats: qstats,
    })
}

/// The segment relations of `chain`, in chain order: interior segments
/// borrowed from `snap`'s transit memos, the rest evaluated by `eval` in
/// one call, with the memo misses filled in. A memo hit counts as a site
/// query without busy time. `None` (and no fill) when `eval` failed.
pub(crate) fn chain_segments<'s, E: SiteEvaluator>(
    snap: &'s EngineSnapshot,
    eval: &mut E,
    chain: &ChainPlan,
    qstats: &mut QueryStats,
    bstats: &mut BatchStats,
) -> Option<Vec<Cow<'s, Relation<PathTuple>>>> {
    let l = chain.queries.len();
    // An interior subquery's memo slot, keyed by the fragments before
    // and after it.
    let slot = |p: usize| {
        if p == 0 || p + 1 == l {
            return None;
        }
        let memo = snap.transit_handle(chain.queries[p].site);
        memo.slot(chain.fragments[p - 1], chain.fragments[p + 1])
    };
    let mut segments: Vec<Option<Cow<'s, Relation<PathTuple>>>> = (0..l)
        .map(|p| {
            let hit = slot(p)?.get()?;
            qstats.site_queries += 1;
            qstats.tuples_shipped += hit.len();
            bstats.segments_memoized += 1;
            Some(Cow::Borrowed(hit))
        })
        .collect();
    let misses: Vec<usize> = (0..l).filter(|&p| segments[p].is_none()).collect();
    let evaluated = eval.eval_positions(chain, &misses, qstats)?;
    for (p, seg) in misses.into_iter().zip(evaluated) {
        segments[p] = Some(match slot(p) {
            Some(slot) => Cow::Borrowed(slot.get_or_init(|| seg)),
            None => Cow::Owned(seg),
        });
    }
    bstats.segments_computed += l;
    segments.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::SiteQuery;
    use ds_graph::Edge;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    /// Path 0-1-2-3-4-5-6 in three fragments sharing nodes 2 and 4.
    fn three_fragment_path() -> Fragmentation {
        Fragmentation::new(
            7,
            vec![
                edges(&[(0, 1), (1, 2)]),
                edges(&[(2, 3), (3, 4)]),
                edges(&[(4, 5), (5, 6)]),
            ],
            vec![vec![], vec![], vec![]],
        )
    }

    /// `frag` deployed as a snapshot over the (symmetric) union of its
    /// fragments' edges.
    fn deploy(frag: Fragmentation) -> EngineSnapshot {
        let edges: Vec<Edge> = frag
            .fragments()
            .iter()
            .flat_map(|f| f.edges())
            .flat_map(|e| [*e, e.reversed()])
            .collect();
        let graph = CsrGraph::from_edges(frag.node_count(), &edges);
        EngineSnapshot::build(graph, frag, true, EngineConfig::default()).unwrap()
    }

    /// Counts evaluations; answers with the local border matrix over the
    /// snapshot's augmented graphs.
    struct CountingEval {
        augmented: Vec<Arc<CsrGraph>>,
        evaluated: usize,
    }

    impl SiteEvaluator for CountingEval {
        fn eval_positions(
            &mut self,
            chain: &ChainPlan,
            positions: &[usize],
            stats: &mut QueryStats,
        ) -> Option<Vec<Relation<PathTuple>>> {
            let segments = positions
                .iter()
                .map(|&p| {
                    let q: &SiteQuery = &chain.queries[p];
                    self.evaluated += 1;
                    stats.site_queries += 1;
                    crate::local::border_matrix(&self.augmented[q.site], &q.sources, &q.targets)
                })
                .collect();
            Some(segments)
        }
    }

    fn counting_eval(snap: &EngineSnapshot) -> CountingEval {
        CountingEval {
            augmented: (0..snap.site_count())
                .map(|f| Arc::clone(snap.augmented_handle(f)))
                .collect(),
            evaluated: 0,
        }
    }

    #[test]
    fn batch_planner_caches_chain_sets() {
        let frag = three_fragment_path();
        let planner = Planner::new(&frag, 16, 8, None);
        let mut bp = BatchPlanner::new(&planner);
        let (_, reused1) = bp.plan(n(0), n(6)).unwrap();
        assert!(!reused1, "first plan computes");
        let (_, reused2) = bp.plan(n(1), n(5)).unwrap();
        assert!(reused2, "same fragment pair reuses the chain set");
        let (_, reused3) = bp.plan(n(0), n(1)).unwrap();
        assert!(!reused3, "different fragment pair computes");
    }

    #[test]
    fn batch_reuses_interior_segments() {
        let snap = deploy(three_fragment_path());
        let mut eval = counting_eval(&snap);
        // Three cross-chain queries share the one interior subquery of the
        // length-3 chain: the first fills site 1's memo, the other two
        // read it — 1 interior + 2 endpoints x 3 queries = 7 evals, not 9.
        let requests: Vec<QueryRequest> = [(0, 6), (1, 5), (0, 5)]
            .iter()
            .map(|&(a, b)| (n(a), n(b)).into())
            .collect();
        let batch: BatchAnswer =
            run_batch_bounded(&snap, &mut eval, &requests, &[], None, &[]).into();
        assert_eq!(batch.costs(), vec![Some(6), Some(4), Some(5)]);
        assert_eq!(eval.evaluated, 7, "interior segment computed once");
        assert_eq!(batch.stats.plans_computed, 1);
        assert_eq!(batch.stats.plans_reused, 2);
        assert_eq!(batch.stats.segments_computed, 9);
        assert_eq!(batch.stats.segments_memoized, 2);
        // (2 plans + 2 segments reused) / (3 plans + 9 segments).
        assert!((batch.stats.amortization() - 1.0 / 3.0).abs() < 1e-12);
        // Every query counts its memoized segment as a site query.
        for a in &batch.answers {
            assert_eq!(a.stats.site_queries, 3);
        }
        // The memo outlives the batch: a later batch evaluates only the
        // two endpoint subqueries.
        let again = run_batch_bounded(&snap, &mut eval, &requests[..1], &[], None, &[]);
        assert_eq!(eval.evaluated, 9);
        assert_eq!(again.stats.segments_memoized, 1);
    }

    #[test]
    fn failed_evaluation_fills_nothing_and_answers_none() {
        struct Failing;
        impl SiteEvaluator for Failing {
            fn eval_positions(
                &mut self,
                _: &ChainPlan,
                _: &[usize],
                _: &mut QueryStats,
            ) -> Option<Vec<Relation<PathTuple>>> {
                None
            }
        }
        let snap = deploy(three_fragment_path());
        let requests = [QueryRequest::new(n(0), n(6)), QueryRequest::new(n(3), n(3))];
        let batch = run_batch_bounded(&snap, &mut Failing, &requests, &[], None, &[]);
        assert!(batch.answers[0].is_none(), "failed request is unanswered");
        assert_eq!(batch.answers[1].as_ref().and_then(|a| a.cost), Some(0));
        assert!((0..3).all(|f| snap.transit_handle(f).entries().count() == 0));
    }

    #[test]
    fn batch_same_node_and_unknown_node() {
        let snap = deploy(Fragmentation::new(3, vec![edges(&[(0, 1)])], vec![vec![]]));
        let mut eval = counting_eval(&snap);
        let requests = vec![QueryRequest::new(n(1), n(1)), QueryRequest::new(n(0), n(2))];
        let batch: BatchAnswer =
            run_batch_bounded(&snap, &mut eval, &requests, &[], None, &[]).into();
        assert_eq!(batch.answers[0].cost, Some(0));
        assert_eq!(
            batch.answers[1].cost, None,
            "node 2 in no fragment: unreachable"
        );
    }

    #[test]
    fn traced_batch_matches_untraced_and_times_chains() {
        let snap = deploy(three_fragment_path());
        let requests: Vec<QueryRequest> = [(0, 6), (1, 5), (3, 3)]
            .iter()
            .map(|&(a, b)| (n(a), n(b)).into())
            .collect();
        let plain: BatchAnswer =
            run_batch_bounded(&snap, &mut counting_eval(&snap), &requests, &[], None, &[]).into();
        let traces: Vec<TraceId> = (1..=3).map(TraceId).collect();
        let mut sink = Vec::new();
        let traced: BatchAnswer = run_batch_bounded(
            &snap,
            &mut counting_eval(&snap),
            &requests,
            &traces,
            Some(&mut sink),
            &[],
        )
        .into();
        assert_eq!(plain.costs(), traced.costs(), "tracing changes no answer");
        assert_eq!(sink.len(), 3, "one EvalTrace per request");
        for (i, et) in sink.iter().enumerate() {
            assert_eq!(et.trace, traces[i]);
        }
        // Cross-fragment queries evaluated at least one chain; the
        // same-node request (3,3) short-circuits with none.
        assert!(!sink[0].chains.is_empty());
        assert!(sink[2].chains.is_empty());
        assert!(sink[0].eval_ns >= sink[0].chains.iter().map(|c| c.ns).sum::<u64>());
    }

    #[test]
    fn begin_query_sees_each_trace_in_order() {
        struct SpyEval {
            inner: CountingEval,
            seen: Vec<TraceId>,
        }
        impl SiteEvaluator for SpyEval {
            fn eval_positions(
                &mut self,
                chain: &ChainPlan,
                positions: &[usize],
                stats: &mut QueryStats,
            ) -> Option<Vec<Relation<PathTuple>>> {
                self.inner.eval_positions(chain, positions, stats)
            }
            fn begin_query(&mut self, trace: TraceId) {
                self.seen.push(trace);
            }
        }
        let snap = deploy(three_fragment_path());
        let requests = vec![QueryRequest::new(n(0), n(6)), QueryRequest::new(n(1), n(4))];
        let mut eval = SpyEval {
            inner: counting_eval(&snap),
            seen: Vec::new(),
        };
        run_batch_bounded(
            &snap,
            &mut eval,
            &requests,
            &[TraceId(9), TraceId(10)],
            None,
            &[],
        );
        assert_eq!(eval.seen, vec![TraceId(9), TraceId(10)]);
        // Untraced batches never call begin_query.
        eval.seen.clear();
        run_batch_bounded(&snap, &mut eval, &requests, &[], None, &[]);
        assert!(eval.seen.is_empty());
    }

    #[test]
    fn build_parts_rejects_node_count_mismatch() {
        let frag = three_fragment_path();
        let graph = CsrGraph::from_edges(9, &edges(&[(0, 1)]));
        assert!(matches!(
            build_parts(&graph, &frag, true, &EngineConfig::default()),
            Err(ClosureError::NodeCountMismatch { .. })
        ));
    }
}
