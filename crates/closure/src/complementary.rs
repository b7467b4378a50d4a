//! Complementary information: the precomputed border-to-border shortest
//! distances that make fragment-local evaluation exact.
//!
//! §2.1: "it is required to store in addition some complementary
//! information about the identity of border cities and the properties of
//! their connections … for the shortest path problem it is required to
//! precompute the shortest path among any two cities on the border
//! between two fragments. Complementary information about the
//! disconnection set DS_ij is stored at both sites storing the fragments
//! R_i and R_j."
//!
//! The distances are *global* shortest-path distances — that is what makes
//! a chain evaluation exact even when the true shortest path briefly
//! leaves the chain: "the shortest path might include nodes outside the
//! chain, however, their contribution is precomputed in the complementary
//! information" (footnote 3).
//!
//! ## The skeleton-overlay precompute
//!
//! The paper warns that "the pre-processing required for building the
//! complementary information" dominates the disconnection-set approach.
//! The naive precompute ([`ComplementaryInfo::compute_global_sweep`],
//! kept as the reference implementation) runs one **whole-graph**
//! Dijkstra per border node — O(B · (E + V log V)). The default
//! ([`ComplementaryInfo::compute`]) exploits the fragmentation structure
//! instead:
//!
//! 1. **Local sweeps** — per fragment, one Dijkstra *per border node of
//!    that fragment* over the fragment's induced subgraph only, with
//!    early exit once the fragment's other border nodes are settled.
//! 2. **Skeleton closure** — a tiny border-skeleton graph (one node per
//!    border city, one edge per locally connected border pair, weighted
//!    with the local distance) is closed with Dijkstra per skeleton
//!    node, yielding **exact** global border-to-border distances.
//! 3. **Lazy paths** — when paths are requested, shortcut routes are not
//!    materialized eagerly; they are stitched on demand from the
//!    skeleton hops and the fragment-local parent trees of step 1.
//!
//! Exactness: every global edge belongs to exactly one fragment and both
//! its endpoints lie in that fragment's node set, so any global shortest
//! path between border nodes decomposes at its border-node visits into
//! segments that each stay inside one fragment's induced subgraph — and
//! each segment is dominated by a skeleton edge of that fragment. A
//! border pair disconnected *locally* but connected globally is simply
//! served by the skeleton closure through other fragments; no global
//! re-sweep is ever needed, and the resulting shortcut tables are
//! bit-identical to the global-sweep reference (asserted per-tuple by
//! `tests/properties.rs`).
//!
//! Two scopes are provided:
//! * [`ComplementaryScope::PerDisconnectionSet`] — exactly the paper's
//!   rule: pairs within each `DS_ij`. Exact when the fragmentation graph
//!   is loosely connected (acyclic), the paper's stated assumption.
//! * [`ComplementaryScope::PerFragmentBorder`] — pairs over *all* border
//!   nodes of each fragment. A strict superset that stays exact on
//!   *cyclic* fragmentation graphs too (an excursion out of a fragment can
//!   then return through a different disconnection set; covering all
//!   border pairs of the fragment closes that hole). This is the default,
//!   and the extra storage is measured in the `ablation-crossing`
//!   experiments.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use ds_fragment::Fragmentation;
use ds_graph::{
    dijkstra, Cost, CsrGraph, Edge, NodeId, ScratchDijkstra, SubgraphView, INFINITE_COST,
};

/// Which border pairs get a precomputed shortcut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ComplementaryScope {
    /// Pairs within each disconnection set (the paper's rule; exact for
    /// loosely connected fragmentations).
    PerDisconnectionSet,
    /// All border-node pairs of each fragment (exact for any
    /// fragmentation).
    #[default]
    PerFragmentBorder,
}

/// Which precompute algorithm produced the tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrecomputeStrategy {
    /// Fragment-local sweeps + border-skeleton closure (the default).
    #[default]
    Skeleton,
    /// One whole-graph Dijkstra per border node (the reference).
    GlobalSweep,
}

/// Per-phase wall-time accounting of one precompute, exposed through
/// `TcEngine::precompute_stats` so benches and tests can assert where
/// build time goes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecomputeStats {
    pub strategy: PrecomputeStrategy,
    /// Time in the per-fragment local border sweeps (for the global-sweep
    /// reference: the whole-graph sweeps).
    pub local_sweeps_ns: u64,
    /// Time closing the border-skeleton graph (0 on the reference path).
    pub skeleton_close_ns: u64,
    /// Time assembling the per-site shortcut tables.
    pub assemble_ns: u64,
}

impl PrecomputeStats {
    /// Total accounted precompute time.
    pub fn total_ns(&self) -> u64 {
        self.local_sweeps_ns + self.skeleton_close_ns + self.assemble_ns
    }
}

/// One directed edge of the border-skeleton graph: a locally realized
/// border-to-border distance, remembering which fragment realizes it.
#[derive(Clone, Copy, Debug)]
struct SkelEdge {
    /// Skeleton (border-list) indices.
    src: u32,
    dst: u32,
    cost: Cost,
    frag: u32,
}

/// The per-fragment leftovers of the local-sweep phase that lazy path
/// stitching needs: the induced subgraph view, the fragment's border
/// nodes (sorted), and one parent tree per border source.
#[derive(Clone, Debug)]
struct FragTrees {
    view: SubgraphView,
    /// Sorted global ids of this fragment's border nodes; parallel to
    /// `parents`.
    borders: Vec<NodeId>,
    /// `parents[i]` is the local-id parent tree of the sweep rooted at
    /// `borders[i]` (`u32::MAX` = root / unreached).
    parents: Vec<Vec<u32>>,
}

/// Lazy path storage for the skeleton strategy: shortcut routes are
/// stitched from skeleton hops and fragment-local parent trees on
/// demand. `overrides` holds routes replaced by update maintenance
/// (which must not consult the stale build-time trees).
#[derive(Clone, Debug)]
struct SkeletonPaths {
    /// Sorted global border ids; index = skeleton id.
    borders: Vec<NodeId>,
    frags: Vec<FragTrees>,
    edges: Vec<SkelEdge>,
    /// `via[s][t]` — index into `edges` of the skeleton edge that settles
    /// `t` in the closure sweep rooted at `s` (`u32::MAX` = none).
    via: Vec<Vec<u32>>,
    overrides: HashMap<(NodeId, NodeId), Vec<NodeId>>,
}

impl SkeletonPaths {
    fn stitch(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if let Some(p) = self.overrides.get(&(u, v)) {
            return Some(p.clone());
        }
        let su = self.borders.binary_search(&u).ok()?;
        let sv = self.borders.binary_search(&v).ok()?;
        if su == sv {
            // Self-pairs are never stored as shortcuts; answer exactly
            // like the eager (global-sweep) store does.
            return None;
        }
        // Walk the closure tree rooted at `su` back from `sv`, collecting
        // the skeleton hops in reverse.
        let mut hops: Vec<&SkelEdge> = Vec::new();
        let mut cur = sv;
        while cur != su {
            let idx = self.via[su][cur];
            if idx == u32::MAX {
                return None; // unreachable
            }
            let e = &self.edges[idx as usize];
            hops.push(e);
            cur = e.src as usize;
        }
        hops.reverse();
        // Expand each hop inside its providing fragment.
        let mut out = vec![u];
        for e in hops {
            let ft = &self.frags[e.frag as usize];
            let src_global = self.borders[e.src as usize];
            let dst_global = self.borders[e.dst as usize];
            let bi = ft
                .borders
                .binary_search(&src_global)
                .expect("skeleton edge source is a border of its fragment");
            let tree = &ft.parents[bi];
            let src_local = ft.view.local_of(src_global).expect("border in view");
            let mut lc = ft.view.local_of(dst_global).expect("border in view");
            let mut seg = Vec::new();
            while lc != src_local {
                seg.push(ft.view.global_of(lc));
                lc = NodeId(tree[lc.index()]);
            }
            seg.reverse();
            out.extend(seg);
        }
        Some(out)
    }
}

/// Concrete routes backing the shortcut tuples, when requested.
#[derive(Clone, Debug)]
enum PathData {
    /// Every route materialized eagerly (global-sweep reference).
    Eager(HashMap<(NodeId, NodeId), Vec<NodeId>>),
    /// Routes stitched lazily from the skeleton (default).
    Lazy(SkeletonPaths),
}

impl PathData {
    fn get(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        match self {
            PathData::Eager(map) => map.get(&(u, v)).cloned(),
            PathData::Lazy(skel) => skel.stitch(u, v),
        }
    }

    fn set(&mut self, u: NodeId, v: NodeId, path: Vec<NodeId>) {
        match self {
            PathData::Eager(map) => {
                map.insert((u, v), path);
            }
            PathData::Lazy(skel) => {
                skel.overrides.insert((u, v), path);
            }
        }
    }
}

/// The precomputed shortcut tables, per site.
///
/// Every per-site table lives behind its own [`Arc`], so cloning the
/// whole structure (the serve writer's per-epoch copy-on-write
/// publication) costs one refcount bump per site, and update
/// maintenance — which goes through [`Arc::make_mut`] — detaches only
/// the tables it actually changes. Untouched sites stay pointer-shared
/// with every previous epoch (asserted by the structural-sharing
/// property in `tests/properties.rs`).
#[derive(Clone, Debug)]
pub struct ComplementaryInfo {
    /// `shortcuts[f]` — directed shortcut edges `(u, v, global_dist)`
    /// stored at site `f`, each table behind its own `Arc`.
    shortcuts: Vec<Arc<Vec<Edge>>>,
    /// Concrete global paths backing each shortcut (for route
    /// reconstruction), when requested. One shared block: path lookups
    /// are read-mostly, and maintenance detaches it at most once per
    /// epoch via `Arc::make_mut`.
    paths: Option<Arc<PathData>>,
    /// Number of distinct border nodes.
    border_count: usize,
    /// Total shortcut tuples stored (the paper's "pre-computed
    /// information" volume).
    pair_count: usize,
    stats: PrecomputeStats,
}

/// Output of the local-sweep phase for one fragment.
struct LocalSweepOut {
    edges: Vec<SkelEdge>,
    trees: Option<FragTrees>,
}

/// Run the local border sweeps of one fragment: from each border node,
/// Dijkstra over the fragment's induced subgraph with early exit once
/// the fragment's other border nodes are settled.
fn local_sweeps_for_fragment(
    graph: &CsrGraph,
    frag: &Fragmentation,
    f: usize,
    borders: &[NodeId],
    store_trees: bool,
    scratch: &mut ScratchDijkstra,
) -> LocalSweepOut {
    // The fragment's border nodes: its node set ∩ the global border set
    // (both sorted).
    let nodes = frag.fragment(f).nodes();
    let fborders: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|v| borders.binary_search(v).is_ok())
        .collect();
    if fborders.is_empty() {
        return LocalSweepOut {
            edges: Vec::new(),
            trees: None,
        };
    }
    let view = SubgraphView::induced(graph, nodes);
    let local_borders: Vec<NodeId> = fborders
        .iter()
        .map(|&b| view.local_of(b).expect("border is a fragment node"))
        .collect();
    let skel_ids: Vec<u32> = fborders
        .iter()
        .map(|b| borders.binary_search(b).expect("border") as u32)
        .collect();
    let mut edges = Vec::new();
    let mut parents = Vec::new();
    let mut targets: Vec<NodeId> = Vec::with_capacity(local_borders.len());
    for (bi, _) in fborders.iter().enumerate() {
        // The other borders absorb: a local path through another border
        // contributes nothing the skeleton closure cannot compose, so
        // sweeps stop there. This keeps the sweeps shallow *and* the
        // skeleton sparse — only interior-adjacent border pairs become
        // skeleton edges.
        targets.clear();
        targets.extend(
            local_borders
                .iter()
                .enumerate()
                .filter(|&(ti, _)| ti != bi)
                .map(|(_, &t)| t),
        );
        if targets.is_empty() {
            // A lone border node yields no pairs and no skeleton edges.
            if store_trees {
                parents.push(vec![u32::MAX; view.len()]);
            }
            continue;
        }
        scratch.sweep_to_targets_absorbing(view.graph(), &[(local_borders[bi], 0)], &targets);
        for (ti, &t) in local_borders.iter().enumerate() {
            if ti == bi {
                continue;
            }
            if let Some(cost) = scratch.cost(t) {
                edges.push(SkelEdge {
                    src: skel_ids[bi],
                    dst: skel_ids[ti],
                    cost,
                    frag: f as u32,
                });
            }
        }
        if store_trees {
            parents.push(scratch.snapshot_parents(view.len()));
        }
    }
    let trees = store_trees.then_some(FragTrees {
        view,
        borders: fborders,
        parents,
    });
    LocalSweepOut { edges, trees }
}

/// Close the skeleton graph: Dijkstra per skeleton node over adjacency
/// lists that remember the realizing edge index. `targets[s]` lists the
/// skeleton nodes whose distance from `s` the shortcut tables actually
/// need (the borders sharing a site group with `s`); each sweep stops as
/// soon as all of them are settled. Returns the distance matrix and,
/// when requested, the `via` edge matrix for path stitching — rows are
/// final for every settled node, which includes every needed pair and
/// every intermediate skeleton hop on their paths.
fn close_skeleton(
    border_count: usize,
    edges: &[SkelEdge],
    targets: &[Vec<u32>],
    want_via: bool,
) -> (Vec<Vec<Cost>>, Vec<Vec<u32>>) {
    let mut adj: Vec<Vec<(u32, Cost, u32)>> = vec![Vec::new(); border_count];
    for (i, e) in edges.iter().enumerate() {
        adj[e.src as usize].push((e.dst, e.cost, i as u32));
    }
    let mut dist_matrix = Vec::with_capacity(border_count);
    let mut via_matrix = Vec::with_capacity(if want_via { border_count } else { 0 });
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Cost, u32)>> =
        std::collections::BinaryHeap::new();
    let mut is_target = vec![false; border_count];
    for s in 0..border_count {
        let mut remaining = 0usize;
        for &t in &targets[s] {
            if t as usize != s && !is_target[t as usize] {
                is_target[t as usize] = true;
                remaining += 1;
            }
        }
        if remaining == 0 {
            // No table pair needs this source (e.g. singleton
            // disconnection sets): skip the sweep entirely.
            dist_matrix.push(vec![INFINITE_COST; border_count]);
            if want_via {
                via_matrix.push(vec![u32::MAX; border_count]);
            }
            continue;
        }
        let mut dist = vec![INFINITE_COST; border_count];
        let mut via = vec![u32::MAX; border_count];
        dist[s] = 0;
        heap.clear();
        heap.push(std::cmp::Reverse((0, s as u32)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            if is_target[v as usize] {
                is_target[v as usize] = false;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for &(t, w, idx) in &adj[v as usize] {
                let nd = d + w;
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    via[t as usize] = idx;
                    heap.push(std::cmp::Reverse((nd, t)));
                }
            }
        }
        // Unsettled targets are unreachable; clear their marks for the
        // next source.
        for &t in &targets[s] {
            is_target[t as usize] = false;
        }
        dist_matrix.push(dist);
        if want_via {
            via_matrix.push(via);
        }
    }
    (dist_matrix, via_matrix)
}

impl ComplementaryInfo {
    /// Precompute the complementary information for a fragmentation over
    /// `graph` (the directed closure graph) with the skeleton-overlay
    /// strategy (see the module docs).
    ///
    /// `store_paths` additionally retains the fragment-local parent trees
    /// and skeleton hop structure so full routes can be reconstructed
    /// later (lazily, per request).
    pub fn compute(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
    ) -> Self {
        Self::compute_with_threads(graph, frag, scope, store_paths, 1)
    }

    /// Like [`ComplementaryInfo::compute`], but runs the per-fragment
    /// local sweeps on `threads` OS threads, one [`ds_fault::fan_out`]
    /// over the fragments with a scratch per thread. The local-sweep
    /// phase parallelizes embarrassingly (fragments are independent) —
    /// the same observation that makes phase one of query processing
    /// communication-free. Results are identical to the sequential run;
    /// a panicking sweep re-raises its panic on the caller.
    pub fn compute_with_threads(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
        threads: usize,
    ) -> Self {
        let per_site_borders = site_border_sets(frag, scope);
        let borders: Vec<NodeId> = per_site_borders
            .iter()
            .flat_map(|sets| sets.iter().flatten().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();

        // Phase 1: fragment-local border sweeps.
        let t0 = Instant::now();
        let mut sweeps: Vec<LocalSweepOut> = ds_fault::fan_out(
            threads,
            (0..frag.fragment_count()).collect(),
            ScratchDijkstra::new,
            |scratch, f| local_sweeps_for_fragment(graph, frag, f, &borders, store_paths, scratch),
        )
        .into_iter()
        .map(|sweep| sweep.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        .collect();
        let mut skel_edges: Vec<SkelEdge> = Vec::new();
        let mut frag_trees: Vec<FragTrees> = Vec::new();
        for (f, out) in sweeps.iter_mut().enumerate() {
            skel_edges.append(&mut out.edges);
            if store_paths {
                frag_trees.push(out.trees.take().unwrap_or_else(|| FragTrees {
                    view: SubgraphView::induced(graph, &[]),
                    borders: Vec::new(),
                    parents: Vec::new(),
                }));
                debug_assert_eq!(frag_trees.len(), f + 1);
            }
        }
        // Every fragment containing both endpoints realizes a direct
        // border-border edge (induced subgraphs overlap on borders), so
        // parallel skeleton edges are common: keep only the cheapest per
        // (src, dst) — the sort makes the choice deterministic.
        skel_edges.sort_by_key(|e| (e.src, e.dst, e.cost, e.frag));
        skel_edges.dedup_by_key(|e| (e.src, e.dst));
        let local_sweeps_ns = t0.elapsed().as_nanos() as u64;

        // Phase 2: close the border skeleton. Each closure sweep needs
        // only the source's group partners — the pairs the tables store.
        let t1 = Instant::now();
        let mut target_sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); borders.len()];
        for groups in &per_site_borders {
            for group in groups {
                let idx: Vec<u32> = group
                    .iter()
                    .map(|v| borders.binary_search(v).expect("group node is a border") as u32)
                    .collect();
                for &u in &idx {
                    for &v in &idx {
                        if u != v {
                            target_sets[u as usize].insert(v);
                        }
                    }
                }
            }
        }
        let closure_targets: Vec<Vec<u32>> = target_sets
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        let (dist_matrix, via) =
            close_skeleton(borders.len(), &skel_edges, &closure_targets, store_paths);
        let skeleton_close_ns = t1.elapsed().as_nanos() as u64;

        // Phase 3: assemble the per-site tables from the closed skeleton.
        let t2 = Instant::now();
        let mut shortcuts: Vec<Vec<Edge>> = vec![Vec::new(); frag.fragment_count()];
        let mut pair_count = 0usize;
        for (site, groups) in per_site_borders.iter().enumerate() {
            // Pairs can repeat across groups only when a site has several
            // (the per-DS scope); the default fragment scope has one group
            // per site and skips the dedup set entirely.
            let mut seen: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
            let dedup = groups.len() > 1;
            for group in groups {
                let idx: Vec<usize> = group
                    .iter()
                    .map(|v| borders.binary_search(v).expect("group node is a border"))
                    .collect();
                for (ui, &u) in group.iter().enumerate() {
                    let row = &dist_matrix[idx[ui]];
                    for (vi, &v) in group.iter().enumerate() {
                        if u == v || (dedup && !seen.insert((u, v))) {
                            continue;
                        }
                        let cost = row[idx[vi]];
                        if cost < INFINITE_COST {
                            shortcuts[site].push(Edge::new(u, v, cost));
                            pair_count += 1;
                        }
                    }
                }
            }
        }
        let assemble_ns = t2.elapsed().as_nanos() as u64;

        let border_count = borders.len();
        let paths = store_paths.then(|| {
            Arc::new(PathData::Lazy(SkeletonPaths {
                borders,
                frags: frag_trees,
                edges: skel_edges,
                via,
                overrides: HashMap::new(),
            }))
        });
        ComplementaryInfo {
            shortcuts: shortcuts.into_iter().map(Arc::new).collect(),
            paths,
            border_count,
            pair_count,
            stats: PrecomputeStats {
                strategy: PrecomputeStrategy::Skeleton,
                local_sweeps_ns,
                skeleton_close_ns,
                assemble_ns,
            },
        }
    }

    /// The reference precompute: one whole-graph Dijkstra per border
    /// node, paths materialized eagerly. Produces tables identical to
    /// [`ComplementaryInfo::compute`]; kept for equivalence tests and as
    /// the baseline of the `precompute` bench.
    pub fn compute_global_sweep(
        graph: &CsrGraph,
        frag: &Fragmentation,
        scope: ComplementaryScope,
        store_paths: bool,
    ) -> Self {
        let per_site_borders = site_border_sets(frag, scope);
        let border_list: Vec<NodeId> = per_site_borders
            .iter()
            .flat_map(|sets| sets.iter().flatten().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();

        // One global Dijkstra per border node, reused across all sets the
        // node appears in. Keyed by the sorted border list (binary
        // search), not a hash map — the list is already sorted.
        let t0 = Instant::now();
        let dist_from: Vec<dijkstra::ShortestPaths> = border_list
            .iter()
            .map(|&b| dijkstra::single_source(graph, b))
            .collect();
        let local_sweeps_ns = t0.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let mut shortcuts: Vec<Vec<Edge>> = vec![Vec::new(); frag.fragment_count()];
        let mut paths: Option<HashMap<(NodeId, NodeId), Vec<NodeId>>> =
            store_paths.then(HashMap::new);
        let mut pair_count = 0usize;
        for (site, groups) in per_site_borders.iter().enumerate() {
            let mut seen: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
            for group in groups {
                for &u in group {
                    let sp = &dist_from[border_list.binary_search(&u).expect("border")];
                    for &v in group {
                        if u == v || !seen.insert((u, v)) {
                            continue;
                        }
                        if let Some(cost) = sp.cost(v) {
                            shortcuts[site].push(Edge::new(u, v, cost));
                            pair_count += 1;
                            if let Some(p) = paths.as_mut() {
                                p.entry((u, v))
                                    .or_insert_with(|| sp.path_to(v).expect("cost is finite"));
                            }
                        }
                    }
                }
            }
        }
        let assemble_ns = t2.elapsed().as_nanos() as u64;

        ComplementaryInfo {
            shortcuts: shortcuts.into_iter().map(Arc::new).collect(),
            paths: paths.map(|p| Arc::new(PathData::Eager(p))),
            border_count: border_list.len(),
            pair_count,
            stats: PrecomputeStats {
                strategy: PrecomputeStrategy::GlobalSweep,
                local_sweeps_ns,
                skeleton_close_ns: 0,
                assemble_ns,
            },
        }
    }

    /// Shortcut edges stored at site `f`.
    pub fn shortcuts(&self, f: usize) -> &[Edge] {
        &self.shortcuts[f]
    }

    /// The shared handle behind site `f`'s shortcut table. Two
    /// `ComplementaryInfo` values that return `Arc::ptr_eq` handles for a
    /// site physically share that site's table (structural sharing across
    /// snapshot epochs).
    pub fn shortcuts_handle(&self, f: usize) -> &Arc<Vec<Edge>> {
        &self.shortcuts[f]
    }

    /// A deep copy that shares nothing with `self`: every per-site table
    /// (and the path store) gets a fresh allocation. This is what a full
    /// per-epoch snapshot copy used to cost before structural sharing —
    /// kept as the baseline of the publication-cost bench, and useful to
    /// detach a snapshot from a shared lineage entirely.
    pub fn unshared_clone(&self) -> Self {
        ComplementaryInfo {
            shortcuts: self
                .shortcuts
                .iter()
                .map(|t| Arc::new((**t).clone()))
                .collect(),
            paths: self.paths.as_ref().map(|p| Arc::new((**p).clone())),
            border_count: self.border_count,
            pair_count: self.pair_count,
            stats: self.stats,
        }
    }

    /// The concrete path behind shortcut `(u, v)`, if paths were stored.
    /// With the skeleton strategy the route is stitched on demand from
    /// the fragment-local parent trees (unless update maintenance has
    /// overridden it).
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.paths.as_ref()?.get(u, v)
    }

    /// Whether concrete paths were stored.
    pub fn has_paths(&self) -> bool {
        self.paths.is_some()
    }

    /// Number of distinct border nodes.
    pub fn border_count(&self) -> usize {
        self.border_count
    }

    /// Total shortcut tuples across all sites (storage cost measure).
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// Per-phase timing of the precompute that built these tables.
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.stats
    }

    /// Apply a refinement to every shortcut tuple: `f` returns the new
    /// cost (plus, when paths are stored, the new concrete path) or `None`
    /// to keep the current tuple. Returns per-site counts of tuples that
    /// changed. Used by incremental insert maintenance
    /// (`dist' = min(dist, dist(a,u) + c + dist(v,b))`).
    ///
    /// Sites with no changed tuple keep their shared table untouched —
    /// `Arc::make_mut` detaches only the tables this refinement writes.
    pub fn refine(
        &mut self,
        f: impl Fn(&Edge) -> Option<(u64, Option<Vec<NodeId>>)>,
    ) -> Vec<usize> {
        let mut changed = vec![0usize; self.shortcuts.len()];
        let mut updates: Vec<(usize, Cost, Option<Vec<NodeId>>)> = Vec::new();
        for (site, changed_slot) in changed.iter_mut().enumerate() {
            updates.clear();
            for (i, e) in self.shortcuts[site].iter().enumerate() {
                if let Some((new_cost, new_path)) = f(e) {
                    debug_assert!(new_cost <= e.cost, "insertions only shorten paths");
                    if new_cost != e.cost {
                        updates.push((i, new_cost, new_path));
                    }
                }
            }
            if updates.is_empty() {
                continue;
            }
            *changed_slot = updates.len();
            let table = Arc::make_mut(&mut self.shortcuts[site]);
            for (i, new_cost, new_path) in updates.drain(..) {
                if let (Some(data), Some(p)) = (self.paths.as_mut(), new_path) {
                    Arc::make_mut(data).set(table[i].src, table[i].dst, p);
                }
                table[i].cost = new_cost;
            }
        }
        changed
    }

    /// Re-derive every shortcut rooted at one of `sources` from the
    /// post-update `graph` (deletion repair: distances may have grown).
    ///
    /// The tuples are grouped by source in **one pass** over every site's
    /// table up front, so each source's repair sweep then visits only its
    /// own tuples — previously every source rescanned every site's full
    /// tuple set, which grew quadratically with the border count on the
    /// per-DS scope. One scratch sweep per source; sources iterate in
    /// sorted order and the sweep state is reused. Returns per-site
    /// counts of tuples changed, or the first border pair that became
    /// unreachable — the caller must then fall back to a full recompute.
    /// All table writes are deferred until every sweep succeeded, so on
    /// `Err` the tables are untouched and untouched sites keep their
    /// shared (`Arc`) tables in every case.
    pub fn repair_sources(
        &mut self,
        graph: &CsrGraph,
        sources: &BTreeSet<NodeId>,
        scratch: &mut ScratchDijkstra,
    ) -> Result<Vec<usize>, (NodeId, NodeId)> {
        let mut changed = vec![0usize; self.shortcuts.len()];
        if sources.is_empty() {
            return Ok(changed);
        }
        // One pass over all tables: positions of affected tuples, grouped
        // by their source.
        let mut by_source: HashMap<NodeId, Vec<(u32, u32)>> = HashMap::new();
        for (site, tuples) in self.shortcuts.iter().enumerate() {
            for (i, e) in tuples.iter().enumerate() {
                if sources.contains(&e.src) {
                    by_source
                        .entry(e.src)
                        .or_default()
                        .push((site as u32, i as u32));
                }
            }
        }
        let store = self.paths.is_some();
        let mut cost_changes: Vec<(u32, u32, Cost)> = Vec::new();
        let mut path_changes: Vec<(NodeId, NodeId, Vec<NodeId>)> = Vec::new();
        // The same (u, v) route backs every site storing that pair; one
        // replacement path per pair is enough.
        let mut path_seen: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for &s in sources {
            let Some(positions) = by_source.get(&s) else {
                continue; // an affected source with no stored shortcut
            };
            scratch.sweep(graph, &[(s, 0)]);
            for &(site, i) in positions {
                let e = &self.shortcuts[site as usize][i as usize];
                let Some(cost) = scratch.cost(e.dst) else {
                    return Err((s, e.dst));
                };
                if cost != e.cost {
                    cost_changes.push((site, i, cost));
                }
                if store && path_seen.insert((e.src, e.dst)) {
                    // Even when the cost is unchanged, the stored path may
                    // have used the deleted connection (it was *a* shortest
                    // path); replace it with a currently valid one.
                    path_changes.push((
                        e.src,
                        e.dst,
                        scratch.path_to(e.dst).expect("cost is finite"),
                    ));
                }
            }
        }
        for (site, i, cost) in cost_changes {
            Arc::make_mut(&mut self.shortcuts[site as usize])[i as usize].cost = cost;
            changed[site as usize] += 1;
        }
        if let Some(data) = self.paths.as_mut() {
            if !path_changes.is_empty() {
                let data = Arc::make_mut(data);
                for (u, v, p) in path_changes {
                    data.set(u, v, p);
                }
            }
        }
        Ok(changed)
    }
}

/// For each site, the groups of border nodes whose pairs get shortcuts:
/// one group per adjacent DS (paper scope) or a single group of all the
/// fragment's border nodes (fragment scope).
fn site_border_sets(frag: &Fragmentation, scope: ComplementaryScope) -> Vec<Vec<Vec<NodeId>>> {
    let n = frag.fragment_count();
    let mut out: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); n];
    let ds = frag.disconnection_sets();
    match scope {
        ComplementaryScope::PerDisconnectionSet => {
            for (&(i, j), nodes) in &ds {
                out[i].push(nodes.clone());
                out[j].push(nodes.clone());
            }
        }
        ComplementaryScope::PerFragmentBorder => {
            let mut border_of: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
            for (&(i, j), nodes) in &ds {
                border_of[i].extend(nodes.iter().copied());
                border_of[j].extend(nodes.iter().copied());
            }
            for (site, set) in border_of.into_iter().enumerate() {
                if !set.is_empty() {
                    out[site].push(set.into_iter().collect());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_gen::deterministic::path;
    use ds_graph::Edge as GEdge;

    /// Path 0-1-2-3-4 fragmented [0-1,1-2] / [2-3,3-4]: border node 2.
    fn setup() -> (CsrGraph, Fragmentation) {
        let g = path(5);
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .map(|&(a, b)| GEdge::unit(NodeId(a), NodeId(b)))
                .collect()
        };
        let frag = Fragmentation::new(
            5,
            vec![edges(&[(0, 1), (1, 2)]), edges(&[(2, 3), (3, 4)])],
            vec![vec![], vec![]],
        );
        (g.closure_graph(), frag)
    }

    #[test]
    fn single_border_node_yields_no_pairs() {
        let (g, frag) = setup();
        let comp =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerDisconnectionSet, false);
        assert_eq!(comp.border_count(), 1);
        assert_eq!(comp.pair_count(), 0, "a singleton DS has no pairs");
        assert!(comp.shortcuts(0).is_empty());
    }

    #[test]
    fn two_border_nodes_get_global_distances() {
        // Cycle of 6 split into two halves sharing nodes 0 and 3.
        let g = ds_gen::deterministic::cycle(6);
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .map(|&(a, b)| GEdge::unit(NodeId(a), NodeId(b)))
                .collect()
        };
        let frag = Fragmentation::new(
            6,
            vec![
                edges(&[(0, 1), (1, 2), (2, 3)]),
                edges(&[(3, 4), (4, 5), (5, 0)]),
            ],
            vec![vec![], vec![]],
        );
        let csr = g.closure_graph();
        let comp =
            ComplementaryInfo::compute(&csr, &frag, ComplementaryScope::PerDisconnectionSet, true);
        assert_eq!(comp.border_count(), 2);
        // Pairs (0,3) and (3,0) at both sites.
        assert_eq!(comp.pair_count(), 4);
        let s0 = comp.shortcuts(0);
        let shortcut = s0
            .iter()
            .find(|e| e.src == NodeId(0) && e.dst == NodeId(3))
            .unwrap();
        assert_eq!(shortcut.cost, 3, "global distance around the cycle");
        let p = comp.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 4, "3 hops = 4 nodes");
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[3], NodeId(3));
    }

    #[test]
    fn fragment_border_scope_covers_cross_ds_pairs() {
        // Three fragments in a triangle of paths: fragment 0 borders both
        // 1 (node 2) and 2 (node 4). Fragment scope must add the (2,4)
        // pair at site 0; the per-DS scope must not.
        let edges = |pairs: &[(u32, u32)]| -> Vec<GEdge> {
            pairs
                .iter()
                .flat_map(|&(a, b)| {
                    [
                        GEdge::unit(NodeId(a), NodeId(b)),
                        GEdge::unit(NodeId(b), NodeId(a)),
                    ]
                })
                .collect()
        };
        let all = edges(&[(0, 2), (2, 3), (3, 4), (4, 0), (2, 4)]);
        let g = CsrGraph::from_edges(5, &all);
        let frag = Fragmentation::new(
            5,
            vec![
                edges(&[(0, 2), (4, 0)]),
                edges(&[(2, 3)]),
                edges(&[(3, 4), (2, 4)]),
            ],
            vec![vec![], vec![], vec![]],
        );
        let per_ds =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerDisconnectionSet, false);
        let per_border =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerFragmentBorder, false);
        let has_cross = |c: &ComplementaryInfo| {
            c.shortcuts(0)
                .iter()
                .any(|e| e.src == NodeId(2) && e.dst == NodeId(4))
        };
        assert!(per_border.pair_count() >= per_ds.pair_count());
        assert!(
            has_cross(&per_border),
            "fragment scope covers cross-DS border pairs"
        );
    }

    #[test]
    fn parallel_precompute_matches_sequential() {
        let g = ds_gen::generate_transportation(&ds_gen::TransportationConfig::table1(), 3);
        let frag = ds_fragment::semantic::by_labels(
            g.nodes,
            &g.connections,
            g.cluster_of.as_ref().unwrap(),
            4,
            ds_fragment::CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let csr = g.closure_graph();
        let seq =
            ComplementaryInfo::compute(&csr, &frag, ComplementaryScope::PerFragmentBorder, false);
        let par = ComplementaryInfo::compute_with_threads(
            &csr,
            &frag,
            ComplementaryScope::PerFragmentBorder,
            false,
            4,
        );
        assert_eq!(seq.pair_count(), par.pair_count());
        for f in 0..frag.fragment_count() {
            assert_eq!(seq.shortcuts(f), par.shortcuts(f), "site {f}");
        }
    }

    #[test]
    fn skeleton_matches_global_sweep_tables_and_paths() {
        let g = ds_gen::generate_transportation(&ds_gen::TransportationConfig::table1(), 5);
        let frag = ds_fragment::semantic::by_labels(
            g.nodes,
            &g.connections,
            g.cluster_of.as_ref().unwrap(),
            4,
            ds_fragment::CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let csr = g.closure_graph();
        for scope in [
            ComplementaryScope::PerDisconnectionSet,
            ComplementaryScope::PerFragmentBorder,
        ] {
            let skel = ComplementaryInfo::compute(&csr, &frag, scope, true);
            let glob = ComplementaryInfo::compute_global_sweep(&csr, &frag, scope, true);
            assert_eq!(skel.border_count(), glob.border_count(), "{scope:?}");
            assert_eq!(skel.pair_count(), glob.pair_count(), "{scope:?}");
            for f in 0..frag.fragment_count() {
                assert_eq!(skel.shortcuts(f), glob.shortcuts(f), "{scope:?} site {f}");
                // Stitched paths are real paths of the right cost.
                for e in skel.shortcuts(f) {
                    let p = skel.path(e.src, e.dst).expect("path stored");
                    assert_eq!(*p.first().unwrap(), e.src);
                    assert_eq!(*p.last().unwrap(), e.dst);
                    let mut total = 0;
                    for hop in p.windows(2) {
                        total += csr
                            .neighbors(hop[0])
                            .filter(|(t, _)| *t == hop[1])
                            .map(|(_, c)| c)
                            .min()
                            .unwrap_or_else(|| panic!("{:?}->{:?} not an edge", hop[0], hop[1]));
                    }
                    assert_eq!(total, e.cost, "{scope:?} stitched path cost");
                }
            }
        }
    }

    #[test]
    fn precompute_stats_report_phases() {
        let (g, frag) = setup();
        let skel = ComplementaryInfo::compute(&g, &frag, ComplementaryScope::default(), false);
        assert_eq!(
            skel.precompute_stats().strategy,
            PrecomputeStrategy::Skeleton
        );
        assert!(skel.precompute_stats().total_ns() > 0);
        let glob = ComplementaryInfo::compute_global_sweep(
            &g,
            &frag,
            ComplementaryScope::default(),
            false,
        );
        assert_eq!(
            glob.precompute_stats().strategy,
            PrecomputeStrategy::GlobalSweep
        );
        assert_eq!(glob.precompute_stats().skeleton_close_ns, 0);
    }

    #[test]
    fn unreachable_border_pairs_are_skipped() {
        // Directed path 0 -> 1 -> 2; fragments [0->1] and [1->2]; border 1.
        // Add node 3 shared but unreachable: fragments [0->1, 3 seeded].
        let e01 = vec![GEdge::unit(NodeId(0), NodeId(1))];
        let e12 = vec![GEdge::unit(NodeId(1), NodeId(2))];
        let g = CsrGraph::from_edges(4, &[e01[0], e12[0]]);
        let frag = Fragmentation::new(4, vec![e01, e12], vec![vec![NodeId(3)], vec![NodeId(3)]]);
        let comp =
            ComplementaryInfo::compute(&g, &frag, ComplementaryScope::PerFragmentBorder, false);
        // Border nodes are 1 and 3; only pairs with finite global distance
        // are stored; 1 and 3 are mutually unreachable.
        assert_eq!(comp.border_count(), 2);
        assert_eq!(comp.pair_count(), 0);
    }
}
