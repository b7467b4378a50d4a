//! The parallel fragmented materialization engine.
//!
//! One semi-naive fixpoint worker per fragment, rounds of delta exchange
//! between them, a final cross-fragment assembly:
//!
//! 1. **Seed.** Every fragment seeds its own edge relation (optionally
//!    source-restricted — the paper's keyhole selection).
//! 2. **Local fixpoint.** Each active worker drains its inbox and runs
//!    semi-naive iteration over its *local* edges (a prebuilt adjacency
//!    index, probed every inner round) until no local delta remains.
//! 3. **Exchange.** Newly improved tuples whose endpoint lies on the
//!    fragment's border are shipped — via the disconnection-set
//!    selection of [`super::exchange::ExchangeRouter`] — exactly to the
//!    fragments that share that endpoint; interior tuples never leave.
//! 4. Repeat from 2 until no inbox holds anything: the global fixpoint.
//! 5. **Assembly.** Per-fragment result maps are merged with min-cost
//!    aggregation — "effectively a sequence of binary joins between a
//!    number of very small relations" (§2.1).
//!
//! Each round is one [`ds_fault::fan_out`] over the active fragments
//! (the fragments share nothing within a round); with one thread the
//! same rounds run on the caller. Deltas are routed in fragment order
//! once the round is done, so the algorithm — its output, tuple-identical
//! to [`crate::tc::seminaive_closure`], and its round and exchange
//! counts — is independent of the thread count.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_fault::{FaultPlan, FaultPoint};
use ds_fragment::Fragmentation;
use ds_graph::{BitSet, Cost, NodeId, INFINITE_COST};

use super::exchange::ExchangeRouter;
use super::partition::FragmentPartition;
use crate::relation::Relation;
use crate::stats::TcStats;
use crate::tuple::PathTuple;

/// Default for [`MaterializeConfig::dense_limit`]: up to 2 MiB of
/// distance table per fragment.
pub const DEFAULT_DENSE_LIMIT: usize = 512;

/// Tuning knobs for one materialization run.
#[derive(Clone, Debug)]
pub struct MaterializeConfig {
    /// Worker threads. `0` (the default) uses
    /// `min(fragments, available_parallelism)`; `1` runs the identical
    /// round structure on the calling thread, without spawning.
    pub threads: usize,
    /// Restrict the closure to paths starting in this set (the §2.1
    /// keyhole selection). `None` materializes the full closure.
    pub sources: Option<Vec<NodeId>>,
    /// Safety valve on exchange rounds; `0` means unbounded (the
    /// fixpoint is guaranteed to terminate on finite relations).
    pub max_rounds: usize,
    /// Up to this many graph nodes, each worker keeps its result in a
    /// dense n×n distance matrix (one array slot per pair — no hashing
    /// on the hottest operation) at n² × 8 bytes per fragment; above
    /// it, a hash map keyed by packed pairs. `0` forces the sparse map.
    pub dense_limit: usize,
    /// Deterministic fault plan fired once per fragment round
    /// ([`FaultPoint::BulkWorker`]). `None` (the default) reduces the
    /// hook to a single branch.
    pub fault: Option<Arc<FaultPlan>>,
    /// Observability bundle (`ds_obs`): after a successful run the
    /// resulting [`MaterializeStats`] are mirrored into the metrics
    /// registry as `materialize_*` gauges
    /// ([`MaterializeStats::mirror_into`]). `None` (the default) skips
    /// the mirror entirely.
    pub obs: Option<Arc<ds_obs::Observability>>,
}

impl Default for MaterializeConfig {
    fn default() -> Self {
        MaterializeConfig {
            threads: 0,
            sources: None,
            max_rounds: 0,
            dense_limit: DEFAULT_DENSE_LIMIT,
            fault: None,
            obs: None,
        }
    }
}

impl MaterializeConfig {
    /// Full closure on `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        MaterializeConfig {
            threads,
            ..Default::default()
        }
    }
}

/// Errors of one materialization run.
///
/// Returned, never panicked: a fragment round that panics is caught on
/// its own thread, the round's other fragments finish, and every thread
/// has joined before the error reaches the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaterializeError {
    /// The exchange rounds hit [`MaterializeConfig::max_rounds`] without
    /// reaching the global fixpoint.
    RoundLimit {
        /// The configured round budget that was exhausted.
        max_rounds: usize,
    },
    /// A fragment round panicked (or an injected fault killed it). The
    /// run is aborted after the round — the panic never crosses into the
    /// caller, and the engine stays usable for a fresh run.
    WorkerPanicked {
        /// The failed fragment; the lowest one when several failed in
        /// the same round.
        fragment: usize,
    },
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::RoundLimit { max_rounds } => write!(
                f,
                "materialization exceeded max_rounds = {max_rounds} without reaching the fixpoint"
            ),
            MaterializeError::WorkerPanicked { fragment } => write!(
                f,
                "materialization worker panicked on fragment {fragment}; the run was aborted"
            ),
        }
    }
}

impl std::error::Error for MaterializeError {}

/// Per-exchange-round accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Fragments with a non-empty inbox this round.
    pub active_fragments: usize,
    /// Delta tuples admitted (new or improved) across all fragments.
    pub improved: usize,
    /// Tuple copies shipped to other fragments after the round.
    pub exchanged: usize,
}

/// What one materialization run did: rounds, exchange volume, selection
/// effectiveness, per-fragment load and the aggregate [`TcStats`].
#[derive(Clone, Debug, Default)]
pub struct MaterializeStats {
    /// Fragments in the partition.
    pub fragments: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Exchange rounds until the global fixpoint.
    pub rounds: usize,
    /// Per-round delta sizes and exchange tuple volume.
    pub per_round: Vec<RoundStats>,
    /// Total tuple copies shipped between fragments.
    pub exchanged_tuples: usize,
    /// Improved tuples the disconnection-set selection kept local
    /// (interior endpoint — never offered to the exchange).
    pub kept_local: usize,
    /// Busy time per fragment worker.
    pub busy: Vec<Duration>,
    /// Aggregate closure counters (max per-fragment fixpoint depth,
    /// generated tuples, per-round deltas, exchange totals).
    pub tc: TcStats,
}

impl MaterializeStats {
    /// Mirror the run's headline numbers into `registry` as
    /// `materialize_*` gauges. Gauges (not counters) because they
    /// describe the last run: a later run overwrites, never
    /// accumulates.
    pub fn mirror_into(&self, registry: &ds_obs::MetricsRegistry) {
        registry
            .gauge("materialize_fragments")
            .set(self.fragments as u64);
        registry
            .gauge("materialize_threads")
            .set(self.threads as u64);
        registry.gauge("materialize_rounds").set(self.rounds as u64);
        registry
            .gauge("materialize_exchanged_tuples")
            .set(self.exchanged_tuples as u64);
        registry
            .gauge("materialize_kept_local")
            .set(self.kept_local as u64);
        registry
            .gauge("materialize_result_tuples")
            .set(self.tc.result_tuples as u64);
        registry
            .gauge("materialize_generated_tuples")
            .set(self.tc.tuples_generated as u64);
    }

    /// Max over mean per-fragment busy time — 1.0 is a perfectly
    /// balanced run (same measure as the machine/serve stats).
    pub fn balance_ratio(&self) -> f64 {
        let total: f64 = self.busy.iter().map(Duration::as_secs_f64).sum();
        if self.busy.is_empty() || total == 0.0 {
            return 1.0;
        }
        let max = self
            .busy
            .iter()
            .map(Duration::as_secs_f64)
            .fold(0.0, f64::max);
        max / (total / self.busy.len() as f64)
    }
}

impl fmt::Display for MaterializeStats {
    /// One-line summary, e.g. `4 fragments / 2 threads: 3 rounds, 87
    /// exchanged (412 kept local), balance 1.31; 9 iters, ...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fragments / {} threads: {} rounds, {} exchanged ({} kept local), balance {:.2}; {}",
            self.fragments,
            self.threads,
            self.rounds,
            self.exchanged_tuples,
            self.kept_local,
            self.balance_ratio(),
            self.tc
        )
    }
}

/// Multiply-shift hasher for packed `(src, dst)` keys — the maps on the
/// materialization hot path hash one `u64` per operation, so the default
/// hasher's keyed stream setup is pure overhead here.
#[derive(Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback (FNV-style) for non-u64 keys; unused on the hot path.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type PairMap = HashMap<u64, Cost, BuildHasherDefault<PairHasher>>;

#[inline]
fn pair_key(src: NodeId, dst: NodeId) -> u64 {
    (u64::from(src.0) << 32) | u64::from(dst.0)
}

#[inline]
fn improves(best: &mut PairMap, key: u64, cost: Cost) -> bool {
    match best.entry(key) {
        Entry::Occupied(mut e) => {
            if cost < *e.get() {
                e.insert(cost);
                true
            } else {
                false
            }
        }
        Entry::Vacant(e) => {
            e.insert(cost);
            true
        }
    }
}

/// Prebuilt CSR adjacency over one fragment's edge relation — the
/// reusable build table every inner semi-naive iteration probes.
struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<(NodeId, Cost)>,
}

impl Adjacency {
    fn build(rel: &Relation<PathTuple>, node_count: usize) -> Self {
        let mut counts = vec![0u32; node_count + 1];
        for t in rel.rows() {
            counts[t.src.index() + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![(NodeId(0), 0); rel.len()];
        for t in rel.rows() {
            let slot = cursor[t.src.index()] as usize;
            targets[slot] = (t.dst, t.cost);
            cursor[t.src.index()] += 1;
        }
        Adjacency { offsets, targets }
    }

    #[inline]
    fn out(&self, v: NodeId) -> &[(NodeId, Cost)] {
        &self.targets[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }
}

/// One fragment's accumulated result: the best known cost per (src, dst)
/// pair. The representation is the engine's hottest data structure —
/// every candidate tuple does one `improves` check against it.
enum BestTable {
    /// n×n distance matrix, `INFINITE_COST` = absent: one array slot
    /// per check. Used when the graph is small enough
    /// ([`MaterializeConfig::dense_limit`]).
    Dense { n: usize, costs: Vec<Cost> },
    /// Hash map on packed pair keys for large graphs.
    Sparse(PairMap),
}

impl BestTable {
    fn new(node_count: usize, dense_limit: usize) -> Self {
        if node_count <= dense_limit {
            BestTable::Dense {
                n: node_count,
                costs: vec![INFINITE_COST; node_count * node_count],
            }
        } else {
            BestTable::Sparse(PairMap::default())
        }
    }

    #[inline]
    fn improves(&mut self, src: NodeId, dst: NodeId, cost: Cost) -> bool {
        match self {
            BestTable::Dense { n, costs } => {
                let slot = &mut costs[src.index() * *n + dst.index()];
                if cost < *slot {
                    *slot = cost;
                    true
                } else {
                    false
                }
            }
            BestTable::Sparse(map) => improves(map, pair_key(src, dst), cost),
        }
    }

    /// Visit every stored pair. The dense walk is src-major, dst-minor —
    /// i.e. already in [`PathTuple`] sort order.
    fn for_each(&self, mut f: impl FnMut(NodeId, NodeId, Cost)) {
        match self {
            BestTable::Dense { n, costs } => {
                for (i, &c) in costs.iter().enumerate() {
                    if c < INFINITE_COST {
                        f(NodeId((i / n) as u32), NodeId((i % n) as u32), c);
                    }
                }
            }
            BestTable::Sparse(map) => {
                for (&k, &c) in map.iter() {
                    f(NodeId((k >> 32) as u32), NodeId(k as u32), c);
                }
            }
        }
    }
}

/// Counters one worker reports per round.
#[derive(Default)]
struct RoundCounters {
    generated: usize,
    improved: usize,
    kept_local: usize,
    inner_iters: usize,
    busy: Duration,
}

/// Bulk materialization of the transitive closure over a fragmented
/// relation: per-fragment semi-naive fixpoints in parallel, with
/// disconnection-set-selected delta exchange. Reusable: each
/// [`MaterializeEngine::materialize`] call is an independent run over
/// the same prebuilt partition and adjacency indexes.
pub struct MaterializeEngine {
    partition: FragmentPartition,
    router: ExchangeRouter,
    adjacency: Vec<Adjacency>,
    border_mask: Vec<BitSet>,
    config: MaterializeConfig,
}

impl MaterializeEngine {
    /// Build from an already-partitioned relation.
    pub fn new(partition: FragmentPartition, config: MaterializeConfig) -> Self {
        let router = ExchangeRouter::new(&partition);
        let adjacency = partition
            .relations()
            .iter()
            .map(|rel| Adjacency::build(rel, partition.node_count()))
            .collect();
        let border_mask = (0..partition.fragment_count())
            .map(|fid| {
                let mut bs = BitSet::new(partition.node_count());
                for &v in partition.borders(fid) {
                    bs.insert(v.index());
                }
                bs
            })
            .collect();
        MaterializeEngine {
            partition,
            router,
            adjacency,
            border_mask,
            config,
        }
    }

    /// Partition the fragmentation's edge relation (symmetric expansion
    /// per `symmetric`) and build the engine over it.
    pub fn from_fragmentation(
        frag: &Fragmentation,
        symmetric: bool,
        config: MaterializeConfig,
    ) -> Self {
        MaterializeEngine::new(FragmentPartition::new(frag, symmetric), config)
    }

    /// The partition this engine runs over.
    pub fn partition(&self) -> &FragmentPartition {
        &self.partition
    }

    /// The run configuration.
    pub fn config(&self) -> &MaterializeConfig {
        &self.config
    }

    fn effective_threads(&self) -> usize {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let requested = if self.config.threads == 0 {
            hw
        } else {
            self.config.threads
        };
        requested.clamp(1, self.partition.fragment_count().max(1))
    }

    /// Materialize the closure: the min-cost path relation (sorted,
    /// tuple-identical to [`crate::tc::seminaive_closure`] over the
    /// union relation) plus run statistics.
    ///
    /// Errors with [`MaterializeError::RoundLimit`] when
    /// [`MaterializeConfig::max_rounds`] trips before the global
    /// fixpoint; all worker threads have joined by then.
    pub fn materialize(&self) -> Result<(Relation<PathTuple>, MaterializeStats), MaterializeError> {
        let fragments = self.partition.fragment_count();
        let threads = self.effective_threads();
        let mut stats = MaterializeStats {
            fragments,
            threads,
            busy: vec![Duration::ZERO; fragments],
            ..Default::default()
        };
        if fragments == 0 {
            return Ok((Relation::empty("tc"), stats));
        }

        // Seed every fragment's inbox with its own (source-restricted)
        // edge tuples.
        let source_set: Option<HashSet<NodeId>> = self
            .config
            .sources
            .as_ref()
            .map(|s| s.iter().copied().collect());
        let mut inboxes: Vec<Vec<PathTuple>> = self
            .partition
            .relations()
            .iter()
            .map(|rel| match &source_set {
                Some(set) => rel
                    .rows()
                    .iter()
                    .filter(|t| set.contains(&t.src))
                    .copied()
                    .collect(),
                None => rel.rows().to_vec(),
            })
            .collect();

        let mut tables: Vec<BestTable> = (0..fragments)
            .map(|_| BestTable::new(self.partition.node_count(), self.config.dense_limit))
            .collect();
        let mut inner_totals = vec![0usize; fragments];

        self.run_rounds(
            threads,
            &mut tables,
            &mut inboxes,
            &mut inner_totals,
            &mut stats,
        )?;

        // Final assembly: merge the per-fragment result tables with
        // min-cost aggregation.
        let n = self.partition.node_count();
        let rows: Vec<PathTuple> = if n <= self.config.dense_limit {
            let mut global = vec![INFINITE_COST; n * n];
            for best in &tables {
                best.for_each(|src, dst, c| {
                    let slot = &mut global[src.index() * n + dst.index()];
                    if c < *slot {
                        *slot = c;
                    }
                });
            }
            // Src-major, dst-minor walk: already in sort order.
            let mut rows = Vec::new();
            for (i, &c) in global.iter().enumerate() {
                if c < INFINITE_COST {
                    rows.push(PathTuple::new(
                        NodeId((i / n) as u32),
                        NodeId((i % n) as u32),
                        c,
                    ));
                }
            }
            rows
        } else {
            let mut global: PairMap = PairMap::default();
            for best in &tables {
                best.for_each(|src, dst, c| match global.entry(pair_key(src, dst)) {
                    Entry::Occupied(mut e) => {
                        if c < *e.get() {
                            e.insert(c);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(c);
                    }
                });
            }
            let mut rows: Vec<PathTuple> = global
                .into_iter()
                .map(|(k, c)| PathTuple::new(NodeId((k >> 32) as u32), NodeId(k as u32), c))
                .collect();
            rows.sort_unstable();
            rows
        };

        stats.tc.iterations = inner_totals.iter().copied().max().unwrap_or(0);
        stats.tc.result_tuples = rows.len();
        stats.tc.exchange_rounds = stats.rounds;
        stats.tc.exchanged_tuples = stats.exchanged_tuples;
        if let Some(obs) = &self.config.obs {
            stats.mirror_into(obs.registry());
        }
        Ok((Relation::from_rows("tc", rows), stats))
    }

    /// The round loop: fan the fragments with a non-empty inbox out over
    /// `threads`, then absorb counters and route outgoing deltas in
    /// fragment order (deliveries always land in the *next* round's
    /// inbox), so rounds, exchange volume and per-round stats do not
    /// depend on the thread count.
    fn run_rounds(
        &self,
        threads: usize,
        tables: &mut [BestTable],
        inboxes: &mut [Vec<PathTuple>],
        inner_totals: &mut [usize],
        stats: &mut MaterializeStats,
    ) -> Result<(), MaterializeError> {
        loop {
            let work: Vec<(usize, &mut BestTable, Vec<PathTuple>)> = tables
                .iter_mut()
                .zip(inboxes.iter_mut())
                .enumerate()
                .filter(|(_, (_, inbox))| !inbox.is_empty())
                .map(|(fid, (best, inbox))| (fid, best, std::mem::take(inbox)))
                .collect();
            if work.is_empty() {
                return Ok(());
            }
            self.check_round_guard(stats.rounds)?;
            let seed_round = stats.rounds == 0;
            let active: Vec<usize> = work.iter().map(|&(fid, ..)| fid).collect();
            let mut round = RoundStats {
                active_fragments: active.len(),
                ..Default::default()
            };
            let outcomes = ds_fault::fan_out(
                threads,
                work,
                || (),
                |_, (fid, best, inbox)| {
                    let injected = ds_fault::fire(
                        &self.config.fault,
                        FaultPoint::BulkWorker { fragment: fid },
                    );
                    (!injected).then(|| {
                        // Move the table into this thread's frame for
                        // the round: neighbouring tables' headers share
                        // cache lines in `tables`, and a sparse table
                        // writes its header on every insert.
                        let mut own =
                            std::mem::replace(best, BestTable::Sparse(PairMap::default()));
                        let out = self.run_round(fid, &mut own, inbox, seed_round);
                        *best = own;
                        out
                    })
                },
            );
            for (fid, outcome) in active.into_iter().zip(outcomes) {
                match outcome {
                    Ok(Some((outgoing, counters))) => {
                        self.absorb_counters(fid, &counters, inner_totals, stats, &mut round);
                        round.exchanged += self.router.route(fid, &outgoing, inboxes);
                    }
                    // Outcomes are in fragment order: the first failure
                    // is the lowest failed fragment, whatever the
                    // thread count.
                    Ok(None) | Err(_) => {
                        return Err(MaterializeError::WorkerPanicked { fragment: fid });
                    }
                }
            }
            self.finish_round(round, stats);
        }
    }

    fn check_round_guard(&self, rounds: usize) -> Result<(), MaterializeError> {
        if self.config.max_rounds != 0 && rounds >= self.config.max_rounds {
            return Err(MaterializeError::RoundLimit {
                max_rounds: self.config.max_rounds,
            });
        }
        Ok(())
    }

    fn absorb_counters(
        &self,
        fid: usize,
        counters: &RoundCounters,
        inner_totals: &mut [usize],
        stats: &mut MaterializeStats,
        round: &mut RoundStats,
    ) {
        inner_totals[fid] += counters.inner_iters;
        stats.busy[fid] += counters.busy;
        stats.kept_local += counters.kept_local;
        stats.tc.tuples_generated += counters.generated;
        // Every inner iteration probes the prebuilt adjacency index
        // instead of rebuilding a join table.
        stats.tc.index_reuses += counters.inner_iters;
        round.improved += counters.improved;
    }

    fn finish_round(&self, round: RoundStats, stats: &mut MaterializeStats) {
        stats.rounds += 1;
        stats.exchanged_tuples += round.exchanged;
        stats.tc.delta_sizes.push(round.improved);
        stats.per_round.push(round);
    }

    /// One fragment's round: drain the inbox, run the local semi-naive
    /// fixpoint, collect border-crossing improvements (deduplicated to
    /// the cheapest per endpoint pair). On the seed round the inbox
    /// holds the fragment's own edges, so admitted border-ending seeds
    /// are offered to the exchange too; on later rounds inbox tuples
    /// were already shipped to every fragment sharing their endpoint by
    /// the sender, so only locally *derived* tuples are offered.
    fn run_round(
        &self,
        fid: usize,
        best: &mut BestTable,
        inbox: Vec<PathTuple>,
        seed_round: bool,
    ) -> (Vec<PathTuple>, RoundCounters) {
        let start = Instant::now();
        let adjacency = &self.adjacency[fid];
        let border = &self.border_mask[fid];
        let mut counters = RoundCounters::default();
        let mut outgoing: PairMap = PairMap::default();

        let offer = |outgoing: &mut PairMap, key: u64, dst: NodeId, cost: Cost| {
            if border.contains(dst.index()) {
                match outgoing.entry(key) {
                    Entry::Occupied(mut e) => {
                        if cost < *e.get() {
                            e.insert(cost);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(cost);
                    }
                }
                true
            } else {
                false
            }
        };

        if seed_round {
            counters.generated += inbox.len();
        }
        let mut delta: Vec<PathTuple> = Vec::with_capacity(inbox.len());
        for t in inbox {
            if best.improves(t.src, t.dst, t.cost) {
                counters.improved += 1;
                if seed_round && !offer(&mut outgoing, pair_key(t.src, t.dst), t.dst, t.cost) {
                    counters.kept_local += 1;
                }
                delta.push(t);
            }
        }

        while !delta.is_empty() {
            counters.inner_iters += 1;
            let mut next = Vec::new();
            for t in &delta {
                for &(dst, cost) in adjacency.out(t.dst) {
                    counters.generated += 1;
                    let total = t.cost + cost;
                    if best.improves(t.src, dst, total) {
                        counters.improved += 1;
                        let key = pair_key(t.src, dst);
                        if !offer(&mut outgoing, key, dst, total) {
                            counters.kept_local += 1;
                        }
                        next.push(PathTuple::new(t.src, dst, total));
                    }
                }
            }
            delta = next;
        }

        let outgoing: Vec<PathTuple> = outgoing
            .into_iter()
            .map(|(k, c)| PathTuple::new(NodeId((k >> 32) as u32), NodeId(k as u32), c))
            .collect();
        counters.busy = start.elapsed();
        (outgoing, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc;
    use ds_graph::Edge;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges(tuples: &[(u32, u32, u64)]) -> Vec<Edge> {
        tuples
            .iter()
            .map(|&(a, b, c)| Edge::new(n(a), n(b), c))
            .collect()
    }

    /// Path 0-1-2-3-4 split at node 2.
    fn path_split() -> Fragmentation {
        Fragmentation::new(
            5,
            vec![
                edges(&[(0, 1, 1), (1, 2, 1)]),
                edges(&[(2, 3, 1), (3, 4, 1)]),
            ],
            vec![vec![], vec![]],
        )
    }

    fn assert_matches_seminaive(
        frag: &Fragmentation,
        symmetric: bool,
        config: MaterializeConfig,
    ) -> MaterializeStats {
        let engine = MaterializeEngine::from_fragmentation(frag, symmetric, config);
        let (bulk, stats) = engine.materialize().unwrap();
        let (seq, _) = tc::seminaive_closure(
            &engine.partition().union_relation(),
            engine.config().sources.as_deref(),
        );
        assert_eq!(bulk.rows(), seq.rows());
        assert_eq!(stats.tc.result_tuples, seq.len());
        stats
    }

    #[test]
    fn split_path_matches_sequential_seminaive() {
        let stats = assert_matches_seminaive(&path_split(), true, MaterializeConfig::default());
        assert!(stats.rounds >= 2, "cross-fragment paths need an exchange");
        assert!(stats.exchanged_tuples > 0);
        assert_eq!(stats.per_round.len(), stats.rounds);
        assert_eq!(stats.tc.delta_sizes.len(), stats.rounds);
        assert!(stats.kept_local > 0, "interior tuples stay local");
    }

    #[test]
    fn directed_relation_matches_sequential_seminaive() {
        assert_matches_seminaive(&path_split(), false, MaterializeConfig::default());
    }

    #[test]
    fn cross_fragment_detour_improves_a_local_path() {
        // Direct edge 0-1 costs 10 inside fragment 0; the detour through
        // fragment 1 (0-2-1) costs 2, so the exchange must improve an
        // already-derived local tuple.
        let frag = Fragmentation::new(
            3,
            vec![edges(&[(0, 1, 10)]), edges(&[(0, 2, 1), (2, 1, 1)])],
            vec![vec![], vec![]],
        );
        let stats = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert!(stats.exchanged_tuples > 0);
        let engine =
            MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
        let (closure, _) = engine.materialize().unwrap();
        assert_eq!(closure.cost_of(n(0), n(1)), Some(2), "detour wins");
    }

    #[test]
    fn source_restriction_is_the_keyhole() {
        let config = MaterializeConfig {
            sources: Some(vec![n(0)]),
            ..Default::default()
        };
        let stats = assert_matches_seminaive(&path_split(), true, config);
        assert!(stats.tc.result_tuples > 0);
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                sources: Some(vec![n(0)]),
                ..Default::default()
            },
        );
        let (closure, _) = engine.materialize().unwrap();
        assert!(closure.rows().iter().all(|t| t.src == n(0)));
    }

    #[test]
    fn single_fragment_needs_no_exchange() {
        let frag = Fragmentation::new(3, vec![edges(&[(0, 1, 1), (1, 2, 1)])], vec![vec![]]);
        let stats = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert_eq!(stats.exchanged_tuples, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let frag = Fragmentation::new(
            7,
            vec![
                edges(&[(0, 1, 2), (1, 2, 3)]),
                edges(&[(2, 3, 1), (3, 4, 4)]),
                edges(&[(4, 5, 2), (5, 6, 1), (6, 0, 5)]),
            ],
            vec![vec![], vec![], vec![]],
        );
        let single = assert_matches_seminaive(&frag, true, MaterializeConfig::with_threads(1));
        let pooled = assert_matches_seminaive(&frag, true, MaterializeConfig::with_threads(3));
        assert_eq!(single.threads, 1);
        assert_eq!(pooled.threads, 3);
        assert_eq!(single.tc.result_tuples, pooled.tc.result_tuples);
        // Deltas are routed in fragment order after each round, so the
        // exchange itself is thread-count independent too.
        assert_eq!(single.rounds, pooled.rounds);
        assert_eq!(single.exchanged_tuples, pooled.exchanged_tuples);
        assert_eq!(single.per_round, pooled.per_round);
    }

    #[test]
    fn sparse_table_matches_dense_table() {
        let frag = Fragmentation::new(
            6,
            vec![
                edges(&[(0, 1, 2), (1, 2, 7), (0, 2, 4)]),
                edges(&[(2, 3, 1), (3, 4, 3)]),
                edges(&[(4, 5, 2), (5, 0, 9)]),
            ],
            vec![vec![], vec![], vec![]],
        );
        let sparse = MaterializeConfig {
            dense_limit: 0,
            ..Default::default()
        };
        let stats = assert_matches_seminaive(&frag, true, sparse);
        assert!(stats.exchanged_tuples > 0);
        let dense = assert_matches_seminaive(&frag, true, MaterializeConfig::default());
        assert_eq!(stats.tc.result_tuples, dense.tc.result_tuples);
    }

    #[test]
    fn empty_partition_is_an_empty_relation() {
        let frag = Fragmentation::new(0, vec![], vec![]);
        let engine =
            MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
        let (closure, stats) = engine.materialize().unwrap();
        assert!(closure.is_empty());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn stats_display_is_a_one_liner() {
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig::default(),
        );
        let (_, stats) = engine.materialize().unwrap();
        let line = stats.to_string();
        assert!(line.contains("rounds"), "{line}");
        assert!(line.contains("exchanged"), "{line}");
        assert!(!line.contains('\n'));
        assert!(stats.balance_ratio() >= 1.0);
    }

    #[test]
    fn round_guard_trips_as_an_error() {
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                max_rounds: 1,
                ..Default::default()
            },
        );
        let err = engine.materialize().unwrap_err();
        assert_eq!(err, MaterializeError::RoundLimit { max_rounds: 1 });
        assert!(err.to_string().contains("max_rounds = 1"), "{err}");
    }

    /// Two threads: the round limit must come back as an error with
    /// every thread joined. `materialize` returning at all plus a clean
    /// re-run proves the shutdown.
    #[test]
    fn round_guard_joins_pool_workers_cleanly() {
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                threads: 2,
                max_rounds: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            engine.materialize().unwrap_err(),
            MaterializeError::RoundLimit { max_rounds: 1 }
        );
        // The engine stays usable: a fresh run with an adequate budget
        // converges on the same thread configuration.
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                threads: 2,
                ..Default::default()
            },
        );
        let (closure, stats) = engine.materialize().unwrap();
        assert!(!closure.is_empty());
        assert!(stats.rounds >= 2);
    }

    /// Two threads: a panic mid-round must come back as a typed error
    /// with every thread joined, and a fault-free run on a fresh engine
    /// over the same partition still converges.
    #[test]
    fn pool_worker_panic_is_a_typed_error_with_clean_joins() {
        let plan = FaultPlan::new().panic_at(FaultPoint::BulkWorker { fragment: 0 }, 1);
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                threads: 2,
                fault: Some(Arc::new(plan)),
                ..Default::default()
            },
        );
        assert_eq!(
            engine.materialize().unwrap_err(),
            MaterializeError::WorkerPanicked { fragment: 0 }
        );
        assert_matches_seminaive(&path_split(), true, MaterializeConfig::with_threads(2));
    }

    /// One thread gives the identical typed error — the isolation does
    /// not depend on the thread count. `Fail` (silent death) behaves like
    /// a panic.
    #[test]
    fn inline_worker_fault_is_a_typed_error() {
        let plan = FaultPlan::new().fail_at(FaultPoint::BulkWorker { fragment: 1 }, 1);
        let engine = MaterializeEngine::from_fragmentation(
            &path_split(),
            true,
            MaterializeConfig {
                threads: 1,
                fault: Some(Arc::new(plan)),
                ..Default::default()
            },
        );
        let err = engine.materialize().unwrap_err();
        assert_eq!(err, MaterializeError::WorkerPanicked { fragment: 1 });
        assert!(err.to_string().contains("fragment 1"), "{err}");
        // The rule is one-shot: a retry on the same engine converges.
        let (closure, _) = engine.materialize().unwrap();
        assert!(!closure.is_empty());
    }

    /// Two fragments failing in the same round report the lower id,
    /// whichever thread ran which fragment.
    #[test]
    fn two_failures_in_one_round_report_the_lowest_fragment() {
        let frag = Fragmentation::new(
            7,
            vec![
                edges(&[(0, 1, 2), (1, 2, 3)]),
                edges(&[(2, 3, 1), (3, 4, 4)]),
                edges(&[(4, 5, 2), (5, 6, 1), (6, 0, 5)]),
            ],
            vec![vec![], vec![], vec![]],
        );
        for threads in [1, 2] {
            let plan = FaultPlan::new()
                .panic_at(FaultPoint::BulkWorker { fragment: 2 }, 1)
                .panic_at(FaultPoint::BulkWorker { fragment: 1 }, 1);
            let engine = MaterializeEngine::from_fragmentation(
                &frag,
                true,
                MaterializeConfig {
                    threads,
                    fault: Some(Arc::new(plan)),
                    ..Default::default()
                },
            );
            assert_eq!(
                engine.materialize().unwrap_err(),
                MaterializeError::WorkerPanicked { fragment: 1 },
                "threads {threads}"
            );
        }
    }
}
