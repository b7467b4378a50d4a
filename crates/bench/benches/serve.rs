//! Serving throughput vs worker count × read/write mix, plus the
//! per-epoch publication-cost metric.
//!
//! A **closed-loop load test with think time** — the standard load-model
//! of TPC-style benchmarks — of the `ds_serve` subsystem. A deployment
//! with `W` pool workers fronts `4·W` synchronous connections (listener
//! pools are sized against executor pools); each connection issues one
//! job at a time from a hot-route-skewed read stream (optionally with a
//! 5% update mix) and then "thinks" for `THINK_US` before its next
//! request, capping every connection at ≈ 1/THINK_US requests per
//! second, the way real clients do.
//!
//! The question the sweep answers is the operational one: *how much
//! aggregate traffic does the deployment serve as the worker pool (and
//! the connection population it carries) grows?* Small pools are
//! offered-load-bound; larger pools push the serving core toward
//! saturation, where queue depth converts into micro-batch size and
//! micro-batch size into work elimination — identical in-flight requests
//! coalesce (single-flight), repeats across micro-batches hit the
//! per-epoch answer cache, queries between the same fragment pair share
//! one chain plan per batch (`run_batch_bounded`), and interior segments
//! come from the snapshot's transit memos — and, on many-core hardware,
//! into genuine
//! phase-one parallelism on top.
//!
//! **Seed sweep.** Every workload is generated at `SEEDS.len()` (≥ 3)
//! generator seeds; per-seed rows land in the JSON next to one aggregate
//! row per configuration carrying min/median/max across the seed
//! medians, and the CI gates use the **conservative bound** (the worst
//! seed), not a single median.
//!
//! **Publication cost.** The writer publishes one structurally-shared
//! snapshot clone per epoch (O(touched sites) — every untouched
//! component is `Arc`-shared with the previous epoch). The bench
//! measures that clone against `EngineSnapshot::unshared_clone` — the
//! deep copy a publication used to cost — on a post-update working
//! snapshot of the transportation workload, reports approximate bytes
//! copied per epoch, and **fails** unless shared publication is ≥ 5x
//! cheaper on every seed.
//!
//! After measuring, the bench also **fails** (non-zero exit, failing the
//! CI job) if the 4-worker deployment does not reach the required
//! speedup over 1 worker on the transportation workload at the 95/5 mix
//! on its worst seed.
//!
//! **Observability overhead.** The transportation 95/5 row at 4 workers
//! is re-measured with *paired interleaved sampling*: every round runs
//! `obs-baseline` (obs unset), `obs-disarmed` (obs unset again — the
//! hooks compile in either way, so this prices the measurement floor),
//! and `obs-armed` (a live `ds_obs` bundle tracing every request)
//! back-to-back, so slow drift (thermal, allocator state) hits all
//! three equally. The gate compares best-of-samples against the paired
//! baseline — `obs-disarmed` must stay ≤ 5% over it on the worst seed;
//! `obs-armed` is reported, non-gating.
//!
//! **Durability overhead.** The transportation workload is re-measured
//! as a pure write path (16 closed-loop updaters, 100% update mix)
//! with the write-ahead log armed (`wal-on`: a fresh log directory,
//! fsync'd group commits, append-before-apply on the writer) against a
//! paired `wal-off` baseline, and the bench **fails** unless the
//! durable write path keeps ≥ 70% of the WAL-off throughput on its
//! worst seed — the group-commit amortization gate.
//!
//! Emits a committed perf snapshot to `BENCH_serve.json` (repo root).
//!
//! ```text
//! cargo bench -p ds-bench --bench serve
//! ```

use ds_bench::harness::{render, write_json, Bench};
use ds_closure::api::{NetworkUpdate, QueryRequest};
use ds_closure::{EngineConfig, EngineSnapshot};
use ds_fragment::center::{center_based, CenterConfig};
use ds_fragment::linear::{linear_sweep, LinearConfig};
use ds_fragment::{semantic, CrossingPolicy};
use ds_gen::{
    generate_ellipse, generate_general, generate_transportation, EllipseConfig, GeneralConfig,
    TransportationConfig,
};
use ds_graph::{NodeId, ScratchDijkstra};
use ds_obs::Observability;
use ds_serve::{DurabilityConfig, FaultPlan, FaultPoint, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Synchronous connections per pool worker (closed loop).
const CLIENTS_PER_WORKER: usize = 4;
/// Per-connection think time between jobs (closed-loop client model:
/// ≈ 1.6k requests/s per connection at most).
const THINK_US: u64 = 600;
/// Hot exact routes per workload.
const HOT_ROUTES: usize = 6;
/// Worker counts swept per workload.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Generator seeds swept per workload (the aggregate rows and both CI
/// gates run across all of them).
const SEEDS: [u64; 3] = [1, 2, 3];
/// Required 4-worker speedup over 1 worker, transportation @ 95/5, on
/// the **worst** seed.
const GATE_SPEEDUP: f64 = 2.0;
/// Required full-clone / shared-clone publication cost ratio, on the
/// **worst** seed.
const GATE_PUBLICATION: f64 = 5.0;
/// Ceiling on the disarmed-observability throughput ratio vs the
/// *paired* baseline (best-of-samples, worst seed): carrying the
/// unarmed hooks must cost ≤ 5%. The armed row is informational only.
const GATE_OBS_DISARMED: f64 = 1.05;
/// Interleaved rounds per seed for the observability overhead rows.
const OBS_ROUNDS: usize = 5;
/// Floor on the WAL-on / WAL-off write-path throughput ratio
/// (best-of-samples, worst seed): durable serving — fsync'd group
/// commits on every write batch plus append-before-apply on the writer
/// — may cost at most 30% of pure update throughput. Group commit is
/// what holds this: concurrent updaters share one append+fdatasync per
/// writer micro-batch.
const GATE_WAL: f64 = 0.7;
/// Interleaved rounds per seed for the WAL overhead rows.
const WAL_ROUNDS: usize = 3;

#[derive(Clone)]
enum Op {
    Read(QueryRequest),
    Write(NetworkUpdate),
}

/// One benchmark workload: a snapshot plus the node pools the traffic
/// generator draws from.
struct Workload {
    label: &'static str,
    seed: u64,
    snapshot: EngineSnapshot,
    /// Hot exact routes — the head of the traffic distribution, shared
    /// by every client (that sharing is what coalescing and the answer
    /// cache exploit).
    hot: Vec<QueryRequest>,
    /// Endpoint pools of the hot fragment pair (random endpoints, same
    /// chain — shares interior segments with the hot routes).
    pool_a: Vec<NodeId>,
    pool_b: Vec<NodeId>,
    nodes: usize,
    /// Delete/re-insert pairs that stay incremental, one per writing
    /// client (disjoint ownership keeps updates conflict-free).
    update_pairs: Vec<(NetworkUpdate, NetworkUpdate)>,
    /// Operations served per configuration (divisible by every client
    /// count; smaller for workloads with expensive queries).
    ops_total: usize,
}

/// Interior fragment edges whose delete stays incremental, probed on a
/// private snapshot clone (same recipe as `benches/updates.rs`).
fn safe_update_pairs(snap: &EngineSnapshot, want: usize) -> Vec<(NetworkUpdate, NetworkUpdate)> {
    let frag = snap.fragmentation().clone();
    let border = |v: NodeId| frag.fragments_of_node(v).len() >= 2;
    let mut scratch = ScratchDijkstra::new();
    let mut out = Vec::new();
    'outer: for f in frag.fragments() {
        for e in f.edges() {
            if out.len() >= want {
                break 'outer;
            }
            if border(e.src) && border(e.dst) {
                continue; // DS-crossing deletions fall back by design
            }
            let matched = f
                .edges()
                .iter()
                .filter(|x| {
                    (x.src == e.src && x.dst == e.dst) || (x.src == e.dst && x.dst == e.src)
                })
                .count();
            if matched != 1 {
                continue;
            }
            let remove = NetworkUpdate::Remove {
                src: e.src,
                dst: e.dst,
                owner: f.id(),
            };
            let mut probe = snap.clone();
            match probe.maintain(&remove, &mut scratch) {
                Ok(report) if !report.full_recompute => {}
                _ => continue, // bridge or otherwise fallback-prone
            }
            out.push((
                remove,
                NetworkUpdate::Insert {
                    edge: *e,
                    owner: f.id(),
                },
            ));
        }
    }
    out
}

/// Pre-generate one client's operation stream. Reads: 70% a hot exact
/// route, 15% random endpoints on the hot fragment pair, 15% uniform.
/// Writes (when `write_permille > 0`): the client's private delete /
/// re-insert pair, strictly alternating.
fn client_stream(w: &Workload, client: usize, ops: usize, write_permille: u32) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0xC11E27 ^ (client as u64) << 3 ^ w.seed << 17);
    let pair = &w.update_pairs[client % w.update_pairs.len()];
    let mut removed = false;
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        if (rng.gen_index(1000) as u32) < write_permille {
            let u = if removed { pair.1 } else { pair.0 };
            removed = !removed;
            out.push(Op::Write(u));
            continue;
        }
        let d = rng.gen_index(100);
        let req = if d < 70 {
            w.hot[rng.gen_index(w.hot.len())]
        } else if d < 85 {
            QueryRequest::new(
                w.pool_a[rng.gen_index(w.pool_a.len())],
                w.pool_b[rng.gen_index(w.pool_b.len())],
            )
        } else {
            QueryRequest::new(
                NodeId(rng.gen_index(w.nodes) as u32),
                NodeId(rng.gen_index(w.nodes) as u32),
            )
        };
        out.push(Op::Read(req));
    }
    out
}

/// Serve `w.ops_total` operations through a fresh server with `workers`
/// workers; returns requests answered (for the optimizer). `fault`,
/// `obs` and `durability` are `None` on every speedup-gated row; the
/// overhead rows pass an armed-but-silent plan / an armed
/// [`Observability`] bundle / a fresh WAL directory to price each
/// subsystem against its paired baseline.
fn run_config(
    w: &Workload,
    workers: usize,
    write_permille: u32,
    fault: Option<Arc<FaultPlan>>,
    obs: Option<Arc<Observability>>,
    durability: Option<DurabilityConfig>,
) -> u64 {
    let clients = workers * CLIENTS_PER_WORKER;
    let ops_per_client = w.ops_total / clients;
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|c| client_stream(w, c, ops_per_client, write_permille))
        .collect();
    let server = Server::start(
        w.snapshot.clone(),
        ServeConfig {
            workers,
            queue_capacity: 4096,
            batch_max: 128,
            write_batch_max: 16,
            fault,
            obs,
            durability,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|s| {
        for stream in &streams {
            let server = &server;
            s.spawn(move || {
                let think = std::time::Duration::from_micros(THINK_US);
                for op in stream {
                    match op {
                        Op::Read(r) => {
                            server.query(r.source, r.target).expect("healthy pool");
                        }
                        Op::Write(u) => {
                            let _ = server.update(u);
                        }
                    }
                    // Closed-loop think time: the connection processes
                    // the reply before asking again.
                    std::thread::sleep(think);
                }
            });
        }
    });
    let stats = server.shutdown();
    if std::env::var_os("SERVE_BENCH_VERBOSE").is_some() {
        eprintln!(
            "[serve]     {stats} | avg_batch={:.1} plans r/c={}/{} segs memo/c={}/{} pubs={}",
            stats.requests as f64 / stats.batches.max(1) as f64,
            stats.batch.plans_reused,
            stats.batch.plans_computed,
            stats.batch.segments_memoized,
            stats.batch.segments_computed,
            stats.publications,
        );
    }
    stats.requests + stats.updates
}

/// Build the hot/pool structure from two far-apart node sets.
fn make_workload(
    label: &'static str,
    seed: u64,
    snapshot: EngineSnapshot,
    pool_a: Vec<NodeId>,
    pool_b: Vec<NodeId>,
    nodes: usize,
    ops_total: usize,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(0x407E5 ^ seed);
    let hot = (0..HOT_ROUTES)
        .map(|_| {
            QueryRequest::new(
                pool_a[rng.gen_index(pool_a.len())],
                pool_b[rng.gen_index(pool_b.len())],
            )
        })
        .collect();
    let update_pairs = safe_update_pairs(&snapshot, WORKER_COUNTS[2] * CLIENTS_PER_WORKER + 8);
    assert!(
        update_pairs.len() >= WORKER_COUNTS[2] * CLIENTS_PER_WORKER,
        "{label}/seed-{seed}: only {} disjoint incremental update pairs",
        update_pairs.len()
    );
    Workload {
        label,
        seed,
        snapshot,
        hot,
        pool_a,
        pool_b,
        nodes,
        update_pairs,
        ops_total,
    }
}

fn transportation_workload(seed: u64) -> Workload {
    let clusters = 10usize;
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster: 40,
        target_edges_per_cluster: 150,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    let labels = g.cluster_of.clone().unwrap();
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        clusters,
        CrossingPolicy::LowerBlock,
    )
    .unwrap();
    let snap =
        EngineSnapshot::build(g.closure_graph(), frag, true, EngineConfig::default()).unwrap();
    // Hot traffic crosses the whole cluster chain: first ↔ last country.
    let pool_a: Vec<NodeId> = (0..40u32).map(NodeId).collect();
    let pool_b: Vec<NodeId> = ((g.nodes as u32 - 40)..g.nodes as u32)
        .map(NodeId)
        .collect();
    make_workload("transportation", seed, snap, pool_a, pool_b, g.nodes, 1920)
}

fn spatial_workload(seed: u64) -> Workload {
    let cfg = EllipseConfig {
        nodes: 700,
        target_edges: 2100,
        c2: 0.15,
        a: 900.0,
        b: 40.0,
        ..Default::default()
    };
    let g = generate_ellipse(&cfg, seed + 1);
    let frag = linear_sweep(
        &g.edge_list(),
        &LinearConfig {
            fragments: 8,
            ..Default::default()
        },
    )
    .unwrap()
    .fragmentation;
    let snap =
        EngineSnapshot::build(g.closure_graph(), frag, true, EngineConfig::default()).unwrap();
    // Hot traffic runs the long axis: leftmost decile ↔ rightmost decile.
    let mut by_x: Vec<u32> = (0..g.nodes as u32).collect();
    by_x.sort_by(|&i, &j| g.coords[i as usize].x.total_cmp(&g.coords[j as usize].x));
    let decile = g.nodes / 10;
    let pool_a: Vec<NodeId> = by_x[..decile].iter().map(|&i| NodeId(i)).collect();
    let pool_b: Vec<NodeId> = by_x[g.nodes - decile..]
        .iter()
        .map(|&i| NodeId(i))
        .collect();
    make_workload("spatial", seed, snap, pool_a, pool_b, g.nodes, 1920)
}

fn general_workload(seed: u64) -> Workload {
    let cfg = GeneralConfig {
        nodes: 200,
        target_edges: 550,
        c2: 0.15,
        ..Default::default()
    };
    let g = generate_general(&cfg, seed + 2);
    let frag = center_based(
        &g.edge_list(),
        &CenterConfig {
            fragments: 4,
            ..Default::default()
        },
    )
    .unwrap()
    .fragmentation;
    // Center growth yields a cyclic fragmentation graph with fat
    // borders; cap the chain enumeration so a single query stays
    // serving-sized (the adversarial point here is batching behaviour,
    // not exhaustive chain coverage).
    let snap = EngineSnapshot::build(
        g.closure_graph(),
        frag,
        true,
        EngineConfig {
            max_chains: 8,
            max_chain_len: 5,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // No exploitable geometry: hot routes between two random node pools.
    let mut rng = StdRng::seed_from_u64(7 ^ seed);
    let pool_a: Vec<NodeId> = (0..30)
        .map(|_| NodeId(rng.gen_index(g.nodes) as u32))
        .collect();
    let pool_b: Vec<NodeId> = (0..30)
        .map(|_| NodeId(rng.gen_index(g.nodes) as u32))
        .collect();
    make_workload("general", seed, snap, pool_a, pool_b, g.nodes, 240)
}

/// Approximate deep heap size of a snapshot's shareable components (the
/// bytes a *full* per-epoch copy duplicates): CSR storage for the global
/// and per-site augmented graphs, the per-site shortcut tables and
/// real-hop sets. Rough by design — it contextualizes the clone timings
/// as a bytes-per-epoch figure, it is not an allocator audit.
fn approx_snapshot_bytes(snap: &EngineSnapshot) -> usize {
    // CSR ≈ one 8-byte offset per node + ~16 bytes per directed edge.
    let csr = |nodes: usize, edges: usize| nodes * 8 + edges * 16;
    let mut bytes = csr(snap.graph().node_count(), snap.graph().edge_count());
    for f in 0..snap.site_count() {
        let aug = snap.augmented_handle(f);
        bytes += csr(aug.node_count(), aug.edge_count());
        // HashSet entry (NodeId, NodeId, Cost) ≈ 16 bytes × ~2 load slack.
        bytes += snap.real_hops_handle(f).len() * 32;
        // Shortcut Edge = (u32, u32, u64).
        bytes += snap.complementary().shortcuts(f).len() * 16;
    }
    bytes
}

/// Measure the per-epoch publication cost on a transportation working
/// snapshot that has one update's worth of touched sites (the realistic
/// writer state): the structurally-shared clone the writer performs
/// today vs the deep copy it performed before structural sharing.
/// Returns (shared_median_ns, full_median_ns).
fn publication_cost(group: &mut Bench, w: &Workload) -> (f64, f64) {
    // The published predecessor pins the sharing, exactly like the
    // serve writer: `working` was cloned from it, then maintained.
    let published = Arc::new(w.snapshot.clone());
    let mut working = (*published).clone();
    let mut scratch = ScratchDijkstra::new();
    let (remove, insert) = &w.update_pairs[0];
    working.maintain(remove, &mut scratch).unwrap();
    working.maintain(insert, &mut scratch).unwrap();
    let shared = group
        .run(
            &format!("publication/{}/shared-clone/seed-{}", w.label, w.seed),
            || Arc::new(working.clone()),
        )
        .median_ns;
    let full = group
        .run(
            &format!("publication/{}/full-clone/seed-{}", w.label, w.seed),
            || Arc::new(working.unshared_clone()),
        )
        .median_ns;
    let bytes = approx_snapshot_bytes(&working);
    println!(
        "publication/{}/seed-{}: full-clone ≈ {:.0} KiB in {:.1} us, shared-clone {:.2} us \
         ({:.0}x cheaper; O(sites) Arcs vs the deep copy)",
        w.label,
        w.seed,
        bytes as f64 / 1024.0,
        full / 1e3,
        shared / 1e3,
        full / shared,
    );
    (shared, full)
}

fn main() {
    let mut group = Bench::new("serve").sample_size(3);

    // workloads[family][seed index]
    let transportation: Vec<Workload> = SEEDS.iter().map(|&s| transportation_workload(s)).collect();
    eprintln!(
        "[serve] transportation workloads ready ({} seeds)",
        SEEDS.len()
    );
    let spatial: Vec<Workload> = SEEDS.iter().map(|&s| spatial_workload(s)).collect();
    eprintln!("[serve] spatial workloads ready");
    let general: Vec<Workload> = SEEDS.iter().map(|&s| general_workload(s)).collect();
    eprintln!("[serve] general workloads ready");

    // Publication cost: the structural-sharing headline, swept per seed,
    // gated on the worst seed.
    let mut publication_ratios = Vec::with_capacity(transportation.len());
    let (mut shared_meds, mut full_meds) = (Vec::new(), Vec::new());
    for w in &transportation {
        let (shared, full) = publication_cost(&mut group, w);
        publication_ratios.push(full / shared);
        shared_meds.push(shared);
        full_meds.push(full);
    }
    group.record("publication/transportation/shared-clone", &shared_meds);
    group.record("publication/transportation/full-clone", &full_meds);

    // Transportation runs both mixes; the other workloads run the
    // gate-relevant 95/5 mix only.
    let configs: [(&Vec<Workload>, u32); 4] = [
        (&transportation, 0),
        (&transportation, 50),
        (&spatial, 50),
        (&general, 50),
    ];
    // Per (family, mix, workers): the per-seed medians, keyed by name.
    let mut medians: Vec<(String, Vec<f64>)> = Vec::new();
    for (seeds, write_permille) in configs {
        let mix = format!("{}r-{}w", (1000 - write_permille) / 10, write_permille / 10);
        for workers in WORKER_COUNTS {
            let name = format!("{}/{mix}/workers-{workers}", seeds[0].label);
            eprintln!("[serve] measuring {name} across {} seeds", seeds.len());
            let t = std::time::Instant::now();
            let per_seed: Vec<f64> = seeds
                .iter()
                .map(|w| {
                    group
                        .run(&format!("{name}/seed-{}", w.seed), || {
                            run_config(w, workers, write_permille, None, None, None)
                        })
                        .median_ns
                })
                .collect();
            let agg = group.record(&name, &per_seed).clone();
            eprintln!(
                "[serve]   {name}: median {:.0} ms (min {:.0} / max {:.0}), row took {:.1}s",
                agg.median_ns / 1e6,
                agg.min_ns / 1e6,
                agg.max_ns / 1e6,
                t.elapsed().as_secs_f64()
            );
            medians.push((name, per_seed));
        }
    }

    // Fault-hook overhead: the transportation 95/5 row at 4 workers with
    // an armed-but-silent plan (a rule whose occurrence count can never
    // be reached, so every hook takes the armed path without firing).
    // Non-gating — the row keeps the hook's price visible in the JSON.
    let armed_plan =
        Arc::new(FaultPlan::new().panic_at(FaultPoint::ServeWorker { worker: 0 }, u64::MAX));
    eprintln!("[serve] measuring fault-hook overhead (armed-but-silent)");
    let armed: Vec<f64> = transportation
        .iter()
        .map(|w| {
            group
                .run(
                    &format!(
                        "transportation/95r-5w/workers-4/fault-armed/seed-{}",
                        w.seed
                    ),
                    || run_config(w, 4, 50, Some(armed_plan.clone()), None, None),
                )
                .median_ns
        })
        .collect();
    group.record("transportation/95r-5w/workers-4/fault-armed", &armed);

    // Observability overhead, same row, measured as PAIRED interleaved
    // samples: each round runs baseline (obs: None), disarmed (obs:
    // None again — the hooks compile in either way, this prices the
    // measurement floor), and armed (a live registry + tracer +
    // workload recorder fed by every request) back-to-back, so slow
    // drift over the bench's runtime hits all three configurations
    // equally instead of inflating whichever row ran last. The gate
    // compares best-of-samples (the noise-robust estimator) per seed.
    eprintln!("[serve] measuring observability overhead (paired baseline/disarmed/armed)");
    let mut obs_ratios: Vec<(f64, f64)> = Vec::with_capacity(transportation.len());
    let (mut obs_base_meds, mut obs_disarmed_meds, mut obs_armed_meds) =
        (Vec::new(), Vec::new(), Vec::new());
    for w in &transportation {
        let bundle = Observability::armed();
        let mut samples = [Vec::new(), Vec::new(), Vec::new()];
        run_config(w, 4, 50, None, None, None); // warmup, discarded
        for _ in 0..OBS_ROUNDS {
            for (which, out) in samples.iter_mut().enumerate() {
                let obs = (which == 2).then(|| Arc::clone(&bundle));
                let t = std::time::Instant::now();
                std::hint::black_box(run_config(w, 4, 50, None, obs, None));
                out.push(t.elapsed().as_nanos() as f64);
            }
        }
        let min = |s: &[f64]| s.iter().cloned().fold(f64::INFINITY, f64::min);
        obs_ratios.push((
            min(&samples[1]) / min(&samples[0]),
            min(&samples[2]) / min(&samples[0]),
        ));
        for (which, name) in ["obs-baseline", "obs-disarmed", "obs-armed"]
            .iter()
            .enumerate()
        {
            let row = group
                .record(
                    &format!("transportation/95r-5w/workers-4/{name}/seed-{}", w.seed),
                    &samples[which],
                )
                .median_ns;
            match which {
                0 => obs_base_meds.push(row),
                1 => obs_disarmed_meds.push(row),
                _ => obs_armed_meds.push(row),
            }
        }
    }
    group.record(
        "transportation/95r-5w/workers-4/obs-baseline",
        &obs_base_meds,
    );
    group.record(
        "transportation/95r-5w/workers-4/obs-disarmed",
        &obs_disarmed_meds,
    );
    group.record("transportation/95r-5w/workers-4/obs-armed", &obs_armed_meds);

    // Durability overhead on the write path: the transportation
    // workload served as a pure update stream — 16 closed-loop
    // updaters, each alternating its private delete / re-insert pair —
    // with every update appended to a fresh write-ahead log (fsync'd
    // group commits, append-before-apply) before it is applied. Paired
    // interleaved sampling again: each round runs `wal-off` and
    // `wal-on` back-to-back on a fresh log directory, and the gate
    // compares best-of-samples per seed on the worst seed. Group
    // commit is what the row demonstrates: concurrent updaters share
    // one append+fdatasync per writer micro-batch, so the durable
    // write path keeps ≥ 70% of the WAL-off throughput.
    eprintln!("[serve] measuring WAL write-path overhead (paired wal-off/wal-on)");
    let mut wal_ratios: Vec<f64> = Vec::with_capacity(transportation.len());
    let (mut wal_off_meds, mut wal_on_meds) = (Vec::new(), Vec::new());
    for w in &transportation {
        let mut samples = [Vec::new(), Vec::new()];
        for round in 0..WAL_ROUNDS {
            for (which, out) in samples.iter_mut().enumerate() {
                let dir = (which == 1).then(|| {
                    let dir = std::env::temp_dir().join(format!(
                        "discset-serve-bench-wal-{}-{}-{round}",
                        std::process::id(),
                        w.seed
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    dir
                });
                let durability = dir.clone().map(DurabilityConfig::at);
                let t = std::time::Instant::now();
                std::hint::black_box(run_config(w, 4, 1000, None, None, durability));
                out.push(t.elapsed().as_nanos() as f64);
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
        let min = |s: &[f64]| s.iter().cloned().fold(f64::INFINITY, f64::min);
        // Throughput ratio wal-on/wal-off = time-off / time-on.
        wal_ratios.push(min(&samples[0]) / min(&samples[1]));
        for (which, name) in ["wal-off", "wal-on"].iter().enumerate() {
            let row = group
                .record(
                    &format!("transportation/0r-100w/workers-4/{name}/seed-{}", w.seed),
                    &samples[which],
                )
                .median_ns;
            if which == 0 {
                wal_off_meds.push(row);
            } else {
                wal_on_meds.push(row);
            }
        }
    }
    group.record("transportation/0r-100w/workers-4/wal-off", &wal_off_meds);
    group.record("transportation/0r-100w/workers-4/wal-on", &wal_on_meds);

    println!("{}", render(group.results()));
    println!("aggregate throughput (closed loop, {CLIENTS_PER_WORKER} connections/worker, {THINK_US}us think time):");
    let seeds_of = |name: &str| -> &[f64] {
        medians
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_slice())
            .expect("measured")
    };
    let mut gate_speedup = f64::INFINITY;
    for (seeds, write_permille) in configs {
        let label = seeds[0].label;
        let ops_total = seeds[0].ops_total;
        let mix = format!("{}r-{}w", (1000 - write_permille) / 10, write_permille / 10);
        let base = seeds_of(&format!("{label}/{mix}/workers-1"));
        for workers in WORKER_COUNTS {
            let per_seed = seeds_of(&format!("{label}/{mix}/workers-{workers}"));
            // Per-seed speedups pair each seed with its own 1-worker
            // baseline; the conservative bound is the worst seed.
            let speedups: Vec<f64> = base.iter().zip(per_seed).map(|(b, ns)| b / ns).collect();
            let worst = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
            let med = {
                let mut s = per_seed.to_vec();
                s.sort_by(|a, b| a.total_cmp(b));
                s[s.len() / 2]
            };
            let qps = ops_total as f64 / (med / 1e9);
            println!(
                "  {label}/{mix}: {workers} workers = {qps:>9.0} ops/s \
                 (worst-seed {worst:.2}x vs 1 worker)"
            );
            if label == "transportation" && write_permille == 50 && workers == 4 {
                gate_speedup = worst;
            }
        }
    }
    let base4 = seeds_of("transportation/95r-5w/workers-4");
    let worst_overhead = base4
        .iter()
        .zip(&armed)
        .map(|(b, a)| a / b)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "fault hooks: armed-but-silent plan costs {:+.1}% vs baseline on the worst \
         seed (informational, non-gating)",
        (worst_overhead - 1.0) * 100.0
    );
    let worst_obs_disarmed = obs_ratios
        .iter()
        .map(|(d, _)| *d)
        .fold(f64::NEG_INFINITY, f64::max);
    let worst_obs_armed = obs_ratios
        .iter()
        .map(|(_, a)| *a)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "observability: disarmed hooks cost {:+.1}% vs the paired baseline on the worst \
         seed (gated at ≤ {:.0}%), armed bundle {:+.1}% (informational, non-gating)",
        (worst_obs_disarmed - 1.0) * 100.0,
        (GATE_OBS_DISARMED - 1.0) * 100.0,
        (worst_obs_armed - 1.0) * 100.0
    );
    let worst_wal = wal_ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "durability: wal-on write-path throughput is {worst_wal:.2}x wal-off on the \
         worst seed (fsync'd group commits; floor {GATE_WAL}x)"
    );
    let worst_publication = publication_ratios
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    println!(
        "publication cost: shared-clone is {worst_publication:.0}x cheaper than the \
         full copy on the worst seed (floor {GATE_PUBLICATION}x)"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    write_json(path, group.results()).expect("write perf snapshot");
    println!("\nwrote {path}");

    // Regression gates (fail the CI job), both on the conservative
    // (worst-seed) bound: the pool must convert concurrency into
    // throughput on the paper's headline workload, and structural
    // sharing must keep epoch publication ≥ 5x cheaper than a full copy.
    assert!(
        gate_speedup >= GATE_SPEEDUP,
        "transportation 95r-5w: 4 workers reached only {gate_speedup:.2}x the \
         1-worker throughput on the worst seed (floor {GATE_SPEEDUP}x)"
    );
    assert!(
        worst_publication >= GATE_PUBLICATION,
        "structural sharing: shared publication only {worst_publication:.2}x cheaper \
         than a full clone on the worst seed (floor {GATE_PUBLICATION}x)"
    );
    assert!(
        worst_obs_disarmed <= GATE_OBS_DISARMED,
        "observability: disarmed hooks cost {:.1}% vs the paired baseline on the \
         worst seed (ceiling {:.0}%)",
        (worst_obs_disarmed - 1.0) * 100.0,
        (GATE_OBS_DISARMED - 1.0) * 100.0
    );
    assert!(
        worst_wal >= GATE_WAL,
        "durability: wal-on throughput is only {worst_wal:.2}x wal-off on the worst \
         seed (floor {GATE_WAL}x) — group commit is not amortizing the fsyncs"
    );
}
