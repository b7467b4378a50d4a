//! The traced run: per-layer metrics.
//!
//! The run times the calls into each layer's public functions from the
//! benchmark's side, adding no tracing inside the program:
//!
//! * set-up: `semantic::by_labels`, `build_parts`, `ReachIndex::build`;
//! * a short served phase (the untraced closed loop) for the counters
//!   `ServeStats` keeps, which no outside call can see;
//! * a single-threaded replay of the workload's op stream: reads as
//!   `Planner::plan`, `run_chain` per chain and `chain_cost`; writes as
//!   `append_batch`, `maintain` and (when the index went stale) the
//!   reach-index rebuild; `connected` as `ReachIndex::reaches`;
//! * `cold-mixed`: `recover`, then its two parts redone step by step;
//! * `batch-closure`: machine `query_batch` and bulk `materialize`.
//!
//! Every call is a span (name, start, end, parent, op id) kept in
//! memory and written to `.bench_work/trace-<workload>.tsv` at
//! the end. A span's self time is its duration minus its children's.
//! The replay runs a second time untraced on the same ops; the ratio of
//! the two is `trace.overhead_frac`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use discset::closure::api::build_parts;
use discset::closure::assemble::chain_cost;
use discset::closure::executor::run_chain;
use discset::closure::EngineConfig;
use discset::durability::{wal_paths, DurabilityConfig};
use discset::fragment::{semantic, CrossingPolicy, Fragmentation};
use discset::graph::dijkstra::point_to_point;
use discset::graph::{CsrGraph, NodeId, ReachIndex, ScratchDijkstra};
use discset::machine::{Machine, MachineOptions};
use discset::{
    recover, DurableStore, EngineSnapshot, MaterializeConfig, MaterializeEngine, NetworkUpdate,
    ServeStats, TcEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{closed_loop, Answer, Checker, ClientLog, Env, Outcome, SETUP_REPS};
use crate::oracle::Apsp;
use crate::spec::{per_layer_names, PER_LAYER};
use crate::stats::{Report, Samples, MIN_BEYOND};
use crate::workload::{builder, closure_graph, network, Op, Plan, Stream, Workload, COUNTRIES};

/// Share of `--seconds` for the served phase and for the traced replay.
const PHASE_SHARE: f64 = 0.3;
/// Pairs the recovered states are compared on.
const RECOVER_CHECK_PAIRS: usize = 128;
/// Most served queries re-run directly for `serve.overhead_p50_us`.
const DIRECT_SAMPLE: usize = 2_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder; off, it records nothing and reads no clock.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Per span, the time its children cover.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// Per span name: every duration and the summed self time.
    fn layers(&self) -> BTreeMap<&'static str, (Vec<f64>, f64)> {
        let mut out: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.covered()) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0.push(dur as f64 * 1e-9);
            e.1 += dur.saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Share of the replayed ops' time covered by their layers' self times.
    fn coverage(&self) -> f64 {
        let (mut total, mut inner) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(self.covered()) {
            if s.parent.is_none() && matches!(s.name, "read" | "connected" | "write") {
                total += s.end_ns - s.start_ns;
                inner += c;
            }
        }
        ratio(inner as f64, total as f64)
    }
}

/// Write the spans of recorders sharing one origin to `path`, one row
/// per span, numbered across all of them.
fn write_tsv(tracers: &[&Tracer], path: &Path) {
    let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
    let mut base = 0;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| (base + p).to_string());
            let _ = writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                base + i,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        base += t.spans.len();
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("tcbench: cannot write {}: {e}", path.display());
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Read-path counters of a replay.
#[derive(Default)]
struct ReadTally {
    queries: u64,
    chains: u64,
    site_queries: u64,
    tuples: u64,
    max_busy: Duration,
    total_busy: Duration,
}

/// A single-threaded replay over one snapshot (and, for writes, one
/// durable store).
struct Replay {
    t: Tracer,
    snap: EngineSnapshot,
    augmented: Vec<Arc<CsrGraph>>,
    scratch: ScratchDijkstra,
    store: Option<(DurableStore, std::path::PathBuf)>,
    epoch: u64,
    reads: ReadTally,
    writes: u64,
    full_recomputes: u64,
    wal_bytes: u64,
    wal_records: u64,
    /// Time of every op, read around the op from outside any span.
    op_time: Duration,
    /// The snapshot the newest threshold checkpoint imaged.
    ckpt_base: Option<EngineSnapshot>,
}

fn augmented(snap: &EngineSnapshot) -> Vec<Arc<CsrGraph>> {
    (0..snap.site_count())
        .map(|f| Arc::clone(snap.augmented_handle(f)))
        .collect()
}

fn wal_size(dir: &Path) -> u64 {
    wal_paths(dir)
        .iter()
        .filter_map(|(_, p)| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

impl Replay {
    fn new(t: Tracer, snap: EngineSnapshot, wal: Option<&Path>) -> Replay {
        let store = wal.map(|dir| {
            let _ = std::fs::remove_dir_all(dir);
            let store = DurableStore::attach(DurabilityConfig::at(dir), &snap, 0, None)
                .expect("the replay WAL directory attaches");
            (store, dir.to_path_buf())
        });
        Replay {
            t,
            augmented: augmented(&snap),
            snap,
            scratch: ScratchDijkstra::new(),
            store,
            epoch: 0,
            reads: ReadTally::default(),
            writes: 0,
            full_recomputes: 0,
            wal_bytes: 0,
            wal_records: 0,
            op_time: Duration::ZERO,
            ckpt_base: None,
        }
    }

    fn op(&mut self, id: u64, op: Op) -> Answer {
        let t0 = Instant::now();
        let answer = match op {
            Op::Query { x, y, .. } => Answer::Cost(self.read(id, x, y)),
            Op::Connected { x, y } => Answer::Connected(self.connected(id, x, y)),
            Op::Update(u) => self.write(id, u),
        };
        self.op_time += t0.elapsed();
        answer
    }

    fn read(&mut self, id: u64, x: NodeId, y: NodeId) -> Option<u64> {
        let Replay {
            t,
            snap,
            augmented,
            scratch,
            reads,
            ..
        } = self;
        t.span("read", id, |t| {
            if x == y {
                return Some(0);
            }
            let plan = t.span("plan", id, |_| snap.planner().plan(x, y)).ok()?;
            reads.queries += 1;
            reads.chains += plan.chains.len() as u64;
            let (mut best, mut max_busy, mut total_busy) =
                (None::<u64>, Duration::ZERO, Duration::ZERO);
            for chain in &plan.chains {
                let (segments, runs) = t.span("phase1.chain", id, |_| {
                    run_chain(augmented, chain, snap.config().mode, scratch)
                });
                for r in &runs {
                    reads.site_queries += 1;
                    reads.tuples += r.tuples as u64;
                    total_busy += r.busy;
                    max_busy = max_busy.max(r.busy);
                }
                if let Some(c) = t.span("join", id, |_| chain_cost(&segments, x, y)) {
                    best = Some(best.map_or(c, |b| b.min(c)));
                }
            }
            reads.max_busy += max_busy;
            reads.total_busy += total_busy;
            best
        })
    }

    fn connected(&mut self, id: u64, x: NodeId, y: NodeId) -> bool {
        let Replay {
            t, snap, scratch, ..
        } = self;
        t.span("connected", id, |t| {
            if x == y {
                return true;
            }
            match snap.reach_index() {
                Some(reach) => t.span("reach.connected", id, |_| reach.reaches(x, y)),
                None => snap.connected(x, y, scratch),
            }
        })
    }

    fn write(&mut self, id: u64, u: NetworkUpdate) -> Answer {
        let before = self.store.as_ref().map(|(_, dir)| wal_size(dir));
        let Replay {
            t,
            snap,
            scratch,
            store,
            epoch,
            ckpt_base,
            ..
        } = self;
        let outcome = t.span("write", id, |t| {
            if let Some((store, _)) = store.as_mut() {
                t.span("wal.append", id, |_| store.append_batch(*epoch, &[u]))
                    .ok()?;
            }
            let report = t
                .span("maintain", id, |_| snap.maintain(&u, scratch))
                .ok()?;
            if report.sites_touched > 0 || report.full_recompute {
                *epoch += 1;
            }
            if snap.reach_index().is_none() {
                t.span("reach.build", id, |_| snap.ensure_reach());
            }
            if let Some((store, _)) = store.as_mut() {
                if store.should_checkpoint() {
                    t.span("checkpoint", id, |_| store.checkpoint(snap, *epoch))
                        .ok()?;
                    *ckpt_base = Some(snap.clone());
                }
            }
            Some(report.full_recompute)
        });
        self.augmented = augmented(&self.snap);
        if let (Some(before), Some((_, dir))) = (before, &self.store) {
            // A checkpoint rotates the segment; count only plain appends.
            let after = wal_size(dir);
            if after > before {
                self.wal_bytes += after - before;
                self.wal_records += 1;
            }
        }
        match outcome {
            Some(full_recompute) => {
                self.writes += 1;
                self.full_recomputes += u64::from(full_recompute);
                Answer::Updated { full_recompute }
            }
            None => Answer::Failed,
        }
    }
}

/// Median, and the highest of p99/p95/p90/p75 with at least
/// [`MIN_BEYOND`] samples beyond it (with its rank), of `v` in seconds.
fn median_and_tail(v: &[f64]) -> (f64, Option<(f64, f64)>) {
    let s = Samples::new(v.to_vec());
    let tail = [0.99, 0.95, 0.90, 0.75].into_iter().find_map(|q| {
        s.quantile(q)
            .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
            .map(|(v, _)| (q, v))
    });
    (s.median(), tail)
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Run one workload traced.
pub fn run(workload: Workload, seed: u64, env: &Env) -> Outcome {
    let g = network(seed);
    let cfg = EngineConfig::default();
    let labels = g
        .cluster_of
        .clone()
        .expect("transportation graphs are labelled");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut notes: BTreeMap<&'static str, String> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up layers.
    let origin = Instant::now();
    let mut t = Tracer::new(true, origin);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let frag = t
            .span("fragment", 0, |_| {
                semantic::by_labels(
                    g.nodes,
                    &g.connections,
                    &labels,
                    COUNTRIES,
                    CrossingPolicy::LowerBlock,
                )
            })
            .expect("the benchmark network fragments");
        let graph = g.closure_graph();
        let parts = t
            .span("precompute", 0, |_| build_parts(&graph, &frag, true, &cfg))
            .expect("the benchmark network precomputes");
        t.span("reach.build", 0, |_| ReachIndex::build(&graph));
        built = Some((frag, parts));
    }
    let (frag, parts) = built.expect("at least one set-up rep");
    m.insert(
        "fragment.ds_nodes".into(),
        (0..g.nodes)
            .filter(|&v| frag.fragments_of_node(NodeId(v as u32)).len() >= 2)
            .count() as f64,
    );
    m.insert(
        "precompute.shortcuts".into(),
        (0..frag.fragment_count())
            .map(|f| parts.comp.shortcuts(f).len())
            .sum::<usize>() as f64,
    );
    let snap0 = EngineSnapshot::build(g.closure_graph(), frag.clone(), true, cfg.clone())
        .expect("the benchmark network builds");
    let plan = Arc::new(Plan::new(workload, seed, &g, &snap0, env.clients));

    let checker = Checker::new(&g, &plan);
    let phase = Duration::from_secs_f64(env.seconds * PHASE_SHARE);

    // Served phase: ServeStats counters and the serve overhead.
    if workload != Workload::BatchClosure {
        let dir = env.work.join("traced-serve");
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = builder(&g);
        if workload == Workload::ColdMixed {
            b = b.durable(&dir);
        }
        let sys = b.build().expect("the benchmark network builds");
        let server = sys.serve_with(env.serve_config());
        let (logs, _) = closed_loop(&server, &plan, env.clients, env.warmup(), phase, &checker);
        let live = server.snapshot();
        let stats = server.shutdown();
        drop(sys);
        let _ = std::fs::remove_dir_all(&dir);
        for l in &logs {
            attempted += l.attempted;
            failed += l.failed;
        }
        serve_metrics(&mut m, &stats, &logs, &live);
    }

    // Replay: traced, then the same ops untraced.
    let wal = |tag: &str| {
        (workload == Workload::ColdMixed).then(|| env.work.join(format!("replay-{tag}")))
    };
    let traced_wal = wal("traced");
    let mut traced = Replay::new(
        Tracer::new(true, origin),
        snap0.clone(),
        traced_wal.as_deref(),
    );
    // batch-closure replays its fixed batch; the others their streams
    // for the phase's length.
    let mut ops: Vec<Op> = Vec::new();
    let mut streams: Vec<_> = (0..env.clients).map(|c| plan.stream(c)).collect();
    let start = Instant::now();
    loop {
        let op = match workload {
            Workload::BatchClosure => match plan.batch.get(ops.len()) {
                Some(q) => Op::Query {
                    x: q.source,
                    y: q.target,
                    uniform: true,
                },
                None => break,
            },
            _ if start.elapsed() < phase => streams[ops.len() % env.clients]
                .next()
                .expect("op streams are endless"),
            _ => break,
        };
        ops.push(op);
        let a = traced.op(ops.len() as u64, op);
        attempted += 1;
        failed += u64::from(!checker.check(op, &a));
    }
    let untraced_wal = wal("untraced");
    let mut untraced = Replay::new(
        Tracer::new(false, origin),
        snap0.clone(),
        untraced_wal.as_deref(),
    );
    for (i, &op) in ops.iter().enumerate() {
        let a = untraced.op(i as u64 + 1, op);
        attempted += 1;
        failed += u64::from(!checker.check(op, &a));
    }
    m.insert(
        "trace.overhead_frac".into(),
        ratio(traced.op_time.as_secs_f64(), untraced.op_time.as_secs_f64()) - 1.0,
    );
    drop(untraced);
    if let Some(dir) = &untraced_wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    let r = &traced.reads;
    let q = r.queries as f64;
    m.insert("planner.chains_per_query".into(), ratio(r.chains as f64, q));
    m.insert(
        "phase1.site_queries_per_query".into(),
        ratio(r.site_queries as f64, q),
    );
    m.insert(
        "phase1.tuples_shipped_per_query".into(),
        ratio(r.tuples as f64, q),
    );
    m.insert(
        "phase1.max_site_share".into(),
        ratio(r.max_busy.as_secs_f64(), r.total_busy.as_secs_f64()),
    );
    m.insert(
        "maintain.full_recompute_frac".into(),
        ratio(traced.full_recomputes as f64, traced.writes as f64),
    );
    m.insert(
        "wal.bytes_per_update".into(),
        ratio(traced.wal_bytes as f64, traced.wal_records as f64),
    );

    // cold-mixed: recovery, whole and in its two parts.
    if let Some(dir) = &traced_wal {
        let ends: Vec<_> = streams.iter().map(Stream::end).collect();
        let final_graph = closure_graph(g.nodes, &plan.final_connections(&g, &ends));
        let (failures, checks) =
            recovery(&mut traced, &mut t, dir, &snap0, &final_graph, seed, &mut m);
        attempted += checks;
        failed += failures;
        if let Some((store, _)) = traced.store.as_mut() {
            let snap = &traced.snap;
            let epoch = traced.epoch;
            traced
                .t
                .span("checkpoint", 0, |_| store.checkpoint(snap, epoch))
                .expect("the end-state checkpoint writes");
        }
        traced.store = None;
        let _ = std::fs::remove_dir_all(dir);
    }

    // batch-closure: the machine and the bulk engine.
    if workload == Workload::BatchClosure {
        let (a, f) = machine_and_bulk(
            &mut t,
            &g,
            &frag,
            &cfg,
            &plan,
            &checker.exact,
            phase,
            &mut m,
        );
        attempted += a;
        failed += f;
    }

    // Fold both recorders into the layer table.
    let mut layers = t.layers();
    for (name, (durs, self_s)) in traced.t.layers() {
        let e = layers.entry(name).or_default();
        e.0.extend(durs);
        e.1 += self_s;
    }
    m.insert("trace.coverage".into(), traced.t.coverage());
    let get = |name: &str| layers.get(name).map_or(&[][..], |l| &l.0[..]);
    m.insert(
        "fragment.build_s".into(),
        Samples::new(get("fragment").to_vec()).median(),
    );
    m.insert(
        "precompute.build_s".into(),
        Samples::new(get("precompute").to_vec()).median(),
    );
    m.insert(
        "reach.build_us".into(),
        Samples::new(get("reach.build").to_vec()).median() * 1e6,
    );
    m.insert(
        "reach.connected_ns".into(),
        mean(get("reach.connected")) * 1e9,
    );
    m.insert("planner.plan_us".into(), mean(get("plan")) * 1e6);
    m.insert("join.us".into(), mean(get("join")) * 1e6);
    m.insert(
        "checkpoint.s".into(),
        Samples::new(get("checkpoint").to_vec()).median(),
    );
    for (layer, p50, tail) in [
        (
            "phase1.chain",
            "phase1.chain_p50_us",
            "phase1.chain_tail_us",
        ),
        ("maintain", "maintain.p50_us", "maintain.tail_us"),
        ("wal.append", "wal.append_p50_us", "wal.append_tail_us"),
    ] {
        let (median, t) = median_and_tail(get(layer));
        m.insert(p50.into(), median * 1e6);
        m.insert(tail.into(), t.map_or(0.0, |(_, v)| v * 1e6));
        notes.insert(
            tail,
            match t {
                Some((q, _)) => format!(" (p{}, n={})", q * 100.0, get(layer).len()),
                None => format!(" (unsupported, n={})", get(layer).len()),
            },
        );
    }
    for (name, (durs, self_s)) in &layers {
        m.insert(format!("self_s.{name}"), *self_s);
        m.insert(format!("calls.{name}"), durs.len() as f64);
    }
    let path = Path::new(".bench_work").join(format!("trace-{}.tsv", workload.name()));
    write_tsv(&[&t, &traced.t], &path);

    let mut report = Report::default();
    report.note(format!(
        "spans: {} written to {}",
        traced.t.spans.len() + t.spans.len(),
        path.display()
    ));
    let meaning = |name: &str| PER_LAYER.iter().find(|d| d.name == name).map(|d| d.meaning);
    for (name, unit) in per_layer_names() {
        let value = m.get(&name).copied().unwrap_or(0.0);
        let note = notes.get(name.as_str()).cloned().unwrap_or_default();
        report.metric(&name, value, unit);
        if let Some(meaning) = meaning(&name) {
            report.note(format!("  {name}{note}: {meaning}"));
        }
    }
    Outcome {
        report,
        attempted,
        failed,
    }
}

fn serve_metrics(
    m: &mut BTreeMap<String, f64>,
    stats: &ServeStats,
    logs: &[ClientLog],
    live: &EngineSnapshot,
) {
    let connected: u64 = logs.iter().map(|l| l.connected).sum();
    m.insert(
        "reach.fast_path_frac".into(),
        ratio(stats.reach_fast_path as f64, connected as f64),
    );
    m.insert("serve.cache_hit_frac".into(), stats.cache_hit_fraction());
    m.insert("serve.coalesced_frac".into(), stats.coalesced_fraction());
    m.insert(
        "serve.batch_size_mean".into(),
        ratio(stats.jobs as f64, stats.batches as f64),
    );
    m.insert(
        "serve.queue_high_water".into(),
        stats.queue_high_water as f64,
    );
    let elapsed = stats.elapsed.as_secs_f64();
    let busy: f64 = stats.busy.iter().map(Duration::as_secs_f64).sum();
    m.insert(
        "serve.worker_busy_frac".into(),
        ratio(busy, elapsed * stats.workers as f64),
    );
    m.insert(
        "serve.writer_busy_frac".into(),
        ratio(stats.writer_busy.as_secs_f64(), elapsed),
    );
    m.insert(
        "serve.updates_per_publication".into(),
        ratio(stats.updates as f64, stats.publications as f64),
    );
    m.insert(
        "wal.records_per_commit".into(),
        ratio(stats.wal_records as f64, stats.wal_commits as f64),
    );
    m.insert("checkpoint.count".into(), stats.checkpoints as f64);

    let queries: Vec<_> = logs
        .iter()
        .flat_map(|l| l.queries.iter().copied())
        .take(DIRECT_SAMPLE)
        .collect();
    let served = Samples::from_durations(queries.iter().map(|q| q.2));
    let mut scratch = ScratchDijkstra::new();
    let direct = Samples::from_durations(queries.iter().map(|&(x, y, _)| {
        let t0 = Instant::now();
        std::hint::black_box(live.shortest_path(x, y, &mut scratch));
        t0.elapsed()
    }));
    m.insert(
        "serve.overhead_p50_us".into(),
        (served.median() - direct.median()) * 1e6,
    );
}

/// `recover` on the traced replay's directory, then its two parts:
/// rebuilding the newest checkpoint's image from its inputs and
/// replaying the WAL suffix. Those two and the replay's live state are
/// checked against Dijkstra on `final_graph`, the connection list the
/// replayed streams' end states imply. Returns (failures, checks).
fn recovery(
    traced: &mut Replay,
    t: &mut Tracer,
    dir: &Path,
    snap0: &EngineSnapshot,
    final_graph: &CsrGraph,
    seed: u64,
    m: &mut BTreeMap<String, f64>,
) -> (u64, u64) {
    let recovered = t
        .span("recover", 0, |_| recover(dir))
        .expect("the replay WAL recovers");
    let ckpt_lsn = recovered.checkpoint_lsn;
    let base = traced.ckpt_base.as_ref().unwrap_or(snap0);
    let mut rebuilt = t
        .span("recover.precompute", 0, |_| {
            EngineSnapshot::build(
                base.graph().clone(),
                base.fragmentation().clone(),
                base.is_symmetric(),
                base.config().clone(),
            )
        })
        .expect("the checkpoint inputs rebuild");
    let store = &mut traced
        .store
        .as_mut()
        .expect("cold-mixed replays are durable")
        .0;
    let mut scratch = ScratchDijkstra::new();
    let records = t.span("recover.replay", 0, |_| {
        let suffix = store.read_suffix(ckpt_lsn).expect("the WAL suffix reads");
        for rec in &suffix {
            let _ = rebuilt.maintain(&rec.update, &mut scratch);
        }
        rebuilt.ensure_reach();
        suffix.len()
    });
    m.insert("recover.records".into(), records as f64);
    let layers = t.layers();
    let dur = |name: &str| {
        layers
            .get(name)
            .and_then(|l| l.0.last().copied())
            .unwrap_or(0.0)
    };
    m.insert("recover.precompute_s".into(), dur("recover.precompute"));
    m.insert("recover.replay_s".into(), dur("recover.replay"));

    let live = &traced.snap;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2EC0);
    let mut failures = 0;
    for _ in 0..RECOVER_CHECK_PAIRS {
        let x = NodeId(rng.gen_index(final_graph.node_count()) as u32);
        let y = NodeId(rng.gen_index(final_graph.node_count()) as u32);
        let oracle = point_to_point(final_graph, x, y);
        let a = recovered.snapshot.shortest_path(x, y, &mut scratch).cost;
        let b = rebuilt.shortest_path(x, y, &mut scratch).cost;
        let c = live.shortest_path(x, y, &mut scratch).cost;
        failures += u64::from(a != oracle || b != oracle || c != oracle);
    }
    (failures, RECOVER_CHECK_PAIRS as u64)
}

/// Machine `query_batch` for `phase`, then one bulk materialization.
/// Returns (attempted, failed).
#[allow(clippy::too_many_arguments)]
fn machine_and_bulk(
    t: &mut Tracer,
    g: &discset::gen::GeneratedGraph,
    frag: &Fragmentation,
    cfg: &EngineConfig,
    plan: &Plan,
    apsp: &Apsp,
    phase: Duration,
    m: &mut BTreeMap<String, f64>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut machine = Machine::deploy_with_options(
        g.closure_graph(),
        frag.clone(),
        true,
        cfg.clone(),
        MachineOptions::default(),
    )
    .expect("the machine deploys");
    let expected: Vec<Option<u64>> = plan
        .batch
        .iter()
        .map(|q| apsp.cost(q.source, q.target))
        .collect();
    let before = machine.stats().clone();
    let mut calls = Vec::new();
    let start = Instant::now();
    while start.elapsed() < phase || calls.is_empty() {
        let t0 = Instant::now();
        let answer = t.span("machine.query_batch", 0, |_| {
            machine.query_batch(&plan.batch)
        });
        calls.push(t0.elapsed().as_secs_f64());
        let costs = answer.costs();
        attempted += costs.len() as u64;
        failed += costs.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64;
    }
    let after = machine.stats().clone();
    let queries = (after.queries - before.queries) as f64;
    let messages = (after.messages_sent + after.messages_received
        - before.messages_sent
        - before.messages_received) as f64;
    m.insert(
        "machine.query_us".into(),
        Samples::new(calls).median() * 1e6 / plan.batch.len() as f64,
    );
    m.insert(
        "machine.messages_per_query".into(),
        ratio(messages, queries),
    );
    m.insert(
        "machine.tuples_shipped_per_query".into(),
        ratio(
            (after.tuples_shipped - before.tuples_shipped) as f64,
            queries,
        ),
    );
    m.insert("machine.balance_ratio".into(), after.balance_ratio());
    drop(machine);

    let engine = MaterializeEngine::from_fragmentation(frag, true, MaterializeConfig::default());
    let result = t.span("materialize", 0, |_| engine.materialize());
    attempted += 1;
    match result {
        Ok((closure, stats)) => {
            failed += u64::from(!apsp.matches_closure(&closure));
            m.insert("bulk.rounds".into(), stats.rounds as f64);
            m.insert(
                "bulk.exchanged_tuples".into(),
                stats.exchanged_tuples as f64,
            );
            m.insert(
                "bulk.kept_local_frac".into(),
                ratio(
                    stats.kept_local as f64,
                    (stats.kept_local + stats.exchanged_tuples) as f64,
                ),
            );
            m.insert("bulk.balance_ratio".into(), stats.balance_ratio());
            m.insert(
                "bulk.busy_s".into(),
                stats.busy.iter().map(Duration::as_secs_f64).sum(),
            );
        }
        Err(_) => failed += 1,
    }
    (attempted, failed)
}
