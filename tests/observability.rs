//! Property suite for the `ds_obs` integration: span-set completeness
//! under faults, and the disarmed-observability oracle.
//!
//! For every backend × fault seed, a serve pool with an armed
//! [`Observability`] bundle runs a deterministic operation mix while
//! the seed's [`FaultScenario`] fires. The properties under test:
//!
//! - **Span completeness**: every successfully answered request leaves
//!   exactly one finished trace carrying a `QueueWait` span plus
//!   exactly one resolution span (`CacheHit`, `Coalesced`, or
//!   `Evaluation`); every applied update leaves an `Applied` trace with
//!   `WriterApply` + `Publication` spans; every request the fault plan
//!   doomed leaves a `Failed`/`Shed` trace. Nothing is silently
//!   untraced, even while workers and the writer are being killed.
//! - **Observer effect is nil**: a disarmed server fed the identical
//!   operation sequence under an identical fault plan returns
//!   answer-for-answer identical results — arming observability must
//!   never change what the system computes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use discset::closure::ClosureError;
use discset::fragment::linear::LinearConfig;
use discset::fragment::Fragmentation;
use discset::gen::deterministic::grid;
use discset::graph::{Edge, NodeId};
use discset::obs::{Stage, TraceOutcome};
use discset::serve::{
    DurabilityConfig, FaultPlan, FaultPoint, FaultScenario, FaultUniverse, ServeConfig, ServeError,
    Server,
};
use discset::{
    Backend, Fragmenter, NetworkUpdate, Observability, QueryRequest, System, SystemBuilder,
    TcEngine,
};

/// SplitMix64 — the traffic is as reproducible as the fault plan.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn n(i: u64, nodes: u64) -> NodeId {
    NodeId((i % nodes) as u32)
}

/// What one operation against the server produced, reduced to the bits
/// an oracle can compare: the answer cost, or the typed error name.
#[derive(Debug, PartialEq, Eq)]
enum OpResult {
    Answer(Option<u64>),
    Applied(u64),
    QueryErr(&'static str),
    UpdateErr(&'static str),
}

/// Drive the deterministic 60-op mix (an update every 10th op) and
/// record each outcome. Single worker + sequential traffic keep the
/// fault plan's nth-occurrence counters aligned across runs.
fn run_ops(server: &Server, seed: u64, nodes: u64) -> Vec<OpResult> {
    let f0 = server.snapshot().fragmentation().fragment(0).clone();
    let (a, b) = (f0.nodes()[0], *f0.nodes().last().expect("non-empty"));
    let mut rng = seed ^ 0xB0B5;
    let mut toggle_in = true;
    let mut out = Vec::with_capacity(60);
    for op in 0..60u32 {
        if op % 10 == 9 {
            let update = if toggle_in {
                NetworkUpdate::Insert {
                    edge: Edge::new(a, b, 1),
                    owner: 0,
                }
            } else {
                NetworkUpdate::Remove {
                    src: a,
                    dst: b,
                    owner: 0,
                }
            };
            out.push(match server.update(&update) {
                Ok(served) => {
                    toggle_in = !toggle_in;
                    OpResult::Applied(served.epoch)
                }
                Err(ClosureError::WriterRestarted) => OpResult::UpdateErr("restarted"),
                Err(ClosureError::WriterDown) => OpResult::UpdateErr("down"),
                Err(e) => panic!("seed {seed}: unexpected update error {e}"),
            });
            continue;
        }
        let (x, y) = (n(splitmix(&mut rng), nodes), n(splitmix(&mut rng), nodes));
        out.push(match server.query(x, y) {
            Ok(served) => OpResult::Answer(served.answer.cost),
            Err(ServeError::Request(ClosureError::WorkerFailed)) => OpResult::QueryErr("worker"),
            Err(e) => panic!("seed {seed}: unexpected query error {e}"),
        });
    }
    out
}

fn builder(backend: Backend) -> SystemBuilder {
    System::builder()
        .graph(&grid(9, 4))
        .fragmenter(Fragmenter::Linear(LinearConfig {
            fragments: 3,
            ..Default::default()
        }))
        .backend(backend)
}

fn system(backend: Backend) -> System {
    builder(backend).build().expect("valid grid system")
}

/// Stages that resolve a read request; every answered trace must carry
/// exactly one.
fn is_resolution(stage: &Stage) -> bool {
    matches!(
        stage,
        Stage::CacheHit | Stage::Coalesced | Stage::Evaluation | Stage::ReachIndex
    )
}

#[test]
fn span_sets_are_complete_across_backends_and_fault_seeds() {
    let universe = FaultUniverse {
        workers: 1,
        sites: 0,
        fragments: 0,
    };
    let nodes = grid(9, 4).nodes as u64;
    for backend in [Backend::Inline, Backend::SiteThreads] {
        for seed in 0..6u64 {
            let scenario = FaultScenario::from_seed(seed, &universe);
            let obs = Observability::armed();
            let sys = system(backend);
            let mut cfg = ServeConfig::with_workers(1);
            cfg.fault = Some(Arc::new(scenario.plan(&universe)));
            cfg.obs = Some(Arc::clone(&obs));
            let server = sys.serve_with(cfg);
            let results = run_ops(&server, seed, nodes);
            server.shutdown();

            let mut expect: BTreeMap<&str, usize> = BTreeMap::new();
            for r in &results {
                *expect
                    .entry(match r {
                        OpResult::Answer(_) => "answered",
                        OpResult::Applied(_) => "applied",
                        OpResult::QueryErr(_) => "failed",
                        OpResult::UpdateErr(_) => "failed",
                    })
                    .or_default() += 1;
            }

            let traces = obs.tracer().recent(usize::MAX);
            let mut got: BTreeMap<&str, usize> = BTreeMap::new();
            for t in &traces {
                match t.outcome {
                    TraceOutcome::Answered | TraceOutcome::Unreachable => {
                        *got.entry("answered").or_default() += 1;
                        assert!(
                            t.span(Stage::QueueWait).is_some()
                                || t.span(Stage::ReachIndex).is_some(),
                            "{backend:?} seed {seed}: answered trace without admission: {t}"
                        );
                        let resolutions =
                            t.spans.iter().filter(|s| is_resolution(&s.stage)).count();
                        assert_eq!(
                            resolutions, 1,
                            "{backend:?} seed {seed}: {resolutions} resolution spans: {t}"
                        );
                        for s in &t.spans {
                            assert!(
                                s.dur_ns <= t.total_ns.saturating_add(1_000_000),
                                "{backend:?} seed {seed}: span outlives its request: {t}"
                            );
                        }
                    }
                    TraceOutcome::Applied => {
                        *got.entry("applied").or_default() += 1;
                        assert!(
                            t.span(Stage::WriterApply).is_some()
                                && t.span(Stage::Publication).is_some(),
                            "{backend:?} seed {seed}: applied trace missing writer spans: {t}"
                        );
                    }
                    TraceOutcome::Failed | TraceOutcome::Shed => {
                        *got.entry("failed").or_default() += 1;
                    }
                }
            }
            assert_eq!(
                got, expect,
                "{backend:?} seed {seed}: trace outcomes diverge from observed op results"
            );
        }
    }
}

/// Arming observability must not change a single answer: the disarmed
/// twin (same backend, same seed, its own copy of the same fault plan)
/// is the oracle.
#[test]
fn disarmed_server_is_an_exact_oracle_for_the_armed_one() {
    let universe = FaultUniverse {
        workers: 1,
        sites: 0,
        fragments: 0,
    };
    let nodes = grid(9, 4).nodes as u64;
    for backend in [Backend::Inline, Backend::SiteThreads] {
        for seed in 0..6u64 {
            let scenario = FaultScenario::from_seed(seed, &universe);
            let mut runs = Vec::new();
            for armed in [true, false] {
                let sys = system(backend);
                let mut cfg = ServeConfig::with_workers(1);
                cfg.fault = Some(Arc::new(scenario.plan(&universe)));
                if armed {
                    cfg.obs = Some(Observability::armed());
                }
                let server = sys.serve_with(cfg);
                runs.push(run_ops(&server, seed, nodes));
                server.shutdown();
            }
            assert_eq!(
                runs[0], runs[1],
                "{backend:?} seed {seed}: arming observability changed the answers"
            );
        }
    }
}

/// The machine backend traces direct engine queries through the same
/// bundle the facade hands to the serve tier: one `Answered` trace per
/// query, with `Evaluation` + per-site spans, regardless of which tier
/// the request entered through.
#[test]
fn machine_backend_traces_direct_queries_through_the_facade() {
    let obs = Observability::armed();
    let mut sys = builder(Backend::SiteThreads)
        .observability(Arc::clone(&obs))
        .build()
        .expect("valid grid system");
    for (x, y) in [(0u32, 35u32), (7, 22), (35, 0)] {
        sys.shortest_path(NodeId(x), NodeId(y));
    }
    let traces = obs.tracer().recent(8);
    assert_eq!(traces.len(), 3);
    for t in &traces {
        assert_eq!(t.outcome, TraceOutcome::Answered, "{t}");
        assert!(t.span(Stage::Evaluation).is_some(), "{t}");
        assert!(
            t.spans
                .iter()
                .any(|s| matches!(s.stage, Stage::SitePhaseOne { .. })),
            "{t}"
        );
    }
    assert_eq!(sys.observe().counter("machine_queries"), Some(3));
}

/// Every monotonic serve and machine total is exported with Prometheus
/// type `counter`, so `rate()` over it means something; the only gauges
/// are point-in-time values (serve epoch and queue depth, and the last
/// materialize run).
#[test]
fn every_monotonic_metric_is_exported_as_a_counter() {
    let obs = Observability::armed();
    let mut sys = builder(Backend::SiteThreads)
        .observability(Arc::clone(&obs))
        .build()
        .expect("valid grid system");
    let [insert, remove] = toggle_updates(sys.fragmentation());
    sys.query_batch(&[QueryRequest::new(NodeId(0), NodeId(35))]);
    sys.update(&insert).expect("machine update applies");
    let server = sys.serve(2);
    server.query(NodeId(0), NodeId(35)).expect("served");
    assert!(server.connected(NodeId(0), NodeId(35)).expect("served"));
    server.update(&remove).expect("serve update applies");
    server.shutdown();
    sys.materialize().expect("materializes");

    let text = obs.snapshot().to_prometheus();
    let mut counters = Vec::new();
    for line in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let (name, kind) = line.split_once(' ').expect("name and type");
        let point_in_time =
            matches!(name, "serve_epoch" | "serve_queue_depth") || name.starts_with("materialize_");
        let total = name.starts_with("serve_") || name.starts_with("machine_");
        match kind {
            "gauge" => assert!(point_in_time, "{name} is exported as a gauge"),
            "counter" => counters.push(name),
            _ => assert!(!total, "{name} is exported as {kind}"),
        }
    }
    for family in [
        "machine_queries",
        "machine_tuples_shipped",
        "serve_requests",
    ] {
        assert!(counters.contains(&family), "{family} missing:\n{text}");
    }
}

/// Insert-then-remove of one fragment-0 connection.
fn toggle_updates(frag: &Fragmentation) -> [NetworkUpdate; 2] {
    let f0 = frag.fragment(0);
    let (src, dst) = (f0.nodes()[0], *f0.nodes().last().expect("non-empty"));
    [
        NetworkUpdate::Insert {
            edge: Edge::new(src, dst, 1),
            owner: 0,
        },
        NetworkUpdate::Remove { src, dst, owner: 0 },
    ]
}

/// `ServeStats` is a view over the registry, so the two agree exactly
/// under every failure path: a worker panic, a writer panic mid-append
/// on a durable server, a mid-evaluation cancellation, queue-time
/// deadline sheds, and fast-path plus queued reads. The latency summary
/// counts exactly the `request_latency_ns` samples.
#[test]
fn serve_stats_equal_the_registry_under_faults() {
    let sys = system(Backend::Inline);
    let dir = std::env::temp_dir().join(format!("ds-obs-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let deadline = Duration::from_millis(50);
    let worker = FaultPoint::ServeWorker { worker: 0 };
    let plan = FaultPlan::new()
        .panic_at(worker, 3)
        .delay_at(worker, 4, deadline * 5)
        .panic_at(FaultPoint::WalAppend, 2);
    let obs = Observability::armed();
    let mut cfg = ServeConfig::with_workers(1);
    cfg.deadline = Some(deadline);
    cfg.durability = Some(DurabilityConfig::at(&dir));
    cfg.fault = Some(Arc::new(plan));
    cfg.obs = Some(Arc::clone(&obs));
    let server = sys.serve_with(cfg);
    let q = |x: u32, y: u32| vec![QueryRequest::new(NodeId(x), NodeId(y))];

    // Worker-hook occurrences 1-3: a query, its cache hit, a panic.
    let answered: Vec<bool> = [(0, 35), (0, 35), (1, 30)]
        .iter()
        .map(|&(x, y)| server.query(NodeId(x), NodeId(y)).is_ok())
        .collect();
    assert_eq!(answered, [true, true, false]);
    // Occurrence 4 stalls the worker past the deadline (cancelled
    // mid-evaluation); the two jobs queued behind it are shed.
    let stalled = server.submit(&q(2, 31)).expect("admitted");
    while server.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    let queued = [server.submit(&q(3, 32)), server.submit(&q(4, 33))];
    assert!(stalled.wait().is_err());
    assert!(queued
        .into_iter()
        .all(|p| p.expect("admitted").wait().is_err()));
    for x in 0..3 {
        assert!(server.connected(NodeId(x), NodeId(35)).expect("fast path"));
    }
    // The second append panics the writer; the respawn takes the third.
    let [insert, remove] = toggle_updates(server.snapshot().fragmentation());
    let applied: Vec<bool> = [insert, remove, remove]
        .iter()
        .map(|u| server.update(u).is_ok())
        .collect();
    assert_eq!(applied, [true, false, true]);
    let stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!((stats.worker_restarts, stats.writer_restarts), (1, 1));
    assert_eq!((stats.deadline_cancelled, stats.deadline_shed), (1, 2));
    assert_eq!(stats.reach_fast_path, 3);
    let m = obs.snapshot();
    macro_rules! totals {
        ($($field:ident),*) => { [$((stringify!($field), stats.$field)),*] };
    }
    let totals = totals! {
        requests, jobs, batches, evaluated, coalesced, cache_hits, cache_misses,
        reach_fast_path, queue_rejections, deadline_shed, deadline_cancelled, worker_restarts,
        writer_restarts, updates, publications, wal_records, wal_commits, wal_failures, checkpoints
    };
    for (name, value) in totals {
        assert_eq!(m.counter(&format!("serve_{name}")), Some(value), "{name}");
    }
    assert_eq!(m.gauge("serve_epoch"), Some(stats.epoch));
    let latency = m.histogram("request_latency_ns").expect("registered");
    assert_eq!(latency.count(), stats.latency.count);
}
