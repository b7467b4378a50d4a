//! The untraced runs: the end-to-end metrics of each workload.
//!
//! Load model: a closed loop of `clients` threads with zero think time.
//! Each client replays its op stream through the blocking `Server`
//! calls, so it sends its next op only once the previous one answered.
//! A warm-up precedes the timed window; ops that start before the
//! window or finish after it are checked but not timed.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use discset::gen::GeneratedGraph;
use discset::graph::dijkstra::point_to_point;
use discset::graph::{NodeId, ScratchDijkstra};
use discset::{Backend, ServeConfig, Server, System, SystemBuilder, TcEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Apsp;
use crate::stats::{Report, Samples};
use crate::workload::{builder, closure_graph, network, Op, Plan, StreamEnd, Workload};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Pairs the three `cold-mixed` end states are compared on.
const FINAL_CHECK_PAIRS: usize = 256;
/// Share of a `batch-closure` run spent on `query_batch`; the rest
/// materializes.
pub const BATCH_SHARE: f64 = 0.3;

/// Run-wide settings.
pub struct Env {
    pub clients: usize,
    pub seconds: f64,
    /// Scratch directory inside the checkout (WAL directories).
    pub work: std::path::PathBuf,
}

impl Env {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((0.1 * self.seconds).min(1.0))
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::with_workers(self.clients)
    }
}

/// A finished run: its report and its correctness tally.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
}

/// What one op came back with.
pub enum Answer {
    Cost(Option<u64>),
    Connected(bool),
    Updated { full_recompute: bool },
    Failed,
}

/// Judges answers against the oracle: exactly on a fixed graph, and —
/// while `cold-mixed` deletes and re-inserts original edges — between
/// the initial distance and the one with every update edge deleted.
pub struct Checker {
    pub exact: Apsp,
    longest: Option<Apsp>,
}

impl Checker {
    pub fn new(g: &GeneratedGraph, plan: &Plan) -> Checker {
        Checker {
            exact: Apsp::new(&g.closure_graph()),
            longest: (plan.workload == Workload::ColdMixed)
                .then(|| Apsp::new(&closure_graph(g.nodes, &plan.all_removed_connections(g)))),
        }
    }

    pub fn check(&self, op: Op, answer: &Answer) -> bool {
        match (op, answer, &self.longest) {
            (Op::Query { x, y, .. }, Answer::Cost(c), None) => *c == self.exact.cost(x, y),
            (Op::Query { x, y, .. }, Answer::Cost(Some(c)), Some(longest)) => {
                self.exact.cost(x, y).is_some_and(|lo| lo <= *c)
                    && longest.cost(x, y).is_none_or(|hi| *c <= hi)
            }
            (Op::Query { x, y, .. }, Answer::Cost(None), Some(longest)) => {
                longest.cost(x, y).is_none()
            }
            (Op::Connected { x, y }, Answer::Connected(b), _) => {
                *b == self.exact.cost(x, y).is_some()
            }
            (Op::Update(_), Answer::Updated { .. }, _) => true,
            _ => false,
        }
    }
}

pub fn execute(server: &Server, op: Op) -> Answer {
    match op {
        Op::Query { x, y, .. } => server
            .query(x, y)
            .map_or(Answer::Failed, |a| Answer::Cost(a.answer.cost)),
        Op::Connected { x, y } => server
            .connected(x, y)
            .map_or(Answer::Failed, Answer::Connected),
        Op::Update(u) => server
            .update(&u)
            .map_or(Answer::Failed, |r| Answer::Updated {
                full_recompute: r.report.full_recompute,
            }),
    }
}

/// Per-client results of one closed loop.
#[derive(Default)]
pub struct ClientLog {
    /// Timed reads (`query` and `connected`).
    pub reads: Vec<Duration>,
    /// Timed `query` ops only.
    pub queries: Vec<(NodeId, NodeId, Duration)>,
    /// Timed `query` ops with uniform endpoints.
    pub uniform: Vec<Duration>,
    /// Timed updates.
    pub writes: Vec<Duration>,
    /// Every `connected` call, timed or not.
    pub connected: u64,
    pub attempted: u64,
    pub failed: u64,
    pub full_recomputes: u64,
    pub end: Option<StreamEnd>,
}

/// CPU time (user + system, every thread) this process has used.
/// `/proc` counts it in USER_HZ ticks, 100 per second on Linux.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are the 12th and 13th of them.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Drive `server` with one closed-loop client per stream for
/// `warmup + window`, judging every answer. Also returns the CPU time
/// the process used during the window.
pub fn closed_loop(
    server: &Server,
    plan: &Arc<Plan>,
    clients: usize,
    warmup: Duration,
    window: Duration,
    checker: &Checker,
) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut stream = plan.stream(c);
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let start = Instant::now();
                    let (measure, end) = (start + warmup, start + warmup + window);
                    loop {
                        let op = stream.next().expect("op streams are endless");
                        let t0 = Instant::now();
                        let answer = execute(server, op);
                        let t1 = Instant::now();
                        log.attempted += 1;
                        log.connected += u64::from(matches!(op, Op::Connected { .. }));
                        if !checker.check(op, &answer) {
                            log.failed += 1;
                        }
                        if let Answer::Updated {
                            full_recompute: true,
                        } = answer
                        {
                            log.full_recomputes += 1;
                        }
                        if t1 > end {
                            break;
                        }
                        if t0 < measure {
                            continue;
                        }
                        let took = t1 - t0;
                        match op {
                            Op::Query { x, y, uniform } => {
                                log.reads.push(took);
                                log.queries.push((x, y, took));
                                if uniform {
                                    log.uniform.push(took);
                                }
                            }
                            Op::Connected { .. } => log.reads.push(took),
                            Op::Update(_) => log.writes.push(took),
                        }
                    }
                    log.end = Some(stream.end());
                    log
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(warmup);
        let cpu0 = cpu_seconds();
        std::thread::sleep(window);
        let cpu = cpu_seconds() - cpu0;
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, cpu)
    })
}

/// Time [`SETUP_REPS`] builds; keep the last system.
fn timed_build(make: impl Fn() -> SystemBuilder) -> (Samples, System) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let b = make();
        let t0 = Instant::now();
        let sys = b.build().expect("the benchmark network builds");
        times.push(t0.elapsed());
        last = Some(sys);
    }
    (
        Samples::from_durations(times),
        last.expect("at least one set-up rep"),
    )
}

/// Start serving `sys`, printing how long the server took to come up.
fn timed_serve(r: &mut Report, sys: &System, env: &Env) -> Server {
    let t0 = Instant::now();
    let server = sys.serve_with(env.serve_config());
    r.value("serve_start_s", t0.elapsed().as_secs_f64(), "s", "");
    server
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timing list of every client, pooled.
fn pooled(logs: &[ClientLog], list: impl Fn(&ClientLog) -> &[Duration]) -> Samples {
    Samples::from_durations(logs.iter().flat_map(|l| list(l).iter().copied()))
}

/// The read/write latency lines shared by the serving workloads.
fn report_latencies(r: &mut Report, name: &str, s: &Samples) {
    r.percentile(&format!("{name}_p50_us"), s, 0.5, 1e6, "us");
    r.percentile(&format!("{name}_p99_us"), s, 0.99, 1e6, "us");
}

/// Run one workload untraced.
pub fn run(workload: Workload, seed: u64, env: &Env) -> Outcome {
    let g = network(seed);
    let mut r = Report::default();
    let window = env.window();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let tally = |logs: &[ClientLog]| {
        logs.iter()
            .fold((0, 0), |(a, f), l| (a + l.attempted, f + l.failed))
    };

    let (setup, cpu, ops) = match workload {
        Workload::HotRead => {
            let (setup, sys) = timed_build(|| builder(&g));
            let server = timed_serve(&mut r, &sys, env);
            let plan = Arc::new(Plan::new(
                workload,
                seed,
                &g,
                &sys.engine().snapshot(),
                env.clients,
            ));
            let checker = Checker::new(&g, &plan);
            let (logs, cpu) =
                closed_loop(&server, &plan, env.clients, env.warmup(), window, &checker);
            let stats = server.shutdown();
            let (a, f) = tally(&logs);
            attempted += a;
            failed += f;
            let reads = pooled(&logs, |l| &l.reads);
            let uniform = pooled(&logs, |l| &l.uniform);
            let ops_per_s = reads.len() as f64 / window.as_secs_f64();
            r.value(
                "read_ops_per_s",
                ops_per_s,
                "ops/s",
                &format!(" (n={})", reads.len()),
            );
            report_latencies(&mut r, "read", &reads);
            r.percentile("uniform_read_p50_us", &uniform, 0.5, 1e6, "us");
            r.value("cache_hit_frac", stats.cache_hit_fraction(), "ratio", "");
            (setup, cpu, reads.len())
        }
        Workload::ColdMixed => {
            let dir = env.work.join("cold-mixed");
            let _ = std::fs::remove_dir_all(&dir);
            let (setup, sys) = timed_build(|| builder(&g).durable(&dir));
            let server = timed_serve(&mut r, &sys, env);
            let plan = Arc::new(Plan::new(
                workload,
                seed,
                &g,
                &sys.engine().snapshot(),
                env.clients,
            ));
            let checker = Checker::new(&g, &plan);
            let (logs, cpu) =
                closed_loop(&server, &plan, env.clients, env.warmup(), window, &checker);
            let live = server.snapshot();
            let stats = server.shutdown();
            drop(sys);
            let (a, f) = tally(&logs);
            attempted += a;
            failed += f;
            let reads = pooled(&logs, |l| &l.reads);
            let writes = pooled(&logs, |l| &l.writes);
            let read_ops_per_s = reads.len() as f64 / window.as_secs_f64();
            r.value(
                "read_ops_per_s",
                read_ops_per_s,
                "ops/s",
                &format!(" (n={})", reads.len()),
            );
            report_latencies(&mut r, "read", &reads);
            let write_ops_per_s = writes.len() as f64 / window.as_secs_f64();
            r.value(
                "write_ops_per_s",
                write_ops_per_s,
                "ops/s",
                &format!(" (n={})", writes.len()),
            );
            report_latencies(&mut r, "write", &writes);
            let full: u64 = logs.iter().map(|l| l.full_recomputes).sum();
            r.value("write_full_recomputes", full as f64, "count", "");

            let t0 = Instant::now();
            let mut recovered = System::open(&dir).expect("the WAL directory recovers");
            r.value(
                "recover_s",
                t0.elapsed().as_secs_f64(),
                "s",
                &format!(" ({} WAL records)", stats.wal_records),
            );

            // Three-way agreement on the end state: recovered engine,
            // the live server's last snapshot, Dijkstra on the final graph.
            let ends: Vec<StreamEnd> = logs.iter().filter_map(|l| l.end).collect();
            let final_graph = closure_graph(g.nodes, &plan.final_connections(&g, &ends));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A1);
            let mut scratch = ScratchDijkstra::new();
            let mut mismatches = 0u64;
            for _ in 0..FINAL_CHECK_PAIRS {
                let x = NodeId(rng.gen_index(g.nodes) as u32);
                let y = NodeId(rng.gen_index(g.nodes) as u32);
                let oracle = point_to_point(&final_graph, x, y);
                let from_live = live.shortest_path(x, y, &mut scratch).cost;
                let from_recovered = recovered.shortest_path(x, y).cost;
                mismatches += u64::from(from_live != oracle || from_recovered != oracle);
            }
            attempted += FINAL_CHECK_PAIRS as u64;
            failed += mismatches;
            r.value(
                "final_state_mismatches",
                mismatches as f64,
                "count",
                &format!(" (of {FINAL_CHECK_PAIRS})"),
            );
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
            (setup, cpu, reads.len() + writes.len())
        }
        Workload::BatchClosure => {
            let (setup, mut sys) = timed_build(|| builder(&g).backend(Backend::SiteThreads));
            let plan = Plan::new(workload, seed, &g, &sys.engine().snapshot(), env.clients);
            let apsp = Checker::new(&g, &plan).exact;
            let expected: Vec<Option<u64>> = plan
                .batch
                .iter()
                .map(|q| apsp.cost(q.source, q.target))
                .collect();
            let mut check_batch = |costs: Vec<Option<u64>>| {
                attempted += costs.len() as u64;
                failed += costs.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64;
            };
            // Warm-up: one untimed batch.
            check_batch(sys.query_batch(&plan.batch).costs());
            let batch_window = window.mul_f64(BATCH_SHARE);
            let mut calls = Vec::new();
            let cpu0 = cpu_seconds();
            let phase = Instant::now();
            while phase.elapsed() < batch_window || calls.is_empty() {
                let t0 = Instant::now();
                let answer = sys.query_batch(&plan.batch);
                calls.push(t0.elapsed());
                check_batch(answer.costs());
            }
            let cpu = cpu_seconds() - cpu0;
            let pairs = calls.len() * plan.batch.len();
            let calls = Samples::from_durations(calls);
            let queries_per_s = pairs as f64 / calls.sum();
            r.value(
                "batch_queries_per_s",
                queries_per_s,
                "q/s",
                &format!(" (n={} batches of {})", calls.len(), plan.batch.len()),
            );
            r.percentile("batch_call_p50_us", &calls, 0.5, 1e6, "us");
            r.value("batch_cpu_us_per_pair", cpu * 1e6 / pairs as f64, "us", "");

            let (mut runs, mut tuples, mut materialize_cpu) = (Vec::new(), 0, 0.0);
            let phase = Instant::now();
            while phase.elapsed() < window - batch_window || runs.is_empty() {
                let (cpu0, t0) = (cpu_seconds(), Instant::now());
                let result = sys.materialize();
                runs.push(t0.elapsed());
                materialize_cpu += cpu_seconds() - cpu0;
                attempted += 1;
                match result {
                    Ok((closure, _)) if apsp.matches_closure(&closure) => tuples += closure.len(),
                    _ => failed += 1,
                }
            }
            let runs = Samples::from_durations(runs);
            r.value(
                "materialize_s",
                runs.median(),
                "s",
                &format!(" (n={})", runs.len()),
            );
            r.value(
                "materialize_cpu_s",
                materialize_cpu / runs.len() as f64,
                "s",
                " (mean per call)",
            );
            // The machine phase's CPU per pair swings with how the host
            // schedules its 17 message-passing threads; the bulk phase's
            // CPU per tuple holds steady, so that is the gated op.
            (setup, materialize_cpu, tuples)
        }
    };
    r.value(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        &format!(" ({failed} of {attempted})"),
    );
    r.value("peak_rss_mb", peak_rss_mb(), "MiB", "");
    r.note(format!("setup_s: median of n={} builds", setup.len()));
    r.metric("setup_s", setup.median(), "s");
    r.note(format!("cpu_us_per_op: {cpu:.2} CPU s over n={ops} ops"));
    r.metric("cpu_us_per_op", cpu * 1e6 / ops.max(1) as f64, "us");
    Outcome {
        report: r,
        attempted,
        failed,
    }
}
