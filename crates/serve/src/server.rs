//! The serving core: epoch-published snapshots, a worker pool with
//! per-worker scratch, a micro-batching dispatcher, and one writer
//! thread driving incremental update maintenance.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_closure::api::{BatchStats, NetworkUpdate, QueryRequest};
use ds_closure::complementary::PrecomputeStrategy;
use ds_closure::snapshot::EngineSnapshot;
use ds_closure::updates::UpdateReport;
use ds_closure::{ClosureError, QueryAnswer};
use ds_durability::{DurabilityConfig, DurabilityError, DurableStore};
use ds_fault::{lock_unpoisoned, FaultPlan, FaultPoint};
use ds_fragment::FragmentId;
use ds_graph::{NodeId, ScratchDijkstra, ScratchStats};
use ds_obs::{
    EvalTrace, Gauge, HistogramHandle, LatencyHistogram, MetricsRegistry, Observability,
    RequestTrace, ScopedCounter, SpanRecord, Stage, TraceId, TraceOutcome,
};

use crate::cache::AnswerCache;
use crate::queue::{BoundedQueue, PushError};

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Reader worker threads (each owns its scratch kernel).
    pub workers: usize,
    /// Bounded submission queue depth, in jobs. When the pool falls this
    /// far behind, further submissions are **shed**: [`Server::submit`] /
    /// [`Server::try_query_batch`] return [`Overloaded`] with a
    /// retry-after hint instead of blocking the producer.
    pub queue_capacity: usize,
    /// Most jobs one worker folds into a single micro-batch.
    pub batch_max: usize,
    /// Most pending updates the writer folds into one publication.
    pub write_batch_max: usize,
    /// Per-epoch answer cache: identical queries repeated within one
    /// snapshot epoch are served from a lock-light shared map instead of
    /// re-evaluated; the cache is dropped wholesale whenever the writer
    /// publishes a new epoch. Hit/miss counters land in [`ServeStats`].
    pub answer_cache: bool,
    /// Most answers the cache holds per epoch (bounds memory on
    /// read-only deployments, whose epoch never advances and would
    /// otherwise accumulate every distinct pair ever queried; once full,
    /// further inserts are dropped until the next epoch).
    pub answer_cache_entries: usize,
    /// The retry-after hint handed to shed producers (and the back-off
    /// the blocking convenience wrappers sleep between admission
    /// attempts).
    pub retry_after: Duration,
    /// Request deadline, stamped at admission. A job still queued past
    /// its deadline is **shed by the worker that drains it** with
    /// [`ClosureError::DeadlineExceeded`] instead of being evaluated
    /// (counted in [`ServeStats::deadline_shed`]). `None` (the default)
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// How many times the blocking [`Server::query_batch`] wrapper
    /// retries an [`Overloaded`] admission (with exponential back-off
    /// starting at [`ServeConfig::retry_after`]) before giving up and
    /// returning [`ServeError::Overloaded`]. 0 = no retry.
    pub max_admission_retries: u32,
    /// Durable storage (`ds_durability`): when set, the writer appends
    /// every folded update batch to the write-ahead log **before**
    /// applying it (one buffered write + one fsync per group commit) and
    /// checkpoints on the configured thresholds, so
    /// [`ds_durability::recover`] can rebuild the served state after a
    /// process death. `None` (the default) keeps the tier memory-only.
    pub durability: Option<DurabilityConfig>,
    /// Armed fault-injection plan (tests only; `None` in production).
    /// The hooks are a single `Option` branch when disarmed — the serve
    /// bench's fault-overhead row measures exactly this.
    pub fault: Option<Arc<FaultPlan>>,
    /// Observability bundle (`ds_obs`). The server counts in its registry
    /// when armed (in a private one otherwise; [`ServeStats`] reads them
    /// back), and arming adds tracing: a [`TraceId`] per admission,
    /// per-request span sets (queue wait, evaluation, per-chain segment
    /// time, cache/coalesce/reach-index markers) in the trace ring and
    /// slow-query log, and workload-recorder samples. `None` (the
    /// default) reduces every tracing hook to one `Option` branch — the
    /// serve bench's `obs-disarmed` row gates exactly this.
    pub obs: Option<Arc<Observability>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 1024,
            batch_max: 64,
            write_batch_max: 16,
            answer_cache: true,
            answer_cache_entries: 65_536,
            retry_after: Duration::from_micros(200),
            deadline: None,
            max_admission_retries: 16,
            durability: None,
            fault: None,
            obs: None,
        }
    }
}

impl ServeConfig {
    /// Default configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers: workers.max(1),
            ..ServeConfig::default()
        }
    }
}

/// One answered request, stamped with the epoch it was served at.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    pub answer: QueryAnswer,
    /// The published snapshot version the answer is consistent with.
    pub epoch: u64,
}

/// One answered job: answers in request order, all evaluated against the
/// same snapshot epoch (that is the consistency unit).
#[derive(Clone, Debug)]
pub struct ServedBatch {
    pub answers: Vec<QueryAnswer>,
    pub epoch: u64,
}

/// One applied update: the maintenance report plus the epoch at which
/// its effect became visible to readers.
#[derive(Clone, Debug)]
pub struct ServedUpdate {
    pub report: UpdateReport,
    pub epoch: u64,
}

/// The load-shedding rejection: the submission queue is at capacity.
/// Retry no sooner than `retry_after` (the hint is
/// [`ServeConfig::retry_after`]); the blocking wrappers do exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    pub retry_after: Duration,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve queue at capacity; retry after {:?}",
            self.retry_after
        )
    }
}

impl std::error::Error for Overloaded {}

/// Why a blocking query wrapper failed. Admission exhaustion and
/// request-level failures (worker panic, deadline shed) are distinct:
/// the former never entered the queue, the latter consumed a slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Every admission attempt was shed; `attempts` counts them.
    Overloaded {
        retry_after: Duration,
        attempts: u32,
    },
    /// The job was admitted but resolved to a typed failure instead of
    /// an answer (worker panic, deadline shed, ...).
    Request(ClosureError),
}

impl ServeError {
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                retry_after,
                attempts,
            } => write!(
                f,
                "serve queue still at capacity after {attempts} attempts; retry after {retry_after:?}"
            ),
            ServeError::Request(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Bounded decorrelated-jitter back-off for the blocking wrappers'
/// admission retries: each sleep is drawn uniformly from
/// `[base, prev * 3]` and capped, so concurrent shed clients spread
/// out instead of re-colliding in lockstep the way deterministic
/// doubling makes them (every client that was shed together retries
/// together, forever). Deterministic given its seed — a SplitMix64
/// stream — so tests can assert exact sequences.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        let base = base.max(Duration::from_nanos(1));
        Backoff {
            base,
            cap: cap.max(base),
            prev: base,
            state: seed,
        }
    }

    /// The next sleep: uniform in `[base, 3 * previous]`, clamped to
    /// `[base, cap]`.
    pub fn next_delay(&mut self) -> Duration {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let lo = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo);
        let pick = lo + if hi > lo { z % (hi - lo + 1) } else { 0 };
        let next = Duration::from_nanos(pick).clamp(self.base, self.cap);
        self.prev = next;
        next
    }
}

/// Per-process seed stream for [`Backoff`]: every blocking call gets
/// its own jitter sequence, decorrelating concurrent retriers.
fn next_backoff_seed() -> u64 {
    static SEED: AtomicU64 = AtomicU64::new(0x005E_ED0F_B0FF);
    SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

/// An admitted (but not yet answered) job: the handle
/// [`Server::submit`] returns. [`PendingBatch::wait`] blocks until the
/// worker pool replies.
#[derive(Debug)]
pub struct PendingBatch {
    rx: mpsc::Receiver<Result<ServedBatch, ClosureError>>,
}

impl PendingBatch {
    /// Block until the pool resolves this job — with the answers, or
    /// with the typed error the supervisor attached (worker panic,
    /// deadline shed). Never hangs: if the worker holding the job died
    /// without replying, the dropped channel reports
    /// [`ClosureError::WorkerFailed`].
    pub fn wait(self) -> Result<ServedBatch, ClosureError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(mpsc::RecvError) => Err(ClosureError::WorkerFailed),
        }
    }
}

/// Latency percentiles over every request served so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// A point-in-time report of the serving subsystem: a view of the
/// server's `serve_*` counters and `request_latency_ns` samples since
/// its start, plus per-worker and queue state that is not exported.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Reader workers in the pool.
    pub workers: usize,
    /// Current published epoch (updates applied since start).
    pub epoch: u64,
    /// Updates applied by the writer thread.
    pub updates: u64,
    /// Snapshot publications (≤ `updates`: the writer folds pending
    /// updates into one copy-on-write publication).
    pub publications: u64,
    /// Jobs answered.
    pub jobs: u64,
    /// Requests answered (a job carries ≥ 1 request).
    pub requests: u64,
    /// Micro-batches evaluated.
    pub batches: u64,
    /// Distinct requests actually evaluated.
    pub evaluated: u64,
    /// Requests answered by coalescing onto an identical batch-mate
    /// (single-flight within a micro-batch).
    pub coalesced: u64,
    /// Distinct requests answered from the per-epoch answer cache
    /// (`requests == evaluated + coalesced + cache_hits`).
    pub cache_hits: u64,
    /// Distinct requests probed against the cache without a usable entry
    /// (they were then evaluated). 0 when the cache is disabled.
    pub cache_misses: u64,
    /// `connected` calls answered by the published snapshot's SCC/chain
    /// reachability index — no queue, no worker, no Dijkstra sweep.
    pub reach_fast_path: u64,
    /// Whether the published snapshot currently carries a fresh
    /// reachability index (false = disabled, or the writer has not yet
    /// republished after an invalidating update).
    pub reach_index_fresh: bool,
    /// Aggregated plan/segment amortization across every micro-batch.
    pub batch: BatchStats,
    /// Jobs waiting in the submission queue right now.
    pub queue_depth: usize,
    /// The deepest the submission queue has ever been.
    pub queue_high_water: usize,
    /// The configured queue capacity (the shedding threshold).
    pub queue_capacity: usize,
    /// Submissions shed because the queue was at capacity (each rejected
    /// admission attempt counts once; a blocking wrapper that backs off
    /// and retries can count several times for one job).
    pub queue_rejections: u64,
    /// Wall time since the server started.
    pub elapsed: Duration,
    /// Per-worker evaluation time (index = worker id).
    pub busy: Vec<Duration>,
    /// Writer-thread time spent on maintenance + publication. Since
    /// structural sharing, publication itself is O(sites) refcount bumps;
    /// the dominant cost is the incremental maintenance, which detaches
    /// only the touched sites' tables from the published epoch.
    pub writer_busy: Duration,
    /// Merged per-worker scratch-kernel reuse counters.
    pub scratch: ScratchStats,
    /// Request latency (submit → reply) percentiles of the requests the
    /// workers answered; `connected` fast-path calls are not timed.
    pub latency: LatencySummary,
    /// Which backend's build path produced the tables being served.
    pub backend: &'static str,
    /// Which precompute strategy built (or last rebuilt) those tables.
    pub strategy: PrecomputeStrategy,
    /// Times a worker was respawned by its supervisor after a panic.
    /// Every request of the doomed micro-batch resolved to
    /// [`ClosureError::WorkerFailed`] first — nothing hangs.
    pub worker_restarts: u64,
    /// Times the writer thread was respawned by its supervisor after a
    /// panic: the working copy is rebuilt from the last published
    /// snapshot and the write channel stays armed, so updates keep
    /// flowing. The in-flight updates of the doomed batch resolved to
    /// [`ClosureError::WriterRestarted`] (not applied — retry) first.
    pub writer_restarts: u64,
    /// Jobs shed at the worker because they sat queued past
    /// [`ServeConfig::deadline`] (each resolved to
    /// [`ClosureError::DeadlineExceeded`]).
    pub deadline_shed: u64,
    /// Requests abandoned *mid-evaluation* because the chain loop
    /// noticed the admission-stamped deadline had passed (each resolved
    /// to [`ClosureError::DeadlineExceeded`]). Distinct from
    /// [`ServeStats::deadline_shed`], which counts queue-time sheds that
    /// never started evaluating.
    pub deadline_cancelled: u64,
    /// Update records durably appended to the write-ahead log (0 when
    /// durability is off).
    pub wal_records: u64,
    /// WAL group commits: one buffered write + one fsync each,
    /// amortized across the writer's folded update batch
    /// (`wal_records / wal_commits` = achieved group-commit factor).
    pub wal_commits: u64,
    /// WAL appends or checkpoint writes that failed (I/O error, torn
    /// write, injected disk fault). Each failed append refused its whole
    /// batch with [`ClosureError::DurabilityFailed`] without applying
    /// anything; each failed checkpoint left the previous checkpoint +
    /// full log authoritative.
    pub wal_failures: u64,
    /// Checkpoints durably written (each prunes the log behind it).
    pub checkpoints: u64,
    /// `true` once the writer thread died: the server is read-only.
    /// Reads keep serving the last published epoch; updates are refused
    /// with [`ClosureError::WriterDown`].
    pub degraded: bool,
}

impl ServeStats {
    /// Aggregate request throughput since start.
    pub fn throughput_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }

    /// Worker imbalance: max busy over mean busy (1.0 = balanced);
    /// the same measure the machine backend reports per site.
    pub fn balance_ratio(&self) -> f64 {
        ds_machine::stats::balance_ratio(&self.busy)
    }

    /// Fraction of requests answered without their own evaluation.
    pub fn coalesced_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.coalesced as f64 / self.requests as f64
        }
    }

    /// Fraction of cache probes that hit (0.0 when the cache is off or
    /// never probed).
    pub fn cache_hit_fraction(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

impl std::fmt::Display for ServeStats {
    /// One-line summary, like `MaterializeStats` and `MachineStats`:
    /// `epoch 2 (4 workers, inline): 150 requests (120 evaluated, 20
    /// coalesced, 10 cached), 2 updates, p50 8.1us p99 40.2us, balance
    /// 1.10`, with degrade/restart/shed markers appended only when
    /// non-zero.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} ({} workers, {}): {} requests ({} evaluated, {} coalesced, \
             {} cached), {} updates, p50 {:.1}us p99 {:.1}us, balance {:.2}",
            self.epoch,
            self.workers,
            self.backend,
            self.requests,
            self.evaluated,
            self.coalesced,
            self.cache_hits,
            self.updates,
            self.latency.p50_us,
            self.latency.p99_us,
            self.balance_ratio(),
        )?;
        if self.queue_rejections > 0 {
            write!(f, ", {} shed", self.queue_rejections)?;
        }
        if self.deadline_shed > 0 {
            write!(f, ", {} past deadline", self.deadline_shed)?;
        }
        if self.deadline_cancelled > 0 {
            write!(f, ", {} cancelled mid-eval", self.deadline_cancelled)?;
        }
        if self.wal_commits > 0 {
            write!(
                f,
                ", wal {} records/{} commits/{} checkpoints",
                self.wal_records, self.wal_commits, self.checkpoints
            )?;
        }
        if self.wal_failures > 0 {
            write!(f, ", {} wal failures", self.wal_failures)?;
        }
        if self.worker_restarts > 0 {
            write!(f, ", {} worker restarts", self.worker_restarts)?;
        }
        if self.writer_restarts > 0 {
            write!(f, ", {} writer restarts", self.writer_restarts)?;
        }
        if self.degraded {
            write!(f, ", DEGRADED (read-only)")?;
        }
        Ok(())
    }
}

struct QueryJob {
    requests: Vec<QueryRequest>,
    /// One trace id per request, minted at admission; empty when
    /// observability is disarmed.
    traces: Vec<TraceId>,
    reply: mpsc::Sender<Result<ServedBatch, ClosureError>>,
    submitted: Instant,
}

struct WriteJob {
    update: NetworkUpdate,
    reply: mpsc::Sender<Result<ServedUpdate, ClosureError>>,
}

/// The publication slot: an epoch-stamped `Arc<EngineSnapshot>` behind a
/// mutex, plus an atomic epoch mirror so readers can detect staleness
/// with one relaxed load. The mutex is touched only when the epoch
/// actually changed (publication is writer-rate, not query-rate), so the
/// steady-state query path never blocks on it.
struct Published {
    epoch: AtomicU64,
    slot: Mutex<(u64, Arc<EngineSnapshot>)>,
}

impl Published {
    fn new(epoch: u64, snapshot: Arc<EngineSnapshot>) -> Self {
        Published {
            epoch: AtomicU64::new(epoch),
            slot: Mutex::new((epoch, snapshot)),
        }
    }

    /// Ensure a worker's cached `(epoch, snapshot)` is present and
    /// current; the cached pair keeps in-flight evaluation pinned to one
    /// version. Costs one atomic load when already fresh; workers clear
    /// the cache before blocking idle (see `worker_loop`), so only
    /// workers with work in hand keep an epoch alive.
    fn pin<'a>(
        &self,
        cached: &'a mut Option<(u64, Arc<EngineSnapshot>)>,
    ) -> &'a (u64, Arc<EngineSnapshot>) {
        let current = self.epoch.load(Ordering::Acquire);
        let fresh = matches!(cached, Some((epoch, _)) if *epoch == current);
        if !fresh {
            let slot = lock_unpoisoned(&self.slot);
            *cached = Some((slot.0, Arc::clone(&slot.1)));
        }
        match cached {
            Some(pair) => pair,
            None => unreachable!("pin fills the slot above"),
        }
    }

    fn current(&self) -> (u64, Arc<EngineSnapshot>) {
        let slot = lock_unpoisoned(&self.slot);
        (slot.0, Arc::clone(&slot.1))
    }

    fn publish(&self, epoch: u64, snapshot: Arc<EngineSnapshot>) {
        let mut slot = lock_unpoisoned(&self.slot);
        *slot = (epoch, snapshot);
        drop(slot);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// Per-worker accounting that is not exported to the registry.
#[derive(Default)]
struct WorkerLog {
    busy: Duration,
    batch: BatchStats,
    scratch: ScratchStats,
}

/// Declares [`Counters`] from the list of [`ServeStats`] totals, so
/// every total maps to exactly one `serve_<field>` registry counter.
macro_rules! serve_counters {
    ($($field:ident),* $(,)?) => {
        /// The server's counter store: one `serve_*` registry counter per
        /// [`ServeStats`] total, the exported gauges and the request
        /// latency histogram — minted once at start from the armed
        /// bundle's registry (or a private one) and bumped at the event.
        struct Counters {
            $($field: ScopedCounter,)*
            epoch: Gauge,
            queue_depth: Gauge,
            /// `request_latency_ns` (also fed by an armed bundle's
            /// `record_request`), and its state at start.
            latency: HistogramHandle,
            latency_base: LatencyHistogram,
        }

        impl Counters {
            fn new(obs: Option<&Observability>) -> Self {
                let private = MetricsRegistry::new();
                let registry = obs.map_or(&private, Observability::registry);
                let latency = registry.histogram("request_latency_ns");
                Counters {
                    $($field: registry.scoped_counter(concat!("serve_", stringify!($field))),)*
                    epoch: registry.gauge("serve_epoch"),
                    queue_depth: registry.gauge("serve_queue_depth"),
                    latency_base: latency.snapshot(),
                    latency,
                }
            }

            /// `rest` with every total and the latency summary read back
            /// from the registry.
            fn view(&self, rest: ServeStats) -> ServeStats {
                let hist = self.latency.snapshot().since(&self.latency_base);
                let latency = LatencySummary {
                    count: hist.count(),
                    mean_us: hist.mean_ns() / 1e3,
                    p50_us: hist.quantile_ns(0.5) as f64 / 1e3,
                    p99_us: hist.quantile_ns(0.99) as f64 / 1e3,
                    max_us: hist.max_ns() as f64 / 1e3,
                };
                ServeStats { $($field: self.$field.get(),)* latency, ..rest }
            }
        }
    };
}

serve_counters! {
    requests, jobs, batches, evaluated, coalesced, cache_hits, cache_misses,
    reach_fast_path, queue_rejections, deadline_shed, deadline_cancelled,
    worker_restarts, writer_restarts, updates, publications, wal_records,
    wal_commits, wal_failures, checkpoints,
}

struct Shared {
    queue: BoundedQueue<QueryJob>,
    published: Published,
    /// The per-epoch answer cache, shared by every worker; `None` when
    /// disabled by [`ServeConfig::answer_cache`].
    cache: Option<AnswerCache>,
    worker_logs: Vec<Mutex<WorkerLog>>,
    /// Writer-thread time spent on maintenance + publication.
    writer_busy: Mutex<Duration>,
    batch_max: usize,
    retry_after: Duration,
    /// See [`ServeConfig::deadline`].
    deadline: Option<Duration>,
    /// See [`ServeConfig::max_admission_retries`].
    max_admission_retries: u32,
    /// Armed fault-injection plan (`None` in production).
    fault: Option<Arc<FaultPlan>>,
    /// The durable store (when durability is on). Logically owned by the
    /// writer thread — the mutex exists so the supervisor can reach it
    /// across a writer respawn; it is never contended.
    store: Option<Mutex<DurableStore>>,
    /// The LSN through which the *published* state incorporates the
    /// durable log. A respawned writer redoes the WAL suffix beyond this
    /// so the live state reconverges with what [`ds_durability::recover`]
    /// would rebuild.
    published_lsn: AtomicU64,
    /// Set when the writer is *permanently* down: read-only degraded
    /// mode. A writer panic respawns and never sets this; only an
    /// injected non-unwind failure (`FaultAction::Fail`) does.
    degraded: AtomicBool,
    counters: Counters,
    /// Armed tracing, slow-query log and workload recorder (`None` =
    /// disarmed: every tracing hook is one `Option` branch).
    obs: Option<Arc<Observability>>,
    started: Instant,
}

/// A running query-serving subsystem over one engine snapshot lineage.
///
/// `Server` is `Sync`: share it by reference (or `Arc`) across any
/// number of client threads. Reads go to the worker pool through the
/// bounded queue; updates go to the single writer thread, which applies
/// the incremental maintenance of `ds_closure::updates` to a private
/// copy and atomically publishes the successor snapshot under a bumped
/// epoch. In-flight queries finish on the epoch they started with —
/// every answer is consistent with *some* published version, reported in
/// [`ServedBatch::epoch`].
pub struct Server {
    shared: Arc<Shared>,
    write_tx: Mutex<Option<mpsc::Sender<WriteJob>>>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn the worker pool and writer thread over `snapshot`.
    ///
    /// With [`ServeConfig::durability`] set, this attaches (or creates)
    /// the durable store first and **panics** if that fails — use
    /// [`Server::try_start_at`] to handle the error. A fresh directory
    /// gets an initial checkpoint of `snapshot`; an existing one must be
    /// the directory `snapshot` was recovered from
    /// ([`ds_durability::recover`] / `System::open` produce exactly
    /// that), in which case prefer [`Server::try_start_at`] with the
    /// recovered epoch.
    pub fn start(snapshot: EngineSnapshot, config: ServeConfig) -> Server {
        match Server::try_start_at(snapshot, 0, config) {
            Ok(server) => server,
            Err(e) => panic!("durable store init failed: {e}"),
        }
    }

    /// [`Server::start`] resuming at a given published epoch (the one
    /// [`ds_durability::Recovered::epoch`] reports), with durable-store
    /// attachment failures surfaced instead of panicking.
    pub fn try_start_at(
        snapshot: EngineSnapshot,
        epoch: u64,
        config: ServeConfig,
    ) -> Result<Server, DurabilityError> {
        let store = match &config.durability {
            Some(cfg) => {
                let store =
                    DurableStore::attach(cfg.clone(), &snapshot, epoch, config.fault.clone())?;
                Some(store)
            }
            None => None,
        };
        let initial_lsn = store.as_ref().map_or(0, DurableStore::last_lsn);
        let workers = config.workers.max(1);
        let initial = Arc::new(snapshot);
        let counters = Counters::new(config.obs.as_deref());
        counters.epoch.set(epoch);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity.max(workers)),
            published: Published::new(epoch, initial),
            cache: config
                .answer_cache
                .then(|| AnswerCache::new(config.answer_cache_entries)),
            worker_logs: (0..workers)
                .map(|_| Mutex::new(WorkerLog::default()))
                .collect(),
            writer_busy: Mutex::new(Duration::ZERO),
            batch_max: config.batch_max.max(1),
            retry_after: config.retry_after,
            deadline: config.deadline,
            max_admission_retries: config.max_admission_retries,
            fault: config.fault.clone(),
            store: store.map(Mutex::new),
            published_lsn: AtomicU64::new(initial_lsn),
            degraded: AtomicBool::new(false),
            counters,
            obs: config.obs.clone(),
            started: Instant::now(),
        });
        let mut handles = Vec::with_capacity(workers + 1);
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || supervised_worker(&shared, id)));
        }
        let (write_tx, write_rx) = mpsc::channel::<WriteJob>();
        {
            let shared = Arc::clone(&shared);
            let max = config.write_batch_max.max(1);
            handles.push(std::thread::spawn(move || {
                // Writer supervisor: a panicking writer loses only its
                // private working copy, so the respawn rebuilds one from
                // the last *published* snapshot and re-enters the loop on
                // the same write channel — updates keep flowing. The
                // in-flight updates of the doomed batch resolve through
                // their dropped reply senders as `WriterRestarted` (not
                // applied — retry; see `Server::update`). Only a clean
                // return leaves the loop: shutdown (channel closed) or an
                // injected non-unwind failure (`FaultAction::Fail`),
                // which flips permanent read-only degraded mode first.
                loop {
                    // With durability on, the log may hold records the
                    // doomed writer appended but never published (it
                    // died between append and publish). Redo that
                    // suffix first so the live state reconverges with
                    // what `recover` would rebuild from disk. On first
                    // entry the suffix is empty (attach == recovered).
                    redo_wal_suffix(&shared);
                    let working = (*shared.published.current().1).clone();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        writer_loop(&shared, working, &write_rx, max)
                    }));
                    match outcome {
                        Ok(()) => return,
                        Err(_) => shared.counters.writer_restarts.inc(),
                    }
                }
            }));
        }
        Ok(Server {
            shared,
            write_tx: Mutex::new(Some(write_tx)),
            handles,
        })
    }

    /// Answer one shortest-path request (blocking).
    pub fn query(&self, x: NodeId, y: NodeId) -> Result<ServedAnswer, ServeError> {
        let mut batch = self.query_batch(&[QueryRequest::new(x, y)])?;
        match batch.answers.pop() {
            Some(answer) => Ok(ServedAnswer {
                answer,
                epoch: batch.epoch,
            }),
            None => Err(ServeError::Request(ClosureError::WorkerFailed)),
        }
    }

    /// Connection query — "is `x` connected to `y`?".
    ///
    /// Answered on the calling thread from the published snapshot's
    /// SCC/chain reachability index when it is fresh — no queue slot, no
    /// worker dispatch, no Dijkstra sweep, and never a cached
    /// shortest-path answer (the fast path does not touch the answer
    /// cache at all). Falls back to a full shortest-path query through
    /// the pool when the index is disabled or stale.
    pub fn connected(&self, x: NodeId, y: NodeId) -> Result<bool, ServeError> {
        let (epoch, snap) = self.shared.published.current();
        let Some(connected) = snap.reach_probe(x, y) else {
            return Ok(self.query(x, y)?.answer.cost.is_some());
        };
        // `x == y` is trivially true: only an index answer counts as a
        // fast-path hit and files a trace.
        if x == y {
            return Ok(true);
        }
        self.shared.counters.reach_fast_path.inc();
        if let Some(o) = &self.shared.obs {
            // Traced but not timed: the fast path files no latency sample
            // (see `ServeStats::latency`).
            let tracer = o.tracer();
            let trace = tracer.mint();
            let now = tracer.now_ns();
            tracer.finish(RequestTrace {
                trace,
                source: x.index() as u64,
                target: y.index() as u64,
                epoch,
                total_ns: 0,
                outcome: if connected {
                    TraceOutcome::Answered
                } else {
                    TraceOutcome::Unreachable
                },
                spans: vec![SpanRecord::new(trace, Stage::ReachIndex, now, 0)],
            });
            let w = o.workload();
            if w.should_sample() {
                w.record_vertex_pair(x.index() as u64, y.index() as u64);
            }
        }
        Ok(connected)
    }

    /// Admit a batch of requests as one job without blocking: `Ok` hands
    /// back a [`PendingBatch`] to wait on, `Err` means the submission
    /// queue is at capacity and the job was **shed** — nothing was
    /// enqueued; retry after the hinted back-off. All answers of one job
    /// come from the same snapshot epoch.
    pub fn submit(&self, requests: &[QueryRequest]) -> Result<PendingBatch, Overloaded> {
        let (tx, rx) = mpsc::channel();
        if requests.is_empty() {
            // Nothing to evaluate: answer inline instead of spending a
            // queue slot (and never shed a job that carries no work).
            let _ = tx.send(Ok(ServedBatch {
                answers: Vec::new(),
                epoch: self.epoch(),
            }));
            return Ok(PendingBatch { rx });
        }
        let traces: Vec<TraceId> = match &self.shared.obs {
            Some(o) => requests.iter().map(|_| o.tracer().mint()).collect(),
            None => Vec::new(),
        };
        let job = QueryJob {
            requests: requests.to_vec(),
            traces,
            reply: tx,
            submitted: Instant::now(),
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => Ok(PendingBatch { rx }),
            Err(PushError::Full(job)) => {
                self.shared.counters.queue_rejections.inc();
                if let Some(o) = &self.shared.obs {
                    // Shed admissions still close their traces (outcome
                    // only — nothing ran, so there are no spans and no
                    // latency sample).
                    let epoch = self.epoch();
                    for (r, &trace) in job.requests.iter().zip(&job.traces) {
                        o.tracer().finish(RequestTrace {
                            trace,
                            source: r.source.index() as u64,
                            target: r.target.index() as u64,
                            epoch,
                            total_ns: 0,
                            outcome: TraceOutcome::Shed,
                            spans: Vec::new(),
                        });
                    }
                }
                Err(Overloaded {
                    retry_after: self.shared.retry_after,
                })
            }
            Err(PushError::Closed(job)) => {
                // Only reachable during shutdown (which requires owning
                // the server, so no client can still hold `&self` —
                // except through a leaked Arc). Resolve instead of hang.
                let _ = job.reply.send(Err(ClosureError::WorkerFailed));
                Ok(PendingBatch { rx })
            }
        }
    }

    /// [`Server::query_batch`] that sheds instead of backing off: at
    /// capacity, returns [`ServeError::Overloaded`] immediately.
    pub fn try_query_batch(&self, requests: &[QueryRequest]) -> Result<ServedBatch, ServeError> {
        let pending = self.submit(requests).map_err(|o| ServeError::Overloaded {
            retry_after: o.retry_after,
            attempts: 1,
        })?;
        pending.wait().map_err(ServeError::Request)
    }

    /// Answer a batch of requests as one job (blocking convenience): a
    /// shed submission is retried with bounded decorrelated-jitter
    /// back-off (see [`Backoff`]; base [`ServeConfig::retry_after`],
    /// capped at 64x) up to [`ServeConfig::max_admission_retries`]
    /// times — each rejected attempt still counts in
    /// [`ServeStats::queue_rejections`]. All answers come from the same
    /// snapshot epoch.
    pub fn query_batch(&self, requests: &[QueryRequest]) -> Result<ServedBatch, ServeError> {
        let base = self.shared.retry_after.max(Duration::from_micros(10));
        let mut backoff = Backoff::new(base, base * 64, next_backoff_seed());
        let mut attempts = 0u32;
        loop {
            match self.submit(requests) {
                Ok(pending) => return pending.wait().map_err(ServeError::Request),
                Err(Overloaded { retry_after }) => {
                    attempts += 1;
                    if attempts > self.shared.max_admission_retries {
                        return Err(ServeError::Overloaded {
                            retry_after,
                            attempts,
                        });
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }

    /// Apply a network update (blocking until its effect is published).
    /// Readers never wait on this: they keep answering from the previous
    /// epoch until the successor snapshot is swapped in.
    ///
    /// A writer *panic* is survivable: the supervisor respawns the
    /// writer with a working copy rebuilt from the last published
    /// snapshot, the in-flight updates of the doomed batch resolve to
    /// [`ClosureError::WriterRestarted`] (not applied — retry this
    /// call), and later updates apply normally
    /// ([`ServeStats::writer_restarts`] counts the respawns). Only a
    /// *permanent* writer death (an injected non-unwind failure, or
    /// shutdown) leaves the server read-only
    /// ([`ServeStats::degraded`]): from then on every update — queued,
    /// in-flight, or future — resolves to
    /// [`ClosureError::WriterDown`]; reads keep serving the last
    /// published epoch.
    pub fn update(&self, update: &NetworkUpdate) -> Result<ServedUpdate, ClosureError> {
        if self.shared.degraded.load(Ordering::SeqCst) {
            return Err(ClosureError::WriterDown);
        }
        let tx = match lock_unpoisoned(&self.write_tx).clone() {
            Some(tx) => tx,
            // Shutdown already took the writer handle.
            None => return Err(ClosureError::WriterDown),
        };
        let (reply, rx) = mpsc::channel();
        if tx
            .send(WriteJob {
                update: *update,
                reply,
            })
            .is_err()
        {
            return Err(ClosureError::WriterDown);
        }
        // A dead writer drops every queued job's reply sender — recv()
        // then errors instead of hanging. Which error depends on what
        // killed it: a panic was respawned by the supervisor (this
        // update was NOT applied — the typed error says retry), while a
        // permanent death already flipped degraded mode.
        match rx.recv() {
            Ok(outcome) => outcome,
            Err(mpsc::RecvError) => {
                // The update died with the writer; leave a Failed trace
                // so the loss is visible in the ring, not just the
                // caller's error.
                if let Some(o) = &self.shared.obs {
                    let tracer = o.tracer();
                    tracer.finish(RequestTrace {
                        trace: tracer.mint(),
                        source: 0,
                        target: 0,
                        epoch: self.shared.published.epoch.load(Ordering::Acquire),
                        total_ns: 0,
                        outcome: TraceOutcome::Failed,
                        spans: Vec::new(),
                    });
                }
                if self.shared.degraded.load(Ordering::SeqCst) {
                    Err(ClosureError::WriterDown)
                } else {
                    Err(ClosureError::WriterRestarted)
                }
            }
        }
    }

    /// The currently published epoch (= updates applied since start).
    pub fn epoch(&self) -> u64 {
        self.shared.published.epoch.load(Ordering::Acquire)
    }

    /// The currently published snapshot (readers may already be on a
    /// newer one by the time you look at it).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared.published.current().1
    }

    /// Aggregate serving statistics up to now.
    pub fn stats(&self) -> ServeStats {
        let (epoch, snap) = self.shared.published.current();
        let mut stats = self.shared.counters.view(ServeStats {
            workers: self.shared.worker_logs.len(),
            epoch,
            reach_index_fresh: snap.reach_index().is_some(),
            queue_depth: self.shared.queue.depth(),
            queue_high_water: self.shared.queue.high_water(),
            queue_capacity: self.shared.queue.capacity(),
            elapsed: self.shared.started.elapsed(),
            writer_busy: *lock_unpoisoned(&self.shared.writer_busy),
            backend: snap.source_backend(),
            strategy: snap.precompute_stats().strategy,
            degraded: self.shared.degraded.load(Ordering::SeqCst),
            ..ServeStats::default()
        });
        for log in &self.shared.worker_logs {
            let log = lock_unpoisoned(log);
            stats.busy.push(log.busy);
            stats.scratch.merge(log.scratch);
            add_batch_stats(&mut stats.batch, &log.batch);
        }
        stats
    }

    /// Stop accepting work, drain the queue, join every thread and
    /// return the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.finish();
        let stats = self.stats();
        // Drop runs afterwards; finish() is idempotent.
        stats
    }

    /// Test hook: freeze the worker pool (consumers treat the queue as
    /// empty) so tests can fill the submission queue deterministically.
    #[cfg(test)]
    pub(crate) fn pause_workers(&self) {
        self.shared.queue.pause();
    }

    /// Test hook: release a paused worker pool.
    #[cfg(test)]
    pub(crate) fn unpause_workers(&self) {
        self.shared.queue.unpause();
    }

    fn finish(&mut self) {
        self.shared.queue.close();
        *lock_unpoisoned(&self.write_tx) = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.shared.worker_logs.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// `Server` is shared by reference across client threads; keep that a
/// compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Shared>();
};

fn add_batch_stats(into: &mut BatchStats, from: &BatchStats) {
    into.queries += from.queries;
    into.plans_computed += from.plans_computed;
    into.plans_reused += from.plans_reused;
    into.segments_computed += from.segments_computed;
    into.segments_memoized += from.segments_memoized;
}

/// The supervisor wrapping one reader worker: respawn the worker body
/// after any panic that escapes the per-batch isolation inside, so the
/// pool never shrinks. In-flight jobs of the doomed batch resolve
/// through their dropped reply senders ([`PendingBatch::wait`] maps
/// that to [`ClosureError::WorkerFailed`]); the respawn gets fresh
/// scratch state and counts in [`ServeStats::worker_restarts`].
fn supervised_worker(shared: &Shared, id: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, id))) {
            Ok(()) => return, // queue closed and drained: clean exit
            Err(_) => shared.counters.worker_restarts.inc(),
        }
    }
}

/// One reader worker: drain a micro-batch of jobs, shed the ones queued
/// past their deadline, then evaluate the rest under `catch_unwind` so
/// a panicking batch resolves every in-flight request with a typed
/// [`ClosureError::WorkerFailed`] (never a hang) and the worker lives
/// on with reset state — the in-place equivalent of a respawn, counted
/// in [`ServeStats::worker_restarts`].
fn worker_loop(shared: &Shared, id: usize) {
    let mut scratch = ScratchDijkstra::new();
    let mut cached: Option<(u64, Arc<EngineSnapshot>)> = None;
    loop {
        let jobs = match shared.queue.try_pop_batch(shared.batch_max) {
            Some(jobs) => jobs,
            None => {
                // About to block idle: release the pinned snapshot so a
                // publication arriving now is not kept alive by
                // sleeping workers — only in-flight evaluation pins an
                // epoch.
                cached = None;
                let jobs = shared.queue.pop_batch(shared.batch_max);
                if jobs.is_empty() {
                    break; // closed and drained
                }
                jobs
            }
        };
        // Deadline shedding: a job that already waited past its
        // deadline gets a typed refusal instead of stale evaluation.
        let jobs = match shared.deadline {
            None => jobs,
            Some(deadline) => {
                let mut live = Vec::with_capacity(jobs.len());
                for job in jobs {
                    let waited = job.submitted.elapsed();
                    if waited > deadline {
                        shared.counters.deadline_shed.inc();
                        if let Some(o) = &shared.obs {
                            close_failed_traces(o, &job, Some(waited));
                        }
                        let _ = job
                            .reply
                            .send(Err(ClosureError::DeadlineExceeded { waited }));
                    } else {
                        live.push(job);
                    }
                }
                live
            }
        };
        if jobs.is_empty() {
            continue;
        }
        // Panic isolation: the fault hook and the evaluation run under
        // catch_unwind with the jobs held outside, so the doomed batch
        // can still be resolved. `Ok(true)` is an injected non-unwind
        // failure (FaultAction::Fail); `Err` is a real panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut injected = false;
            for _ in &jobs {
                injected |= ds_fault::fire(&shared.fault, FaultPoint::ServeWorker { worker: id });
            }
            if !injected {
                process_batch(shared, id, &jobs, &mut scratch, &mut cached);
            }
            injected
        }));
        match outcome {
            Ok(false) => {}
            failed => {
                for job in &jobs {
                    if let Some(o) = &shared.obs {
                        close_failed_traces(o, job, None);
                    }
                    let _ = job.reply.send(Err(ClosureError::WorkerFailed));
                }
                // Reset state exactly as a thread respawn would.
                scratch = ScratchDijkstra::new();
                cached = None;
                if failed.is_err() {
                    shared.counters.worker_restarts.inc();
                }
            }
        }
    }
}

/// Close every trace of a job that resolved to a typed failure instead
/// of an answer (deadline shed when `waited` is given, worker panic
/// otherwise). Outcome-only: failed requests leave no latency sample.
fn close_failed_traces(obs: &Observability, job: &QueryJob, waited: Option<Duration>) {
    let tracer = obs.tracer();
    for (r, &trace) in job.requests.iter().zip(&job.traces) {
        let wait_ns = waited.map_or(0, |w| w.as_nanos() as u64);
        let spans = match waited {
            Some(_) => vec![SpanRecord::new(
                trace,
                Stage::QueueWait,
                tracer.now_ns().saturating_sub(wait_ns),
                wait_ns,
            )],
            None => Vec::new(),
        };
        tracer.finish(RequestTrace {
            trace,
            source: r.source.index() as u64,
            target: r.target.index() as u64,
            epoch: 0,
            total_ns: wait_ns,
            outcome: TraceOutcome::Failed,
            spans,
        });
    }
}

/// The isolated per-batch evaluation: pin a snapshot epoch, coalesce
/// identical requests, group the distinct ones by fragment pair,
/// evaluate through the shared batch kernel, fan the answers back out
/// per job.
fn process_batch(
    shared: &Shared,
    id: usize,
    jobs: &[QueryJob],
    scratch: &mut ScratchDijkstra,
    cached: &mut Option<(u64, Arc<EngineSnapshot>)>,
) {
    let t0 = Instant::now();
    let obs = shared.obs.as_deref();
    // Tracing context: the batch start on the tracer clock.
    let batch_start_ns = obs.map_or(0, |o| o.tracer().now_ns());
    let (epoch, snap) = {
        let pair = shared.published.pin(cached);
        (pair.0, &pair.1)
    };

    // Coalesce: identical (source, target) pairs across the whole
    // micro-batch are evaluated once (single-flight). The first
    // occurrence's trace id becomes the slot's *primary* trace — the
    // one the evaluation spans are attributed to; later occurrences
    // get a `Coalesced` marker span.
    let mut distinct: Vec<QueryRequest> = Vec::new();
    let mut distinct_traces: Vec<TraceId> = Vec::new();
    // Per distinct slot, the *latest* admission time among the jobs
    // sharing it (tracked only when a deadline is configured): the
    // in-evaluation deadline check keeps evaluating while any
    // interested job is still within its deadline.
    let mut slot_submitted: Vec<Instant> = Vec::new();
    let mut index: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    let mut slots: Vec<Vec<u32>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut js = Vec::with_capacity(job.requests.len());
        for (ri, r) in job.requests.iter().enumerate() {
            let slot = match index.get(&(r.source, r.target)) {
                Some(&slot) => {
                    if shared.deadline.is_some() {
                        let s = &mut slot_submitted[slot as usize];
                        *s = (*s).max(job.submitted);
                    }
                    slot
                }
                None => {
                    let slot = distinct.len() as u32;
                    index.insert((r.source, r.target), slot);
                    distinct.push(*r);
                    distinct_traces.push(job.traces.get(ri).copied().unwrap_or(TraceId::NONE));
                    if shared.deadline.is_some() {
                        slot_submitted.push(job.submitted);
                    }
                    slot
                }
            };
            js.push(slot);
        }
        slots.push(js);
    }
    let total_requests: usize = slots.iter().map(Vec::len).sum();
    let coalesced = (total_requests - distinct.len()) as u64;

    // Probe the per-epoch answer cache: a distinct request already
    // answered at this epoch (by any worker, in any earlier
    // micro-batch) skips evaluation entirely. The cache key includes
    // the pinned epoch, so a hit is exactly as consistent as an
    // evaluated answer.
    let mut answers_by_slot: Vec<Option<QueryAnswer>> = vec![None; distinct.len()];
    let mut miss: Vec<u32> = Vec::with_capacity(distinct.len());
    let mut cache_hits = 0u64;
    if let Some(cache) = &shared.cache {
        for (i, r) in distinct.iter().enumerate() {
            match cache.get(epoch, (r.source, r.target)) {
                Some(a) => {
                    answers_by_slot[i] = Some(a);
                    cache_hits += 1;
                }
                None => miss.push(i as u32),
            }
        }
    } else {
        miss.extend(0..distinct.len() as u32);
    }
    let cache_misses = if shared.cache.is_some() {
        miss.len() as u64
    } else {
        0
    };

    // Group the remaining misses by fragment pair. The sharing itself
    // is order-independent (the batch kernel caches chain plans per
    // fragment pair for the whole call, and interior segments already
    // swept by any worker come from the snapshot's transit memos); the
    // sort makes same-pair
    // queries evaluate back-to-back while their interior relations are
    // CPU-cache-hot, and makes a batch's evaluation order independent
    // of client arrival interleaving.
    let planner = snap.planner();
    // Workload recorder: sampled per *request* (not per distinct slot —
    // hot duplicates are exactly the signal), one vertex pair and one
    // fragment pair each. `should_sample` is a single relaxed
    // fetch_add.
    if let Some(o) = obs {
        let w = o.workload();
        for job in jobs {
            for r in &job.requests {
                if w.should_sample() {
                    w.record_vertex_pair(r.source.index() as u64, r.target.index() as u64);
                    let fs = planner.fragments_of(r.source);
                    let ft = planner.fragments_of(r.target);
                    if let (Some(&a), Some(&b)) = (fs.first(), ft.first()) {
                        w.record_fragment_pair(a as u64, b as u64);
                    }
                }
            }
        }
    }
    let keys: Vec<(Vec<FragmentId>, Vec<FragmentId>)> = miss
        .iter()
        .map(|&i| {
            let r = &distinct[i as usize];
            (
                planner.fragments_of(r.source),
                planner.fragments_of(r.target),
            )
        })
        .collect();
    let mut order: Vec<u32> = (0..miss.len() as u32).collect();
    order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let sorted: Vec<QueryRequest> = order
        .iter()
        .map(|&k| distinct[miss[k as usize] as usize])
        .collect();

    // `eval_traces[j]` carries the per-chain timing of `sorted[j]`;
    // `slot_eval` maps a distinct slot back to that index (`None`: the
    // cache answered the slot).
    let mut eval_traces: Vec<EvalTrace> = Vec::new();
    let mut slot_eval: Vec<Option<u32>> = match obs {
        Some(_) => vec![None; distinct.len()],
        None => Vec::new(),
    };
    let batch_stats = if sorted.is_empty() {
        BatchStats::default()
    } else {
        // Each sorted request carries its slot's absolute deadline so
        // the batch kernel can abandon a pathological evaluation at
        // the next chain boundary (cooperative cancellation).
        let sorted_deadlines: Vec<Option<Instant>> = match shared.deadline {
            None => Vec::new(),
            Some(d) => order
                .iter()
                .map(|&k| Some(slot_submitted[miss[k as usize] as usize] + d))
                .collect(),
        };
        let batch = match obs {
            Some(_) => {
                let sorted_traces: Vec<TraceId> = order
                    .iter()
                    .map(|&k| distinct_traces[miss[k as usize] as usize])
                    .collect();
                snap.query_batch_bounded(
                    &sorted,
                    scratch,
                    &sorted_traces,
                    Some(&mut eval_traces),
                    &sorted_deadlines,
                )
            }
            None => snap.query_batch_bounded(&sorted, scratch, &[], None, &sorted_deadlines),
        };
        for (j, (&k, a)) in order.iter().zip(batch.answers).enumerate() {
            let slot = miss[k as usize] as usize;
            if obs.is_some() {
                slot_eval[slot] = Some(j as u32);
            }
            // A `None` answer is a request cancelled mid-evaluation at
            // its deadline: leave the slot unanswered (the fan-out
            // resolves it with `DeadlineExceeded`) and cache nothing.
            if let Some(a) = a {
                if let Some(cache) = &shared.cache {
                    let r = &distinct[slot];
                    cache.insert(epoch, (r.source, r.target), a.clone());
                }
                answers_by_slot[slot] = Some(a);
            }
        }
        batch.stats
    };
    let busy = t0.elapsed();

    // Count before fanning out: a blocking client that reads `stats()`
    // right after its reply must already see this batch accounted for.
    let counters = &shared.counters;
    counters.jobs.add(jobs.len() as u64);
    counters.requests.add(total_requests as u64);
    counters.batches.inc();
    counters.evaluated.add(sorted.len() as u64);
    counters.coalesced.add(coalesced);
    counters.cache_hits.add(cache_hits);
    counters.cache_misses.add(cache_misses);
    counters.queue_depth.set(shared.queue.depth() as u64);
    {
        let mut log = lock_unpoisoned(&shared.worker_logs[id]);
        log.busy += busy;
        add_batch_stats(&mut log.batch, &batch_stats);
        log.scratch = scratch.stats();
    }

    // Latency is submit → reply (well, the instant before the send),
    // one sample per request so percentiles weight by traffic. Armed,
    // the sample is filed with the request's trace — also before the
    // fan-out, so a client that inspects the trace ring right after
    // its reply sees its own trace.
    for (job, js) in jobs.iter().zip(&slots) {
        let total_ns = job.submitted.elapsed().as_nanos() as u64;
        let Some(o) = obs else {
            for _ in js {
                counters.latency.record(total_ns);
            }
            continue;
        };
        // Queue wait: admission → drain.
        let wait_ns = t0.saturating_duration_since(job.submitted).as_nanos() as u64;
        for (ri, &slot) in js.iter().enumerate() {
            let slot = slot as usize;
            let trace = job.traces.get(ri).copied().unwrap_or(TraceId::NONE);
            let r = &job.requests[ri];
            let mut spans = vec![SpanRecord::new(
                trace,
                Stage::QueueWait,
                batch_start_ns.saturating_sub(wait_ns),
                wait_ns,
            )];
            match slot_eval[slot] {
                None => spans.push(SpanRecord::new(trace, Stage::CacheHit, batch_start_ns, 0)),
                // The slot's primary request carries the evaluation and
                // per-chain segment spans.
                Some(j) if distinct_traces[slot] == trace => {
                    let et = &eval_traces[j as usize];
                    spans.push(SpanRecord::new(
                        trace,
                        Stage::Evaluation,
                        batch_start_ns,
                        et.eval_ns,
                    ));
                    for c in &et.chains {
                        spans.push(SpanRecord::new(
                            trace,
                            Stage::ChainSegment { chain: c.chain },
                            batch_start_ns,
                            c.ns,
                        ));
                    }
                }
                Some(_) => spans.push(SpanRecord::new(trace, Stage::Coalesced, batch_start_ns, 0)),
            }
            o.record_request(RequestTrace {
                trace,
                source: r.source.index() as u64,
                target: r.target.index() as u64,
                epoch,
                total_ns,
                outcome: match &answers_by_slot[slot] {
                    Some(a) if a.cost.is_some() => TraceOutcome::Answered,
                    Some(_) => TraceOutcome::Unreachable,
                    // Cancelled mid-evaluation at the deadline.
                    None => TraceOutcome::Shed,
                },
                spans,
            });
        }
    }

    for (job, js) in jobs.iter().zip(&slots) {
        // A job touching any slot cancelled mid-evaluation resolves
        // with `DeadlineExceeded` — distinct from the queue-time shed
        // in `worker_loop`, and counted separately
        // ([`ServeStats::deadline_cancelled`]).
        if js
            .iter()
            .any(|&slot| answers_by_slot[slot as usize].is_none())
        {
            let waited = job.submitted.elapsed();
            counters.deadline_cancelled.inc();
            let _ = job
                .reply
                .send(Err(ClosureError::DeadlineExceeded { waited }));
            continue;
        }
        let answers: Vec<QueryAnswer> = js
            .iter()
            .map(|&slot| match &answers_by_slot[slot as usize] {
                Some(a) => a.clone(),
                None => unreachable!("cancelled jobs resolved above"),
            })
            .collect();
        let _ = job.reply.send(Ok(ServedBatch { answers, epoch }));
    }
}

/// The single writer: drain pending updates (bounded), apply the shared
/// incremental maintenance to a private working copy, publish the
/// successor snapshot once, acknowledge every updater with the epoch at
/// which its change became visible.
fn writer_loop(
    shared: &Shared,
    mut working: EngineSnapshot,
    rx: &mpsc::Receiver<WriteJob>,
    write_batch_max: usize,
) {
    let mut scratch = ScratchDijkstra::new();
    // Resume from the *published* epoch: on first entry that is 0, and
    // after a supervisor respawn (whose working copy was rebuilt from
    // the published snapshot) it is wherever the last publication left
    // the readers — epochs never repeat or rewind across writer deaths.
    let mut epoch = shared.published.epoch.load(Ordering::Acquire);
    while let Ok(first) = rx.recv() {
        let t0 = Instant::now();
        let mut jobs = vec![first];
        while jobs.len() < write_batch_max {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Fault hook, one firing per publication attempt: `Panic`
        // unwinds (writer death — the supervisor wrapper in
        // `Server::start` flips degraded mode and every waiter resolves
        // through its dropped reply sender); `Fail` refuses this batch
        // with a typed error and degrades without unwinding.
        if ds_fault::fire(&shared.fault, FaultPoint::ServeWriter) {
            shared.degraded.store(true, Ordering::SeqCst);
            for job in jobs {
                let _ = job.reply.send(Err(ClosureError::WriterDown));
            }
            return;
        }
        // Append-before-apply: the whole folded batch goes to the
        // write-ahead log as one group commit (one buffered write, one
        // fsync) before any update touches the working copy. A refused
        // append — I/O error, torn write, injected disk fault — fails
        // every job of the batch with a typed error and applies nothing:
        // the durable log never lags the acknowledged state. (An
        // injected `Panic` at a disk fault point unwinds here instead —
        // the supervisor respawns the writer and redoes any durable
        // suffix, see `redo_wal_suffix`.)
        let wal_range = match &shared.store {
            Some(store) => {
                let updates: Vec<NetworkUpdate> = jobs.iter().map(|j| j.update).collect();
                let mut store = lock_unpoisoned(store);
                match store.append_batch(epoch, &updates) {
                    Ok(first) => {
                        let n = updates.len() as u64;
                        shared.counters.wal_records.add(n);
                        shared.counters.wal_commits.inc();
                        Some(first + n - 1)
                    }
                    Err(_) => {
                        shared.counters.wal_failures.inc();
                        for job in jobs {
                            let _ = job.reply.send(Err(ClosureError::DurabilityFailed));
                        }
                        continue;
                    }
                }
            }
            None => None,
        };
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut applied = 0u64;
        for job in jobs {
            match working.maintain(&job.update, &mut scratch) {
                Ok(report) if !report.changed() => {
                    // Structural no-op (e.g. removing a connection that
                    // does not exist): nothing changed, so nothing to
                    // publish — answer at the current epoch for free.
                    outcomes.push((job.reply, Ok(report)));
                }
                Ok(report) => {
                    // Validation precedes mutation in the maintenance
                    // path, so the working copy is unchanged on Err and
                    // exact on Ok; every effective Ok advances the epoch.
                    epoch += 1;
                    applied += 1;
                    outcomes.push((job.reply, Ok(report)));
                }
                Err(e) => outcomes.push((job.reply, Err(e))),
            }
        }
        let apply_ns = t0.elapsed().as_nanos() as u64;
        let publish_t = Instant::now();
        if applied > 0 {
            // One reachability-index rebuild per publication, not per
            // update: every update this batch that could have changed
            // reachability dropped the working copy's index; rebuilding
            // here amortizes the linear cost across the whole batch and
            // publishes the epoch with `connected` already sweep-free.
            working.ensure_reach();
            // Copy-on-write publication: readers on the previous Arc
            // finish undisturbed; new micro-batches pick up this epoch.
            // The clone is O(sites) — every component of the working
            // snapshot is Arc-shared, and the maintenance above already
            // detached exactly the sites it touched, so this publication
            // shares everything else with the previous epoch. Publishing
            // also implicitly drops the per-epoch answer cache: entries
            // are keyed by epoch and lazily cleared on first contact
            // with the new one.
            shared.published.publish(epoch, Arc::new(working.clone()));
            shared.counters.epoch.set(epoch);
        }
        if let Some(last) = wal_range {
            // The published state now reflects every logged record up to
            // `last` (no-ops and per-update errors included — replay
            // treats them identically): a respawn redoes nothing before
            // this point.
            shared.published_lsn.store(last, Ordering::SeqCst);
        }
        let busy = t0.elapsed();
        *lock_unpoisoned(&shared.writer_busy) += busy;
        shared.counters.updates.add(applied);
        shared.counters.publications.add((applied > 0) as u64);
        if let Some(o) = &shared.obs {
            if applied > 0 {
                // One writer trace per publication: maintenance and
                // publication spans land in the trace ring (never in the
                // request latency histogram — that is reads only).
                let tracer = o.tracer();
                let trace = tracer.mint();
                let publish_ns = publish_t.elapsed().as_nanos() as u64;
                let end_ns = tracer.now_ns();
                tracer.finish(RequestTrace {
                    trace,
                    source: 0,
                    target: 0,
                    epoch,
                    total_ns: busy.as_nanos() as u64,
                    outcome: TraceOutcome::Applied,
                    spans: vec![
                        SpanRecord::new(
                            trace,
                            Stage::WriterApply,
                            end_ns.saturating_sub(apply_ns + publish_ns),
                            apply_ns,
                        ),
                        SpanRecord::new(
                            trace,
                            Stage::Publication,
                            end_ns.saturating_sub(publish_ns),
                            publish_ns,
                        ),
                    ],
                });
            }
        }
        for (reply, outcome) in outcomes {
            let _ = reply.send(outcome.map(|report| ServedUpdate { report, epoch }));
        }
        // Checkpoint *after* acknowledging the batch: a failed (or
        // fault-killed) checkpoint must never take acknowledged updates
        // down with it. Failure here is non-fatal to durability — the
        // previous checkpoint plus the full log still recover; the
        // thresholds stay tripped so the next batch retries.
        if let Some(store) = &shared.store {
            let mut store = lock_unpoisoned(store);
            if store.should_checkpoint() {
                match store.checkpoint(&working, epoch) {
                    Ok(()) => shared.counters.checkpoints.inc(),
                    Err(_) => shared.counters.wal_failures.inc(),
                }
            }
        }
    }
}

/// Reconverge the published state with the durable log after a writer
/// death: replay every WAL record beyond [`Shared::published_lsn`] onto a
/// copy of the published snapshot and publish the result. These are
/// records the doomed writer group-committed but never applied/published
/// — their callers were told [`ClosureError::WriterRestarted`], yet the
/// records are durable, so a later [`ds_durability::recover`] *will*
/// replay them; the live state must agree. No-op when durability is off
/// or the suffix is empty (every clean start).
fn redo_wal_suffix(shared: &Shared) {
    let Some(store) = &shared.store else { return };
    let mut store = lock_unpoisoned(store);
    let after = shared.published_lsn.load(Ordering::SeqCst);
    let suffix = match store.read_suffix(after) {
        Ok(suffix) => suffix,
        Err(_) => {
            shared.counters.wal_failures.inc();
            return;
        }
    };
    if suffix.is_empty() {
        return;
    }
    let mut working = (*shared.published.current().1).clone();
    let replayed = ds_durability::replay(&mut working, &suffix, after);
    let applied = replayed.changed;
    if applied > 0 {
        let epoch = shared.published.epoch.load(Ordering::Acquire) + applied;
        shared.published.publish(epoch, Arc::new(working));
        shared.counters.epoch.set(epoch);
    }
    shared
        .published_lsn
        .store(replayed.last_lsn, Ordering::SeqCst);
    shared.counters.updates.add(applied);
    shared.counters.publications.add((applied > 0) as u64);
}
