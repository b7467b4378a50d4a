//! Request tracing: trace ids minted at admission, per-stage span
//! records collected as a request crosses tiers, a bounded ring of
//! finished traces, and a slow-query log with a configurable (or
//! adaptive p999) latency threshold.
//!
//! A [`TraceId`] is a plain `u64` so it can ride inside micro-batch
//! jobs and machine protocol messages without allocation; `TraceId::NONE`
//! (zero) marks untraced requests and costs the carrying structs
//! nothing. Spans are recorded as offsets from the [`Tracer`]'s birth
//! instant, so records from different threads land on one time axis.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::registry::HistogramHandle;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identity of one traced request. Zero ([`TraceId::NONE`]) means "not
/// traced": carrying structs can hold a `TraceId` unconditionally and
/// pay nothing when observability is disarmed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// `true` when this id was minted by a [`Tracer`].
    #[inline]
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The pipeline stage a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Request accepted into the serve queue.
    Admission,
    /// Time between admission and a worker picking the job up.
    QueueWait,
    /// The answer came from the worker's answer cache (marker span).
    CacheHit,
    /// The request coalesced onto a duplicate in the same micro-batch
    /// and rode its evaluation (marker span).
    Coalesced,
    /// A `connected` probe answered by the SCC/chain reachability index.
    ReachIndex,
    /// Chain-program evaluation of the whole request.
    Evaluation,
    /// Evaluation time of one disconnection-set chain.
    ChainSegment { chain: u32 },
    /// One site's busy time answering a phase-one sub-query (machine
    /// backend; from the protocol reply).
    SitePhaseOne { site: u32 },
    /// The serve writer applying an update batch to its working copy.
    WriterApply,
    /// The serve writer publishing the new epoch.
    Publication,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Admission => write!(f, "admission"),
            Stage::QueueWait => write!(f, "queue-wait"),
            Stage::CacheHit => write!(f, "cache-hit"),
            Stage::Coalesced => write!(f, "coalesced"),
            Stage::ReachIndex => write!(f, "reach-index"),
            Stage::Evaluation => write!(f, "evaluation"),
            Stage::ChainSegment { chain } => write!(f, "chain-{chain}"),
            Stage::SitePhaseOne { site } => write!(f, "site-{site}-phase1"),
            Stage::WriterApply => write!(f, "writer-apply"),
            Stage::Publication => write!(f, "publication"),
        }
    }
}

/// One timed stage of one traced request. `start_ns` is an offset from
/// the minting [`Tracer`]'s birth instant; marker spans (cache hit,
/// coalesced) carry `dur_ns == 0`.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub stage: Stage,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanRecord {
    pub fn new(trace: TraceId, stage: Stage, start_ns: u64, dur_ns: u64) -> Self {
        SpanRecord {
            trace,
            stage,
            start_ns,
            dur_ns,
        }
    }
}

/// How a traced request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered with a path / cost.
    Answered,
    /// Answered: no path exists.
    Unreachable,
    /// The evaluating worker failed (fault injection, panic).
    Failed,
    /// Shed at the deadline before evaluation.
    Shed,
    /// An update applied and published by the writer.
    Applied,
}

/// The finished record of one request: identity, endpoints, the epoch
/// it was answered against, end-to-end latency, and its span set.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    pub trace: TraceId,
    /// Source vertex (0 for writer/update traces).
    pub source: u64,
    /// Target vertex (0 for writer/update traces).
    pub target: u64,
    /// Snapshot epoch the request was served against.
    pub epoch: u64,
    /// End-to-end latency, admission → reply.
    pub total_ns: u64,
    pub outcome: TraceOutcome,
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// The first span of `stage`, if recorded.
    pub fn span(&self, stage: Stage) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.stage == stage)
    }
}

impl fmt::Display for RequestTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} @epoch {} {:?} {:.1}us:",
            self.trace,
            self.source,
            self.target,
            self.epoch,
            self.outcome,
            self.total_ns as f64 / 1_000.0
        )?;
        for s in &self.spans {
            write!(f, " {}={:.1}us", s.stage, s.dur_ns as f64 / 1_000.0)?;
        }
        Ok(())
    }
}

/// Per-request evaluation timing produced by a traced
/// `run_batch_bounded`: total chain-program time plus per-chain segment
/// times. Collected by `ds_closure` without knowing anything else about
/// observability.
#[derive(Clone, Debug, Default)]
pub struct EvalTrace {
    pub trace: TraceId,
    /// Total evaluation time of this request, nanoseconds.
    pub eval_ns: u64,
    /// Per-chain segment time, in plan order.
    pub chains: Vec<ChainEval>,
}

/// Evaluation time of one disconnection-set chain of one request.
#[derive(Clone, Copy, Debug)]
pub struct ChainEval {
    pub chain: u32,
    pub ns: u64,
}

/// Mints trace ids, owns the shared time axis, and keeps a bounded
/// ring of finished [`RequestTrace`]s for inspection.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<RequestTrace>>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Mint a fresh id (never [`TraceId::NONE`]).
    #[inline]
    pub fn mint(&self) -> TraceId {
        TraceId(self.next.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Nanoseconds since the tracer was created — the shared time axis
    /// all span offsets are expressed on.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Ids minted so far.
    pub fn minted(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// File a finished trace into the ring (oldest evicted at
    /// capacity).
    pub fn finish(&self, trace: RequestTrace) {
        let mut ring = lock(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The most recent `k` finished traces, oldest first.
    pub fn recent(&self, k: usize) -> Vec<RequestTrace> {
        let ring = lock(&self.ring);
        ring.iter()
            .skip(ring.len().saturating_sub(k))
            .cloned()
            .collect()
    }

    /// Finished traces currently retained.
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How many requests between adaptive-threshold recomputations.
const ADAPTIVE_RECOMPUTE_EVERY: u64 = 64;

/// Ring-buffered log of requests slower than a latency threshold.
///
/// With a fixed threshold (`ObsConfig::slow_threshold`), every request
/// at or above it is logged. With the adaptive default, the threshold
/// tracks the interpolated p999 of the request-latency histogram,
/// recomputed every `ADAPTIVE_RECOMPUTE_EVERY` requests; until the
/// first recomputation nothing is logged (no stable tail estimate yet).
#[derive(Debug)]
pub struct SlowQueryLog {
    fixed: Option<u64>,
    threshold: AtomicU64,
    observed: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<RequestTrace>>,
}

impl SlowQueryLog {
    pub fn new(capacity: usize, fixed_threshold_ns: Option<u64>) -> Self {
        SlowQueryLog {
            fixed: fixed_threshold_ns,
            threshold: AtomicU64::new(fixed_threshold_ns.unwrap_or(u64::MAX)),
            observed: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The currently effective threshold in nanoseconds (`u64::MAX`
    /// while the adaptive estimate is still warming up).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold.load(Ordering::Relaxed)
    }

    /// Consider one finished request. `latency` is the histogram the
    /// adaptive threshold reads its p999 from.
    pub fn observe(&self, trace: &RequestTrace, latency: &HistogramHandle) {
        let n = self.observed.fetch_add(1, Ordering::Relaxed) + 1;
        if trace.total_ns >= self.threshold.load(Ordering::Relaxed) {
            let mut ring = lock(&self.ring);
            if ring.len() >= self.capacity {
                ring.pop_front();
            }
            ring.push_back(trace.clone());
        }
        // Recompute after the check: a fresh threshold applies from the
        // next request on, so a request never races its own estimate.
        if self.fixed.is_none() && n.is_multiple_of(ADAPTIVE_RECOMPUTE_EVERY) {
            let p999 = latency.snapshot().p999_ns().max(1);
            self.threshold.store(p999, Ordering::Relaxed);
        }
    }

    /// The most recent `k` slow queries, oldest first.
    pub fn recent(&self, k: usize) -> Vec<RequestTrace> {
        let ring = lock(&self.ring);
        ring.iter()
            .skip(ring.len().saturating_sub(k))
            .cloned()
            .collect()
    }

    /// Slow queries currently retained.
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(trace: TraceId, total_ns: u64) -> RequestTrace {
        RequestTrace {
            trace,
            source: 1,
            target: 2,
            epoch: 0,
            total_ns,
            outcome: TraceOutcome::Answered,
            spans: Vec::new(),
        }
    }

    #[test]
    fn mint_never_returns_none() {
        let t = Tracer::new(8);
        for _ in 0..100 {
            assert!(t.mint().is_traced());
        }
        assert_eq!(t.minted(), 100);
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = Tracer::new(3);
        for i in 1..=5u64 {
            t.finish(rt(TraceId(i), i));
        }
        let recent = t.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|r| r.trace.0).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(t.recent(2).len(), 2);
    }

    #[test]
    fn fixed_threshold_logs_at_or_above() {
        let log = SlowQueryLog::new(8, Some(1_000));
        let lat = HistogramHandle::new();
        log.observe(&rt(TraceId(1), 999), &lat);
        log.observe(&rt(TraceId(2), 1_000), &lat);
        log.observe(&rt(TraceId(3), 5_000), &lat);
        let slow = log.recent(10);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].trace, TraceId(2));
        assert_eq!(slow[1].trace, TraceId(3));
    }

    #[test]
    fn adaptive_threshold_warms_up_then_tracks_p999() {
        let log = SlowQueryLog::new(8, None);
        let lat = HistogramHandle::new();
        assert_eq!(log.threshold_ns(), u64::MAX);
        // 64 fast requests arm the estimate; nothing logged during
        // warm-up.
        for i in 0..64u64 {
            lat.record(1_000);
            log.observe(&rt(TraceId(i + 1), 1_000), &lat);
        }
        assert!(log.is_empty(), "warm-up logs nothing");
        let thr = log.threshold_ns();
        assert!(thr <= 2_048, "p999 of uniform 1us load, got {thr}");
        // A genuine outlier now gets logged.
        lat.record(1_000_000);
        log.observe(&rt(TraceId(100), 1_000_000), &lat);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn trace_display_lists_spans() {
        let mut t = rt(TraceId(7), 4200);
        t.spans
            .push(SpanRecord::new(TraceId(7), Stage::QueueWait, 0, 1000));
        t.spans.push(SpanRecord::new(
            TraceId(7),
            Stage::ChainSegment { chain: 2 },
            1000,
            3000,
        ));
        let s = t.to_string();
        assert!(s.contains("t7"), "{s}");
        assert!(s.contains("queue-wait=1.0us"), "{s}");
        assert!(s.contains("chain-2=3.0us"), "{s}");
    }

    #[test]
    fn span_lookup_by_stage() {
        let mut t = rt(TraceId(1), 10);
        t.spans
            .push(SpanRecord::new(TraceId(1), Stage::Evaluation, 5, 5));
        assert!(t.span(Stage::Evaluation).is_some());
        assert!(t.span(Stage::QueueWait).is_none());
    }
}
