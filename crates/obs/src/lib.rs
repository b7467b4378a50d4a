//! `ds_obs` — unified observability for every tier of the workspace:
//! a metrics registry, request tracing with a slow-query log, and a
//! workload recorder feeding future re-fragmentation.
//!
//! The [`MetricsRegistry`] is always present: each tier mints its
//! counter handles once at start — from the armed bundle's registry, or
//! a private one without it — bumps them at the event, and reads its
//! stats struct back from them, so every value exists exactly once.
//! Tracing, the slow-query log and the workload recorder stay opt-in,
//! following the `ds_fault` arming idiom: each tier carries an
//! `Option<Arc<Observability>>`; disarmed (`None`, the default) each of
//! those hooks is one `Option` branch. One [`Observability`] bundle
//! holds:
//!
//! * [`MetricsRegistry`] — named lock-free [`Counter`]s, [`Gauge`]s and
//!   atomic [`LatencyHistogram`]s, exported point-in-time as JSON or
//!   Prometheus text via [`MetricsSnapshot`];
//! * [`Tracer`] — [`TraceId`]s minted at serve admission and threaded
//!   through micro-batches, `run_batch_bounded`, the machine protocol,
//!   and writer publication, yielding per-request [`RequestTrace`] span
//!   sets plus a ring-buffered [`SlowQueryLog`];
//! * [`WorkloadRecorder`] — a sharded, bounded sketch of per-vertex-pair
//!   and per-fragment-pair query frequencies sampled from the serve hot
//!   path.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod histogram;
pub mod registry;
pub mod trace;
pub mod workload;

pub use histogram::LatencyHistogram;
pub use registry::{
    Counter, Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot, ScopedCounter,
};
pub use trace::{
    ChainEval, EvalTrace, RequestTrace, SlowQueryLog, SpanRecord, Stage, TraceId, TraceOutcome,
    Tracer,
};
pub use workload::{HotPair, WorkloadRecorder};

use std::sync::Arc;
use std::time::Duration;

/// Tuning for an [`Observability`] bundle. `Default` is sized for
/// tests and examples; long-running servers may want larger rings.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Finished request traces retained by the [`Tracer`] ring.
    pub trace_ring: usize,
    /// Entries retained by the [`SlowQueryLog`] ring.
    pub slow_ring: usize,
    /// Fixed slow-query threshold; `None` (default) tracks the
    /// interpolated p999 of the request-latency histogram adaptively.
    pub slow_threshold: Option<Duration>,
    /// Record every Nth request into the [`WorkloadRecorder`] (1 =
    /// every request).
    pub workload_sample_every: u64,
    /// Shards per workload sketch (lock-contention knob).
    pub workload_shards: usize,
    /// Distinct pairs per workload shard before new pairs are dropped.
    pub workload_per_shard_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_ring: 1024,
            slow_ring: 128,
            slow_threshold: None,
            workload_sample_every: 1,
            workload_shards: 16,
            workload_per_shard_cap: 4096,
        }
    }
}

/// The shared observability bundle one system (or test) arms across
/// its tiers: registry + tracer + slow-query log + workload recorder.
///
/// The request-latency histogram is registered as
/// `request_latency_ns`; [`Observability::record_request`] feeds it,
/// the slow-query log, and the trace ring in one call.
#[derive(Debug)]
pub struct Observability {
    registry: MetricsRegistry,
    tracer: Tracer,
    slow: SlowQueryLog,
    workload: WorkloadRecorder,
    latency: HistogramHandle,
}

impl Observability {
    pub fn new(cfg: ObsConfig) -> Self {
        let registry = MetricsRegistry::new();
        let latency = registry.histogram("request_latency_ns");
        Observability {
            tracer: Tracer::new(cfg.trace_ring),
            slow: SlowQueryLog::new(
                cfg.slow_ring,
                cfg.slow_threshold.map(|d| d.as_nanos() as u64),
            ),
            workload: WorkloadRecorder::new(
                cfg.workload_shards,
                cfg.workload_per_shard_cap,
                cfg.workload_sample_every,
            ),
            registry,
            latency,
        }
    }

    /// A default-configured bundle, ready to hand to
    /// `ServeConfig`/`MachineOptions`/`MaterializeConfig`.
    pub fn armed() -> Arc<Self> {
        Arc::new(Self::new(ObsConfig::default()))
    }

    /// A bundle with explicit tuning.
    pub fn with_config(cfg: ObsConfig) -> Arc<Self> {
        Arc::new(Self::new(cfg))
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow
    }

    pub fn workload(&self) -> &WorkloadRecorder {
        &self.workload
    }

    /// File one finished request: records its latency, runs it past
    /// the slow-query log, and retains the trace in the ring.
    pub fn record_request(&self, trace: RequestTrace) {
        self.latency.record(trace.total_ns);
        self.slow.observe(&trace, &self.latency);
        self.tracer.finish(trace);
    }

    /// Point-in-time export of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_request_feeds_all_three_instruments() {
        let obs = Observability::with_config(ObsConfig {
            slow_threshold: Some(Duration::from_micros(10)),
            ..ObsConfig::default()
        });
        let t = obs.tracer().mint();
        obs.record_request(RequestTrace {
            trace: t,
            source: 1,
            target: 2,
            epoch: 0,
            total_ns: 50_000, // 50us: over the 10us slow threshold
            outcome: TraceOutcome::Answered,
            spans: vec![SpanRecord::new(t, Stage::Evaluation, 0, 50_000)],
        });
        assert_eq!(obs.tracer().len(), 1);
        assert_eq!(obs.slow_queries().len(), 1);
        let snap = obs.snapshot();
        let lat = snap.histogram("request_latency_ns").expect("registered");
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.max_ns(), 50_000);
    }

    #[test]
    fn snapshot_includes_dynamic_registrations() {
        let obs = Observability::armed();
        obs.registry().counter("serve_requests_total").add(3);
        obs.registry().gauge("epoch").set(2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve_requests_total"), Some(3));
        assert_eq!(snap.gauge("epoch"), Some(2));
        assert!(snap.to_prometheus().contains("serve_requests_total 3"));
        assert!(snap.to_json().contains("\"epoch\": 2"));
    }

    #[test]
    fn workload_flows_through_the_bundle() {
        let obs = Observability::armed();
        assert!(obs.workload().should_sample());
        obs.workload().record_vertex_pair(4, 7);
        obs.workload().record_fragment_pair(0, 1);
        assert_eq!(obs.workload().top_vertex_pairs(1)[0].count, 1);
        assert_eq!(obs.workload().top_fragment_pairs(1)[0].count, 1);
    }
}
