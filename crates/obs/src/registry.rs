//! The metrics registry: named, lock-free counters, gauges, and atomic
//! histograms, with point-in-time snapshot export as JSON and
//! Prometheus text exposition.
//!
//! The registry is every tier's one counter store: a metric handle is
//! an `Arc` around one or more atomics, so bumping it is a single
//! relaxed atomic op; tiers mint their handles once at start and read
//! their stats structs back from them. A [`ScopedCounter`] reads from
//! its minting, so a component sharing a registry with its
//! predecessors still reports its own totals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LatencyHistogram;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic; all operations are `Relaxed` — counters are statistics, not
/// synchronization.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A freestanding counter, not attached to any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A [`Counter`] handle that reads relative to its value when it was
/// minted ([`MetricsRegistry::scoped_counter`]): bumps land in the
/// shared atomic, so the registry sees every event, while
/// [`ScopedCounter::get`] reports only the events since minting.
#[derive(Clone, Debug)]
pub struct ScopedCounter {
    counter: Counter,
    base: u64,
}

impl ScopedCounter {
    #[inline]
    pub fn inc(&self) {
        self.counter.inc();
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.counter.add(n);
    }

    /// Events counted through any handle since this one was minted.
    pub fn get(&self) -> u64 {
        self.counter.get().saturating_sub(self.base)
    }
}

/// A point-in-time value (queue depth, current epoch, …). Same cost
/// model as [`Counter`]; `set` overwrites.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A freestanding gauge, not attached to any registry.
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Concurrent power-of-two-bucket histogram: the atomic twin of
/// [`LatencyHistogram`]. `record` is three relaxed atomic ops plus a
/// `fetch_max`; [`HistogramHandle::snapshot`] folds it back into the
/// plain form for quantile read-out.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    #[inline]
    fn record(&self, ns: u64) {
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        LatencyHistogram::from_parts(
            buckets,
            self.sum_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// Clonable handle on a shared [`AtomicHistogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// A freestanding histogram, not attached to any registry.
    pub fn new() -> Self {
        HistogramHandle::default()
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.0.record(ns);
    }

    /// Fold the atomics into a plain [`LatencyHistogram`] for quantile
    /// read-out. Concurrent recorders may land between bucket loads;
    /// the snapshot is internally consistent enough for statistics.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.snapshot()
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

/// Name → metric map. Registration is get-or-create: asking twice for
/// the same name returns handles on the same atomic, which is how
/// several workers share one counter. Registration takes a lock;
/// components therefore mint handles once at startup and bump the
/// lock-free handles on the hot path.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`. If the name is already
    /// taken by a different metric kind, a detached handle is returned
    /// (recorded values are then invisible to snapshots — a naming bug,
    /// not a crash).
    pub fn counter(&self, name: &str) -> Counter {
        match lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// [`Self::counter`], read relative to its current value (see
    /// [`ScopedCounter`]).
    pub fn scoped_counter(&self, name: &str) -> ScopedCounter {
        let counter = self.counter(name);
        ScopedCounter {
            base: counter.get(),
            counter,
        }
    }

    /// Get or create the gauge named `name` (kind mismatch → detached,
    /// as for [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get or create the histogram named `name` (kind mismatch →
    /// detached, as for [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match lock(&self.metrics)
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramHandle::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => HistogramHandle::new(),
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in lock(&self.metrics).iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// A point-in-time export of a [`MetricsRegistry`]: all counters,
/// gauges, and histograms, sorted by name, renderable as JSON
/// ([`Self::to_json`]) or Prometheus text exposition
/// ([`Self::to_prometheus`]).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)`, sorted by name.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else
/// becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Look up a counter by name (testing/scripting convenience).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render as a JSON object (hand-rolled; the workspace is offline
    /// and dependency-free). Histograms export their aggregates and
    /// interpolated p50/p99/p999 rather than raw buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", sanitize(name), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", sanitize(name), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \
                 \"mean_ns\": {:.1}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \"p999_ns\": {}}}",
                sanitize(name),
                h.count(),
                h.sum_ns(),
                h.max_ns(),
                h.mean_ns(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.p999_ns(),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Render as Prometheus text exposition format. Counters become
    /// `counter`, gauges `gauge`, histograms `histogram` with
    /// cumulative power-of-two `le` buckets plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let buckets = h.buckets();
            let last = buckets.iter().rposition(|&c| c != 0);
            let mut cumulative = 0u64;
            if let Some(last) = last {
                for (i, &c) in buckets.iter().enumerate().take(last + 1) {
                    cumulative += c;
                    // Bucket i holds [2^i, 2^(i+1)): upper bound 2^(i+1).
                    let le = (1u128 << (i + 1)).to_string();
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum_ns()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_atomic_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests").get(), 3);
        let g = reg.gauge("depth");
        g.set(7);
        assert_eq!(reg.gauge("depth").get(), 7);
        let h = reg.histogram("lat");
        h.record(1000);
        assert_eq!(reg.histogram("lat").snapshot().count(), 1);
    }

    #[test]
    fn scoped_counter_reads_from_its_minting() {
        let reg = MetricsRegistry::new();
        reg.counter("served").add(5);
        let scoped = reg.scoped_counter("served");
        assert_eq!(scoped.get(), 0);
        scoped.add(2);
        reg.counter("served").inc();
        assert_eq!(scoped.get(), 3, "every handle's bumps count");
        assert_eq!(reg.snapshot().counter("served"), Some(8));
    }

    #[test]
    fn kind_mismatch_detaches_instead_of_clobbering() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        let g = reg.gauge("x"); // wrong kind: detached handle
        g.set(99);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.gauge("x"), None);
    }

    #[test]
    fn snapshot_is_sorted_and_point_in_time() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.counter("a").add(1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        reg.counter("a").add(10);
        assert_eq!(snap.counter("a"), Some(1), "snapshot does not move");
    }

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let h = HistogramHandle::new();
        let mut plain = LatencyHistogram::new();
        for i in 1..500u64 {
            let ns = i * 313;
            h.record(ns);
            plain.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.sum_ns(), plain.sum_ns());
        assert_eq!(snap.max_ns(), plain.max_ns());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(snap.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("hits");
            let h = reg.histogram("lat");
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i + 1);
                }
            }));
        }
        for t in handles {
            t.join().expect("recorder thread");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(4000));
        assert_eq!(snap.histogram("lat").map(|h| h.count()), Some(4000));
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(5);
        reg.gauge("epoch").set(3);
        let h = reg.histogram("latency_ns");
        h.record(3); // bucket [2,4) → le=4
        h.record(1000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("serve_requests 5"));
        assert!(text.contains("# TYPE epoch gauge\nepoch 3"));
        assert!(text.contains("latency_ns_bucket{le=\"4\"} 1"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_ns_sum 1003"));
        assert!(text.contains("latency_ns_count 2"));
        // Cumulative counts are non-decreasing in le order.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("latency_ns_bucket")) {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("bucket count");
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn json_export_parses_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(1);
        reg.gauge("g").set(2);
        reg.histogram("h").record(100);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"c\": 1"));
        assert!(json.contains("\"g\": 2"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
