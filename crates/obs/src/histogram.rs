//! A fixed-bucket latency histogram: power-of-two buckets, O(1) record,
//! quantile read-out for p50/p99 reporting.
//!
//! Dependency-free by design (the workspace is offline): 64 geometric
//! buckets cover the full `u64` nanosecond range with ≤ 50% relative
//! error per bucket — plenty for serving-latency percentiles, where the
//! interesting signal is orders of magnitude, not nanoseconds.
//!
//! Every tier (and the [`crate::registry`] atomics) shares this one
//! histogram shape; `ds_serve` re-exports it.

/// Histogram over nanosecond samples with power-of-two bucket edges:
/// bucket `i` holds samples in `[2^i, 2^(i+1))`.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a histogram from raw parts (bucket counts plus the exact
    /// aggregates). Used by [`crate::registry::AtomicHistogram`] to
    /// snapshot its atomics into the plain form.
    pub(crate) fn from_parts(buckets: [u64; 64], sum_ns: u64, max_ns: u64) -> Self {
        let count = buckets.iter().sum();
        LatencyHistogram {
            buckets,
            count,
            sum_ns,
            max_ns,
        }
    }

    /// Record one sample (nanoseconds).
    pub fn record(&mut self, ns: u64) {
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest sample seen (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// The `q`-quantile (`0.0..=1.0`), as the geometric midpoint of the
    /// bucket holding the rank — e.g. `quantile_ns(0.99)` is the p99.
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Midpoint of [2^i, 2^(i+1)): 1.5 * 2^i.
                let lo = 1u64 << i;
                return (lo + lo / 2).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The `q`-quantile (`0.0..=1.0`) with linear interpolation inside
    /// the rank's bucket: where [`Self::quantile_ns`] always answers the
    /// bucket midpoint, this spreads the bucket's samples uniformly over
    /// `[2^i, 2^(i+1))` and reads off the rank's position — tighter for
    /// tail quantiles like p999, where a midpoint answer can be off by
    /// 50%. Clamped to `max_ns` so `quantile(1.0)` is the exact maximum.
    /// Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = (1u64 << i) as f64;
                // Position of the rank inside this bucket, in (0, 1].
                let within = (rank - seen) as f64 / c as f64;
                let value = lo + lo * within;
                return value.min(self.max_ns as f64);
            }
            seen += c;
        }
        self.max_ns as f64
    }

    /// Interpolated p999 in nanoseconds — the slow-query log's default
    /// adaptive threshold.
    pub fn p999_ns(&self) -> u64 {
        self.quantile(0.999).round() as u64
    }

    /// The samples recorded after `earlier`, an older snapshot of the
    /// same histogram. Counts and the sum subtract exactly; the maximum
    /// is capped at the top edge of the highest bucket that gained
    /// samples (exact when `earlier` is empty).
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let buckets: [u64; 64] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i]));
        let max_ns = buckets
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| self.max_ns.min(((1u128 << (i + 1)) - 1) as u64));
        Self::from_parts(buckets, self.sum_ns.saturating_sub(earlier.sum_ns), max_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p999_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        // 99 fast samples around 1µs, one slow 1ms outlier.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.5);
        assert!((512..2048).contains(&p50), "p50 {p50} in the 1µs bucket");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 < 10_000, "p99 {p99} still fast");
        let p100 = h.quantile_ns(1.0);
        assert!(p100 >= 500_000, "max quantile {p100} sees the outlier");
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn since_keeps_only_the_later_samples() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        let earlier = h.clone();
        h.record(100);
        h.record(300);
        let later = h.since(&earlier);
        assert_eq!(later.count(), 2);
        assert_eq!(later.sum_ns(), 400);
        assert_eq!(later.max_ns(), 511, "capped at the [256, 512) bucket");
        assert_eq!(h.since(&LatencyHistogram::new()).max_ns(), 1_000_000);
    }

    #[test]
    fn extreme_samples_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(0); // clamped into the first bucket
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) > 0);
        assert!(h.quantile(1.0) > 0.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        // 1000 samples all exactly at a bucket's lower edge.
        for _ in 0..1000 {
            h.record(1024);
        }
        // Every quantile of a constant distribution is that constant:
        // interpolation may wander inside [1024, 2048) but the max_ns
        // clamp pins it to the exact sample value.
        for q in [0.0, 0.001, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 1024.0, "q={q}");
        }
        assert_eq!(h.p999_ns(), 1024);
    }

    #[test]
    fn interpolated_quantile_is_monotone_and_bracketed() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1_000); // 1µs .. 1ms
        }
        let mut prev = 0.0;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= prev, "monotone at q={q}: {v} >= {prev}");
            assert!(v <= h.max_ns() as f64, "bracketed at q={q}");
            prev = v;
        }
        // p999 of 1..=1000 µs is in the top bucket and beats the p50.
        assert!(h.p999_ns() > h.quantile(0.5) as u64);
        assert!(h.p999_ns() <= h.max_ns());
    }

    #[test]
    fn bucket_boundary_cases() {
        let mut h = LatencyHistogram::new();
        // Exact powers of two land in the bucket they open.
        h.record(1);
        h.record(2);
        h.record(4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        // One below a power of two stays in the bucket below.
        let mut g = LatencyHistogram::new();
        g.record(1023);
        g.record(1024);
        assert_eq!(g.buckets()[9], 1, "1023 in [512, 1024)");
        assert_eq!(g.buckets()[10], 1, "1024 in [1024, 2048)");
        // Interpolated quantiles never escape [min bucket lo, max_ns].
        assert!(g.quantile(0.0) >= 512.0);
        assert!(g.quantile(1.0) <= 1024.0);
    }
}
