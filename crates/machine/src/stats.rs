//! Machine-level accounting: the quantities the PRISMA experiments
//! (ref [14]) would have measured.

use std::fmt;
use std::time::Duration;

use ds_obs::{MetricsRegistry, Observability, ScopedCounter};

/// Per-site counters. All counters accumulate monotonically for the
/// lifetime of the machine — updates (delta messages) never reset them.
#[derive(Clone, Debug, Default)]
pub struct SiteStats {
    /// Subqueries served.
    pub subqueries: usize,
    /// Update deltas applied (edge changes / shortcut refreshes).
    pub deltas_applied: usize,
    /// Total processing time (subqueries + delta application).
    pub busy: Duration,
    /// Tuples produced (size of the shipped relations).
    pub tuples_produced: usize,
}

/// Whole-machine counters: a point-in-time view of the `machine_*`
/// registry counters plus the per-site breakdown
/// ([`crate::Machine::stats`]).
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Queries answered by the coordinator.
    pub queries: usize,
    /// Network updates applied by the coordinator.
    pub updates: usize,
    /// Request messages coordinator → sites (subqueries and deltas).
    pub messages_sent: usize,
    /// Response messages sites → coordinator.
    pub messages_received: usize,
    /// Total tuples shipped back for the final joins — small by design:
    /// "These joins will have relatively small operands (since the
    /// disconnection sets are small)" (§2.1).
    pub tuples_shipped: usize,
    /// Delta messages shipped for updates (subset of `messages_sent`).
    pub update_messages_sent: usize,
    /// Shortcut tuples shipped in deltas (the update maintenance
    /// communication volume — compare against `tuples_shipped`).
    pub update_tuples_shipped: usize,
    /// Site threads redeployed by the coordinator after a death or
    /// response timeout (supervision; the machine keeps serving).
    pub site_restarts: usize,
    /// Responses discarded because their tag matched no pending request —
    /// late answers from rounds that already failed over.
    pub stale_responses: usize,
    /// Per-site breakdown.
    pub sites: Vec<SiteStats>,
}

impl MachineStats {
    /// Fresh counters for `site_count` sites.
    pub fn new(site_count: usize) -> Self {
        MachineStats {
            sites: vec![SiteStats::default(); site_count],
            ..Default::default()
        }
    }

    /// Imbalance measure: max site busy time over mean site busy time
    /// (1.0 = perfectly balanced). The workload-balance goal of §2.2 made
    /// measurable.
    pub fn balance_ratio(&self) -> f64 {
        let busies: Vec<Duration> = self.sites.iter().map(|s| s.busy).collect();
        balance_ratio(&busies)
    }
}

/// Declares [`MachineCounters`] from the list of [`MachineStats`]
/// totals, so every total maps to exactly one `machine_<field>`
/// registry counter.
macro_rules! machine_counters {
    ($($field:ident),* $(,)?) => {
        /// The machine's counter store: one `machine_*` registry counter
        /// per [`MachineStats`] total, minted once at deploy and bumped
        /// by the coordinator at the event. The per-site breakdown is
        /// never exported and stays with the coordinator.
        pub(crate) struct MachineCounters {
            $(pub $field: ScopedCounter,)*
        }

        impl MachineCounters {
            /// Minted from the armed bundle's registry, or a private one.
            pub fn new(obs: Option<&Observability>) -> Self {
                let private = MetricsRegistry::new();
                let registry = obs.map_or(&private, Observability::registry);
                MachineCounters {
                    $($field: registry.scoped_counter(concat!("machine_", stringify!($field))),)*
                }
            }

            /// The typed [`MachineStats`] view: these totals plus `sites`.
            pub fn view(&self, sites: &[SiteStats]) -> MachineStats {
                MachineStats {
                    $($field: self.$field.get() as usize,)*
                    sites: sites.to_vec(),
                }
            }
        }
    };
}

machine_counters! {
    queries, updates, messages_sent, messages_received, tuples_shipped,
    update_messages_sent, update_tuples_shipped, site_restarts, stale_responses,
}

impl fmt::Display for MachineStats {
    /// One-line summary, like `MaterializeStats`:
    /// `3 sites: 12 queries, 2 updates, 40/40 msgs, 118 tuples shipped
    /// (9 in deltas), balance 1.31, 0 restarts`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sites: {} queries, {} updates, {}/{} msgs, {} tuples shipped \
             ({} in deltas), balance {:.2}, {} restarts",
            self.sites.len(),
            self.queries,
            self.updates,
            self.messages_sent,
            self.messages_received,
            self.tuples_shipped,
            self.update_tuples_shipped,
            self.balance_ratio(),
            self.site_restarts,
        )?;
        if self.stale_responses > 0 {
            write!(f, ", {} stale responses", self.stale_responses)?;
        }
        Ok(())
    }
}

/// Imbalance of a set of busy times: max over mean of the non-idle
/// entries, 1.0 for a perfectly balanced (or fully idle) set. Shared by
/// [`MachineStats::balance_ratio`] (per-site busy) and the serve
/// subsystem's per-worker report.
pub fn balance_ratio(busies: &[Duration]) -> f64 {
    let busies: Vec<f64> = busies
        .iter()
        .map(|b| b.as_secs_f64())
        .filter(|&b| b > 0.0)
        .collect();
    if busies.is_empty() {
        return 1.0;
    }
    let max = busies.iter().cloned().fold(0.0, f64::max);
    let mean = busies.iter().sum::<f64>() / busies.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_ratio_of_equal_sites_is_one() {
        let mut s = MachineStats::new(2);
        s.sites[0].busy = Duration::from_millis(10);
        s.sites[1].busy = Duration::from_millis(10);
        assert!((s.balance_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balance_ratio_detects_skew() {
        let mut s = MachineStats::new(2);
        s.sites[0].busy = Duration::from_millis(30);
        s.sites[1].busy = Duration::from_millis(10);
        assert!(s.balance_ratio() > 1.4);
    }

    #[test]
    fn empty_machine_is_balanced() {
        assert_eq!(MachineStats::new(0).balance_ratio(), 1.0);
        assert_eq!(MachineStats::new(3).balance_ratio(), 1.0);
    }

    #[test]
    fn display_is_one_line_with_every_headline_number() {
        let mut s = MachineStats::new(3);
        s.queries = 12;
        s.updates = 2;
        s.messages_sent = 40;
        s.messages_received = 40;
        s.tuples_shipped = 118;
        s.update_tuples_shipped = 9;
        let line = s.to_string();
        assert!(!line.contains('\n'));
        for needle in [
            "3 sites",
            "12 queries",
            "2 updates",
            "40/40 msgs",
            "118 tuples",
        ] {
            assert!(line.contains(needle), "{line}");
        }
        assert!(!line.contains("stale"), "stale only shown when non-zero");
        s.stale_responses = 1;
        assert!(s.to_string().contains("1 stale"));
    }
}
