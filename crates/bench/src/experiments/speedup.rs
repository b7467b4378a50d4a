//! The §2.1 speed-up claim: "For good fragmentations, it gives a linear
//! speed-up."
//!
//! We fragment chain transportation graphs by their ground-truth clusters
//! (the "good fragmentation") and time end-to-end shortest-path queries
//! three ways: the centralized baseline (global Dijkstra) plus every
//! `TcEngine` backend — the disconnection set approach on one processor,
//! and on the message-passing machine simulation with one persistent
//! thread per site. All backends are deployed through the `System` facade
//! and timed through one trait-driven code path. The speed-up measure is
//! the *ideal* speed-up `Σ site busy / max site busy` — what a
//! PRISMA-style machine with free threads would get from phase one
//! (deterministic, noise-free); the wall-clock times are noisy on a
//! shared host and reported for reference.

use std::time::Instant;

use discset::{Backend, Fragmenter, System, TcEngine};
use ds_closure::baseline;
use ds_fragment::CrossingPolicy;
use ds_gen::{generate_transportation, TransportationConfig};
use ds_graph::NodeId;

/// One row of the speed-up experiment.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Fragments = processors (clusters of the generated graph).
    pub fragments: usize,
    /// Mean centralized query time (µs).
    pub centralized_us: f64,
    /// Mean disconnection-set query time, sequential phase one (µs).
    pub ds_sequential_us: f64,
    /// Mean query time on the persistent-thread machine simulation (µs).
    pub machine_us: f64,
    /// Mean ideal speed-up from site accounting (Σ busy / max busy).
    pub ideal_speedup: f64,
    /// Queries timed.
    pub queries: usize,
}

/// Run the speed-up experiment for each cluster count.
///
/// Queries go from the first cluster to the last (the longest chains —
/// the case the approach is designed for).
pub fn speedup(cluster_counts: &[usize], nodes_per_cluster: usize, seed: u64) -> Vec<SpeedupRow> {
    cluster_counts
        .iter()
        .map(|&k| one_row(k, nodes_per_cluster, seed))
        .collect()
}

fn one_row(clusters: usize, nodes_per_cluster: usize, seed: u64) -> SpeedupRow {
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster,
        target_edges_per_cluster: nodes_per_cluster * 4,
        connections_per_link: 2,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    let labels = g
        .cluster_of
        .clone()
        .expect("transportation graphs carry labels");
    let fragmenter = Fragmenter::ByLabels {
        labels,
        parts: clusters,
        policy: CrossingPolicy::LowerBlock,
    };
    let csr = g.closure_graph();

    // Every backend variant, deployed through the System facade. The
    // timing loop below drives them all through `&mut dyn TcEngine`.
    let mut variants: Vec<System> = [Backend::Inline, Backend::SiteThreads]
        .into_iter()
        .map(|backend| {
            System::builder()
                .graph(&g)
                .fragmenter(fragmenter.clone())
                .backend(backend)
                .build()
                .expect("system deploys")
        })
        .collect();

    // End-to-end queries: first cluster -> last cluster.
    let m = nodes_per_cluster as u32;
    let queries: Vec<(NodeId, NodeId)> = (0..10u32)
        .map(|i| {
            (
                NodeId(i % m),
                NodeId((clusters as u32 - 1) * m + (i * 3) % m),
            )
        })
        .collect();

    let mut centralized_us = 0.0;
    let mut backend_us = [0.0f64; 2];
    let mut ideal = 0.0;
    for &(x, y) in &queries {
        let t = Instant::now();
        let want = baseline::shortest_path_cost(&csr, x, y);
        centralized_us += t.elapsed().as_secs_f64() * 1e6;

        for (k, sys) in variants.iter_mut().enumerate() {
            let t = Instant::now();
            let a = sys.shortest_path(x, y);
            backend_us[k] += t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(
                a.cost,
                want,
                "{} answer must match baseline",
                sys.backend_name()
            );
            if k == 0 {
                // Ideal phase-one speedup from the sequential run's
                // deterministic site accounting.
                let max = a.stats.max_site_busy.as_secs_f64();
                if max > 0.0 {
                    ideal += a.stats.total_site_busy.as_secs_f64() / max;
                }
            }
        }
    }
    let n = queries.len() as f64;
    SpeedupRow {
        fragments: clusters,
        centralized_us: centralized_us / n,
        ds_sequential_us: backend_us[0] / n,
        machine_us: backend_us[1] / n,
        ideal_speedup: ideal / n,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_speedup_grows_with_fragments() {
        let rows = speedup(&[2, 4], 20, 7);
        assert_eq!(rows.len(), 2);
        // More fragments on the chain = more sites working concurrently.
        assert!(
            rows[1].ideal_speedup > rows[0].ideal_speedup,
            "ideal speedup should grow: {} vs {}",
            rows[0].ideal_speedup,
            rows[1].ideal_speedup
        );
        // With k fragments on a chain, phase one is k-way parallel, so the
        // ideal speedup should approach the fragment count.
        assert!(rows[1].ideal_speedup > 1.5);
    }

    #[test]
    fn all_query_answers_validated_against_baseline() {
        // one_row asserts equality internally; reaching here means all
        // queries matched on every backend.
        let rows = speedup(&[3], 15, 11);
        assert_eq!(rows[0].queries, 10);
    }
}
