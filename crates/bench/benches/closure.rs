//! Query latency: disconnection set approach vs the centralized
//! baseline — the end-to-end comparison behind the paper's speed-up
//! claim.
//!
//! ```text
//! cargo bench -p ds-bench --bench closure
//! ```

use ds_bench::harness::{render, Bench};
use ds_closure::baseline;
use ds_closure::engine::{DisconnectionSetEngine, EngineConfig};
use ds_fragment::{semantic, CrossingPolicy};
use ds_gen::{generate_transportation, TransportationConfig};
use ds_graph::NodeId;

fn bench_closure(results: &mut Vec<ds_bench::harness::BenchResult>) {
    let mut group = Bench::new("closure").sample_size(20);
    for clusters in [4usize, 8] {
        let nodes_per_cluster = 40;
        let cfg = TransportationConfig {
            clusters,
            nodes_per_cluster,
            target_edges_per_cluster: nodes_per_cluster * 4,
            ..TransportationConfig::default()
        };
        let g = generate_transportation(&cfg, 1);
        let labels = g.cluster_of.clone().unwrap();
        let frag = semantic::by_labels(
            g.nodes,
            &g.connections,
            &labels,
            clusters,
            CrossingPolicy::LowerBlock,
        )
        .unwrap();
        let csr = g.closure_graph();
        let seq = DisconnectionSetEngine::build(csr.clone(), frag, true, EngineConfig::default())
            .unwrap();
        // First cluster to last cluster: the longest chain.
        let (x, y) = (
            NodeId(0),
            NodeId((clusters as u32 - 1) * nodes_per_cluster as u32 + 7),
        );

        group.run(&format!("centralized-dijkstra/{clusters}"), || {
            baseline::shortest_path_cost(&csr, x, y)
        });
        group.run(&format!("ds-sequential/{clusters}"), || {
            seq.shortest_path(x, y).cost
        });
    }
    results.extend(group.into_results());
}

fn bench_precompute(results: &mut Vec<ds_bench::harness::BenchResult>) {
    // The paper's acknowledged cost: "the pre-processing required for
    // building the complementary information".
    let mut group = Bench::new("precompute").sample_size(10);
    let cfg = TransportationConfig::table1();
    let g = generate_transportation(&cfg, 1);
    let labels = g.cluster_of.clone().unwrap();
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        4,
        CrossingPolicy::LowerBlock,
    )
    .unwrap();
    let csr = g.closure_graph();
    group.run("engine-build-4x25", || {
        DisconnectionSetEngine::build(csr.clone(), frag.clone(), true, EngineConfig::default())
            .unwrap()
    });
    results.extend(group.into_results());
}

fn main() {
    let mut results = Vec::new();
    bench_closure(&mut results);
    bench_precompute(&mut results);
    println!("{}", render(&results));
}
