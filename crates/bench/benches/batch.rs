//! `query_batch` amortization across execution backends.
//!
//! Compares, on both `TcEngine` backends (inline and site-threads),
//! answering a workload of shortest-path requests one query at a time vs
//! through `query_batch`, which enumerates fragment chains once per
//! (source-fragment, target-fragment) pair. Both paths read the interior
//! segment relations of each chain from the snapshot's transit memos,
//! so after the first query only the endpoint subqueries reach a site.
//!
//! Emits a committed perf snapshot to `BENCH_batch.json` (repo root).
//!
//! ```text
//! cargo bench -p ds-bench --bench batch
//! ```

use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};
use ds_bench::harness::{render, write_json, Bench};
use ds_closure::executor::ExecutionMode;
use ds_closure::EngineConfig;
use ds_fragment::CrossingPolicy;
use ds_gen::{generate_transportation, TransportationConfig};
use ds_graph::NodeId;

/// A workload whose requests concentrate on few fragment pairs — the
/// shape batching is designed for (many point-to-point queries between
/// two regions, e.g. a morning of Amsterdam->Milan lookups).
fn workload(nodes: usize, queries: usize) -> Vec<QueryRequest> {
    let n = nodes as u32;
    (0..queries as u32)
        .map(|i| QueryRequest::new(NodeId(i * 7 % 20), NodeId(n - 1 - (i * 11 % 20))))
        .collect()
}

fn main() {
    let clusters = 6usize;
    let nodes_per_cluster = 30;
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster,
        target_edges_per_cluster: nodes_per_cluster * 4,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, 1);
    let labels = g.cluster_of.clone().unwrap();
    let fragmenter = Fragmenter::ByLabels {
        labels,
        parts: clusters,
        policy: CrossingPolicy::LowerBlock,
    };
    let requests = workload(g.nodes, 64);

    let mut group = Bench::new("query-batch").sample_size(15);
    let mut amortization = Vec::new();
    for backend in [Backend::Inline, Backend::SiteThreads] {
        let mut sys = System::builder()
            .graph(&g)
            .fragmenter(fragmenter.clone())
            .backend(backend)
            .config(EngineConfig {
                mode: ExecutionMode::Sequential,
                ..EngineConfig::default()
            })
            .build()
            .expect("system deploys");
        let name = sys.backend_name();

        group.run(&format!("{name}/single-queries"), || {
            let mut total = 0u64;
            for req in &requests {
                total += sys.shortest_path(req.source, req.target).cost.unwrap_or(0);
            }
            total
        });
        group.run(&format!("{name}/query-batch"), || {
            sys.query_batch(&requests).answers.len()
        });

        let stats = sys.query_batch(&requests).stats;
        amortization.push(format!(
            "{name}: {} queries -> {} plans computed ({} reused), \
             {} segments computed ({} from the memo), {:.0}% amortized",
            stats.queries,
            stats.plans_computed,
            stats.plans_reused,
            stats.segments_computed,
            stats.segments_memoized,
            stats.amortization() * 100.0
        ));
    }

    println!("{}", render(group.results()));
    for line in &amortization {
        println!("{line}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    write_json(path, group.results()).expect("write perf snapshot");
    println!("\nwrote {path}");
}
