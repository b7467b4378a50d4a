//! Demonstrate the parallel evaluation on every execution backend and
//! the phase-one independence the paper's speed-up rests on.
//!
//! Both backends — the inline engine and the PRISMA/DB-style
//! message-passing machine with one thread per site — are deployed
//! through the `System` builder and timed through the one `TcEngine`
//! code path.
//!
//! ```text
//! cargo run --release --example parallel_speedup
//! ```

use std::time::Instant;

use discset::closure::baseline;
use discset::fragment::CrossingPolicy;
use discset::gen::{generate_transportation, TransportationConfig};
use discset::graph::NodeId;
use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};

fn main() {
    for clusters in [2usize, 4, 8] {
        let nodes_per_cluster = 40;
        let cfg = TransportationConfig {
            clusters,
            nodes_per_cluster,
            target_edges_per_cluster: nodes_per_cluster * 4,
            ..TransportationConfig::default()
        };
        let g = generate_transportation(&cfg, 1);
        let labels = g.cluster_of.clone().expect("labels");
        let fragmenter = Fragmenter::ByLabels {
            labels,
            parts: clusters,
            policy: CrossingPolicy::LowerBlock,
        };
        let csr = g.closure_graph();

        // End-to-end query across the whole chain.
        let (x, y) = (NodeId(0), NodeId((g.nodes - 3) as u32));
        let want = baseline::shortest_path_cost(&csr, x, y);
        println!("{clusters} fragments: query {x}->{y}, cost {want:?}");

        // One deployment per backend; the query loop never changes.
        let variants = [
            ("inline", Backend::Inline),
            ("site threads", Backend::SiteThreads),
        ];
        for (name, backend) in variants {
            let mut sys = System::builder()
                .graph(&g)
                .fragmenter(fragmenter.clone())
                .backend(backend)
                .build()
                .expect("system deploys");

            let t = Instant::now();
            let a = sys.shortest_path(x, y);
            let elapsed = t.elapsed();
            assert_eq!(a.cost, want, "{name} must match the baseline");

            // Ideal phase-one speedup from the answer's site accounting:
            // total site work over the longest single site subquery.
            let ideal = a.stats.total_site_busy.as_secs_f64()
                / a.stats.max_site_busy.as_secs_f64().max(1e-12);
            println!(
                "  {name:<18} {elapsed:>10?}  {} site subqueries, {} tuples shipped, \
                 ideal phase-one speedup {ideal:.2}x",
                a.stats.site_queries, a.stats.tuples_shipped
            );

            // Batch the same chain 16 times: planning and interior
            // segments amortize, only the endpoint subqueries repeat.
            let requests: Vec<QueryRequest> = (0..16u32)
                .map(|i| {
                    QueryRequest::new(NodeId(i % 5), NodeId((g.nodes - 3 - i as usize % 5) as u32))
                })
                .collect();
            let t = Instant::now();
            let batch = sys.query_batch(&requests);
            println!(
                "  {:<18} {:>10?}  batch of {}: {:.0}% of planning/segment work amortized",
                "",
                t.elapsed(),
                batch.stats.queries,
                batch.stats.amortization() * 100.0
            );
        }
    }
    println!("\nphase one needs no communication; tuples move only for the final joins.");
}
