//! Quickstart: fragment a small network, deploy a `System`, ask questions
//! — then swap the execution backend without touching the query code.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use discset::fragment::linear::LinearConfig;
use discset::gen::deterministic::grid;
use discset::graph::NodeId;
use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};

fn main() {
    // A 12x4 grid road network (unit costs), nodes numbered row-major.
    let network = grid(12, 4);
    println!(
        "network: {} nodes, {} connections",
        network.nodes,
        network.connection_count()
    );

    let (a, b) = (NodeId(0), NodeId(47)); // opposite corners

    // Pick generator output x fragmenter x backend declaratively; the
    // returned System implements TcEngine, so the query code below is
    // identical for the in-process engine and the site-thread machine.
    for backend in [Backend::Inline, Backend::SiteThreads] {
        let mut sys = System::builder()
            .graph(&network)
            .fragmenter(Fragmenter::Linear(LinearConfig {
                fragments: 4,
                ..Default::default()
            }))
            .backend(backend)
            .build()
            .expect("grid has edges and coordinates");

        println!(
            "\n== backend: {} ({} sites) ==",
            sys.backend_name(),
            sys.site_count()
        );
        if backend == Backend::Inline {
            // The fragmentation is the same on every backend; print it once.
            println!("fragmentation: {}", sys.fragmentation().metrics());
            for (pair, nodes) in sys.fragmentation().disconnection_sets() {
                println!("  DS{pair:?} = {nodes:?}");
            }
        }

        let answer = sys.shortest_path(a, b);
        println!(
            "shortest path {}->{}: cost {:?} via fragment chain {:?}",
            a, b, answer.cost, answer.best_chain
        );
        println!(
            "  phase one: {} site subqueries, {} tuples shipped",
            answer.stats.site_queries, answer.stats.tuples_shipped
        );
        assert!(sys.connected(a, b));

        // Batch evaluation: chain planning is computed once per fragment
        // pair and shared; on both backends the interior segment
        // relations come from the snapshot's memo once any query (in this
        // batch or an earlier one) has evaluated them.
        let requests: Vec<QueryRequest> = (0..8u32)
            .map(|i| QueryRequest::new(NodeId(i), NodeId(47 - i)))
            .collect();
        let batch = sys.query_batch(&requests);
        println!(
            "batch of {}: {} plans computed, {} reused; {} segments computed \
             ({} from the memo; {:.0}% of work amortized)",
            batch.stats.queries,
            batch.stats.plans_computed,
            batch.stats.plans_reused,
            batch.stats.segments_computed,
            batch.stats.segments_memoized,
            batch.stats.amortization() * 100.0
        );
    }
}
