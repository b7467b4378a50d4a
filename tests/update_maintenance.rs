//! Update maintenance contracts, pinned on hand-built topologies:
//! adversarial deletions (bridges, disconnection-set crossings, last
//! parallel edges) must fall back with the right reason and stay exact,
//! and the `UpdateReport` / `BatchStats` accounting must produce *exact*
//! counts on a 3-fragment line graph — on both backends.

use discset::closure::baseline;
use discset::fragment::Fragmentation;
use discset::graph::{CsrGraph, Edge, NodeId};
use discset::{
    Backend, FallbackReason, Fragmenter, NetworkUpdate, QueryRequest, System, TcEngine,
    UpdateReport,
};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn edges(list: &[(u32, u32, u64)]) -> Vec<Edge> {
    list.iter()
        .map(|&(a, b, c)| Edge::new(NodeId(a), NodeId(b), c))
        .collect()
}

/// Deploy both backends over an explicit fragment list.
fn both_backends(node_count: usize, fragments: Vec<Vec<Edge>>) -> Vec<System> {
    [Backend::Inline, Backend::SiteThreads]
        .into_iter()
        .map(|backend| {
            let frag =
                Fragmentation::new(node_count, fragments.clone(), vec![vec![]; fragments.len()]);
            System::builder()
                .network(node_count, fragments.concat())
                .fragmenter(Fragmenter::Prebuilt(frag))
                .backend(backend)
                .build()
                .unwrap()
        })
        .collect()
}

/// The current global closure graph of a maintained system (union of its
/// fragments, symmetric expansion).
fn current_graph(sys: &System) -> CsrGraph {
    let connections: Vec<Edge> = sys
        .fragmentation()
        .fragments()
        .iter()
        .flat_map(|f| f.edges().iter().copied())
        .collect();
    CsrGraph::from_edges(
        sys.fragmentation().node_count(),
        &discset::gen::output::expand_connections(&connections, true),
    )
}

fn assert_exact_everywhere(sys: &mut System, label: &str) {
    let csr = current_graph(sys);
    let count = csr.node_count() as u32;
    for x in 0..count {
        for y in 0..count {
            assert_eq!(
                sys.shortest_path(n(x), n(y)).cost,
                baseline::shortest_path_cost(&csr, n(x), n(y)),
                "{label}: {x}->{y}"
            );
        }
    }
}

/// Line 0-1-2-3-4-5-6 (unit costs) in three fragments sharing nodes 2
/// and 4 — the hand-built accounting fixture. Site 1 stores exactly two
/// shortcuts: (2,4) and (4,2).
fn three_fragment_line() -> Vec<Vec<Edge>> {
    vec![
        edges(&[(0, 1, 1), (1, 2, 1)]),
        edges(&[(2, 3, 1), (3, 4, 1)]),
        edges(&[(4, 5, 1), (5, 6, 1)]),
    ]
}

/// Like the line, but fragment 1 has a costlier parallel corridor
/// 2-8-4, so deleting 3-4 re-routes instead of disconnecting.
fn line_with_detour() -> Vec<Vec<Edge>> {
    vec![
        edges(&[(0, 1, 1), (1, 2, 1)]),
        edges(&[(2, 3, 1), (3, 4, 1), (2, 8, 2), (8, 4, 2)]),
        edges(&[(4, 5, 1), (5, 6, 1)]),
    ]
}

#[test]
fn bridge_deletion_disconnects_and_falls_back() {
    for mut sys in both_backends(7, three_fragment_line()) {
        let name = sys.backend_name();
        assert!(sys.connected(n(0), n(6)), "{name}: connected before");
        // (3,4) is a bridge: its removal cuts fragments 0/1 off from 2.
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(3),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert!(report.full_recompute, "{name}: {report:?}");
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::Disconnected),
            "{name}"
        );
        assert_eq!(
            report.sites_touched, 3,
            "{name}: fallback reships all sites"
        );
        assert!(!sys.connected(n(0), n(6)), "{name}: disconnected after");
        assert!(sys.connected(n(0), n(3)), "{name}: left half intact");
        assert!(sys.connected(n(4), n(6)), "{name}: right half intact");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn disconnection_set_crossing_deletion_falls_back() {
    // Fragment 1 connects border 2 to border 4 both via node 3 and via a
    // direct (costlier) edge; deleting the direct edge changes nothing
    // except removing a DS-crossing connection.
    let mut frags = three_fragment_line();
    frags[1].push(Edge::new(n(2), n(4), 5));
    for mut sys in both_backends(7, frags) {
        let name = sys.backend_name();
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(2),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert!(report.full_recompute, "{name}: {report:?}");
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::DisconnectionSetCrossing),
            "{name}"
        );
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn deleting_last_parallel_edge_between_border_nodes_falls_back() {
    // Fragment 1 is nothing but two parallel 2-4 connections; removing
    // the pair (one call removes every matching tuple) severs the only
    // crossing and must report the crossing fallback, with answers exact.
    let frags = vec![
        edges(&[(0, 1, 1), (1, 2, 1)]),
        edges(&[(2, 4, 5), (2, 4, 7)]),
        edges(&[(4, 5, 1), (5, 6, 1)]),
    ];
    for mut sys in both_backends(7, frags) {
        let name = sys.backend_name();
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(9), "{name}");
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(2),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert!(report.full_recompute, "{name}: {report:?}");
        assert_eq!(
            report.fallback_reason,
            Some(FallbackReason::DisconnectionSetCrossing),
            "{name}"
        );
        assert!(!sys.connected(n(2), n(4)), "{name}: crossing severed");
        assert!(!sys.connected(n(0), n(6)), "{name}");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn exact_accounting_on_the_line_graph() {
    // Fragment 1 stores the only shortcuts: (2,4) and (4,2), both cost 2.
    for mut sys in both_backends(9, line_with_detour()) {
        let name = sys.backend_name();
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");

        // Deleting 3-4 re-routes through 2-8-4: both shortcuts repaired
        // upward (2 -> 4), only site 1 touched, its 2 tuples reshipped.
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(3),
                dst: n(4),
                owner: 1,
            })
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                shortcuts_improved: 0,
                shortcuts_repaired: 2,
                full_recompute: false,
                fallback_reason: None,
                sites_touched: 1,
                tuples_shipped: 2,
            },
            "{name}: delete accounting"
        );
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(8), "{name}");

        // Re-inserting 3-4 improves both shortcuts back down (4 -> 2).
        let report = sys
            .update(&NetworkUpdate::Insert {
                edge: Edge::new(n(3), n(4), 1),
                owner: 1,
            })
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                shortcuts_improved: 2,
                shortcuts_repaired: 0,
                full_recompute: false,
                fallback_reason: None,
                sites_touched: 1,
                tuples_shipped: 2,
            },
            "{name}: insert accounting"
        );
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");

        // Removing a connection that never existed is a no-op.
        let report = sys
            .update(&NetworkUpdate::Remove {
                src: n(0),
                dst: n(6),
                owner: 0,
            })
            .unwrap();
        assert_eq!(report, UpdateReport::noop(), "{name}");
        assert_exact_everywhere(&mut sys, name);
    }
}

#[test]
fn non_fallback_sequences_never_recompute() {
    // A delete/insert ping-pong on the detour line: every step must stay
    // incremental (the acceptance contract for non-fallback deletes).
    for mut sys in both_backends(9, line_with_detour()) {
        let name = sys.backend_name();
        for round in 0..4 {
            let report = sys
                .update(&NetworkUpdate::Remove {
                    src: n(3),
                    dst: n(4),
                    owner: 1,
                })
                .unwrap();
            assert!(!report.full_recompute, "{name} round {round}: {report:?}");
            let report = sys
                .update(&NetworkUpdate::Insert {
                    edge: Edge::new(n(3), n(4), 1),
                    owner: 1,
                })
                .unwrap();
            assert!(!report.full_recompute, "{name} round {round}: {report:?}");
        }
        assert_eq!(sys.shortest_path(n(0), n(6)).cost, Some(6), "{name}");
    }
}

#[test]
fn batch_stats_amortization_exact_counts() {
    // Three cross-line queries share one fragment pair and the one
    // interior segment (site 1, entered from fragment 0, left towards
    // fragment 2): 1 plan computed + 2 reused; 9 segments (3 per query),
    // of which the first query evaluates its interior one into the memo
    // and the other two read it back: 2 memoized. Amortization
    // (2 + 2) / (1 + 2 + 9) = 1/3.
    for mut sys in both_backends(7, three_fragment_line()) {
        let name = sys.backend_name();
        let requests: Vec<QueryRequest> = [(0u32, 6u32), (1, 5), (0, 5)]
            .iter()
            .map(|&(a, b)| QueryRequest::new(n(a), n(b)))
            .collect();
        let batch = sys.query_batch(&requests);
        assert_eq!(batch.answers[0].cost, Some(6), "{name}");
        assert_eq!(batch.answers[1].cost, Some(4), "{name}");
        assert_eq!(batch.answers[2].cost, Some(5), "{name}");
        let s = batch.stats;
        assert_eq!(s.queries, 3, "{name}");
        assert_eq!(s.plans_computed, 1, "{name}");
        assert_eq!(s.plans_reused, 2, "{name}");
        assert_eq!(s.segments_computed, 9, "{name}");
        assert_eq!(s.segments_memoized, 2, "{name}");
        assert!(
            (s.amortization() - 1.0 / 3.0).abs() < 1e-12,
            "{name}: amortization {}",
            s.amortization()
        );
        // A memoized segment still counts as a site query of its answer.
        for a in &batch.answers {
            assert_eq!(a.stats.site_queries, 3, "{name}");
        }

        // A single query on the warm memo reads the interior segment:
        // (0 + 1) / (1 + 0 + 3) = 1/4.
        let warm = sys.query_batch(&[QueryRequest::new(n(0), n(6))]);
        assert_eq!(warm.answers[0].cost, Some(6), "{name}");
        assert_eq!(warm.stats.plans_computed, 1, "{name}");
        assert_eq!(warm.stats.plans_reused, 0, "{name}");
        assert_eq!(warm.stats.segments_computed, 3, "{name}");
        assert_eq!(warm.stats.segments_memoized, 1, "{name}");
        assert_eq!(warm.stats.amortization(), 0.25, "{name}");

        // An empty batch divides nothing by nothing and reports 0.
        let empty = sys.query_batch(&[]);
        assert_eq!(empty.stats.amortization(), 0.0, "{name}");
        assert!(empty.answers.is_empty(), "{name}");
    }

    // A single query on a fresh system shares nothing: amortization is
    // exactly 0.
    for mut sys in both_backends(7, three_fragment_line()) {
        let name = sys.backend_name();
        let single = sys.query_batch(&[QueryRequest::new(n(0), n(6))]);
        assert_eq!(single.answers[0].cost, Some(6), "{name}");
        assert_eq!(single.stats.plans_computed, 1, "{name}");
        assert_eq!(single.stats.plans_reused, 0, "{name}");
        assert_eq!(single.stats.segments_computed, 3, "{name}");
        assert_eq!(single.stats.segments_memoized, 0, "{name}");
        assert_eq!(single.stats.amortization(), 0.0, "{name}");
    }
}
