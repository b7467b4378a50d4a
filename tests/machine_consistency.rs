//! The simulated multiprocessor machine must agree with the in-process
//! engine and the centralized baseline, its accounting must reflect the
//! paper's communication story, and its batch path must amortize
//! planning exactly like the inline backend's.

use std::collections::BTreeSet;

use discset::closure::baseline;
use discset::closure::engine::{DisconnectionSetEngine, EngineConfig};
use discset::fragment::{semantic, CrossingPolicy};
use discset::gen::{generate_transportation, TransportationConfig};
use discset::graph::NodeId;
use discset::machine::Machine;
use discset::{QueryRequest, TcEngine};

fn setup(
    clusters: usize,
    seed: u64,
) -> (discset::graph::CsrGraph, discset::fragment::Fragmentation) {
    let cfg = TransportationConfig {
        clusters,
        nodes_per_cluster: 15,
        target_edges_per_cluster: 40,
        ..TransportationConfig::default()
    };
    let g = generate_transportation(&cfg, seed);
    let labels = g.cluster_of.clone().unwrap();
    let frag = semantic::by_labels(
        g.nodes,
        &g.connections,
        &labels,
        clusters,
        CrossingPolicy::LowerBlock,
    )
    .unwrap();
    (g.closure_graph(), frag)
}

#[test]
fn machine_engine_and_baseline_agree() {
    let (csr, frag) = setup(4, 3);
    let mut engine =
        DisconnectionSetEngine::build(csr.clone(), frag.clone(), true, EngineConfig::default())
            .unwrap();
    let mut machine = Machine::deploy(csr.clone(), frag, true).unwrap();
    // Both backends behind one trait-object slice: the code path every
    // experiment uses.
    let backends: [&mut dyn TcEngine; 2] = [&mut engine, &mut machine];
    let n = csr.node_count() as u32;
    for backend in backends {
        for i in 0..20u32 {
            let (x, y) = (NodeId((i * 7) % n), NodeId((i * 11 + 31) % n));
            let want = baseline::shortest_path_cost(&csr, x, y);
            assert_eq!(
                backend.shortest_path(x, y).cost,
                want,
                "{} {x}->{y}",
                backend.backend_name()
            );
        }
    }
    machine.shutdown();
}

#[test]
fn machine_snapshot_is_its_state_and_tracks_updates() {
    use discset::graph::{Edge, ScratchDijkstra};
    use discset::NetworkUpdate;
    use std::sync::Arc;
    let (csr, frag) = setup(4, 5);
    let mut engine =
        DisconnectionSetEngine::build(csr.clone(), frag.clone(), true, EngineConfig::default())
            .unwrap();
    let mut machine = Machine::deploy(csr.clone(), frag, true).unwrap();

    // The coordinator holds one snapshot: handing it out shares every
    // per-site augmented graph instead of rebuilding it.
    let (first, second) = (machine.snapshot(), machine.snapshot());
    for f in 0..machine.site_count() {
        assert!(
            Arc::ptr_eq(first.augmented_handle(f), second.augmented_handle(f)),
            "site {f}: snapshot() rebuilt the augmented graph"
        );
    }

    // One insert and one removal, applied to both backends alike.
    let f0 = machine.fragmentation().fragment(0).clone();
    let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
    let removed = machine.fragmentation().fragment(1).edges()[0];
    let updates = [
        NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        },
        NetworkUpdate::Remove {
            src: removed.src,
            dst: removed.dst,
            owner: 1,
        },
    ];
    for u in &updates {
        assert_eq!(machine.update(u), engine.update(u), "{u:?}");
    }

    let (snap, inline) = (machine.snapshot(), engine.snapshot());
    assert_eq!(snap.source_backend(), "site-threads");
    let (mut s1, mut s2) = (ScratchDijkstra::new(), ScratchDijkstra::new());
    let n = csr.node_count() as u32;
    for x in 0..n {
        for y in 0..n {
            let (x, y) = (NodeId(x), NodeId(y));
            assert_eq!(
                snap.shortest_path(x, y, &mut s1).cost,
                inline.shortest_path(x, y, &mut s2).cost,
                "{x}->{y}"
            );
            assert_eq!(
                snap.connected(x, y, &mut s1),
                inline.connected(x, y, &mut s2),
                "connected({x}, {y})"
            );
        }
    }
    machine.shutdown();
}

#[test]
fn machine_ships_only_small_relations() {
    let (csr, frag) = setup(4, 1);
    let ds_total: usize = frag.disconnection_sets().values().map(|v| v.len()).sum();
    let mut machine = Machine::deploy(csr, frag, true).unwrap();
    machine.shortest_path(NodeId(0), NodeId(59));
    let stats = machine.stats();
    // Each shipped relation is bounded by |entry DS| x |exit DS|; with the
    // few border nodes of a chain transportation graph that stays tiny.
    assert!(
        stats.tuples_shipped <= ds_total * ds_total + 2 * ds_total + 2,
        "tuples shipped {} vs DS total {}",
        stats.tuples_shipped,
        ds_total
    );
    assert_eq!(stats.messages_sent, stats.messages_received);
    machine.shutdown();
}

#[test]
fn machine_handles_many_queries_and_accumulates_stats() {
    let (csr, frag) = setup(3, 7);
    let mut machine = Machine::deploy(csr.clone(), frag, true).unwrap();
    let n = csr.node_count() as u32;
    let mut answered = 0;
    for i in 0..30u32 {
        let (x, y) = (NodeId(i % n), NodeId((i * 13 + 5) % n));
        if machine.shortest_path(x, y).cost.is_some() {
            answered += 1;
        }
    }
    assert!(answered > 0);
    let stats = machine.stats();
    assert_eq!(stats.queries, 30);
    let busy: Vec<_> = stats.sites.iter().filter(|s| s.subqueries > 0).collect();
    assert!(!busy.is_empty(), "sites must have served subqueries");
    machine.shutdown();
}

#[test]
fn stats_accumulate_across_updates() {
    // Regression: the old update path redeployed the machine, losing the
    // continuity of per-site accounting. With the delta protocol, site
    // threads survive updates, so every counter accumulates monotonically
    // — across incremental updates and fallback updates alike.
    use discset::graph::Edge;
    use discset::NetworkUpdate;
    let (csr, frag) = setup(3, 11);
    let mut m = Machine::deploy(csr.clone(), frag, true).unwrap();
    let n = csr.node_count() as u32;
    for i in 0..10u32 {
        m.shortest_path(NodeId(i % n), NodeId((i * 13 + 5) % n));
    }
    let before = m.stats().clone();
    assert!(before.messages_sent > 0);
    assert_eq!(before.updates, 0);

    // An incremental insert followed by its (incremental or fallback)
    // removal — both travel as deltas, never a teardown.
    let f0 = m.fragmentation().fragment(0).clone();
    let (a, b) = (f0.nodes()[0], *f0.nodes().last().unwrap());
    let r1 = m
        .update(&NetworkUpdate::Insert {
            edge: Edge::new(a, b, 1),
            owner: 0,
        })
        .unwrap();
    assert!(!r1.full_recompute, "inserts are incremental: {r1:?}");
    let r2 = m
        .update(&NetworkUpdate::Remove {
            src: a,
            dst: b,
            owner: 0,
        })
        .unwrap();
    for i in 0..10u32 {
        m.shortest_path(NodeId((i * 3) % n), NodeId((i * 7 + 2) % n));
    }

    let after = m.stats();
    assert_eq!(after.queries, 20, "query counter accumulated");
    assert_eq!(after.updates, 2);
    assert_eq!(
        after.update_messages_sent,
        r1.sites_touched + r2.sites_touched
    );
    assert_eq!(
        after.update_tuples_shipped,
        r1.tuples_shipped + r2.tuples_shipped
    );
    assert_eq!(after.messages_sent, after.messages_received);
    let deltas: usize = after.sites.iter().map(|s| s.deltas_applied).sum();
    assert_eq!(deltas, r1.sites_touched + r2.sites_touched);
    // Per-site counters from before the updates are still there.
    for (i, (pre, post)) in before.sites.iter().zip(&after.sites).enumerate() {
        assert!(
            post.subqueries >= pre.subqueries,
            "site {i} lost subquery accounting"
        );
        assert!(post.busy >= pre.busy, "site {i} lost busy accounting");
        assert!(
            post.tuples_produced >= pre.tuples_produced,
            "site {i} lost tuple accounting"
        );
    }
    assert!(
        after.sites.iter().map(|s| s.subqueries).sum::<usize>()
            > before.sites.iter().map(|s| s.subqueries).sum::<usize>(),
        "post-update queries kept counting"
    );
    // Answers stay exact after the in-place updates.
    let now = {
        let connections: Vec<Edge> = m
            .fragmentation()
            .fragments()
            .iter()
            .flat_map(|f| f.edges().iter().copied())
            .collect();
        discset::graph::CsrGraph::from_edges(
            m.fragmentation().node_count(),
            &discset::gen::output::expand_connections(&connections, true),
        )
    };
    for i in 0..15u32 {
        let (x, y) = (NodeId((i * 5) % n), NodeId((i * 11 + 3) % n));
        assert_eq!(
            m.shortest_path(x, y).cost,
            baseline::shortest_path_cost(&now, x, y),
            "post-update {x}->{y}"
        );
    }
    m.shutdown();
}

#[test]
fn batch_saves_messages_over_single_queries() {
    // The communication argument for the transit memo: an interior
    // segment `DS(f(i-1), fi) -> DS(fi, f(i+1))` is shipped once per
    // distinct (prev, site, next) key, not once per query, whether the
    // queries arrive one by one or as one batch. Only the endpoint
    // subqueries are sent per query.
    let (csr, frag) = setup(4, 5);
    let n = csr.node_count() as u32;
    let requests: Vec<QueryRequest> = (0..12u32)
        .map(|i| QueryRequest::new(NodeId(i % 8), NodeId(n - 1 - (i * 3) % 8)))
        .collect();

    let mut singles = Machine::deploy(csr.clone(), frag.clone(), true).unwrap();
    let (mut endpoint_subqueries, mut chain_lengths) = (0, 0);
    let mut interior_keys = BTreeSet::new();
    let snap = singles.snapshot();
    for req in &requests {
        let plan = snap.planner().plan(req.source, req.target).unwrap();
        for chain in &plan.chains {
            let l = chain.fragments.len();
            chain_lengths += l;
            endpoint_subqueries += l.min(2);
            interior_keys.extend(chain.fragments.windows(3).map(|w| (w[0], w[1], w[2])));
        }
    }
    let expected = endpoint_subqueries + interior_keys.len();
    assert!(!interior_keys.is_empty(), "the chains have interior sites");
    assert!(
        expected < chain_lengths,
        "{expected} vs {chain_lengths} subqueries"
    );

    for req in &requests {
        assert_eq!(
            singles.shortest_path(req.source, req.target).cost,
            baseline::shortest_path_cost(&csr, req.source, req.target),
            "single {}->{}",
            req.source,
            req.target
        );
    }
    assert_eq!(singles.stats().messages_sent, expected, "singles");
    singles.shutdown();

    let mut batched = Machine::deploy(csr.clone(), frag, true).unwrap();
    let batch = batched.query_batch(&requests);
    assert_eq!(batched.stats().messages_sent, expected, "batch");
    for (req, ans) in requests.iter().zip(&batch.answers) {
        assert_eq!(
            ans.cost,
            baseline::shortest_path_cost(&csr, req.source, req.target),
            "batch {}->{}",
            req.source,
            req.target
        );
    }
    assert!(batch.stats.plans_reused > 0, "{:?}", batch.stats);
    assert_eq!(
        batch.stats.segments_memoized,
        chain_lengths - expected,
        "{:?}",
        batch.stats
    );
    batched.shutdown();
}

#[test]
fn strict_single_queries_reject_endpoints_in_no_fragment_on_both_backends() {
    use discset::closure::ClosureError;
    use discset::graph::ScratchDijkstra;

    let (csr, frag) = setup(3, 2);
    let n = csr.node_count() as u32;
    let mut machine = Machine::deploy(csr.clone(), frag, true).unwrap();
    let snap = machine.snapshot();
    let mut scratch = ScratchDijkstra::new();
    let beyond = NodeId(n + 5);
    for (x, y) in [(beyond, NodeId(0)), (NodeId(0), beyond)] {
        let want = Err(ClosureError::NodeNotInAnyFragment(beyond));
        let inline = snap.try_shortest_path(x, y, &mut scratch).map(|a| a.cost);
        assert_eq!(inline, want, "snapshot {x}->{y}");
        let sites = machine.try_shortest_path(x, y).map(|a| a.cost);
        assert_eq!(sites, want, "machine {x}->{y}");
    }
    assert_eq!(machine.stats().messages_sent, 0, "rejected before dispatch");
    // The same node is its own answer on both, fragment or not.
    assert_eq!(
        snap.try_shortest_path(beyond, beyond, &mut scratch)
            .map(|a| a.cost),
        Ok(Some(0))
    );
    assert_eq!(
        machine.try_shortest_path(beyond, beyond).map(|a| a.cost),
        Ok(Some(0))
    );
    machine.shutdown();
}
