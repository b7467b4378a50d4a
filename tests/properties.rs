//! Property-based tests over the workspace invariants.
//!
//! The build environment is offline, so instead of `proptest` these
//! properties run over many deterministic seeds: each case derives a
//! random-ish structure from the vendored seeded RNG and asserts the
//! invariant. Failures print the offending seed, which reproduces the
//! case exactly.

use discset::closure::baseline;
use discset::closure::engine::{DisconnectionSetEngine, EngineConfig};
use discset::fragment::center::{center_based, CenterConfig};
use discset::fragment::linear::{linear_sweep, LinearConfig};
use discset::gen::{
    generate_general, generate_transportation, GeneralConfig, TransportationConfig,
};
use discset::graph::{Coord, CsrGraph, Edge, EdgeList, NodeId};
use discset::relation::join::compose_min_plus;
use discset::relation::{tc, PathTuple, Relation};
use discset::{Backend, Fragmenter, QueryRequest, System, TcEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A random connected-ish symmetric graph as (node_count, connection
/// list, coords): random edges over node pairs plus a backbone path so
/// reachability cases stay interesting rather than mostly-unreachable.
fn arb_graph(seed: u64) -> (usize, Vec<Edge>, Vec<Coord>) {
    let mut rng = StdRng::seed_from_u64(0x9E37 ^ seed.wrapping_mul(0x85EB_CA6B));
    let n = 4 + rng.gen_index(20); // 4..24 nodes
    let attempts = n + rng.gen_index(2 * n);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for _ in 0..attempts {
        let a = rng.gen_index(n) as u32;
        let b = rng.gen_index(n) as u32;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        let cost = 1 + rng.gen_index(49) as u64;
        if seen.insert(key) {
            out.push(Edge::new(NodeId(key.0), NodeId(key.1), cost));
        }
    }
    for i in 0..(n as u32 - 1) {
        let key = (i, i + 1);
        if seen.insert(key) {
            out.push(Edge::new(NodeId(i), NodeId(i + 1), 10));
        }
    }
    let coords: Vec<Coord> = (0..n)
        .map(|i| Coord::new(i as f64 * 3.0, (i % 5) as f64))
        .collect();
    (n, out, coords)
}

fn closure_graph(n: usize, connections: &[Edge]) -> CsrGraph {
    let mut edges = Vec::with_capacity(connections.len() * 2);
    for e in connections {
        edges.push(*e);
        edges.push(e.reversed());
    }
    CsrGraph::from_edges(n, &edges)
}

/// Every fragmenter must partition the relation exactly.
#[test]
fn fragmenters_partition_the_relation() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns.clone()).with_coords(coords);
        let lin = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert!(lin.validate(&conns).is_ok(), "seed {seed}: linear");
        let cen = center_based(
            &el,
            &CenterConfig {
                fragments: 2,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert!(cen.validate(&conns).is_ok(), "seed {seed}: center");
    }
}

/// The linear sweep's fragmentation graph is always acyclic (§3.3).
#[test]
fn linear_sweep_always_loosely_connected() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns).with_coords(coords);
        for f in [2usize, 3, 5] {
            let out = linear_sweep(
                &el,
                &LinearConfig {
                    fragments: f,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                out.fragmentation.fragmentation_graph().is_acyclic(),
                "seed {seed}, {f} fragments"
            );
        }
    }
}

/// Disconnection sets are symmetric node intersections.
#[test]
fn disconnection_sets_are_intersections() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns).with_coords(coords);
        let frag = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        for ((i, j), nodes) in frag.disconnection_sets() {
            for v in nodes {
                assert!(frag.fragment(i).contains_node(v), "seed {seed}");
                assert!(frag.fragment(j).contains_node(v), "seed {seed}");
            }
        }
    }
}

/// The crown jewel: disconnection-set answers equal global Dijkstra.
#[test]
fn engine_matches_global_dijkstra() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns.clone()).with_coords(coords);
        let frag = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let csr = closure_graph(n, &conns);
        let engine =
            DisconnectionSetEngine::build(csr.clone(), frag, true, EngineConfig::default())
                .unwrap();
        for x in 0..(n as u32).min(6) {
            for y in 0..(n as u32).min(6) {
                let got = engine.shortest_path(NodeId(x), NodeId(y)).cost;
                let want = baseline::shortest_path_cost(&csr, NodeId(x), NodeId(y));
                assert_eq!(got, want, "seed {seed}, query {x}->{y}");
            }
        }
    }
}

/// Backend equivalence: every `TcEngine` implementation — inline and the
/// site-thread machine — answers random queries identically to the
/// centralized baseline, via both the single-query and the batch path,
/// across generators × fragmenters. This is the contract that makes
/// backends swappable.
#[test]
fn all_backends_match_baseline_on_random_workloads() {
    for seed in 0..12 {
        // Alternate the two random generators of §4.1.
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 30,
                    target_edges: 70,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 10,
                    target_edges_per_cluster: 25,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let csr = g.closure_graph();
        let n = g.nodes as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<(NodeId, NodeId)> = (0..10)
            .map(|_| {
                (
                    NodeId(rng.gen_index(n as usize) as u32),
                    NodeId(rng.gen_index(n as usize) as u32),
                )
            })
            .collect();

        let mut fragmenters = vec![
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ];
        if let Some(labels) = &g.cluster_of {
            fragmenters.push(Fragmenter::ByLabels {
                labels: labels.clone(),
                parts: (*labels.iter().max().unwrap() + 1) as usize,
                policy: discset::fragment::CrossingPolicy::LowerBlock,
            });
        }
        for fragmenter in fragmenters {
            for backend in [Backend::Inline, Backend::SiteThreads] {
                let mut sys = System::builder()
                    .graph(&g)
                    .fragmenter(fragmenter.clone())
                    .backend(backend)
                    .build()
                    .unwrap();
                for &(x, y) in &queries {
                    assert_eq!(
                        sys.shortest_path(x, y).cost,
                        baseline::shortest_path_cost(&csr, x, y),
                        "seed {seed}, {}, {x}->{y}",
                        sys.backend_name()
                    );
                }
                let requests: Vec<QueryRequest> = queries
                    .iter()
                    .map(|&(x, y)| QueryRequest::new(x, y))
                    .collect();
                let batch = sys.query_batch(&requests);
                for (&(x, y), a) in queries.iter().zip(&batch.answers) {
                    assert_eq!(
                        a.cost,
                        baseline::shortest_path_cost(&csr, x, y),
                        "seed {seed}, {} batch, {x}->{y}",
                        sys.backend_name()
                    );
                }
            }
        }
    }
}

/// Draw a random in-fragment update against the engine's *current*
/// fragmentation: mostly inserts between random fragment nodes, plus
/// deletions of random fragment edges.
fn arb_update(
    rng: &mut StdRng,
    frag: &discset::fragment::Fragmentation,
) -> Option<discset::NetworkUpdate> {
    use discset::NetworkUpdate;
    let owner = rng.gen_index(frag.fragment_count());
    if rng.gen_index(5) < 3 {
        let nodes = frag.fragment(owner).nodes();
        if nodes.len() < 2 {
            return None;
        }
        let a = nodes[rng.gen_index(nodes.len())];
        let b = nodes[rng.gen_index(nodes.len())];
        let cost = 1 + rng.gen_index(30) as u64;
        Some(NetworkUpdate::Insert {
            edge: Edge::new(a, b, cost),
            owner,
        })
    } else {
        let edges = frag.fragment(owner).edges();
        if edges.is_empty() {
            return None;
        }
        let e = edges[rng.gen_index(edges.len())];
        Some(NetworkUpdate::Remove {
            src: e.src,
            dst: e.dst,
            owner,
        })
    }
}

/// Update-equivalence: an engine maintained through ≥ 20 random mixed
/// inserts/deletes answers every `shortest_path`/`connected` query
/// identically to an engine rebuilt from scratch on the final graph —
/// for every generator × fragmenter × backend.
#[test]
fn maintained_engine_equals_rebuilt_from_scratch() {
    use discset::gen::output::expand_connections;
    let mut case = 0u64;
    for seed in 0..6u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 26,
                    target_edges: 60,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 9,
                    target_edges_per_cluster: 22,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let mut fragmenters = vec![
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ];
        if let Some(labels) = &g.cluster_of {
            fragmenters.push(Fragmenter::ByLabels {
                labels: labels.clone(),
                parts: (*labels.iter().max().unwrap() + 1) as usize,
                policy: discset::fragment::CrossingPolicy::LowerBlock,
            });
        }
        for fragmenter in fragmenters {
            for backend in [Backend::Inline, Backend::SiteThreads] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0xA11CE ^ case);
                let mut sys = System::builder()
                    .graph(&g)
                    .fragmenter(fragmenter.clone())
                    .backend(backend)
                    .build()
                    .unwrap();
                let mut applied = 0;
                for _ in 0..300 {
                    if applied >= 20 {
                        break;
                    }
                    let Some(update) = arb_update(&mut rng, sys.fragmentation()) else {
                        continue;
                    };
                    let report = sys.update(&update).unwrap();
                    assert_eq!(
                        report.full_recompute,
                        report.fallback_reason.is_some(),
                        "seed {seed} case {case}: report invariant ({report:?})"
                    );
                    applied += 1;
                }
                assert!(applied >= 20, "seed {seed}: not enough applicable updates");

                // Rebuild from scratch on the final graph: the maintained
                // fragmentation *is* the final network.
                let final_frag = sys.fragmentation().clone();
                let connections: Vec<Edge> = final_frag
                    .fragments()
                    .iter()
                    .flat_map(|f| f.edges().iter().copied())
                    .collect();
                let csr = CsrGraph::from_edges(g.nodes, &expand_connections(&connections, true));
                let mut fresh = System::builder()
                    .network(g.nodes, connections)
                    .fragmenter(Fragmenter::Prebuilt(final_frag))
                    .backend(Backend::Inline)
                    .build()
                    .unwrap();
                for _ in 0..40 {
                    let x = NodeId(rng.gen_index(g.nodes) as u32);
                    let y = NodeId(rng.gen_index(g.nodes) as u32);
                    let want = baseline::shortest_path_cost(&csr, x, y);
                    assert_eq!(
                        sys.shortest_path(x, y).cost,
                        want,
                        "seed {seed} case {case} {}: maintained {x}->{y}",
                        sys.backend_name()
                    );
                    assert_eq!(
                        fresh.shortest_path(x, y).cost,
                        want,
                        "seed {seed} case {case}: rebuilt {x}->{y}"
                    );
                    assert_eq!(
                        sys.connected(x, y),
                        x == y || want.is_some(),
                        "seed {seed} case {case}: connected {x}->{y}"
                    );
                }
            }
        }
    }
}

/// Reachability-index equivalence: `connected` answered through the
/// SCC/chain index of an engine *maintained* through a 20-step mixed
/// insert/delete stream equals (a) plain Dijkstra connectivity on the
/// final graph and (b) an engine rebuilt from scratch on that graph
/// (whose index is built fresh, never maintained) — exhaustively over
/// all node pairs, for every generator × {linear, center} fragmenter ×
/// backend. This pins the keep/drop/rebuild rules of
/// `ConnectivityEffect`: a stale index kept alive by a wrong rule shows
/// up here as a connectivity answer diverging from the oracle.
#[test]
fn reachability_index_equals_dijkstra_connected() {
    use discset::gen::output::expand_connections;

    let mut case = 0u64;
    for seed in 0..6u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 26,
                    target_edges: 60,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 9,
                    target_edges_per_cluster: 22,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        for fragmenter in [
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ] {
            for backend in [Backend::Inline, Backend::SiteThreads] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0x2EAC4 ^ case);
                let mut sys = System::builder()
                    .graph(&g)
                    .fragmenter(fragmenter.clone())
                    .backend(backend)
                    .build()
                    .unwrap();
                let mut applied = 0;
                for _ in 0..300 {
                    if applied >= 20 {
                        break;
                    }
                    let Some(update) = arb_update(&mut rng, sys.fragmentation()) else {
                        continue;
                    };
                    sys.update(&update).unwrap();
                    applied += 1;
                }
                assert!(applied >= 20, "case {case}: not enough applicable updates");

                // Oracle graph + from-scratch engine on the final network.
                let final_frag = sys.fragmentation().clone();
                let connections: Vec<Edge> = final_frag
                    .fragments()
                    .iter()
                    .flat_map(|f| f.edges().iter().copied())
                    .collect();
                let csr = CsrGraph::from_edges(g.nodes, &expand_connections(&connections, true));
                let mut fresh = System::builder()
                    .network(g.nodes, connections)
                    .fragmenter(Fragmenter::Prebuilt(final_frag))
                    .backend(Backend::Inline)
                    .build()
                    .unwrap();
                for x in 0..g.nodes as u32 {
                    for y in 0..g.nodes as u32 {
                        let (x, y) = (NodeId(x), NodeId(y));
                        let want = x == y || baseline::shortest_path_cost(&csr, x, y).is_some();
                        assert_eq!(
                            sys.connected(x, y),
                            want,
                            "case {case} {}: maintained index {x}->{y}",
                            sys.backend_name()
                        );
                        assert_eq!(
                            fresh.connected(x, y),
                            want,
                            "case {case}: rebuilt index {x}->{y}"
                        );
                    }
                }
            }
        }
    }
}

/// Pure-insert sequences never fall back to a full recompute, on either
/// backend (the acceptance contract of incremental insert maintenance).
#[test]
fn pure_insert_sequences_never_recompute() {
    for seed in 0..6u64 {
        let g = generate_general(
            &GeneralConfig {
                nodes: 24,
                target_edges: 50,
                ..Default::default()
            },
            seed,
        );
        for backend in [Backend::Inline, Backend::SiteThreads] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = System::builder()
                .graph(&g)
                .fragmenter(Fragmenter::Linear(LinearConfig {
                    fragments: 3,
                    ..Default::default()
                }))
                .backend(backend)
                .build()
                .unwrap();
            let mut applied = 0;
            for _ in 0..200 {
                if applied >= 15 {
                    break;
                }
                let frag = sys.fragmentation();
                let owner = rng.gen_index(frag.fragment_count());
                let nodes = frag.fragment(owner).nodes();
                if nodes.len() < 2 {
                    continue;
                }
                let a = nodes[rng.gen_index(nodes.len())];
                let b = nodes[rng.gen_index(nodes.len())];
                let report = sys
                    .update(&discset::NetworkUpdate::Insert {
                        edge: Edge::new(a, b, 1 + rng.gen_index(20) as u64),
                        owner,
                    })
                    .unwrap();
                assert!(
                    !report.full_recompute,
                    "seed {seed} {}: inserts are always incremental ({report:?})",
                    sys.backend_name()
                );
                applied += 1;
            }
            assert!(applied >= 15, "seed {seed}: not enough inserts");
        }
    }
}

/// The skeleton-overlay precompute (fragment-local sweeps + border
/// skeleton closure) produces *identical* complementary information to
/// the global-sweep reference — same `pair_count`, same per-site
/// shortcut tables, tuple for tuple — for every generator × fragmenter ×
/// scope.
#[test]
fn skeleton_precompute_equals_global_sweep() {
    use discset::closure::{ComplementaryInfo, ComplementaryScope};
    use discset::fragment::Fragmentation;

    fn assert_equal(csr: &CsrGraph, frag: &Fragmentation, label: &str) {
        for scope in [
            ComplementaryScope::PerDisconnectionSet,
            ComplementaryScope::PerFragmentBorder,
        ] {
            let skel = ComplementaryInfo::compute(csr, frag, scope, false);
            let glob = ComplementaryInfo::compute_global_sweep(csr, frag, scope, false);
            assert_eq!(
                skel.border_count(),
                glob.border_count(),
                "{label} {scope:?}: border count"
            );
            assert_eq!(
                skel.pair_count(),
                glob.pair_count(),
                "{label} {scope:?}: pair count"
            );
            for f in 0..frag.fragment_count() {
                assert_eq!(
                    skel.shortcuts(f),
                    glob.shortcuts(f),
                    "{label} {scope:?}: site {f} table"
                );
            }
        }
    }

    for seed in 0..8u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 30,
                    target_edges: 70,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 10,
                    target_edges_per_cluster: 25,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let csr = g.closure_graph();
        let el = g.edge_list();
        let lin = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert_equal(&csr, &lin, &format!("seed {seed} linear"));
        let cen = center_based(
            &el,
            &CenterConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        assert_equal(&csr, &cen, &format!("seed {seed} center"));
        if let Some(labels) = &g.cluster_of {
            let sem = discset::fragment::semantic::by_labels(
                g.nodes,
                &g.connections,
                labels,
                (*labels.iter().max().unwrap() + 1) as usize,
                discset::fragment::CrossingPolicy::LowerBlock,
            )
            .unwrap();
            assert_equal(&csr, &sem, &format!("seed {seed} semantic"));
        }
    }

    // A *cyclic* fragmentation graph (three fragments in a triangle):
    // border pairs can be locally disconnected yet globally connected
    // through the third fragment — the skeleton closure, not a global
    // re-sweep, must supply those distances under `PerFragmentBorder`.
    let edges = |pairs: &[(u32, u32)]| -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| {
                [
                    Edge::unit(NodeId(a), NodeId(b)),
                    Edge::unit(NodeId(b), NodeId(a)),
                ]
            })
            .collect()
    };
    let all = edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let csr = CsrGraph::from_edges(6, &all);
    let tri = Fragmentation::new(
        6,
        vec![
            edges(&[(0, 1), (1, 2)]),
            edges(&[(2, 3), (3, 4)]),
            edges(&[(4, 5), (5, 0)]),
        ],
        vec![vec![], vec![], vec![]],
    );
    assert!(
        !tri.fragmentation_graph().is_acyclic(),
        "triangle fragmentation graph is cyclic"
    );
    assert_equal(&csr, &tri, "triangle");
    // And the deployed engine still answers exactly on it.
    let engine =
        DisconnectionSetEngine::build(csr.clone(), tri, true, EngineConfig::default()).unwrap();
    for x in 0..6u32 {
        for y in 0..6u32 {
            assert_eq!(
                engine.shortest_path(NodeId(x), NodeId(y)).cost,
                baseline::shortest_path_cost(&csr, NodeId(x), NodeId(y)),
                "triangle {x}->{y}"
            );
        }
    }
}

/// One reader-thread observation: query endpoints, served cost, epoch.
type EpochObservation = (NodeId, NodeId, Option<u64>, u64);

/// Concurrent consistency of the serve subsystem: reader threads run
/// against a live update stream, and every answer must match the
/// centralized oracle for the *epoch it was served at* — i.e. the
/// network state after exactly `epoch` updates. Answers are never torn
/// between a pre- and post-update state, across generators × fragmenter
/// families.
#[test]
fn concurrent_readers_match_their_epoch_oracle() {
    use discset::closure::api::apply_update;
    use discset::gen::output::expand_connections;

    const UPDATES: usize = 10;
    const READERS: u32 = 3;

    let mut case = 0u64;
    for seed in 0..2u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 26,
                    target_edges: 60,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 9,
                    target_edges_per_cluster: 22,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        for fragmenter in [
            Fragmenter::Linear(LinearConfig {
                fragments: 3,
                ..Default::default()
            }),
            Fragmenter::Center(CenterConfig {
                fragments: 3,
                ..Default::default()
            }),
        ] {
            case += 1;
            let sys = System::builder()
                .graph(&g)
                .fragmenter(fragmenter)
                .build()
                .unwrap();

            // Script the update stream up front and precompute the
            // oracle graph for every epoch prefix: epoch e == the
            // network after the first e updates.
            let mut rng = StdRng::seed_from_u64(0x5EB7E ^ case);
            let mut frag_sim = sys.fragmentation().clone();
            let mut graph_sim = closure_graph(
                g.nodes,
                &frag_sim
                    .fragments()
                    .iter()
                    .flat_map(|f| f.edges().iter().copied())
                    .collect::<Vec<_>>(),
            );
            let mut updates = Vec::with_capacity(UPDATES);
            let mut oracles = vec![graph_sim.clone()];
            for _ in 0..400 {
                if updates.len() >= UPDATES {
                    break;
                }
                let Some(u) = arb_update(&mut rng, &frag_sim) else {
                    continue;
                };
                match apply_update(&graph_sim, &mut frag_sim, true, &u) {
                    Ok(Some(next)) => {
                        graph_sim = next;
                        updates.push(u);
                        oracles.push(graph_sim.clone());
                    }
                    // Skip structural no-ops so each scripted update
                    // advances the epoch by exactly one.
                    Ok(None) | Err(_) => continue,
                }
            }
            assert_eq!(updates.len(), UPDATES, "case {case}: script too short");
            {
                // expand_connections is what the builder used; the
                // fragment-union rebuild must agree with it at epoch 0.
                let direct =
                    CsrGraph::from_edges(g.nodes, &expand_connections(&g.connections, true));
                for x in 0..4u32 {
                    assert_eq!(
                        baseline::shortest_path_cost(&oracles[0], NodeId(x), NodeId(x + 1)),
                        baseline::shortest_path_cost(&direct, NodeId(x), NodeId(x + 1)),
                        "case {case}: epoch-0 oracle"
                    );
                }
            }

            let server = sys.serve(READERS as usize);
            let stop = std::sync::atomic::AtomicBool::new(false);
            let records: Vec<Vec<EpochObservation>> = std::thread::scope(|s| {
                let server = &server;
                let stop = &stop;
                let handles: Vec<_> = (0..READERS)
                    .map(|t| {
                        s.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(0xBEEF ^ (case << 8) ^ t as u64);
                            let mut out = Vec::new();
                            let mut one = |out: &mut Vec<EpochObservation>| {
                                let x = NodeId(rng.gen_index(g.nodes) as u32);
                                let y = NodeId(rng.gen_index(g.nodes) as u32);
                                if rng.gen_index(4) == 0 {
                                    // Batch path: all answers of a job
                                    // share one epoch.
                                    let reqs =
                                        vec![QueryRequest::new(x, y), QueryRequest::new(y, x)];
                                    let served = server.query_batch(&reqs).expect("healthy pool");
                                    for (r, a) in reqs.iter().zip(&served.answers) {
                                        out.push((r.source, r.target, a.cost, served.epoch));
                                    }
                                } else {
                                    let served = server.query(x, y).expect("healthy pool");
                                    out.push((x, y, served.answer.cost, served.epoch));
                                }
                            };
                            // Race phase: query until the update stream
                            // is done, however long scheduling lets it
                            // take (bounded only by a safety valve).
                            while !stop.load(std::sync::atomic::Ordering::Relaxed)
                                && out.len() < 100_000
                            {
                                one(&mut out);
                            }
                            // Settled phase: a deterministic tail of
                            // queries guaranteed to observe the final
                            // epoch.
                            for _ in 0..20 {
                                one(&mut out);
                            }
                            out
                        })
                    })
                    .collect();
                // The update stream runs while the readers hammer away.
                for u in &updates {
                    let served = server.update(u).unwrap();
                    assert!(
                        served.epoch >= 1 && served.epoch <= UPDATES as u64,
                        "case {case}: epoch {} out of range",
                        served.epoch
                    );
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(server.epoch(), UPDATES as u64, "case {case}");
            let stats = server.shutdown();
            assert_eq!(stats.updates, UPDATES as u64, "case {case}");

            let mut checked = 0usize;
            let mut post_update = 0usize;
            for (t, rows) in records.iter().enumerate() {
                for &(x, y, cost, epoch) in rows {
                    assert!(
                        (epoch as usize) < oracles.len(),
                        "case {case} reader {t}: epoch {epoch} never published"
                    );
                    let want = if x == y {
                        Some(0)
                    } else {
                        baseline::shortest_path_cost(&oracles[epoch as usize], x, y)
                    };
                    assert_eq!(
                        cost, want,
                        "case {case} reader {t}: {x}->{y} at epoch {epoch}"
                    );
                    checked += 1;
                    if epoch > 0 {
                        post_update += 1;
                    }
                }
            }
            assert!(checked >= 30, "case {case}: only {checked} answers checked");
            // The race is only interesting if some answers really were
            // served from a post-update epoch.
            assert!(
                post_update > 0,
                "case {case}: no reader ever observed an updated epoch"
            );
        }
    }
}

/// Structural sharing across snapshot epochs: after maintaining a cloned
/// successor snapshot, every site *not* touched by the update still
/// shares — `Arc::ptr_eq` — its augmented graph, transit memo, real-hop
/// set and shortcut table with the predecessor epoch, on both fragmenter
/// families (linear sweep and center growth). This is the invariant that
/// makes the serve writer's per-epoch publication O(touched sites).
#[test]
fn untouched_sites_stay_arc_shared_across_epochs() {
    use discset::closure::snapshot::EngineSnapshot;
    use discset::graph::ScratchDijkstra;
    use std::sync::Arc;

    let mut scratch = ScratchDijkstra::new();
    for seed in 0..6u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 26,
                    target_edges: 60,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 9,
                    target_edges_per_cluster: 22,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let el = g.edge_list();
        let fragmentations = [
            (
                "linear",
                linear_sweep(
                    &el,
                    &LinearConfig {
                        fragments: 4,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
            (
                "center",
                center_based(
                    &el,
                    &CenterConfig {
                        fragments: 4,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
        ];
        for (family, frag) in fragmentations {
            let label = format!("seed {seed} {family}");
            let base =
                EngineSnapshot::build(g.closure_graph(), frag, true, EngineConfig::default())
                    .unwrap();
            let mut rng = StdRng::seed_from_u64(0x5AA6 ^ seed << 4);
            let mut prev = base;
            let mut applied = 0;
            for _ in 0..200 {
                if applied >= 10 {
                    break;
                }
                let Some(update) = arb_update(&mut rng, prev.fragmentation()) else {
                    continue;
                };
                // The successor epoch, exactly as the serve writer makes
                // one: clone (O(sites)) then maintain in place.
                let mut next = prev.clone();
                let m = match next.maintain_cow(&update, &mut scratch) {
                    Ok(m) => m,
                    Err(_) => continue, // e.g. degenerate insert target
                };
                if m.owner.is_none() {
                    continue; // structural no-op: nothing to check
                }
                applied += 1;
                let sites = prev.site_count();
                for f in 0..sites {
                    let touched = m.touched_sites.contains(&f);
                    let shared_aug =
                        Arc::ptr_eq(prev.augmented_handle(f), next.augmented_handle(f));
                    let shared_transit =
                        Arc::ptr_eq(prev.transit_handle(f), next.transit_handle(f));
                    let shared_hops =
                        Arc::ptr_eq(prev.real_hops_handle(f), next.real_hops_handle(f));
                    let shared_table = Arc::ptr_eq(
                        prev.complementary().shortcuts_handle(f),
                        next.complementary().shortcuts_handle(f),
                    );
                    if touched {
                        assert!(
                            !shared_transit,
                            "{label}: touched site {f}'s transit memo must be replaced"
                        );
                    } else {
                        assert!(
                            shared_aug && shared_transit && shared_hops && shared_table,
                            "{label}: untouched site {f} must stay shared after \
                             {update:?} (aug {shared_aug}, transit {shared_transit}, \
                             hops {shared_hops}, table {shared_table}; touched {:?})",
                            m.touched_sites
                        );
                    }
                }
                // Regression: a touched site's replaced components must
                // NOT be shared — the owner's augmented graph and
                // real-hop set are always rebuilt, and every site whose
                // shortcut table changed carries a fresh table.
                let owner = m.owner.unwrap();
                assert!(
                    !Arc::ptr_eq(prev.augmented_handle(owner), next.augmented_handle(owner)),
                    "{label}: owner {owner}'s augmented graph must be rebuilt"
                );
                assert!(
                    !Arc::ptr_eq(prev.real_hops_handle(owner), next.real_hops_handle(owner)),
                    "{label}: owner {owner}'s real hops must be rebuilt"
                );
                for &f in &m.shortcut_sites {
                    assert!(
                        !Arc::ptr_eq(
                            prev.complementary().shortcuts_handle(f),
                            next.complementary().shortcuts_handle(f),
                        ),
                        "{label}: site {f}'s shortcut table changed and must be detached"
                    );
                }
                prev = next;
            }
            assert!(applied >= 10, "{label}: not enough applicable updates");
        }
    }
}

/// Every filled transit-memo entry of `snap` equals a fresh
/// `border_matrix` sweep of the same segment on the snapshot's own
/// augmented graph. Returns the number of entries checked.
fn assert_memos_exact(snap: &discset::closure::snapshot::EngineSnapshot, label: &str) -> usize {
    use discset::closure::local::border_matrix;
    let planner = snap.planner();
    let mut checked = 0;
    for f in 0..snap.site_count() {
        for (prev, next, memo) in snap.transit_handle(f).entries() {
            let sweep = border_matrix(
                snap.augmented_handle(f),
                planner.ds_between(prev, f),
                planner.ds_between(f, next),
            );
            assert_eq!(
                *memo, sweep,
                "{label}: site {f}'s memoized segment {prev}->{f}->{next} differs from a sweep"
            );
            checked += 1;
        }
    }
    checked
}

/// Answer `pairs` through `snap` (as one batch and as single queries)
/// and compare every answer with Dijkstra on the snapshot's graph.
fn assert_snapshot_exact(
    snap: &discset::closure::snapshot::EngineSnapshot,
    pairs: &[(NodeId, NodeId)],
    scratch: &mut discset::graph::ScratchDijkstra,
    label: &str,
) {
    let requests: Vec<QueryRequest> = pairs.iter().map(|&p| p.into()).collect();
    let batch = snap.query_batch(&requests, scratch);
    assert!(batch.stats.segments_memoized <= batch.stats.segments_computed);
    for (&(x, y), got) in pairs.iter().zip(batch.costs()) {
        let want = baseline::shortest_path_cost(snap.graph(), x, y);
        assert_eq!(got, want, "{label}: batch {x}->{y}");
        assert_eq!(
            snap.shortest_path(x, y, scratch).cost,
            want,
            "{label}: single {x}->{y}"
        );
    }
}

/// The transit memo is bit-identical to the sweeps it replaces and
/// follows updates: over transportation and general graphs, a cyclic
/// fragmentation (enumerated chains), a PHE hub and both complementary
/// scopes, every answer equals the Dijkstra oracle and every filled
/// memo entry equals a fresh sweep. Through seeded inserts and removes
/// on cloned successors (one crossing removal, which recomputes in
/// full), the touched sites' memos are fresh and empty, every other
/// site's memo stays `Arc::ptr_eq` with the previous epoch — and, still
/// shared, stays exact on the new epoch.
#[test]
fn transit_memos_equal_sweeps_and_follow_updates() {
    use discset::closure::phe::hub_fragmentation;
    use discset::closure::snapshot::EngineSnapshot;
    use discset::closure::ComplementaryScope;
    use discset::fragment::{semantic, CrossingPolicy, Fragmentation};
    use discset::gen::ClusterTopology;
    use discset::graph::ScratchDijkstra;
    use discset::NetworkUpdate;
    use std::sync::Arc;

    let mut scratch = ScratchDijkstra::new();
    let (mut memo_entries, mut crossings) = (0, 0);
    for seed in 0..3u64 {
        let general = generate_general(
            &GeneralConfig {
                nodes: 28,
                target_edges: 64,
                ..Default::default()
            },
            seed,
        );
        let transport = |topology| {
            generate_transportation(
                &TransportationConfig {
                    clusters: 4,
                    nodes_per_cluster: 8,
                    target_edges_per_cluster: 18,
                    topology,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let chain = transport(ClusterTopology::Chain);
        let ring = transport(ClusterTopology::Ring);
        let by_labels = |g: &discset::gen::GeneratedGraph| {
            semantic::by_labels(
                g.nodes,
                &g.connections,
                g.cluster_of.as_ref().unwrap(),
                4,
                CrossingPolicy::LowerBlock,
            )
            .unwrap()
        };
        let linear = linear_sweep(
            &general.edge_list(),
            &LinearConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let (hub_frag, hub) = hub_fragmentation(
            ring.nodes,
            &ring.connections,
            ring.cluster_of.as_ref().unwrap(),
            4,
        )
        .unwrap();
        let ring_frag = by_labels(&ring);
        assert!(
            !ring_frag.fragmentation_graph().is_acyclic(),
            "ring is cyclic"
        );

        // The per-DS scope is exact only on loosely connected
        // fragmentations, so the cyclic ring runs the per-border scope.
        let per_ds = ComplementaryScope::PerDisconnectionSet;
        let per_border = ComplementaryScope::PerFragmentBorder;
        let cases: Vec<(
            &str,
            &discset::gen::GeneratedGraph,
            Fragmentation,
            _,
            Option<usize>,
        )> = vec![
            (
                "general/linear/per-ds",
                &general,
                linear.clone(),
                per_ds,
                None,
            ),
            (
                "general/linear/per-border",
                &general,
                linear,
                per_border,
                None,
            ),
            (
                "chain/labels/per-ds",
                &chain,
                by_labels(&chain),
                per_ds,
                None,
            ),
            (
                "chain/labels/per-border",
                &chain,
                by_labels(&chain),
                per_border,
                None,
            ),
            ("ring/labels/per-border", &ring, ring_frag, per_border, None),
            (
                "ring/hub/per-ds",
                &ring,
                hub_frag.clone(),
                per_ds,
                Some(hub),
            ),
            (
                "ring/hub/per-border",
                &ring,
                hub_frag,
                per_border,
                Some(hub),
            ),
        ];
        for (name, g, frag, scope, hub) in cases {
            let label = format!("seed {seed} {name}");
            let cfg = EngineConfig {
                scope,
                hub,
                ..EngineConfig::default()
            };
            let mut prev = EngineSnapshot::build(g.closure_graph(), frag, true, cfg).unwrap();
            let sites = prev.site_count();
            assert!(
                (0..sites).all(|f| prev.transit_handle(f).entries().count() == 0),
                "{label}: memos start empty"
            );
            // Warm on every pair, then check answers again over warm memos.
            let all: Vec<(NodeId, NodeId)> = (0..g.nodes as u32)
                .flat_map(|x| (0..g.nodes as u32).map(move |y| (NodeId(x), NodeId(y))))
                .collect();
            assert_snapshot_exact(&prev, &all, &mut scratch, &label);
            memo_entries += assert_memos_exact(&prev, &label);
            if let Some(h) = hub {
                assert!(
                    prev.transit_handle(h).entries().count() > 0,
                    "{label}: cluster-to-cluster chains cross the hub"
                );
            }

            let mut rng = StdRng::seed_from_u64(0x7A11 ^ seed << 8 ^ sites as u64);
            let mut applied = 0;
            let mut crossed = false;
            for step in 0..200 {
                if applied >= 8 && crossed {
                    break;
                }
                // One removal of a crossing edge (both endpoints border
                // nodes) once the random updates are in; else random.
                let crossing = (applied >= 8).then(|| {
                    let frag = prev.fragmentation();
                    let border = |v| frag.fragments_of_node(v).len() >= 2;
                    frag.fragments().iter().find_map(|f| {
                        f.edges()
                            .iter()
                            .find(|e| border(e.src) && border(e.dst))
                            .map(|e| NetworkUpdate::Remove {
                                src: e.src,
                                dst: e.dst,
                                owner: f.id(),
                            })
                    })
                });
                let update = match crossing {
                    Some(Some(u)) => u,
                    Some(None) => break, // no crossing edge in this fragmentation
                    None => match arb_update(&mut rng, prev.fragmentation()) {
                        Some(u) => u,
                        None => continue,
                    },
                };
                let mut next = prev.clone();
                let Ok(m) = next.maintain_cow(&update, &mut scratch) else {
                    continue;
                };
                if m.owner.is_none() {
                    continue;
                }
                if crossing.is_some() {
                    assert!(
                        m.report.full_recompute,
                        "{label}: crossing removal recomputes"
                    );
                    crossed = true;
                    crossings += 1;
                } else {
                    applied += 1;
                }
                let step_label = format!("{label} step {step} {update:?}");
                for f in 0..sites {
                    let shared = Arc::ptr_eq(prev.transit_handle(f), next.transit_handle(f));
                    if m.touched_sites.contains(&f) {
                        assert!(!shared, "{step_label}: touched site {f} keeps its memo");
                        assert_eq!(
                            next.transit_handle(f).entries().count(),
                            0,
                            "{step_label}: touched site {f}'s memo is not fresh"
                        );
                    } else {
                        assert!(shared, "{step_label}: untouched site {f} lost its memo");
                    }
                }
                let pairs: Vec<(NodeId, NodeId)> = (0..40)
                    .map(|_| {
                        (
                            NodeId(rng.gen_index(g.nodes) as u32),
                            NodeId(rng.gen_index(g.nodes) as u32),
                        )
                    })
                    .collect();
                assert_snapshot_exact(&next, &pairs, &mut scratch, &step_label);
                memo_entries += assert_memos_exact(&next, &step_label);
                prev = next;
            }
            assert!(applied >= 8, "{label}: not enough applicable updates");
        }
    }
    assert!(memo_entries > 0, "no memo entry was ever filled");
    assert!(crossings > 0, "no crossing removal was exercised");
}

/// The site-threads twin of `transit_memos_equal_sweeps_and_follow_updates`:
/// the machine fills its coordinator snapshot's transit memos from the
/// sites' answers. Over a general graph, a transportation chain and a
/// cyclic ring, every answer equals the Dijkstra oracle and every filled
/// entry equals a fresh sweep on the snapshot's augmented graph. Through
/// 8 seeded inserts and removes plus one crossing removal (full
/// recompute) applied by `Machine::update`, exactly the sites whose
/// augmented graph was replaced get a fresh, empty memo, every other
/// site's memo stays `Arc::ptr_eq` with the previous snapshot's, and
/// answers and memos stay exact.
#[test]
fn machine_transit_memos_equal_sweeps_and_follow_updates() {
    use discset::closure::ComplementaryScope;
    use discset::fragment::{semantic, CrossingPolicy};
    use discset::gen::ClusterTopology;
    use discset::machine::Machine;
    use discset::NetworkUpdate;
    use std::sync::Arc;

    let (mut memo_entries, mut crossings) = (0, 0);
    for seed in 0..3u64 {
        let general = generate_general(
            &GeneralConfig {
                nodes: 28,
                target_edges: 64,
                ..Default::default()
            },
            seed,
        );
        let transport = |topology| {
            generate_transportation(
                &TransportationConfig {
                    clusters: 4,
                    nodes_per_cluster: 8,
                    target_edges_per_cluster: 18,
                    topology,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let chain = transport(ClusterTopology::Chain);
        let ring = transport(ClusterTopology::Ring);
        let by_labels = |g: &discset::gen::GeneratedGraph| {
            semantic::by_labels(
                g.nodes,
                &g.connections,
                g.cluster_of.as_ref().unwrap(),
                4,
                CrossingPolicy::LowerBlock,
            )
            .unwrap()
        };
        let linear = linear_sweep(
            &general.edge_list(),
            &LinearConfig {
                fragments: 4,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        // The per-DS scope is exact only on loosely connected
        // fragmentations, so the cyclic ring runs the per-border scope.
        let cases = [
            (
                "general/linear",
                &general,
                linear,
                ComplementaryScope::PerDisconnectionSet,
            ),
            (
                "chain/labels",
                &chain,
                by_labels(&chain),
                ComplementaryScope::PerDisconnectionSet,
            ),
            (
                "ring/labels",
                &ring,
                by_labels(&ring),
                ComplementaryScope::PerFragmentBorder,
            ),
        ];
        for (name, g, frag, scope) in cases {
            let label = format!("seed {seed} {name}");
            let cfg = EngineConfig {
                scope,
                ..EngineConfig::default()
            };
            let mut m = Machine::deploy_with_config(g.closure_graph(), frag, true, cfg).unwrap();
            let sites = m.site_count();
            let mut check = |m: &mut Machine, pairs: &[(NodeId, NodeId)], label: &str| {
                let snap = m.snapshot();
                let requests: Vec<QueryRequest> = pairs.iter().map(|&p| p.into()).collect();
                let batch = m.try_query_batch(&requests).unwrap();
                for (&(x, y), got) in pairs.iter().zip(batch.costs()) {
                    let want = baseline::shortest_path_cost(snap.graph(), x, y);
                    assert_eq!(got, want, "{label}: batch {x}->{y}");
                }
                memo_entries += assert_memos_exact(&m.snapshot(), label);
            };
            let all: Vec<(NodeId, NodeId)> = (0..g.nodes as u32)
                .flat_map(|x| (0..g.nodes as u32).map(move |y| (NodeId(x), NodeId(y))))
                .collect();
            check(&mut m, &all, &label);

            let mut rng = StdRng::seed_from_u64(0xFA11 ^ seed << 8 ^ sites as u64);
            let (mut applied, mut crossed) = (0, false);
            for step in 0..200 {
                if applied >= 8 && crossed {
                    break;
                }
                // One removal of a crossing edge (both endpoints border
                // nodes) once the random updates are in; else random.
                let crossing = (applied >= 8).then(|| {
                    let frag = m.fragmentation();
                    let border = |v| frag.fragments_of_node(v).len() >= 2;
                    frag.fragments().iter().find_map(|f| {
                        f.edges()
                            .iter()
                            .find(|e| border(e.src) && border(e.dst))
                            .map(|e| NetworkUpdate::Remove {
                                src: e.src,
                                dst: e.dst,
                                owner: f.id(),
                            })
                    })
                });
                let update = match crossing {
                    Some(Some(u)) => u,
                    Some(None) => break, // no crossing edge in this fragmentation
                    None => match arb_update(&mut rng, m.fragmentation()) {
                        Some(u) => u,
                        None => continue,
                    },
                };
                let prev = m.snapshot();
                let Ok(report) = m.update(&update) else {
                    continue;
                };
                if report.sites_touched == 0 {
                    continue;
                }
                if crossing.is_some() {
                    assert!(
                        report.full_recompute,
                        "{label}: crossing removal recomputes"
                    );
                    crossed = true;
                    crossings += 1;
                } else {
                    applied += 1;
                }
                let step_label = format!("{label} step {step} {update:?}");
                let next = m.snapshot();
                let mut touched = 0;
                for f in 0..sites {
                    let replaced = !Arc::ptr_eq(prev.augmented_handle(f), next.augmented_handle(f));
                    let shared = Arc::ptr_eq(prev.transit_handle(f), next.transit_handle(f));
                    if replaced {
                        touched += 1;
                        assert!(!shared, "{step_label}: touched site {f} keeps its memo");
                        assert_eq!(
                            next.transit_handle(f).entries().count(),
                            0,
                            "{step_label}: touched site {f}'s memo is not fresh"
                        );
                    } else {
                        assert!(shared, "{step_label}: untouched site {f} lost its memo");
                    }
                }
                assert_eq!(touched, report.sites_touched, "{step_label}");
                let pairs: Vec<(NodeId, NodeId)> = (0..40)
                    .map(|_| {
                        (
                            NodeId(rng.gen_index(g.nodes) as u32),
                            NodeId(rng.gen_index(g.nodes) as u32),
                        )
                    })
                    .collect();
                check(&mut m, &pairs, &step_label);
            }
            assert!(applied >= 8, "{label}: not enough applicable updates");
            m.shutdown();
        }
    }
    assert!(memo_entries > 0, "no memo entry was ever filled");
    assert!(crossings > 0, "no crossing removal was exercised");
}

/// Complementary shortcut costs obey the triangle inequality with the
/// global metric (they ARE global distances).
#[test]
fn shortcut_costs_are_global_distances() {
    for seed in 0..CASES {
        let (n, conns, coords) = arb_graph(seed);
        let el = EdgeList::new(n, conns.clone()).with_coords(coords);
        let frag = linear_sweep(
            &el,
            &LinearConfig {
                fragments: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .fragmentation;
        let csr = closure_graph(n, &conns);
        let comp = discset::closure::ComplementaryInfo::compute(
            &csr,
            &frag,
            discset::closure::ComplementaryScope::PerFragmentBorder,
            false,
        );
        for f in 0..frag.fragment_count() {
            for e in comp.shortcuts(f) {
                assert_eq!(
                    Some(e.cost),
                    baseline::shortest_path_cost(&csr, e.src, e.dst),
                    "seed {seed}"
                );
            }
        }
    }
}

/// Min-plus composition is associative.
#[test]
fn min_plus_composition_is_associative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rel = |name: &'static str, lo: u32, hi: u32| {
            let rows: Vec<PathTuple> = (0..1 + rng.gen_index(11))
                .map(|_| {
                    PathTuple::new(
                        NodeId(lo + rng.gen_index(4) as u32),
                        NodeId(hi + rng.gen_index(4) as u32),
                        1 + rng.gen_index(19) as u64,
                    )
                })
                .collect();
            Relation::from_rows(name, rows)
        };
        let (a, b, c) = (rel("a", 0, 4), rel("b", 4, 8), rel("c", 8, 12));
        let left = compose_min_plus(&compose_min_plus(&a, &b), &c);
        let right = compose_min_plus(&a, &compose_min_plus(&b, &c));
        assert_eq!(left.rows(), right.rows(), "seed {seed}");
    }
}

/// Semi-naive and naive closure agree.
#[test]
fn seminaive_equals_naive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE35));
        let rows: Vec<PathTuple> = (0..1 + rng.gen_index(19))
            .map(|_| {
                PathTuple::new(
                    NodeId(rng.gen_index(8) as u32),
                    NodeId(rng.gen_index(8) as u32),
                    1 + rng.gen_index(8) as u64,
                )
            })
            .collect();
        let rel = Relation::from_rows("R", rows);
        let (a, _) = tc::seminaive_closure(&rel, None);
        let (b, _) = tc::naive_closure(&rel, None);
        assert_eq!(a.rows(), b.rows(), "seed {seed}");
    }
}

/// Closure-strategy equivalence: naive iteration, semi-naive iteration,
/// smart squaring and the fragmented-parallel bulk engine all
/// materialize the *identical* relation — tuple for tuple — across
/// generators × {linear, center} fragmenters × thread counts. And the
/// materialized tuples are true distances: on sampled pairs they equal
/// the per-query engine's `query_batch` answers.
#[test]
fn all_closure_strategies_materialize_the_same_relation() {
    use discset::relation::bulk::{FragmentPartition, MaterializeConfig, MaterializeEngine};

    for seed in 0..6u64 {
        let g = if seed % 2 == 0 {
            generate_general(
                &GeneralConfig {
                    nodes: 18,
                    target_edges: 40,
                    ..Default::default()
                },
                seed,
            )
        } else {
            generate_transportation(
                &TransportationConfig {
                    clusters: 3,
                    nodes_per_cluster: 7,
                    target_edges_per_cluster: 16,
                    ..TransportationConfig::default()
                },
                seed,
            )
        };
        let el = g.edge_list();
        let fragmentations = [
            (
                "linear",
                linear_sweep(
                    &el,
                    &LinearConfig {
                        fragments: 3,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
            (
                "center",
                center_based(
                    &el,
                    &CenterConfig {
                        fragments: 3,
                        ..Default::default()
                    },
                )
                .unwrap()
                .fragmentation,
            ),
        ];
        for (family, frag) in fragmentations {
            let label = format!("seed {seed} {family}");
            let partition = FragmentPartition::new(&frag, g.symmetric);
            let union = partition.union_relation();
            let (seminaive, _) = tc::seminaive_closure(&union, None);
            let (naive, _) = tc::naive_closure(&union, None);
            let (smart, _) = tc::smart_closure(&union);
            assert_eq!(seminaive.rows(), naive.rows(), "{label}: naive");
            assert_eq!(seminaive.rows(), smart.rows(), "{label}: smart");
            for threads in [1usize, 3] {
                let engine = MaterializeEngine::new(
                    partition.clone(),
                    MaterializeConfig::with_threads(threads),
                );
                let (bulk, stats) = engine.materialize().unwrap();
                assert_eq!(
                    bulk.rows(),
                    seminaive.rows(),
                    "{label}: bulk with {threads} threads"
                );
                assert_eq!(stats.tc.result_tuples, seminaive.len(), "{label}");
                assert_eq!(stats.per_round.len(), stats.rounds, "{label}");
            }

            // Oracle: the materialized tuples are the per-query engine's
            // distances on sampled distinct pairs.
            let mut sys = System::builder()
                .graph(&g)
                .fragmenter(Fragmenter::Prebuilt(frag))
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(0xD15C ^ (seed << 3));
            let mut pairs = Vec::new();
            while pairs.len() < 12 {
                let x = NodeId(rng.gen_index(g.nodes) as u32);
                let y = NodeId(rng.gen_index(g.nodes) as u32);
                if x != y {
                    pairs.push((x, y));
                }
            }
            let requests: Vec<QueryRequest> = pairs
                .iter()
                .map(|&(x, y)| QueryRequest::new(x, y))
                .collect();
            let batch = sys.query_batch(&requests);
            for (&(x, y), answer) in pairs.iter().zip(&batch.answers) {
                assert_eq!(
                    seminaive.cost_of(x, y),
                    answer.cost,
                    "{label}: materialized {x}->{y} vs query_batch"
                );
            }
        }
    }
}

/// Generators are deterministic per seed.
#[test]
fn generator_determinism() {
    for seed in (0..500).step_by(7) {
        let cfg = GeneralConfig {
            nodes: 30,
            target_edges: 60,
            ..Default::default()
        };
        let a = generate_general(&cfg, seed);
        let b = generate_general(&cfg, seed);
        assert_eq!(a.connections, b.connections, "seed {seed}");
        assert_eq!(a.coords, b.coords, "seed {seed}");
    }
}
