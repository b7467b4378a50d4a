//! Transitive closure as an iterated join program.
//!
//! Two classical strategies over the path relation:
//! * **naive** — re-join the whole accumulated result with the base
//!   relation every round;
//! * **semi-naive** — join only the *delta* (tuples that improved last
//!   round), the strategy the disconnection set approach assumes
//!   per-fragment.
//!
//! Both compute the *min-cost* closure (group the discovered paths by
//! endpoint pair, keep the cheapest) and accept an optional source
//! restriction — the "additional selections" that disconnection sets
//! introduce: "they act as intermediate nodes that must be mandatorily
//! traversed" (§2.1), so a fragment subquery only ever starts from its
//! entry border set.
//!
//! Iteration counts are reported in [`TcStats`]; for unit costs the
//! semi-naive fixpoint arrives after (hop-)diameter rounds, which is the
//! quantity the paper's speed-up argument is built on.

use std::collections::HashMap;

use ds_graph::{Cost, NodeId};

use crate::join::{hash_join, JoinIndex};
use crate::relation::Relation;
use crate::stats::TcStats;
use crate::tuple::PathTuple;

/// Semi-naive min-cost transitive closure.
///
/// With `sources = Some(set)`, only paths starting in `set` are derived
/// (the keyhole selection); with `None`, the full closure.
pub fn seminaive_closure(
    edges: &Relation<PathTuple>,
    sources: Option<&[NodeId]>,
) -> (Relation<PathTuple>, TcStats) {
    let mut stats = TcStats::default();
    // best[(s, d)] = cheapest known path cost.
    let mut best: HashMap<(NodeId, NodeId), Cost> = HashMap::new();
    let mut delta: Vec<PathTuple> = Vec::new();

    let seed: Box<dyn Fn(&PathTuple) -> bool> = match sources {
        Some(set) => {
            let set: std::collections::HashSet<NodeId> = set.iter().copied().collect();
            Box::new(move |t: &PathTuple| set.contains(&t.src))
        }
        None => Box::new(|_| true),
    };
    for t in edges.rows().iter().filter(|t| seed(t)) {
        stats.tuples_generated += 1;
        if improves(&mut best, t) {
            delta.push(*t);
        }
    }

    // The build side of the iterated join never changes: index the edge
    // relation once and probe it with each round's delta.
    let index = JoinIndex::build(edges, |r| r.src);
    let mut joined = Vec::new();
    while !delta.is_empty() {
        stats.iterations += 1;
        if stats.iterations > 1 {
            stats.index_reuses += 1;
        }
        joined.clear();
        stats.tuples_generated += index.join_into(
            &delta,
            |l| l.dst,
            |l, r| PathTuple::new(l.src, r.dst, l.cost + r.cost),
            &mut joined,
        );
        let mut next = Vec::new();
        for t in &joined {
            if improves(&mut best, t) {
                next.push(*t);
            }
        }
        stats.delta_sizes.push(next.len());
        delta = next;
    }

    let result = collect(best);
    stats.result_tuples = result.len();
    (result, stats)
}

/// Naive min-cost transitive closure: re-derives everything each round.
/// Kept as the baseline the semi-naive strategy is measured against.
pub fn naive_closure(
    edges: &Relation<PathTuple>,
    sources: Option<&[NodeId]>,
) -> (Relation<PathTuple>, TcStats) {
    let mut stats = TcStats::default();
    let base = match sources {
        Some(set) => {
            let set: std::collections::HashSet<NodeId> = set.iter().copied().collect();
            edges.select(move |t| set.contains(&t.src))
        }
        None => edges.clone(),
    };
    let mut total = base.min_cost();
    stats.tuples_generated += total.len();

    // As in the semi-naive loop, the build side (the base relation) is
    // static: index it once, probe it with the whole accumulated result
    // each round — that re-probing is what makes the strategy "naive".
    let index = JoinIndex::build(edges, |r| r.src);
    loop {
        stats.iterations += 1;
        if stats.iterations > 1 {
            stats.index_reuses += 1;
        }
        let mut joined = Vec::new();
        stats.tuples_generated += index.join_into(
            total.rows(),
            |l| l.dst,
            |l, r| PathTuple::new(l.src, r.dst, l.cost + r.cost),
            &mut joined,
        );
        stats.delta_sizes.push(joined.len());
        let next = total
            .union(&Relation::from_rows("naive", joined))
            .min_cost();
        if next.rows() == total.rows() {
            break;
        }
        total = next;
    }
    stats.result_tuples = total.len();
    (total, stats)
}

/// "Smart" min-cost transitive closure by repeated squaring
/// (the logarithmic strategy of the paper's ref \[16\], Ioannidis &
/// Ramakrishnan): each round composes the accumulated path relation with
/// *itself*, so path lengths double per round and the fixpoint arrives
/// after ⌈log₂ diameter⌉ + 1 rounds instead of `diameter`.
///
/// The price is fatter intermediate joins (paths ⋈ paths instead of
/// delta ⋈ edges) — the classic iterations-vs-work trade-off, measured in
/// the `kernels` bench.
pub fn smart_closure(edges: &Relation<PathTuple>) -> (Relation<PathTuple>, TcStats) {
    let mut stats = TcStats::default();
    let mut total = edges.min_cost();
    stats.tuples_generated += total.len();
    loop {
        stats.iterations += 1;
        let squared = hash_join(
            &total,
            &total,
            |l| l.dst,
            |r| r.src,
            |l, r| PathTuple::new(l.src, r.dst, l.cost + r.cost),
        );
        stats.tuples_generated += squared.len();
        stats.delta_sizes.push(squared.len());
        let next = total.union(&squared).min_cost();
        if next.rows() == total.rows() {
            break;
        }
        total = next;
    }
    stats.result_tuples = total.len();
    (total, stats)
}

fn improves(best: &mut HashMap<(NodeId, NodeId), Cost>, t: &PathTuple) -> bool {
    match best.entry(t.endpoints()) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if t.cost < *e.get() {
                e.insert(t.cost);
                true
            } else {
                false
            }
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(t.cost);
            true
        }
    }
}

fn collect(best: HashMap<(NodeId, NodeId), Cost>) -> Relation<PathTuple> {
    let mut rows: Vec<PathTuple> = best
        .into_iter()
        .map(|((s, d), c)| PathTuple::new(s, d, c))
        .collect();
    rows.sort_unstable();
    Relation::from_rows("tc", rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn path_edges(len: u32) -> Relation<PathTuple> {
        Relation::from_rows(
            "edge",
            (0..len)
                .map(|i| PathTuple::new(n(i), n(i + 1), 1))
                .collect(),
        )
    }

    #[test]
    fn seminaive_full_closure_of_path() {
        let (tc, stats) = seminaive_closure(&path_edges(4), None);
        // All ordered pairs i < j: 4+3+2+1 = 10.
        assert_eq!(tc.len(), 10);
        assert_eq!(tc.cost_of(n(0), n(4)), Some(4));
        // Fixpoint after diameter rounds (plus the empty-delta probe).
        assert!(stats.iterations <= 4, "iterations {}", stats.iterations);
        assert_eq!(stats.result_tuples, 10);
    }

    /// The satellite perf fix: the hash-join build table over the edge
    /// relation is built once and probed every following round, and the
    /// per-iteration delta trajectory is recorded.
    #[test]
    fn build_table_is_reused_and_deltas_are_tracked() {
        let (tc, stats) = seminaive_closure(&path_edges(4), None);
        assert_eq!(tc.len(), 10);
        assert_eq!(stats.index_reuses, stats.iterations - 1);
        assert_eq!(stats.delta_sizes.len(), stats.iterations);
        // Path graph: no cost improvements, so seeds + deltas = result.
        assert_eq!(stats.delta_sizes.iter().sum::<usize>(), 10 - 4);
        assert_eq!(*stats.delta_sizes.last().unwrap(), 0, "fixpoint probe");
        let (_, nstats) = naive_closure(&path_edges(4), None);
        assert_eq!(nstats.index_reuses, nstats.iterations - 1);
    }

    #[test]
    fn naive_matches_seminaive() {
        let edges = Relation::from_rows(
            "edge",
            vec![
                PathTuple::new(n(0), n(1), 2),
                PathTuple::new(n(1), n(2), 2),
                PathTuple::new(n(0), n(2), 10), // worse direct route
                PathTuple::new(n(2), n(0), 1),  // cycle back
            ],
        );
        let (a, _) = seminaive_closure(&edges, None);
        let (b, _) = naive_closure(&edges, None);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cost_of(n(0), n(2)), Some(4), "indirect route wins");
        assert_eq!(a.cost_of(n(0), n(0)), Some(5), "round trip via cycle");
    }

    #[test]
    fn naive_generates_more_tuples() {
        let edges = path_edges(6);
        let (_, semi) = seminaive_closure(&edges, None);
        let (_, naive) = naive_closure(&edges, None);
        assert!(
            naive.tuples_generated > semi.tuples_generated,
            "naive {} vs semi-naive {}",
            naive.tuples_generated,
            semi.tuples_generated
        );
    }

    #[test]
    fn source_restriction_is_the_keyhole() {
        let edges = path_edges(5);
        let (tc, _) = seminaive_closure(&edges, Some(&[n(2)]));
        // Only paths from node 2: (2,3), (2,4), (2,5).
        assert_eq!(tc.len(), 3);
        assert!(tc.rows().iter().all(|t| t.src == n(2)));
        let (tc_naive, _) = naive_closure(&edges, Some(&[n(2)]));
        assert_eq!(tc.rows(), tc_naive.rows());
    }

    #[test]
    fn smart_matches_seminaive_with_fewer_iterations() {
        let edges = path_edges(16);
        let (semi, semi_stats) = seminaive_closure(&edges, None);
        let (smart, smart_stats) = smart_closure(&edges);
        assert_eq!(semi.rows(), smart.rows());
        // 16-hop diameter: semi-naive needs ~16 rounds, squaring ~5.
        assert!(
            smart_stats.iterations < semi_stats.iterations / 2,
            "smart {} vs semi-naive {}",
            smart_stats.iterations,
            semi_stats.iterations
        );
    }

    #[test]
    fn smart_handles_cycles_and_costs() {
        let edges = Relation::from_rows(
            "edge",
            vec![
                PathTuple::new(n(0), n(1), 2),
                PathTuple::new(n(1), n(2), 2),
                PathTuple::new(n(2), n(0), 1),
                PathTuple::new(n(0), n(2), 10),
            ],
        );
        let (smart, _) = smart_closure(&edges);
        let (semi, _) = seminaive_closure(&edges, None);
        assert_eq!(smart.rows(), semi.rows());
        assert_eq!(smart.cost_of(n(0), n(2)), Some(4));
    }

    #[test]
    fn cycles_terminate() {
        let edges = Relation::from_rows(
            "edge",
            vec![
                PathTuple::new(n(0), n(1), 1),
                PathTuple::new(n(1), n(2), 1),
                PathTuple::new(n(2), n(0), 1),
            ],
        );
        let (tc, stats) = seminaive_closure(&edges, None);
        assert_eq!(
            tc.len(),
            9,
            "all ordered pairs incl. self-loops via the cycle"
        );
        assert_eq!(tc.cost_of(n(0), n(0)), Some(3));
        assert!(stats.iterations < 10, "must converge quickly");
    }

    #[test]
    fn empty_edges() {
        let e: Relation<PathTuple> = Relation::empty("edge");
        let (tc, stats) = seminaive_closure(&e, None);
        assert!(tc.is_empty());
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn iterations_track_hop_diameter() {
        // A path of length 8 needs ~8 rounds; split in two halves of 4,
        // each fragment needs ~4 — the §2.1 speed-up source.
        let (_, whole) = seminaive_closure(&path_edges(8), None);
        let half1 = Relation::from_rows(
            "h1",
            (0..4).map(|i| PathTuple::new(n(i), n(i + 1), 1)).collect(),
        );
        let (_, frag) = seminaive_closure(&half1, None);
        assert!(frag.iterations < whole.iterations);
    }
}
