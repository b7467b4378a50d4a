//! The Dijkstra oracle every run is checked against, computed before
//! any timed region starts.

use discset::graph::dijkstra::single_source;
use discset::graph::types::INFINITE_COST;
use discset::graph::{CsrGraph, NodeId};
use discset::relation::{PathTuple, Relation};

/// All-pairs shortest-path costs: one Dijkstra sweep per source.
pub struct Apsp {
    n: usize,
    dist: Vec<u64>,
    /// Per node, its cheapest cycle (the closure's `(v, v)` tuple).
    cycle: Vec<u64>,
}

impl Apsp {
    pub fn new(g: &CsrGraph) -> Apsp {
        let n = g.node_count();
        let mut dist = Vec::with_capacity(n * n);
        for v in 0..n {
            dist.extend_from_slice(single_source(g, NodeId(v as u32)).costs());
        }
        let cycle = (0..n)
            .map(|v| {
                g.neighbors(NodeId(v as u32))
                    .map(|(u, w)| w.saturating_add(dist[u.index() * n + v]))
                    .min()
                    .unwrap_or(INFINITE_COST)
            })
            .collect();
        Apsp { n, dist, cycle }
    }

    /// Shortest-path cost from `x` to `y` (0 for `x == y`), `None` when
    /// unreachable.
    pub fn cost(&self, x: NodeId, y: NodeId) -> Option<u64> {
        let d = self.dist[x.index() * self.n + y.index()];
        (d < INFINITE_COST).then_some(d)
    }

    /// The closure's cost for `(x, y)`: a node reaches itself through
    /// its cheapest cycle.
    fn closure_cost(&self, x: usize, y: usize) -> u64 {
        if x == y {
            self.cycle[x]
        } else {
            self.dist[x * self.n + y]
        }
    }

    /// Whether `materialized` is exactly the transitive closure: one
    /// minimum-cost tuple per reachable ordered pair.
    pub fn matches_closure(&self, materialized: &Relation<PathTuple>) -> bool {
        let expected = (0..self.n)
            .flat_map(|x| (0..self.n).map(move |y| (x, y)))
            .filter(|&(x, y)| self.closure_cost(x, y) < INFINITE_COST)
            .count();
        materialized.len() == expected
            && materialized
                .rows()
                .iter()
                .all(|t| t.cost == self.closure_cost(t.src.index(), t.dst.index()))
    }
}
