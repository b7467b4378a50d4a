//! Adjacency-matrix representations and matrix-based closure kernels.
//!
//! The bond-energy algorithm (§3.2) "uses an adjacency-matrix to denote
//! the graph being fragmented"; [`AdjacencyMatrix`] is that structure,
//! with rows stored as bit sets so column inner products are popcounts.
//! The same representation gives a word-parallel Warshall transitive
//! closure and a Floyd–Warshall all-pairs cost matrix, both used as exact
//! baselines.

use crate::bitset::BitSet;
use crate::types::{Cost, NodeId, INFINITE_COST};
use crate::CsrGraph;

/// A square 0/1 adjacency matrix with bitset rows.
///
/// As in the paper, `M[i][j] = 1` iff a direct connection `i -> j` exists,
/// and the diagonal is set to 1 on construction ("Each entry `M[i,i]` is
/// also made 1", §3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct AdjacencyMatrix {
    n: usize,
    rows: Vec<BitSet>,
}

impl AdjacencyMatrix {
    /// All-zero matrix (no implicit diagonal).
    pub fn zero(n: usize) -> Self {
        AdjacencyMatrix {
            n,
            rows: vec![BitSet::new(n); n],
        }
    }

    /// Build from a graph, setting the diagonal as the paper prescribes.
    pub fn from_graph(g: &CsrGraph) -> Self {
        let n = g.node_count();
        let mut m = AdjacencyMatrix::zero(n);
        for i in 0..n {
            m.rows[i].insert(i);
        }
        for e in g.edges() {
            m.rows[e.src.index()].insert(e.dst.index());
        }
        m
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i].contains(j)
    }

    /// Set entry `(i, j)` to 1.
    pub fn set(&mut self, i: usize, j: usize) {
        self.rows[i].insert(j);
    }

    /// Row `i` as a bit set.
    pub fn row(&self, i: usize) -> &BitSet {
        &self.rows[i]
    }

    /// Column `j` extracted as a bit set (O(n)).
    pub fn column(&self, j: usize) -> BitSet {
        let mut col = BitSet::new(self.n);
        for i in 0..self.n {
            if self.rows[i].contains(j) {
                col.insert(i);
            }
        }
        col
    }

    /// Inner product of columns `j` and `k`:
    /// `Σ_i M[i,j] · M[i,k]` — the affinity measure the bond-energy
    /// placement maximizes (§3.2).
    pub fn column_inner_product(&self, j: usize, k: usize) -> usize {
        let mut sum = 0;
        for i in 0..self.n {
            if self.rows[i].contains(j) && self.rows[i].contains(k) {
                sum += 1;
            }
        }
        sum
    }

    /// The matrix with rows and columns symmetrically permuted:
    /// `out[i][j] = self[perm[i]][perm[j]]`. This is the "reordering"
    /// step of the bond-energy algorithm.
    pub fn permuted(&self, perm: &[usize]) -> AdjacencyMatrix {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut out = AdjacencyMatrix::zero(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if self.get(perm[i], perm[j]) {
                    out.set(i, j);
                }
            }
        }
        out
    }

    /// In-place Warshall transitive closure, word-parallel:
    /// `row[i] |= row[k]` whenever `M[i][k]`. O(n² · n/64).
    pub fn close_transitively(&mut self) {
        for k in 0..self.n {
            let row_k = self.rows[k].clone();
            for i in 0..self.n {
                if i != k && self.rows[i].contains(k) {
                    self.rows[i].union_with(&row_k);
                }
            }
        }
    }
}

/// All-pairs shortest path costs by Floyd–Warshall.
///
/// Exact baseline for small graphs and for the final "very small relation"
/// assembly checks. `result[i][j] == INFINITE_COST` means unreachable;
/// `result[i][i] == 0`.
pub fn floyd_warshall(g: &CsrGraph) -> Vec<Vec<Cost>> {
    let n = g.node_count();
    let mut d = vec![vec![INFINITE_COST; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for e in g.edges() {
        let (i, j) = (e.src.index(), e.dst.index());
        if e.cost < d[i][j] {
            d[i][j] = e.cost;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i][k];
            if dik >= INFINITE_COST {
                continue;
            }
            #[allow(clippy::needless_range_loop)] // d[i][j] and d[k][j] in lockstep
            for j in 0..n {
                let cand = dik + d[k][j];
                if cand < d[i][j] {
                    d[i][j] = cand;
                }
            }
        }
    }
    d
}

/// Reachability closure as a boolean matrix (diagonal true), via the
/// word-parallel Warshall kernel.
pub fn reachability_closure(g: &CsrGraph) -> AdjacencyMatrix {
    let mut m = AdjacencyMatrix::from_graph(g);
    m.close_transitively();
    m
}

/// Count reachable ordered pairs `(i, j)`, `i != j` — the size of the
/// transitive closure relation (diagonal excluded).
pub fn closure_cardinality(g: &CsrGraph) -> usize {
    let m = reachability_closure(g);
    let n = m.order();
    let mut count = 0;
    for i in 0..n {
        count += m.row(i).count_ones();
    }
    count - n // remove the diagonal
}

/// Convenience: shortest-path cost between two nodes out of a
/// Floyd–Warshall table, as `Option`.
pub fn fw_cost(table: &[Vec<Cost>], src: NodeId, dst: NodeId) -> Option<Cost> {
    let d = table[src.index()][dst.index()];
    (d < INFINITE_COST).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::types::Edge;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(
            4,
            &[
                Edge::new(NodeId(0), NodeId(1), 1),
                Edge::new(NodeId(0), NodeId(2), 4),
                Edge::new(NodeId(1), NodeId(2), 2),
                Edge::new(NodeId(1), NodeId(3), 7),
                Edge::new(NodeId(2), NodeId(3), 1),
            ],
        )
    }

    #[test]
    fn from_graph_sets_diagonal() {
        let m = AdjacencyMatrix::from_graph(&diamond());
        for i in 0..4 {
            assert!(m.get(i, i), "diagonal must be 1 (paper §3.2)");
        }
        assert!(m.get(0, 1));
        assert!(!m.get(1, 0), "directed edge only");
    }

    #[test]
    fn column_inner_product_matches_definition() {
        let m = AdjacencyMatrix::from_graph(&diamond());
        // Explicit double loop definition.
        for j in 0..4 {
            for k in 0..4 {
                let brute: usize = (0..4).filter(|&i| m.get(i, j) && m.get(i, k)).count();
                assert_eq!(m.column_inner_product(j, k), brute);
                assert_eq!(m.column(j).intersection_count(&m.column(k)), brute);
            }
        }
    }

    #[test]
    fn permutation_is_symmetric_relabeling() {
        let m = AdjacencyMatrix::from_graph(&diamond());
        let perm = vec![3, 2, 1, 0];
        let p = m.permuted(&perm);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(p.get(i, j), m.get(perm[i], perm[j]));
            }
        }
        // Permuting back with the inverse restores the original.
        let back = p.permuted(&perm);
        assert_eq!(back, m);
    }

    #[test]
    fn warshall_closure_on_path() {
        let g = CsrGraph::from_edges(
            3,
            &[
                Edge::unit(NodeId(0), NodeId(1)),
                Edge::unit(NodeId(1), NodeId(2)),
            ],
        );
        let m = reachability_closure(&g);
        assert!(m.get(0, 2), "transitive edge present after closure");
        assert!(!m.get(2, 0));
        assert_eq!(closure_cardinality(&g), 3); // (0,1), (1,2), (0,2)
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let g = diamond();
        let fw = floyd_warshall(&g);
        for s in g.nodes() {
            let sp = dijkstra::single_source(&g, s);
            for t in g.nodes() {
                assert_eq!(fw_cost(&fw, s, t), sp.cost(t), "fw vs dijkstra at {s}->{t}");
            }
        }
    }

    #[test]
    fn floyd_warshall_parallel_edges_take_min() {
        let g = CsrGraph::from_edges(
            2,
            &[
                Edge::new(NodeId(0), NodeId(1), 9),
                Edge::new(NodeId(0), NodeId(1), 2),
            ],
        );
        let fw = floyd_warshall(&g);
        assert_eq!(fw_cost(&fw, NodeId(0), NodeId(1)), Some(2));
    }

    #[test]
    fn closure_cardinality_complete_digraph() {
        // Symmetric triangle: every ordered pair reachable.
        let mut edges = Vec::new();
        for (a, b) in [(0u32, 1), (1, 2), (2, 0)] {
            edges.push(Edge::unit(NodeId(a), NodeId(b)));
            edges.push(Edge::unit(NodeId(b), NodeId(a)));
        }
        let g = CsrGraph::from_edges(3, &edges);
        assert_eq!(closure_cardinality(&g), 6);
    }
}
