//! Strongly connected components and the condensation DAG.
//!
//! [`condense`] runs Tarjan's algorithm with an explicit stack (no
//! recursion — million-node graphs would overflow the call stack) and
//! renumbers the components so that **component ids are a topological
//! order of the condensation**: every DAG edge goes from a lower id to a
//! strictly higher id. The reachability index ([`crate::reach`]) leans on
//! that invariant for its reverse-topological dynamic programming.
//!
//! Everything is u32-packed: `comp_of` is one u32 per node and the
//! condensed DAG is a deduplicated CSR over component ids, so the
//! condensation of a million-node graph costs a few MB, not hundreds.

use crate::csr::CsrGraph;
use crate::types::NodeId;

const UNVISITED: u32 = u32::MAX;

/// The SCC condensation of a directed graph: a node → component map plus
/// the condensed DAG in CSR form (deduplicated, topologically numbered).
#[derive(Clone, Debug)]
pub struct Condensation {
    comp_of: Vec<u32>,
    comp_count: u32,
    dag_offsets: Vec<u32>,
    dag_targets: Vec<u32>,
}

impl Condensation {
    /// Number of strongly connected components.
    #[inline]
    pub fn comp_count(&self) -> usize {
        self.comp_count as usize
    }

    /// Component id of `v`. Ids are topological: a DAG edge always goes
    /// from a lower id to a higher id.
    #[inline]
    pub fn comp(&self, v: NodeId) -> u32 {
        self.comp_of[v.index()]
    }

    /// The full node → component map.
    #[inline]
    pub fn comp_of(&self) -> &[u32] {
        &self.comp_of
    }

    /// Successors of component `c` in the condensed DAG (deduplicated,
    /// all strictly greater than `c`).
    #[inline]
    pub fn dag_successors(&self, c: u32) -> &[u32] {
        let lo = self.dag_offsets[c as usize] as usize;
        let hi = self.dag_offsets[c as usize + 1] as usize;
        &self.dag_targets[lo..hi]
    }

    /// Number of distinct edges in the condensed DAG.
    #[inline]
    pub fn dag_edge_count(&self) -> usize {
        self.dag_targets.len()
    }
}

/// Condense `graph` into its SCC DAG (iterative Tarjan, O(V + E)).
pub fn condense(graph: &CsrGraph) -> Condensation {
    let n = graph.node_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    // Explicit DFS frames: (node, next out-edge offset within the node).
    let mut frames: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, 0));

        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let out = graph.out_targets(NodeId(v));
            if (*ei as usize) < out.len() {
                let w = out[*ei as usize].0;
                *ei += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    lowlink[u as usize] = lowlink[u as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // Tarjan pops components in *reverse* topological
                    // order; record the raw id here and flip it below so
                    // final ids read topologically.
                    loop {
                        let Some(w) = stack.pop() else {
                            unreachable!("Tarjan invariant: the component root {v} is on the stack")
                        };
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }

    for c in comp_of.iter_mut() {
        *c = comp_count - 1 - *c;
    }

    // Condensed DAG: cross-component edges, deduplicated, CSR-packed.
    let mut pairs: Vec<u64> = Vec::new();
    for v in graph.nodes() {
        let cv = comp_of[v.index()];
        for &w in graph.out_targets(v) {
            let cw = comp_of[w.index()];
            if cv != cw {
                pairs.push(((cv as u64) << 32) | cw as u64);
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut dag_offsets = vec![0u32; comp_count as usize + 1];
    for &p in &pairs {
        dag_offsets[(p >> 32) as usize + 1] += 1;
    }
    for i in 0..comp_count as usize {
        dag_offsets[i + 1] += dag_offsets[i];
    }
    let dag_targets: Vec<u32> = pairs.iter().map(|&p| p as u32).collect();

    Condensation {
        comp_of,
        comp_count,
        dag_offsets,
        dag_targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn graph(nodes: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let e: Vec<Edge> = edges.iter().map(|&(a, b)| Edge::unit(n(a), n(b))).collect();
        CsrGraph::from_edges(nodes, &e)
    }

    #[test]
    fn path_graph_is_all_singletons_in_topo_order() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = condense(&g);
        assert_eq!(c.comp_count(), 4);
        for v in 0..3u32 {
            assert!(
                c.comp(n(v)) < c.comp(n(v + 1)),
                "edge {}->{} must go low->high",
                v,
                v + 1
            );
        }
        assert_eq!(c.dag_edge_count(), 3);
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = condense(&g);
        assert_eq!(c.comp_count(), 1);
        assert_eq!(c.dag_edge_count(), 0);
    }

    #[test]
    fn two_cycles_with_a_bridge() {
        // {0,1} -> {2,3} via 1->2.
        let g = graph(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let c = condense(&g);
        assert_eq!(c.comp_count(), 2);
        assert_eq!(c.comp(n(0)), c.comp(n(1)));
        assert_eq!(c.comp(n(2)), c.comp(n(3)));
        assert!(c.comp(n(0)) < c.comp(n(2)), "DAG edge goes low->high");
        assert_eq!(c.dag_successors(c.comp(n(0))), &[c.comp(n(2))]);
        assert_eq!(c.dag_successors(c.comp(n(2))), &[] as &[u32]);
    }

    #[test]
    fn parallel_edges_and_self_loops_dedup() {
        let g = graph(2, &[(0, 0), (0, 1), (0, 1), (1, 1)]);
        let c = condense(&g);
        assert_eq!(c.comp_count(), 2);
        assert_eq!(c.dag_edge_count(), 1, "parallel DAG edges deduplicated");
    }

    #[test]
    fn every_dag_edge_is_topological() {
        // A denser shape: diamond over cycles plus stragglers.
        let g = graph(
            8,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (4, 5),
                (5, 4),
                (6, 0),
                // 7 isolated
            ],
        );
        let c = condense(&g);
        for comp in 0..c.comp_count() as u32 {
            for &d in c.dag_successors(comp) {
                assert!(comp < d, "edge {comp}->{d} violates topological ids");
            }
        }
        // Symmetric sanity: mutually reachable nodes share a component.
        assert_eq!(c.comp(n(4)), c.comp(n(5)));
        assert_ne!(c.comp(n(6)), c.comp(n(0)));
    }

    #[test]
    fn empty_graph() {
        let g = graph(0, &[]);
        let c = condense(&g);
        assert_eq!(c.comp_count(), 0);
        assert_eq!(c.dag_edge_count(), 0);
    }

    #[test]
    fn deep_path_does_not_overflow_the_stack() {
        // A 200k-node path would blow a recursive Tarjan's call stack.
        let edges: Vec<(u32, u32)> = (0..200_000).map(|i| (i, i + 1)).collect();
        let g = graph(200_001, &edges);
        let c = condense(&g);
        assert_eq!(c.comp_count(), 200_001);
    }
}
