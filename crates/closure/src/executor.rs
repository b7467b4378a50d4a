//! Phase-one execution: run the chain's site subqueries on the calling
//! thread.
//!
//! "Note that neither communication nor synchronization is required
//! during the first phase of the computation … Only at the end of the
//! computation, communication is required for computing the final joins"
//! (§2.1). Every [`SiteQuery`] reads only its own site's augmented graph;
//! the one-fragment-per-processor model of that independence is the
//! message-passing machine backend (`ds_machine`), where each site is a
//! long-lived thread with its own memory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_graph::{CsrGraph, ScratchDijkstra};
use ds_relation::{PathTuple, Relation};

use crate::local::border_matrix_with;
use crate::planner::{ChainPlan, SiteQuery};

/// Phase-one execution mode. Only [`ExecutionMode::Sequential`] is left:
/// the type, [`crate::engine::EngineConfig::mode`] and the `mode`
/// parameter of [`run_chain`] remain only because the repository
/// benchmark (`tcbench/`) still names them, and go when it is next
/// revised.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// All subqueries on the calling thread.
    #[default]
    Sequential,
}

/// Accounting for one site's subquery.
#[derive(Clone, Debug)]
pub struct SiteRun {
    pub site: usize,
    /// Time the site spent on its subquery.
    pub busy: Duration,
    /// Tuples in the site's result relation ("very small relations" that
    /// get shipped for the final joins).
    pub tuples: usize,
}

/// Evaluate every subquery of a chain on `scratch`, so a caller that
/// keeps one scratch across chains and queries performs no per-subquery
/// O(V) allocations. Returns the segment relations (in chain order) and
/// per-site accounting. `mode` has a single value (see
/// [`ExecutionMode`]).
pub fn run_chain(
    augmented: &[Arc<CsrGraph>],
    chain: &ChainPlan,
    _mode: ExecutionMode,
    scratch: &mut ScratchDijkstra,
) -> (Vec<Relation<PathTuple>>, Vec<SiteRun>) {
    chain
        .queries
        .iter()
        .map(|q| run_one(augmented, q, scratch))
        .unzip()
}

fn run_one(
    augmented: &[Arc<CsrGraph>],
    q: &SiteQuery,
    scratch: &mut ScratchDijkstra,
) -> (Relation<PathTuple>, SiteRun) {
    let start = Instant::now();
    let rel = border_matrix_with(&augmented[q.site], &q.sources, &q.targets, scratch);
    let run = SiteRun {
        site: q.site,
        busy: start.elapsed(),
        tuples: rel.len(),
    };
    (rel, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::{Edge, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn setup() -> (Vec<Arc<CsrGraph>>, ChainPlan) {
        // Two sites: site 0 owns 0-1-2 (unit path), site 1 owns 2-3-4.
        let site0 = CsrGraph::from_edges(5, &[Edge::unit(n(0), n(1)), Edge::unit(n(1), n(2))]);
        let site1 = CsrGraph::from_edges(5, &[Edge::unit(n(2), n(3)), Edge::unit(n(3), n(4))]);
        let chain = ChainPlan {
            fragments: vec![0, 1],
            queries: vec![
                SiteQuery {
                    site: 0,
                    sources: vec![n(0)],
                    targets: vec![n(2)],
                },
                SiteQuery {
                    site: 1,
                    sources: vec![n(2)],
                    targets: vec![n(4)],
                },
            ],
        };
        (vec![Arc::new(site0), Arc::new(site1)], chain)
    }

    #[test]
    fn segment_costs_are_local_shortest_paths() {
        let (aug, chain) = setup();
        let mut scratch = ScratchDijkstra::new();
        let (segs, runs) = run_chain(&aug, &chain, ExecutionMode::Sequential, &mut scratch);
        assert_eq!(segs[0].cost_of(n(0), n(2)), Some(2));
        assert_eq!(segs[1].cost_of(n(2), n(4)), Some(2));
        // One accounting record per subquery, in chain order.
        let sites: Vec<(usize, usize)> = runs.iter().map(|r| (r.site, r.tuples)).collect();
        assert_eq!(sites, vec![(0, 1), (1, 1)]);
    }
}
