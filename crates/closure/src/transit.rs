//! Per-site memo of the endpoint-independent interior segments.
//!
//! On a chain `f0 … fk` the subquery at an intermediate site `fi` is
//! `DS(f(i-1), fi) → DS(fi, f(i+1))` (see [`crate::planner`]): it does
//! not mention the query endpoints, so it is a function of the site's
//! augmented graph and of the fixed disconnection sets alone — work the
//! paper says "may be amortized over many queries" while updates are
//! infrequent. A [`TransitMemo`] holds those relations for one site,
//! keyed by the `(prev, next)` fragment pair. It is read and filled only
//! by the batch driver (`crate::api::run_batch_bounded`), whichever
//! backend evaluated the segment: the inline sweep or a machine site.
//!
//! The table has one slot per ordered pair of the site's
//! fragmentation-graph neighbours, so a snapshot's memos hold at most
//! `Σ_f deg(f)²` relations of at most `|DS|²` tuples each. Slots are
//! write-once [`OnceLock`]s: a read is one atomic load, a fill takes no
//! lock while the segment is evaluated (two racing readers may both
//! evaluate it; the first fill wins and both relations are equal), and
//! nothing can poison. The memo is derived state, valid exactly as long
//! as its site's augmented graph: `EngineSnapshot` replaces the two
//! together.

use std::sync::OnceLock;

use ds_fragment::FragmentId;
use ds_relation::{PathTuple, Relation};

/// The interior-segment memo of one site.
#[derive(Debug)]
pub struct TransitMemo {
    /// The site's fragmentation-graph neighbours. Slot
    /// `i * neighbors.len() + j` holds the segment entering from
    /// `neighbors[i]` and leaving towards `neighbors[j]`.
    neighbors: Vec<FragmentId>,
    slots: Box<[OnceLock<Relation<PathTuple>>]>,
}

impl TransitMemo {
    /// An empty memo for a site with the given fragmentation-graph
    /// neighbours.
    pub(crate) fn new(neighbors: &[FragmentId]) -> Self {
        let d = neighbors.len();
        TransitMemo {
            neighbors: neighbors.to_vec(),
            slots: (0..d * d).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The slot of the segment `prev → site → next`; `None` when either
    /// fragment is not a neighbour (such a segment is never memoized). A
    /// filled slot keeps its first relation: a racing reader that
    /// evaluated the same segment computed an equal one.
    pub(crate) fn slot(
        &self,
        prev: FragmentId,
        next: FragmentId,
    ) -> Option<&OnceLock<Relation<PathTuple>>> {
        let i = self.neighbors.iter().position(|&f| f == prev)?;
        let j = self.neighbors.iter().position(|&f| f == next)?;
        self.slots.get(i * self.neighbors.len() + j)
    }

    /// Every filled entry as `(prev, next, segment)`.
    pub fn entries(&self) -> impl Iterator<Item = (FragmentId, FragmentId, &Relation<PathTuple>)> {
        let d = self.neighbors.len();
        self.slots.iter().enumerate().filter_map(move |(k, slot)| {
            slot.get()
                .map(|seg| (self.neighbors[k / d], self.neighbors[k % d], seg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::NodeId;

    fn seg(cost: u64) -> Relation<PathTuple> {
        Relation::from_rows("border", vec![PathTuple::new(NodeId(0), NodeId(1), cost)])
    }

    #[test]
    fn fills_once_and_ignores_non_neighbours() {
        let memo = TransitMemo::new(&[2, 5]);
        assert_eq!(memo.entries().count(), 0);
        let slot = memo.slot(2, 5).unwrap();
        assert!(slot.get().is_none());
        assert_eq!(slot.get_or_init(|| seg(3)), &seg(3));
        // A late racer gets the first fill back.
        assert_eq!(slot.get_or_init(|| seg(9)), &seg(3));
        assert!(memo.slot(5, 2).unwrap().get().is_none(), "ordered pairs");
        assert!(memo.slot(2, 7).is_none(), "7 is not a neighbour");
        let entries: Vec<_> = memo.entries().collect();
        assert_eq!(entries, vec![(2, 5, &seg(3))]);
    }

    #[test]
    fn an_isolated_site_has_no_slots() {
        let memo = TransitMemo::new(&[]);
        assert!(memo.slot(0, 1).is_none());
        assert_eq!(memo.entries().count(), 0);
    }
}
