//! Final assembly: "a sequence of binary joins between a number of very
//! small relations" (§2.1).
//!
//! Phase one leaves one small `(entry, exit, cost)` relation per site on
//! the chain. The answer is the min-plus fold of those relations; the
//! junction nodes that achieve the minimum are recovered with a dynamic
//! program over the same relations (for route reconstruction).

use std::borrow::Borrow;
use std::collections::HashMap;

use ds_graph::{Cost, NodeId};
use ds_relation::join::compose_min_plus;
use ds_relation::{PathTuple, Relation};

/// Fold the chain's segment relations into an end-to-end relation and
/// read the `(x, y)` cost. Segments may be owned or borrowed (the batch
/// driver folds memoized interior relations without cloning them).
pub fn chain_cost<S: Borrow<Relation<PathTuple>>>(
    segments: &[S],
    x: NodeId,
    y: NodeId,
) -> Option<Cost> {
    let mut acc = segments.first()?.borrow().clone();
    for seg in &segments[1..] {
        acc = compose_min_plus(&acc, seg.borrow());
        if acc.is_empty() {
            return None;
        }
    }
    acc.cost_of(x, y)
}

/// Recover the cheapest junction sequence `x, w1, …, wk, y` through the
/// segment relations, with its total cost. The `wi` are the disconnection
/// set nodes the optimal path crosses — the paper's border cities.
pub fn best_waypoints<S: Borrow<Relation<PathTuple>>>(
    segments: &[S],
    x: NodeId,
    y: NodeId,
) -> Option<(Cost, Vec<NodeId>)> {
    // DP layer: node -> (cost from x, waypoints so far including node).
    let mut layer: HashMap<NodeId, (Cost, Vec<NodeId>)> = HashMap::new();
    for t in segments.first()?.borrow().rows() {
        if t.src != x {
            continue;
        }
        let entry = layer.entry(t.dst).or_insert((t.cost, vec![x, t.dst]));
        if t.cost < entry.0 {
            *entry = (t.cost, vec![x, t.dst]);
        }
    }
    for seg in &segments[1..] {
        let mut next: HashMap<NodeId, (Cost, Vec<NodeId>)> = HashMap::new();
        for t in seg.borrow().rows() {
            let Some((c0, path0)) = layer.get(&t.src) else {
                continue;
            };
            let cand = c0 + t.cost;
            match next.get_mut(&t.dst) {
                Some(best) if best.0 <= cand => {}
                slot => {
                    let mut path = path0.clone();
                    path.push(t.dst);
                    match slot {
                        Some(best) => *best = (cand, path),
                        None => {
                            next.insert(t.dst, (cand, path));
                        }
                    }
                }
            }
        }
        layer = next;
        if layer.is_empty() {
            return None;
        }
    }
    let (cost, mut waypoints) = layer.remove(&y)?;
    // The first segment's source and subsequent layers append dst, so the
    // final node is y already; dedup consecutive repeats (x may equal a
    // border node when the query starts on a border).
    waypoints.dedup();
    Some((cost, waypoints))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn seg(name: &str, rows: &[(u32, u32, u64)]) -> Relation<PathTuple> {
        Relation::from_rows(
            name,
            rows.iter()
                .map(|&(s, d, c)| PathTuple::new(n(s), n(d), c))
                .collect(),
        )
    }

    #[test]
    fn single_segment_chain() {
        let s = seg("s", &[(0, 9, 4)]);
        assert_eq!(chain_cost(std::slice::from_ref(&s), n(0), n(9)), Some(4));
        let (c, w) = best_waypoints(&[s], n(0), n(9)).unwrap();
        assert_eq!(c, 4);
        assert_eq!(w, vec![n(0), n(9)]);
    }

    #[test]
    fn two_segment_chain_picks_cheaper_junction() {
        // Junctions 5 and 6; route via 6 is cheaper in total.
        let s1 = seg("s1", &[(0, 5, 1), (0, 6, 2)]);
        let s2 = seg("s2", &[(5, 9, 10), (6, 9, 3)]);
        assert_eq!(chain_cost(&[s1.clone(), s2.clone()], n(0), n(9)), Some(5));
        let (c, w) = best_waypoints(&[s1, s2], n(0), n(9)).unwrap();
        assert_eq!(c, 5);
        assert_eq!(w, vec![n(0), n(6), n(9)]);
    }

    #[test]
    fn broken_chain_is_none() {
        let s1 = seg("s1", &[(0, 5, 1)]);
        let s2 = seg("s2", &[(6, 9, 1)]); // junction mismatch
        assert_eq!(chain_cost(&[s1.clone(), s2.clone()], n(0), n(9)), None);
        assert_eq!(best_waypoints(&[s1, s2], n(0), n(9)), None);
    }

    #[test]
    fn waypoints_match_chain_cost_on_three_segments() {
        let s1 = seg("s1", &[(0, 1, 2), (0, 2, 1)]);
        let s2 = seg("s2", &[(1, 3, 1), (2, 3, 5), (2, 4, 1)]);
        let s3 = seg("s3", &[(3, 9, 1), (4, 9, 4)]);
        let segs = [s1, s2, s3];
        let cost = chain_cost(&segs, n(0), n(9)).unwrap();
        let (wcost, w) = best_waypoints(&segs, n(0), n(9)).unwrap();
        assert_eq!(cost, wcost);
        assert_eq!(cost, 4); // 0-1 (2), 1-3 (1), 3-9 (1)
        assert_eq!(w, vec![n(0), n(1), n(3), n(9)]);
    }

    #[test]
    fn empty_segment_list() {
        let none: [Relation<PathTuple>; 0] = [];
        assert_eq!(chain_cost(&none, n(0), n(1)), None);
        assert_eq!(best_waypoints(&none, n(0), n(1)), None);
    }

    #[test]
    fn source_on_border_dedups_waypoints() {
        // x itself is the junction node.
        let s1 = seg("s1", &[(5, 5, 0)]);
        let s2 = seg("s2", &[(5, 9, 2)]);
        let (c, w) = best_waypoints(&[s1, s2], n(5), n(9)).unwrap();
        assert_eq!(c, 2);
        assert_eq!(w, vec![n(5), n(9)]);
    }
}
