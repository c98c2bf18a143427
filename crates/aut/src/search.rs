//! Backtracking individualization–refinement search for one automorphism
//! that maps a matched pair of refined partitions onto each other.

use crate::refine::{Partition, Refiner, Trace};
use crate::Permutation;

/// Outcome of a search.
pub(crate) enum SearchResult {
    /// An automorphism mapping the left partition onto the right one.
    Found(Permutation),
    /// Exhaustively proven that none exists.
    None,
    /// Node budget ran out before the subtree was exhausted.
    Exhausted,
}

/// Node budget of one search, shared by all nodes below its root.
pub(crate) struct Budget {
    /// Nodes visited so far.
    pub(crate) nodes: u64,
    /// Nodes allowed.
    pub(crate) max_nodes: u64,
}

/// Searches for an automorphism `γ` with `γ(left) = right` cell for cell,
/// where `right` is `parent` with `w` individualized and `left` is
/// `parent` with some vertex of `w`'s cell individualized, refined with
/// split trace `trace`. The pair `(left, right)` is one search node.
pub(crate) fn pair(
    refiner: &mut Refiner,
    left: &Partition,
    trace: &[u32],
    parent: &Partition,
    w: usize,
    budget: &mut Budget,
) -> SearchResult {
    budget.nodes += 1;
    if budget.nodes > budget.max_nodes {
        return SearchResult::Exhausted;
    }
    let mut right = parent.clone();
    if !refiner.individualize(&mut right, w, &mut Trace::check(trace)) {
        return SearchResult::None;
    }
    extend(refiner, left, &right, budget)
}

/// Extends a matched pair — two partitions with identical split traces —
/// to an automorphism. The lowest vertex of the first non-singleton cell on
/// the left is tried against every vertex of the same cell on the right,
/// lowest first; at a discrete pair the positions give the bijection,
/// which is verified. Trying candidates in label order lets the first
/// automorphism found move as little as it can, which keeps generator
/// supports, and so lex-leader SBPs, small.
///
/// Before descending, the pair is checked for the automorphism that
/// descent would reach first when every non-singleton cell holds the same
/// vertices on both sides (the shortcut Saucy takes): it maps singletons
/// position to position and fixes every other vertex.
pub(crate) fn extend(
    refiner: &mut Refiner,
    left: &Partition,
    right: &Partition,
    budget: &mut Budget,
) -> SearchResult {
    if let Some(p) = completion(left, right) {
        if refiner.graph().is_automorphism(&p) {
            return SearchResult::Found(p);
        }
    }
    let Some(s) = left.first_non_singleton() else {
        return SearchResult::None;
    };
    let v = *left.cell(s).iter().min().expect("cells are non-empty");
    let mut child = left.clone();
    let mut trace = Vec::new();
    refiner.individualize(&mut child, v as usize, &mut Trace::Record(&mut trace));
    for w in sorted(right.cell(s)) {
        match pair(refiner, &child, &trace, right, w as usize, budget) {
            SearchResult::None => {}
            found_or_exhausted => return found_or_exhausted,
        }
    }
    SearchResult::None
}

/// The permutation sending each singleton cell of `left` to the same
/// position of `right` and fixing every vertex of a non-singleton cell;
/// `None` unless each non-singleton cell holds the same vertices on both
/// sides.
fn completion(left: &Partition, right: &Partition) -> Option<Permutation> {
    let mut images = vec![0u32; left.elems().len()];
    for (s, cell) in left.cells() {
        if let [a] = cell {
            images[*a as usize] = right.elems()[s];
        } else {
            for &b in right.cell(s) {
                if left.cell_of(b as usize) != s {
                    return None;
                }
                images[b as usize] = b;
            }
        }
    }
    Permutation::from_images(images)
}

/// The members of a cell in ascending vertex order.
pub(crate) fn sorted(cell: &[u32]) -> Vec<u32> {
    let mut members = cell.to_vec();
    members.sort_unstable();
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColoredGraph;

    fn cycle(n: usize) -> ColoredGraph {
        ColoredGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)), None)
    }

    /// Searches for an automorphism honoring `pins`, each pin pair
    /// individualized on its side in turn.
    fn pinned(g: &ColoredGraph, pins: &[(usize, usize)], max_nodes: u64) -> SearchResult {
        let mut refiner = Refiner::new(g);
        let mut left = Partition::by_color(g);
        refiner.refine_all(&mut left);
        let mut right = left.clone();
        let mut budget = Budget { nodes: 0, max_nodes };
        for (i, &(s, t)) in pins.iter().enumerate() {
            if left.cell_of(s) != right.cell_of(t) {
                return SearchResult::None;
            }
            let parent = right.clone();
            let mut trace = Vec::new();
            refiner.individualize(&mut left, s, &mut Trace::Record(&mut trace));
            if i + 1 == pins.len() {
                return pair(&mut refiner, &left, &trace, &parent, t, &mut budget);
            }
            if !refiner.individualize(&mut right, t, &mut Trace::check(&trace)) {
                return SearchResult::None;
            }
        }
        extend(&mut refiner, &left, &right, &mut budget)
    }

    #[test]
    fn finds_rotation_of_cycle() {
        let g = cycle(5);
        match pinned(&g, &[(0, 1)], 10_000) {
            SearchResult::Found(p) => {
                assert_eq!(p.apply(0), 1);
                assert!(g.is_automorphism(&p));
            }
            _ => panic!("rotation must exist"),
        }
    }

    #[test]
    fn respects_multiple_pins() {
        let g = cycle(6);
        // Fix 0 and map 1 -> 5: the reflection through vertex 0.
        match pinned(&g, &[(0, 0), (1, 5)], 10_000) {
            SearchResult::Found(p) => {
                assert_eq!(p.apply(0), 0);
                assert_eq!(p.apply(1), 5);
                assert!(g.is_automorphism(&p));
            }
            _ => panic!("reflection must exist"),
        }
    }

    #[test]
    fn proves_absence_on_path() {
        // Path 0-1-2-3: no automorphism maps an endpoint to an inner vertex.
        let g = ColoredGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)], None);
        assert!(matches!(pinned(&g, &[(0, 1)], 10_000), SearchResult::None));
        // 0 -> 3 (the flip) exists.
        assert!(matches!(pinned(&g, &[(0, 3)], 10_000), SearchResult::Found(_)));
    }

    #[test]
    fn proves_absence_within_one_cell() {
        // C3 + C4: one refined cell, but no automorphism maps a triangle
        // vertex to a square vertex.
        let mut edges: Vec<(usize, usize)> = (0..3).map(|i| (i, (i + 1) % 3)).collect();
        edges.extend((0..4).map(|i| (3 + i, 3 + (i + 1) % 4)));
        let g = ColoredGraph::from_edges(7, edges, None);
        assert!(matches!(pinned(&g, &[(0, 3)], 10_000), SearchResult::None));
        assert!(matches!(pinned(&g, &[(0, 2)], 10_000), SearchResult::Found(_)));
    }

    #[test]
    fn color_mismatch_fails_fast() {
        let g = ColoredGraph::from_edges(2, [(0, 1)], Some(vec![0, 1]));
        assert!(matches!(pinned(&g, &[(0, 1)], 10_000), SearchResult::None));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = cycle(12);
        assert!(matches!(pinned(&g, &[(0, 6)], 0), SearchResult::Exhausted));
    }

    #[test]
    fn asymmetric_graph_has_only_identity() {
        // The asymmetric 7-vertex tree: a path 0-1-2-3-4-5 with an extra
        // leaf 6 on vertex 2; the three leaves sit at pairwise different
        // distances from the unique degree-3 vertex, so only the identity
        // survives.
        let g = ColoredGraph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)], None);
        match pinned(&g, &[], 100_000) {
            SearchResult::Found(p) => assert!(p.is_identity()),
            _ => panic!("identity always exists"),
        }
    }
}
