//! Vertex renumbering: an explicit [`Permutation`] (forward + inverse
//! maps) that relabels a graph ([`Permutation::apply`]) and maps
//! per-vertex rows computed in the renumbered space back to original ids
//! ([`Permutation::map_row_back`]).
//!
//! A typical use is moving which vertices a fixed-position computation
//! touches without changing its answer: an audit that samples sources at
//! fixed ids, run on a rotated copy of the graph, samples a different
//! (seeded) source set while every distance stays the same.
//!
//! # Equivariance caveat
//!
//! Mapping back restores any *relabel-equivariant* output exactly:
//! distances, reachability, audit stretch — pinned by the tests below.
//! Outputs that break ties by vertex id (the spanner's cluster elections
//! do) are **not** equivariant: a renumbered run may legally pick a
//! different, equally valid spanner.

use crate::graph::Graph;

/// A vertex renumbering: a bijection `old id → new id` plus its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<u32>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<u32> = (0..n as u32).collect();
        Permutation {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Builds a permutation from a *new-order* listing: `order[new] = old`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_new_order(order: &[u32]) -> Self {
        let n = order.len();
        let mut new_of_old = vec![u32::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            assert!((old as usize) < n, "id {old} out of range");
            assert!(
                new_of_old[old as usize] == u32::MAX,
                "id {old} listed twice"
            );
            new_of_old[old as usize] = new as u32;
        }
        Permutation {
            new_of_old,
            old_of_new: order.to_vec(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the permutation is over zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of original vertex `old`.
    #[inline]
    pub fn new_id(&self, old: usize) -> usize {
        self.new_of_old[old] as usize
    }

    /// The original id of renumbered vertex `new`.
    #[inline]
    pub fn old_id(&self, new: usize) -> usize {
        self.old_of_new[new] as usize
    }

    /// The forward map as a slice (`[old] → new`).
    #[inline]
    pub fn forward(&self) -> &[u32] {
        &self.new_of_old
    }

    /// The inverse map as a slice (`[new] → old`).
    #[inline]
    pub fn inverse(&self) -> &[u32] {
        &self.old_of_new
    }

    /// Relabels `g` by this permutation: vertex `v` of the result is the
    /// original vertex [`old_id`](Permutation::old_id)`(v)` with its
    /// adjacency mapped forward and re-sorted.
    ///
    /// # Panics
    ///
    /// Panics if `g.num_vertices() != self.len()`.
    pub fn apply(&self, g: &Graph) -> Graph {
        let n = g.num_vertices();
        assert_eq!(n, self.len(), "permutation size mismatch");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.degree_sum());
        offsets.push(0usize);
        for new in 0..n {
            let old = self.old_of_new[new] as usize;
            let start = targets.len();
            targets.extend(
                g.neighbors(old)
                    .iter()
                    .map(|&u| self.new_of_old[u as usize]),
            );
            targets[start..].sort_unstable();
            offsets.push(targets.len());
        }
        Graph::from_csr(offsets, targets)
    }

    /// Maps a per-vertex row computed in the renumbered space back to
    /// original ids: `out[old] = row[new_of_old[old]]`. `out` is cleared
    /// and refilled.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.len()`.
    pub fn map_row_back<T: Copy>(&self, row: &[T], out: &mut Vec<T>) {
        assert_eq!(row.len(), self.len(), "row size mismatch");
        out.clear();
        out.extend(self.new_of_old.iter().map(|&new| row[new as usize]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistanceMap;
    use crate::generators;

    fn check_is_permutation(p: &Permutation, n: usize) {
        assert_eq!(p.len(), n);
        for old in 0..n {
            assert_eq!(p.old_id(p.new_id(old)), old);
        }
    }

    /// The rotation `old → (old + offset) mod n`, built from its new-order
    /// listing `order[new] = (new − offset) mod n`.
    fn rotation(n: usize, offset: usize) -> Permutation {
        let order: Vec<u32> = (0..n).map(|new| ((new + n - offset) % n) as u32).collect();
        Permutation::from_new_order(&order)
    }

    #[test]
    fn identity_round_trips() {
        let g = generators::gnp(50, 0.1, 1);
        let p = Permutation::identity(50);
        check_is_permutation(&p, 50);
        assert_eq!(p.apply(&g), g);
    }

    #[test]
    fn map_row_back_restores_original_indexing() {
        let g = generators::grid2d(6, 7);
        let p = rotation(g.num_vertices(), 5);
        assert_eq!(p.new_id(0), 5);
        let gp = p.apply(&g);
        let renum = DistanceMap::from_source(&gp, p.new_id(17));
        let orig = DistanceMap::from_source(&g, 17);
        let mut back = Vec::new();
        p.map_row_back(renum.raw(), &mut back);
        assert_eq!(back.as_slice(), orig.raw());
    }

    #[test]
    fn apply_preserves_bfs_distances_after_map_back() {
        for g in [
            generators::path(64),
            generators::grid2d(9, 11),
            generators::gnp(120, 0.04, 3), // possibly disconnected
            generators::preferential_attachment(150, 2, 5),
        ] {
            let n = g.num_vertices();
            let reversal: Vec<u32> = (0..n as u32).rev().collect();
            for p in [rotation(n, n / 3), Permutation::from_new_order(&reversal)] {
                check_is_permutation(&p, n);
                let gp = p.apply(&g);
                assert_eq!(gp.num_edges(), g.num_edges());
                let mut back = Vec::new();
                for source in [0, n / 2, n - 1] {
                    let orig = DistanceMap::from_source(&g, source);
                    let renum = DistanceMap::from_source(&gp, p.new_id(source));
                    p.map_row_back(renum.raw(), &mut back);
                    assert_eq!(back.as_slice(), orig.raw(), "source {source}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_order_entries_panic() {
        Permutation::from_new_order(&[0, 1, 1]);
    }
}
