//! The augmented matrix `A` of Definition 1 and the identifiability
//! check of Theorem 1.
//!
//! `A` stacks, for every ordered pair of paths `i ≤ j`, the element-wise
//! product `R_i* ⊗ R_j*` — for binary routing matrices this is simply the
//! indicator of the links shared by both paths (`i = j` reproduces the
//! row itself). Theorem 1 proves that `A` has full column rank on every
//! topology satisfying T.1/T.2, making the link variances identifiable.
//!
//! Two practical notes from Section 5.1 are honoured:
//!
//! * Pairs of paths sharing no link produce all-zero rows; such rows
//!   pair with covariance entries that are pure sampling noise and
//!   contribute nothing to the least-squares normal equations, so the
//!   builder skips them (the solution is unchanged, and `A` keeps
//!   `O(shared pairs)` instead of `n_p(n_p+1)/2` rows).
//! * When paths are added or removed (beacon churn, routing changes),
//!   only the rows touching changed paths need recomputation —
//!   [`AugmentedSystem::apply_delta`] does exactly that.

use losstomo_linalg::{rank, CsrMatrix, Matrix};
use losstomo_topology::{DeltaEffect, PathId, ReducedTopology, RoutingMatrix};

/// The augmented moment system: pair index plus sparse rows of `A`.
///
/// Rows are stored as a shared [`RoutingMatrix`] — the same flat binary
/// CSR the routing matrix itself uses, so Phase-1 assembly walks one
/// sequential stream instead of a pointer chase through per-row
/// allocations, and downstream consumers (the Phase-1 Gram assembly,
/// the covariance sweep) read the rows without re-materialising them.
#[derive(Debug, Clone)]
pub struct AugmentedSystem {
    /// The path pair `(i, j)` with `i ≤ j` for each row of `A`.
    pairs: Vec<(PathId, PathId)>,
    /// The rows of `A`: shared-link indices per retained pair.
    rows: RoutingMatrix,
}

/// Intersection of two ascending index slices.
#[cfg(test)]
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    intersect_sorted_into(a, b, &mut out);
    out
}

/// Appends the intersection of two ascending index slices to `out`.
fn intersect_sorted_into(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
}

impl AugmentedSystem {
    /// Builds the system for a reduced topology.
    pub fn build(red: &ReducedTopology) -> Self {
        let np = red.num_paths();
        let nc = red.num_links();
        let mut pairs = Vec::new();
        let mut rows = RoutingMatrix::builder(nc);
        let mut scratch: Vec<usize> = Vec::new();
        // Diagonal pairs (i, i): the path's own links.
        for i in 0..np {
            pairs.push((PathId(i as u32), PathId(i as u32)));
            rows.push_sorted_row(red.path_links(PathId(i as u32)));
        }
        // Off-diagonal pairs sharing at least one link, discovered via
        // the link → paths inverted index.
        let per_link = red.paths_per_link();
        let mut seen = std::collections::HashSet::new();
        for paths in &per_link {
            for (a_idx, &a) in paths.iter().enumerate() {
                for &b in &paths[a_idx + 1..] {
                    let key = (a.min(b), a.max(b));
                    if !seen.insert(key) {
                        continue;
                    }
                    scratch.clear();
                    intersect_sorted_into(
                        red.path_links(key.0),
                        red.path_links(key.1),
                        &mut scratch,
                    );
                    debug_assert!(!scratch.is_empty());
                    pairs.push(key);
                    rows.push_sorted_row(&scratch);
                }
            }
        }
        AugmentedSystem {
            pairs,
            rows: rows.build(),
        }
    }

    /// Number of retained rows (pairs with a nonempty intersection).
    pub fn num_rows(&self) -> usize {
        self.pairs.len()
    }

    /// Number of links `n_c` (columns of `A`).
    pub fn num_links(&self) -> usize {
        self.rows.cols()
    }

    /// The path pair of row `r`.
    pub fn pair(&self, r: usize) -> (PathId, PathId) {
        self.pairs[r]
    }

    /// The shared links of row `r` (ascending).
    pub fn row(&self, r: usize) -> &[usize] {
        self.rows.row(r)
    }

    /// The rows of `A` as the shared [`RoutingMatrix`] — Gram caches
    /// and covariance sweeps read this directly.
    pub fn matrix(&self) -> &RoutingMatrix {
        &self.rows
    }

    /// Iterates over `(pair, shared links)`.
    pub fn iter(&self) -> impl Iterator<Item = ((PathId, PathId), &[usize])> {
        self.pairs.iter().copied().zip(self.rows.iter())
    }

    /// The path pairs of all retained rows as raw index pairs, in row
    /// order — the exact argument
    /// [`crate::covariance::CenteredMeasurements::pair_covariances`]
    /// expects for the one-pass Phase-1 covariance assembly.
    pub fn pair_indices(&self) -> Vec<(usize, usize)> {
        self.pairs
            .iter()
            .map(|&(a, b)| (a.index(), b.index()))
            .collect()
    }

    /// Assembles the retained rows as a sparse matrix (binary).
    pub fn to_sparse(&self) -> CsrMatrix {
        self.rows.to_sparse()
    }

    /// Assembles the retained rows densely (small systems only).
    pub fn to_dense(&self) -> Matrix {
        self.rows.to_dense()
    }

    /// Theorem-1 check: does `A` have full column rank, i.e. are the
    /// link variances statistically identifiable on this topology?
    ///
    /// Skipping all-zero rows does not change the column rank, so this
    /// is exact. Cost: one pivoted QR on a dense `num_rows × n_c`
    /// matrix — use on small/medium topologies only.
    pub fn is_identifiable(&self) -> bool {
        let nc = self.num_links();
        if nc == 0 {
            return false;
        }
        if self.pairs.len() < nc {
            return false;
        }
        rank(&self.to_dense()) == nc
    }

    /// The sub-system formed by the given row indices, in the given
    /// order — the budgeted view that
    /// [`crate::budget::select_pairs`] produces. Pairs and rows stay
    /// aligned; duplicates are allowed but pointless.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn subset(&self, rows: &[usize]) -> AugmentedSystem {
        let mut pairs = Vec::with_capacity(rows.len());
        let mut b = RoutingMatrix::builder(self.rows.cols());
        for &r in rows {
            pairs.push(self.pairs[r]);
            b.push_sorted_row(self.rows.row(r));
        }
        AugmentedSystem {
            pairs,
            rows: b.build(),
        }
    }

    /// Patches the system for a routing delta, producing a result that
    /// is **bit-identical to a fresh [`AugmentedSystem::build`]** on the
    /// churned topology — same pairs, same rows, same row *order* — at
    /// `O(changed · n_p)` intersection cost plus an `O(r log r)` sort,
    /// instead of the full `O(Σ paths-per-link²)` pair discovery.
    ///
    /// The order identity is what makes live churn survivable without
    /// giving up the streaming layer's exactness contract: Phase-1
    /// accumulation order, Gram assembly and covariance pairing all key
    /// on row order, so a patched system feeds them the exact bits a
    /// restart would. It holds because `build` emits diagonals first
    /// (ascending) and discovers each off-diagonal pair at its minimum
    /// shared link in lexicographic path order — i.e. fresh order is
    /// exactly "diagonals by path, then off-diagonals by
    /// `(min shared link, a, b)`", a total order we can re-sort the
    /// patched rows into.
    ///
    /// Returns the patched system plus, per new row, the old row it
    /// carries unchanged (`None` = recomputed; its cached downstream
    /// state — Gram counts, covariance history — is stale).
    ///
    /// `red` must be the post-delta topology and `effect` the
    /// [`DeltaEffect`] its `apply_delta` returned; `self` must be a
    /// full (unbudgeted) system whose path ids predate the delta.
    pub fn apply_delta(
        &self,
        red: &ReducedTopology,
        effect: &DeltaEffect,
    ) -> (AugmentedSystem, Vec<Option<usize>>) {
        enum Src {
            Carried(usize),
            Fresh(usize),
        }
        let np = red.num_paths();
        let changed: std::collections::HashSet<u32> = effect.changed.iter().map(|p| p.0).collect();
        // Sort key reproducing fresh build order: diagonals ascending,
        // then off-diagonals by (min shared link, a, b).
        let mut entries: Vec<((u8, usize, u32, u32), Src)> = Vec::with_capacity(self.pairs.len());
        for (r, &(a, b)) in self.pairs.iter().enumerate() {
            let (Some(a2), Some(b2)) = (effect.id_map[a.index()], effect.id_map[b.index()]) else {
                continue; // an endpoint was removed
            };
            if changed.contains(&a2.0) || changed.contains(&b2.0) {
                continue; // recomputed below
            }
            let row = self.rows.row(r);
            let key = if a2 == b2 {
                (0u8, a2.index(), 0u32, 0u32)
            } else {
                (1u8, row[0], a2.0, b2.0)
            };
            entries.push((key, Src::Carried(r)));
        }
        // Recompute every pair touching a changed path.
        let mut fresh: Vec<((PathId, PathId), Vec<usize>)> = Vec::new();
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut scratch: Vec<usize> = Vec::new();
        for &c in &effect.changed {
            for other in 0..np {
                let o = PathId(other as u32);
                let key = if c <= o { (c.0, o.0) } else { (o.0, c.0) };
                if !seen.insert(key) {
                    continue;
                }
                scratch.clear();
                if key.0 == key.1 {
                    scratch.extend_from_slice(red.path_links(PathId(key.0)));
                } else {
                    intersect_sorted_into(
                        red.path_links(PathId(key.0)),
                        red.path_links(PathId(key.1)),
                        &mut scratch,
                    );
                    if scratch.is_empty() {
                        continue; // disjoint pairs are skipped, as in build
                    }
                }
                let sort_key = if key.0 == key.1 {
                    (0u8, key.0 as usize, 0u32, 0u32)
                } else {
                    (1u8, scratch[0], key.0, key.1)
                };
                entries.push((sort_key, Src::Fresh(fresh.len())));
                fresh.push(((PathId(key.0), PathId(key.1)), scratch.clone()));
            }
        }
        entries.sort_unstable_by_key(|x| x.0);
        let mut pairs = Vec::with_capacity(entries.len());
        let mut rows = RoutingMatrix::builder(red.num_links());
        let mut carry = Vec::with_capacity(entries.len());
        for (_, src) in &entries {
            match *src {
                Src::Carried(r) => {
                    let (a, b) = self.pairs[r];
                    pairs.push((
                        effect.id_map[a.index()].expect("carried endpoint survives"),
                        effect.id_map[b.index()].expect("carried endpoint survives"),
                    ));
                    rows.push_sorted_row(self.rows.row(r));
                    carry.push(Some(r));
                }
                Src::Fresh(i) => {
                    pairs.push(fresh[i].0);
                    rows.push_sorted_row(&fresh[i].1);
                    carry.push(None);
                }
            }
        }
        (
            AugmentedSystem {
                pairs,
                rows: rows.build(),
            },
            carry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_topology::fixtures;

    #[test]
    fn figure1_augmented_matrix_matches_paper() {
        // The paper prints A for the Figure-1 network: 6 rows (3 paths +
        // 3 pairs), 5 columns, and full column rank 5.
        let red = fixtures::reduced(&fixtures::figure1());
        let aug = AugmentedSystem::build(&red);
        // 3 diagonal pairs + 3 off-diagonal pairs all share the root.
        assert_eq!(aug.num_rows(), 6);
        assert_eq!(aug.num_links(), 5);
        assert!(aug.is_identifiable());
        // Row sums match the paper's A: rows of weight {2,3,3} for the
        // paths and {1,1,2} for the pairs.
        let mut weights: Vec<usize> = (0..6).map(|r| aug.row(r).len()).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn figure2_identifiable_despite_rank_deficient_r() {
        let red = fixtures::reduced(&fixtures::figure2());
        let r_rank = losstomo_linalg::rank(&red.matrix.to_dense());
        assert!(r_rank < red.num_links(), "premise: R rank deficient");
        let aug = AugmentedSystem::build(&red);
        assert!(
            aug.is_identifiable(),
            "Theorem 1: A must have full column rank"
        );
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[0, 2, 4], &[1, 2, 3, 4]), vec![2, 4]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<usize>::new());
        assert_eq!(intersect_sorted(&[5], &[5]), vec![5]);
    }

    #[test]
    fn disjoint_pairs_are_skipped() {
        let red = fixtures::reduced(&fixtures::figure2());
        let aug = AugmentedSystem::build(&red);
        for (_, row) in aug.iter() {
            assert!(!row.is_empty(), "all retained rows must be nonzero");
        }
        let full_pairs = red.num_paths() * (red.num_paths() + 1) / 2;
        assert!(aug.num_rows() <= full_pairs);
    }

    /// The churn patch must reproduce a fresh build *exactly* — pairs,
    /// rows, and row order — because every downstream accumulation
    /// (Phase-1 AᵀΣ*, Gram counts, covariance pairing) keys on order.
    fn assert_patch_matches_fresh(delta: &losstomo_topology::TopologyDelta) {
        let mut red = fixtures::reduced(&fixtures::figure2());
        let aug = AugmentedSystem::build(&red);
        let effect = red.apply_delta(delta).unwrap();
        let (patched, carry) = aug.apply_delta(&red, &effect);
        let fresh = AugmentedSystem::build(&red);
        assert_eq!(patched.pairs, fresh.pairs, "pair list + order must match");
        assert_eq!(patched.rows, fresh.rows, "CSR rows must match bit-for-bit");
        assert_eq!(carry.len(), patched.num_rows());
        // Carried rows must reference an identical old row.
        for (new_r, c) in carry.iter().enumerate() {
            if let Some(old_r) = c {
                assert_eq!(aug.row(*old_r), patched.row(new_r));
            }
        }
    }

    #[test]
    fn delta_patch_matches_fresh_build_exactly() {
        use losstomo_topology::{PathId, TopologyDelta};
        let red = fixtures::reduced(&fixtures::figure2());
        let nc = red.num_links();
        assert_patch_matches_fresh(&TopologyDelta::new()); // no-op
        assert_patch_matches_fresh(&TopologyDelta::new().add_path(vec![0, nc - 1]));
        assert_patch_matches_fresh(&TopologyDelta::new().remove_path(PathId(1)));
        assert_patch_matches_fresh(&TopologyDelta::new().reroute_path(PathId(0), vec![1, 2]));
        assert_patch_matches_fresh(&TopologyDelta::new().remap_link(0, 1));
        assert_patch_matches_fresh(
            &TopologyDelta::new()
                .remove_path(PathId(2))
                .add_path(vec![0, 1])
                .reroute_path(PathId(0), vec![nc - 1])
                .remap_link(2, 3),
        );
    }

    #[test]
    fn empty_topology_is_not_identifiable() {
        let red = fixtures::reduced(&fixtures::figure1());
        let aug = AugmentedSystem {
            pairs: vec![],
            rows: RoutingMatrix::empty(red.num_links()),
        };
        assert!(!aug.is_identifiable());
    }

    #[test]
    fn sparse_and_dense_agree() {
        let red = fixtures::reduced(&fixtures::figure1());
        let aug = AugmentedSystem::build(&red);
        assert_eq!(aug.to_sparse().to_dense(), aug.to_dense());
    }
}
