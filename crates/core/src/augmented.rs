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
//!   only the covariances of pairs on a changed path lose their
//!   history. `A` itself is a pure function of the routing, so a
//!   churned estimator rebuilds it with [`AugmentedSystem::build`].

use losstomo_linalg::{rank, CsrMatrix, Matrix};
use losstomo_topology::{PathId, ReducedTopology, RoutingMatrix};

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
pub(crate) fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
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
        // the link → paths inverted index. A pair is emitted at its
        // first shared link; one bit per `(a, b)` marks it emitted.
        let per_link = red.paths_per_link();
        let mut seen = vec![0u64; (np * np).div_ceil(64)];
        for paths in &per_link {
            for (a_idx, &a) in paths.iter().enumerate() {
                for &b in &paths[a_idx + 1..] {
                    let key = (a.min(b), a.max(b));
                    let bit = key.0.index() * np + key.1.index();
                    let mask = 1u64 << (bit % 64);
                    if seen[bit / 64] & mask != 0 {
                        continue;
                    }
                    seen[bit / 64] |= mask;
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
