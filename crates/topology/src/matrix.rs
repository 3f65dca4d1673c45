//! The shared path→link routing matrix.
//!
//! Every layer of the pipeline walks the same binary incidence
//! structure — "which (virtual) links does row `i` cover": the reduced
//! routing matrix `R` built by alias reduction, the probe engine's
//! per-path walk, the augmented system's pair-intersection rows,
//! and Phase 2's rank checks. Before this type existed, each of those
//! layers flattened the structure into its own ad-hoc CSR copy
//! (`netsim::engine` built a throwaway `offsets`/`flat_links` table per
//! snapshot, `core::augmented` kept a private `links`/`offsets` pair,
//! and the routing layer built a value-carrying
//! [`CsrMatrix`]). [`RoutingMatrix`] is the
//! one canonical representation: a binary CSR of ascending link
//! indices, built once by [`RoutingMatrixBuilder`] and flowed through
//! simulation, Gram assembly and rank checks without
//! re-materialisation.
//!
//! Numeric kernels take the [`CsrMatrix`]
//! view ([`RoutingMatrix::to_sparse`], an `O(nnz)` copy that attaches
//! unit values) or, below the dense dispatch thresholds, the dense view
//! ([`RoutingMatrix::to_dense`]).

use losstomo_linalg::sparse::CsrBuilder;
use losstomo_linalg::{CsrMatrix, LinalgError, Matrix};

/// A binary CSR matrix mapping rows (paths, or path pairs) to the
/// ascending indices of the links they cover.
///
/// This is the single path→link CSR representation of the workspace;
/// see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingMatrix {
    cols: usize,
    /// Row `i` occupies `links[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Link indices of all rows, concatenated; strictly ascending
    /// within each row.
    links: Vec<usize>,
}

/// Row-by-row builder for a [`RoutingMatrix`] — the only place in the
/// workspace where path→link CSR rows are assembled.
#[derive(Debug, Clone)]
pub struct RoutingMatrixBuilder {
    cols: usize,
    offsets: Vec<usize>,
    links: Vec<usize>,
}

impl RoutingMatrix {
    /// Starts building a matrix with `cols` link columns.
    pub fn builder(cols: usize) -> RoutingMatrixBuilder {
        RoutingMatrixBuilder {
            cols,
            offsets: vec![0],
            links: Vec::new(),
        }
    }

    /// A matrix with `cols` columns and no rows.
    pub fn empty(cols: usize) -> Self {
        RoutingMatrix::builder(cols).build()
    }

    /// Number of rows (paths or path pairs).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of link columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total stored incidences.
    pub fn nnz(&self) -> usize {
        self.links.len()
    }

    /// The ascending link indices of row `i`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.links[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates over the rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.offsets.windows(2).map(|w| &self.links[w[0]..w[1]])
    }

    /// The numeric CSR view: the same pattern with unit values, for the
    /// sparse kernels of `losstomo_linalg`.
    pub fn to_sparse(&self) -> CsrMatrix {
        let mut b = CsrBuilder::new(self.cols);
        for row in self.iter() {
            b.push_binary_row(row)
                .expect("link indices are in range by construction");
        }
        b.build()
    }

    /// The dense view (small systems and the dense dispatch paths).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols);
        for (i, row) in self.iter().enumerate() {
            let out = m.row_mut(i);
            for &k in row {
                out[k] = 1.0;
            }
        }
        m
    }

    /// Matrix–vector product `R x` (binary rows: each entry is the sum
    /// of `x` over the row's links, accumulated in ascending link
    /// order — bit-identical to the unit-valued CSR product).
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "R is {}x{}, x has length {}",
                self.rows(),
                self.cols,
                x.len()
            )));
        }
        Ok(self
            .iter()
            .map(|row| row.iter().map(|&k| x[k]).sum())
            .collect())
    }
}

impl RoutingMatrixBuilder {
    /// Number of rows appended so far.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends one row given the covered link indices (any order,
    /// duplicates collapse — a row is a link *set*).
    ///
    /// # Panics
    /// Panics if an index is out of range for the declared column
    /// count.
    pub fn push_row(&mut self, links: &[usize]) {
        let start = self.links.len();
        self.links.extend_from_slice(links);
        self.links[start..].sort_unstable();
        // In-place dedup of the new row only.
        let mut write = start;
        for read in start..self.links.len() {
            let v = self.links[read];
            if write == start || self.links[write - 1] != v {
                self.links[write] = v;
                write += 1;
            }
        }
        self.links.truncate(write);
        if write > start {
            let last = self.links[write - 1];
            assert!(
                last < self.cols,
                "link index {last} out of range for {} columns",
                self.cols
            );
        }
        self.offsets.push(self.links.len());
    }

    /// Appends one row whose link indices are already strictly
    /// ascending — the hot path for rows derived from existing
    /// [`RoutingMatrix`] rows (a path's own links, pair
    /// intersections), which skips the sort/dedup pass of
    /// [`RoutingMatrixBuilder::push_row`].
    ///
    /// # Panics
    /// Panics if an index is out of range; debug-asserts the ordering
    /// precondition.
    pub fn push_sorted_row(&mut self, links: &[usize]) {
        debug_assert!(
            links.windows(2).all(|w| w[0] < w[1]),
            "row must be strictly ascending"
        );
        if let Some(&last) = links.last() {
            assert!(
                last < self.cols,
                "link index {last} out of range for {} columns",
                self.cols
            );
        }
        self.links.extend_from_slice(links);
        self.offsets.push(self.links.len());
    }

    /// Finalises the builder.
    pub fn build(self) -> RoutingMatrix {
        RoutingMatrix {
            cols: self.cols,
            offsets: self.offsets,
            links: self.links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoutingMatrix {
        let mut b = RoutingMatrix::builder(5);
        b.push_row(&[2, 0, 4]);
        b.push_row(&[]);
        b.push_row(&[1, 1, 3]);
        b.build()
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(0), &[0, 2, 4]);
        assert_eq!(m.row(1), &[] as &[usize]);
        assert_eq!(m.row(2), &[1, 3]);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn dense_and_sparse_views_agree() {
        let m = sample();
        assert_eq!(m.to_sparse().to_dense(), m.to_dense());
        assert_eq!(m.to_dense()[(0, 4)], 1.0);
        assert_eq!(m.to_dense()[(2, 1)], 1.0);
    }

    #[test]
    fn matvec_matches_sparse_view() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(m.matvec(&x).unwrap(), m.to_sparse().matvec(&x).unwrap());
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let mut b = RoutingMatrix::builder(2);
        b.push_row(&[2]);
    }

    #[test]
    fn empty_matrix() {
        let m = RoutingMatrix::empty(4);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 4);
    }
}
