//! Live routing churn: incremental edits to a [`RoutingMatrix`].
//!
//! Real networks reroute constantly — paths appear, disappear, and
//! shift onto different links while a measurement window is still
//! open. This module makes churn a first-class event instead of a
//! restart: a [`TopologyDelta`] batches path-level edits
//! ([`TopologyEdit`]), [`RoutingMatrix::apply_delta`] applies them
//! atomically, and the returned [`DeltaEffect`] tells the one consumer
//! that keeps history across the event (the streaming covariance
//! window) which path rows moved, which survived with their history
//! intact, and which must warm up from scratch. Everything that is a
//! pure function of the routing (the augmented pair system, its Gram
//! counts) is rebuilt from the new matrix instead.
//!
//! ## Semantics
//!
//! * Edits apply **sequentially**, each against the state left by the
//!   previous edit. A path id named by an edit refers to the row
//!   numbering *at that point in the sequence* (removals shift later
//!   rows down, adds append at the end).
//! * Removing a path shifts all later rows down by one, exactly like
//!   [`crate::path::PathSet::remove_paths`]; the [`DeltaEffect::id_map`]
//!   records the old-row → new-row renumbering (monotone: surviving
//!   rows keep their relative order).
//! * [`TopologyEdit::RemapLink`] rewrites every occurrence of one link
//!   column into another (e.g. traffic shifted onto a parallel link);
//!   the column count never changes, and every path touching the
//!   remapped link is reported as *changed* — its historical
//!   measurements no longer describe its current route.
//! * Validation is complete before any state is committed: an invalid
//!   edit returns a [`ChurnError`] and leaves the matrix untouched.
//!
//! The contract downstream layers rely on: a path absent from
//! [`DeltaEffect::changed`] has **bit-identical** link rows before and
//! after the delta, so its measurement history still describes its
//! current route, and so does the history of every pair of two such
//! paths.

use crate::alias::ReducedTopology;
use crate::matrix::RoutingMatrix;
use crate::path::PathId;
use std::fmt;

/// One routing edit, applied as part of a [`TopologyDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyEdit {
    /// Append a new path covering the given link columns (any order,
    /// duplicates collapse). The new path receives the next row id at
    /// the point in the sequence where the edit applies.
    AddPath {
        /// Link columns covered by the new path; must be non-empty and
        /// in range.
        links: Vec<usize>,
    },
    /// Remove a path; later rows shift down by one.
    RemovePath {
        /// The row to remove, in the numbering current at this edit.
        path: PathId,
    },
    /// Replace a path's link set in place (a reroute). The path keeps
    /// its row id but its history becomes stale.
    ReroutePath {
        /// The row to reroute, in the numbering current at this edit.
        path: PathId,
        /// The new link columns; must be non-empty and in range.
        links: Vec<usize>,
    },
    /// Rewrite every occurrence of link column `from` into `to` (e.g.
    /// traffic failed over onto a parallel link). The column count is
    /// unchanged; column `from` may become empty.
    RemapLink {
        /// The column being vacated.
        from: usize,
        /// The column absorbing its occurrences.
        to: usize,
    },
}

/// A batch of [`TopologyEdit`]s applied atomically by
/// [`RoutingMatrix::apply_delta`].
///
/// Edits apply sequentially (see the [module docs](self)); the batch
/// either fully applies or — on the first invalid edit — leaves the
/// matrix untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    edits: Vec<TopologyEdit>,
}

impl TopologyDelta {
    /// An empty delta (applying it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an [`TopologyEdit::AddPath`] edit.
    pub fn add_path(mut self, links: Vec<usize>) -> Self {
        self.edits.push(TopologyEdit::AddPath { links });
        self
    }

    /// Appends a [`TopologyEdit::RemovePath`] edit.
    pub fn remove_path(mut self, path: PathId) -> Self {
        self.edits.push(TopologyEdit::RemovePath { path });
        self
    }

    /// Appends a [`TopologyEdit::ReroutePath`] edit.
    pub fn reroute_path(mut self, path: PathId, links: Vec<usize>) -> Self {
        self.edits.push(TopologyEdit::ReroutePath { path, links });
        self
    }

    /// Appends a [`TopologyEdit::RemapLink`] edit.
    pub fn remap_link(mut self, from: usize, to: usize) -> Self {
        self.edits.push(TopologyEdit::RemapLink { from, to });
        self
    }

    /// Appends an already-built edit.
    pub fn push(&mut self, edit: TopologyEdit) {
        self.edits.push(edit);
    }

    /// The edits in application order.
    pub fn edits(&self) -> &[TopologyEdit] {
        &self.edits
    }

    /// Whether the delta carries no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Number of edits in the batch.
    pub fn len(&self) -> usize {
        self.edits.len()
    }
}

/// Why a [`TopologyDelta`] was rejected (the matrix is untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// An edit named a path row outside the current row count.
    PathOutOfRange {
        /// The offending row id.
        path: PathId,
        /// The row count at the point the edit applied.
        rows: usize,
    },
    /// An edit named a link column outside the matrix width.
    LinkOutOfRange {
        /// The offending column.
        link: usize,
        /// The matrix column count.
        cols: usize,
    },
    /// An added or rerouted path had an empty link set; every path must
    /// cover at least one link (an empty row is unmeasurable).
    EmptyPath,
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::PathOutOfRange { path, rows } => {
                write!(f, "path {} out of range for {rows} rows", path.0)
            }
            ChurnError::LinkOutOfRange { link, cols } => {
                write!(f, "link {link} out of range for {cols} columns")
            }
            ChurnError::EmptyPath => write!(f, "added/rerouted path covers no links"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// What a [`TopologyDelta`] did, in terms downstream caches understand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Old row → new row (`None` = removed). Monotone over surviving
    /// rows, mirroring [`crate::path::PathSet::remove_paths`].
    pub id_map: Vec<Option<PathId>>,
    /// New ids of every path whose link row differs from its pre-delta
    /// row (added, rerouted, or touched by a link remap), ascending.
    /// Paths *not* listed here have bit-identical rows before and
    /// after — their cached state stays exactly valid.
    pub changed: Vec<PathId>,
    /// Old ids of removed paths, ascending.
    pub removed: Vec<PathId>,
    /// New ids of added paths, ascending.
    pub added: Vec<PathId>,
}

/// Working row state while a delta applies: the link set, the original
/// row it descends from, and whether its links changed.
struct WorkRow {
    links: Vec<usize>,
    origin: Option<usize>,
    changed: bool,
}

impl RoutingMatrix {
    /// Applies a batch of routing edits atomically.
    ///
    /// Edits apply sequentially (see the [module docs](self)). On
    /// success the matrix is replaced by the edited one and the
    /// returned [`DeltaEffect`] describes the renumbering; on error the
    /// matrix is untouched.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<DeltaEffect, ChurnError> {
        let cols = self.cols();
        // Materialise rows so edits can shift/rewrite them freely; the
        // matrix itself is only replaced after full validation.
        let mut rows: Vec<WorkRow> = self
            .iter()
            .enumerate()
            .map(|(i, r)| WorkRow {
                links: r.to_vec(),
                origin: Some(i),
                changed: false,
            })
            .collect();

        let check_links = |links: &[usize]| -> Result<(), ChurnError> {
            if links.is_empty() {
                return Err(ChurnError::EmptyPath);
            }
            for &l in links {
                if l >= cols {
                    return Err(ChurnError::LinkOutOfRange { link: l, cols });
                }
            }
            Ok(())
        };
        let normalise = |links: &[usize]| -> Vec<usize> {
            let mut v = links.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };

        for edit in delta.edits() {
            match edit {
                TopologyEdit::AddPath { links } => {
                    check_links(links)?;
                    rows.push(WorkRow {
                        links: normalise(links),
                        origin: None,
                        changed: true,
                    });
                }
                TopologyEdit::RemovePath { path } => {
                    let i = path.index();
                    if i >= rows.len() {
                        return Err(ChurnError::PathOutOfRange {
                            path: *path,
                            rows: rows.len(),
                        });
                    }
                    rows.remove(i);
                }
                TopologyEdit::ReroutePath { path, links } => {
                    let i = path.index();
                    if i >= rows.len() {
                        return Err(ChurnError::PathOutOfRange {
                            path: *path,
                            rows: rows.len(),
                        });
                    }
                    check_links(links)?;
                    let new = normalise(links);
                    if new != rows[i].links {
                        rows[i].links = new;
                        rows[i].changed = true;
                    }
                }
                TopologyEdit::RemapLink { from, to } => {
                    for &l in [from, to] {
                        if l >= cols {
                            return Err(ChurnError::LinkOutOfRange { link: l, cols });
                        }
                    }
                    if from == to {
                        continue;
                    }
                    for row in rows.iter_mut() {
                        if row.links.binary_search(from).is_ok() {
                            let remapped: Vec<usize> = row
                                .links
                                .iter()
                                .map(|&l| if l == *from { *to } else { l })
                                .collect();
                            let new = normalise(&remapped);
                            if new != row.links {
                                row.links = new;
                                row.changed = true;
                            }
                        }
                    }
                }
            }
        }

        // Commit: rebuild the CSR and derive the effect.
        let old_rows = self.rows();
        let mut id_map = vec![None; old_rows];
        let mut changed = Vec::new();
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut b = RoutingMatrix::builder(cols);
        for (new_i, row) in rows.iter().enumerate() {
            let new_id = PathId(new_i as u32);
            match row.origin {
                Some(old_i) => id_map[old_i] = Some(new_id),
                None => added.push(new_id),
            }
            if row.changed {
                changed.push(new_id);
            }
            b.push_sorted_row(&row.links);
        }
        for (old_i, mapped) in id_map.iter().enumerate() {
            if mapped.is_none() {
                removed.push(PathId(old_i as u32));
            }
        }
        *self = b.build();
        Ok(DeltaEffect {
            id_map,
            changed,
            removed,
            added,
        })
    }
}

impl ReducedTopology {
    /// Applies a routing delta to the reduced matrix (see
    /// [`RoutingMatrix::apply_delta`]). Virtual-link identities and the
    /// column count are unchanged — churn reroutes paths over the
    /// *existing* link columns, so downstream link-indexed state
    /// (variances, congested sets) stays comparable across the event.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<DeltaEffect, ChurnError> {
        self.matrix.apply_delta(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoutingMatrix {
        let mut b = RoutingMatrix::builder(5);
        b.push_row(&[0, 1]);
        b.push_row(&[1, 2, 3]);
        b.push_row(&[3, 4]);
        b.build()
    }

    #[test]
    fn add_path_appends_and_reports() {
        let mut m = sample();
        let fx = m
            .apply_delta(&TopologyDelta::new().add_path(vec![4, 0, 4]))
            .unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.row(3), &[0, 4]);
        assert_eq!(fx.added, vec![PathId(3)]);
        assert_eq!(fx.changed, vec![PathId(3)]);
        assert!(fx.removed.is_empty());
        assert_eq!(
            fx.id_map,
            vec![Some(PathId(0)), Some(PathId(1)), Some(PathId(2))]
        );
    }

    #[test]
    fn remove_path_shifts_and_maps() {
        let mut m = sample();
        let fx = m
            .apply_delta(&TopologyDelta::new().remove_path(PathId(1)))
            .unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(1), &[3, 4]);
        assert_eq!(fx.id_map, vec![Some(PathId(0)), None, Some(PathId(1))]);
        assert_eq!(fx.removed, vec![PathId(1)]);
        assert!(fx.changed.is_empty());
    }

    #[test]
    fn reroute_marks_changed_only_when_links_differ() {
        let mut m = sample();
        let fx = m
            .apply_delta(
                &TopologyDelta::new()
                    .reroute_path(PathId(0), vec![1, 0])
                    .reroute_path(PathId(2), vec![2, 4]),
            )
            .unwrap();
        // Path 0 rerouted onto its existing links: not changed.
        assert_eq!(fx.changed, vec![PathId(2)]);
        assert_eq!(m.row(2), &[2, 4]);
    }

    #[test]
    fn remap_link_touches_only_covering_paths() {
        let mut m = sample();
        let fx = m
            .apply_delta(&TopologyDelta::new().remap_link(3, 2))
            .unwrap();
        // Paths 1 and 2 covered link 3; path 0 did not.
        assert_eq!(fx.changed, vec![PathId(1), PathId(2)]);
        assert_eq!(m.row(1), &[1, 2]); // {1,2,3} → {1,2,2} → {1,2}
        assert_eq!(m.row(2), &[2, 4]);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.cols(), 5); // column count never changes
    }

    #[test]
    fn edits_apply_sequentially() {
        let mut m = sample();
        // Remove row 0, then remove "row 0" again — which is old row 1.
        let fx = m
            .apply_delta(
                &TopologyDelta::new()
                    .remove_path(PathId(0))
                    .remove_path(PathId(0)),
            )
            .unwrap();
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row(0), &[3, 4]);
        assert_eq!(fx.removed, vec![PathId(0), PathId(1)]);
        assert_eq!(fx.id_map, vec![None, None, Some(PathId(0))]);
    }

    #[test]
    fn invalid_delta_leaves_matrix_untouched() {
        let mut m = sample();
        let before = m.clone();
        let err = m
            .apply_delta(
                &TopologyDelta::new()
                    .remove_path(PathId(0)) // valid, but must roll back
                    .add_path(vec![99]),
            )
            .unwrap_err();
        assert_eq!(err, ChurnError::LinkOutOfRange { link: 99, cols: 5 });
        assert_eq!(m, before);

        let err = m
            .apply_delta(&TopologyDelta::new().remove_path(PathId(7)))
            .unwrap_err();
        assert!(matches!(err, ChurnError::PathOutOfRange { .. }));
        assert_eq!(m, before);

        let err = m
            .apply_delta(&TopologyDelta::new().add_path(vec![]))
            .unwrap_err();
        assert_eq!(err, ChurnError::EmptyPath);
        assert_eq!(m, before);
    }

    #[test]
    fn unchanged_paths_keep_bit_identical_rows() {
        let mut m = sample();
        let before = m.clone();
        let fx = m
            .apply_delta(
                &TopologyDelta::new()
                    .reroute_path(PathId(1), vec![0, 2])
                    .add_path(vec![4]),
            )
            .unwrap();
        for (old, mapped) in fx.id_map.iter().enumerate() {
            let Some(new) = mapped else { continue };
            if !fx.changed.contains(new) {
                assert_eq!(before.row(old), m.row(new.index()));
            }
        }
    }

    #[test]
    fn empty_delta_is_noop() {
        let mut m = sample();
        let before = m.clone();
        let fx = m.apply_delta(&TopologyDelta::new()).unwrap();
        assert_eq!(m, before);
        assert!(fx.changed.is_empty() && fx.removed.is_empty() && fx.added.is_empty());
    }
}
