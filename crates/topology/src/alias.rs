//! Alias reduction and reduced routing-matrix construction (Section 3.1).
//!
//! End-to-end measurements cannot distinguish consecutive links that are
//! never separated by a branching point; the paper groups each such chain
//! into a single *virtual link* ("alias reduction") and then drops
//! uncovered links, producing the reduced routing matrix `R` whose
//! columns are all distinct and nonzero.
//!
//! We implement the reduction in two passes:
//!
//! 1. **Chain merging** — a node `v` that (a) is not the source or the
//!    destination of any path and (b) has exactly one covered incoming
//!    link and one covered outgoing link cannot be a branching point, so
//!    its two adjacent links merge into one virtual link (union-find).
//! 2. **Duplicate-column merging** — any two links traversed by exactly
//!    the same set of paths are indistinguishable regardless of
//!    adjacency; they are merged into one virtual link. On per-beacon
//!    trees pass 1 already produces distinct columns (the paper's claim);
//!    pass 2 makes the guarantee unconditional on arbitrary meshes.

use crate::graph::{Graph, LinkId};
use crate::matrix::RoutingMatrix;
use crate::path::{PathId, PathSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a virtual (alias-reduced) link — a column of the reduced
/// routing matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VirtualLinkId(pub u32);

impl VirtualLinkId {
    /// The column index of this virtual link in the routing matrix.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A virtual link: one or more physical links grouped by alias reduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VirtualLink {
    /// Column index in the reduced routing matrix.
    pub id: VirtualLinkId,
    /// The physical links in this group, in ascending id order.
    pub physical: Vec<LinkId>,
}

/// The reduced measurement topology: virtual links plus the `n_p × n_c`
/// binary routing matrix.
#[derive(Debug, Clone)]
pub struct ReducedTopology {
    /// Virtual links, indexed by [`VirtualLinkId`].
    pub virtual_links: Vec<VirtualLink>,
    /// Physical link → virtual link, for covered links only.
    pub link_to_virtual: HashMap<LinkId, VirtualLinkId>,
    /// The reduced routing matrix `R` (rows = paths in [`PathSet`] order,
    /// columns = virtual links). Binary, all columns distinct & nonzero.
    pub matrix: RoutingMatrix,
}

impl ReducedTopology {
    /// Number of paths `n_p` (rows of `R`).
    pub fn num_paths(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of covered virtual links `n_c` (columns of `R`).
    pub fn num_links(&self) -> usize {
        self.matrix.cols()
    }

    /// The virtual links traversed by path `p`, ascending.
    pub fn path_links(&self, p: PathId) -> &[usize] {
        self.matrix.row(p.index())
    }

    /// Paths traversing each virtual link (inverted index), computed on
    /// demand.
    pub fn paths_per_link(&self) -> Vec<Vec<PathId>> {
        let mut idx = vec![Vec::new(); self.num_links()];
        for i in 0..self.num_paths() {
            for &j in self.matrix.row(i) {
                idx[j].push(PathId(i as u32));
            }
        }
        idx
    }
}

/// Simple union-find over link indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Keep the smaller index as the representative so virtual
            // link ordering is stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Performs alias reduction and builds the reduced routing matrix.
///
/// Paths must be valid for `g`. The returned matrix has one row per path
/// (in `paths` order) and one column per virtual link; columns are
/// distinct and nonzero.
pub fn reduce(g: &Graph, paths: &PathSet) -> ReducedTopology {
    let covered = paths.covered_links();
    let mut covered_pos: HashMap<LinkId, usize> = HashMap::with_capacity(covered.len());
    for (i, &l) in covered.iter().enumerate() {
        covered_pos.insert(l, i);
    }

    // Endpoint nodes (path sources and destinations) never merge.
    let mut is_endpoint = vec![false; g.node_count()];
    for (_, p) in paths.iter() {
        is_endpoint[p.src.index()] = true;
        is_endpoint[p.dst.index()] = true;
    }

    // Covered in/out degree per node (counting only covered links).
    let mut in_links: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    let mut out_links: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    for (i, &l) in covered.iter().enumerate() {
        let link = g.link(l);
        out_links[link.src.index()].push(i);
        in_links[link.dst.index()].push(i);
    }

    // Pass 1: chain merging at non-branching interior nodes.
    let mut uf = UnionFind::new(covered.len());
    for v in 0..g.node_count() {
        if is_endpoint[v] {
            continue;
        }
        if in_links[v].len() == 1 && out_links[v].len() == 1 {
            uf.union(in_links[v][0], out_links[v][0]);
        }
    }

    // Pass 2: merge links traversed by identical path sets. We fingerprint
    // each merged group by its sorted list of traversing paths.
    let mut group_of: Vec<usize> = (0..covered.len()).map(|i| uf.find(i)).collect();
    let mut traversers: HashMap<usize, Vec<u32>> = HashMap::new();
    for (pid, p) in paths.iter() {
        let mut seen_groups: Vec<usize> =
            p.links.iter().map(|l| group_of[covered_pos[l]]).collect();
        seen_groups.sort_unstable();
        seen_groups.dedup();
        for gid in seen_groups {
            traversers.entry(gid).or_default().push(pid.0);
        }
    }
    let mut by_fingerprint: HashMap<Vec<u32>, usize> = HashMap::new();
    for (&gid, paths_list) in &traversers {
        match by_fingerprint.get(paths_list) {
            Some(&other) => {
                uf.union(gid, other);
            }
            None => {
                by_fingerprint.insert(paths_list.clone(), gid);
            }
        }
    }
    for g_idx in group_of.iter_mut() {
        *g_idx = uf.find(*g_idx);
    }

    // Assign contiguous virtual-link ids in order of first appearance of
    // the representative (stable across runs).
    let mut rep_to_vid: HashMap<usize, VirtualLinkId> = HashMap::new();
    let mut virtual_links: Vec<VirtualLink> = Vec::new();
    for (i, &rep) in group_of.iter().enumerate() {
        let vid = *rep_to_vid.entry(rep).or_insert_with(|| {
            let vid = VirtualLinkId(virtual_links.len() as u32);
            virtual_links.push(VirtualLink {
                id: vid,
                physical: Vec::new(),
            });
            vid
        });
        virtual_links[vid.index()].physical.push(covered[i]);
    }

    let mut link_to_virtual = HashMap::with_capacity(covered.len());
    for vl in &virtual_links {
        for &l in &vl.physical {
            link_to_virtual.insert(l, vl.id);
        }
    }

    // Build the routing matrix (the builder sorts and dedups each row).
    let mut builder = RoutingMatrix::builder(virtual_links.len());
    let mut cols: Vec<usize> = Vec::new();
    for (_, p) in paths.iter() {
        cols.clear();
        cols.extend(p.links.iter().map(|l| link_to_virtual[l].index()));
        builder.push_row(&cols);
    }

    ReducedTopology {
        virtual_links,
        link_to_virtual,
        matrix: builder.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, NodeKind};
    use crate::routing::compute_paths;

    /// B — r1 — r2 — D: the two-router chain collapses into one virtual
    /// link.
    #[test]
    fn chain_collapses_to_single_virtual_link() {
        let mut g = Graph::new();
        let b = g.add_node(NodeKind::Host);
        let r1 = g.add_node(NodeKind::Router);
        let r2 = g.add_node(NodeKind::Router);
        let d = g.add_node(NodeKind::Host);
        g.add_duplex(b, r1);
        g.add_duplex(r1, r2);
        g.add_duplex(r2, d);
        let paths = compute_paths(&g, &[b], &[d]);
        let red = reduce(&g, &paths);
        assert_eq!(red.num_paths(), 1);
        assert_eq!(red.num_links(), 1);
        assert_eq!(red.virtual_links[0].physical.len(), 3);
    }

    /// The Figure-1 tree: B → n1 {→ D1, → n2 {→ D2, → D3}} gives the
    /// paper's 3×5 routing matrix.
    #[test]
    fn figure1_routing_matrix() {
        let mut g = Graph::new();
        let b = g.add_node(NodeKind::Host);
        let n1 = g.add_node(NodeKind::Router);
        let n2 = g.add_node(NodeKind::Router);
        let d1 = g.add_node(NodeKind::Host);
        let d2 = g.add_node(NodeKind::Host);
        let d3 = g.add_node(NodeKind::Host);
        g.add_link(b, n1);
        g.add_link(n1, d1);
        g.add_link(n1, n2);
        g.add_link(n2, d2);
        g.add_link(n2, d3);
        let paths = compute_paths(&g, &[b], &[d1, d2, d3]);
        let red = reduce(&g, &paths);
        assert_eq!(red.num_paths(), 3);
        assert_eq!(red.num_links(), 5);
        let dense = red.matrix.to_dense();
        // Each path traverses the shared root link.
        let root_col = red.link_to_virtual[&crate::graph::LinkId(0)].index();
        for i in 0..3 {
            assert_eq!(dense[(i, root_col)], 1.0);
        }
        // Row sums: path to D1 has 2 links, paths to D2/D3 have 3.
        let row_sums: Vec<f64> = (0..3).map(|i| dense.row(i).iter().sum()).collect();
        let mut sorted = row_sums.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![2.0, 3.0, 3.0]);
        // Rank 5? No: rank 3 (3 paths). Under-determined as in the paper.
        assert_eq!(losstomo_linalg::rank(&dense), 3);
    }

    #[test]
    fn columns_are_distinct_and_nonzero() {
        let mut g = Graph::new();
        let b1 = g.add_node(NodeKind::Host);
        let b2 = g.add_node(NodeKind::Host);
        let r = g.add_node(NodeKind::Router);
        let d1 = g.add_node(NodeKind::Host);
        let d2 = g.add_node(NodeKind::Host);
        for (a, b) in [(b1, r), (b2, r), (r, d1), (r, d2)] {
            g.add_duplex(a, b);
        }
        let paths = compute_paths(&g, &[b1, b2], &[d1, d2]);
        let red = reduce(&g, &paths);
        let dense = red.matrix.to_dense();
        for j in 0..red.num_links() {
            let col = dense.col(j);
            assert!(col.iter().any(|&x| x != 0.0), "zero column {j}");
            for k in (j + 1)..red.num_links() {
                assert_ne!(col, dense.col(k), "duplicate columns {j} and {k}");
            }
        }
    }

    /// Two parallel serial links traversed by exactly the same single
    /// path merge even though the interior node branches for other
    /// traffic directions (duplicate-column pass).
    #[test]
    fn duplicate_column_pass_merges_identical_links() {
        let mut g = Graph::new();
        let b = g.add_node(NodeKind::Host);
        let r = g.add_node(NodeKind::Router);
        let d = g.add_node(NodeKind::Host);
        let l1 = g.add_link(b, r);
        let l2 = g.add_link(r, d);
        let paths = compute_paths(&g, &[b], &[d]);
        let red = reduce(&g, &paths);
        assert_eq!(red.num_links(), 1);
        assert_eq!(red.link_to_virtual[&l1], red.link_to_virtual[&l2]);
    }

    #[test]
    fn endpoints_never_merge() {
        // b -> m -> d where m is also a probing destination: the chain
        // must NOT collapse, because measurements to m separate the links.
        let mut g = Graph::new();
        let b = g.add_node(NodeKind::Host);
        let m = g.add_node(NodeKind::Host);
        let d = g.add_node(NodeKind::Host);
        g.add_link(b, m);
        g.add_link(m, d);
        let paths = compute_paths(&g, &[b], &[m, d]);
        let red = reduce(&g, &paths);
        assert_eq!(red.num_links(), 2);
    }

    #[test]
    fn paths_per_link_inverts_matrix() {
        let mut g = Graph::new();
        let b = g.add_node(NodeKind::Host);
        let r = g.add_node(NodeKind::Router);
        let d1 = g.add_node(NodeKind::Host);
        let d2 = g.add_node(NodeKind::Host);
        g.add_link(b, r);
        g.add_link(r, d1);
        g.add_link(r, d2);
        let paths = compute_paths(&g, &[b], &[d1, d2]);
        let red = reduce(&g, &paths);
        let ppl = red.paths_per_link();
        // The shared first link must list both paths.
        let shared = red.link_to_virtual[&crate::graph::LinkId(0)].index();
        assert_eq!(ppl[shared].len(), 2);
        // Leaf links list exactly one path each.
        let leaf_counts: Vec<usize> = (0..red.num_links())
            .filter(|&j| j != shared)
            .map(|j| ppl[j].len())
            .collect();
        assert!(leaf_counts.iter().all(|&c| c == 1));
    }
}
