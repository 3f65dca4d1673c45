//! Tree routings, and the structure LIA's closed-form paths read.
//!
//! On a tree every path is the chain from a root link down to its last
//! link, so two paths share exactly the chain from the root down to
//! their *meet*, the deepest link they share. Both of LIA's
//! least-squares problems then have exact combinatorial solutions:
//! Phase 1's rows each read one cumulative variance (see
//! [`crate::variance`]) and Phase 2's columns form a laminar family
//! (see [`crate::lia`]). [`reconstruct_tree`] decides whether a routing
//! is such a tree. The tree is never given: it is read off the routing
//! matrix, and the routing class is a property the code observes.

use losstomo_topology::ReducedTopology;

/// The parent of a root link, and "no link" in the tree kernels.
pub(crate) const NO_LINK: usize = usize::MAX;

/// The tree a tree routing forms over its links (a forest when several
/// links leave the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTree {
    /// Each link's parent, [`NO_LINK`] for a root link.
    parent: Vec<usize>,
    /// The number of paths through each link.
    paths: Vec<usize>,
    /// Each path's last (deepest) link.
    leaf: Vec<usize>,
    /// Every link once, each after its parent.
    top_down: Vec<usize>,
}

/// Reconstructs the tree `red`'s routing forms, or `None` for any
/// other routing (a mesh).
///
/// On a tree, a path's links sorted by strictly decreasing path count
/// are its root→leaf order, and the per-path orders assemble into one
/// parent per link. A tie in path count on one path, a link with two
/// parents, an empty path or a link on no path means the routing is
/// not such a tree. Alias reduction merges links with identical path
/// sets, so a reduced tree has no ties.
pub fn reconstruct_tree(red: &ReducedTopology) -> Option<LinkTree> {
    let nc = red.num_links();
    let mut paths = vec![0usize; nc];
    for path in red.matrix.iter() {
        for &k in path {
            paths[k] += 1;
        }
    }
    if paths.contains(&0) {
        return None;
    }
    // `NO_LINK - 1` marks a link whose parent no path has set yet.
    const UNSET: usize = NO_LINK - 1;
    let mut parent = vec![UNSET; nc];
    let mut leaf = Vec::with_capacity(red.num_paths());
    let mut chain: Vec<usize> = Vec::new();
    for path in red.matrix.iter() {
        chain.clear();
        chain.extend_from_slice(path);
        chain.sort_unstable_by(|&a, &b| paths[b].cmp(&paths[a]));
        let mut prev = NO_LINK;
        for &k in &chain {
            if prev != NO_LINK && paths[prev] == paths[k] {
                return None;
            }
            match parent[k] {
                UNSET => parent[k] = prev,
                p if p != prev => return None,
                _ => {}
            }
            prev = k;
        }
        if prev == NO_LINK {
            return None;
        }
        leaf.push(prev);
    }
    // A parent lies on strictly more paths than its children.
    let mut top_down: Vec<usize> = (0..nc).collect();
    top_down.sort_unstable_by(|&a, &b| paths[b].cmp(&paths[a]).then(a.cmp(&b)));
    Some(LinkTree {
        parent,
        paths,
        leaf,
        top_down,
    })
}

impl LinkTree {
    /// Number of links.
    pub(crate) fn num_links(&self) -> usize {
        self.parent.len()
    }

    /// Number of paths.
    pub(crate) fn num_paths(&self) -> usize {
        self.leaf.len()
    }

    /// The number of paths through link `e`.
    pub fn paths_through(&self, e: usize) -> usize {
        self.paths[e]
    }

    /// The parent array, [`NO_LINK`] for root links.
    pub(crate) fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// Each path's last link.
    pub(crate) fn leaves(&self) -> &[usize] {
        &self.leaf
    }

    /// Every link once, each after its parent.
    pub(crate) fn top_down(&self) -> &[usize] {
        &self.top_down
    }

    /// The meet of a row of shared links (a root chain): its link with
    /// the fewest paths, which is its deepest.
    pub(crate) fn meet(&self, row: &[usize]) -> usize {
        *row.iter()
            .min_by_key(|&&k| self.paths[k])
            .expect("augmented rows are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_topology::{fixtures, PathId, TopologyDelta};

    #[test]
    fn figure1_is_a_tree_and_figure2_is_not() {
        // Figure 1: paths [0,1], [0,2,3], [0,2,4] below a shared link 0.
        let tree = reconstruct_tree(&fixtures::reduced(&fixtures::figure1())).unwrap();
        assert_eq!(tree.parents(), [NO_LINK, 0, 0, 2, 2]);
        let paths: Vec<_> = (0..5).map(|e| tree.paths_through(e)).collect();
        assert_eq!(paths, [3, 1, 2, 1, 1]);
        assert_eq!(tree.leaves(), [1, 3, 4]);
        assert_eq!(tree.top_down()[0], 0);
        assert_eq!(tree.meet(&[0, 2]), 2);
        assert!(reconstruct_tree(&fixtures::reduced(&fixtures::figure2())).is_none());
    }

    #[test]
    fn a_path_off_its_root_chain_makes_a_mesh() {
        let red = fixtures::reduced(&fixtures::figure1());
        // Path 1 now skips root link 0, so path 2 crosses links 0 and 2
        // on two paths each: neither is the other's parent.
        let mut churned = red.clone();
        let delta = TopologyDelta::new().reroute_path(PathId(1), vec![2, 3]);
        churned.apply_delta(&delta).unwrap();
        assert!(reconstruct_tree(&churned).is_none());
        // A link no path crosses any more is no tree's link either.
        let mut orphan = red;
        let delta = TopologyDelta::new().reroute_path(PathId(0), vec![0, 2]);
        orphan.apply_delta(&delta).unwrap();
        assert!(reconstruct_tree(&orphan).is_none());
    }
}
