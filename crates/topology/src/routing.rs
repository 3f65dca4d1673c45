//! Shortest-path routing between beacons and probing destinations.
//!
//! Routes are computed per beacon as a BFS shortest-path tree with
//! deterministic tie-breaking (smallest parent node id wins). This
//! mirrors destination-based IP forwarding closely enough for the model:
//! because each beacon's routes form a tree rooted at the beacon,
//! Assumption T.2 automatically holds *within* a beacon (the structure
//! Lemma 3 relies on). Pairs of paths from *different* beacons can still
//! flutter; [`crate::flutter`] detects and removes those.

use crate::graph::{Graph, LinkId, NodeId};
use crate::path::{Path, PathSet};
use std::collections::VecDeque;

/// The BFS shortest-path tree rooted at one beacon.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// The root (beacon).
    pub root: NodeId,
    /// For each node index: the link used to reach it from its parent,
    /// or `None` for the root and unreachable nodes.
    pub parent_link: Vec<Option<LinkId>>,
    /// Hop distance from the root; `usize::MAX` when unreachable.
    pub dist: Vec<usize>,
}

impl SpTree {
    /// Computes the tree for `root` on `g`.
    ///
    /// Tie-breaking is deterministic: nodes are dequeued in BFS order and
    /// each node keeps the first parent that discovered it; out-links are
    /// scanned in insertion order. Running the function twice on the same
    /// graph yields identical trees (Assumption T.1).
    pub fn compute(g: &Graph, root: NodeId) -> Self {
        let n = g.node_count();
        let mut parent_link = vec![None; n];
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        dist[root.index()] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &l in g.out_links(u) {
                let v = g.link(l).dst;
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = du + 1;
                    parent_link[v.index()] = Some(l);
                    queue.push_back(v);
                }
            }
        }
        SpTree {
            root,
            parent_link,
            dist,
        }
    }

    /// Whether `dst` is reachable from the root.
    pub fn reaches(&self, dst: NodeId) -> bool {
        self.dist[dst.index()] != usize::MAX
    }

    /// Extracts the root→dst path, or `None` if unreachable or `dst` is
    /// the root itself.
    pub fn path_to(&self, g: &Graph, dst: NodeId) -> Option<Path> {
        if !self.reaches(dst) || dst == self.root {
            return None;
        }
        let mut links = Vec::with_capacity(self.dist[dst.index()]);
        let mut cur = dst;
        while cur != self.root {
            let l = self.parent_link[cur.index()]?;
            links.push(l);
            cur = g.link(l).src;
        }
        links.reverse();
        Some(Path {
            src: self.root,
            dst,
            links,
        })
    }
}

/// Computes the full measurement path set: one path from every beacon to
/// every destination (skipping unreachable pairs and `src == dst`).
///
/// Paths are ordered beacon-major then destination order, so the row
/// order of the routing matrix is reproducible.
pub fn compute_paths(g: &Graph, beacons: &[NodeId], destinations: &[NodeId]) -> PathSet {
    let mut ps = PathSet::new();
    for &b in beacons {
        let tree = SpTree::compute(g, b);
        for &d in destinations {
            if d == b {
                continue;
            }
            if let Some(p) = tree.path_to(g, d) {
                ps.push(p);
            }
        }
    }
    ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Builds the Figure-2 style topology: two beacons B1, B2 and three
    /// destinations D1..D3 behind a shared two-router core.
    fn two_beacon_graph() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
        let mut g = Graph::new();
        let b1 = g.add_node(NodeKind::Host);
        let b2 = g.add_node(NodeKind::Host);
        let r1 = g.add_node(NodeKind::Router);
        let r2 = g.add_node(NodeKind::Router);
        let d1 = g.add_node(NodeKind::Host);
        let d2 = g.add_node(NodeKind::Host);
        let d3 = g.add_node(NodeKind::Host);
        for (a, b) in [(b1, r1), (b2, r1), (r1, r2)] {
            g.add_duplex(a, b);
        }
        g.add_duplex(r1, d1);
        g.add_duplex(r2, d2);
        g.add_duplex(r2, d3);
        (g, vec![b1, b2], vec![d1, d2, d3])
    }

    #[test]
    fn bfs_tree_distances() {
        let (g, beacons, dests) = two_beacon_graph();
        let t = SpTree::compute(&g, beacons[0]);
        assert_eq!(t.dist[dests[0].index()], 2); // b1-r1-d1
        assert_eq!(t.dist[dests[1].index()], 3); // b1-r1-r2-d2
        assert!(t.reaches(beacons[1]));
    }

    #[test]
    fn paths_chain_correctly() {
        let (g, beacons, dests) = two_beacon_graph();
        let ps = compute_paths(&g, &beacons, &dests);
        assert_eq!(ps.len(), 6);
        for (_, p) in ps.iter() {
            assert!(p.validate(&g), "invalid path {p:?}");
        }
    }

    #[test]
    fn paths_from_one_beacon_form_a_tree() {
        // Tree property: two paths from the same beacon that share a link
        // share the entire prefix up to that link.
        let (g, beacons, dests) = two_beacon_graph();
        let tree = SpTree::compute(&g, beacons[0]);
        let paths: Vec<Path> = dests.iter().filter_map(|&d| tree.path_to(&g, d)).collect();
        for a in &paths {
            for b in &paths {
                for (i, la) in a.links.iter().enumerate() {
                    if let Some(j) = b.links.iter().position(|lb| lb == la) {
                        assert_eq!(
                            &a.links[..i],
                            &b.links[..j],
                            "shared link without shared prefix"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let (g, beacons, dests) = two_beacon_graph();
        let p1 = compute_paths(&g, &beacons, &dests);
        let p2 = compute_paths(&g, &beacons, &dests);
        assert_eq!(p1.paths(), p2.paths());
    }

    #[test]
    fn unreachable_and_self_pairs_skipped() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Host);
        let b = g.add_node(NodeKind::Host);
        let c = g.add_node(NodeKind::Host); // isolated
        g.add_duplex(a, b);
        let ps = compute_paths(&g, &[a], &[a, b, c]);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.path(crate::path::PathId(0)).dst, b);
    }

    #[test]
    fn path_to_root_is_none() {
        let (g, beacons, _) = two_beacon_graph();
        let t = SpTree::compute(&g, beacons[0]);
        assert!(t.path_to(&g, beacons[0]).is_none());
    }
}
