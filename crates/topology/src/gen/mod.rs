//! Topology generators for the paper's simulation study (Section 6).
//!
//! * [`tree`] — random trees (Section 6.1: 1000 nodes, branching ≤ 10).
//! * [`waxman`], [`barabasi`], [`hierarchical`] — BRITE-like generators
//!   for the mesh study (Section 6.2, Table 2).
//! * [`planetlab`] — a synthetic stand-in for the measured PlanetLab
//!   topology (research backbone + university sites).
//! * [`dimes`] — a synthetic stand-in for the DIMES commercial-Internet
//!   topology (power-law AS graph).
//!
//! Every generator is deterministic given its RNG, returns a
//! [`GeneratedTopology`] holding the graph plus the beacon/destination
//! node sets, and documents how it approximates its real-world
//! counterpart (see DESIGN.md for the substitution rationale).

pub mod barabasi;
pub mod dimes;
pub mod hierarchical;
pub mod planetlab;
pub mod tree;
pub mod waxman;

use crate::graph::{Graph, NodeId, NodeKind};
use rand::Rng;

/// A generated topology with its measurement endpoints.
#[derive(Debug, Clone)]
pub struct GeneratedTopology {
    /// The network graph.
    pub graph: Graph,
    /// Nodes that send probes (`V_B` in the paper).
    pub beacons: Vec<NodeId>,
    /// Probing destinations (`D` in the paper).
    pub destinations: Vec<NodeId>,
}

/// Builds a graph from an undirected edge list: every edge becomes a
/// duplex pair of directed links. `hosts` lists the node indices to mark
/// as end-hosts; all others are routers.
pub(crate) fn graph_from_undirected(n: usize, edges: &[(usize, usize)], hosts: &[usize]) -> Graph {
    let mut g = Graph::new();
    let host_set: std::collections::HashSet<usize> = hosts.iter().copied().collect();
    for i in 0..n {
        let kind = if host_set.contains(&i) {
            NodeKind::Host
        } else {
            NodeKind::Router
        };
        g.add_node(kind);
    }
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in edges {
        if a == b {
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if seen.insert(key) {
            g.add_duplex(NodeId(a as u32), NodeId(b as u32));
        }
    }
    g
}

/// Grows a Barabási–Albert graph on `n` nodes: a clique on the first
/// `m + 1`, then every later node attaches to `m` distinct earlier
/// nodes drawn with probability proportional to their degree. Edges are
/// pushed in draw order, so the graph depends on the RNG alone.
pub(crate) fn preferential_attachment<R: Rng>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for u in 0..=m {
        for v in (u + 1)..=m {
            edges.push((u, v));
        }
    }
    // Repeated-endpoint list: node degree equals its multiplicity.
    let mut pool: Vec<usize> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut targets: Vec<usize> = Vec::with_capacity(m);
    for new in (m + 1)..n {
        targets.clear();
        while targets.len() < m {
            let t = pool[rng.gen_range(0..pool.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((new, t));
            pool.push(new);
            pool.push(t);
        }
    }
    edges
}

/// Connects the components of an undirected edge set over `n` nodes by
/// linking a random node of each non-primary component to a random node
/// of the primary one. Returns the added edges.
pub(crate) fn connect_components<R: Rng>(
    n: usize,
    edges: &mut Vec<(usize, usize)>,
    rng: &mut R,
) -> usize {
    let mut comp = (0..n).collect::<Vec<usize>>();
    fn find(comp: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while comp[r] != r {
            r = comp[r];
        }
        let mut c = x;
        while comp[c] != r {
            let nxt = comp[c];
            comp[c] = r;
            c = nxt;
        }
        r
    }
    for &(a, b) in edges.iter() {
        let (ra, rb) = (find(&mut comp, a), find(&mut comp, b));
        if ra != rb {
            comp[ra.max(rb)] = ra.min(rb);
        }
    }
    let mut members: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for x in 0..n {
        let r = find(&mut comp, x);
        members.entry(r).or_default().push(x);
    }
    if members.len() <= 1 {
        return 0;
    }
    let mut roots: Vec<usize> = members.keys().copied().collect();
    roots.sort_unstable();
    let primary = roots[0];
    let mut added = 0;
    for &r in &roots[1..] {
        let a = members[&primary][rng.gen_range(0..members[&primary].len())];
        let b = members[&r][rng.gen_range(0..members[&r].len())];
        edges.push((a, b));
        added += 1;
    }
    added
}

/// Selects the `k` nodes with the smallest degree (ties broken by node
/// id) — the paper's rule "end-hosts are nodes with the least
/// out-degree" for simulated topologies.
pub(crate) fn least_degree_nodes(n: usize, edges: &[(usize, usize)], k: usize) -> Vec<usize> {
    let mut deg = vec![0usize; n];
    for &(a, b) in edges {
        deg[a] += 1;
        deg[b] += 1;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (deg[i], i));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn graph_from_undirected_dedups_and_skips_self_loops() {
        let g = graph_from_undirected(3, &[(0, 1), (1, 0), (2, 2), (1, 2)], &[0]);
        assert_eq!(g.link_count(), 4); // two duplex pairs
        assert_eq!(g.node(NodeId(0)).kind, NodeKind::Host);
        assert_eq!(g.node(NodeId(1)).kind, NodeKind::Router);
    }

    #[test]
    fn connect_components_produces_single_component() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut edges = vec![(0, 1), (2, 3), (4, 5)];
        let added = connect_components(6, &mut edges, &mut rng);
        assert_eq!(added, 2);
        let g = graph_from_undirected(6, &edges, &[]);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn connect_components_noop_when_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut edges = vec![(0, 1), (1, 2)];
        assert_eq!(connect_components(3, &mut edges, &mut rng), 0);
    }

    #[test]
    fn least_degree_picks_leaves() {
        // Star: node 0 is the hub.
        let edges = [(0, 1), (0, 2), (0, 3)];
        let picked = least_degree_nodes(4, &edges, 2);
        assert_eq!(picked, vec![1, 2]);
    }
}
