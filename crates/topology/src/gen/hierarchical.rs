//! BRITE-like hierarchical topologies with AS structure.
//!
//! * **Top-down**: generate an AS-level graph first (Waxman), then a
//!   router-level Waxman graph inside each AS, then realise each AS-level
//!   edge as a link between random border routers of the two ASes.
//! * **Bottom-up**: generate a flat router-level graph (Barabási–Albert),
//!   then group routers into ASes by BFS clustering.
//!
//! Both variants annotate every node with its AS id, which the Table-3
//! analysis uses to classify congested links as inter- or intra-AS.

use super::{
    connect_components, graph_from_undirected, least_degree_nodes, preferential_attachment,
    GeneratedTopology,
};
use crate::graph::NodeId;
use rand::Rng;

/// Which construction order to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierMode {
    /// AS-level first, routers second (BRITE "TD").
    TopDown,
    /// Routers first, AS clustering second (BRITE "BU").
    BottomUp,
}

/// Parameters for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct HierParams {
    /// Number of autonomous systems.
    pub as_count: usize,
    /// Routers per AS (top-down) or average routers per AS (bottom-up).
    pub routers_per_as: usize,
    /// Number of end-hosts (attached to the lowest-degree routers).
    pub hosts: usize,
    /// Construction order.
    pub mode: HierMode,
}

impl Default for HierParams {
    /// ~1000-node hierarchical configuration (25 ASes × 40 routers).
    fn default() -> Self {
        HierParams {
            as_count: 25,
            routers_per_as: 40,
            hosts: 50,
            mode: HierMode::TopDown,
        }
    }
}

/// Generates a hierarchical topology. End-hosts are both beacons and
/// destinations. Every node carries an `as_id`.
pub fn generate<R: Rng>(params: HierParams, rng: &mut R) -> GeneratedTopology {
    assert!(params.as_count >= 2, "need at least two ASes");
    assert!(params.routers_per_as >= 1);
    let n = params.as_count * params.routers_per_as;
    assert!(params.hosts >= 2 && params.hosts <= n);

    let (edges, as_of) = match params.mode {
        HierMode::TopDown => top_down_edges(params, rng),
        HierMode::BottomUp => bottom_up_edges(params, rng),
    };

    let hosts = least_degree_nodes(n, &edges, params.hosts);
    let mut g = graph_from_undirected(n, &edges, &hosts);
    for (i, &as_id) in as_of.iter().enumerate() {
        g.node_mut(NodeId(i as u32)).as_id = Some(as_id);
    }
    let host_ids: Vec<NodeId> = hosts.iter().map(|&h| NodeId(h as u32)).collect();
    GeneratedTopology {
        graph: g,
        beacons: host_ids.clone(),
        destinations: host_ids,
    }
}

/// AS-level Waxman + per-AS Waxman + border-router interconnects.
fn top_down_edges<R: Rng>(params: HierParams, rng: &mut R) -> (Vec<(usize, usize)>, Vec<u32>) {
    let k = params.as_count;
    let per = params.routers_per_as;
    let n = k * per;
    let node_of = |a: usize, r: usize| a * per + r;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut as_of = vec![0u32; n];

    // Intra-AS: a sparse random graph per AS, patched connected.
    for a in 0..k {
        let mut local: Vec<(usize, usize)> = Vec::new();
        let p_intra = (2.0 / per as f64).min(1.0);
        for u in 0..per {
            for v in (u + 1)..per {
                if rng.gen::<f64>() < p_intra {
                    local.push((u, v));
                }
            }
        }
        connect_components(per, &mut local, rng);
        for (u, v) in local {
            edges.push((node_of(a, u), node_of(a, v)));
        }
        for r in 0..per {
            as_of[node_of(a, r)] = a as u32;
        }
    }

    // AS-level graph: random edges with probability giving mean degree
    // ~3, patched connected; each AS edge becomes a border-router link.
    let mut as_edges: Vec<(usize, usize)> = Vec::new();
    let p_inter = (3.0 / k as f64).min(1.0);
    for a in 0..k {
        for b in (a + 1)..k {
            if rng.gen::<f64>() < p_inter {
                as_edges.push((a, b));
            }
        }
    }
    connect_components(k, &mut as_edges, rng);
    for (a, b) in as_edges {
        let ra = rng.gen_range(0..per);
        let rb = rng.gen_range(0..per);
        edges.push((node_of(a, ra), node_of(b, rb)));
    }
    (edges, as_of)
}

/// Flat BA graph + BFS clustering into ASes.
fn bottom_up_edges<R: Rng>(params: HierParams, rng: &mut R) -> (Vec<(usize, usize)>, Vec<u32>) {
    let n = params.as_count * params.routers_per_as;
    let edges = preferential_attachment(n, 2, rng);
    // BFS clustering: grow each AS from a random unassigned seed until it
    // holds ~routers_per_as nodes.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut as_of = vec![u32::MAX; n];
    let mut next_as = 0u32;
    for start in 0..n {
        if as_of[start] != u32::MAX {
            continue;
        }
        let target = params.routers_per_as;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut claimed = 0;
        while let Some(u) = queue.pop_front() {
            if as_of[u] != u32::MAX {
                continue;
            }
            as_of[u] = next_as;
            claimed += 1;
            if claimed >= target {
                break;
            }
            for &v in &adj[u] {
                if as_of[v] == u32::MAX {
                    queue.push_back(v);
                }
            }
        }
        next_as += 1;
    }
    (edges, as_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small(mode: HierMode) -> GeneratedTopology {
        generate(
            HierParams {
                as_count: 5,
                routers_per_as: 20,
                hosts: 10,
                mode,
            },
            &mut StdRng::seed_from_u64(4),
        )
    }

    #[test]
    fn top_down_connected_with_as_ids() {
        let t = small(HierMode::TopDown);
        assert!(t.graph.is_strongly_connected());
        assert!(t.graph.nodes().iter().all(|n| n.as_id.is_some()));
        let distinct: std::collections::HashSet<u32> =
            t.graph.nodes().iter().filter_map(|n| n.as_id).collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn bottom_up_connected_with_as_ids() {
        let t = small(HierMode::BottomUp);
        assert!(t.graph.is_strongly_connected());
        assert!(t.graph.nodes().iter().all(|n| n.as_id.is_some()));
        let distinct: std::collections::HashSet<u32> =
            t.graph.nodes().iter().filter_map(|n| n.as_id).collect();
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn top_down_has_inter_and_intra_as_links() {
        let t = small(HierMode::TopDown);
        let inter = t
            .graph
            .links()
            .iter()
            .filter(|l| t.graph.link_is_inter_as(l.id) == Some(true))
            .count();
        let intra = t
            .graph
            .links()
            .iter()
            .filter(|l| t.graph.link_is_inter_as(l.id) == Some(false))
            .count();
        assert!(inter > 0, "no inter-AS links");
        assert!(intra > inter, "intra-AS links should dominate");
    }

    #[test]
    fn same_seed_same_edges() {
        for mode in [HierMode::TopDown, HierMode::BottomUp] {
            let (a, b) = (small(mode), small(mode));
            assert_eq!(link_ends(&a), link_ends(&b), "{mode:?}");
        }
    }

    fn link_ends(t: &GeneratedTopology) -> Vec<(NodeId, NodeId)> {
        t.graph.links().iter().map(|l| (l.src, l.dst)).collect()
    }

    #[test]
    fn host_count_respected() {
        for mode in [HierMode::TopDown, HierMode::BottomUp] {
            let t = small(mode);
            assert_eq!(t.beacons.len(), 10);
            assert_eq!(t.beacons, t.destinations);
        }
    }
}
