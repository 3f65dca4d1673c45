//! Barabási–Albert preferential-attachment graphs (BRITE's `BA` model).
//!
//! Starting from a small seed clique, each new node attaches to `m`
//! distinct existing nodes chosen with probability proportional to their
//! current degree, yielding the power-law degree distribution of
//! Internet-like topologies.

use super::{
    graph_from_undirected, least_degree_nodes, preferential_attachment, GeneratedTopology,
};
use crate::graph::NodeId;
use rand::Rng;

/// Parameters for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct BarabasiParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Edges added per new node.
    pub edges_per_node: usize,
    /// Number of end-hosts to designate (lowest-degree nodes).
    pub hosts: usize,
}

impl Default for BarabasiParams {
    /// 1000-node configuration comparable to the paper's BRITE runs.
    fn default() -> Self {
        BarabasiParams {
            nodes: 1000,
            edges_per_node: 2,
            hosts: 50,
        }
    }
}

/// Generates a BA topology. End-hosts are the lowest-degree nodes and act
/// as both beacons and destinations (Section 6.2).
pub fn generate<R: Rng>(params: BarabasiParams, rng: &mut R) -> GeneratedTopology {
    let m = params.edges_per_node.max(1);
    assert!(
        params.nodes > m + 1,
        "need more nodes than the seed clique size"
    );
    assert!(params.hosts >= 2 && params.hosts <= params.nodes);
    let edges = preferential_attachment(params.nodes, m, rng);
    let hosts = least_degree_nodes(params.nodes, &edges, params.hosts);
    let g = graph_from_undirected(params.nodes, &edges, &hosts);
    let host_ids: Vec<NodeId> = hosts.iter().map(|&h| NodeId(h as u32)).collect();
    GeneratedTopology {
        graph: g,
        beacons: host_ids.clone(),
        destinations: host_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn connected_and_correct_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = generate(
            BarabasiParams {
                nodes: 200,
                edges_per_node: 2,
                hosts: 20,
            },
            &mut rng,
        );
        assert_eq!(t.graph.node_count(), 200);
        assert!(t.graph.is_strongly_connected());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Power-law-ish: max degree far exceeds the median degree.
        let mut rng = StdRng::seed_from_u64(2);
        let t = generate(
            BarabasiParams {
                nodes: 500,
                edges_per_node: 2,
                hosts: 10,
            },
            &mut rng,
        );
        let mut degs: Vec<usize> = t
            .graph
            .nodes()
            .iter()
            .map(|n| t.graph.degree(n.id) / 2) // undirected degree
            .collect();
        degs.sort_unstable();
        let median = degs[degs.len() / 2];
        let max = *degs.last().unwrap();
        assert!(
            max >= 5 * median,
            "max degree {max} vs median {median} — not heavy-tailed"
        );
    }

    #[test]
    fn each_new_node_brings_m_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = 3;
        let n = 100;
        let t = generate(
            BarabasiParams {
                nodes: n,
                edges_per_node: m,
                hosts: 5,
            },
            &mut rng,
        );
        // Undirected edges: seed clique + m per additional node, as duplex pairs.
        let expected_undirected = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(t.graph.link_count(), 2 * expected_undirected);
    }

    #[test]
    fn same_seed_same_edges() {
        let params = BarabasiParams {
            nodes: 300,
            edges_per_node: 3,
            hosts: 20,
        };
        let ends = |seed| -> Vec<_> {
            let t = generate(params, &mut StdRng::seed_from_u64(seed));
            t.graph.links().iter().map(|l| (l.src, l.dst)).collect()
        };
        assert_eq!(ends(7), ends(7));
    }

    #[test]
    #[should_panic(expected = "seed clique")]
    fn rejects_tiny_graphs() {
        generate(
            BarabasiParams {
                nodes: 3,
                edges_per_node: 3,
                hosts: 2,
            },
            &mut StdRng::seed_from_u64(0),
        );
    }
}
