//! Waxman random graphs (BRITE's `WAXMAN` model).
//!
//! Nodes are placed uniformly in the unit square; an edge between `u` and
//! `v` exists with probability `alpha * exp(-d(u,v) / (beta * L))` where
//! `L` is the maximum possible distance (√2 for the unit square). The
//! resulting graph is patched to a single connected component.

use super::{connect_components, graph_from_undirected, least_degree_nodes, GeneratedTopology};
use crate::graph::NodeId;
use rand::Rng;

/// Parameters for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct WaxmanParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Waxman `alpha` (edge density).
    pub alpha: f64,
    /// Waxman `beta` (distance sensitivity).
    pub beta: f64,
    /// Number of end-hosts to designate (lowest-degree nodes).
    pub hosts: usize,
}

impl Default for WaxmanParams {
    /// 1000-node configuration comparable to the paper's BRITE runs.
    fn default() -> Self {
        WaxmanParams {
            nodes: 1000,
            alpha: 0.15,
            beta: 0.2,
            hosts: 50,
        }
    }
}

/// Generates a Waxman topology; end-hosts (beacons = destinations, as in
/// Section 6.2: "the end-hosts are both beacons and probing
/// destinations") are the `hosts` nodes of least degree.
pub fn generate<R: Rng>(params: WaxmanParams, rng: &mut R) -> GeneratedTopology {
    assert!(params.nodes >= 2, "need at least two nodes");
    assert!(params.hosts >= 2, "need at least two hosts");
    assert!(params.hosts <= params.nodes, "more hosts than nodes");
    let n = params.nodes;
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let l_max = std::f64::consts::SQRT_2;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pos[u].0 - pos[v].0;
            let dy = pos[u].1 - pos[v].1;
            let d = (dx * dx + dy * dy).sqrt();
            let p = params.alpha * (-d / (params.beta * l_max)).exp();
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    connect_components(n, &mut edges, rng);
    let hosts = least_degree_nodes(n, &edges, params.hosts);
    let mut g = graph_from_undirected(n, &edges, &hosts);
    for (i, &(x, y)) in pos.iter().enumerate() {
        g.node_mut(NodeId(i as u32)).pos = Some((x, y));
    }
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
    fn generates_connected_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = generate(
            WaxmanParams {
                nodes: 100,
                alpha: 0.15,
                beta: 0.2,
                hosts: 10,
            },
            &mut rng,
        );
        assert!(t.graph.is_strongly_connected());
        assert_eq!(t.beacons.len(), 10);
        assert_eq!(t.beacons, t.destinations);
    }

    #[test]
    fn hosts_have_low_degree() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = generate(
            WaxmanParams {
                nodes: 120,
                alpha: 0.2,
                beta: 0.25,
                hosts: 12,
            },
            &mut rng,
        );
        let max_host_deg = t.beacons.iter().map(|&h| t.graph.degree(h)).max().unwrap();
        let max_any_deg = t
            .graph
            .nodes()
            .iter()
            .map(|n| t.graph.degree(n.id))
            .max()
            .unwrap();
        assert!(max_host_deg <= max_any_deg);
    }

    #[test]
    fn positions_recorded() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = generate(
            WaxmanParams {
                nodes: 30,
                alpha: 0.3,
                beta: 0.3,
                hosts: 4,
            },
            &mut rng,
        );
        assert!(t.graph.nodes().iter().all(|n| n.pos.is_some()));
    }

    #[test]
    fn closer_pairs_more_likely_connected() {
        // Statistical smoke test: with strong distance decay, average
        // edge length must be well below the average pair distance.
        let mut rng = StdRng::seed_from_u64(77);
        let t = generate(
            WaxmanParams {
                nodes: 200,
                alpha: 0.4,
                beta: 0.08,
                hosts: 4,
            },
            &mut rng,
        );
        let g = &t.graph;
        let edge_len: Vec<f64> = g
            .links()
            .iter()
            .map(|l| {
                let a = g.node(l.src).pos.unwrap();
                let b = g.node(l.dst).pos.unwrap();
                ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
            })
            .collect();
        let mean_edge = edge_len.iter().sum::<f64>() / edge_len.len() as f64;
        assert!(mean_edge < 0.45, "mean edge length {mean_edge}");
    }
}
