//! Synthetic DIMES-like topology.
//!
//! DIMES agents live mostly in the *commercial* Internet: many stub ASes
//! hanging off a power-law AS-level core, with hosts behind access links
//! that are much more likely to be congested than the research backbone
//! PlanetLab enjoys. We model:
//!
//! * an AS-level Barabási–Albert graph (power-law, as measured by DIMES),
//! * a small router cluster per AS (star around a gateway),
//! * hosts attached to random low-degree (stub) ASes.
//!
//! Nodes carry `as_id` annotations, so this generator also supports the
//! Table-3 inter-/intra-AS analysis.

use super::{graph_from_undirected, preferential_attachment, GeneratedTopology};
use crate::graph::NodeId;
use rand::Rng;

/// Parameters for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct DimesParams {
    /// Number of autonomous systems in the AS-level BA graph.
    pub as_count: usize,
    /// AS-level BA attachment parameter.
    pub as_edges_per_node: usize,
    /// Routers per AS (star around the gateway router).
    pub routers_per_as: usize,
    /// Number of end-hosts, attached to random stub ASes.
    pub hosts: usize,
}

impl Default for DimesParams {
    /// A tractable default: 60 ASes, 4 routers each, 40 hosts.
    fn default() -> Self {
        DimesParams {
            as_count: 60,
            as_edges_per_node: 2,
            routers_per_as: 4,
            hosts: 40,
        }
    }
}

/// Generates the DIMES-like topology.
pub fn generate<R: Rng>(params: DimesParams, rng: &mut R) -> GeneratedTopology {
    let m = params.as_edges_per_node.max(1);
    assert!(params.as_count > m + 1);
    assert!(params.routers_per_as >= 1);
    assert!(params.hosts >= 2);

    // AS-level BA graph.
    let as_edges = preferential_attachment(params.as_count, m, rng);
    // AS degree, to find stubs.
    let mut as_deg = vec![0usize; params.as_count];
    for &(a, b) in &as_edges {
        as_deg[a] += 1;
        as_deg[b] += 1;
    }

    // Router-level: per AS, a hub router (index 0) plus a star of local
    // routers. AS-level edges land on *random* routers of each AS, so
    // transit traffic also crosses intra-AS links (hub↔border), matching
    // the real Internet where lossy links split between peering links
    // and intra-AS segments (Table 3).
    let per = params.routers_per_as;
    let router_of = |a: usize, r: usize| a * per + r;
    let n_routers = params.as_count * per;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut as_of: Vec<u32> = vec![0; n_routers];
    for a in 0..params.as_count {
        for r in 1..per {
            edges.push((router_of(a, 0), router_of(a, r)));
        }
        for r in 0..per {
            as_of[router_of(a, r)] = a as u32;
        }
    }
    for &(a, b) in &as_edges {
        let ra = rng.gen_range(0..per);
        let rb = rng.gen_range(0..per);
        edges.push((router_of(a, ra), router_of(b, rb)));
    }

    // Hosts: behind random routers of stub ASes (AS degree ≤ median).
    let mut sorted_deg: Vec<usize> = as_deg.clone();
    sorted_deg.sort_unstable();
    let stub_threshold = sorted_deg[params.as_count / 2];
    let stubs: Vec<usize> = (0..params.as_count)
        .filter(|&a| as_deg[a] <= stub_threshold)
        .collect();
    let mut hosts = Vec::with_capacity(params.hosts);
    let mut as_of_host = Vec::with_capacity(params.hosts);
    for h in 0..params.hosts {
        let a = stubs[rng.gen_range(0..stubs.len())];
        let r = rng.gen_range(0..per);
        let host = n_routers + h;
        edges.push((host, router_of(a, r)));
        hosts.push(host);
        as_of_host.push(a as u32);
    }

    let n = n_routers + params.hosts;
    let mut g = graph_from_undirected(n, &edges, &hosts);
    for (i, &a) in as_of.iter().enumerate() {
        g.node_mut(NodeId(i as u32)).as_id = Some(a);
    }
    for (h, &a) in as_of_host.iter().enumerate() {
        g.node_mut(NodeId((n_routers + h) as u32)).as_id = Some(a);
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
    fn connected_with_as_annotations() {
        let mut rng = StdRng::seed_from_u64(13);
        let t = generate(DimesParams::default(), &mut rng);
        assert!(t.graph.is_strongly_connected());
        assert!(t.graph.nodes().iter().all(|n| n.as_id.is_some()));
        assert_eq!(t.beacons.len(), 40);
    }

    #[test]
    fn hosts_live_in_stub_ases() {
        let mut rng = StdRng::seed_from_u64(14);
        let params = DimesParams::default();
        let t = generate(params, &mut rng);
        // AS-level degree of host ASes must not include the absolute
        // highest-degree AS (the "tier-1" hub of the BA graph).
        let mut as_router_deg: std::collections::HashMap<u32, usize> = Default::default();
        for l in t.graph.links() {
            if t.graph.link_is_inter_as(l.id) == Some(true) {
                *as_router_deg
                    .entry(t.graph.node(l.src).as_id.unwrap())
                    .or_default() += 1;
            }
        }
        let max_deg_as = as_router_deg
            .iter()
            .max_by_key(|(_, &d)| d)
            .map(|(&a, _)| a)
            .unwrap();
        for &h in &t.beacons {
            assert_ne!(t.graph.node(h).as_id.unwrap(), max_deg_as);
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(DimesParams::default(), &mut StdRng::seed_from_u64(5));
        let b = generate(DimesParams::default(), &mut StdRng::seed_from_u64(5));
        let ends = |t: &GeneratedTopology| -> Vec<_> {
            t.graph.links().iter().map(|l| (l.src, l.dst)).collect()
        };
        assert_eq!(ends(&a), ends(&b));
        assert_eq!(a.beacons, b.beacons);
    }
}
