//! Synthetic PlanetLab-like topology.
//!
//! The paper's PlanetLab experiments run over ~381 usable hosts located
//! almost exclusively in universities and research labs, reached through
//! a dense, high-bandwidth research backbone (Internet2/GÉANT-like).
//! We model that structure directly (see the substitution table in
//! DESIGN.md):
//!
//! * a well-meshed **backbone** of core routers (each pair connected
//!   with moderate probability, patched to connectivity),
//! * **site access routers** homed to 1–2 backbone routers,
//! * one or more **hosts per site** behind the access router.
//!
//! All hosts are both beacons and destinations, matching Section 7 where
//! every end-host probes every other.

use super::{connect_components, graph_from_undirected, GeneratedTopology};
use crate::graph::{NodeId, NodeKind};
use rand::Rng;

/// Parameters for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct PlanetLabParams {
    /// Number of backbone (core) routers.
    pub core_routers: usize,
    /// Probability that two core routers are directly linked.
    pub core_mesh_prob: f64,
    /// Number of sites (universities / labs).
    pub sites: usize,
    /// Hosts per site.
    pub hosts_per_site: usize,
    /// Probability that a site is dual-homed to two backbone routers.
    pub dual_home_prob: f64,
}

impl Default for PlanetLabParams {
    /// A tractable default: 40 sites × 1 host behind a 12-router core.
    fn default() -> Self {
        PlanetLabParams {
            core_routers: 12,
            core_mesh_prob: 0.35,
            sites: 40,
            hosts_per_site: 1,
            dual_home_prob: 0.3,
        }
    }
}

/// Generates the PlanetLab-like topology.
pub fn generate<R: Rng>(params: PlanetLabParams, rng: &mut R) -> GeneratedTopology {
    assert!(params.core_routers >= 2);
    assert!(params.sites >= 2);
    assert!(params.hosts_per_site >= 1);
    let n_core = params.core_routers;
    let n_sites = params.sites;
    let hosts_per_site = params.hosts_per_site;
    // Node layout: [0, n_core) core, [n_core, n_core+n_sites) access
    // routers, then hosts.
    let access_base = n_core;
    let host_base = n_core + n_sites;
    let n = host_base + n_sites * hosts_per_site;

    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Core mesh.
    let mut core_edges: Vec<(usize, usize)> = Vec::new();
    for u in 0..n_core {
        for v in (u + 1)..n_core {
            if rng.gen::<f64>() < params.core_mesh_prob {
                core_edges.push((u, v));
            }
        }
    }
    connect_components(n_core, &mut core_edges, rng);
    edges.extend(core_edges);
    // Sites.
    let mut hosts: Vec<usize> = Vec::new();
    for s in 0..n_sites {
        let access = access_base + s;
        let uplink = rng.gen_range(0..n_core);
        edges.push((access, uplink));
        if rng.gen::<f64>() < params.dual_home_prob && n_core > 1 {
            let mut second = rng.gen_range(0..n_core);
            while second == uplink {
                second = rng.gen_range(0..n_core);
            }
            edges.push((access, second));
        }
        for h in 0..hosts_per_site {
            let host = host_base + s * hosts_per_site + h;
            edges.push((host, access));
            hosts.push(host);
        }
    }
    let g = graph_from_undirected(n, &edges, &hosts);
    let host_ids: Vec<NodeId> = hosts.iter().map(|&h| NodeId(h as u32)).collect();
    debug_assert!(host_ids.iter().all(|&h| g.node(h).kind == NodeKind::Host));
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
    fn connected_with_expected_host_count() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = generate(PlanetLabParams::default(), &mut rng);
        assert!(t.graph.is_strongly_connected());
        assert_eq!(t.beacons.len(), 40);
        assert_eq!(t.beacons, t.destinations);
    }

    #[test]
    fn hosts_are_stubs() {
        let mut rng = StdRng::seed_from_u64(8);
        let t = generate(PlanetLabParams::default(), &mut rng);
        for &h in &t.beacons {
            // A host connects only to its access router: degree 2
            // (duplex pair).
            assert_eq!(t.graph.degree(h), 2, "host {h:?} is not a stub");
        }
    }

    #[test]
    fn multiple_hosts_per_site() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = generate(
            PlanetLabParams {
                sites: 10,
                hosts_per_site: 3,
                ..PlanetLabParams::default()
            },
            &mut rng,
        );
        assert_eq!(t.beacons.len(), 30);
        assert!(t.graph.is_strongly_connected());
    }

    #[test]
    fn core_is_dense() {
        let mut rng = StdRng::seed_from_u64(10);
        let params = PlanetLabParams::default();
        let t = generate(params, &mut rng);
        // Count core-core duplex pairs: should exceed a spanning tree.
        let core_links = t
            .graph
            .links()
            .iter()
            .filter(|l| {
                (l.src.index()) < params.core_routers && (l.dst.index()) < params.core_routers
            })
            .count();
        assert!(core_links / 2 >= params.core_routers - 1);
    }
}
