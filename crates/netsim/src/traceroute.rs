//! Simulated traceroute topology discovery, with realistic errors.
//!
//! Section 7.1 of the paper reports two traceroute artefacts on
//! PlanetLab:
//!
//! * 5–10 % of routers do not answer ICMP queries at all — their hop is
//!   anonymous, and topology assemblers must treat each such hop as a
//!   distinct placeholder node;
//! * ~16 % of routers expose multiple interfaces and answer different
//!   traceroutes with different IP addresses; the `sr-ally` tool merges
//!   most (but not all) of them back into one router.
//!
//! [`observe`] replays these artefacts over ground-truth paths: the
//! result is an *observed* graph and path set that differ from the truth
//! exactly the way a real traceroute-built topology does. Feeding the
//! observed routing matrix (and truth-driven measurements) to LIA
//! reproduces the paper's robustness experiment.

use losstomo_topology::graph::{Graph, LinkId, NodeId, NodeKind};
use losstomo_topology::path::{Path, PathSet};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the traceroute error model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TracerouteConfig {
    /// Probability that a router never answers ICMP (anonymous hops).
    pub no_response_prob: f64,
    /// Probability that a router exposes multiple interfaces.
    pub multi_interface_prob: f64,
    /// Number of interfaces a multi-interface router exposes (≥ 2).
    pub interfaces: usize,
    /// Probability that `sr-ally` successfully merges a multi-interface
    /// router's addresses back into one node.
    pub alias_resolution_prob: f64,
}

impl Default for TracerouteConfig {
    /// The paper's measured rates: 7.5 % non-responders (midpoint of
    /// 5–10 %), 16 % multi-interface, imperfect resolution.
    fn default() -> Self {
        TracerouteConfig {
            no_response_prob: 0.075,
            multi_interface_prob: 0.16,
            interfaces: 3,
            alias_resolution_prob: 0.8,
        }
    }
}

/// Identity of a node as seen by traceroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ObservedKey {
    /// A responding router/host observed under its canonical address.
    Canonical(NodeId),
    /// An unresolved interface `iface` of a multi-interface router.
    Interface(NodeId, u8),
    /// An anonymous hop, identified by the *sandwich-merge* heuristic
    /// topology assemblers use: two `*` hops are the same node when
    /// they follow the same observed predecessor and hide the same
    /// router (in practice inferred from the identical successor; we
    /// use the true node id as a simulation shortcut with the same
    /// outcome on loop-free routes).
    Anonymous(NodeId, NodeId),
}

/// The traceroute-observed topology.
#[derive(Debug, Clone)]
pub struct ObservedTopology {
    /// Observed graph (placeholder and interface nodes included).
    pub graph: Graph,
    /// Observed paths, aligned index-for-index with the input paths.
    pub paths: PathSet,
    /// For each observed link: the underlying true physical link.
    pub true_link_of: Vec<LinkId>,
    /// Number of anonymous placeholder nodes created.
    pub anonymous_nodes: usize,
    /// Number of unresolved interface nodes created.
    pub interface_nodes: usize,
}

/// Replays traceroute over the true paths with the given error model.
///
/// Hosts (path endpoints) always respond — they are the measurement
/// system's own machines. Interface selection is deterministic per
/// (beacon, router), so all paths from one beacon see a router under the
/// same address and per-beacon routes remain trees.
pub fn observe<R: Rng>(
    true_graph: &Graph,
    true_paths: &PathSet,
    cfg: &TracerouteConfig,
    rng: &mut R,
) -> ObservedTopology {
    assert!(
        cfg.interfaces >= 2,
        "multi-interface routers need >= 2 interfaces"
    );
    // Per-router behaviour, drawn once.
    #[derive(Clone, Copy)]
    enum Behaviour {
        Responds,
        Anonymous,
        /// Unresolved multi-interface router.
        MultiInterface,
    }
    let mut behaviour = Vec::with_capacity(true_graph.node_count());
    for node in true_graph.nodes() {
        let b = if node.kind == NodeKind::Host {
            Behaviour::Responds
        } else if rng.gen::<f64>() < cfg.no_response_prob {
            Behaviour::Anonymous
        } else if rng.gen::<f64>() < cfg.multi_interface_prob
            && rng.gen::<f64>() >= cfg.alias_resolution_prob
        {
            Behaviour::MultiInterface
        } else {
            Behaviour::Responds
        };
        behaviour.push(b);
    }

    let mut graph = Graph::new();
    let mut node_of: HashMap<ObservedKey, NodeId> = HashMap::new();
    let mut link_of: HashMap<(NodeId, NodeId), LinkId> = HashMap::new();
    let mut true_link_of: Vec<LinkId> = Vec::new();
    let mut anonymous_nodes = 0usize;
    let mut interface_nodes = 0usize;
    let mut paths = PathSet::new();

    for (_pid, p) in true_paths.iter() {
        // The observed node sequence of this path.
        let mut observed_nodes: Vec<NodeId> = Vec::with_capacity(p.len() + 1);
        let mut true_links: Vec<LinkId> = Vec::with_capacity(p.len());
        // Node sequence of the true path: src, intermediate..., dst.
        let mut seq: Vec<NodeId> = vec![p.src];
        for &l in &p.links {
            seq.push(true_graph.link(l).dst);
            true_links.push(l);
        }
        for &true_node in seq.iter() {
            let key = match behaviour[true_node.index()] {
                Behaviour::Responds => ObservedKey::Canonical(true_node),
                Behaviour::Anonymous => {
                    // Hop 0 is the beacon (always responds), so hop ≥ 1
                    // here and a predecessor exists.
                    let prev = *observed_nodes
                        .last()
                        .expect("anonymous hop cannot be the path source");
                    ObservedKey::Anonymous(prev, true_node)
                }
                Behaviour::MultiInterface => {
                    // Deterministic per (beacon, router).
                    let iface = ((p.src.0 as u64 * 2_654_435_761 + true_node.0 as u64)
                        % cfg.interfaces as u64) as u8;
                    ObservedKey::Interface(true_node, iface)
                }
            };
            let obs = *node_of.entry(key).or_insert_with(|| {
                match key {
                    ObservedKey::Anonymous(..) => anonymous_nodes += 1,
                    ObservedKey::Interface(..) => interface_nodes += 1,
                    ObservedKey::Canonical(_) => {}
                }
                graph.add_node(true_graph.node(true_node).kind)
            });
            observed_nodes.push(obs);
        }
        // Materialise observed links.
        let mut obs_links = Vec::with_capacity(p.len());
        for (i, &tl) in true_links.iter().enumerate() {
            let (a, b) = (observed_nodes[i], observed_nodes[i + 1]);
            let lid = *link_of.entry((a, b)).or_insert_with(|| {
                let lid = graph.add_link(a, b);
                true_link_of.push(tl);
                lid
            });
            obs_links.push(lid);
        }
        paths.push(Path {
            src: observed_nodes[0],
            dst: *observed_nodes.last().expect("path has at least src"),
            links: obs_links,
        });
    }

    ObservedTopology {
        graph,
        paths,
        true_link_of,
        anonymous_nodes,
        interface_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_topology::gen::{tree, GeneratedTopology};
    use losstomo_topology::routing::compute_paths;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_topo(seed: u64) -> (GeneratedTopology, PathSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tree::generate(
            tree::TreeParams {
                nodes: 120,
                max_branching: 5,
            },
            &mut rng,
        );
        let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
        (t, paths)
    }

    #[test]
    fn perfect_traceroute_reproduces_topology() {
        let (t, paths) = sample_topo(1);
        let cfg = TracerouteConfig {
            no_response_prob: 0.0,
            multi_interface_prob: 0.0,
            ..TracerouteConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let obs = observe(&t.graph, &paths, &cfg, &mut rng);
        assert_eq!(obs.paths.len(), paths.len());
        assert_eq!(obs.anonymous_nodes, 0);
        assert_eq!(obs.interface_nodes, 0);
        // Same link-level structure: each observed path has the true
        // path's length.
        for (pid, p) in paths.iter() {
            assert_eq!(obs.paths.path(pid).len(), p.len());
        }
        // Observed links biject with covered true links.
        assert_eq!(obs.true_link_of.len(), paths.covered_links().len());
    }

    #[test]
    fn observed_paths_are_valid() {
        let (t, paths) = sample_topo(3);
        let mut rng = StdRng::seed_from_u64(4);
        let obs = observe(&t.graph, &paths, &TracerouteConfig::default(), &mut rng);
        for (_, p) in obs.paths.iter() {
            assert!(p.validate(&obs.graph), "observed path invalid: {p:?}");
        }
    }

    #[test]
    fn anonymous_routers_create_placeholders() {
        let (t, paths) = sample_topo(5);
        let cfg = TracerouteConfig {
            no_response_prob: 1.0,
            multi_interface_prob: 0.0,
            ..TracerouteConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let obs = observe(&t.graph, &paths, &cfg, &mut rng);
        assert!(obs.anonymous_nodes > 0);
        // All interior nodes anonymous → observed topology has more
        // links than the truth (no sharing of interior links).
        assert!(obs.true_link_of.len() >= paths.covered_links().len());
    }

    #[test]
    fn endpoints_always_respond() {
        let (t, paths) = sample_topo(7);
        let cfg = TracerouteConfig {
            no_response_prob: 1.0,
            multi_interface_prob: 0.0,
            ..TracerouteConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let obs = observe(&t.graph, &paths, &cfg, &mut rng);
        // Paths from the same beacon share their observed source node.
        let firsts: std::collections::HashSet<NodeId> =
            obs.paths.iter().map(|(_, p)| p.src).collect();
        let true_firsts: std::collections::HashSet<NodeId> =
            paths.iter().map(|(_, p)| p.src).collect();
        assert_eq!(firsts.len(), true_firsts.len());
    }

    #[test]
    fn true_link_mapping_is_consistent() {
        let (t, paths) = sample_topo(9);
        let mut rng = StdRng::seed_from_u64(10);
        let obs = observe(&t.graph, &paths, &TracerouteConfig::default(), &mut rng);
        // Every observed path's observed links map back to the true
        // path's links, in order.
        for (pid, p) in paths.iter() {
            let op = obs.paths.path(pid);
            assert_eq!(op.len(), p.len());
            for (ol, tl) in op.links.iter().zip(p.links.iter()) {
                assert_eq!(obs.true_link_of[ol.index()], *tl);
            }
        }
    }

    #[test]
    fn unresolved_interfaces_split_routers() {
        let (t, paths) = sample_topo(11);
        let cfg = TracerouteConfig {
            no_response_prob: 0.0,
            multi_interface_prob: 1.0,
            interfaces: 3,
            alias_resolution_prob: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(12);
        let obs = observe(&t.graph, &paths, &cfg, &mut rng);
        // A single-beacon tree sees each router under one deterministic
        // interface, so the observed structure is still a tree with the
        // same path lengths.
        assert!(obs.interface_nodes > 0);
        for (pid, p) in paths.iter() {
            assert_eq!(obs.paths.path(pid).len(), p.len());
        }
    }
}
