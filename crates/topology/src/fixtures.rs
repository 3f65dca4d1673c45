//! Hand-built topologies from the paper's figures, used by tests,
//! examples and the identifiability demo.

use crate::alias::{reduce, ReducedTopology};
use crate::gen::GeneratedTopology;
use crate::graph::{Graph, NodeKind};
use crate::routing::compute_paths;

/// The Figure-1 network: one beacon `B1`, three destinations, five links
/// after alias reduction. Its first-moment system is under-determined
/// (rank 3 < 5), which is the paper's motivating example.
///
/// ```text
///        B1
///        |  e1
///        n1
///   e2  /  \ e3
///     D1    n2
///       e4 /  \ e5
///        D2    D3
/// ```
pub fn figure1() -> GeneratedTopology {
    let mut g = Graph::new();
    let b1 = g.add_node(NodeKind::Host);
    let n1 = g.add_node(NodeKind::Router);
    let n2 = g.add_node(NodeKind::Router);
    let d1 = g.add_node(NodeKind::Host);
    let d2 = g.add_node(NodeKind::Host);
    let d3 = g.add_node(NodeKind::Host);
    g.add_link(b1, n1); // e1
    g.add_link(n1, d1); // e2
    g.add_link(n1, n2); // e3
    g.add_link(n2, d2); // e4
    g.add_link(n2, d3); // e5
    GeneratedTopology {
        graph: g,
        beacons: vec![b1],
        destinations: vec![d1, d2, d3],
    }
}

/// A two-beacon network in the spirit of Figure 2: beacons `B1`, `B2`
/// probing destinations `D1..D3` through a shared two-router core. Its
/// reduced routing matrix is rank deficient (the paper's example has
/// rank 5 with 6 paths and 8 links), yet the augmented matrix of
/// Definition 1 has full column rank — the property Theorem 1
/// guarantees and our tests assert.
pub fn figure2() -> GeneratedTopology {
    let mut g = Graph::new();
    let b1 = g.add_node(NodeKind::Host);
    let b2 = g.add_node(NodeKind::Host);
    let a = g.add_node(NodeKind::Router);
    let b = g.add_node(NodeKind::Router);
    let d1 = g.add_node(NodeKind::Host);
    let d2 = g.add_node(NodeKind::Host);
    let d3 = g.add_node(NodeKind::Host);
    g.add_link(b1, a); // e1
    g.add_link(b2, a); // e2
    g.add_link(a, b); // e3
    g.add_link(b, d1); // e4
    g.add_link(b, d2); // e5
    g.add_link(b, d3); // e6
                       // Direct shortcut from B2 to b, making B2's tree differ from B1's.
    g.add_link(b2, b); // e7
    GeneratedTopology {
        graph: g,
        beacons: vec![b1, b2],
        destinations: vec![d1, d2, d3],
    }
}

/// Computes paths and the reduced routing matrix for a fixture.
pub fn reduced(topo: &GeneratedTopology) -> ReducedTopology {
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

/// The two loss-rate assignments of Figure 1 that produce identical
/// end-to-end transmission rates, demonstrating first-moment
/// un-identifiability. Returns `(rates_a, rates_b)` indexed by the
/// physical link ids `e1..e5` of [`figure1`].
pub fn figure1_ambiguous_rates() -> ([f64; 5], [f64; 5]) {
    // Path products: P1 = e1*e2, P2 = e1*e3*e4, P3 = e1*e3*e5.
    // Assignment A: loss concentrated on e1; assignment B: on the leaves.
    let a = [0.9, 1.0, 1.0, 1.0, 1.0];
    let b = [1.0, 0.9, 0.9, 1.0, 1.0];
    // P1: A: 0.9*1.0 = 0.9      B: 1.0*0.9 = 0.9          ✓
    // P2: A: 0.9*1.0*1.0 = 0.9  B: 1.0*0.9*1.0 = 0.9      ✓
    // P3: A: 0.9*1.0*1.0 = 0.9  B: 1.0*0.9*1.0 = 0.9      ✓
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_linalg::rank;

    #[test]
    fn figure1_matches_paper_matrix() {
        let topo = figure1();
        let red = reduced(&topo);
        assert_eq!(red.num_paths(), 3);
        assert_eq!(red.num_links(), 5);
        let dense = red.matrix.to_dense();
        // Paper: rank(R) = 3 < n_c = 5 → under-determined.
        assert_eq!(rank(&dense), 3);
    }

    #[test]
    fn figure1_rates_are_truly_ambiguous() {
        let topo = figure1();
        let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
        let (ra, rb) = figure1_ambiguous_rates();
        for (_, p) in paths.iter() {
            let prod_a: f64 = p.links.iter().map(|l| ra[l.index()]).product();
            let prod_b: f64 = p.links.iter().map(|l| rb[l.index()]).product();
            assert!(
                (prod_a - prod_b).abs() < 1e-12,
                "path {p:?}: {prod_a} vs {prod_b}"
            );
        }
        assert_ne!(ra, rb);
    }

    #[test]
    fn figure2_is_rank_deficient_with_six_paths() {
        let topo = figure2();
        let red = reduced(&topo);
        assert_eq!(red.num_paths(), 6);
        let dense = red.matrix.to_dense();
        let r = rank(&dense);
        assert!(
            r < red.num_links().min(red.num_paths()),
            "rank {r} should be deficient ({} paths x {} links)",
            red.num_paths(),
            red.num_links()
        );
    }

    #[test]
    fn figure2_paths_are_flutter_free() {
        let topo = figure2();
        let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
        assert!(crate::flutter::find_fluttering_pairs(&paths).is_empty());
    }
}
