//! SCFS — the Smallest Consistent Failure Set baseline (Duffield,
//! "Network tomography of binary network performance characteristics",
//! IEEE Trans. IT 2006), which Figure 5 compares LIA against.
//!
//! SCFS uses a *single* snapshot: classify each path as good or bad by
//! its end-to-end loss rate, then explain the bad paths with the
//! smallest consistent set of congested links. On a tree this is the set
//! of *topmost* links whose entire downstream path set is bad. We use
//! the equivalent path-set formulation, which extends to multi-beacon
//! meshes link-by-link:
//!
//! * a link is a **candidate** iff every path through it is bad (a link
//!   on any good path is certainly good — loss rates are monotone along
//!   paths);
//! * a candidate is **marked** iff no other candidate's path set
//!   strictly contains its own (the strictly-larger candidate explains
//!   the same bad paths with a link closer to the source, so the
//!   smaller candidate is redundant).
//!
//! On single-beacon trees the two formulations coincide exactly.

use losstomo_topology::ReducedTopology;

/// SCFS configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScfsConfig {
    /// The per-link good/congested threshold `t_l`. A path of `L` links
    /// is classified *bad* when its measured transmission rate falls
    /// below `(1 − t_l)^L` — i.e. below what `L` good links could
    /// jointly produce (the classification rule of the binary-tomography
    /// literature the paper compares against).
    pub link_threshold: f64,
}

impl Default for ScfsConfig {
    fn default() -> Self {
        ScfsConfig {
            link_threshold: losstomo_netsim::DEFAULT_LOSS_THRESHOLD,
        }
    }
}

/// Runs SCFS on one snapshot's per-path loss rates.
///
/// Returns a boolean per virtual link: `true` = diagnosed congested.
pub fn scfs_diagnose(
    red: &ReducedTopology,
    path_loss_rates: &[f64],
    cfg: &ScfsConfig,
) -> Vec<bool> {
    assert_eq!(
        path_loss_rates.len(),
        red.num_paths(),
        "got {} path rates for {} paths",
        path_loss_rates.len(),
        red.num_paths()
    );
    let bad: Vec<bool> = path_loss_rates
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let links = red.path_links(losstomo_topology::PathId(i as u32)).len();
            1.0 - l < (1.0 - cfg.link_threshold).powi(links as i32)
        })
        .collect();

    // Candidates: links whose entire path set is bad (and nonempty).
    let per_link = red.paths_per_link();
    let nc = red.num_links();
    let candidate: Vec<bool> = (0..nc)
        .map(|k| !per_link[k].is_empty() && per_link[k].iter().all(|p| bad[p.index()]))
        .collect();

    // Mark candidates not strictly dominated by another candidate.
    let mut diagnosed = vec![false; nc];
    for k in 0..nc {
        if !candidate[k] {
            continue;
        }
        let pk = &per_link[k];
        let dominated = (0..nc).any(|j| {
            j != k && candidate[j] && per_link[j].len() > pk.len() && is_subset(pk, &per_link[j])
        });
        diagnosed[k] = !dominated;
    }
    diagnosed
}

/// `a ⊆ b` for ascending-sorted path lists.
fn is_subset(a: &[losstomo_topology::PathId], b: &[losstomo_topology::PathId]) -> bool {
    let mut bi = 0;
    for x in a {
        while bi < b.len() && b[bi] < *x {
            bi += 1;
        }
        if bi == b.len() || b[bi] != *x {
            return false;
        }
        bi += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_topology::fixtures;

    /// Figure-1 tree link layout (virtual columns in link-id order):
    /// 0 = root e1, 1 = e2 (→D1), 2 = e3 (→n2), 3 = e4 (→D2),
    /// 4 = e5 (→D3). Paths: 0 = B→D1 {0,1}, 1 = B→D2 {0,2,3},
    /// 2 = B→D3 {0,2,4}.
    fn fig1() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure1())
    }

    #[test]
    fn all_paths_bad_blames_the_root() {
        let red = fig1();
        let diagnosed = scfs_diagnose(&red, &[0.1, 0.1, 0.1], &ScfsConfig::default());
        // Only the shared root link is marked: it alone explains all
        // bad paths (the smallest consistent set).
        assert_eq!(diagnosed.iter().filter(|&&d| d).count(), 1);
        assert!(diagnosed[0]);
    }

    #[test]
    fn single_bad_path_blames_its_leaf_branch() {
        let red = fig1();
        // Only path 0 (B→D1) is bad: the root also carries good paths,
        // so the leaf link e2 is the culprit.
        let diagnosed = scfs_diagnose(&red, &[0.1, 0.0, 0.0], &ScfsConfig::default());
        assert!(!diagnosed[0]);
        assert!(diagnosed[1]);
        assert_eq!(diagnosed.iter().filter(|&&d| d).count(), 1);
    }

    #[test]
    fn subtree_bad_blames_subtree_root() {
        let red = fig1();
        // Paths 1 and 2 (through n2) bad, path 0 good: blame e3.
        let diagnosed = scfs_diagnose(&red, &[0.0, 0.1, 0.1], &ScfsConfig::default());
        assert!(diagnosed[2]);
        assert!(!diagnosed[3]);
        assert!(!diagnosed[4]);
        assert!(!diagnosed[0]);
        assert_eq!(diagnosed.iter().filter(|&&d| d).count(), 1);
    }

    #[test]
    fn no_bad_paths_no_diagnosis() {
        let red = fig1();
        let diagnosed = scfs_diagnose(&red, &[0.0, 0.0, 0.0], &ScfsConfig::default());
        assert!(diagnosed.iter().all(|&d| !d));
    }

    #[test]
    fn threshold_respected() {
        let red = fig1();
        let cfg = ScfsConfig {
            link_threshold: 0.05,
        };
        let diagnosed = scfs_diagnose(&red, &[0.04, 0.04, 0.04], &cfg);
        assert!(diagnosed.iter().all(|&d| !d));
    }

    #[test]
    fn subset_helper() {
        use losstomo_topology::PathId;
        let a = [PathId(1), PathId(3)];
        let b = [PathId(0), PathId(1), PathId(3)];
        assert!(is_subset(&a, &b));
        assert!(!is_subset(&b, &a));
        assert!(is_subset(&[], &b));
    }

    #[test]
    #[should_panic(expected = "path rates")]
    fn wrong_input_length_panics() {
        let red = fig1();
        scfs_diagnose(&red, &[0.0], &ScfsConfig::default());
    }
}
