//! Pair budgeting: information-weighted row selection for the
//! augmented system, breaking Phase 1's `O(paths²)` ceiling.
//!
//! The augmented system materialises every path pair with a nonempty
//! link intersection, so its row count grows quadratically in paths
//! (497 tree paths → 89,944 rows; 3,540 PlanetLab paths → 428,640
//! rows) while its column count — the links whose variances Phase 1
//! actually estimates — stays near-linear. Most of those rows are
//! redundant: the paper's Theorem-1 identifiability argument only
//! needs the pair set to reach full column rank, and thinned-flow /
//! efficient-monitoring results (Rahman et al.; Chua, Kolaczyk &
//! Crovella) show a well-chosen measurement subset preserves the
//! inference. This module picks that subset.
//!
//! [`select_pairs`] ranks rows by a coverage-weighted score
//! (`Σ_{k ∈ row} 1 / count(k)` — a row covering rare links scores
//! high), streams them through the Givens row-basis certificate
//! ([`losstomo_linalg::row_basis`]) so the selection provably keeps
//! the full system's rank, tops up any link the basis left uncovered,
//! and then fills to the requested budget with a diminishing-returns
//! greedy on the coverage score — spreading the remaining rows across
//! the link set instead of stacking near-duplicates. The guarantees —
//! every covered link stays covered, rank is preserved — make the
//! budgeted Phase 1 *exact* on noise-free covariances; the exactness
//! oracle test below pins that.
//!
//! The budget itself is a [`PairBudget`]: `Full` (default), an
//! absolute row count, or a fraction of the full pair set. Batch
//! experiments take it from `ExperimentConfig::pair_budget`, and each
//! streaming estimator (a fleet tenant included) from its own
//! `OnlineConfig::pair_budget`.

use crate::augmented::AugmentedSystem;
use losstomo_linalg::{row_basis, Cholesky, LinalgError, Matrix};

/// Cap on Gram-certificate repair rounds (each adds rows, so the loop
/// terminates regardless; the cap bounds the worst case).
const MAX_REPAIR_ROUNDS: usize = 64;

/// Rows-per-link ratio above which the streaming row-basis pass is
/// skipped in favour of the exact Gram certificate (see
/// [`select_pairs`]).
const TALL_SKIP_RATIO: usize = 16;

/// Rows added per repair round.
const REPAIR_ROWS_PER_ROUND: usize = 8;

/// Row budget for the augmented pair system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PairBudget {
    /// Keep every augmented pair (the pre-budgeting behaviour).
    #[default]
    Full,
    /// Keep at most this many rows.
    Rows(usize),
    /// Keep at most this fraction of the full pair set (`0 < f < 1`).
    Fraction(f64),
}

impl PairBudget {
    /// The row limit this budget imposes on a `full_rows`-row system,
    /// or `None` when no budgeting applies (full budget, or a limit
    /// that doesn't bite).
    pub fn limit(self, full_rows: usize) -> Option<usize> {
        match self {
            PairBudget::Full => None,
            PairBudget::Rows(n) => (n > 0 && n < full_rows).then_some(n),
            PairBudget::Fraction(f) => {
                if !(f > 0.0 && f < 1.0) {
                    return None;
                }
                let n = ((f * full_rows as f64).ceil() as usize).max(1);
                (n < full_rows).then_some(n)
            }
        }
    }
}

/// The outcome of a pair selection: which rows of the full augmented
/// system survive the budget, and why.
#[derive(Debug, Clone)]
pub struct PairSelection {
    /// Selected row indices into the *full* augmented system,
    /// ascending — feed to [`AugmentedSystem::subset`].
    pub rows: Vec<usize>,
    /// Rows selected by the Givens row-basis certificate (these alone
    /// reproduce the full system's rank).
    pub basis_rows: usize,
    /// Rows added afterwards to restore coverage of links the basis
    /// missed (nonzero only on rank-deficient systems).
    pub coverage_rows: usize,
    /// Rows added by the Gram positive-definiteness repair (nonzero
    /// only when the Givens basis certificate proved numerically
    /// optimistic on a near-singular system).
    pub repair_rows: usize,
    /// The requested row limit (the effective budget is
    /// `rows.len()`, which may exceed this when the rank/coverage
    /// floor is larger).
    pub requested: usize,
    /// Row count of the full system the selection was drawn from.
    pub full_rows: usize,
}

impl PairSelection {
    /// Selected rows as a fraction of the full pair set.
    pub fn fraction(&self) -> f64 {
        if self.full_rows == 0 {
            1.0
        } else {
            self.rows.len() as f64 / self.full_rows as f64
        }
    }
}

/// Selects an information-weighted subset of at most
/// `max(limit, rank + coverage floor)` rows of `aug` that keeps the
/// full system's column rank and covers every link the full system
/// covers. Deterministic for a given system.
pub fn select_pairs(aug: &AugmentedSystem, limit: usize) -> PairSelection {
    let nr = aug.num_rows();
    let nc = aug.num_links();

    // Coverage-weighted score: a row earns 1/count(k) for every link k
    // it covers, so rows covering rarely-seen links rank first.
    let mut link_count = vec![0usize; nc];
    for row in aug.matrix().iter() {
        for &k in row {
            link_count[k] += 1;
        }
    }
    let covered_links = link_count.iter().filter(|&&c| c > 0).count();
    let score: Vec<f64> = (0..nr)
        .map(|r| aug.row(r).iter().map(|&k| 1.0 / link_count[k] as f64).sum())
        .collect();
    let mut order: Vec<usize> = (0..nr).collect();
    order.sort_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));

    // Rank floor: stream rows through the Givens certificate; the
    // install events are a row basis, so keeping them keeps the full
    // system's rank. The pass costs `O(rows × fill)`, which is a
    // bargain on wide systems (it spares the repair loop below from
    // bootstrapping rank one direction at a time) but dominates
    // selection on extremely tall ones — there the Gram is small, the
    // exact certificate is cheap, and coverage + fill land within a
    // repair round or two of positive definite anyway, so skip the
    // streaming pass and let the certificate do the proving.
    let basis = if nr > TALL_SKIP_RATIO * nc.max(1) {
        Vec::new()
    } else {
        row_basis(&aug.to_sparse(), &order)
    };
    let mut selected = vec![false; nr];
    let mut covered = vec![false; nc];
    let mut n_selected = 0usize;
    let mut n_covered = 0usize;
    for &r in &basis {
        selected[r] = true;
        n_selected += 1;
        for &k in aug.row(r) {
            if !covered[k] {
                covered[k] = true;
                n_covered += 1;
            }
        }
    }
    let basis_rows = n_selected;

    // Coverage floor: at full rank no link can be uncovered (an
    // uncovered link would be a zero column of the basis), so this
    // only fires on rank-deficient systems — walk the score order and
    // take any row that covers something new.
    for &r in &order {
        if n_covered == covered_links {
            break;
        }
        if selected[r] || !aug.row(r).iter().any(|&k| !covered[k]) {
            continue;
        }
        selected[r] = true;
        n_selected += 1;
        for &k in aug.row(r) {
            if !covered[k] {
                covered[k] = true;
                n_covered += 1;
            }
        }
    }
    let coverage_rows = n_selected - basis_rows;

    // Fill to the budget (the floor may already exceed it) with a
    // *diminishing-returns* greedy: a row's gain is its coverage score
    // discounted by how often the selection already covers each of its
    // links. Taking the static top scorers instead would pick
    // near-duplicate rows (they all contain the same rare links) and
    // leave the budgeted Gram terribly conditioned; the discount
    // spreads the budget across the link set. Threshold greedy —
    // geometric sweeps accepting any row whose current gain clears the
    // bar — keeps the submodular (1−1/e−ε) guarantee in a bounded
    // number of linear passes, where the exact heap order degrades
    // badly on tall systems whose rows share hub links (every
    // selection stales thousands of heap entries).
    let target = limit.max(n_selected).min(nr);
    if n_selected < target {
        let mut cnt = vec![0usize; nc];
        for (r, sel) in selected.iter().enumerate() {
            if *sel {
                for &k in aug.row(r) {
                    cnt[k] += 1;
                }
            }
        }
        let gain = |r: usize, cnt: &[usize]| -> f64 {
            aug.row(r)
                .iter()
                .map(|&k| 1.0 / (link_count[k] * (1 + cnt[k])) as f64)
                .sum::<f64>()
        };
        let mut tau = (0..nr)
            .filter(|&r| !selected[r])
            .map(|r| gain(r, &cnt))
            .fold(0.0_f64, f64::max);
        let tau_floor = tau * 1e-6;
        while n_selected < target && tau > tau_floor {
            #[allow(clippy::needless_range_loop)] // `r` indexes two slices
            for r in 0..nr {
                if n_selected == target {
                    break;
                }
                if !selected[r] && gain(r, &cnt) >= tau {
                    selected[r] = true;
                    n_selected += 1;
                    for &k in aug.row(r) {
                        cnt[k] += 1;
                    }
                }
            }
            tau *= 0.5;
        }
        // Gains can underflow the floor collectively (duplicate-heavy
        // systems): top up in score order so the budget is honoured.
        for &r in &order {
            if n_selected == target {
                break;
            }
            if !selected[r] {
                selected[r] = true;
                n_selected += 1;
            }
        }
    }

    // Positive-definiteness certificate and repair. The streaming
    // basis certificate is numerically soft near singularity (a
    // dependent row's cancellation residue can survive the rank
    // tolerance and masquerade as a basis row), so certify the
    // selection the way Phase 1 will consume it: factor the selected
    // rows' Gram over the covered columns with the same Cholesky, and
    // on a failing pivot add the best unselected rows covering the
    // corresponding link. Each round adds rows, so this terminates; in
    // practice one or two rounds fix the rare marginal topology.
    let repair_floor = n_selected;
    let mut round = 0usize;
    while n_selected < nr && round < MAX_REPAIR_ROUNDS {
        round += 1;
        let mask: Vec<usize> = {
            let mut covered_sel = vec![false; nc];
            for (r, sel) in selected.iter().enumerate() {
                if *sel {
                    for &k in aug.row(r) {
                        covered_sel[k] = true;
                    }
                }
            }
            (0..nc).filter(|&k| covered_sel[k]).collect()
        };
        let mut dense_of = vec![usize::MAX; nc];
        for (m, &k) in mask.iter().enumerate() {
            dense_of[k] = m;
        }
        let mut gram = Matrix::zeros(mask.len(), mask.len());
        for (r, sel) in selected.iter().enumerate() {
            if *sel {
                for &a in aug.row(r) {
                    for &b in aug.row(r) {
                        gram[(dense_of[a], dense_of[b])] += 1.0;
                    }
                }
            }
        }
        match Cholesky::new(&gram) {
            Ok(_) => break,
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(_) => break,
        }
        // Extract the near-null direction behind the failing pivot and
        // add the unselected rows with the largest component along it
        // — the rows that provably strengthen exactly the deficient
        // direction (a row's contribution to the pivot is (aᵀv)²).
        let Some(v) = near_null_direction(&gram) else {
            break;
        };
        let mut candidates: Vec<(usize, f64)> = (0..nr)
            .filter(|&r| !selected[r])
            .map(|r| {
                let t: f64 = aug
                    .row(r)
                    .iter()
                    .filter(|&&k| dense_of[k] != usize::MAX)
                    .map(|&k| v[dense_of[k]])
                    .sum();
                (r, t.abs())
            })
            .filter(|&(_, t)| t > 1e-9)
            .collect();
        if candidates.is_empty() {
            // No remaining row reaches the deficient direction: the
            // full system is (numerically) deficient there too, and
            // the runtime mask/fold-back logic handles it the same
            // way it does for the full system.
            break;
        }
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (r, _) in candidates.into_iter().take(REPAIR_ROWS_PER_ROUND) {
            selected[r] = true;
            n_selected += 1;
        }
    }
    let repair_rows = n_selected - repair_floor;

    let rows: Vec<usize> = (0..nr).filter(|&r| selected[r]).collect();
    PairSelection {
        rows,
        basis_rows,
        coverage_rows,
        repair_rows,
        requested: limit,
        full_rows: nr,
    }
}

/// The direction a failing Gram pivot is flat along: runs an unpivoted
/// `LDLᵀ` until a pivot falls below the (slightly stricter than the
/// Cholesky's) relative tolerance, then back-solves `Lᵀv = e_j` on the
/// leading minor — `Gv ≈ 0`, so `v` spans the numerical null space the
/// repair loop must reinforce. Returns `None` when every pivot is
/// sound.
fn near_null_direction(gram: &Matrix) -> Option<Vec<f64>> {
    let n = gram.rows();
    let max_diag = (0..n).fold(0.0_f64, |m, i| m.max(gram[(i, i)]));
    let tol = 1e-12 * max_diag.max(1e-300);
    let mut l = Matrix::zeros(n, n);
    let mut d = vec![0.0_f64; n];
    for j in 0..n {
        let mut dj = gram[(j, j)];
        for k in 0..j {
            dj -= l[(j, k)] * l[(j, k)] * d[k];
        }
        if dj <= tol {
            let mut v = vec![0.0_f64; n];
            v[j] = 1.0;
            for i in (0..j).rev() {
                let mut s = 0.0;
                for k in (i + 1)..=j {
                    s += l[(k, i)] * v[k];
                }
                v[i] = -s;
            }
            return Some(v);
        }
        d[j] = dj;
        for i in (j + 1)..n {
            let mut x = gram[(i, j)];
            for k in 0..j {
                x -= l[(i, k)] * l[(j, k)] * d[k];
            }
            l[(i, j)] = x / dj;
        }
    }
    None
}

/// Applies a budget to a freshly built augmented system: returns the
/// (possibly) budgeted system plus the selection that produced it
/// (`None` when the budget doesn't bite and the system is unchanged).
/// This is the one entry point the batch experiment, the streaming
/// estimator and the fleet all share.
pub fn apply_budget(
    aug: AugmentedSystem,
    budget: PairBudget,
) -> (AugmentedSystem, Option<PairSelection>) {
    match budget.limit(aug.num_rows()) {
        None => (aug, None),
        Some(limit) => {
            let sel = select_pairs(&aug, limit);
            if sel.rows.len() >= aug.num_rows() {
                return (aug, None);
            }
            let sub = aug.subset(&sel.rows);
            (sub, Some(sel))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::{estimate_variances_from_sigmas, VarianceConfig};
    use losstomo_topology::fixtures;
    use losstomo_topology::ReducedTopology;

    fn fig(red: &ReducedTopology) -> AugmentedSystem {
        AugmentedSystem::build(red)
    }

    #[test]
    fn budget_inheritance_and_limits() {
        assert_eq!(PairBudget::Full.limit(100), None);
        assert_eq!(PairBudget::Rows(10).limit(100), Some(10));
        assert_eq!(PairBudget::Rows(100).limit(100), None);
        assert_eq!(PairBudget::Rows(0).limit(100), None);
        assert_eq!(PairBudget::Fraction(0.25).limit(100), Some(25));
        // ceil(0.5 * 3) = 2.
        assert_eq!(PairBudget::Fraction(0.5).limit(3), Some(2));
        assert_eq!(PairBudget::Fraction(0.999).limit(2), None);
    }

    #[test]
    fn selection_keeps_rank_and_coverage() {
        for topo in [fixtures::figure1(), fixtures::figure2()] {
            let red = fixtures::reduced(&topo);
            let aug = fig(&red);
            let full_rank = losstomo_linalg::rank(&aug.to_dense());
            // Ask for an absurdly small budget: the rank floor wins.
            let sel = select_pairs(&aug, 1);
            assert_eq!(sel.basis_rows, full_rank);
            assert!(sel.rows.len() >= full_rank);
            let sub = aug.subset(&sel.rows);
            assert_eq!(losstomo_linalg::rank(&sub.to_dense()), full_rank);
            // Every link the full system covers stays covered.
            let mut covered = vec![false; aug.num_links()];
            for row in sub.matrix().iter() {
                for &k in row {
                    covered[k] = true;
                }
            }
            for (k, &got) in covered.iter().enumerate() {
                let full_covers = (0..aug.num_rows()).any(|r| aug.row(r).contains(&k));
                assert_eq!(got, full_covers, "link {k} coverage");
            }
        }
    }

    #[test]
    fn selection_is_deterministic_and_respects_budget() {
        let red = fixtures::reduced(&fixtures::figure2());
        let aug = fig(&red);
        let a = select_pairs(&aug, aug.num_rows() - 1);
        let b = select_pairs(&aug, aug.num_rows() - 1);
        assert_eq!(a.rows, b.rows);
        assert!(a.rows.len() < aug.num_rows() || a.rows.len() == a.basis_rows + a.coverage_rows);
        assert!(a.rows.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    /// The exactness oracle of ISSUE 6: on noise-free covariances
    /// `Σ* = A·v`, the budgeted system — full column rank by the basis
    /// certificate, consistent by construction — recovers `v`
    /// *exactly* (to solver tolerance), proving the selection lost no
    /// information Phase 1 needs.
    #[test]
    fn exactness_oracle_budgeted_matches_full() {
        for (topo, budget_frac) in [(fixtures::figure1(), 0.85), (fixtures::figure2(), 0.5)] {
            let red = fixtures::reduced(&topo);
            let aug = fig(&red);
            if !aug.is_identifiable() {
                // The oracle needs exact recovery, hence full rank.
                continue;
            }
            let nc = aug.num_links();
            let v: Vec<f64> = (0..nc).map(|k| 0.05 + 0.01 * k as f64).collect();
            let sigmas = aug.matrix().matvec(&v).unwrap();
            let cfg = VarianceConfig::default();
            let full = estimate_variances_from_sigmas(&red, &aug, &sigmas, &cfg).unwrap();

            let limit = ((aug.num_rows() as f64) * budget_frac).ceil() as usize;
            let sel = select_pairs(&aug, limit);
            let sub = aug.subset(&sel.rows);
            let sub_sigmas: Vec<f64> = sel.rows.iter().map(|&r| sigmas[r]).collect();
            let budgeted = estimate_variances_from_sigmas(&red, &sub, &sub_sigmas, &cfg).unwrap();

            for (k, &vk) in v.iter().enumerate().take(nc) {
                assert!(
                    (budgeted.v[k] - vk).abs() < 1e-10,
                    "budgeted v[{k}] = {} vs true {vk}",
                    budgeted.v[k]
                );
                assert!(
                    (budgeted.v[k] - full.v[k]).abs() < 1e-10,
                    "budgeted vs full mismatch at {k}"
                );
            }
        }
    }

    #[test]
    fn apply_budget_full_is_identity() {
        let red = fixtures::reduced(&fixtures::figure1());
        let aug = fig(&red);
        let nr = aug.num_rows();
        let (same, sel) = apply_budget(aug, PairBudget::Full);
        assert!(sel.is_none());
        assert_eq!(same.num_rows(), nr);
    }

    #[test]
    fn apply_budget_subsets_when_it_bites() {
        let red = fixtures::reduced(&fixtures::figure2());
        let aug = fig(&red);
        let nr = aug.num_rows();
        let rank = losstomo_linalg::rank(&aug.to_dense());
        let (sub, sel) = apply_budget(aug, PairBudget::Rows(rank));
        if let Some(sel) = sel {
            assert_eq!(sub.num_rows(), sel.rows.len());
            assert!(sub.num_rows() < nr);
            assert_eq!(losstomo_linalg::rank(&sub.to_dense()), rank);
        }
    }
}
