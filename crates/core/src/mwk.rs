//! MWK — Modifying `Wm` and `k` (Algorithm 2 of the paper).
//!
//! MWK refines customer preferences instead of the product: it finds a
//! modified why-not set `Wm′` and parameter `k′` with minimum penalty
//! (Eq. 4) such that `q ∈ TOPk′(w′)` for every `w′ ∈ Wm′`.
//!
//! Pipeline, following the paper:
//!
//! 1. `FindIncom` — classify the dataset into dominators `D` and
//!    incomparable points `I` (one pruned R-tree traversal);
//! 2. ranks of `q` under the original vectors give `k′max` (Lemma 4);
//! 3. sample `|S|` weighting vectors from the tie hyperplanes of `I`
//!    (§4.3, the only places optimal replacements can live);
//! 4. sort candidates by the rank of `q` and scan once, maintaining the
//!    candidate set `CW` and keeping the best `(Wm′, k′)` (Lemmas 5–6).
//!
//! One deliberate strengthening over the paper's pseudo-code: the
//! original why-not vectors are added to the candidate pool (with their
//! known ranks). This lets the scan keep an original vector unchanged
//! whenever the running `k′` already covers its rank — a candidate family
//! Algorithm 2 as printed cannot reach — and subsumes its line-11
//! initialisation `(Wm, k′max)` as the pool's tail. The returned penalty
//! is therefore never worse than the paper's.

use crate::error::WhyNotError;
use crate::incomparable::DominanceFrontier;
use crate::penalty::{eq4, Tolerances};
use crate::sampling::WeightSampler;
use wqrtq_geom::{l2_dist, Weight};
use wqrtq_query::Snapshot;

/// Result of the MWK refinement.
#[derive(Clone, Debug)]
pub struct MwkResult {
    /// The refined why-not vectors `Wm′` (aligned with the input order).
    pub refined: Vec<Weight>,
    /// The refined parameter `k′`.
    pub k_prime: usize,
    /// Penalty of the refinement (Eq. 4).
    pub penalty: f64,
    /// `k′max` — the worst actual rank of `q` under the original vectors
    /// (Lemma 4), used as the `Δk` normaliser.
    pub k_max: usize,
    /// Actual rank of `q` under each original why-not vector.
    pub actual_ranks: Vec<usize>,
    /// Candidate weighting vectors examined (samples + originals after
    /// the Lemma-4 cut).
    pub candidates_examined: usize,
}

/// What an MWK answer is worth to its caller: MQWK prices a candidate at
/// `floor + lambda · Penalty(Wm′, k′)` (Eq. 5, `floor = γ·Δq(q′)`) and
/// keeps it only if that is strictly below `best`, its incumbent. MWK
/// uses the same expression to skip work that cannot produce such an
/// answer; whenever one exists, the answer returned is bit for bit the
/// one an unbounded run returns.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// The part of the price already spent before MWK runs.
    pub floor: f64,
    /// Weight of the Eq.-4 penalty in the price.
    pub lambda: f64,
    /// The price to beat.
    pub best: f64,
}

impl Budget {
    /// No incumbent: nothing is ever skipped on price.
    pub const UNBOUNDED: Budget = Budget {
        floor: 0.0,
        lambda: 1.0,
        best: f64::INFINITY,
    };

    /// The price of an answer whose Eq.-4 penalty is `penalty`.
    pub fn price(&self, penalty: f64) -> f64 {
        self.floor + self.lambda * penalty
    }

    /// Whether no answer with an Eq.-4 penalty of `lower` or more can
    /// beat the incumbent. `price` is non-decreasing under IEEE rounding,
    /// so this is exact, not approximate: no epsilon, and a NaN keeps.
    pub fn rules_out(&self, lower: f64) -> bool {
        self.price(lower) >= self.best
    }
}

/// Runs MWK against a snapshot. The dominance frontier classifies the
/// live rows in canonical order, so samples, ranks and the returned
/// refinement match a dataset rebuilt from scratch.
pub fn mwk<'a>(
    snap: impl Into<Snapshot<'a>>,
    q: &[f64],
    k: usize,
    why_not: &[Weight],
    sample_size: usize,
    tol: &Tolerances,
    seed: u64,
) -> Result<MwkResult, WhyNotError> {
    let snap = snap.into();
    if why_not.is_empty() {
        return Err(WhyNotError::EmptyWhyNot);
    }
    if let Some(got) = std::iter::once(q.len())
        .chain(why_not.iter().map(Weight::dim))
        .find(|&d| d != snap.dim())
    {
        return Err(WhyNotError::DimensionMismatch {
            expected: snap.dim(),
            got,
        });
    }
    let frontier = DominanceFrontier::new(snap, q);
    Ok(mwk_with_frontier(
        &frontier,
        k,
        why_not,
        sample_size,
        tol,
        seed,
        &Budget::UNBOUNDED,
    ))
}

/// MWK over a pre-computed dominance frontier (it carries the query
/// point), for an answer priced within `budget` — how a plan's MWK step
/// shares its frontier with the MQWK step after it.
pub fn mwk_with_frontier(
    frontier: &DominanceFrontier,
    k: usize,
    why_not: &[Weight],
    sample_size: usize,
    tol: &Tolerances,
    seed: u64,
    budget: &Budget,
) -> MwkResult {
    let sampler = || WeightSampler::new(frontier, why_not, seed);
    mwk_sampled(frontier, k, why_not, sample_size, tol, budget, sampler)
}

/// [`mwk_with_frontier`] drawing its weights from `sampler()`, which runs
/// only once some original vector misses the top-k. MQWK passes samplers
/// whose culprits its per-plan [`crate::incomparable::Reuse`] found.
pub(crate) fn mwk_sampled<'f>(
    frontier: &'f DominanceFrontier,
    k: usize,
    why_not: &[Weight],
    sample_size: usize,
    tol: &Tolerances,
    budget: &Budget,
    sampler: impl FnOnce() -> WeightSampler<'f>,
) -> MwkResult {
    assert!(!why_not.is_empty(), "why-not set must be non-empty");
    let m = why_not.len();
    let dim = frontier.q().len();

    // Ranks of q under the originals (Algorithm 2 lines 7–9) and k′max.
    let ranks: Vec<usize> = why_not.iter().map(|w| frontier.rank_under(w)).collect();
    let k_max = ranks.iter().copied().max().expect("non-empty ranks");

    // Nothing to do: every vector already admits q (possible for sampled
    // query points inside MQWK).
    if k_max <= k {
        return MwkResult {
            refined: why_not.to_vec(),
            k_prime: k,
            penalty: 0.0,
            k_max,
            actual_ranks: ranks,
            candidates_examined: 0,
        };
    }
    let penalty = |k_prime: usize, delta_wm: f64| eq4(tol, k, k_prime, k_max, delta_wm);

    // The worst rank worth telling apart. Lemma 4: candidates ranked
    // beyond k′max cannot improve the answer. And a candidate of rank r
    // only ever sits in a CW priced at α·Δk(r) or more, so the budget may
    // stop short of k′max (binary search on the price; it keeps rank k
    // even when nothing fits).
    let (mut rank_limit, mut over) = (k, k_max);
    while rank_limit < over {
        let mid = over - (over - rank_limit) / 2;
        if budget.rules_out(penalty(mid, 0.0)) {
            over = mid - 1;
        } else {
            rank_limit = mid;
        }
    }
    let cap = rank_limit.saturating_sub(frontier.num_dominating());

    // Candidate pool: hyperplane samples (line 3) plus the originals.
    // Every sample is drawn — the RNG stream is the candidate set — but a
    // draw is neither ranked nor pooled when, whichever vector it might
    // replace, that move alone prices the CW out of the budget.
    let mut candidates: Vec<f64> = Vec::new();
    let mut pool: Vec<(usize, usize)> = Vec::new();
    sampler().sample_each(sample_size, |w| {
        if why_not
            .iter()
            .all(|wi| budget.rules_out(penalty(k, l2_dist(wi, w))))
        {
            return;
        }
        let better = frontier.count_better(w, cap);
        if better < cap {
            pool.push((frontier.num_dominating() + better + 1, pool.len()));
            candidates.extend_from_slice(w);
        }
    });
    for (w, &rank) in why_not.iter().zip(&ranks) {
        pool.push((rank, pool.len()));
        candidates.extend_from_slice(w);
    }
    // Sort by rank of q (line 6).
    pool.sort_by_key(|&(rank, _)| rank);
    let candidate = |c: usize| &candidates[c * dim..(c + 1) * dim];

    // Baseline candidate: keep Wm, raise k to k′max (line 11) — penalty α.
    let mut best_cw: Vec<usize> = (pool.len() - m..pool.len()).collect();
    let mut best_k = k_max;
    let mut best_pen = penalty(k_max, 0.0);

    // Scan (lines 12–18, Lemma 6): CW starts as the lowest-ranked
    // candidate replicated across positions, and takes in every later
    // candidate that is nearer to some original than its current stand-in.
    let mut cw = vec![usize::MAX; m];
    let mut cw_dist = vec![f64::INFINITY; m];
    for &(rank, c) in &pool {
        let mut updated = false;
        for i in 0..m {
            let d = l2_dist(&why_not[i], candidate(c));
            if d < cw_dist[i] || cw[i] == usize::MAX {
                cw[i] = c;
                cw_dist[i] = d;
                updated = true;
            }
        }
        if updated {
            // Pool is rank-sorted, so the max rank inside CW is `rank`.
            let k_cand = rank.max(k);
            let pen = penalty(k_cand, cw_dist.iter().sum());
            if pen < best_pen {
                best_pen = pen;
                best_k = k_cand;
                best_cw.copy_from_slice(&cw);
            }
        }
    }

    let refined = best_cw.into_iter().map(|c| Weight::new(candidate(c)));
    MwkResult {
        refined: refined.collect(),
        k_prime: best_k,
        penalty: best_pen,
        k_max,
        actual_ranks: ranks,
        candidates_examined: pool.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_query::rank_of_point;
    use wqrtq_rtree::RTree;

    fn fig_tree() -> RTree {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        RTree::bulk_load(2, &pts)
    }

    fn kevin_julia() -> Vec<Weight> {
        vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])]
    }

    fn verify(tree: &RTree, q: &[f64], res: &MwkResult) {
        for w in &res.refined {
            let r = rank_of_point(tree, w, q);
            assert!(
                r <= res.k_prime,
                "refined vector {w:?} ranks {r} > k′ = {}",
                res.k_prime
            );
        }
    }

    #[test]
    fn paper_example_ranks_and_kmax() {
        let tree = fig_tree();
        let res = mwk(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            200,
            &Tolerances::paper_default(),
            7,
        )
        .unwrap();
        // §4.3: ranks of q under w1 and w4 are both 4 → k′max = 4.
        assert_eq!(res.actual_ranks, vec![4, 4]);
        assert_eq!(res.k_max, 4);
        verify(&tree, &[4.0, 4.0], &res);
    }

    #[test]
    fn beats_the_k_only_candidate_on_paper_example() {
        // The paper's §4.3 example: modifying the vectors beats modifying
        // k alone (penalty 0.5); the best refinement costs ≈ 0.108 with
        // the exact tie weights (1/6, 5/6) and (3/4, 1/4).
        let tree = fig_tree();
        let res = mwk(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            400,
            &Tolerances::paper_default(),
            11,
        )
        .unwrap();
        assert!(res.penalty < 0.5, "penalty {}", res.penalty);
        assert!(res.penalty < 0.15, "penalty {}", res.penalty);
        verify(&tree, &[4.0, 4.0], &res);
    }

    #[test]
    fn exact_optimum_reachable_in_2d() {
        // In 2-D the tie hyperplanes are single points, so with enough
        // samples MWK finds the analytically optimal refinement:
        // Kevin → (1/6, 5/6) (Δ = 0.0667·√2), Julia → (3/4, 1/4)
        // (Δ = 0.15·√2), k unchanged.
        let tree = fig_tree();
        let res = mwk(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            800,
            &Tolerances::paper_default(),
            3,
        )
        .unwrap();
        let expected = 0.5 * ((0.1f64 - 1.0 / 6.0).abs() + 0.15) * std::f64::consts::SQRT_2
            / std::f64::consts::SQRT_2;
        assert!(
            (res.penalty - expected).abs() < 1e-6,
            "penalty {} vs expected {expected}",
            res.penalty
        );
        assert_eq!(res.k_prime, 3);
        verify(&tree, &[4.0, 4.0], &res);
    }

    #[test]
    fn zero_samples_still_returns_valid_answer() {
        // With no samples the pool holds only the originals: the answer
        // degenerates to the paper's line-11 candidate (Wm, k′max).
        let tree = fig_tree();
        let res = mwk(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            0,
            &Tolerances::paper_default(),
            1,
        )
        .unwrap();
        assert_eq!(res.k_prime, 4);
        assert_eq!(res.refined[0].as_slice(), kevin_julia()[0].as_slice());
        assert!((res.penalty - 0.5).abs() < 1e-12);
        verify(&tree, &[4.0, 4.0], &res);
    }

    #[test]
    fn penalty_never_increases_with_sample_size() {
        // Larger |S| supersets the candidate space statistically; penalty
        // trends down (paper Fig. 12). Check monotone-ish behaviour on a
        // fixed ladder of seeds.
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        let p100 = mwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 100, &tol, 5)
            .unwrap()
            .penalty;
        let p1600 = mwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 1600, &tol, 5)
            .unwrap()
            .penalty;
        assert!(p1600 <= p100 + 1e-9, "p100 = {p100}, p1600 = {p1600}");
    }

    #[test]
    fn not_why_not_vectors_cost_nothing() {
        // Tony and Anna are already in the result: MWK must return the
        // identity refinement with zero penalty.
        let tree = fig_tree();
        let members = vec![Weight::new(vec![0.5, 0.5]), Weight::new(vec![0.3, 0.7])];
        let res = mwk(
            &tree,
            &[4.0, 4.0],
            3,
            &members,
            100,
            &Tolerances::paper_default(),
            1,
        )
        .unwrap();
        assert_eq!(res.penalty, 0.0);
        assert_eq!(res.k_prime, 3);
    }

    #[test]
    fn mixed_member_and_why_not_set() {
        // Kevin (why-not) + Tony (member): the optimal answer keeps Tony
        // untouched.
        let tree = fig_tree();
        let mixed = vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.5, 0.5])];
        let res = mwk(
            &tree,
            &[4.0, 4.0],
            3,
            &mixed,
            400,
            &Tolerances::paper_default(),
            9,
        )
        .unwrap();
        verify(&tree, &[4.0, 4.0], &res);
        assert_eq!(
            res.refined[1].as_slice(),
            mixed[1].as_slice(),
            "member vector should stay unchanged"
        );
    }

    #[test]
    fn errors_for_bad_inputs() {
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        assert!(matches!(
            mwk(&tree, &[4.0, 4.0], 3, &[], 10, &tol, 1),
            Err(WhyNotError::EmptyWhyNot)
        ));
        assert!(matches!(
            mwk(&tree, &[4.0], 3, &kevin_julia(), 10, &tol, 1),
            Err(WhyNotError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        let a = mwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 300, &tol, 21).unwrap();
        let b = mwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 300, &tol, 21).unwrap();
        assert_eq!(a.penalty, b.penalty);
        assert_eq!(a.k_prime, b.k_prime);
    }
}
