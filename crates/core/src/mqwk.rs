//! MQWK — Modifying `q`, `Wm` and `k` simultaneously (Algorithm 3).
//!
//! The compromise solution: both the manufacturer (query point) and the
//! customers (preferences) move. MQWK
//!
//! 1. runs MQP to obtain `qmin`, the closest fully-safe query point;
//! 2. samples `|Q|` candidate query points from the box `(qmin, q)` —
//!    the only region that can beat both endpoint solutions (§4.4);
//! 3. for every sample `q′` that can still beat the best candidate so
//!    far runs MWK *with the reuse technique*: the dominance frontier of
//!    the original `q` is re-classified for `q′` instead of re-traversing
//!    the R-tree;
//! 4. returns the `(q′, Wm′, k′)` tuple with the smallest combined
//!    penalty (Eq. 5).
//!
//! The two closed endpoints — `(qmin, Wm, k)` (pure MQP) and `(q, Wm′,
//! k′)` (pure MWK) — are always evaluated as candidates, so MQWK's
//! penalty is never worse than either specialised solution, matching the
//! paper's experimental plots where MQWK has the smallest penalty.

use crate::error::WhyNotError;
use crate::incomparable::DominanceFrontier;
use crate::mqp::mqp;
use crate::mwk::{mwk_with_frontier, Budget, MwkResult};
use crate::penalty::{query_point_penalty, Tolerances};
use crate::sampling::sample_query_points;
use wqrtq_geom::Weight;
use wqrtq_query::Snapshot;

/// Which candidate family produced the best tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefinementSource {
    /// The pure-MQP endpoint `(qmin, Wm, k)` won.
    QueryEndpoint,
    /// The pure-MWK endpoint `(q, Wm′, k′)` won.
    PreferenceEndpoint,
    /// A sampled interior query point won.
    Sampled,
}

/// Result of the MQWK refinement.
#[derive(Clone, Debug)]
pub struct MqwkResult {
    /// The refined query point `q′`.
    pub q_prime: Vec<f64>,
    /// The refined why-not vectors `Wm′`.
    pub refined: Vec<Weight>,
    /// The refined parameter `k′`.
    pub k_prime: usize,
    /// Combined penalty (Eq. 5).
    pub penalty: f64,
    /// Candidate query points evaluated: the two endpoints plus every
    /// sample MWK ran for.
    pub candidates_evaluated: usize,
    /// Sampled query points skipped because moving `q` that far already
    /// costs as much as the best candidate before them
    /// (`evaluated + pruned = 2 + |Q|`).
    pub candidates_pruned: usize,
    /// Which family produced the winner.
    pub source: RefinementSource,
}

/// Runs MQWK. `sample_size` is `|S|` (weights per MWK call) and
/// `query_samples` is `|Q|`; the paper's experiments keep them equal.
/// MQP constraints and the reuse frontier both come from the snapshot's
/// live rows (canonical order), so every candidate tuple — and hence the
/// winner — matches a rebuilt dataset.
///
/// The answer is Algorithm 3's, bit for bit, but not all of its work is
/// done: the best penalty so far travels with the loop, a sample whose
/// `γ·Δq(q′)` alone reaches it is skipped, and the others hand MWK what is
/// left of it as a [`Budget`]. The comparison is strict and in sample
/// order, so a candidate that cannot go below the incumbent could never
/// have replaced it.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 3's input list
pub fn mqwk<'a>(
    snap: impl Into<Snapshot<'a>>,
    q: &[f64],
    k: usize,
    why_not: &[Weight],
    sample_size: usize,
    query_samples: usize,
    tol: &Tolerances,
    seed: u64,
) -> Result<MqwkResult, WhyNotError> {
    let snap = snap.into();
    // Line 2: qmin via MQP (also validates inputs).
    let mqp_res = mqp(snap, q, k, why_not)?;
    let qmin = &mqp_res.q_prime;
    // Reuse base: one FindIncom traversal at the original q (§4.4).
    let base = DominanceFrontier::new(snap, q);

    // Endpoint candidate 1: move the query all the way to qmin, keep
    // preferences — penalty γ·Δq(qmin).
    let mut best = MqwkResult {
        q_prime: qmin.clone(),
        refined: why_not.to_vec(),
        k_prime: k,
        penalty: tol.gamma * mqp_res.penalty,
        candidates_evaluated: 2,
        candidates_pruned: 0,
        source: RefinementSource::QueryEndpoint,
    };

    // Endpoint candidate 2: keep q, run plain MWK — penalty λ·Eq.(4).
    let budget = Budget {
        floor: 0.0,
        lambda: tol.lambda,
        best: best.penalty,
    };
    let res = mwk_with_frontier(&base, k, why_not, sample_size, tol, seed, &budget);
    best.offer(q, res, &budget, RefinementSource::PreferenceEndpoint);

    // Line 3: sample |Q| query points from (qmin, q); lines 5–9: evaluate
    // each through MWK over the re-classified frontier. Sample `i` seeds
    // its MWK with `seed + i + 1` whether or not its predecessors ran.
    let samples = sample_query_points(qmin, q, query_samples, seed ^ 0x9e37_79b9);
    for (i, q_cand) in samples.iter().enumerate() {
        let budget = Budget {
            floor: tol.gamma * query_point_penalty(q, q_cand),
            best: best.penalty,
            ..budget
        };
        if budget.rules_out(0.0) {
            best.candidates_pruned += 1;
            continue;
        }
        best.candidates_evaluated += 1;
        let frontier = base.reclassify(q_cand);
        let seed = seed.wrapping_add(i as u64 + 1);
        let res = mwk_with_frontier(&frontier, k, why_not, sample_size, tol, seed, &budget);
        best.offer(q_cand, res, &budget, RefinementSource::Sampled);
    }
    Ok(best)
}

impl MqwkResult {
    /// Takes the candidate `(q′, MWK(q′))` if it is strictly cheaper.
    fn offer(
        &mut self,
        q_prime: &[f64],
        res: MwkResult,
        budget: &Budget,
        source: RefinementSource,
    ) {
        let pen = budget.price(res.penalty);
        if pen < self.penalty {
            self.q_prime = q_prime.to_vec();
            self.refined = res.refined;
            self.k_prime = res.k_prime;
            self.penalty = pen;
            self.source = source;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwk::mwk;
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

    fn verify(tree: &RTree, res: &MqwkResult) {
        for w in &res.refined {
            let r = rank_of_point(tree, w, &res.q_prime);
            assert!(
                r <= res.k_prime,
                "refined vector {w:?} ranks {r} > k′ = {} at q′ {:?}",
                res.k_prime,
                res.q_prime
            );
        }
    }

    #[test]
    fn refined_tuple_is_valid_on_paper_example() {
        let tree = fig_tree();
        let res = mqwk(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            200,
            200,
            &Tolerances::paper_default(),
            17,
        )
        .unwrap();
        verify(&tree, &res);
        assert!(res.penalty > 0.0 && res.penalty < 1.0);
        // Both endpoints are tight here (each costs about what the winner
        // does), so most of the box is priced out by its Δq alone — and
        // the count says what ran, not what was asked for.
        assert_eq!(res.candidates_evaluated + res.candidates_pruned, 202);
        assert!(res.candidates_evaluated >= 2 && res.candidates_pruned > 0);
    }

    #[test]
    fn never_worse_than_either_specialised_solution() {
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        let q = [4.0, 4.0];
        let wn = kevin_julia();
        let res = mqwk(&tree, &q, 3, &wn, 200, 200, &tol, 5).unwrap();
        let mqp_pen = tol.gamma * mqp(&tree, &q, 3, &wn).unwrap().penalty;
        let mwk_pen = tol.lambda * mwk(&tree, &q, 3, &wn, 200, &tol, 5).unwrap().penalty;
        assert!(res.penalty <= mqp_pen + 1e-12);
        assert!(res.penalty <= mwk_pen + 1e-12);
    }

    #[test]
    fn beats_paper_hand_example_penalty() {
        // §4.4's illustrative tuple (q′=(3.8,3.8), …) costs ≈ 0.06;
        // the optimised answer must not be worse.
        let tree = fig_tree();
        let res = mqwk(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            400,
            400,
            &Tolerances::paper_default(),
            23,
        )
        .unwrap();
        assert!(res.penalty <= 0.065, "penalty {}", res.penalty);
        verify(&tree, &res);
    }

    #[test]
    fn zero_query_samples_degenerates_to_best_endpoint() {
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        let res = mqwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 100, 0, &tol, 3).unwrap();
        assert!(matches!(
            res.source,
            RefinementSource::QueryEndpoint | RefinementSource::PreferenceEndpoint
        ));
        verify(&tree, &res);
    }

    #[test]
    fn tolerances_steer_the_compromise() {
        // γ → 1: moving q is expensive for the manufacturer? No — γ is
        // the weight OF the Δq term, so γ = 0.9 penalises query movement
        // and pushes the answer toward preference changes, and vice
        // versa.
        let tree = fig_tree();
        let q = [4.0, 4.0];
        let wn = kevin_julia();
        let heavy_q = Tolerances::new(0.5, 0.5, 0.95, 0.05);
        let light_q = Tolerances::new(0.5, 0.5, 0.05, 0.95);
        let a = mqwk(&tree, &q, 3, &wn, 200, 200, &heavy_q, 1).unwrap();
        let b = mqwk(&tree, &q, 3, &wn, 200, 200, &light_q, 1).unwrap();
        let moved_a = wqrtq_geom::l2_dist(&q, &a.q_prime);
        let moved_b = wqrtq_geom::l2_dist(&q, &b.q_prime);
        assert!(
            moved_a <= moved_b + 1e-9,
            "γ-heavy should move q no more than γ-light ({moved_a} vs {moved_b})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        let a = mqwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 150, 150, &tol, 99).unwrap();
        let b = mqwk(&tree, &[4.0, 4.0], 3, &kevin_julia(), 150, 150, &tol, 99).unwrap();
        assert_eq!(a.penalty, b.penalty);
        assert_eq!(a.q_prime, b.q_prime);
    }

    #[test]
    fn errors_propagate_from_mqp() {
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        assert!(matches!(
            mqwk(&tree, &[4.0, 4.0], 3, &[], 10, 10, &tol, 1),
            Err(WhyNotError::EmptyWhyNot)
        ));
    }
}
