//! The separate-refinement strawman of the paper's §3.
//!
//! "A straightforward way to tackle our problem is to take q as a why-not
//! point … and then use the algorithms for why-not questions on top-k
//! queries to refine the query [one vector at a time]. Nevertheless,
//! although the penalty of each refining is minimized, the total penalty
//! of this method might not be the minimum."
//!
//! This module implements that strawman — refine every why-not vector
//! independently, then combine — so the claim can be tested and measured
//! (`ablation_joint_vs_separate`). The joint MWK sees candidates the
//! separate runs cannot (sharing `k′` across vectors), so its penalty is
//! never worse given the same sample budget per vector.

use crate::error::WhyNotError;
use crate::incomparable::DominanceFrontier;
use crate::mwk::{mwk_with_frontier, Budget, MwkResult};
use crate::penalty::{preference_penalty, Tolerances};
use wqrtq_geom::Weight;
use wqrtq_rtree::RTree;

/// Refines each why-not vector independently (each with its own optimal
/// `(wᵢ′, kᵢ′)`), then combines them with `k′ = max kᵢ′` and reports the
/// *joint* penalty of the combination under Eq. (4).
pub fn separate_refinement(
    tree: &RTree,
    q: &[f64],
    k: usize,
    why_not: &[Weight],
    sample_size: usize,
    tol: &Tolerances,
    seed: u64,
) -> Result<MwkResult, WhyNotError> {
    if why_not.is_empty() {
        return Err(WhyNotError::EmptyWhyNot);
    }
    if q.len() != tree.dim() {
        return Err(WhyNotError::DimensionMismatch {
            expected: tree.dim(),
            got: q.len(),
        });
    }
    let frontier = DominanceFrontier::new(tree, q);

    let mut refined = Vec::with_capacity(why_not.len());
    let mut k_prime = k;
    let mut ranks = Vec::with_capacity(why_not.len());
    let mut candidates = 0;
    for (i, w) in why_not.iter().enumerate() {
        let single = std::slice::from_ref(w);
        let res = mwk_with_frontier(
            &frontier,
            k,
            single,
            sample_size,
            tol,
            seed.wrapping_add(i as u64),
            &Budget::UNBOUNDED,
        );
        refined.push(res.refined[0].clone());
        k_prime = k_prime.max(res.k_prime);
        ranks.push(res.actual_ranks[0]);
        candidates += res.candidates_examined;
    }
    let k_max = ranks.iter().copied().max().expect("non-empty");
    // Joint penalty of the combined tuple (what the user actually pays).
    let penalty = preference_penalty(tol, why_not, &refined, k, k_prime, k_max.max(k_prime));
    Ok(MwkResult {
        refined,
        k_prime,
        penalty,
        k_max,
        actual_ranks: ranks,
        candidates_examined: candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwk::mwk;
    use wqrtq_query::rank::rank_of_point;

    fn fig_tree() -> RTree {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        RTree::bulk_load(2, &pts)
    }

    fn kevin_julia() -> Vec<Weight> {
        vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])]
    }

    #[test]
    fn separate_answer_is_still_valid() {
        let tree = fig_tree();
        let res = separate_refinement(
            &tree,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            300,
            &Tolerances::paper_default(),
            7,
        )
        .unwrap();
        for w in &res.refined {
            let r = rank_of_point(&tree, w, &[4.0, 4.0]);
            assert!(r <= res.k_prime, "rank {r} > k′ {}", res.k_prime);
        }
    }

    #[test]
    fn joint_mwk_no_worse_than_separate() {
        // The paper's §3 claim, on the running example with a shared
        // deterministic sample budget.
        let tree = fig_tree();
        let tol = Tolerances::paper_default();
        let q = [4.0, 4.0];
        let wn = kevin_julia();
        for seed in [1u64, 7, 13, 42] {
            let joint = mwk(&tree, &q, 3, &wn, 300, &tol, seed).unwrap();
            let separate = separate_refinement(&tree, &q, 3, &wn, 300, &tol, seed).unwrap();
            assert!(
                joint.penalty <= separate.penalty + 1e-9,
                "seed {seed}: joint {} > separate {}",
                joint.penalty,
                separate.penalty
            );
        }
    }

    #[test]
    fn empty_set_rejected() {
        let tree = fig_tree();
        assert!(matches!(
            separate_refinement(
                &tree,
                &[4.0, 4.0],
                3,
                &[],
                10,
                &Tolerances::paper_default(),
                1
            ),
            Err(WhyNotError::EmptyWhyNot)
        ));
    }
}
