//! MQP — Modifying the Query Point (Algorithm 1 of the paper).
//!
//! For every why-not weighting vector `wᵢ` the branch-and-bound top-k
//! search finds its top-k-th point `pᵢ`; by Lemmas 2–3, any `q′` with
//! `f(wᵢ, q′) ≤ f(wᵢ, pᵢ)` for all `i` (and `0 ≤ q′ ≤ q`) makes every
//! why-not vector appear in the refined reverse top-k result. The optimal
//! `q′` (minimum `‖q − q′‖`, Eq. 1) is found with interior-point
//! quadratic programming rather than by materialising the safe region,
//! which would not scale with dimensionality (§4.2).

use crate::error::WhyNotError;
use crate::penalty::{check_query_point, query_point_penalty};
use crate::safe_region::SafeRegion;
use wqrtq_geom::Weight;
use wqrtq_qp::{solve, QpProblem};
use wqrtq_query::Snapshot;

/// Result of the MQP refinement.
#[derive(Clone, Debug)]
pub struct MqpResult {
    /// The refined query point `q′` (inside the safe region).
    pub q_prime: Vec<f64>,
    /// Its penalty `‖q − q′‖ / ‖q‖` (Eq. 1).
    pub penalty: f64,
    /// Interior-point iterations spent in the QP solve.
    pub qp_iterations: u32,
    /// The score thresholds `f(wᵢ, pᵢ)` used as constraints.
    pub thresholds: Vec<f64>,
}

/// Runs MQP: returns the minimum-penalty refined query point. Over a
/// snapshot with an overlay the safe region's constraints come from the
/// merged live ranking, so the refined point is the one a rebuilt
/// dataset would produce.
///
/// Assumes non-negative data coordinates (true for all paper datasets),
/// under which `q′ = 0` is always feasible and the QP can never be
/// infeasible.
///
/// # Errors
/// [`WhyNotError::ZeroQueryPoint`] when `‖q‖` is not positive (Eq. 1
/// divides by it), [`WhyNotError::QueryPointOverflow`] when `q · q` is
/// not finite, and what [`SafeRegion::build`] returns.
pub fn mqp<'a>(
    snap: impl Into<Snapshot<'a>>,
    q: &[f64],
    k: usize,
    why_not: &[Weight],
) -> Result<MqpResult, WhyNotError> {
    let snap = snap.into();
    if q.len() != snap.dim() {
        return Err(WhyNotError::DimensionMismatch {
            expected: snap.dim(),
            got: q.len(),
        });
    }
    check_query_point(q)?;
    // Phase 1: top-k-th point per why-not vector (Algorithm 1, lines 1–12)
    // — shared with the safe-region constructor.
    let region = SafeRegion::build(snap, q, k, why_not)?;
    optimise_over(region, q, why_not)
}

/// Phase 2 of Algorithm 1: optimise `‖q − q′‖` over a built safe region.
fn optimise_over(
    region: SafeRegion,
    q: &[f64],
    why_not: &[Weight],
) -> Result<MqpResult, WhyNotError> {
    // Fast path: q already safe (every vector already admits it).
    if region.contains(q) {
        return Ok(MqpResult {
            q_prime: q.to_vec(),
            penalty: 0.0,
            qp_iterations: 0,
            thresholds: region.thresholds().to_vec(),
        });
    }

    // Phase 2: quadratic programming (lines 13–14).
    let mut problem = QpProblem::least_change(q);
    for (w, &rhs) in why_not.iter().zip(region.thresholds()) {
        problem.add_inequality(w.as_slice().to_vec(), rhs);
    }
    problem.set_bounds(vec![0.0; q.len()], q.to_vec());
    let sol = solve(&problem).map_err(|e| WhyNotError::QpFailure(e.to_string()))?;

    // Clamp infinitesimal constraint slack from the interior-point method
    // back onto the box, and snap coordinates that converged to the lower
    // bound exactly onto it: interior-point iterates stop ~1e-12 short of
    // the boundary, but rank ties at the k-th score are decided by exact
    // comparison, so a q′ hovering above a score-0 tie group would stay
    // outranked by it (degenerate workloads where the k-th threshold is
    // exactly zero). Snapping down can only decrease scores, so the ≤
    // constraints stay satisfied.
    let q_prime: Vec<f64> = sol
        .x
        .iter()
        .zip(q)
        .map(|(xi, qi)| {
            let x = xi.clamp(0.0, *qi);
            if x < 1e-9 * qi.max(1.0) {
                0.0
            } else {
                x
            }
        })
        .collect();

    Ok(MqpResult {
        penalty: query_point_penalty(q, &q_prime),
        q_prime,
        qp_iterations: sol.iterations,
        thresholds: region.thresholds().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_query::{is_in_topk, ProbeCtx};
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

    #[test]
    fn paper_example_refinement_is_analytic_optimum() {
        let res = mqp(&fig_tree(), &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        // Geometric optimum (both constraints active): (3.375, 3.625).
        assert!((res.q_prime[0] - 3.375).abs() < 1e-5, "{:?}", res.q_prime);
        assert!((res.q_prime[1] - 3.625).abs() < 1e-5, "{:?}", res.q_prime);
        let expected_penalty = (0.625f64.powi(2) + 0.375f64.powi(2)).sqrt() / 32f64.sqrt();
        assert!((res.penalty - expected_penalty).abs() < 1e-5);
        assert!(res.qp_iterations > 0);
    }

    #[test]
    fn refined_point_satisfies_reverse_topk_membership() {
        let tree = fig_tree();
        let res = mqp(&tree, &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        for w in kevin_julia() {
            assert!(
                is_in_topk(&tree, &w, &res.q_prime, 3, &mut ProbeCtx::new()),
                "refined q′ {:?} must be in top-3 of {w:?}",
                res.q_prime
            );
        }
    }

    #[test]
    fn mqp_beats_paper_hand_examples() {
        // The optimum must cost no more than the paper's illustrative
        // refinements q′=(3,2.5) (0.318) and q″=(2.5,3.5) (0.279).
        let res = mqp(&fig_tree(), &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        assert!(res.penalty < 0.279);
    }

    #[test]
    fn agrees_with_exact_2d_geometry() {
        let tree = fig_tree();
        let wn = kevin_julia();
        let q = [4.0, 4.0];
        let res = mqp(&tree, &q, 3, &wn).unwrap();
        let sr = SafeRegion::build(&tree, &q, 3, &wn).unwrap();
        let exact = sr.closest_point_2d().unwrap();
        assert!((res.q_prime[0] - exact[0]).abs() < 1e-5);
        assert!((res.q_prime[1] - exact[1]).abs() < 1e-5);
    }

    #[test]
    fn already_satisfied_query_needs_no_change() {
        // Tony and Anna already contain q: MQP is a no-op with penalty 0.
        let tree = fig_tree();
        let members = vec![Weight::new(vec![0.5, 0.5]), Weight::new(vec![0.3, 0.7])];
        let res = mqp(&tree, &[4.0, 4.0], 3, &members).unwrap();
        assert_eq!(res.q_prime, vec![4.0, 4.0]);
        assert_eq!(res.penalty, 0.0);
        assert_eq!(res.qp_iterations, 0);
    }

    #[test]
    fn single_why_not_vector() {
        let tree = fig_tree();
        let kevin = vec![Weight::new(vec![0.1, 0.9])];
        let res = mqp(&tree, &[4.0, 4.0], 3, &kevin).unwrap();
        assert!(is_in_topk(
            &tree,
            &kevin[0],
            &res.q_prime,
            3,
            &mut ProbeCtx::new()
        ));
        // Only Kevin's constraint binds: q′ should sit on H(w1, p4).
        let s = 0.1 * res.q_prime[0] + 0.9 * res.q_prime[1];
        assert!(s <= 3.6 + 1e-6, "score {s}");
    }

    #[test]
    fn errors_propagate() {
        let tree = fig_tree();
        assert!(matches!(
            mqp(&tree, &[4.0, 4.0], 3, &[]),
            Err(WhyNotError::EmptyWhyNot)
        ));
        assert!(matches!(
            mqp(&tree, &[4.0], 3, &kevin_julia()),
            Err(WhyNotError::DimensionMismatch { .. })
        ));
        for origin in [[0.0, 0.0], [-0.0, 0.0]] {
            assert_eq!(
                mqp(&tree, &origin, 3, &kevin_julia()).unwrap_err(),
                WhyNotError::ZeroQueryPoint
            );
        }
    }

    #[test]
    fn three_dimensional_case() {
        // 3-D grid; q deliberately deep in the ranking for w.
        let mut pts = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                for z in 0..6 {
                    pts.extend([x as f64, y as f64, z as f64]);
                }
            }
        }
        let tree = RTree::bulk_load(3, &pts);
        let q = [5.0, 5.0, 5.0];
        let wn = vec![
            Weight::new(vec![0.2, 0.3, 0.5]),
            Weight::new(vec![0.6, 0.2, 0.2]),
        ];
        let res = mqp(&tree, &q, 5, &wn).unwrap();
        for w in &wn {
            assert!(is_in_topk(&tree, w, &res.q_prime, 5, &mut ProbeCtx::new()));
        }
        assert!(res.penalty > 0.0 && res.penalty <= 1.0);
    }
}
