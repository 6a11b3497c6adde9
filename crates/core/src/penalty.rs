//! Penalty models — Equations (1), (3), (4) and (5) of the paper.
//!
//! * Modifying the query point: `Δq = ‖q − q′‖₂ / ‖q‖₂` (Eq. 1),
//!   calibrated against the paper's example (q=(4,4): q′=(3,2.5) → 0.318,
//!   q″=(2.5,3.5) → 0.279).
//! * Modifying preferences: `Penalty(Wm′, k′) = α·Δk/Δkmax +
//!   β·ΔWm/ΔWm_max` (Eq. 4) with `Δk = max(0, k′−k)`,
//!   `Δkmax = k′max − k` (Lemma 4) and `ΔWm_max = √2` (see DESIGN.md for
//!   the calibration of this constant against the paper's Eq.-5 example).
//! * Modifying everything: `Penalty(q′, Wm′, k′) = γ·Δq + λ·Penalty(Wm′,
//!   k′)` (Eq. 5).

use wqrtq_geom::weight::MAX_SIMPLEX_DISTANCE;
use wqrtq_geom::{l2_dist, l2_norm, Weight};

/// User tolerances: `α + β = 1` weights `Δk` against `ΔWm` (Eq. 4);
/// `γ + λ = 1` weights the manufacturer's change against the customers'
/// (Eq. 5). The paper's experiments fix all four to 0.5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerances {
    /// Weight of the `Δk` term in Eq. (4).
    pub alpha: f64,
    /// Weight of the `ΔWm` term in Eq. (4).
    pub beta: f64,
    /// Weight of the `Δq` term in Eq. (5).
    pub gamma: f64,
    /// Weight of the preference term in Eq. (5).
    pub lambda: f64,
}

impl Tolerances {
    /// Creates tolerances, validating both convexity constraints.
    ///
    /// # Panics
    /// Panics unless `α, β, γ, λ ≥ 0`, `α + β = 1` and `γ + λ = 1`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, lambda: f64) -> Self {
        assert!(
            alpha >= 0.0 && beta >= 0.0 && gamma >= 0.0 && lambda >= 0.0,
            "tolerances must be non-negative"
        );
        assert!((alpha + beta - 1.0).abs() < 1e-9, "α + β must equal 1");
        assert!((gamma + lambda - 1.0).abs() < 1e-9, "γ + λ must equal 1");
        Self {
            alpha,
            beta,
            gamma,
            lambda,
        }
    }

    /// The paper's experimental setting: α = β = γ = λ = 0.5.
    pub fn paper_default() -> Self {
        Self::new(0.5, 0.5, 0.5, 0.5)
    }
}

impl Default for Tolerances {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Whether Eq. 1 can price a move of `q`: `‖q‖` is positive (not zero,
/// not NaN).
pub(crate) fn has_positive_norm(q: &[f64]) -> bool {
    l2_norm(q) > 0.0
}

/// Equation (1): normalised modification of the query point,
/// `‖q − q′‖₂ / ‖q‖₂`.
///
/// # Panics
/// Panics on dimension mismatch or a zero-norm original query point.
pub fn query_point_penalty(q: &[f64], q_prime: &[f64]) -> f64 {
    assert!(
        has_positive_norm(q),
        "original query point must have positive norm"
    );
    l2_dist(q, q_prime) / l2_norm(q)
}

/// Equation (3), vector part: `ΔWm = Σᵢ ‖wᵢ − wᵢ′‖₂`.
///
/// # Panics
/// Panics if the two sets have different sizes.
pub fn delta_wm(original: &[Weight], refined: &[Weight]) -> f64 {
    assert_eq!(original.len(), refined.len(), "why-not set size mismatch");
    original
        .iter()
        .zip(refined)
        .map(|(a, b)| a.distance(b))
        .sum()
}

/// Equation (4): normalised penalty of modifying `(Wm, k)`.
///
/// `k_max` is `k′max` from Lemma 4 (the worst actual rank of `q` under
/// the original why-not vectors); when `k_max ≤ k` the `Δk` term is
/// defined as zero (nothing to normalise against).
pub fn preference_penalty(
    tol: &Tolerances,
    original: &[Weight],
    refined: &[Weight],
    k: usize,
    k_prime: usize,
    k_max: usize,
) -> f64 {
    eq4(tol, k, k_prime, k_max, delta_wm(original, refined))
}

/// Equation (4) from `ΔWm` itself. Non-decreasing in `k_prime` and in
/// `delta_wm` under IEEE rounding, which is what lets MWK bound a
/// candidate from below with the very expression that will price it.
pub(crate) fn eq4(tol: &Tolerances, k: usize, k_prime: usize, k_max: usize, delta_wm: f64) -> f64 {
    let dk = k_prime.saturating_sub(k) as f64;
    let dk_max = k_max.saturating_sub(k) as f64;
    let k_term = if dk_max > 0.0 { dk / dk_max } else { 0.0 };
    let w_term = delta_wm / MAX_SIMPLEX_DISTANCE;
    tol.alpha * k_term + tol.beta * w_term
}

/// Equation (5): combined penalty of modifying `q`, `Wm` and `k`.
#[allow(clippy::too_many_arguments)] // mirrors the equation's term list
pub fn combined_penalty(
    tol: &Tolerances,
    q: &[f64],
    q_prime: &[f64],
    original: &[Weight],
    refined: &[Weight],
    k: usize,
    k_prime: usize,
    k_max: usize,
) -> f64 {
    tol.gamma * query_point_penalty(q, q_prime)
        + tol.lambda * preference_penalty(tol, original, refined, k, k_prime, k_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_paper_examples() {
        // §4.2: Penalty(q′=(3,2.5)) = 0.318, Penalty(q″=(2.5,3.5)) = 0.279.
        let q = [4.0, 4.0];
        assert!((query_point_penalty(&q, &[3.0, 2.5]) - 0.3186887).abs() < 1e-4);
        assert!((query_point_penalty(&q, &[2.5, 3.5]) - 0.2795085).abs() < 1e-4);
        assert_eq!(query_point_penalty(&q, &q), 0.0);
    }

    #[test]
    fn eq4_k_only_modification_matches_paper() {
        // §4.3: modifying k from 3 to 4 with vectors unchanged costs 0.5
        // (α = 0.5, Δk = Δkmax = 1).
        let tol = Tolerances::paper_default();
        let wm = vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])];
        let p = preference_penalty(&tol, &wm, &wm, 3, 4, 4);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eq4_weight_modification_close_to_paper() {
        // §4.3: Kevin → (0.18, 0.82), Julia → (0.75, 0.25), k unchanged.
        // The paper prints 0.121 for its (rounded) example vectors; the
        // formula with ΔWm_max = √2 gives 0.115 on those exact values.
        let tol = Tolerances::paper_default();
        let wm = vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])];
        let refined = vec![Weight::new(vec![0.18, 0.82]), Weight::new(vec![0.75, 0.25])];
        let p = preference_penalty(&tol, &wm, &refined, 3, 3, 4);
        assert!((p - 0.115).abs() < 5e-3, "penalty = {p}");
    }

    #[test]
    fn eq5_matches_paper_example() {
        // §4.4: q → (3.8, 3.8), Kevin → (0.135, 0.865), Julia → (0.8, 0.2)
        // gives penalty ≈ 0.06 with γ = λ = 0.5.
        let tol = Tolerances::paper_default();
        let wm = vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])];
        let refined = vec![Weight::new(vec![0.135, 0.865]), Weight::new(vec![0.8, 0.2])];
        let p = combined_penalty(&tol, &[4.0, 4.0], &[3.8, 3.8], &wm, &refined, 3, 3, 4);
        assert!((p - 0.06).abs() < 5e-3, "penalty = {p}");
    }

    #[test]
    fn k_decrease_is_free() {
        let tol = Tolerances::paper_default();
        let wm = vec![Weight::new(vec![0.5, 0.5])];
        // k′ < k: Δk clamps to zero.
        let p = preference_penalty(&tol, &wm, &wm, 6, 3, 10);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn degenerate_k_max_guard() {
        let tol = Tolerances::paper_default();
        let wm = vec![Weight::new(vec![0.5, 0.5])];
        // k_max == k: the Δk term must not divide by zero.
        let p = preference_penalty(&tol, &wm, &wm, 5, 5, 5);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn tolerances_validation() {
        let t = Tolerances::new(0.3, 0.7, 0.9, 0.1);
        assert_eq!(t.alpha, 0.3);
        assert_eq!(Tolerances::default(), Tolerances::paper_default());
    }

    #[test]
    #[should_panic(expected = "α + β")]
    fn tolerances_reject_bad_alpha_beta() {
        let _ = Tolerances::new(0.3, 0.6, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "γ + λ")]
    fn tolerances_reject_bad_gamma_lambda() {
        let _ = Tolerances::new(0.5, 0.5, 0.2, 0.3);
    }

    #[test]
    fn delta_wm_sums_vector_distances() {
        let a = vec![Weight::new(vec![1.0, 0.0]), Weight::new(vec![0.0, 1.0])];
        let b = vec![Weight::new(vec![0.0, 1.0]), Weight::new(vec![0.0, 1.0])];
        assert!((delta_wm(&a, &b) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
