//! Weighting vectors and the linear scoring function.
//!
//! A weighting vector `w` assigns each dimension a relative importance:
//! `w[i] ≥ 0` and `Σ w[i] = 1` (the paper's Section 3). The score of a point
//! under `w` is the weighted sum `f(w, p) = Σ w[i]·p[i]`, and smaller scores
//! rank higher.

use crate::{dot, EPS};
use std::fmt;
use std::ops::Deref;

/// Why a vector is not a [`Weight`] (see [`Weight::try_new`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightError {
    /// The vector has no entries.
    Empty,
    /// An entry is NaN, infinite, or negative.
    BadEntry,
    /// The entries sum to this value instead of 1.
    BadSum(f64),
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::Empty => write!(f, "a weight needs at least one dimension"),
            WeightError::BadEntry => write!(f, "weight entries must be finite and non-negative"),
            WeightError::BadSum(sum) => write!(f, "weight entries must sum to 1 (got {sum})"),
        }
    }
}

impl std::error::Error for WeightError {}

/// A preference vector on the standard simplex.
///
/// Invariants enforced at construction: every entry is finite and
/// non-negative and the entries sum to one (after [`Weight::normalized`]
/// construction, up to floating-point tolerance).
#[derive(Clone, PartialEq)]
pub struct Weight {
    w: Box<[f64]>,
}

impl Weight {
    /// Creates a weighting vector, validating the simplex invariants.
    ///
    /// # Panics
    /// Panics where [`Weight::try_new`] returns an error.
    pub fn new(w: impl Into<Vec<f64>>) -> Self {
        Self::try_new(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a weighting vector from untrusted input, checked with
    /// [`Weight::check`].
    ///
    /// # Errors
    /// [`WeightError`] where [`Weight::check`] returns one.
    pub fn try_new(w: impl Into<Vec<f64>>) -> Result<Self, WeightError> {
        let w: Vec<f64> = w.into();
        Self::check(&w)?;
        Ok(Self {
            w: w.into_boxed_slice(),
        })
    }

    /// The one place the simplex invariants are checked, on a borrowed
    /// vector: what [`Weight::try_new`] accepts.
    ///
    /// # Errors
    /// [`WeightError`] if `w` is empty, has a non-finite entry or one
    /// below `-EPS`, or does not sum to 1 within `1e-6`.
    pub fn check(w: &[f64]) -> Result<(), WeightError> {
        if w.is_empty() {
            return Err(WeightError::Empty);
        }
        if !w.iter().all(|x| x.is_finite() && *x >= -EPS) {
            return Err(WeightError::BadEntry);
        }
        let sum: f64 = w.iter().sum();
        if (sum - 1.0).abs() >= 1e-6 {
            return Err(WeightError::BadSum(sum));
        }
        Ok(())
    }

    /// Creates a weighting vector by normalising arbitrary non-negative
    /// values to sum to one.
    ///
    /// # Panics
    /// Panics if `raw` is empty, has a negative/non-finite entry, or sums
    /// to zero.
    pub fn normalized(raw: impl Into<Vec<f64>>) -> Self {
        let mut raw: Vec<f64> = raw.into();
        assert!(!raw.is_empty(), "a weight needs at least one dimension");
        assert!(
            raw.iter().all(|x| x.is_finite() && *x >= 0.0),
            "weight entries must be finite and non-negative"
        );
        let sum: f64 = raw.iter().sum();
        assert!(sum > 0.0, "weight entries must not all be zero");
        for x in &mut raw {
            *x /= sum;
        }
        Self {
            w: raw.into_boxed_slice(),
        }
    }

    /// The uniform weight `(1/d, …, 1/d)`.
    pub fn uniform(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            w: vec![1.0 / dim as f64; dim].into_boxed_slice(),
        }
    }

    /// A two-dimensional weight `(x, 1−x)`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ x ≤ 1`.
    pub fn from_first_2d(x: f64) -> Self {
        assert!((0.0..=1.0).contains(&x), "x must lie in [0, 1]");
        Self::new(vec![x, 1.0 - x])
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.w
    }

    /// Linear score `f(w, p) = Σ w[i]·p[i]` (smaller is better).
    ///
    /// # Panics
    /// Panics if `p` has a different dimensionality.
    #[inline]
    pub fn score(&self, p: &[f64]) -> f64 {
        dot(&self.w, p)
    }

    /// Euclidean distance `‖w − other‖₂` between two weighting vectors.
    /// This is the per-vector penalty term of Equation (3).
    #[inline]
    pub fn distance(&self, other: &Weight) -> f64 {
        crate::l2_dist(&self.w, &other.w)
    }

    /// Consumes the weight, returning its entries.
    pub fn into_vec(self) -> Vec<f64> {
        self.w.into_vec()
    }
}

impl Deref for Weight {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.w
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Weight{:?}", self.w)
    }
}

/// Free-function form of the linear scoring function, usable with raw
/// slices (hot paths that avoid the [`Weight`] wrapper).
#[inline]
pub fn score(w: &[f64], p: &[f64]) -> f64 {
    dot(w, p)
}

/// Maximum possible Euclidean distance between two points on the standard
/// simplex: `√2`, attained by two distinct unit vectors. Used as the
/// `ΔWm_max` normaliser of Equation (4); see DESIGN.md for the calibration
/// against the paper's worked examples.
pub const MAX_SIMPLEX_DISTANCE: f64 = std::f64::consts::SQRT_2;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_accepts_simplex_vector() {
        let w = Weight::new(vec![0.3, 0.7]);
        assert_eq!(w.dim(), 2);
        assert_eq!(w.as_slice(), &[0.3, 0.7]);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn new_rejects_bad_sum() {
        let _ = Weight::new(vec![0.5, 0.2]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn new_rejects_negative() {
        let _ = Weight::new(vec![1.5, -0.5]);
    }

    #[test]
    fn normalized_scales_entries() {
        let w = Weight::normalized(vec![2.0, 6.0]);
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn normalized_rejects_zero_vector() {
        let _ = Weight::normalized(vec![0.0, 0.0]);
    }

    #[test]
    fn uniform_weight() {
        let w = Weight::uniform(4);
        assert!(w.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn scores_match_paper_figure_1c() {
        // Figure 1: f(w, p) = w[price]·price + w[heat]·heat, with
        // Kevin = (0.1, 0.9), Julia = (0.9, 0.1).
        let kevin = Weight::new(vec![0.1, 0.9]);
        let julia = Weight::new(vec![0.9, 0.1]);
        let p1 = [2.0, 1.0]; // Dell: price 2, heat 1
        let p3 = [1.0, 9.0]; // HP
        let q = [4.0, 4.0]; // Apple
        assert!((kevin.score(&p1) - 1.1).abs() < 1e-12);
        assert!((kevin.score(&p3) - 8.2).abs() < 1e-12);
        assert!((kevin.score(&q) - 4.0).abs() < 1e-12);
        assert!((julia.score(&p1) - 1.9).abs() < 1e-12);
        assert!((julia.score(&p3) - 1.8).abs() < 1e-12);
        assert!((julia.score(&q) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Weight::new(vec![0.1, 0.9]);
        let b = Weight::new(vec![0.18, 0.82]);
        // Paper §4.3 example: ‖(0.08, −0.08)‖ = 0.08·√2.
        assert!((a.distance(&b) - 0.08 * std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn from_first_2d_endpoints() {
        assert_eq!(Weight::from_first_2d(0.0).as_slice(), &[0.0, 1.0]);
        assert_eq!(Weight::from_first_2d(1.0).as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn max_simplex_distance_is_attained_by_unit_vectors() {
        let a = Weight::new(vec![1.0, 0.0]);
        let b = Weight::new(vec![0.0, 1.0]);
        assert!((a.distance(&b) - MAX_SIMPLEX_DISTANCE).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn normalized_always_on_simplex(
            raw in proptest::collection::vec(0.01f64..10.0, 1..8)
        ) {
            let w = Weight::normalized(raw);
            let sum: f64 = w.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|&x| x >= 0.0));
        }

        #[test]
        fn simplex_distance_never_exceeds_sqrt2(
            (a, b) in (2usize..8).prop_flat_map(|d| (
                proptest::collection::vec(0.01f64..10.0, d),
                proptest::collection::vec(0.01f64..10.0, d),
            )),
        ) {
            let wa = Weight::normalized(a);
            let wb = Weight::normalized(b);
            prop_assert!(wa.distance(&wb) <= MAX_SIMPLEX_DISTANCE + 1e-12);
        }

        #[test]
        fn score_is_monotone_in_coordinates(
            raw in proptest::collection::vec(0.01f64..10.0, 3),
            p in proptest::collection::vec(0.0f64..100.0, 3),
            bump in 0.0f64..10.0,
            idx in 0usize..3,
        ) {
            let w = Weight::normalized(raw);
            let mut worse = p.clone();
            worse[idx] += bump;
            prop_assert!(w.score(&worse) >= w.score(&p));
        }
    }
}
