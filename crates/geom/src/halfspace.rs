//! Half-spaces (Definition 8 of the paper).
//!
//! `HS(w, p)` is the set of points scoring no worse than `p` under `w`:
//! all points on or below the score hyperplane `H(w, p)`. The safe region
//! of a query point (Definition 7 / Lemma 3) is the intersection of the
//! half-spaces formed by each why-not weight and its top-k-th point.

use crate::{dot, EPS};

/// The closed half-space `{x : normal·x ≤ offset}`.
#[derive(Clone, Debug, PartialEq)]
pub struct HalfSpace {
    normal: Box<[f64]>,
    offset: f64,
}

impl HalfSpace {
    /// Creates a half-space from its bounding coefficients.
    ///
    /// # Panics
    /// Panics if the normal is empty, non-finite, or the zero vector.
    pub fn new(normal: impl Into<Vec<f64>>, offset: f64) -> Self {
        let normal: Vec<f64> = normal.into();
        assert!(!normal.is_empty(), "normal needs at least one dimension");
        assert!(
            normal.iter().all(|x| x.is_finite()) && offset.is_finite(),
            "half-space coefficients must be finite"
        );
        assert!(
            normal.iter().any(|x| *x != 0.0),
            "normal must not be the zero vector"
        );
        Self {
            normal: normal.into_boxed_slice(),
            offset,
        }
    }

    /// `HS(w, p)` per Definition 8: points whose score under `w` is at
    /// most `f(w, p)`.
    pub fn below_score_plane(w: &[f64], p: &[f64]) -> Self {
        Self::new(w.to_vec(), dot(w, p))
    }

    /// Normal vector (points *out* of the half-space).
    #[inline]
    pub fn normal(&self) -> &[f64] {
        &self.normal
    }

    /// Offset term.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Dimensionality of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.normal.len()
    }

    /// Signed slack `offset − normal·x` (non-negative inside).
    #[inline]
    pub fn slack(&self, x: &[f64]) -> f64 {
        self.offset - dot(&self.normal, x)
    }

    /// Membership test with the crate default tolerance.
    #[inline]
    pub fn contains(&self, x: &[f64]) -> bool {
        self.slack(x) >= -EPS
    }

    /// Membership test with an explicit tolerance.
    #[inline]
    pub fn contains_with_tol(&self, x: &[f64], tol: f64) -> bool {
        self.slack(x) >= -tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_8_half_space_contains_better_scoring_points() {
        // HS(w2, p3) from Figure 5(a): w2=(0.5,0.5), p3=(1,9), threshold 5.
        let hs = HalfSpace::below_score_plane(&[0.5, 0.5], &[1.0, 9.0]);
        assert!(hs.contains(&[2.0, 1.0])); // p1 scores 1.5 ≤ 5
        assert!(hs.contains(&[3.0, 7.0])); // p7 scores 5 (boundary)
        assert!(!hs.contains(&[7.0, 5.0])); // p5 scores 6 > 5
    }

    #[test]
    fn slack_signs() {
        let hs = HalfSpace::new(vec![1.0, 0.0], 3.0);
        assert_eq!(hs.slack(&[1.0, 100.0]), 2.0);
        assert_eq!(hs.slack(&[5.0, 0.0]), -2.0);
        assert!(hs.contains(&[3.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn zero_normal_panics() {
        let _ = HalfSpace::new(vec![0.0], 1.0);
    }
}
