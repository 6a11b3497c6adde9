#![warn(missing_docs)]

//! Geometric primitives for reverse top-k query processing.
//!
//! This crate provides the vocabulary types shared by every other WQRTQ
//! crate:
//!
//! * [`Point`] — a d-dimensional data point (a product, a tuple).
//! * [`Weight`] — a preference/weighting vector on the standard simplex
//!   (non-negative entries summing to one), with the linear scoring
//!   function `f(w, p) = Σ w[i]·p[i]` of the paper (smaller is better).
//! * Dominance tests ([`dominates`], [`dominance`]) used by `FindIncom`.
//! * [`Mbr`] — minimum bounding rectangles with score bounds under a
//!   weighting vector (the branch-and-bound pruning primitive).
//! * [`FlatPoints`] — a column-major (SoA) point store with fused,
//!   auto-vectorizable, exact score kernels for the flat-scan hot paths.
//! * [`QuantizedPoints`] — a `FlatPoints` with a Morton-clustered `f32`
//!   pre-pass that decides most blocks cheaply; MQWK's frontier is its
//!   one reader.
//! * [`DeltaView`] — a *base + delta − tombstones* snapshot of a mutated
//!   dataset whose rank kernels fuse the base scan with `O(Δ)` overlay
//!   corrections, so appends and deletes serve without a rebuild.
//! * [`Hyperplane`] / [`HalfSpace`] — the building blocks of safe regions
//!   (Definition 7 of the paper) and of the MWK sampling space.
//! * [`Polygon2d`] — exact half-space intersection in two dimensions, used
//!   to validate the quadratic-programming answer of MQP geometrically.

pub mod delta;
pub mod flat;
pub mod halfspace;
pub mod hyperplane;
pub mod mbr;
pub mod point;
pub mod poly2d;
pub mod quantized;
pub mod weight;

pub use delta::DeltaView;
pub use flat::{count_better_rows, FlatPoints};
pub use halfspace::HalfSpace;
pub use hyperplane::Hyperplane;
pub use mbr::Mbr;
pub use point::{dominance, dominates, incomparable, Dominance, Point};
pub use poly2d::Polygon2d;
pub use quantized::QuantizedPoints;
pub use weight::{score, Weight, WeightError};

/// Absolute tolerance used for geometric predicates throughout the
/// workspace. Data coordinates are expected to be O(1)–O(10⁴); 1e-9 keeps
/// predicates stable without masking real differences.
pub const EPS: f64 = 1e-9;

/// Euclidean norm of a slice.
#[inline]
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Euclidean distance between two slices of equal length.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Dot product of two slices of equal length.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_norm_basics() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm(&[]), 0.0);
        assert_eq!(l2_norm(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn l2_dist_basics() {
        assert_eq!(l2_dist(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
        assert_eq!(l2_dist(&[2.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn l2_dist_dimension_mismatch_panics() {
        let _ = l2_dist(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
