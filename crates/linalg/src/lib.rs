#![warn(missing_docs)]

//! Small dense linear algebra for the WQRTQ quadratic-programming solver.
//!
//! The QP subproblems solved by MQP/MQWK are tiny (the data dimensionality
//! is 2–13 in the paper), so a cache-friendly row-major dense [`Matrix`]
//! with a direct factorisation is both simpler and faster than any sparse
//! machinery:
//!
//! * [`cholesky::Cholesky`] — SPD factorisation used for the reduced KKT
//!   systems of the interior-point method (with diagonal regularisation
//!   fallback for near-singular systems).

pub mod cholesky;
pub mod matrix;

pub use cholesky::Cholesky;
pub use matrix::Matrix;

/// `y ← y + a·x`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Dot product.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Infinity norm (0 for empty slices).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[-7.0, 3.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
