//! QP problem construction and validation.

use wqrtq_linalg::Matrix;

/// A convex quadratic program
/// `min ½xᵀHx + cᵀx  s.t.  Gx ≤ h,  lb ≤ x ≤ ub`.
///
/// Box bounds are kept separate from general inequalities so callers can
/// express the paper's `0 ≤ q′ ≤ q` range directly; the solver folds them
/// into the constraint set internally.
#[derive(Clone, Debug)]
pub struct QpProblem {
    h: Matrix,
    c: Vec<f64>,
    g_rows: Vec<Vec<f64>>,
    g_rhs: Vec<f64>,
    lb: Option<Vec<f64>>,
    ub: Option<Vec<f64>>,
}

impl QpProblem {
    /// Creates a problem with objective `½xᵀHx + cᵀx`.
    ///
    /// # Panics
    /// Panics if `H` is not square, does not match `c`, or is asymmetric.
    pub fn new(h: Matrix, c: Vec<f64>) -> Self {
        assert_eq!(h.rows(), h.cols(), "H must be square");
        assert_eq!(h.rows(), c.len(), "H and c dimension mismatch");
        for i in 0..h.rows() {
            for j in (i + 1)..h.cols() {
                assert!((h[(i, j)] - h[(j, i)]).abs() < 1e-9, "H must be symmetric");
            }
        }
        Self {
            h,
            c,
            g_rows: Vec::new(),
            g_rhs: Vec::new(),
            lb: None,
            ub: None,
        }
    }

    /// The paper's MQP objective: minimise `‖x − target‖²` (H = 2I,
    /// c = −2·target as in §4.2).
    pub fn least_change(target: &[f64]) -> Self {
        let n = target.len();
        assert!(n > 0, "target must be non-empty");
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            h[(i, i)] = 2.0;
        }
        let c = target.iter().map(|t| -2.0 * t).collect();
        Self::new(h, c)
    }

    /// Adds a linear inequality `row·x ≤ rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-finite coefficients.
    pub fn add_inequality(&mut self, row: Vec<f64>, rhs: f64) -> &mut Self {
        assert_eq!(row.len(), self.dim(), "constraint dimension mismatch");
        assert!(
            row.iter().all(|v| v.is_finite()) && rhs.is_finite(),
            "constraint coefficients must be finite"
        );
        self.g_rows.push(row);
        self.g_rhs.push(rhs);
        self
    }

    /// Sets the box `lb ≤ x ≤ ub`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if any `lb[i] > ub[i]`.
    pub fn set_bounds(&mut self, lb: Vec<f64>, ub: Vec<f64>) -> &mut Self {
        assert_eq!(lb.len(), self.dim(), "lb dimension mismatch");
        assert_eq!(ub.len(), self.dim(), "ub dimension mismatch");
        assert!(
            lb.iter().zip(&ub).all(|(l, u)| l <= u),
            "lb must not exceed ub"
        );
        self.lb = Some(lb);
        self.ub = Some(ub);
        self
    }

    /// Number of decision variables.
    #[inline]
    pub fn dim(&self) -> usize {
        self.c.len()
    }

    /// Objective value at `x`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let hx = self.h.matvec(x);
        0.5 * wqrtq_linalg::dot(x, &hx) + wqrtq_linalg::dot(&self.c, x)
    }

    /// Maximum constraint violation at `x` (0 when feasible), across both
    /// general inequalities and bounds.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut v: f64 = 0.0;
        for (row, rhs) in self.g_rows.iter().zip(&self.g_rhs) {
            v = v.max(wqrtq_linalg::dot(row, x) - rhs);
        }
        if let Some(lb) = &self.lb {
            for (l, xi) in lb.iter().zip(x) {
                v = v.max(l - xi);
            }
        }
        if let Some(ub) = &self.ub {
            for (u, xi) in ub.iter().zip(x) {
                v = v.max(xi - u);
            }
        }
        v
    }

    /// Quadratic term.
    pub fn h(&self) -> &Matrix {
        &self.h
    }

    /// Linear term.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Lower bounds, if set.
    pub fn lb(&self) -> Option<&[f64]> {
        self.lb.as_deref()
    }

    /// Upper bounds, if set.
    pub fn ub(&self) -> Option<&[f64]> {
        self.ub.as_deref()
    }

    /// Folds general rows and bounds into a single `(G, h)` pair for the
    /// solver: one `≤` row per inequality, `−x ≤ −lb`, `x ≤ ub`.
    pub(crate) fn canonical_constraints(&self) -> (Matrix, Vec<f64>) {
        let n = self.dim();
        let extra = self.lb.iter().count() * n + self.ub.iter().count() * n;
        let m = self.g_rows.len() + extra;
        assert!(m > 0, "problem must have at least one constraint");
        let mut g = Matrix::zeros(m, n);
        let mut rhs = Vec::with_capacity(m);
        let mut r = 0;
        for (row, b) in self.g_rows.iter().zip(&self.g_rhs) {
            g.row_mut(r).copy_from_slice(row);
            rhs.push(*b);
            r += 1;
        }
        if let Some(lb) = &self.lb {
            for (i, l) in lb.iter().enumerate() {
                g[(r, i)] = -1.0;
                rhs.push(-l);
                r += 1;
            }
        }
        if let Some(ub) = &self.ub {
            for (i, u) in ub.iter().enumerate() {
                g[(r, i)] = 1.0;
                rhs.push(*u);
                r += 1;
            }
        }
        (g, rhs)
    }

    /// A point in the (relative) interior of the box, used as the IPM
    /// starting point; the origin when no bounds are set.
    pub(crate) fn interior_start(&self) -> Vec<f64> {
        let n = self.dim();
        match (&self.lb, &self.ub) {
            (Some(lb), Some(ub)) => lb.iter().zip(ub).map(|(l, u)| 0.5 * (l + u)).collect(),
            (Some(lb), None) => lb.iter().map(|l| l + 1.0).collect(),
            (None, Some(ub)) => ub.iter().map(|u| u - 1.0).collect(),
            (None, None) => vec![0.0; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_change_objective_is_squared_distance_shifted() {
        let p = QpProblem::least_change(&[4.0, 4.0]);
        // ½xᵀ(2I)x − 2q·x = ‖x−q‖² − ‖q‖².
        let x = [3.0, 2.5];
        let expected = (1.0f64 + 1.5 * 1.5) - 32.0;
        assert!((p.objective(&x) - expected).abs() < 1e-12);
    }

    #[test]
    fn max_violation_accounts_for_all_constraint_kinds() {
        let mut p = QpProblem::least_change(&[1.0, 1.0]);
        p.add_inequality(vec![1.0, 1.0], 1.0);
        p.set_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(p.max_violation(&[0.5, 0.25]), 0.0);
        assert!((p.max_violation(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((p.max_violation(&[-0.5, 0.0]) - 0.5).abs() < 1e-12);
        assert!((p.max_violation(&[0.0, 1.25]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn canonical_constraints_shape() {
        let mut p = QpProblem::least_change(&[1.0, 2.0]);
        p.add_inequality(vec![0.5, 0.5], 3.0);
        p.set_bounds(vec![0.0, 0.0], vec![1.0, 2.0]);
        let (g, h) = p.canonical_constraints();
        assert_eq!(g.rows(), 1 + 2 + 2);
        assert_eq!(h.len(), 5);
        assert_eq!(g.row(0), &[0.5, 0.5]);
        assert_eq!(h[0], 3.0);
        // Bound rows: −x0 ≤ 0, −x1 ≤ 0, x0 ≤ 1, x1 ≤ 2.
        assert_eq!(g.row(1), &[-1.0, 0.0]);
        assert_eq!(h[3], 1.0);
        assert_eq!(h[4], 2.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_h_rejected() {
        let h = Matrix::from_rows(2, 2, vec![1.0, 0.5, 0.0, 1.0]);
        let _ = QpProblem::new(h, vec![0.0, 0.0]);
    }

    #[test]
    fn interior_start_midpoint() {
        let mut p = QpProblem::least_change(&[4.0, 4.0]);
        p.set_bounds(vec![0.0, 0.0], vec![4.0, 4.0]);
        assert_eq!(p.interior_start(), vec![2.0, 2.0]);
    }
}
