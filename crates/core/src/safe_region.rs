//! Safe regions (Definition 7, Lemmas 1–3 of the paper).
//!
//! The safe region `SR(q)` of a query point is the intersection of the
//! half-spaces `HS(wᵢ, pᵢ)` formed by each why-not weighting vector `wᵢ`
//! and its top-k-th point `pᵢ`, intersected with the box `[0, q]` (the
//! paper restricts the search space to `[0, q]` because increasing any
//! coordinate can never help). Moving `q` anywhere inside `SR(q)` puts it
//! into every why-not vector's top-k.
//!
//! MQP never materialises `SR(q)` — it optimises over it with quadratic
//! programming — but the region itself is useful for membership tests,
//! visualisation, and (in 2-D) as an exact geometric oracle to validate
//! the QP against (Figure 5(b)).

use crate::error::WhyNotError;
use wqrtq_geom::{HalfSpace, Polygon2d, Weight};
use wqrtq_query::{kth_point, Snapshot};

/// The safe region of a query point for a why-not set.
#[derive(Clone, Debug)]
pub struct SafeRegion {
    constraints: Vec<HalfSpace>,
    q: Vec<f64>,
    /// Score thresholds `f(wᵢ, pᵢ)` aligned with `constraints`.
    thresholds: Vec<f64>,
}

impl SafeRegion {
    /// Builds the safe region from the top-k-th points of every why-not
    /// vector (Lemma 3). Each k-th point comes from the snapshot's merged
    /// live ranking, so the constraint planes are those of a dataset
    /// rebuilt from the live rows.
    pub fn build<'a>(
        snap: impl Into<Snapshot<'a>>,
        q: &[f64],
        k: usize,
        why_not: &[Weight],
    ) -> Result<Self, WhyNotError> {
        let snap = snap.into();
        if why_not.is_empty() {
            return Err(WhyNotError::EmptyWhyNot);
        }
        if k == 0 {
            return Err(WhyNotError::ZeroK);
        }
        for w in why_not {
            if w.dim() != snap.dim() {
                return Err(WhyNotError::DimensionMismatch {
                    expected: snap.dim(),
                    got: w.dim(),
                });
            }
        }
        let mut constraints = Vec::with_capacity(why_not.len());
        let mut thresholds = Vec::with_capacity(why_not.len());
        for w in why_not {
            let p = kth_point(snap, w, k).ok_or(WhyNotError::DatasetSmallerThanK {
                len: snap.live_len(),
                k,
            })?;
            thresholds.push(p.score);
            constraints.push(HalfSpace::below_score_plane(w, &p.coords));
        }
        Ok(Self {
            constraints,
            q: q.to_vec(),
            thresholds,
        })
    }

    /// The half-space constraints (one per why-not vector).
    pub fn constraints(&self) -> &[HalfSpace] {
        &self.constraints
    }

    /// The score thresholds `f(wᵢ, pᵢ)` (the QP right-hand sides).
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Membership test (Definition 7): `x` must satisfy every half-space
    /// and lie in `[0, q]`.
    pub fn contains(&self, x: &[f64]) -> bool {
        if x.len() != self.q.len() {
            return false;
        }
        let in_box = x
            .iter()
            .zip(&self.q)
            .all(|(xi, qi)| *xi >= -1e-9 && *xi <= qi + 1e-9);
        in_box
            && self
                .constraints
                .iter()
                .all(|hs| hs.contains_with_tol(x, 1e-9))
    }

    /// The exact safe region as a convex polygon — 2-D only.
    ///
    /// # Panics
    /// Panics if the data is not two-dimensional.
    pub fn exact_polygon_2d(&self) -> Polygon2d {
        assert_eq!(self.q.len(), 2, "exact polygon only available in 2-D");
        let rect = Polygon2d::rect([0.0, 0.0], [self.q[0], self.q[1]]);
        rect.clip_all(self.constraints.iter())
    }

    /// The geometrically optimal refined query point in 2-D (closest
    /// point of the polygon to `q`), or `None` when the region is empty.
    pub fn closest_point_2d(&self) -> Option<[f64; 2]> {
        let poly = self.exact_polygon_2d();
        poly.closest_point([self.q[0], self.q[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn figure_5b_region_structure() {
        // Kevin's top 3rd point is p4 (score 3.6); Julia's is p7 (3.4).
        let sr = SafeRegion::build(&fig_tree(), &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        assert_eq!(sr.constraints().len(), 2);
        assert!((sr.thresholds()[0] - 3.6).abs() < 1e-12);
        assert!((sr.thresholds()[1] - 3.4).abs() < 1e-12);
        // The paper's refined q″ = (2.5, 3.5) is safe; q itself is not.
        assert!(sr.contains(&[2.5, 3.5]));
        assert!(!sr.contains(&[4.0, 4.0]));
        // Points outside [0, q] are never safe even below the planes.
        assert!(!sr.contains(&[-0.5, 0.5]));
        assert!(!sr.contains(&[4.5, 0.0]));
    }

    #[test]
    fn origin_is_always_safe_for_nonnegative_data() {
        let sr = SafeRegion::build(&fig_tree(), &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        assert!(sr.contains(&[0.0, 0.0]));
    }

    #[test]
    fn exact_polygon_agrees_with_contains() {
        let sr = SafeRegion::build(&fig_tree(), &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        let poly = sr.exact_polygon_2d();
        assert!(!poly.is_empty());
        for v in poly.vertices() {
            assert!(sr.contains(&[v[0], v[1]]), "vertex {v:?} not safe");
        }
    }

    #[test]
    fn closest_point_is_the_analytic_optimum() {
        // Both constraints active: q′ = (3.375, 3.625) (see wqrtq-qp tests).
        let sr = SafeRegion::build(&fig_tree(), &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        let c = sr.closest_point_2d().unwrap();
        assert!((c[0] - 3.375).abs() < 1e-9, "{c:?}");
        assert!((c[1] - 3.625).abs() < 1e-9, "{c:?}");
    }

    #[test]
    fn smaller_k_shrinks_the_region() {
        // Lemma 3 discussion: SR′(q) built from top-(k−1)-th points is a
        // subset of SR(q).
        let tree = fig_tree();
        let sr3 = SafeRegion::build(&tree, &[4.0, 4.0], 3, &kevin_julia()).unwrap();
        let sr2 = SafeRegion::build(&tree, &[4.0, 4.0], 2, &kevin_julia()).unwrap();
        let a3 = sr3.exact_polygon_2d().area();
        let a2 = sr2.exact_polygon_2d().area();
        assert!(a2 < a3, "area(k=2) = {a2} should be < area(k=3) = {a3}");
    }

    #[test]
    fn errors_for_bad_inputs() {
        let tree = fig_tree();
        assert!(matches!(
            SafeRegion::build(&tree, &[4.0, 4.0], 3, &[]),
            Err(WhyNotError::EmptyWhyNot)
        ));
        assert!(matches!(
            SafeRegion::build(&tree, &[4.0, 4.0], 3, &[Weight::new(vec![1.0])]),
            Err(WhyNotError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            SafeRegion::build(&tree, &[4.0, 4.0], 99, &kevin_julia()),
            Err(WhyNotError::DatasetSmallerThanK { .. })
        ));
        assert!(matches!(
            SafeRegion::build(&tree, &[4.0, 4.0], 0, &kevin_julia()),
            Err(WhyNotError::ZeroK)
        ));
    }
}
