//! Approximate monochromatic reverse top-k in arbitrary dimensions.
//!
//! For d > 2 the exact `MRTOPk(q)` is a union of cells of a hyperplane
//! arrangement on the (d−1)-simplex, whose complexity grows quickly
//! (the paper's §2 notes that published exact monochromatic algorithms
//! are 2-D). This module provides the standard sampling estimate: draw
//! weighting vectors uniformly from the simplex, test membership with a
//! capped rank query, and report the qualifying samples plus the
//! estimated volume fraction of the qualifying region.
//!
//! In 2-D the estimate converges to the exact interval measure from
//! [`crate::mrtopk`], which the tests verify.

use crate::rank::is_in_topk;
use crate::snapshot::{ProbeCtx, Snapshot};
use wqrtq_geom::Weight;

/// A sampled estimate of the monochromatic reverse top-k result.
#[derive(Clone, Debug)]
pub struct MrtopkEstimate {
    /// Sampled weighting vectors whose top-k contains `q`.
    pub members: Vec<Weight>,
    /// Number of samples drawn.
    pub samples: usize,
    /// Estimated fraction of the weight simplex in `MRTOPk(q)`.
    pub volume_fraction: f64,
}

/// Deterministic splitmix64 step (no external RNG needed here).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Estimates `MRTOPk(q)` over the snapshot's live points by uniform
/// simplex sampling. The weight sequence depends only on
/// `(dim, samples, seed)` and each membership verdict is exact, so the
/// estimate is identical for any two snapshots holding the same live
/// rows.
///
/// # Panics
/// Panics if `q` does not match the snapshot's dimensionality.
pub fn monochromatic_reverse_topk_sampled<'a>(
    snap: impl Into<Snapshot<'a>>,
    q: &[f64],
    k: usize,
    samples: usize,
    seed: u64,
    ctx: &mut ProbeCtx,
) -> MrtopkEstimate {
    let snap = snap.into();
    let dim = snap.dim();
    assert_eq!(q.len(), dim, "query dimension mismatch");
    let mut state = seed ^ 0xd1b54a32d192ed03;
    let mut members = Vec::new();
    for _ in 0..samples {
        // Uniform simplex draw via exponential spacings.
        let mut w: Vec<f64> = (0..dim)
            .map(|_| -unit(&mut state).max(f64::EPSILON).ln())
            .collect();
        let total: f64 = w.iter().sum();
        for x in &mut w {
            *x /= total;
        }
        if is_in_topk(snap, &w, q, k, ctx) {
            members.push(Weight::new(w));
        }
    }
    MrtopkEstimate {
        volume_fraction: members.len() as f64 / samples.max(1) as f64,
        samples,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrtopk::monochromatic_reverse_topk_2d;
    use wqrtq_geom::DeltaView;
    use wqrtq_rtree::RTree;

    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    #[test]
    fn estimate_converges_to_exact_measure_in_2d() {
        // Exact MRTOP3(q) is [1/6, 3/4]: measure 7/12 ≈ 0.5833 of the
        // simplex (x is uniform on [0,1] under simplex sampling in 2-D).
        let pts = fig_points();
        let tree = RTree::bulk_load(2, &pts);
        let est = monochromatic_reverse_topk_sampled(
            &tree,
            &[4.0, 4.0],
            3,
            4000,
            7,
            &mut ProbeCtx::new(),
        );
        let exact = monochromatic_reverse_topk_2d(&pts, &[4.0, 4.0], 3);
        let exact_measure: f64 = exact.iter().map(|iv| iv.hi - iv.lo).sum();
        assert!(
            (est.volume_fraction - exact_measure).abs() < 0.04,
            "estimate {} vs exact measure {exact_measure}",
            est.volume_fraction
        );
    }

    #[test]
    fn members_are_genuine_members() {
        let pts = fig_points();
        let tree = RTree::bulk_load(2, &pts);
        let est =
            monochromatic_reverse_topk_sampled(&tree, &[4.0, 4.0], 3, 500, 3, &mut ProbeCtx::new());
        let exact = monochromatic_reverse_topk_2d(&pts, &[4.0, 4.0], 3);
        for w in &est.members {
            assert!(
                exact.iter().any(|iv| iv.contains(w[0])),
                "sampled member {w:?} outside the exact intervals"
            );
        }
    }

    #[test]
    fn three_d_estimate_is_sane() {
        // A dominated query qualifies nowhere; a dominating one
        // everywhere.
        let mut pts = Vec::new();
        let mut state = 5u64;
        for _ in 0..500 {
            for _ in 0..3 {
                pts.push(unit(&mut state) + 0.5);
            }
        }
        let tree = RTree::bulk_load(3, &pts);
        let everywhere = monochromatic_reverse_topk_sampled(
            &tree,
            &[0.1, 0.1, 0.1],
            1,
            300,
            1,
            &mut ProbeCtx::new(),
        );
        assert_eq!(everywhere.volume_fraction, 1.0);
        let nowhere = monochromatic_reverse_topk_sampled(
            &tree,
            &[10.0, 10.0, 10.0],
            1,
            300,
            1,
            &mut ProbeCtx::new(),
        );
        assert_eq!(nowhere.volume_fraction, 0.0);
        assert!(nowhere.members.is_empty());
    }

    #[test]
    fn view_estimate_matches_rebuilt_oracle() {
        use std::sync::Arc;
        use wqrtq_geom::FlatPoints;
        let pts = fig_points();
        let tree = RTree::bulk_load(2, &pts);
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        );
        let (live, _) = view.materialize_row_major();
        let rebuilt = RTree::bulk_load(2, &live);
        for (k, seed) in [(1, 3u64), (3, 9), (5, 42)] {
            let overlaid = Snapshot::from(&tree).overlay(&view);
            let got = monochromatic_reverse_topk_sampled(
                overlaid,
                &[4.0, 4.0],
                k,
                400,
                seed,
                &mut ProbeCtx::new(),
            );
            let oracle = monochromatic_reverse_topk_sampled(
                &rebuilt,
                &[4.0, 4.0],
                k,
                400,
                seed,
                &mut ProbeCtx::new(),
            );
            assert_eq!(got.volume_fraction, oracle.volume_fraction, "k {k}");
            assert_eq!(got.members.len(), oracle.members.len());
            for (a, b) in got.members.iter().zip(&oracle.members) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let tree = RTree::bulk_load(2, &fig_points());
        let a =
            monochromatic_reverse_topk_sampled(&tree, &[4.0, 4.0], 3, 200, 9, &mut ProbeCtx::new());
        let b =
            monochromatic_reverse_topk_sampled(&tree, &[4.0, 4.0], 3, 200, 9, &mut ProbeCtx::new());
        assert_eq!(a.volume_fraction, b.volume_fraction);
        assert_eq!(a.members.len(), b.members.len());
    }
}
