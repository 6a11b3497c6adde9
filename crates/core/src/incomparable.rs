//! The dominance frontier and the MQWK *reuse* technique (§4.4).
//!
//! `FindIncom` classifies the dataset relative to a query point into
//! dominators `D`, incomparable points `I`, and (pruned) points dominated
//! by `q`. The rank of `q` under any strictly positive weighting vector
//! follows from `D` and `I` alone:
//! `rank = 1 + |D| + |{p ∈ I : f(w, p) < f(w, q)}|`.
//!
//! MQWK evaluates many sampled query points `q′ ⪯ q`. Because `q′`
//! dominates `q`, every point dominated by `q` stays dominated by `q′`,
//! so one R-tree traversal for the original `q` yields a *frontier*
//! (`D ∪ I`) that is a superset of every sample's frontier and can be
//! re-classified per sample without touching the index again — the
//! paper's reuse technique (revised `FindIncom`, §4.4).

use wqrtq_geom::{dominates, score, DeltaView, FlatPoints};
use wqrtq_query::Snapshot;

/// The classified frontier of a query point: everything needed to rank
/// that point under arbitrary (positive) weighting vectors without the
/// R-tree.
#[derive(Clone, Debug)]
pub struct DominanceFrontier {
    dim: usize,
    q: Vec<f64>,
    /// Flat `|D| × dim` coordinates of points dominating `q` (they beat
    /// it under every strictly positive weight).
    dominating: Vec<f64>,
    /// Flat `|I| × dim` coordinates of the incomparable points.
    incomparable: Vec<f64>,
    /// Column-major mirror of `incomparable` feeding the fused count
    /// kernel — `rank_under` runs in inner loops of MWK/MQWK (one call
    /// per sampled weight), so the scan layout matters.
    incomparable_cols: FlatPoints,
}

/// The live rows of one side of a dominance split, tagged with their ids.
fn live_rows<'s>(
    ids: &[u32],
    coords: &'s [f64],
    dim: usize,
    view: Option<&DeltaView>,
) -> Vec<(u32, &'s [f64])> {
    ids.iter()
        .zip(coords.chunks_exact(dim))
        .filter(|(&id, _)| !view.is_some_and(|v| v.is_deleted(id)))
        .map(|(&id, row)| (id, row))
        .collect()
}

impl DominanceFrontier {
    /// Runs `FindIncom` over the snapshot's live rows: the base index's
    /// pruned traversal classifies the base rows, tombstoned rows are
    /// dropped, and the appended rows are classified by direct dominance
    /// tests (`O(Δ)`).
    ///
    /// Both sets are assembled in **canonical (id-ascending) order** —
    /// the traversal's own order depends on the tree's build parameters,
    /// and a frontier that varies with fanout or with how the live rows
    /// are split between base and overlay would make the MWK sampler's
    /// candidate sequence (and hence sampled refinements)
    /// structure-dependent. So the frontier is identical for any two
    /// snapshots holding the same live rows; in particular it matches
    /// the frontier of a dataset rebuilt from
    /// [`DeltaView::materialize_row_major`].
    pub fn new<'a>(snap: impl Into<Snapshot<'a>>, q: &[f64]) -> Self {
        let snap = snap.into();
        let dim = snap.dim();
        let split = snap.tree.split_by_dominance(q);
        let mut dominating = live_rows(
            &split.dominating_ids,
            &split.dominating_coords,
            dim,
            snap.view,
        );
        let mut incomparable = live_rows(
            &split.incomparable_ids,
            &split.incomparable_coords,
            dim,
            snap.view,
        );
        if let Some(view) = snap.view {
            for (i, &id) in view.delta_ids().iter().enumerate() {
                let p = view.delta_row(i);
                if dominates(p, q) {
                    dominating.push((id, p));
                } else if !dominates(q, p) {
                    incomparable.push((id, p));
                }
            }
        }
        let canonical = |mut rows: Vec<(u32, &[f64])>| -> Vec<f64> {
            rows.sort_by_key(|(id, _)| *id);
            rows.into_iter().flat_map(|(_, row)| row).copied().collect()
        };
        Self::from_parts(
            dim,
            q.to_vec(),
            canonical(dominating),
            canonical(incomparable),
        )
    }

    fn from_parts(dim: usize, q: Vec<f64>, dominating: Vec<f64>, incomparable: Vec<f64>) -> Self {
        let incomparable_cols = FlatPoints::from_row_major(dim, &incomparable);
        Self {
            dim,
            q,
            dominating,
            incomparable,
            incomparable_cols,
        }
    }

    /// Re-classifies this frontier for a new query point `q′ ⪯ q`
    /// (component-wise) — the reuse path of MQWK. Correct because every
    /// point dominated by `q` is also dominated by `q′`, so only the
    /// frontier members need a fresh dominance test.
    ///
    /// # Panics
    /// Panics (debug builds) if `q′` does not dominate-or-equal `q`.
    pub fn reclassify(&self, q_prime: &[f64]) -> DominanceFrontier {
        debug_assert!(
            q_prime.iter().zip(&self.q).all(|(a, b)| a <= b),
            "reuse requires q′ ⪯ q"
        );
        let dim = self.dim;
        let mut dominating = Vec::new();
        let mut incomparable = Vec::new();
        {
            let mut scan = |p: &[f64]| {
                if dominates(p, q_prime) {
                    dominating.extend_from_slice(p);
                } else if !dominates(q_prime, p) {
                    incomparable.extend_from_slice(p);
                }
            };
            for i in 0..self.num_incomparable() {
                scan(&self.incomparable[i * dim..(i + 1) * dim]);
            }
            for i in 0..self.num_dominating() {
                scan(&self.dominating[i * dim..(i + 1) * dim]);
            }
        }
        DominanceFrontier::from_parts(dim, q_prime.to_vec(), dominating, incomparable)
    }

    /// `|D|`.
    pub fn num_dominating(&self) -> usize {
        self.dominating.len() / self.dim
    }

    /// `|I|`.
    pub fn num_incomparable(&self) -> usize {
        self.incomparable.len() / self.dim
    }

    /// The query point this frontier is relative to.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// Coordinates of the `i`-th incomparable point.
    pub fn incomparable_point(&self, i: usize) -> &[f64] {
        &self.incomparable[i * self.dim..(i + 1) * self.dim]
    }

    /// The possible rank range of `q`: `[|D| + 1, |D| + |I| + 1]` (§4.3).
    pub fn rank_range(&self) -> (usize, usize) {
        (
            self.num_dominating() + 1,
            self.num_dominating() + self.num_incomparable() + 1,
        )
    }

    /// Exact rank of `q` under a strictly positive weighting vector,
    /// computed from `D` and `I` only (Algorithm 2, lines 4–9), via the
    /// fused column-major count kernel.
    pub fn rank_under(&self, w: &[f64]) -> usize {
        let sq = score(w, &self.q);
        self.num_dominating() + self.incomparable_cols.count_better_than(w, sq) + 1
    }

    /// Fused score kernel over the incomparable set: writes `f(w, I_i)`
    /// for every incomparable point into `out` (capacity reused). The
    /// weight sampler uses this to find each anchor's culprits in one
    /// sequential sweep instead of a strided per-point loop.
    pub fn incomparable_scores_into(&self, w: &[f64], out: &mut Vec<f64>) {
        self.incomparable_cols.scores_into(w, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_query::rank_of_point;
    use wqrtq_rtree::RTree;

    fn fig_tree() -> RTree {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        RTree::bulk_load(2, &pts)
    }

    #[test]
    fn figure_2a_frontier() {
        let f = DominanceFrontier::new(&fig_tree(), &[4.0, 4.0]);
        assert_eq!(f.num_dominating(), 1); // p1
        assert_eq!(f.num_incomparable(), 4); // p2, p3, p4, p7
        assert_eq!(f.rank_range(), (2, 6));
    }

    #[test]
    fn frontier_rank_matches_tree_rank() {
        let tree = fig_tree();
        let q = [4.0, 4.0];
        let f = DominanceFrontier::new(&tree, &q);
        for w in [[0.1, 0.9], [0.3, 0.7], [0.5, 0.5], [0.9, 0.1], [0.25, 0.75]] {
            assert_eq!(
                f.rank_under(&w),
                rank_of_point(&tree, &w, &q),
                "weight {w:?}"
            );
        }
    }

    #[test]
    fn reclassify_matches_fresh_traversal() {
        let tree = fig_tree();
        let base = DominanceFrontier::new(&tree, &[4.0, 4.0]);
        for q_prime in [[3.5, 3.8], [3.0, 3.0], [4.0, 2.0], [0.5, 0.5], [4.0, 4.0]] {
            let reused = base.reclassify(&q_prime);
            let fresh = DominanceFrontier::new(&tree, &q_prime);
            assert_eq!(
                reused.num_dominating(),
                fresh.num_dominating(),
                "D mismatch at {q_prime:?}"
            );
            assert_eq!(
                reused.num_incomparable(),
                fresh.num_incomparable(),
                "I mismatch at {q_prime:?}"
            );
            for w in [[0.2, 0.8], [0.6, 0.4]] {
                assert_eq!(reused.rank_under(&w), fresh.rank_under(&w));
            }
        }
    }

    #[test]
    fn rank_range_brackets_every_weight() {
        let tree = fig_tree();
        let f = DominanceFrontier::new(&tree, &[4.0, 4.0]);
        let (lo, hi) = f.rank_range();
        for i in 1..20 {
            let x = i as f64 / 20.0;
            let r = f.rank_under(&[x, 1.0 - x]);
            assert!((lo..=hi).contains(&r), "rank {r} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn view_frontier_matches_rebuilt_canonical_frontier() {
        use std::sync::Arc;
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = fig_tree();
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        );
        let (live, _) = view.materialize_row_major();
        let rebuilt = RTree::bulk_load(2, &live);
        let plain = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &live)));
        let q = [4.0, 4.0];
        let got = DominanceFrontier::new(Snapshot::from(&tree).overlay(&view), &q);
        let oracle = DominanceFrontier::new(Snapshot::from(&rebuilt).overlay(&plain), &q);
        // Identical coordinate sequences, not merely identical counts:
        // the MWK sampler consumes the frontier in order.
        assert_eq!(got.dominating, oracle.dominating);
        assert_eq!(got.incomparable, oracle.incomparable);
        for w in [[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]] {
            assert_eq!(got.rank_under(&w), oracle.rank_under(&w));
        }
        // Reclassification (the MQWK reuse path) stays aligned too.
        let ra = got.reclassify(&[3.0, 3.5]);
        let rb = oracle.reclassify(&[3.0, 3.5]);
        assert_eq!(ra.dominating, rb.dominating);
        assert_eq!(ra.incomparable, rb.incomparable);
    }

    #[test]
    fn moving_query_to_origin_dominates_everything() {
        let tree = fig_tree();
        let base = DominanceFrontier::new(&tree, &[4.0, 4.0]);
        let f = base.reclassify(&[0.0, 0.0]);
        assert_eq!(f.num_dominating(), 0);
        assert_eq!(f.num_incomparable(), 0);
        assert_eq!(f.rank_under(&[0.5, 0.5]), 1);
    }
}
