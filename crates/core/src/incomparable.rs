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

use std::sync::Arc;
use wqrtq_geom::{dominates, incomparable as neither_dominates, score, DeltaView, FlatPoints};
use wqrtq_query::Snapshot;

/// The classified frontier of a query point: everything needed to rank
/// that point under arbitrary (positive) weighting vectors without the
/// R-tree.
///
/// The rows themselves belong to the traversal that found them
/// ([`DominanceFrontier::new`]) and are shared, never copied: a
/// re-classification is `|D|` plus an index list over those rows.
#[derive(Clone, Debug)]
pub struct DominanceFrontier {
    q: Vec<f64>,
    rows: Arc<FrontierRows>,
    /// `|D|`: points dominating `q` (they beat it under every strictly
    /// positive weight, so ranking never scores them).
    num_dominating: usize,
    /// `I` as row numbers into `rows`, in canonical (id-ascending) order.
    incomparable: Vec<u32>,
    /// The members of `I` that dominated the traversal's own query point
    /// and so sit outside the column store.
    promoted: Vec<u32>,
}

/// What one `FindIncom` traversal found: the rows incomparable with its
/// query point, then the rows dominating it, each id-ascending.
#[derive(Debug)]
struct FrontierRows {
    ids: Vec<u32>,
    coords: Vec<f64>,
    /// Column-major mirror of the incomparable rows (rows `0..cols.len()`)
    /// feeding the fused count kernel — `rank_under` runs in the inner
    /// loops of MWK/MQWK (one call per sampled weight), so the scan layout
    /// matters, and so does building it once per traversal rather than
    /// once per sampled query point.
    cols: FlatPoints,
}

impl FrontierRows {
    fn row(&self, r: u32) -> &[f64] {
        let dim = self.cols.dim();
        &self.coords[r as usize * dim..(r as usize + 1) * dim]
    }
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
        // A copy of q ties with it under every weight and has no tie
        // plane; whether the traversal prunes it depends on its leaf.
        incomparable.retain(|(_, row)| *row != q);
        dominating.sort_by_key(|(id, _)| *id);
        incomparable.sort_by_key(|(id, _)| *id);
        let (num_incomparable, num_dominating) = (incomparable.len(), dominating.len());
        incomparable.append(&mut dominating);
        let coords: Vec<f64> = incomparable
            .iter()
            .flat_map(|(_, row)| *row)
            .copied()
            .collect();
        Self {
            q: q.to_vec(),
            num_dominating,
            incomparable: (0..num_incomparable as u32).collect(),
            promoted: Vec::new(),
            rows: Arc::new(FrontierRows {
                ids: incomparable.iter().map(|(id, _)| *id).collect(),
                cols: FlatPoints::from_row_major(dim, &coords[..num_incomparable * dim]),
                coords,
            }),
        }
    }

    /// Re-classifies the traversal's rows for a new query point `q′ ⪯ q`
    /// (component-wise) — the reuse path of MQWK. Correct because every
    /// point dominated by `q` is also dominated by `q′`, so only the
    /// frontier members need a fresh dominance test; and, member for
    /// member and in the same order, equal to `new(snap, q′)`.
    ///
    /// # Panics
    /// Panics (debug builds) if `q′` does not dominate-or-equal `q`.
    pub fn reclassify(&self, q_prime: &[f64]) -> DominanceFrontier {
        debug_assert!(
            q_prime.iter().zip(&self.q).all(|(a, b)| a <= b),
            "reuse requires q′ ⪯ q"
        );
        let rows = &self.rows;
        let kept = rows.cols.len() as u32;
        // Nothing incomparable with the traversal's point can dominate a
        // point below it, so only the old dominators can still dominate.
        let mut num_dominating = 0;
        let mut promoted = Vec::new();
        for r in kept..rows.ids.len() as u32 {
            if dominates(rows.row(r), q_prime) {
                num_dominating += 1;
            } else if neither_dominates(rows.row(r), q_prime) {
                promoted.push(r);
            }
        }
        // I(q′) in id order: the survivors with the promoted merged in
        // (both runs ascend; a sort here cost more than the classification).
        let id = |r: u32| rows.ids[r as usize];
        let mut incomparable = Vec::new();
        let mut pending = promoted.iter().copied().peekable();
        for r in (0..kept).filter(|&r| neither_dominates(rows.row(r), q_prime)) {
            while let Some(p) = pending.next_if(|&p| id(p) < id(r)) {
                incomparable.push(p);
            }
            incomparable.push(r);
        }
        incomparable.extend(pending);
        DominanceFrontier {
            q: q_prime.to_vec(),
            rows: Arc::clone(rows),
            num_dominating,
            incomparable,
            promoted,
        }
    }

    /// `|D|`.
    pub fn num_dominating(&self) -> usize {
        self.num_dominating
    }

    /// `|I|`.
    pub fn num_incomparable(&self) -> usize {
        self.incomparable.len()
    }

    /// The query point this frontier is relative to.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// Coordinates of the `i`-th incomparable point.
    pub fn incomparable_point(&self, i: usize) -> &[f64] {
        self.rows.row(self.incomparable[i])
    }

    /// The possible rank range of `q`: `[|D| + 1, |D| + |I| + 1]` (§4.3).
    pub fn rank_range(&self) -> (usize, usize) {
        (
            self.num_dominating() + 1,
            self.num_dominating() + self.num_incomparable() + 1,
        )
    }

    /// Exact rank of `q` under a non-negative weighting vector,
    /// computed from `D` and `I` only (Algorithm 2, lines 4–9), via the
    /// fused column-major count kernel.
    pub fn rank_under(&self, w: &[f64]) -> usize {
        self.num_dominating + self.count_better(w, usize::MAX) + 1
    }

    /// `|{p ∈ I : f(w, p) < f(w, q)}|`, exact while below `cap` and some
    /// value `≥ cap` otherwise. The column store is scanned whole: the
    /// rows in it that `q` has come to dominate score, term by rounded
    /// term, no lower than `q` under a non-negative weight, so they count
    /// nothing.
    pub(crate) fn count_better(&self, w: &[f64], cap: usize) -> usize {
        let sq = score(w, &self.q);
        let counted = self.rows.cols.count_better_than_capped(w, sq, cap);
        if counted >= cap {
            return counted;
        }
        let beats = |r: &&u32| score(w, self.rows.row(**r)) < sq;
        counted + self.promoted.iter().filter(beats).count()
    }

    /// Positions in `I` of the points beating `q` under `w` — the anchor's
    /// culprits, found by one sequential sweep of the fused score kernel
    /// (`scores` is its buffer, capacity reused).
    pub(crate) fn culprits(&self, w: &[f64], scores: &mut Vec<f64>) -> Vec<u32> {
        let sq = score(w, &self.q);
        self.rows.cols.scores_into(w, scores);
        let score_of = |r: u32| match scores.get(r as usize) {
            Some(&s) => s,
            None => score(w, self.rows.row(r)),
        };
        let positions = 0..self.incomparable.len() as u32;
        positions
            .filter(|&pos| score_of(self.incomparable[pos as usize]) < sq)
            .collect()
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

    fn incomparable_rows(f: &DominanceFrontier) -> Vec<&[f64]> {
        (0..f.num_incomparable())
            .map(|i| f.incomparable_point(i))
            .collect()
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
            // Same members in the same order: the MWK sampler indexes `I`.
            assert_eq!(incomparable_rows(&reused), incomparable_rows(&fresh));
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
        assert_eq!(got.rows.coords, oracle.rows.coords);
        assert_eq!(got.num_dominating(), oracle.num_dominating());
        assert_eq!(incomparable_rows(&got), incomparable_rows(&oracle));
        for w in [[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]] {
            assert_eq!(got.rank_under(&w), oracle.rank_under(&w));
        }
        // Reclassification (the MQWK reuse path) stays aligned too.
        let ra = got.reclassify(&[3.0, 3.5]);
        let rb = oracle.reclassify(&[3.0, 3.5]);
        assert_eq!(ra.num_dominating(), rb.num_dominating());
        assert_eq!(incomparable_rows(&ra), incomparable_rows(&rb));
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
