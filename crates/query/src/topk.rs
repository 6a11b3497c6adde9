//! Top-k queries (Definition 1 of the paper).
//!
//! `TOPk(w)` is the set of `k` points with the smallest scores under `w`.
//! The branch-and-bound implementation is the R-tree's best-first
//! traversal (BRS \[29\]) bounded to `k` points, merged with the
//! snapshot's overlay; the scan implementation is the baseline used to
//! cross-check it and to quantify the index's benefit in the ablation
//! benchmarks.

use crate::snapshot::{ProbeCtx, Snapshot};
use std::collections::BinaryHeap;
use wqrtq_geom::score;
use wqrtq_rtree::search::RankedPoint;
use wqrtq_rtree::OrdF64;

/// The top `k`-th point of a weighting vector — the constraint generator
/// of MQP (Lemma 2/3: a refined `q′` with `f(w, q′) ≤ f(w, p_k)` enters
/// `TOPk(w)`).
#[derive(Clone, Debug, PartialEq)]
pub struct KthPoint {
    /// Point id in the indexed dataset.
    pub id: u32,
    /// Its score under the weighting vector.
    pub score: f64,
    /// Its coordinates.
    pub coords: Vec<f64>,
}

/// Returns the `(id, score)` pairs of `TOPk(w)` over the snapshot's live
/// points, ordered by score under `f64::total_cmp` and then by id.
/// Returns fewer than `k` entries when fewer live points exist.
///
/// The order is a function of the live rows alone: a snapshot answers
/// bit for bit as a dataset rebuilt from its live rows (or compacted)
/// does, with ids mapped through the rebuild — equal scores, `−0.0`
/// and `+0.0` among them, included.
pub fn topk<'a>(snap: impl Into<Snapshot<'a>>, w: &[f64], k: usize) -> Vec<(u32, f64)> {
    topk_with(snap, w, k, &mut ProbeCtx::new())
}

/// [`topk`] on a reusable [`ProbeCtx`]: its queues are the search's
/// scratch, and the index nodes expanded are added to
/// `ctx.nodes_visited`.
pub fn topk_with<'a>(
    snap: impl Into<Snapshot<'a>>,
    w: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<(u32, f64)> {
    let snap = snap.into();
    // `k` may be caller-controlled: cap the pre-allocation at the live
    // size so an absurd `k` cannot abort on allocation failure.
    let mut out = Vec::with_capacity(k.min(snap.live_len()));
    ctx.bounded_topk(snap, w, k, |p| out.push((p.id, p.score)));
    out
}

/// Linear-scan top-k baseline over a flat `n × dim` buffer.
///
/// # Panics
/// Panics if the buffer length is not a multiple of `w.len()`.
pub fn topk_scan(points: &[f64], w: &[f64], k: usize) -> Vec<(u32, f64)> {
    let dim = w.len();
    assert_eq!(points.len() % dim, 0, "coordinate buffer length mismatch");
    let n = points.len() / dim;
    let mut scored: Vec<(u32, f64)> = (0..n)
        .map(|i| (i as u32, score(w, &points[i * dim..(i + 1) * dim])))
        .collect();
    // Partial selection: full sort is fine at the sizes this baseline is
    // benchmarked on, and keeps ties deterministic (by id).
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Finds the top `k`-th live point under `w` (1-based: `k = 1` is the
/// best point). Returns `None` when fewer than `k` live points exist —
/// which includes `k = 0`.
pub fn kth_point<'a>(snap: impl Into<Snapshot<'a>>, w: &[f64], k: usize) -> Option<KthPoint> {
    let (mut ranked, mut last) = (0, None);
    ProbeCtx::new().bounded_topk(snap, w, k, |p| {
        ranked += 1;
        last = Some(p);
    });
    last.filter(|_| ranked == k).map(|r| KthPoint {
        id: r.id,
        score: r.score,
        coords: r.coords.to_vec(),
    })
}

impl ProbeCtx {
    /// The ranked walk of a snapshot: hands its first `k` live points,
    /// by `(score via total_cmp, id)`, to `emit` in order. The base's
    /// first `k` live points come from [`wqrtq_rtree::RTree::topk_into`]
    /// (tombstones skipped), the appended rows' `k` smallest from a
    /// k-bounded heap keyed `(score, delta slot)` — appended ids rise
    /// with the slot, so that is their id order — and the two merge on
    /// whole `(score, id)` keys. The index nodes expanded are added to
    /// `self.nodes_visited`.
    pub fn bounded_topk<'a>(
        &mut self,
        snap: impl Into<Snapshot<'a>>,
        w: &[f64],
        k: usize,
        mut emit: impl FnMut(RankedPoint<'a>),
    ) {
        let snap = snap.into();
        let view = snap.mutated();
        let mut buf = std::mem::take(&mut self.top_delta);
        buf.clear();
        let mut kept = BinaryHeap::from(buf);
        if let Some(v) = view {
            for (slot, row) in v.delta_rows().chunks_exact(v.dim()).enumerate() {
                let key = (OrdF64(score(w, row)), slot as u32);
                if kept.len() < k {
                    kept.push(key);
                } else if let Some(mut last) = kept.peek_mut() {
                    if key < *last {
                        *last = key;
                    }
                }
            }
        }
        self.top_delta = kept.into_sorted_vec();

        let mut delta = view.into_iter().flat_map(|v| {
            self.top_delta
                .iter()
                .map(move |&(OrdF64(score), slot)| RankedPoint {
                    id: v.delta_ids()[slot as usize],
                    score,
                    coords: v.delta_row(slot as usize),
                })
        });
        let key = |p: &RankedPoint<'_>| (OrdF64(p.score), p.id);
        let mut head = delta.next();
        let mut left = k;
        let tree = snap.tree;
        let dead = |id| view.is_some_and(|v| v.is_deleted(id));
        let nodes = tree.topk_into(w, k, dead, &mut self.probe, |row, s| {
            let (id, coords) = tree.point(row as usize);
            let base = RankedPoint {
                id,
                score: s,
                coords,
            };
            // Appended rows keyed ahead of this base point leave first.
            while let Some(d) = head.filter(|d| key(d) < key(&base)) {
                emit(d);
                head = delta.next();
                left -= 1;
                if left == 0 {
                    return false;
                }
            }
            emit(base);
            left -= 1;
            left > 0
        });
        self.nodes_visited += nodes;
        while let Some(d) = head.filter(|_| left > 0) {
            emit(d);
            head = delta.next();
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wqrtq_geom::{DeltaView, FlatPoints};
    use wqrtq_rtree::RTree;

    // The bit-identical-to-naive contract of every snapshot shape lives
    // in `tests/differential.rs`; what stays here are the paper's worked
    // numbers and one hand-checked overlay merge.

    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    #[test]
    fn top3_for_kevin_matches_paper() {
        // §3: TOP3(w1) = {p1, p2, p4} for Kevin = (0.1, 0.9).
        let t = RTree::bulk_load(2, &fig_points());
        let ids: Vec<u32> = topk(&t, &[0.1, 0.9], 3).iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn scan_and_tree_agree_on_paper_data() {
        let pts = fig_points();
        let t = RTree::bulk_load(2, &pts);
        for k in 1..=7 {
            let a = topk(&t, &[0.3, 0.7], k);
            let b = topk_scan(&pts, &[0.3, 0.7], k);
            let sa: Vec<f64> = a.iter().map(|(_, s)| *s).collect();
            let sb: Vec<f64> = b.iter().map(|(_, s)| *s).collect();
            assert_eq!(sa, sb, "k = {k}");
        }
    }

    #[test]
    fn kth_point_is_last_of_topk() {
        let pts = fig_points();
        let t = RTree::bulk_load(2, &pts);
        // Kevin's top 3rd point is p4 = (9, 3) with score 3.6 (Fig. 5(b)).
        let p = kth_point(&t, &[0.1, 0.9], 3).unwrap();
        assert_eq!(p.id, 3);
        assert!((p.score - 3.6).abs() < 1e-12);
        assert_eq!(p.coords, vec![9.0, 3.0]);
    }

    #[test]
    fn kth_point_beyond_dataset_or_at_zero_is_none() {
        let t = RTree::bulk_load(2, &fig_points());
        assert!(kth_point(&t, &[0.5, 0.5], 8).is_none());
        assert!(kth_point(&t, &[0.5, 0.5], 7).is_some());
        assert!(kth_point(&t, &[0.5, 0.5], 0).is_none());
    }

    #[test]
    fn topk_with_k_zero_is_empty() {
        let t = RTree::bulk_load(2, &fig_points());
        assert!(topk(&t, &[0.5, 0.5], 0).is_empty());
    }

    #[test]
    fn overlay_topk_merges_skips_and_keeps_order() {
        // Delete p2/p5 (ids 1, 4), append two rows (ids 7, 8).
        let pts = fig_points();
        let tree = RTree::bulk_load_with_fanout(2, &pts, 4);
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        );
        let snap = Snapshot::from(&tree).overlay(&view);
        // Kevin (0.1, 0.9): live scores are p1=1.1, p3=8.2, p4=3.6,
        // p6=7.7, p7=6.6, d7=(4.5,2)=2.25, d8=(0.5,0.5)=0.5.
        let got = topk(snap, &[0.1, 0.9], 4);
        let ids: Vec<u32> = got.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![8, 0, 7, 3]); // 0.5 < 1.1 < 2.25 < 3.6
        assert!(got.windows(2).all(|p| p[0].1 <= p[1].1));
        // Deleted p2 (id 1) never surfaces, at any k.
        let all = topk(snap, &[0.1, 0.9], 100);
        assert_eq!(all.len(), view.live_len());
        assert!(all.iter().all(|(i, _)| *i != 1 && *i != 4));
    }
}
