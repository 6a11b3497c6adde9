//! Rank queries: where would `q` place under a weighting vector?
//!
//! `rank(q, w) = 1 + |{p ∈ P : f(w, p) < f(w, q)}|`, so `q ∈ TOPk(w)` iff
//! `rank(q, w) ≤ k` — the membership rule of Definitions 2/3 with the
//! paper's tie semantics (`f(w, q) ≤ f(w, p)` keeps `q` in on a tie).
//!
//! Three engines answer it:
//!
//! * [`rank_of_point`] — exact counting over the R-tree (subtree counts
//!   make it sub-linear), corrected by the snapshot's overlay;
//! * [`is_in_topk`] — the *early-exit* membership probe: a best-first
//!   descent that stops the moment `k` better points are known **or**
//!   the smallest remaining MBR lower bound reaches `f(w, q)` (at which
//!   point the count is exact and `count < k` proves membership);
//! * [`rank_of_point_scan`] — the naive row-major scan both are
//!   validated against.

use crate::snapshot::{ProbeCtx, Snapshot};
use wqrtq_geom::score;

/// Exact rank of `q` under `w` over the snapshot's live points: the base
/// R-tree's counted pruning plus the `O(Δ)` overlay corrections
/// (appended rows add, tombstoned rows subtract).
pub fn rank_of_point<'a>(snap: impl Into<Snapshot<'a>>, w: &[f64], q: &[f64]) -> usize {
    let snap = snap.into();
    let s = score(w, q);
    let base_all = snap.tree.count_score_below(w, s, true);
    match snap.mutated() {
        Some(v) => base_all - v.count_better_dead(w, s) + v.count_better_delta(w, s) + 1,
        None => base_all + 1,
    }
}

/// Linear-scan rank baseline over a flat row-major `n × dim` buffer —
/// the correctness oracle for the tree and kernel paths. The query score
/// is hoisted out of the per-point loop.
///
/// # Panics
/// Panics if the buffer length is not a multiple of `w.len()`.
pub fn rank_of_point_scan(points: &[f64], w: &[f64], q: &[f64]) -> usize {
    let dim = w.len();
    assert_eq!(points.len() % dim, 0, "coordinate buffer length mismatch");
    let s = score(w, q);
    points.chunks_exact(dim).filter(|p| score(w, p) < s).count() + 1
}

/// Decides `q ∈ TOPk(w)` over the snapshot's live points without
/// computing the exact rank. The index nodes expanded are added to
/// `ctx.nodes_visited`.
///
/// `q` is a live member ⟺ `live_better < k` where
/// `live_better = base_all − dead_better + delta_better`; substituting
/// gives `base_all < k − delta_better + dead_better`, which is the
/// base probe with an adjusted count target `cap`. Once the appended
/// rows alone supply `k` better points `q` is out with no index work;
/// otherwise one of two rungs, each bit-identical to the naive count,
/// decides `base_all < cap`:
///
/// 1. with a mask whose culprit planes cover `cap`, a capped count over
///    the smallest covering skyband (dead better points are in the
///    plane's count too, which is why `cap` carries them — see
///    `DominanceIndex::plane_outranked`);
/// 2. else the early-exit probe of the base index.
pub fn is_in_topk<'a>(
    snap: impl Into<Snapshot<'a>>,
    w: &[f64],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> bool {
    let snap = snap.into();
    if k == 0 {
        return false;
    }
    // Past `live + 1` every `k` gives the same verdict (`q` is in); the
    // clamp keeps the overlay-adjusted `cap` below from wrapping.
    let k = k.min(snap.live_len() + 1);
    let s = score(w, q);
    let view = snap.mutated();
    let d_add = view.map_or(0, |v| v.count_better_delta(w, s));
    if d_add >= k {
        return false;
    }
    let cap = k - d_add + view.map_or(0, |v| v.count_better_dead(w, s));
    if let Some(outranked) = snap.dom.and_then(|d| d.plane_outranked(w, s, cap)) {
        return !outranked;
    }
    ctx.probe(snap, w, s, cap, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_geom::FlatPoints;
    use wqrtq_rtree::RTree;

    // The bit-identical-to-naive contract of every snapshot shape lives
    // in `tests/differential.rs`; what stays here are the paper's worked
    // numbers.

    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    #[test]
    fn ranks_match_figure_1c() {
        let pts = fig_points();
        let t = RTree::bulk_load(2, &pts);
        let q = [4.0, 4.0];
        // Kevin (0.1,0.9): p1,p2,p4 better → rank 4 (why-not!).
        assert_eq!(rank_of_point(&t, &[0.1, 0.9], &q), 4);
        // Tony (0.5,0.5): only p1 (1.5) beats q (4.0); p2 scores 4.5.
        // TOP3(w2) = {p1, q, p2} per Figure 1(c) → rank 2 → in BRTOP3.
        assert_eq!(rank_of_point(&t, &[0.5, 0.5], &q), 2);
        // Anna (0.3,0.7): scores 1.3,3.9,6.6,4.8,5.6,7.1,5.8 vs q=4 → rank 3.
        assert_eq!(rank_of_point(&t, &[0.3, 0.7], &q), 3);
        // Julia (0.9,0.1): p1,p3,p7 better → rank 4 (why-not!).
        assert_eq!(rank_of_point(&t, &[0.9, 0.1], &q), 4);
    }

    #[test]
    fn scan_tree_and_flat_kernel_ranks_agree_on_figure_1() {
        // Regression: all three rank engines must agree point-for-point
        // on the paper's dataset, for every dataset point and the query.
        let pts = fig_points();
        let t = RTree::bulk_load(2, &pts);
        let flat = FlatPoints::from_row_major(2, &pts);
        let weights = [[0.1, 0.9], [0.5, 0.5], [0.3, 0.7], [0.9, 0.1]];
        let mut queries: Vec<[f64; 2]> = pts.chunks_exact(2).map(|p| [p[0], p[1]]).collect();
        queries.push([4.0, 4.0]);
        for w in &weights {
            for q in &queries {
                let scan = rank_of_point_scan(&pts, w, q);
                assert_eq!(rank_of_point(&t, w, q), scan, "tree vs scan {w:?} {q:?}");
                let flat_rank = flat.count_better_than(w, score(w, q)) + 1;
                assert_eq!(flat_rank, scan, "flat vs scan {w:?} {q:?}");
            }
        }
    }

    #[test]
    fn membership_matches_paper_reverse_top3() {
        let t = RTree::bulk_load(2, &fig_points());
        let q = [4.0, 4.0];
        let mut ctx = ProbeCtx::new();
        assert!(!is_in_topk(&t, &[0.1, 0.9], &q, 3, &mut ctx)); // Kevin
        assert!(is_in_topk(&t, &[0.5, 0.5], &q, 3, &mut ctx)); // Tony
        assert!(is_in_topk(&t, &[0.3, 0.7], &q, 3, &mut ctx)); // Anna
        assert!(!is_in_topk(&t, &[0.9, 0.1], &q, 3, &mut ctx)); // Julia

        // Everyone admits q at k = 4 (Lemma 4: k'max = 4 in the example).
        for w in [[0.1, 0.9], [0.5, 0.5], [0.3, 0.7], [0.9, 0.1]] {
            assert!(is_in_topk(&t, &w, &q, 4, &mut ctx));
        }
    }

    #[test]
    fn tie_keeps_query_in_topk() {
        // A point tying with q does not push q out (≤ semantics).
        let pts = vec![1.0, 1.0, 2.0, 2.0];
        let t = RTree::bulk_load(2, &pts);
        let q = [2.0, 2.0]; // ties with the second point under any weight
        assert_eq!(rank_of_point(&t, &[0.5, 0.5], &q), 2);
        assert!(is_in_topk(&t, &[0.5, 0.5], &q, 2, &mut ProbeCtx::new()));
    }

    #[test]
    fn k_zero_is_never_member_and_probes_nothing() {
        let t = RTree::bulk_load(2, &fig_points());
        let mut ctx = ProbeCtx::new();
        assert!(!is_in_topk(&t, &[0.5, 0.5], &[0.0, 0.0], 0, &mut ctx));
        assert_eq!(ctx.nodes_visited, 0);
    }

    #[test]
    fn probes_account_their_nodes_in_the_context() {
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let mut ctx = ProbeCtx::new();
        assert!(!is_in_topk(&t, &[0.1, 0.9], &[4.0, 4.0], 3, &mut ctx));
        let first = ctx.nodes_visited;
        assert!(first > 0);
        is_in_topk(&t, &[0.1, 0.9], &[4.0, 4.0], 3, &mut ctx);
        assert_eq!(ctx.nodes_visited, 2 * first, "the counter accumulates");
    }
}
