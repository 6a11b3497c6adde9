//! Bichromatic reverse top-k queries (Definition 3 of the paper).
//!
//! Given products `P`, customer weighting vectors `W`, a query product `q`
//! and `k`, return every `w ∈ W` with `q ∈ TOPk(w)`.
//!
//! * [`bichromatic_reverse_topk_naive`] — an independent rank scan per
//!   weight over the raw points (the correctness oracle);
//! * [`bichromatic_reverse_topk_rta`] — the RTA hot path: weights are
//!   processed in similarity order; a rolling *culprit pool* (points
//!   recently proven strictly better than `q`) provides the threshold
//!   test via the fused [`count_better_rows`] kernel, and weights that
//!   survive it go to the early-exit membership probe, which refills the
//!   pool with the culprits it encounters — no per-weight top-k, no
//!   per-weight allocation. The pool test is sound for *any* pool
//!   contents: pool members are dataset points, so `k` of them scoring
//!   strictly below `f(w, q)` proves `rank(q, w) > k` regardless of how
//!   the pool was assembled. When the snapshot's mask has a culprit
//!   plane covering the verdict's cap, a capped count over that skyband
//!   replaces the probe; the tree is never probed through the mask.
//!
//! The hot path is exposed in shardable form ([`rta_sorted_order`] +
//! [`rta_over_order`]): a serving engine computes the similarity order
//! once, splits it into contiguous chunks, and runs each chunk on a
//! different worker with its own [`ProbeCtx`] — results merge by
//! concatenation because every chunk's verdicts are independent.

use crate::snapshot::{ProbeCtx, Snapshot};
use wqrtq_geom::{count_better_rows, DeltaView, Point, Weight};
use wqrtq_rtree::DominanceIndex;

/// Work counters of the RTA runs on one [`ProbeCtx`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtaStats {
    /// Weights decided without an index probe (culprit pool, overlay
    /// sweep or culprit plane).
    pub buffer_prunes: usize,
    /// Weights that needed an index probe.
    pub tree_verifications: usize,
}

/// Naive bichromatic reverse top-k: a full rank scan per weight.
/// Returns the indices (into `weights`) of the qualifying vectors, in
/// ascending order.
pub fn bichromatic_reverse_topk_naive(
    points: &[Point],
    weights: &[Weight],
    q: &[f64],
    k: usize,
) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, w) in weights.iter().enumerate() {
        let sq = w.score(q);
        let better = points.iter().filter(|p| w.score(p) < sq).count();
        if better < k {
            out.push(i);
        }
    }
    out
}

/// The similarity order RTA processes weights in: lexicographic over the
/// entries, so adjacent weights are close and their culprit sets
/// transfer well. Engines sharding [`rta_over_order`] compute it once.
pub fn rta_sorted_order(weights: &[Weight]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        weights[a]
            .as_slice()
            .iter()
            .zip(weights[b].as_slice())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// RTA-style bichromatic reverse top-k over a snapshot — the one-shot
/// wrapper over [`rta_over_order`]. Returns qualifying indices in
/// ascending order.
pub fn bichromatic_reverse_topk_rta<'a>(
    snap: impl Into<Snapshot<'a>>,
    weights: &[Weight],
    q: &[f64],
    k: usize,
) -> Vec<usize> {
    let order = rta_sorted_order(weights);
    let mut result = rta_over_order(snap, weights, &order, q, k, &mut ProbeCtx::new());
    result.sort_unstable();
    result
}

/// Runs RTA over one contiguous slice of a similarity order (see
/// [`rta_sorted_order`]). Returns the qualifying original indices in
/// traversal order (callers sort after merging shards); the prune/verify
/// split is added to `ctx.rta`.
///
/// Sharding-safe: each call maintains its own culprit pool inside `ctx`
/// (cleared on entry), so verdicts never depend on other shards or on
/// what the context served before.
///
/// Verdicts are those of the naive scan over the snapshot's live rows,
/// whatever the snapshot carries; the mask's culprit planes, when one
/// covers `k`, only shift the prune/verify split. An un-mutated snapshot
/// takes the plane loop when a plane covers `k` and the seeded-pool loop
/// otherwise, a mutated one the overlay-corrected loop — their pools
/// differ in what may enter them (plane-local ids cannot be
/// tombstone-checked).
pub fn rta_over_order<'a>(
    snap: impl Into<Snapshot<'a>>,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<usize> {
    let snap = snap.into();
    if order.is_empty() || k == 0 {
        return Vec::new();
    }
    ctx.warm = true;
    ctx.pool.clear();
    ctx.pool_ids.clear();
    let plane = snap.dom.filter(|d| d.plane_usable_for(k));
    match (snap.mutated(), plane) {
        (Some(view), _) => rta_mutated(snap, view, weights, order, q, k, ctx),
        (None, Some(d)) => rta_plane(snap, d, weights, order, q, k, ctx),
        (None, None) => rta_plain(snap, weights, order, q, k, ctx),
    }
}

/// Whether `k` distinct pooled dataset points strictly beat `sq` under
/// `w` — proof that `q` is outranked, with zero index work.
fn pool_outranks(ctx: &ProbeCtx, w: &Weight, sq: f64, k: usize) -> bool {
    ctx.pool_ids.len() >= k && count_better_rows(&ctx.pool, w, sq) >= k
}

/// Un-mutated snapshot whose mask has a culprit plane covering `k`: a
/// point with ≥ k dominators can never be a top-k member or a culprit,
/// so every verdict is a capped count over the compact k-skyband — no
/// tree probes at all. A rolling culprit pool still fronts the plane:
/// most outranked weights are rejected by re-scoring ~2k recent culprit
/// rows (a dozen FLOPs), and whenever the plane does rule a weight out,
/// the pool is refreshed with culprits sampled from the same skyband, so
/// it tracks the sorted weight walk. Pool ids here are *plane-local*
/// indices — which is why this loop cannot serve a mutated snapshot
/// (they cannot be tombstone-checked). Weights with negative entries
/// (where the dominance argument fails) fall back to an exact probe
/// individually.
fn rta_plane(
    snap: Snapshot<'_>,
    d: &DominanceIndex,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<usize> {
    let mut result = Vec::new();
    for &idx in order {
        let w = &weights[idx];
        let sq = w.score(q);
        if pool_outranks(ctx, w, sq, k) {
            ctx.rta.buffer_prunes += 1;
            continue;
        }
        match d.plane_outranked(w.as_slice(), sq, k) {
            Some(outranked) => {
                ctx.rta.buffer_prunes += 1;
                if outranked {
                    ctx.fresh.clear();
                    d.plane_culprits_into(w.as_slice(), sq, k, 2 * k, &mut ctx.fresh);
                    ctx.pool_fresh(snap.dim(), 2 * k, |_| false);
                } else {
                    result.push(idx);
                }
            }
            None => {
                ctx.rta.tree_verifications += 1;
                if ctx.probe(snap, w.as_slice(), sq, k, false) {
                    result.push(idx);
                }
            }
        }
    }
    result
}

/// Un-mutated snapshot without a plane covering `k`, probing the tree.
/// The pool keeps at most 2k recent culprits: enough slack that the k
/// needed for a prune survive drift across the sorted weights, small
/// enough that the fused count kernel stays in L1.
fn rta_plain(
    snap: Snapshot<'_>,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<usize> {
    let mut result = Vec::new();

    // Seed: the first weight's exact top-k both decides its membership
    // (q is in iff fewer than k of the k best strictly beat it — every
    // other point scores no better than the k-th) and fills the pool.
    let first = order[0];
    let w0 = &weights[first];
    let sq0 = w0.score(q);
    ctx.rta.tree_verifications += 1;
    let mut seeded_better = 0usize;
    let mut bf = snap.tree.best_first(w0);
    for _ in 0..k {
        let Some(r) = bf.next_entry() else { break };
        if r.score < sq0 {
            seeded_better += 1;
        }
        ctx.pool_ids.push(r.id);
        ctx.pool.extend_from_slice(r.coords);
    }
    if seeded_better < k {
        result.push(first);
    }

    for &idx in &order[1..] {
        let w = &weights[idx];
        let sq = w.score(q);
        if pool_outranks(ctx, w, sq, k) {
            ctx.rta.buffer_prunes += 1;
            continue;
        }
        ctx.rta.tree_verifications += 1;
        if ctx.probe(snap, w.as_slice(), sq, k, true) {
            result.push(idx);
        }
        ctx.pool_fresh(snap.dim(), 2 * k, |_| false);
    }
    result
}

/// Mutated snapshot: every weight's verdict is corrected by the `O(Δ)`
/// appended/tombstoned sweeps, the culprit pool keeps only *live* base
/// points (a tombstoned culprit would prune unsoundly), and the base
/// probe's count target shifts by the overlay corrections — so the
/// verdicts are exactly those of a dataset rebuilt from the live rows.
///
/// Soundness of the pruning ladder, per weight with `sq = f(w, q)`:
///
/// 1. `d_add` live appended rows beat `q`; if `d_add ≥ k`, `q` is out.
/// 2. The pool holds live base points; `pool_better ≥ k − d_add` proves
///    at least `k` live points beat `q` — out, no index work.
/// 3. Every base point better than `q` — live or tombstoned — either
///    sits in the mask's k-skyband plane or has `cap` dominators that
///    do, so a capped plane count with `cap = k − d_add + d_dead`
///    decides the verdict exactly.
/// 4. Otherwise probe the base index for target `cap`: the probe decides
///    `base_all < k − d_add + d_dead`, which is exactly
///    `live_better < k`.
fn rta_mutated(
    snap: Snapshot<'_>,
    view: &DeltaView,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<usize> {
    let mut result = Vec::new();
    for &idx in order {
        let w = &weights[idx];
        let sq = w.score(q);
        let d_add = view.count_better_delta(w.as_slice(), sq);
        if d_add >= k || pool_outranks(ctx, w, sq, k - d_add) {
            ctx.rta.buffer_prunes += 1;
            continue;
        }
        let cap = k - d_add + view.count_better_dead(w.as_slice(), sq);
        if let Some(outranked) = snap
            .dom
            .and_then(|d| d.plane_outranked(w.as_slice(), sq, cap))
        {
            ctx.rta.buffer_prunes += 1;
            if !outranked {
                result.push(idx);
            }
            continue;
        }
        ctx.rta.tree_verifications += 1;
        if ctx.probe(snap, w.as_slice(), sq, cap, true) {
            result.push(idx);
        }
        ctx.pool_fresh(snap.dim(), 2 * k, |id| view.is_deleted(id));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::is_in_topk;
    use wqrtq_rtree::RTree;

    // The bit-identical-to-naive contract of every snapshot shape
    // (sharded and unsharded, cold and warm context) lives in
    // `tests/differential.rs`.

    fn fig_products() -> Vec<Point> {
        [
            [2.0, 1.0],
            [6.0, 3.0],
            [1.0, 9.0],
            [9.0, 3.0],
            [7.0, 5.0],
            [5.0, 8.0],
            [3.0, 7.0],
        ]
        .into_iter()
        .map(Point::from)
        .collect()
    }

    fn fig_customers() -> Vec<Weight> {
        vec![
            Weight::new(vec![0.1, 0.9]), // Kevin
            Weight::new(vec![0.5, 0.5]), // Tony
            Weight::new(vec![0.3, 0.7]), // Anna
            Weight::new(vec![0.9, 0.1]), // Julia
        ]
    }

    fn fig_tree() -> RTree {
        let flat: Vec<f64> = fig_products()
            .iter()
            .flat_map(|p| p.coords().to_vec())
            .collect();
        RTree::bulk_load(2, &flat)
    }

    #[test]
    fn paper_example_brtop3_is_tony_and_anna() {
        let res = bichromatic_reverse_topk_naive(&fig_products(), &fig_customers(), &[4.0, 4.0], 3);
        assert_eq!(res, vec![1, 2]); // Tony, Anna
    }

    #[test]
    fn rta_matches_naive_on_paper_example() {
        let weights = fig_customers();
        let mut ctx = ProbeCtx::new();
        let mut res = rta_over_order(
            &fig_tree(),
            &weights,
            &rta_sorted_order(&weights),
            &[4.0, 4.0],
            3,
            &mut ctx,
        );
        res.sort_unstable();
        assert_eq!(res, vec![1, 2]);
        assert_eq!(ctx.rta.buffer_prunes + ctx.rta.tree_verifications, 4);
    }

    #[test]
    fn k_larger_than_dataset_returns_everyone() {
        let res =
            bichromatic_reverse_topk_naive(&fig_products(), &fig_customers(), &[4.0, 4.0], 100);
        assert_eq!(res, vec![0, 1, 2, 3]);
        let rta = bichromatic_reverse_topk_rta(&fig_tree(), &fig_customers(), &[4.0, 4.0], 100);
        assert_eq!(rta, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_weights_and_k_zero() {
        assert!(bichromatic_reverse_topk_naive(&fig_products(), &[], &[4.0, 4.0], 3).is_empty());
        let res = bichromatic_reverse_topk_rta(&fig_tree(), &fig_customers(), &[4.0, 4.0], 0);
        assert!(res.is_empty());
        let res = bichromatic_reverse_topk_rta(&fig_tree(), &[], &[4.0, 4.0], 3);
        assert!(res.is_empty());
    }

    #[test]
    fn rta_prunes_with_many_similar_weights() {
        // A dense fan of weights on a dataset where q is far from the top:
        // most weights should be rejected by the culprit pool alone.
        let mut pts = Vec::new();
        let mut state = 12345u64;
        for _ in 0..500 {
            for _ in 0..2 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                pts.push((state >> 11) as f64 / (1u64 << 53) as f64);
            }
        }
        let tree = RTree::bulk_load(2, &pts);
        let weights: Vec<Weight> = (1..100)
            .map(|i| Weight::from_first_2d(i as f64 / 100.0))
            .collect();
        let q = [0.9, 0.9]; // dominated by many points: never in top-k
        let mut ctx = ProbeCtx::new();
        let res = rta_over_order(
            &tree,
            &weights,
            &rta_sorted_order(&weights),
            &q,
            5,
            &mut ctx,
        );
        assert!(res.is_empty());
        assert!(
            ctx.rta.buffer_prunes > ctx.rta.tree_verifications,
            "expected the pool to do most of the work: {:?}",
            ctx.rta
        );
    }

    #[test]
    fn only_an_rta_run_warms_a_context() {
        // The serving layer's `scratch_reuses` metric counts requests
        // that found the culprit pool already allocated.
        let tree = fig_tree();
        let weights = fig_customers();
        let mut ctx = ProbeCtx::new();
        assert!(!ctx.is_warm());
        is_in_topk(&tree, &[0.5, 0.5], &[4.0, 4.0], 3, &mut ctx);
        assert!(!ctx.is_warm());
        rta_over_order(&tree, &weights, &[0, 1, 2, 3], &[4.0, 4.0], 3, &mut ctx);
        assert!(ctx.is_warm());
    }
}
