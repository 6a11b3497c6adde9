//! Bichromatic reverse top-k queries (Definition 3 of the paper).
//!
//! Given products `P`, customer weighting vectors `W`, a query product `q`
//! and `k`, return every `w ∈ W` with `q ∈ TOPk(w)`.
//!
//! * [`bichromatic_reverse_topk_naive`] — an independent rank scan per
//!   weight over the raw points (the correctness oracle);
//! * [`ScoreTable`] — the serving path for a *named* population, whose
//!   weights never change: for every weight the `t` smallest base
//!   scores, built once per base. `q` is a member for `w` iff fewer than
//!   `k` live points score strictly below `f(w, q)`, and with the scores
//!   sorted that is one comparison against the `k`-th, corrected by
//!   counting through an overlay ([`ScoreTable::reverse_topk`]);
//! * [`bichromatic_reverse_topk_rta`] — RTA, the one entry point for
//!   every other weight list: inline populations, `k` past the table's
//!   depth, a population the engine builds no table for, and a sampled
//!   mono's drawn population ([`crate::mrtopk_nd`]). Weights are processed in
//!   similarity order; a rolling *culprit pool* (points
//!   recently proven strictly better than `q`) provides the threshold
//!   test via the fused [`count_better_rows`] kernel, and weights that
//!   survive it go to the early-exit membership probe, which refills the
//!   pool with the culprits it encounters — no per-weight top-k, no
//!   per-weight allocation. The pool test is sound for *any* pool
//!   contents: pool members are dataset points, so `k` of them scoring
//!   strictly below `f(w, q)` proves `rank(q, w) > k` regardless of how
//!   the pool was assembled.
//!
//! The entry point runs on the caller's [`ProbeCtx`] (in the engine, the
//! worker's warm one). Its halves, [`rta_sorted_order`] and
//! [`rta_over_order`], are public only so the `differential` test can
//! split an order into contiguous chunks, run each on its own context,
//! and check that the concatenated verdicts equal one unsharded run.

use crate::rank::is_in_topk;
use crate::snapshot::{ProbeCtx, Snapshot};
use wqrtq_geom::{count_better_rows, Point, Weight};
use wqrtq_rtree::{ProbeScratch, RTree};

/// Work counters of the RTA runs on one [`ProbeCtx`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtaStats {
    /// Weights decided without an index probe (culprit pool or overlay
    /// sweep).
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

/// One population's score table over one base: for every weight, the
/// `depth` smallest base scores (tombstoned rows included — an overlay
/// is corrected by counting, so no ids are stored), padded with `+∞`
/// past the base's last row.
///
/// The layout is rank-major: row `r` holds every weight's `(r + 1)`-th
/// score, so an overlay-free request reads the one contiguous row `k − 1`.
/// Scores are the same `dot` the query side and the naive oracle use (up
/// to the sign of a zero), so every comparison is exact.
#[derive(Debug)]
pub struct ScoreTable {
    depth: usize,
    width: usize,
    scores: Vec<f64>,
}

impl ScoreTable {
    /// Builds the `depth`-deep table of `weights` over every row of
    /// `tree`, each weight's scores from [`RTree::topk_into`].
    ///
    /// # Panics
    /// Panics if a weight's dimensionality differs from the tree's.
    pub fn build(tree: &RTree, weights: &[Weight], depth: usize) -> Self {
        let width = weights.len();
        let mut scores = vec![f64::INFINITY; depth * width];
        let mut scratch = ProbeScratch::default();
        for (i, w) in weights.iter().enumerate() {
            let mut slots = scores.iter_mut().skip(i).step_by(width.max(1));
            tree.topk_into(
                w.as_slice(),
                depth,
                |_| false,
                &mut scratch,
                |_, s| slots.next().map(|slot| *slot = s).is_some(),
            );
        }
        Self {
            depth,
            width,
            scores,
        }
    }

    /// Scores stored per weight.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Every weight's `(r + 1)`-th smallest base score.
    fn row(&self, r: usize) -> &[f64] {
        &self.scores[r * self.width..(r + 1) * self.width]
    }

    /// How many of weight `i`'s stored scores lie strictly below `s` —
    /// the base's exact count while it is below the depth.
    fn stored_below(&self, i: usize, s: f64) -> usize {
        let (mut lo, mut hi) = (0, self.depth);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.scores[mid * self.width + i] < s {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The bichromatic reverse top-k of `q` over the snapshot's live rows,
    /// for the population this table was built from over the snapshot's
    /// base: the qualifying indices in ascending order, equal to
    /// [`bichromatic_reverse_topk_naive`]'s. `None` when the table does
    /// not serve the request — `k` (clamped to `live + 1`) is deeper than
    /// the table, or `weights` is not the table's width.
    ///
    /// Without an overlay, `w` is a member iff its `k`-th score is not
    /// below `f(w, q)`. Through one, with `p` stored scores below
    /// `f(w, q)`, `live_better = p − dead_better + delta_better` is exact
    /// while `p < depth`; at `p = depth` the base count is only known to
    /// be `≥ depth`, which still rules `w` out when
    /// `depth − dead_better + delta_better ≥ k` — otherwise that one
    /// weight is decided by [`is_in_topk`] on `ctx`. (Differences
    /// saturate at 0: the dead better rows are among the base's.)
    pub fn reverse_topk<'a>(
        &self,
        snap: impl Into<Snapshot<'a>>,
        weights: &[Weight],
        q: &[f64],
        k: usize,
        ctx: &mut ProbeCtx,
    ) -> Option<Vec<usize>> {
        let snap = snap.into();
        if weights.len() != self.width {
            return None;
        }
        if k == 0 {
            return Some(Vec::new());
        }
        let k = k.min(snap.live_len() + 1);
        if k > self.depth {
            return None;
        }
        let Some(view) = snap.mutated() else {
            let kth = self.row(k - 1);
            let members = weights.iter().zip(kth).enumerate();
            return Some(
                members
                    .filter(|(_, (w, &kth))| kth >= w.score(q))
                    .map(|(i, _)| i)
                    .collect(),
            );
        };
        let mut members = Vec::new();
        for (i, w) in weights.iter().enumerate() {
            let (w, sq) = (w.as_slice(), w.score(q));
            let p = self.stored_below(i, sq);
            // Live base rows below `sq`: exact while `p < depth` (every
            // dead one is then stored), a lower bound at `p = depth`. The
            // tombstones are swept first: they are few, and most outranked
            // weights are decided before the appended rows are.
            let base_live = p.saturating_sub(view.count_better_dead(w, sq));
            let member = base_live < k
                && base_live + view.count_better_delta(w, sq) < k
                && (p < self.depth || is_in_topk(snap, w, q, k, ctx));
            if member {
                members.push(i);
            }
        }
        Some(members)
    }
}

/// The similarity order RTA processes weights in: lexicographic over the
/// entries, so adjacent weights are close and their culprit sets
/// transfer well. Computed once per request and handed to
/// [`rta_over_order`].
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

/// RTA-style bichromatic reverse top-k over a snapshot, on `ctx`: the
/// qualifying indices in ascending order (incomplete if `ctx`'s cancel
/// flag stopped the run).
pub fn bichromatic_reverse_topk_rta<'a>(
    snap: impl Into<Snapshot<'a>>,
    weights: &[Weight],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<usize> {
    let order = rta_sorted_order(weights);
    let mut result = rta_over_order(snap, weights, &order, q, k, ctx);
    result.sort_unstable();
    result
}

/// Runs RTA over one contiguous slice of a similarity order (see
/// [`rta_sorted_order`]). Returns the qualifying original indices in
/// traversal order (callers sort); the prune/verify split is added to
/// `ctx.rta`.
///
/// Each call maintains its own culprit pool inside `ctx` (cleared on
/// entry), so verdicts never depend on what the context served before,
/// nor — when `differential` splits an order into slices — on the other
/// slices.
///
/// A set cancel flag on `ctx` stops the run within 256 weights.
///
/// Verdicts are those of the naive scan over the snapshot's live rows.
/// Every weight is corrected by the `O(Δ)` appended/tombstoned sweeps
/// (both zero for an un-mutated snapshot), the pool keeps only *live*
/// base points (a tombstoned culprit would prune unsoundly), and the
/// base probe's count target shifts by the overlay corrections. Per
/// weight, with `sq = f(w, q)`:
///
/// 1. `d_add` live appended rows beat `q`; if `d_add ≥ k`, `q` is out.
/// 2. The pool holds live base points; `pool_better ≥ k − d_add` proves
///    at least `k` live points beat `q` — out, no index work.
/// 3. Otherwise probe the base index for target
///    `cap = k − d_add + d_dead`: the probe decides `base_all < cap`,
///    which is exactly `live_better < k`, and refills the pool with the
///    culprits it scored. The pool keeps at most 2k recent culprits:
///    enough slack that the k needed for a prune survive drift across
///    the sorted weights, small enough that the fused count kernel
///    stays in L1.
pub fn rta_over_order<'a>(
    snap: impl Into<Snapshot<'a>>,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    ctx: &mut ProbeCtx,
) -> Vec<usize> {
    let snap = snap.into();
    if k == 0 {
        return Vec::new();
    }
    // Past `live + 1` every `k` admits every weight; the clamp keeps the
    // pool size (`2k`) and the overlay-adjusted caps from overflowing.
    let k = k.min(snap.live_len() + 1);
    ctx.warm = true;
    ctx.pool.clear();
    ctx.pool_ids.clear();
    let view = snap.mutated();
    let mut result = Vec::new();
    for (n, &idx) in order.iter().enumerate() {
        if ctx.cancelled_at(n) {
            break;
        }
        let w = weights[idx].as_slice();
        let sq = weights[idx].score(q);
        let d_add = view.map_or(0, |v| v.count_better_delta(w, sq));
        if d_add >= k || pool_outranks(ctx, w, sq, k - d_add) {
            ctx.rta.buffer_prunes += 1;
            continue;
        }
        let cap = k - d_add + view.map_or(0, |v| v.count_better_dead(w, sq));
        ctx.rta.tree_verifications += 1;
        if ctx.probe(snap, w, sq, cap, true) {
            result.push(idx);
        }
        let is_dead = |id| view.is_some_and(|v| v.is_deleted(id));
        ctx.pool_fresh(snap.dim(), 2 * k, is_dead);
    }
    result
}

/// Whether `k` distinct pooled dataset points strictly beat `sq` under
/// `w` — proof that `q` is outranked, with zero index work.
fn pool_outranks(ctx: &ProbeCtx, w: &[f64], sq: f64, k: usize) -> bool {
    ctx.pool_ids.len() >= k && count_better_rows(&ctx.pool, w, sq) >= k
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut ctx = ProbeCtx::new();
        let res =
            bichromatic_reverse_topk_rta(&fig_tree(), &fig_customers(), &[4.0, 4.0], 3, &mut ctx);
        assert_eq!(res, vec![1, 2]);
        assert_eq!(ctx.rta.buffer_prunes + ctx.rta.tree_verifications, 4);
    }

    #[test]
    fn k_larger_than_dataset_returns_everyone() {
        let res =
            bichromatic_reverse_topk_naive(&fig_products(), &fig_customers(), &[4.0, 4.0], 100);
        assert_eq!(res, vec![0, 1, 2, 3]);
        let rta = bichromatic_reverse_topk_rta(
            &fig_tree(),
            &fig_customers(),
            &[4.0, 4.0],
            100,
            &mut ProbeCtx::new(),
        );
        assert_eq!(rta, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_weights_and_k_zero() {
        assert!(bichromatic_reverse_topk_naive(&fig_products(), &[], &[4.0, 4.0], 3).is_empty());
        let mut ctx = ProbeCtx::new();
        let res =
            bichromatic_reverse_topk_rta(&fig_tree(), &fig_customers(), &[4.0, 4.0], 0, &mut ctx);
        assert!(res.is_empty());
        let res = bichromatic_reverse_topk_rta(&fig_tree(), &[], &[4.0, 4.0], 3, &mut ctx);
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
        let res = bichromatic_reverse_topk_rta(&tree, &weights, &q, 5, &mut ctx);
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
        bichromatic_reverse_topk_rta(&tree, &weights, &[4.0, 4.0], 3, &mut ctx);
        assert!(ctx.is_warm());
    }

    #[test]
    fn a_set_cancel_flag_stops_a_run_within_one_chunk() {
        use crate::snapshot::CANCEL_POLL_CHUNK;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut state = 99u64;
        let mut unit = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<f64> = (0..2_000 * 3).map(|_| unit()).collect();
        let tree = RTree::bulk_load(3, &pts);
        let weights: Vec<Weight> = (0..10_000)
            .map(|_| Weight::normalized(vec![unit() + 0.01, unit() + 0.01, unit() + 0.01]))
            .collect();
        let q = [0.05, 0.1, 0.08];
        let mut plain = ProbeCtx::new();
        let full = bichromatic_reverse_topk_rta(&tree, &weights, &q, 10, &mut plain);
        assert!(!full.is_empty() && full.len() < weights.len());

        let flag = Arc::new(AtomicBool::new(false));
        let mut unset = ProbeCtx::new();
        unset.cancel = Some(flag.clone());
        let got = bichromatic_reverse_topk_rta(&tree, &weights, &q, 10, &mut unset);
        assert_eq!(got, full, "an unset flag changes nothing");
        assert!(!unset.is_cancelled());
        assert_eq!(unset.rta, plain.rta);

        flag.store(true, Ordering::Release);
        let mut set = ProbeCtx::new();
        set.cancel = Some(flag);
        bichromatic_reverse_topk_rta(&tree, &weights, &q, 10, &mut set);
        assert!(set.is_cancelled());
        let decided = set.rta.buffer_prunes + set.rta.tree_verifications;
        assert!(
            decided <= CANCEL_POLL_CHUNK,
            "{decided} weights after the flag"
        );
    }
}
