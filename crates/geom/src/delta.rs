//! The delta-overlay dataset snapshot: a bulk-built base plus a small
//! mutable tail, served without rebuilding anything.
//!
//! A live dataset is a *base* (the column-major [`FlatPoints`] mirror of
//! whatever the R-tree was bulk-loaded from) overlaid with two small
//! row-major sets: rows **appended** since the base was built and base
//! rows **tombstoned** (deleted) since. [`DeltaView`] is an immutable,
//! cheaply clonable (`Arc`-backed) snapshot of that triple. Every rank
//! primitive decomposes over it exactly:
//!
//! ```text
//! |{live p : f(w, p) < t}| = base_count(t) − dead_count(t) + delta_count(t)
//! ```
//!
//! where `base_count` is the fused [`FlatPoints::count_better_than`]
//! kernel (or an R-tree probe — the view never assumes which engine
//! counted the base) and the two corrections are
//! [`count_better_rows`] sweeps over buffers of overlay size `O(Δ)`.
//! Compaction only bounds `Δ` (the engine's default lets it reach
//! `max(1024, base/4)` rows), so a mutated dataset answers queries at
//! base cost plus two linear sweeps per threshold — at the bound those
//! sweeps, not the base probe, are most of a rank or RTA verdict — and
//! answers them **identically** to a dataset rebuilt from scratch, which
//! is the invariant the engine's differential fuzz enforces.
//!
//! ## Point identity
//!
//! Base rows keep the ids they were bulk-loaded with (`0..base_len`);
//! appended rows are assigned the next ids in append order and keep them
//! even when earlier appended rows are deleted. Ids are scoped to one
//! base epoch: compaction rebuilds the base from the live rows in
//! *canonical order* — surviving base rows ascending by id, then
//! surviving appended rows in append order, exactly what
//! [`DeltaView::materialize_row_major`] emits — and re-assigns dense ids.

use crate::dot;
use crate::flat::{count_better_rows, FlatPoints};
use std::sync::Arc;

/// An immutable snapshot of a dataset as *base + delta − tombstones*.
///
/// All five components are `Arc`-shared: cloning a view is a handful of
/// reference-count bumps, so serving layers can hand one to every worker
/// per request.
#[derive(Clone, Debug)]
pub struct DeltaView {
    base: Arc<FlatPoints>,
    /// Row-major coordinates of live appended rows, in append order.
    delta_rows: Arc<Vec<f64>>,
    /// Stable ids parallel to `delta_rows` (strictly ascending, all
    /// `>= base_len`).
    delta_ids: Arc<Vec<u32>>,
    /// Row-major coordinates of tombstoned *base* rows.
    dead_rows: Arc<Vec<f64>>,
    /// Sorted ids parallel to `dead_rows`... sorted ascending so
    /// [`DeltaView::is_deleted`] is a binary search.
    dead_ids: Arc<Vec<u32>>,
}

impl DeltaView {
    /// A plain (overlay-free) view of a base: no appends, no tombstones.
    pub fn plain(base: Arc<FlatPoints>) -> Self {
        Self {
            base,
            delta_rows: Arc::new(Vec::new()),
            delta_ids: Arc::new(Vec::new()),
            dead_rows: Arc::new(Vec::new()),
            dead_ids: Arc::new(Vec::new()),
        }
    }

    /// Assembles a view from its parts.
    ///
    /// # Panics
    /// Panics if the buffers are ragged against the base dimensionality,
    /// the id lists do not parallel their coordinate buffers, `dead_ids`
    /// is not sorted ascending (or names an id outside the base), or
    /// `delta_ids` is not strictly ascending starting at or above
    /// `base_len`.
    pub fn new(
        base: Arc<FlatPoints>,
        delta_rows: Arc<Vec<f64>>,
        delta_ids: Arc<Vec<u32>>,
        dead_rows: Arc<Vec<f64>>,
        dead_ids: Arc<Vec<u32>>,
    ) -> Self {
        let dim = base.dim();
        assert_eq!(delta_rows.len(), delta_ids.len() * dim, "ragged delta");
        assert_eq!(dead_rows.len(), dead_ids.len() * dim, "ragged tombstones");
        assert!(
            delta_ids.windows(2).all(|w| w[0] < w[1]),
            "delta ids must be strictly ascending"
        );
        assert!(
            delta_ids
                .first()
                .is_none_or(|&id| id as usize >= base.len()),
            "delta ids must sit above the base id range"
        );
        assert!(
            dead_ids.windows(2).all(|w| w[0] < w[1]),
            "tombstone ids must be strictly ascending"
        );
        assert!(
            dead_ids.last().is_none_or(|&id| (id as usize) < base.len()),
            "tombstones name base rows only"
        );
        Self {
            base,
            delta_rows,
            delta_ids,
            dead_rows,
            dead_ids,
        }
    }

    /// The base snapshot.
    #[inline]
    pub fn base(&self) -> &FlatPoints {
        &self.base
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Number of base rows (live or tombstoned).
    #[inline]
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Number of live appended rows.
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.delta_ids.len()
    }

    /// Number of tombstoned base rows.
    #[inline]
    pub fn tombstone_len(&self) -> usize {
        self.dead_ids.len()
    }

    /// Number of live points.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.base_len() - self.tombstone_len() + self.delta_len()
    }

    /// Whether no live points exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Whether the view carries no overlay at all — the hot-path guard
    /// that lets callers fall through to their plain base kernels.
    #[inline]
    pub fn is_plain(&self) -> bool {
        self.delta_ids.is_empty() && self.dead_ids.is_empty()
    }

    /// Row-major coordinates of the live appended rows.
    #[inline]
    pub fn delta_rows(&self) -> &[f64] {
        &self.delta_rows
    }

    /// Stable ids of the live appended rows (parallel to
    /// [`DeltaView::delta_rows`]).
    #[inline]
    pub fn delta_ids(&self) -> &[u32] {
        &self.delta_ids
    }

    /// Row-major coordinates of the tombstoned base rows.
    #[inline]
    pub fn dead_rows(&self) -> &[f64] {
        &self.dead_rows
    }

    /// Sorted ids of the tombstoned base rows.
    #[inline]
    pub fn dead_ids(&self) -> &[u32] {
        &self.dead_ids
    }

    /// Whether a *base* id is tombstoned (binary search; the overlay is
    /// small by construction, but enumeration paths call this per
    /// candidate).
    #[inline]
    pub fn is_deleted(&self, id: u32) -> bool {
        self.dead_ids.binary_search(&id).is_ok()
    }

    /// Coordinates of the `i`-th live appended row.
    #[inline]
    pub fn delta_row(&self, i: usize) -> &[f64] {
        let dim = self.dim();
        &self.delta_rows[i * dim..(i + 1) * dim]
    }

    /// Live appended rows scoring strictly below `threshold` under `w` —
    /// the additive overlay correction.
    #[inline]
    pub fn count_better_delta(&self, w: &[f64], threshold: f64) -> usize {
        count_better_rows(&self.delta_rows, w, threshold)
    }

    /// Tombstoned base rows scoring strictly below `threshold` under `w`
    /// — the subtractive overlay correction (these rows are still inside
    /// the base index and must be discounted from whatever it reports).
    #[inline]
    pub fn count_better_dead(&self, w: &[f64], threshold: f64) -> usize {
        count_better_rows(&self.dead_rows, w, threshold)
    }

    /// Counts live points with `f(w, p) < threshold` (strict, the
    /// paper's tie semantics), fusing the base column-major kernel with
    /// the two `O(Δ)` overlay corrections.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn count_better_than(&self, w: &[f64], threshold: f64) -> usize {
        let base = self.base.count_better_than(w, threshold);
        base - self.count_better_dead(w, threshold) + self.count_better_delta(w, threshold)
    }

    /// Exact rank of `q` under `w` over the live set:
    /// `1 + #{live p : f(w, p) < f(w, q)}`.
    ///
    /// # Panics
    /// Panics if `w` or `q` has the wrong dimensionality.
    pub fn rank_of(&self, w: &[f64], q: &[f64]) -> usize {
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        self.count_better_than(w, dot(w, q)) + 1
    }

    /// Membership test `q ∈ TOPk(w)` over the live set. The base scan is
    /// capped: once `k` live better points are certain the verdict is
    /// known, so the kernel stops at the first block boundary past the
    /// adjusted cap.
    pub fn is_in_topk(&self, w: &[f64], q: &[f64], k: usize) -> bool {
        if k == 0 {
            return false;
        }
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        let sq = dot(w, q);
        let d_add = self.count_better_delta(w, sq);
        if d_add >= k {
            return false; // the delta alone outranks q
        }
        let d_dead = self.count_better_dead(w, sq);
        // Membership ⟺ base_all − dead + delta < k ⟺ base_all < cap.
        let cap = k - d_add + d_dead;
        self.base.count_better_than_capped(w, sq, cap) < cap
    }

    /// Materialises the live rows in **canonical order** — surviving
    /// base rows ascending by id, then surviving appended rows in append
    /// order — returning the row-major buffer plus the stable id of each
    /// emitted row. This is the exact layout compaction bulk-loads and
    /// the rebuilt-from-scratch oracle registers, which is what makes
    /// overlay answers comparable to oracle answers row for row.
    pub fn materialize_row_major(&self) -> (Vec<f64>, Vec<u32>) {
        let dim = self.dim();
        let mut coords = Vec::with_capacity(self.live_len() * dim);
        let mut ids = Vec::with_capacity(self.live_len());
        let mut row = vec![0.0; dim];
        for id in 0..self.base_len() as u32 {
            if self.is_deleted(id) {
                continue;
            }
            self.base.point_into(id as usize, &mut row);
            coords.extend_from_slice(&row);
            ids.push(id);
        }
        coords.extend_from_slice(&self.delta_rows);
        ids.extend_from_slice(&self.delta_ids);
        (coords, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score;

    /// The paper's Figure 1 dataset (price, heat).
    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    fn overlaid() -> DeltaView {
        // Base: the 7 paper points. Delete p2 (id 1) and p5 (id 4),
        // append (4.5, 2.0) and (0.5, 0.5) as ids 7 and 8.
        let base = Arc::new(FlatPoints::from_row_major(2, &fig_points()));
        DeltaView::new(
            base,
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        )
    }

    /// The live rows of `overlaid()`, in canonical order.
    fn live_rows() -> Vec<f64> {
        vec![
            2.0, 1.0, 1.0, 9.0, 9.0, 3.0, 5.0, 8.0, 3.0, 7.0, 4.5, 2.0, 0.5, 0.5,
        ]
    }

    #[test]
    fn plain_view_matches_base_kernels() {
        let base = Arc::new(FlatPoints::from_row_major(2, &fig_points()));
        let v = DeltaView::plain(base.clone());
        assert!(v.is_plain());
        assert_eq!(v.live_len(), 7);
        let w = [0.1, 0.9];
        assert_eq!(
            v.count_better_than(&w, 4.0),
            base.count_better_than(&w, 4.0)
        );
        assert_eq!(v.rank_of(&w, &[4.0, 4.0]), 4);
        assert!(!v.is_in_topk(&w, &[4.0, 4.0], 3));
        assert!(v.is_in_topk(&w, &[4.0, 4.0], 4));
    }

    #[test]
    fn overlay_counts_match_live_scan() {
        let v = overlaid();
        assert!(!v.is_plain());
        assert_eq!(v.base_len(), 7);
        assert_eq!(v.delta_len(), 2);
        assert_eq!(v.tombstone_len(), 2);
        assert_eq!(v.live_len(), 7);
        let live = live_rows();
        for w in [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1], [0.3, 0.7]] {
            for t in [0.5, 2.0, 3.9, 4.0, 5.5, 100.0] {
                let naive = live.chunks_exact(2).filter(|p| score(&w, p) < t).count();
                assert_eq!(v.count_better_than(&w, t), naive, "w {w:?} t {t}");
            }
        }
    }

    #[test]
    fn rank_and_membership_match_live_scan() {
        let v = overlaid();
        let live = live_rows();
        let q = [4.0, 4.0];
        for w in [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]] {
            let sq = score(&w, &q);
            let naive = live.chunks_exact(2).filter(|p| score(&w, p) < sq).count();
            assert_eq!(v.rank_of(&w, &q), naive + 1, "w {w:?}");
            for k in 0..=8 {
                assert_eq!(v.is_in_topk(&w, &q, k), k > 0 && naive < k, "w {w:?} k {k}");
            }
        }
    }

    #[test]
    fn deletion_lookup_and_delta_access() {
        let v = overlaid();
        assert!(v.is_deleted(1));
        assert!(v.is_deleted(4));
        assert!(!v.is_deleted(0));
        assert!(!v.is_deleted(7));
        assert_eq!(v.delta_ids(), &[7, 8]);
        assert_eq!(v.delta_row(0), &[4.5, 2.0]);
        assert_eq!(v.delta_row(1), &[0.5, 0.5]);
        assert_eq!(v.dead_ids(), &[1, 4]);
    }

    #[test]
    fn materialization_is_canonical() {
        let (coords, ids) = overlaid().materialize_row_major();
        assert_eq!(coords, live_rows());
        assert_eq!(ids, vec![0, 2, 3, 5, 6, 7, 8]);
        // A plain view materialises the base verbatim.
        let base = Arc::new(FlatPoints::from_row_major(2, &fig_points()));
        let (coords, ids) = DeltaView::plain(base).materialize_row_major();
        assert_eq!(coords, fig_points());
        assert_eq!(ids, (0..7).collect::<Vec<u32>>());
    }

    #[test]
    fn everything_deleted_is_empty() {
        let base = Arc::new(FlatPoints::from_row_major(2, &[1.0, 1.0, 2.0, 2.0]));
        let v = DeltaView::new(
            base,
            Arc::new(vec![]),
            Arc::new(vec![]),
            Arc::new(vec![1.0, 1.0, 2.0, 2.0]),
            Arc::new(vec![0, 1]),
        );
        assert!(v.is_empty());
        assert_eq!(v.count_better_than(&[0.5, 0.5], 100.0), 0);
        assert_eq!(v.rank_of(&[0.5, 0.5], &[3.0, 3.0]), 1);
        assert!(v.is_in_topk(&[0.5, 0.5], &[3.0, 3.0], 1));
    }

    #[test]
    #[should_panic(expected = "tombstones name base rows only")]
    fn tombstone_outside_base_rejected() {
        let base = Arc::new(FlatPoints::from_row_major(2, &[1.0, 1.0]));
        let _ = DeltaView::new(
            base,
            Arc::new(vec![]),
            Arc::new(vec![]),
            Arc::new(vec![9.0, 9.0]),
            Arc::new(vec![5]),
        );
    }
}
