//! A cache-friendly column-major (SoA) point store with fused score
//! kernels — the flat-scan engine behind the rank and reverse top-k hot
//! paths.
//!
//! Every rank decision in the why-not pipeline reduces to "how many
//! points score strictly below `f(w, q)`?". The R-tree answers that with
//! branch-and-bound; [`FlatPoints`] answers it with brute bandwidth: the
//! coordinates are stored one dimension per contiguous column, so the
//! kernels ([`FlatPoints::scores_into`], [`FlatPoints::count_better_than`])
//! stream each column sequentially in fixed-size blocks that live in a
//! stack buffer. The inner loops are plain slice zips — exactly the shape
//! LLVM auto-vectorizes — and no kernel allocates: callers pass (or the
//! kernel stack-allocates) every buffer, so a serving worker can reuse
//! its scratch across millions of requests.
//!
//! Every kernel is exact `f64` in row order: the catalog's base store is
//! this store. The Morton-clustered variant
//! with an `f32` pre-pass, [`crate::QuantizedPoints`], wraps one and
//! serves MQWK's frontier only (its module docs say why).

use crate::dot;

/// Block size of the fused kernels: big enough to amortise the per-block
/// loop overhead, small enough that one block of partial scores stays in
/// L1 (256 × 8 B = 2 KiB).
pub(crate) const BLOCK: usize = 256;

/// Per-call telemetry of one counting-kernel invocation, used by the
/// early-exit regression tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks whose per-point data was touched (quantized or exact).
    pub blocks_visited: usize,
    /// Blocks decided by their min/max bounds alone (wholesale count or
    /// wholesale skip) — no point data read. Always 0 on a
    /// [`FlatPoints`], which keeps no bounds; only
    /// [`crate::QuantizedPoints`] fills it.
    pub blocks_skipped: usize,
    /// Blocks scored through the `f32` mirror. Always 0 on a
    /// [`FlatPoints`], as [`Self::blocks_skipped`].
    pub quantized_blocks: usize,
    /// Quantized blocks that hit the ambiguity band (or an error-bound
    /// guard) and were rescored in exact `f64`. Always 0 on a
    /// [`FlatPoints`], as [`Self::blocks_skipped`].
    pub quantized_fallbacks: usize,
}

/// A column-major (structure-of-arrays) snapshot of an `n × dim` point
/// set.
///
/// Built once from the usual row-major buffer; immutable afterwards, so
/// it can be shared (`Arc`) across serving workers alongside the R-tree
/// index built from the same coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatPoints {
    n: usize,
    dim: usize,
    /// `cols[d * n + i]` is coordinate `d` of point `i`.
    cols: Vec<f64>,
}

impl FlatPoints {
    /// Builds the store from a flat row-major `n × dim` buffer (the
    /// layout used by `RTree::bulk_load` and the dataset catalog).
    ///
    /// # Panics
    /// Panics if `dim` is zero or the buffer length is not a multiple of
    /// `dim`.
    pub fn from_row_major(dim: usize, coords: &[f64]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(coords.len() % dim, 0, "coordinate buffer length mismatch");
        let n = coords.len() / dim;
        let mut cols = vec![0.0; coords.len()];
        for (i, row) in coords.chunks_exact(dim).enumerate() {
            for (d, &x) in row.iter().enumerate() {
                cols[d * n + i] = x;
            }
        }
        Self { n, dim, cols }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One dimension's column.
    #[inline]
    pub(crate) fn col(&self, d: usize) -> &[f64] {
        &self.cols[d * self.n..(d + 1) * self.n]
    }

    /// Copies point `i`'s coordinates into `out` (row-major access over a
    /// column-major store is strided, so the copy is explicit).
    ///
    /// # Panics
    /// Panics if `i >= len()` or `out.len() != dim`.
    pub fn point_into(&self, i: usize, out: &mut [f64]) {
        assert!(i < self.n, "point index out of bounds");
        assert_eq!(out.len(), self.dim, "dimension mismatch");
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = self.cols[d * self.n + i];
        }
    }

    /// Scores rows `start..start + out.len()` under `w` into `out`: the
    /// one operation order every kernel here shares (dimension 0
    /// unconditional, zero weights skipped).
    #[inline]
    fn score_rows(&self, w: &[f64], start: usize, out: &mut [f64]) {
        let end = start + out.len();
        let w0 = w[0];
        for (o, &x) in out.iter_mut().zip(&self.col(0)[start..end]) {
            *o = w0 * x;
        }
        for (d, &wd) in w.iter().enumerate().skip(1) {
            if wd == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(&self.col(d)[start..end]) {
                *o += wd * x;
            }
        }
    }

    /// Fused score kernel: writes `f(w, p_i)` for every point into `out`,
    /// reusing its capacity (the only allocation ever is the caller's
    /// buffer growing to `n` once).
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn scores_into(&self, w: &[f64], out: &mut Vec<f64>) {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        out.clear();
        out.resize(self.n, 0.0);
        self.score_rows(w, 0, out);
    }

    /// Counts points with `f(w, p) < threshold` (strict, matching the
    /// paper's tie semantics: a point tying with `q` does not outrank
    /// it). Zero-allocation: partial scores live in a stack block.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn count_better_than(&self, w: &[f64], threshold: f64) -> usize {
        self.count_better_than_capped(w, threshold, usize::MAX)
    }

    /// [`FlatPoints::count_better_than`] under its older name, kept for
    /// `benchmark/`, which times both.
    pub fn count_better_than_exact(&self, w: &[f64], threshold: f64) -> usize {
        self.count_better_than(w, threshold)
    }

    /// Like [`FlatPoints::count_better_than`] but returns as soon as the
    /// running count reaches `cap` (checked *before* each block, so a
    /// satisfied cap never touches another block; the returned value may
    /// overshoot `cap` by at most one block). Used for "rank ≤ k?"
    /// membership tests that don't need exact counts.
    pub fn count_better_than_capped(&self, w: &[f64], threshold: f64, cap: usize) -> usize {
        self.count_better_than_capped_stats(w, threshold, cap).0
    }

    /// [`FlatPoints::count_better_than_capped`] plus the per-call
    /// [`ScanStats`], for tests and benches that assert on block-level
    /// behaviour (e.g. that a capped call visits strictly fewer blocks).
    pub fn count_better_than_capped_stats(
        &self,
        w: &[f64],
        threshold: f64,
        cap: usize,
    ) -> (usize, ScanStats) {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        let mut stats = ScanStats::default();
        let mut count = 0usize;
        let mut buf = [0.0f64; BLOCK];
        let mut start = 0;
        while start < self.n && count < cap {
            let len = BLOCK.min(self.n - start);
            let buf = &mut buf[..len];
            self.score_rows(w, start, buf);
            // Branchless accumulate so the loop stays vectorizable.
            count += buf.iter().map(|&s| (s < threshold) as usize).sum::<usize>();
            stats.blocks_visited += 1;
            start += len;
        }
        (count, stats)
    }
}

/// Fused strict-count kernel over a *row-major* `m × dim` buffer — the
/// small-pool companion of [`FlatPoints::count_better_than`], used on the
/// RTA culprit buffer (tens of points) where a column-major mirror would
/// cost more to maintain than it saves. Dimensions 2–4 get unrolled
/// specialisations; anything else falls back to the generic dot product.
///
/// # Panics
/// Panics if the buffer length is not a multiple of `w.len()`.
pub fn count_better_rows(coords: &[f64], w: &[f64], threshold: f64) -> usize {
    let dim = w.len();
    assert_eq!(coords.len() % dim, 0, "coordinate buffer length mismatch");
    match dim {
        2 => {
            let (w0, w1) = (w[0], w[1]);
            coords
                .chunks_exact(2)
                .map(|p| (w0 * p[0] + w1 * p[1] < threshold) as usize)
                .sum()
        }
        3 => {
            let (w0, w1, w2) = (w[0], w[1], w[2]);
            coords
                .chunks_exact(3)
                .map(|p| (w0 * p[0] + w1 * p[1] + w2 * p[2] < threshold) as usize)
                .sum()
        }
        4 => {
            let (w0, w1, w2, w3) = (w[0], w[1], w[2], w[3]);
            coords
                .chunks_exact(4)
                .map(|p| (w0 * p[0] + w1 * p[1] + w2 * p[2] + w3 * p[3] < threshold) as usize)
                .sum()
        }
        _ => coords
            .chunks_exact(dim)
            .map(|p| (dot(w, p) < threshold) as usize)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score;
    use proptest::prelude::*;

    /// The paper's Figure 1 dataset (price, heat).
    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    fn scatter(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * dim);
        let mut state = seed | 1;
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 10.0);
        }
        v
    }

    #[test]
    fn round_trips_row_major() {
        let rows = fig_points();
        let f = FlatPoints::from_row_major(2, &rows);
        assert_eq!(f.len(), 7);
        assert_eq!(f.dim(), 2);
        assert!(!f.is_empty());
        let mut p = [0.0; 2];
        for i in 0..7 {
            f.point_into(i, &mut p);
            assert_eq!(&p, &rows[i * 2..(i + 1) * 2]);
        }
    }

    #[test]
    fn scores_match_figure_1c() {
        // Kevin = (0.1, 0.9): scores 1.1, 3.3, 8.2, 3.6, 5.2, 7.7, 6.6.
        let f = FlatPoints::from_row_major(2, &fig_points());
        let mut out = Vec::new();
        f.scores_into(&[0.1, 0.9], &mut out);
        let expect = [1.1, 3.3, 8.2, 3.6, 5.2, 7.7, 6.6];
        for (s, e) in out.iter().zip(expect) {
            assert!((s - e).abs() < 1e-12);
        }
    }

    #[test]
    fn count_matches_figure_1_rank() {
        let f = FlatPoints::from_row_major(2, &fig_points());
        // q = (4,4) under Kevin scores 4.0; p1, p2, p4 are strictly below.
        assert_eq!(f.count_better_than(&[0.1, 0.9], 4.0), 3);
    }

    #[test]
    fn strict_semantics_on_exact_tie() {
        // A point scoring exactly the threshold is NOT counted.
        let f = FlatPoints::from_row_major(2, &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(f.count_better_than(&[0.5, 0.5], 2.0), 1);
    }

    #[test]
    fn capped_count_stops_but_never_undercounts_below_cap() {
        let pts = scatter(3000, 3, 5);
        let f = FlatPoints::from_row_major(3, &pts);
        let w = [0.2, 0.3, 0.5];
        let exact = f.count_better_than(&w, 5.0);
        let capped = f.count_better_than_capped(&w, 5.0, 10);
        assert!(capped >= 10.min(exact));
        assert!(capped <= exact);
        // Overshoot is bounded by one block.
        if exact >= 10 {
            assert!(capped <= 10 + 256);
        }
    }

    #[test]
    fn capped_call_visits_strictly_fewer_blocks() {
        // Satellite regression: once the cap is satisfied the kernel must
        // not touch another block — the early exit happens *before* the
        // next block, not after it.
        let pts = scatter(4000, 3, 11);
        let f = FlatPoints::from_row_major(3, &pts);
        let w = [0.2, 0.3, 0.5];
        // Threshold high enough that nearly everything counts.
        let (exact, full) = f.count_better_than_capped_stats(&w, 9.0, usize::MAX);
        assert!(exact > 600, "workload must be dense enough to cap");
        let (capped, early) = f.count_better_than_capped_stats(&w, 9.0, 5);
        assert!(capped >= 5 && capped <= exact);
        let touched = |s: &ScanStats| s.blocks_visited + s.blocks_skipped;
        assert!(
            touched(&early) < touched(&full),
            "early exit must consider strictly fewer blocks ({early:?} vs {full:?})"
        );
        // Cap satisfied within the first block => exactly one block seen.
        assert_eq!(touched(&early), 1);
        // cap = 0 returns without touching anything.
        let (zero, none) = f.count_better_than_capped_stats(&w, 9.0, 0);
        assert_eq!(zero, 0);
        assert_eq!(touched(&none), 0);
        // The exact store has no bounds and no mirror.
        for s in [full, early] {
            assert_eq!((s.blocks_skipped, s.quantized_blocks), (0, 0));
            assert_eq!(s.quantized_fallbacks, 0);
        }
    }

    #[test]
    fn empty_store() {
        let f = FlatPoints::from_row_major(3, &[]);
        assert!(f.is_empty());
        assert_eq!(f.count_better_than(&[0.2, 0.3, 0.5], 1.0), 0);
        let mut out = vec![1.0; 4];
        f.scores_into(&[0.2, 0.3, 0.5], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_weight_dimension_is_skipped_consistently() {
        let pts = scatter(500, 2, 9);
        let f = FlatPoints::from_row_major(2, &pts);
        let w = [1.0, 0.0];
        let mut out = Vec::new();
        f.scores_into(&w, &mut out);
        for (i, p) in pts.chunks_exact(2).enumerate() {
            assert!((out[i] - p[0]).abs() < 1e-15);
        }
        // The counting kernel scores exactly what `scores_into` writes.
        for t in [0.1, 5.0, 9.9] {
            let naive = out.iter().filter(|&&s| s < t).count();
            assert_eq!(f.count_better_than(&w, t), naive);
        }
    }

    #[test]
    fn row_kernel_matches_naive_for_each_dim() {
        for dim in 2..=6 {
            let pts = scatter(300, dim, dim as u64);
            let w: Vec<f64> = (0..dim).map(|d| (d + 1) as f64 / 10.0).collect();
            let t = 2.5;
            let naive = pts.chunks_exact(dim).filter(|p| score(&w, p) < t).count();
            assert_eq!(count_better_rows(&pts, &w, t), naive, "dim {dim}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn kernels_agree_with_naive_scan(
            (dim, pts) in (2usize..5).prop_flat_map(|d| (
                Just(d),
                proptest::collection::vec(0.0f64..10.0, d..600 * d)
                    .prop_map(move |mut v| { v.truncate(v.len() / d * d); v }),
            )),
            raw in proptest::collection::vec(0.01f64..1.0, 4),
            threshold in 0.0f64..15.0,
            cap in 0usize..700,
        ) {
            let w: Vec<f64> = {
                let s: f64 = raw[..dim].iter().sum();
                raw[..dim].iter().map(|x| x / s).collect()
            };
            let f = FlatPoints::from_row_major(dim, &pts);
            let mut out = Vec::new();
            f.scores_into(&w, &mut out);
            let naive: Vec<f64> = pts.chunks_exact(dim).map(|p| score(&w, p)).collect();
            prop_assert_eq!(out.len(), naive.len());
            for (a, b) in out.iter().zip(&naive) {
                prop_assert!((a - b).abs() < 1e-12);
            }
            let count = naive.iter().filter(|&&s| s < threshold).count();
            prop_assert_eq!(f.count_better_than(&w, threshold), count);
            prop_assert_eq!(f.count_better_than_exact(&w, threshold), count);
            prop_assert_eq!(count_better_rows(&pts, &w, threshold), count);
            // A capped count decides "at least `cap`?" exactly.
            prop_assert_eq!(
                f.count_better_than_capped(&w, threshold, cap) >= cap,
                count >= cap
            );
        }
    }
}
