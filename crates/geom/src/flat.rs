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
//! ## The two-tier scan
//!
//! Counting kernels run a cheap first pass per block and only fall back
//! to exact `f64` arithmetic when a block is genuinely ambiguous:
//!
//! 1. **Block bounds.** Each block carries per-dimension min/max. A
//!    weight-wise bound `lo_b`/`hi_b` is accumulated in the *same
//!    operation order* as the scalar kernel, so by monotonicity of
//!    round-to-nearest multiplies and adds every computed per-point score
//!    satisfies `lo_b ≤ s_i ≤ hi_b` *exactly* (no epsilon). A block with
//!    `hi_b < t` is counted wholesale; a block with `lo_b ≥ t`
//!    contributes nothing; neither touches point data.
//! 2. **Quantized pass.** Straddling blocks are scored from an `f32`
//!    mirror of the columns. A conservative error bound
//!    `E = (2·dim + 8) · ε₃₂ · Σ_d |w_d|·max|x_d|` brackets the exact
//!    `f64` score: points with `s₃₂ < t − E` are counted, points with
//!    `s₃₂ ≥ t + E` are excluded, and if *any* point lands inside the
//!    `[t − E, t + E)` band the whole block is rescored in exact `f64`.
//!
//! Both tiers therefore return counts **bit-identical** to the exact
//! kernel — the fast paths only ever decide points the error analysis
//! proves are decided — which is why even exact-rank callers use them.
//! `scores_into` stays single-tier: its *output* is the exact scores.

use crate::dot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Block size of the fused kernels: big enough to amortise the per-block
/// loop overhead, small enough that one block of partial scores stays in
/// L1 (256 × 8 B = 2 KiB).
const BLOCK: usize = 256;

/// Quantized-tier dimensionality ceiling: the per-call `f32` weight
/// mirror lives in a fixed stack array. Higher-dimensional stores simply
/// skip the tier (the exact path is always available).
const MAX_QUANT_DIM: usize = 16;

/// Coordinate magnitude ceiling for the quantized mirror. Blocks holding
/// anything non-finite or larger are flagged unquantizable so the `f32`
/// pass can never overflow (products stay ≤ 1e30, partial sums ≤
/// `MAX_QUANT_DIM`·1e30, both far inside `f32::MAX`).
const QUANT_MAX_ABS: f64 = 1e30;

/// Per-query magnitude floor for `Σ|w_d|·max|x_d|`: below this the
/// relative error model is polluted by `f32` denormals, so the block
/// falls back to exact. Above it, every absolute rounding/conversion
/// error (each ≤ 2⁻¹⁴⁹) is dominated by the bound `E ≥ 19·2⁻²³·1e-30`
/// with seven orders of magnitude to spare.
const QUANT_MIN_SPREAD: f64 = 1e-30;

/// Relative error coefficient of the quantized pass for a `dim`-term dot
/// product: `dim` products + `dim − 1` adds + 2 conversions per term is
/// under `(dim + 3)·u₃₂` to first order; `(2·dim + 8)·ε₃₂` (with
/// `ε₃₂ = 2u₃₂`) gives a ≥4x cushion. Slack only costs extra fallbacks,
/// never correctness.
#[inline]
fn quant_rel_bound(dim: usize) -> f64 {
    (2 * dim + 8) as f64 * (f32::EPSILON as f64)
}

/// Per-call telemetry of one counting-kernel invocation, used by the
/// early-exit regression tests and folded into the store's cumulative
/// [`TierTotals`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks whose per-point data was touched (quantized or exact).
    pub blocks_visited: usize,
    /// Blocks decided by their min/max bounds alone (wholesale count or
    /// wholesale skip) — no point data read.
    pub blocks_skipped: usize,
    /// Blocks scored through the `f32` mirror.
    pub quantized_blocks: usize,
    /// Quantized blocks that hit the ambiguity band (or an error-bound
    /// guard) and were rescored in exact `f64`.
    pub quantized_fallbacks: usize,
}

/// Cumulative two-tier counters of one store, aggregated across every
/// kernel call since construction (relaxed atomics; cloning a store
/// starts fresh).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierTotals {
    /// Blocks decided by bounds alone.
    pub bound_skips: u64,
    /// Blocks scored through the `f32` mirror.
    pub quantized_blocks: u64,
    /// Quantized blocks rescored in exact `f64`.
    pub quantized_fallbacks: u64,
}

#[derive(Debug, Default)]
struct TierCounters {
    bound_skips: AtomicU64,
    quantized_blocks: AtomicU64,
    quantized_fallbacks: AtomicU64,
}

impl TierCounters {
    fn record(&self, s: &ScanStats) {
        if s.blocks_skipped > 0 {
            self.bound_skips
                .fetch_add(s.blocks_skipped as u64, Ordering::Relaxed);
        }
        if s.quantized_blocks > 0 {
            self.quantized_blocks
                .fetch_add(s.quantized_blocks as u64, Ordering::Relaxed);
        }
        if s.quantized_fallbacks > 0 {
            self.quantized_fallbacks
                .fetch_add(s.quantized_fallbacks as u64, Ordering::Relaxed);
        }
    }

    fn totals(&self) -> TierTotals {
        TierTotals {
            bound_skips: self.bound_skips.load(Ordering::Relaxed),
            quantized_blocks: self.quantized_blocks.load(Ordering::Relaxed),
            quantized_fallbacks: self.quantized_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// The quantized mirror: `f32` columns plus per-block per-dimension
/// min/max over the exact `f64` coordinates.
///
/// The mirror is stored in **Morton (Z-order) clustered order**, not id
/// order: blocks of insertion-ordered uniform data span the whole space
/// and their min/max bounds never decide anything, while Morton blocks
/// are spatially tight in every dimension at once, so the bounds pass
/// classifies almost every block as clearly-in or clearly-out for any
/// non-degenerate weight. Counting is order-invariant, so the clustered
/// scan stays bit-identical to the id-order exact kernel; `perm` maps a
/// clustered slot back to its id for exact-`f64` fallbacks. A welcome
/// side effect: Morton order walks the low-score corner first, so capped
/// membership scans usually satisfy their cap within the first few
/// blocks.
#[derive(Clone, Debug)]
struct QuantTier {
    /// Clustered slot → original point index.
    perm: Vec<u32>,
    /// `cols_f32[d * n + s]` mirrors point `perm[s]`'s coordinate `d`
    /// rounded to `f32`.
    cols_f32: Vec<f32>,
    /// `block_lo[b * dim + d]` = min of dimension `d` over clustered
    /// block `b` (exact `f64`).
    block_lo: Vec<f64>,
    /// `block_hi[b * dim + d]` = max of dimension `d` over clustered
    /// block `b` (exact `f64`).
    block_hi: Vec<f64>,
    /// Whether every coordinate in the block is finite with magnitude
    /// ≤ [`QUANT_MAX_ABS`]; blocks failing this always scan exact.
    block_ok: Vec<bool>,
}

/// Morton (Z-order) key of one point: each dimension is normalised to
/// the dataset's global `[lo, hi]` range, quantised to `64 / dim` bits,
/// and the bits are interleaved. Non-finite coordinates clamp to the
/// low cell — the key only drives *ordering*, never a verdict, so any
/// placement is correct; clustering quality is all that is at stake.
fn morton_key(row: &[f64], lo: &[f64], inv_span: &[f64], bits: u32) -> u64 {
    let cells = (1u64 << bits) - 1;
    let mut key = 0u64;
    for (d, &x) in row.iter().enumerate() {
        let t = if x.is_finite() {
            ((x - lo[d]) * inv_span[d]).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let cell = ((t * cells as f64) as u64).min(cells);
        for b in 0..bits {
            key |= ((cell >> b) & 1) << (b as usize * row.len() + d);
        }
    }
    key
}

/// A column-major (structure-of-arrays) snapshot of an `n × dim` point
/// set.
///
/// Built once from the usual row-major buffer; immutable afterwards, so
/// it can be shared (`Arc`) across serving workers alongside the R-tree
/// index built from the same coordinates.
#[derive(Debug)]
pub struct FlatPoints {
    n: usize,
    dim: usize,
    /// `cols[d * n + i]` is coordinate `d` of point `i`.
    cols: Vec<f64>,
    tier: Option<QuantTier>,
    counters: TierCounters,
}

impl Clone for FlatPoints {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            dim: self.dim,
            cols: self.cols.clone(),
            tier: self.tier.clone(),
            counters: TierCounters::default(),
        }
    }
}

impl PartialEq for FlatPoints {
    fn eq(&self, other: &Self) -> bool {
        // The tier is derived data and the counters are telemetry;
        // equality is about the exact coordinates.
        self.n == other.n && self.dim == other.dim && self.cols == other.cols
    }
}

impl FlatPoints {
    /// Builds the store from a flat row-major `n × dim` buffer (the
    /// layout used by `RTree::bulk_load` and the dataset catalog), with
    /// the quantized tier enabled.
    ///
    /// # Panics
    /// Panics if `dim` is zero or the buffer length is not a multiple of
    /// `dim`.
    pub fn from_row_major(dim: usize, coords: &[f64]) -> Self {
        Self::from_row_major_with(dim, coords, true)
    }

    /// Like [`FlatPoints::from_row_major`] but without the quantized
    /// tier: every kernel runs the exact single-tier scan. This is the
    /// differential-oracle configuration (the two answer identically;
    /// the oracle just proves it).
    pub fn from_row_major_exact(dim: usize, coords: &[f64]) -> Self {
        Self::from_row_major_with(dim, coords, false)
    }

    /// Builds the store, optionally with the quantized block tier.
    ///
    /// # Panics
    /// Panics if `dim` is zero or the buffer length is not a multiple of
    /// `dim`.
    pub fn from_row_major_with(dim: usize, coords: &[f64], quantized: bool) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(coords.len() % dim, 0, "coordinate buffer length mismatch");
        let n = coords.len() / dim;
        let mut cols = vec![0.0; coords.len()];
        for (i, row) in coords.chunks_exact(dim).enumerate() {
            for (d, &x) in row.iter().enumerate() {
                cols[d * n + i] = x;
            }
        }
        let tier = (quantized && dim <= MAX_QUANT_DIM).then(|| Self::build_tier(n, dim, &cols));
        Self {
            n,
            dim,
            cols,
            tier,
            counters: TierCounters::default(),
        }
    }

    fn build_tier(n: usize, dim: usize, cols: &[f64]) -> QuantTier {
        // Global per-dimension range over the finite coordinates, for the
        // Morton normalisation. A zero (or all-non-finite) span maps the
        // whole dimension to one cell — harmless, it only loses locality.
        let mut glo = vec![f64::INFINITY; dim];
        let mut ghi = vec![f64::NEG_INFINITY; dim];
        for d in 0..dim {
            for &x in &cols[d * n..(d + 1) * n] {
                if x.is_finite() {
                    glo[d] = glo[d].min(x);
                    ghi[d] = ghi[d].max(x);
                }
            }
        }
        let inv_span: Vec<f64> = (0..dim)
            .map(|d| {
                let span = ghi[d] - glo[d];
                if span.is_finite() && span > 0.0 {
                    1.0 / span
                } else {
                    glo[d] = 0.0;
                    0.0
                }
            })
            .collect();
        let bits = ((64 / dim.max(1)) as u32).clamp(1, 16);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut row = vec![0.0; dim];
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        for i in 0..n {
            for (d, slot) in row.iter_mut().enumerate() {
                *slot = cols[d * n + i];
            }
            keys.push(morton_key(&row, &glo, &inv_span, bits));
        }
        // Stable on equal keys: ties keep id order, so degenerate inputs
        // (all-equal coordinates) cluster exactly like the id-order scan.
        perm.sort_by_key(|&i| keys[i as usize]);

        let blocks = n.div_ceil(BLOCK);
        let mut tier = QuantTier {
            cols_f32: vec![0.0; cols.len()],
            block_lo: vec![f64::INFINITY; blocks * dim],
            block_hi: vec![f64::NEG_INFINITY; blocks * dim],
            block_ok: vec![true; blocks],
            perm,
        };
        for d in 0..dim {
            let col = &cols[d * n..(d + 1) * n];
            let mirror = &mut tier.cols_f32[d * n..(d + 1) * n];
            for (m, &i) in mirror.iter_mut().zip(&tier.perm) {
                *m = col[i as usize] as f32;
            }
        }
        for b in 0..blocks {
            let start = b * BLOCK;
            let len = BLOCK.min(n - start);
            for d in 0..dim {
                let col = &cols[d * n..(d + 1) * n];
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                let mut ok = true;
                for &i in &tier.perm[start..start + len] {
                    let x = col[i as usize];
                    ok &= x.is_finite() && x.abs() <= QUANT_MAX_ABS;
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                tier.block_lo[b * dim + d] = lo;
                tier.block_hi[b * dim + d] = hi;
                tier.block_ok[b] &= ok;
            }
        }
        tier
    }

    /// Whether the quantized block tier is present.
    #[inline]
    pub fn is_quantized(&self) -> bool {
        self.tier.is_some()
    }

    /// Cumulative two-tier counters since construction.
    pub fn tier_totals(&self) -> TierTotals {
        self.counters.totals()
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
    fn col(&self, d: usize) -> &[f64] {
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

    /// Fused score kernel: writes `f(w, p_i)` for every point into `out`,
    /// reusing its capacity (the only allocation ever is the caller's
    /// buffer growing to `n` once). Always exact single-tier `f64`: the
    /// scores themselves are the output, so there is nothing for a
    /// quantized pass to approximate.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn scores_into(&self, w: &[f64], out: &mut Vec<f64>) {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        out.clear();
        out.resize(self.n, 0.0);
        let w0 = w[0];
        for (o, &x) in out.iter_mut().zip(self.col(0)) {
            *o = w0 * x;
        }
        for (d, &wd) in w.iter().enumerate().skip(1) {
            if wd == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.col(d)) {
                *o += wd * x;
            }
        }
    }

    /// Counts points with `f(w, p) < threshold` (strict, matching the
    /// paper's tie semantics: a point tying with `q` does not outrank
    /// it). Two-tier but bit-identical to the exact scan; see the module
    /// docs. Zero-allocation: partial scores live in a stack block.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn count_better_than(&self, w: &[f64], threshold: f64) -> usize {
        self.count_better_than_capped(w, threshold, usize::MAX)
    }

    /// Single-tier exact `f64` scan — the differential oracle for
    /// [`FlatPoints::count_better_than`] (they always agree; the tests
    /// prove it).
    pub fn count_better_than_exact(&self, w: &[f64], threshold: f64) -> usize {
        self.count_better_than_capped_exact(w, threshold, usize::MAX)
    }

    /// Like [`FlatPoints::count_better_than`] but returns as soon as the
    /// running count reaches `cap` (checked *before* each block, so a
    /// satisfied cap never touches another block; the returned value may
    /// overshoot `cap` by at most one block). Used for "rank ≤ k?"
    /// membership tests that don't need exact counts.
    pub fn count_better_than_capped(&self, w: &[f64], threshold: f64, cap: usize) -> usize {
        let mut stats = ScanStats::default();
        let c = self.count_capped_impl(w, threshold, cap, true, &mut stats);
        self.counters.record(&stats);
        c
    }

    /// Single-tier exact variant of
    /// [`FlatPoints::count_better_than_capped`].
    pub fn count_better_than_capped_exact(&self, w: &[f64], threshold: f64, cap: usize) -> usize {
        let mut stats = ScanStats::default();
        self.count_capped_impl(w, threshold, cap, false, &mut stats)
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
        let mut stats = ScanStats::default();
        let c = self.count_capped_impl(w, threshold, cap, true, &mut stats);
        self.counters.record(&stats);
        (c, stats)
    }

    /// Appends up to `max_rows` points scoring strictly below
    /// `threshold` under `w` — point indices (into this store) to
    /// `out_ids`, row-major coordinates to `out_rows` — returning how
    /// many were pushed.
    ///
    /// This is a *sampling* helper for culprit pools: callers re-score
    /// whatever they are handed, so neither completeness nor scan order
    /// affects any verdict; the indices are stable identities for
    /// deduplication (a pool must never count the same point twice).
    /// The scan walks the Morton-clustered blocks (low-score corner
    /// first) when the mirror exists — a small sample usually fills
    /// from the first block or two — skipping blocks whose score lower
    /// bound already rules every point out, and stops as soon as the
    /// sample is full.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    // `!(lo < t)` is deliberate: a NaN bound must fall through to the
    // skip arm (nothing provable about the block), which `lo >= t`
    // would not do.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn collect_better_into(
        &self,
        w: &[f64],
        threshold: f64,
        max_rows: usize,
        out_ids: &mut Vec<u32>,
        out_rows: &mut Vec<f64>,
    ) -> usize {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        let dim = self.dim;
        let mut pushed = 0usize;
        let mut buf = [0.0f64; BLOCK];
        let mut buf32 = [0.0f32; BLOCK];
        let mut start = 0;
        let mut block = 0usize;
        'blocks: while start < self.n && pushed < max_rows {
            let len = BLOCK.min(self.n - start);
            match self.tier.as_ref() {
                Some(t) => {
                    let lo_b = &t.block_lo[block * dim..(block + 1) * dim];
                    let hi_b = &t.block_hi[block * dim..(block + 1) * dim];
                    let mut lo = 0.0f64;
                    let mut hi = 0.0f64;
                    let mut spread = 0.0f64;
                    for (d, &wd) in w.iter().enumerate() {
                        let (x_lo, x_hi) = if wd >= 0.0 {
                            (lo_b[d], hi_b[d])
                        } else {
                            (hi_b[d], lo_b[d])
                        };
                        lo += wd * x_lo;
                        hi += wd * x_hi;
                        spread += wd.abs() * lo_b[d].abs().max(hi_b[d].abs());
                    }
                    if !(lo < threshold) {
                        start += len;
                        block += 1;
                        continue;
                    }
                    let perm = &t.perm[start..start + len];
                    if hi < threshold {
                        // Every point in the block beats the threshold:
                        // gather rows straight off the permutation.
                        for &i in perm {
                            out_ids.push(i);
                            for d in 0..dim {
                                out_rows.push(self.cols[d * self.n + i as usize]);
                            }
                            pushed += 1;
                            if pushed == max_rows {
                                break 'blocks;
                            }
                        }
                        start += len;
                        block += 1;
                        continue;
                    }
                    // Straddling block: score the *contiguous* f32
                    // mirror and keep only points the error band proves
                    // are below the threshold. A row the band can't
                    // decide is simply not sampled — completeness is
                    // not required here, cheapness is.
                    if !t.block_ok[block]
                        || !(spread == 0.0 || (QUANT_MIN_SPREAD..=QUANT_MAX_ABS).contains(&spread))
                    {
                        start += len;
                        block += 1;
                        continue;
                    }
                    let t_lo = (threshold - quant_rel_bound(dim) * spread) as f32;
                    let buf32 = &mut buf32[..len];
                    let w0 = w[0] as f32;
                    let col0 = &t.cols_f32[start..start + len];
                    for (o, &x) in buf32.iter_mut().zip(col0) {
                        *o = w0 * x;
                    }
                    for (d, &wd) in w.iter().enumerate().skip(1) {
                        if wd == 0.0 {
                            continue;
                        }
                        let col = &t.cols_f32[d * self.n + start..d * self.n + start + len];
                        for (o, &x) in buf32.iter_mut().zip(col) {
                            *o += (wd as f32) * x;
                        }
                    }
                    for (&s, &i) in buf32.iter().zip(perm) {
                        if s < t_lo {
                            out_ids.push(i);
                            for d in 0..dim {
                                out_rows.push(self.cols[d * self.n + i as usize]);
                            }
                            pushed += 1;
                            if pushed == max_rows {
                                break 'blocks;
                            }
                        }
                    }
                }
                None => {
                    let buf = &mut buf[..len];
                    let w0 = w[0];
                    for (o, &x) in buf.iter_mut().zip(&self.col(0)[start..start + len]) {
                        *o = w0 * x;
                    }
                    for (d, &wd) in w.iter().enumerate().skip(1) {
                        if wd == 0.0 {
                            continue;
                        }
                        for (o, &x) in buf.iter_mut().zip(&self.col(d)[start..start + len]) {
                            *o += wd * x;
                        }
                    }
                    for (slot, &s) in buf.iter().enumerate() {
                        if s < threshold {
                            let i = start + slot;
                            out_ids.push(i as u32);
                            for d in 0..dim {
                                out_rows.push(self.cols[d * self.n + i]);
                            }
                            pushed += 1;
                            if pushed == max_rows {
                                break 'blocks;
                            }
                        }
                    }
                }
            }
            start += len;
            block += 1;
        }
        pushed
    }

    /// The shared block loop behind every counting kernel. `use_tier`
    /// selects the two-tier path (when the mirror exists).
    ///
    /// The tiered path walks the Morton-clustered blocks (counting is
    /// order-invariant, so the result is bit-identical to the id-order
    /// scan); the exact path walks id order.
    fn count_capped_impl(
        &self,
        w: &[f64],
        threshold: f64,
        cap: usize,
        use_tier: bool,
        stats: &mut ScanStats,
    ) -> usize {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        if use_tier {
            if let Some(t) = self.tier.as_ref() {
                return self.count_capped_clustered(t, w, threshold, cap, stats);
            }
        }
        let mut count = 0usize;
        let mut buf = [0.0f64; BLOCK];
        let mut start = 0;
        while start < self.n {
            if count >= cap {
                return count;
            }
            let len = BLOCK.min(self.n - start);
            // Exact f64 pass over the block.
            let buf = &mut buf[..len];
            let w0 = w[0];
            for (o, &x) in buf.iter_mut().zip(&self.col(0)[start..start + len]) {
                *o = w0 * x;
            }
            for (d, &wd) in w.iter().enumerate().skip(1) {
                if wd == 0.0 {
                    continue;
                }
                for (o, &x) in buf.iter_mut().zip(&self.col(d)[start..start + len]) {
                    *o += wd * x;
                }
            }
            // Branchless accumulate so the loop stays vectorizable.
            count += buf.iter().map(|&s| (s < threshold) as usize).sum::<usize>();
            stats.blocks_visited += 1;
            start += len;
        }
        count
    }

    /// The two-tier counting loop over the Morton-clustered mirror:
    /// bounds verdict, then quantized pass, then an exact `f64` gather
    /// (through the cluster permutation) for ambiguous blocks.
    fn count_capped_clustered(
        &self,
        t: &QuantTier,
        w: &[f64],
        threshold: f64,
        cap: usize,
        stats: &mut ScanStats,
    ) -> usize {
        let mut wf = [0.0f32; MAX_QUANT_DIM];
        for (o, &x) in wf.iter_mut().zip(w) {
            *o = x as f32;
        }
        let rel = quant_rel_bound(self.dim);
        let mut count = 0usize;
        let mut buf = [0.0f64; BLOCK];
        let mut buf32 = [0.0f32; BLOCK];
        let mut start = 0;
        let mut block = 0usize;
        while start < self.n {
            if count >= cap {
                return count;
            }
            let len = BLOCK.min(self.n - start);
            if t.block_ok[block]
                && self.try_quantized_block(
                    t, block, start, len, w, &wf, rel, threshold, stats, &mut buf32, &mut count,
                )
            {
                start += len;
                block += 1;
                continue;
            }
            // Exact f64 pass, gathering the block's rows through the
            // cluster permutation (ambiguous blocks only, so the strided
            // gather never dominates).
            let perm = &t.perm[start..start + len];
            let buf = &mut buf[..len];
            let w0 = w[0];
            let col0 = self.col(0);
            for (o, &i) in buf.iter_mut().zip(perm) {
                *o = w0 * col0[i as usize];
            }
            for (d, &wd) in w.iter().enumerate().skip(1) {
                if wd == 0.0 {
                    continue;
                }
                let col = self.col(d);
                for (o, &i) in buf.iter_mut().zip(perm) {
                    *o += wd * col[i as usize];
                }
            }
            count += buf.iter().map(|&s| (s < threshold) as usize).sum::<usize>();
            stats.blocks_visited += 1;
            start += len;
            block += 1;
        }
        count
    }

    /// Attempts to decide one block through the quantized tier. Returns
    /// `true` when the block was fully handled (bounds verdict or
    /// unambiguous `f32` pass), `false` when the caller must run the
    /// exact pass (ambiguity band or an error-bound guard tripped — the
    /// conservative fallbacks that keep results bit-identical).
    // `!(lo < t)` is deliberate: a NaN bound must take the count-nothing
    // arm (matching the exact kernel, where a NaN score never compares
    // below the threshold), which `lo >= t` would not do.
    #[allow(clippy::too_many_arguments, clippy::neg_cmp_op_on_partial_ord)]
    fn try_quantized_block(
        &self,
        tier: &QuantTier,
        block: usize,
        start: usize,
        len: usize,
        w: &[f64],
        wf: &[f32; MAX_QUANT_DIM],
        rel: f64,
        threshold: f64,
        stats: &mut ScanStats,
        buf32: &mut [f32; BLOCK],
        count: &mut usize,
    ) -> bool {
        let dim = self.dim;
        let bounds_lo = &tier.block_lo[block * dim..(block + 1) * dim];
        let bounds_hi = &tier.block_hi[block * dim..(block + 1) * dim];
        // Accumulate lo/hi in the *same operation order* as the scalar
        // kernel (dimension 0 unconditional, zero weights skipped), so
        // round-to-nearest monotonicity makes them exact bounds on the
        // computed per-point scores. `spread` feeds the error bound.
        let pick = |wd: f64, d: usize| -> (f64, f64) {
            if wd >= 0.0 {
                (bounds_lo[d], bounds_hi[d])
            } else {
                (bounds_hi[d], bounds_lo[d])
            }
        };
        let (x_lo, x_hi) = pick(w[0], 0);
        let mut lo = w[0] * x_lo;
        let mut hi = w[0] * x_hi;
        let mut spread = w[0].abs() * bounds_lo[0].abs().max(bounds_hi[0].abs());
        for (d, &wd) in w.iter().enumerate().skip(1) {
            if wd == 0.0 {
                continue;
            }
            let (x_lo, x_hi) = pick(wd, d);
            lo += wd * x_lo;
            hi += wd * x_hi;
            spread += wd.abs() * bounds_lo[d].abs().max(bounds_hi[d].abs());
        }
        if hi < threshold {
            // Every computed score in the block is < t: count wholesale.
            *count += len;
            stats.blocks_skipped += 1;
            return true;
        }
        if !(lo < threshold) {
            // Every computed score is ≥ t: nothing to count.
            stats.blocks_skipped += 1;
            return true;
        }
        // Straddling block. Guard the error model: reject non-finite or
        // denormal-polluted spreads (see QUANT_MIN_SPREAD) and anything
        // the f32 mirror could overflow on.
        if !(spread == 0.0 || (QUANT_MIN_SPREAD..=QUANT_MAX_ABS).contains(&spread)) {
            stats.quantized_fallbacks += 1;
            return false;
        }
        let err = rel * spread;
        let t_lo = threshold - err;
        let t_hi = threshold + err;
        let buf = &mut buf32[..len];
        let w0 = wf[0];
        let col0 = &tier.cols_f32[start..start + len];
        for (o, &x) in buf.iter_mut().zip(col0) {
            *o = w0 * x;
        }
        for (d, &wd) in w.iter().enumerate().skip(1) {
            if wd == 0.0 {
                continue;
            }
            let wdf = wf[d];
            let col = &tier.cols_f32[d * self.n + start..d * self.n + start + len];
            for (o, &x) in buf.iter_mut().zip(col) {
                *o += wdf * x;
            }
        }
        let (definite, ambiguous) = buf.iter().fold((0usize, 0usize), |(def, amb), &s| {
            let s = s as f64;
            (
                def + (s < t_lo) as usize,
                amb + (s >= t_lo && s < t_hi) as usize,
            )
        });
        stats.quantized_blocks += 1;
        if ambiguous > 0 {
            // The exact rescan (run by the caller) accounts the visit.
            stats.quantized_fallbacks += 1;
            return false;
        }
        stats.blocks_visited += 1;
        *count += definite;
        true
    }

    /// Exact rank of `q` under `w`: `1 + #{p : f(w, p) < f(w, q)}`.
    /// `f(w, q)` is computed once, outside the point loop.
    ///
    /// # Panics
    /// Panics if `w` or `q` has the wrong dimensionality.
    pub fn rank_of(&self, w: &[f64], q: &[f64]) -> usize {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        self.count_better_than(w, dot(w, q)) + 1
    }

    /// Membership test `q ∈ TOPk(w)` by capped counting.
    pub fn is_in_topk(&self, w: &[f64], q: &[f64], k: usize) -> bool {
        if k == 0 {
            return false;
        }
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        self.count_better_than_capped(w, dot(w, q), k) < k
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
        assert!(f.is_quantized());
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
        assert_eq!(f.rank_of(&[0.1, 0.9], &[4.0, 4.0]), 4);
        assert!(!f.is_in_topk(&[0.1, 0.9], &[4.0, 4.0], 3));
        assert!(f.is_in_topk(&[0.1, 0.9], &[4.0, 4.0], 4));
        assert!(f.is_in_topk(&[0.5, 0.5], &[4.0, 4.0], 3));
        assert!(!f.is_in_topk(&[0.5, 0.5], &[4.0, 4.0], 0));
    }

    #[test]
    fn strict_semantics_on_exact_tie() {
        // A point scoring exactly the threshold is NOT counted.
        let f = FlatPoints::from_row_major(2, &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(f.count_better_than(&[0.5, 0.5], 2.0), 1);
        assert_eq!(f.rank_of(&[0.5, 0.5], &[2.0, 2.0]), 2);
        assert!(f.is_in_topk(&[0.5, 0.5], &[2.0, 2.0], 2));
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
    }

    #[test]
    fn two_tier_count_is_bit_identical_to_exact() {
        for dim in [2usize, 3, 5, 8] {
            let pts = scatter(2000, dim, dim as u64 + 1);
            let f = FlatPoints::from_row_major(dim, &pts);
            let oracle = FlatPoints::from_row_major_exact(dim, &pts);
            assert!(!oracle.is_quantized());
            let w: Vec<f64> = {
                let raw: Vec<f64> = (0..dim).map(|d| 1.0 + d as f64).collect();
                let s: f64 = raw.iter().sum();
                raw.iter().map(|x| x / s).collect()
            };
            // Thresholds include exact computed scores (tie territory).
            let mut thresholds = vec![0.0, 1.0, 4.9, 5.0, 9.99, 100.0];
            for i in (0..2000).step_by(97) {
                let p = &pts[i * dim..(i + 1) * dim];
                thresholds.push(dot(&w, p));
            }
            for &t in &thresholds {
                assert_eq!(
                    f.count_better_than(&w, t),
                    oracle.count_better_than_exact(&w, t),
                    "dim {dim} t {t}"
                );
                for cap in [1usize, 7, 100] {
                    let a = f.count_better_than_capped(&w, t, cap);
                    let b = oracle.count_better_than_capped_exact(&w, t, cap);
                    // Capped counts may overshoot differently per tier,
                    // but the verdict they exist for must agree.
                    assert_eq!(a >= cap, b >= cap, "dim {dim} t {t} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn quantization_boundary_ties_fall_back_conservatively() {
        // Points engineered so the f32 mirror cannot distinguish them
        // from the threshold: values with more mantissa bits than f32
        // holds, all within the error band of t.
        let base = 1.0 + 2.0f64.powi(-24); // collapses to 1.0f32
        let mut pts = Vec::new();
        for i in 0..600 {
            let jitter = (i % 5) as f64 * 2.0f64.powi(-26);
            pts.extend_from_slice(&[base + jitter, base - jitter]);
        }
        let f = FlatPoints::from_row_major(2, &pts);
        let oracle = FlatPoints::from_row_major_exact(2, &pts);
        let w = [0.5, 0.5];
        for t in [base, 1.0, base + 2.0f64.powi(-26), base + 2.0f64.powi(-25)] {
            assert_eq!(
                f.count_better_than(&w, t),
                oracle.count_better_than_exact(&w, t),
                "t {t}"
            );
        }
        // The near-tie blocks must actually have exercised the fallback.
        assert!(f.tier_totals().quantized_fallbacks > 0);
    }

    #[test]
    fn degenerate_quantization_inputs_are_safe() {
        // Satellite: all-equal coordinates (zero-width min/max range per
        // dimension), denormal/tiny spans, and mixtures must neither
        // divide by zero (there is no division anywhere in the tier) nor
        // misclassify.
        let w2 = [0.5, 0.5];
        // (a) every point identical => block min == max per dimension.
        let pts: Vec<f64> = (0..700).flat_map(|_| [3.0, 4.0]).collect();
        let f = FlatPoints::from_row_major(2, &pts);
        let o = FlatPoints::from_row_major_exact(2, &pts);
        for t in [3.4999, 3.5, 3.5001] {
            assert_eq!(
                f.count_better_than(&w2, t),
                o.count_better_than_exact(&w2, t)
            );
        }
        // (b) denormal coordinates and spans.
        let tiny = f64::MIN_POSITIVE; // 2^-1022, far below f32 denormals
        let pts: Vec<f64> = (0..700)
            .flat_map(|i| [tiny * (i % 3) as f64, tiny])
            .collect();
        let f = FlatPoints::from_row_major(2, &pts);
        let o = FlatPoints::from_row_major_exact(2, &pts);
        for t in [0.0, tiny, tiny * 2.0, 1.0] {
            assert_eq!(
                f.count_better_than(&w2, t),
                o.count_better_than_exact(&w2, t),
                "t {t:e}"
            );
        }
        // (c) tiny span riding on a large offset (catastrophic for a
        // naive quantizer): 1e8 + i*eps.
        let pts: Vec<f64> = (0..700)
            .flat_map(|i| {
                let x = 1e8 + (i % 7) as f64 * 1e-8;
                [x, x]
            })
            .collect();
        let f = FlatPoints::from_row_major(2, &pts);
        let o = FlatPoints::from_row_major_exact(2, &pts);
        for t in [1e8 - 1.0, 1e8, 1e8 + 3.0e-8, 1e8 + 1.0] {
            assert_eq!(
                f.count_better_than(&w2, t),
                o.count_better_than_exact(&w2, t),
                "t {t}"
            );
        }
        // (d) zero coordinates everywhere (spread == 0.0 exactly).
        let pts = vec![0.0; 1400];
        let f = FlatPoints::from_row_major(2, &pts);
        for (t, expect) in [(0.0, 0), (-1.0, 0), (1.0, 700)] {
            assert_eq!(f.count_better_than(&w2, t), expect, "t {t}");
        }
        // (e) non-finite coordinates disable the mirror for the block
        // but stay exact.
        let mut pts: Vec<f64> = (0..700).flat_map(|i| [i as f64, 1.0]).collect();
        pts[0] = f64::INFINITY;
        pts[3] = f64::NAN;
        let f = FlatPoints::from_row_major(2, &pts);
        let o = FlatPoints::from_row_major_exact(2, &pts);
        for t in [1.0, 5.0, 1e3] {
            assert_eq!(
                f.count_better_than(&w2, t),
                o.count_better_than_exact(&w2, t),
                "t {t}"
            );
        }
    }

    #[test]
    fn cloned_store_compares_equal_with_fresh_counters() {
        let pts = scatter(600, 2, 3);
        let f = FlatPoints::from_row_major(2, &pts);
        f.count_better_than(&[0.5, 0.5], 5.0);
        let g = f.clone();
        assert_eq!(f, g);
        assert_eq!(g.tier_totals(), TierTotals::default());
        // Quantized and exact stores with equal coords compare equal.
        assert_eq!(f, FlatPoints::from_row_major_exact(2, &pts));
    }

    #[test]
    fn empty_store() {
        let f = FlatPoints::from_row_major(3, &[]);
        assert!(f.is_empty());
        assert_eq!(f.count_better_than(&[0.2, 0.3, 0.5], 1.0), 0);
        assert_eq!(f.rank_of(&[0.2, 0.3, 0.5], &[1.0, 1.0, 1.0]), 1);
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
        // Counting kernels agree with the oracle under zero weights too.
        let o = FlatPoints::from_row_major_exact(2, &pts);
        for t in [0.1, 5.0, 9.9] {
            assert_eq!(f.count_better_than(&w, t), o.count_better_than_exact(&w, t));
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
        }

        #[test]
        fn two_tier_matches_exact_at_computed_score_thresholds(
            (dim, pts) in (2usize..5).prop_flat_map(|d| (
                Just(d),
                proptest::collection::vec(0.0f64..10.0, 4 * d..700 * d)
                    .prop_map(move |mut v| { v.truncate(v.len() / d * d); v }),
            )),
            raw in proptest::collection::vec(0.01f64..1.0, 4),
            pick in 0usize..64,
        ) {
            // Thresholds drawn from computed point scores: the exact tie
            // case the quantized tier must never misjudge.
            let w: Vec<f64> = {
                let s: f64 = raw[..dim].iter().sum();
                raw[..dim].iter().map(|x| x / s).collect()
            };
            let f = FlatPoints::from_row_major(dim, &pts);
            let o = FlatPoints::from_row_major_exact(dim, &pts);
            let n = pts.len() / dim;
            let i = pick % n;
            let t = dot(&w, &pts[i * dim..(i + 1) * dim]);
            prop_assert_eq!(f.count_better_than(&w, t), o.count_better_than_exact(&w, t));
            prop_assert_eq!(f.rank_of(&w, &pts[i * dim..(i + 1) * dim]),
                            o.count_better_than_exact(&w, t) + 1);
            for k in [1usize, 2, 5] {
                prop_assert_eq!(
                    f.is_in_topk(&w, &pts[i * dim..(i + 1) * dim], k),
                    o.count_better_than_capped_exact(&w, t, k) < k
                );
            }
        }
    }
}
