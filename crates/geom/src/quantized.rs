//! The clustered, quantized column store: an exact [`FlatPoints`] plus
//! a Morton-ordered `f32` mirror that decides most blocks without exact
//! arithmetic.
//!
//! Its one reader is MQWK's dominance frontier (the incomparable set of
//! the paper's Algorithms 2/3), which counts the same few thousand rows
//! under every sampled weight of every sampled query point MQWK does not
//! price out in advance. There the tier is load-bearing: building no
//! tier cuts `benchmark/`'s `whynot_plan` from 134.2 to 74.7 plans/s
//! (medians of three 20 s runs, seed 2015, 2-core x86-64 Xeon), with
//! ~1 000 counts per plan where it once took ~5 600. Everywhere else it
//! lost — nothing scans the whole-dataset base store above 2 048
//! points, and the culprit planes (since removed) answered `rtopk_scan`
//! faster exact (p50 420 → 328 µs, same box) — so the base store stays
//! plain [`FlatPoints`].
//!
//! ## The two-tier scan
//!
//! Counting runs a cheap first pass per block and only falls back to
//! exact `f64` arithmetic when a block is genuinely ambiguous:
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
//! proves are decided. Scores themselves ([`FlatPoints::scores_into`])
//! come from the exact store.

use crate::flat::{FlatPoints, ScanStats, BLOCK};

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

/// Whether the error model holds for a block of this spread: zero, or
/// inside `[QUANT_MIN_SPREAD, QUANT_MAX_ABS]` (see both). A NaN spread
/// fails.
#[inline]
fn band_holds(spread: f64) -> bool {
    spread == 0.0 || (QUANT_MIN_SPREAD..=QUANT_MAX_ABS).contains(&spread)
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
#[derive(Debug)]
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

/// An exact [`FlatPoints`] with the two-tier counting kernel on top (see
/// the module docs). Immutable once built.
#[derive(Debug)]
pub struct QuantizedPoints {
    exact: FlatPoints,
    /// `None` above [`MAX_QUANT_DIM`] dimensions: counts then run the
    /// exact scan.
    tier: Option<QuantTier>,
}

impl QuantizedPoints {
    /// Builds the exact store and its quantized tier from a flat
    /// row-major `n × dim` buffer.
    ///
    /// # Panics
    /// Panics if `dim` is zero or the buffer length is not a multiple of
    /// `dim`.
    pub fn from_row_major(dim: usize, coords: &[f64]) -> Self {
        let exact = FlatPoints::from_row_major(dim, coords);
        let tier = (dim <= MAX_QUANT_DIM).then(|| Self::build_tier(&exact));
        Self { exact, tier }
    }

    /// The exact column store under the tier (row order, `f64`).
    #[inline]
    pub fn exact(&self) -> &FlatPoints {
        &self.exact
    }

    fn build_tier(exact: &FlatPoints) -> QuantTier {
        let (n, dim) = (exact.len(), exact.dim());
        // Global per-dimension range over the finite coordinates, for the
        // Morton normalisation. A zero (or all-non-finite) span maps the
        // whole dimension to one cell — harmless, it only loses locality.
        let mut glo = vec![f64::INFINITY; dim];
        let mut ghi = vec![f64::NEG_INFINITY; dim];
        for d in 0..dim {
            for &x in exact.col(d) {
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
            exact.point_into(i, &mut row);
            keys.push(morton_key(&row, &glo, &inv_span, bits));
        }
        // Stable on equal keys: ties keep id order, so degenerate inputs
        // (all-equal coordinates) cluster exactly like the id-order scan.
        perm.sort_by_key(|&i| keys[i as usize]);

        let blocks = n.div_ceil(BLOCK);
        let mut tier = QuantTier {
            cols_f32: vec![0.0; n * dim],
            block_lo: vec![f64::INFINITY; blocks * dim],
            block_hi: vec![f64::NEG_INFINITY; blocks * dim],
            block_ok: vec![true; blocks],
            perm,
        };
        for d in 0..dim {
            let col = exact.col(d);
            let mirror = &mut tier.cols_f32[d * n..(d + 1) * n];
            for (m, &i) in mirror.iter_mut().zip(&tier.perm) {
                *m = col[i as usize] as f32;
            }
        }
        for b in 0..blocks {
            let start = b * BLOCK;
            let len = BLOCK.min(n - start);
            for d in 0..dim {
                let col = exact.col(d);
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

    /// Counts points with `f(w, p) < threshold`, returning as soon as the
    /// running count reaches `cap` — bit-identical to
    /// [`FlatPoints::count_better_than_capped`] below the cap, and the
    /// same "at least `cap`?" verdict above it.
    ///
    /// # Panics
    /// Panics if `w.len() != dim`.
    pub fn count_better_than_capped(&self, w: &[f64], threshold: f64, cap: usize) -> usize {
        self.count_better_than_capped_stats(w, threshold, cap).0
    }

    /// [`QuantizedPoints::count_better_than_capped`] plus the per-call
    /// [`ScanStats`] (how many blocks each tier decided).
    fn count_better_than_capped_stats(
        &self,
        w: &[f64],
        threshold: f64,
        cap: usize,
    ) -> (usize, ScanStats) {
        let Some(t) = self.tier.as_ref() else {
            return self.exact.count_better_than_capped_stats(w, threshold, cap);
        };
        assert_eq!(w.len(), self.exact.dim(), "weight dimension mismatch");
        let mut stats = ScanStats::default();
        let count = self.count_capped_clustered(t, w, threshold, cap, &mut stats);
        (count, stats)
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
        let n = self.exact.len();
        let mut wf = [0.0f32; MAX_QUANT_DIM];
        for (o, &x) in wf.iter_mut().zip(w) {
            *o = x as f32;
        }
        let rel = quant_rel_bound(self.exact.dim());
        let mut count = 0usize;
        let mut buf = [0.0f64; BLOCK];
        let mut buf32 = [0.0f32; BLOCK];
        let mut start = 0;
        let mut block = 0usize;
        while start < n {
            if count >= cap {
                return count;
            }
            let len = BLOCK.min(n - start);
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
            let col0 = self.exact.col(0);
            for (o, &i) in buf.iter_mut().zip(perm) {
                *o = w0 * col0[i as usize];
            }
            for (d, &wd) in w.iter().enumerate().skip(1) {
                if wd == 0.0 {
                    continue;
                }
                let col = self.exact.col(d);
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
        let (lo, hi, spread) = self.block_bounds(tier, block, w);
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
        if !band_holds(spread) {
            stats.quantized_fallbacks += 1;
            return false;
        }
        let err = rel * spread;
        let t_lo = threshold - err;
        let t_hi = threshold + err;
        let buf = &mut buf32[..len];
        self.scores_f32(tier, start, w, wf, buf);
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

    /// Bounds `(lo, hi)` on every computed score in clustered block
    /// `block`, and `spread = Σ_d |w_d|·max|x_d|`, which sizes its error
    /// band. `lo`/`hi` accumulate in the *same operation order* as the
    /// scalar kernel (dimension 0 unconditional, zero weights skipped),
    /// so round-to-nearest monotonicity makes them exact bounds.
    fn block_bounds(&self, tier: &QuantTier, block: usize, w: &[f64]) -> (f64, f64, f64) {
        let dim = self.exact.dim();
        let bounds_lo = &tier.block_lo[block * dim..(block + 1) * dim];
        let bounds_hi = &tier.block_hi[block * dim..(block + 1) * dim];
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
        (lo, hi, spread)
    }

    /// The `f32` scores of the clustered slots `start..start + out.len()`
    /// from the mirror (`wf` is `w` rounded to `f32`).
    fn scores_f32(
        &self,
        tier: &QuantTier,
        start: usize,
        w: &[f64],
        wf: &[f32; MAX_QUANT_DIM],
        out: &mut [f32],
    ) {
        let (n, len) = (self.exact.len(), out.len());
        let w0 = wf[0];
        let col0 = &tier.cols_f32[start..start + len];
        for (o, &x) in out.iter_mut().zip(col0) {
            *o = w0 * x;
        }
        for (d, &wd) in w.iter().enumerate().skip(1) {
            if wd == 0.0 {
                continue;
            }
            let wdf = wf[d];
            let col = &tier.cols_f32[d * n + start..d * n + start + len];
            for (o, &x) in out.iter_mut().zip(col) {
                *o += wdf * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dot, score};
    use proptest::prelude::*;

    fn scatter(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * dim);
        let mut state = seed | 1;
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 10.0);
        }
        v
    }

    /// The uncapped two-tier count.
    fn count(q: &QuantizedPoints, w: &[f64], t: f64) -> usize {
        q.count_better_than_capped(w, t, usize::MAX)
    }

    #[test]
    fn two_tier_count_is_bit_identical_to_exact() {
        // 17 dimensions is past MAX_QUANT_DIM: no tier, the exact scan.
        for dim in [2usize, 3, 5, 8, 17] {
            let pts = scatter(2000, dim, dim as u64 + 1);
            let f = QuantizedPoints::from_row_major(dim, &pts);
            let oracle = FlatPoints::from_row_major(dim, &pts);
            assert_eq!(f.tier.is_some(), dim <= MAX_QUANT_DIM);
            assert_eq!(f.exact(), &oracle);
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
                    count(&f, &w, t),
                    oracle.count_better_than(&w, t),
                    "dim {dim} t {t}"
                );
                for cap in [1usize, 7, 100] {
                    let a = f.count_better_than_capped(&w, t, cap);
                    let b = oracle.count_better_than_capped(&w, t, cap);
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
        let f = QuantizedPoints::from_row_major(2, &pts);
        let oracle = FlatPoints::from_row_major(2, &pts);
        let w = [0.5, 0.5];
        let mut fallbacks = 0;
        for t in [base, 1.0, base + 2.0f64.powi(-26), base + 2.0f64.powi(-25)] {
            let (got, stats) = f.count_better_than_capped_stats(&w, t, usize::MAX);
            assert_eq!(got, oracle.count_better_than(&w, t), "t {t}");
            fallbacks += stats.quantized_fallbacks;
        }
        // The near-tie blocks must actually have exercised the fallback.
        assert!(fallbacks > 0);
    }

    #[test]
    fn degenerate_quantization_inputs_are_safe() {
        // All-equal coordinates (zero-width min/max range per dimension),
        // denormal/tiny spans, and mixtures must neither divide by zero
        // (there is no division anywhere in the tier) nor misclassify.
        let w2 = [0.5, 0.5];
        let agree = |pts: &[f64], thresholds: &[f64]| {
            let f = QuantizedPoints::from_row_major(2, pts);
            let o = FlatPoints::from_row_major(2, pts);
            for &t in thresholds {
                assert_eq!(count(&f, &w2, t), o.count_better_than(&w2, t), "t {t:e}");
            }
        };
        // (a) every point identical => block min == max per dimension.
        let pts: Vec<f64> = (0..700).flat_map(|_| [3.0, 4.0]).collect();
        agree(&pts, &[3.4999, 3.5, 3.5001]);
        // (b) denormal coordinates and spans.
        let tiny = f64::MIN_POSITIVE; // 2^-1022, far below f32 denormals
        let pts: Vec<f64> = (0..700)
            .flat_map(|i| [tiny * (i % 3) as f64, tiny])
            .collect();
        agree(&pts, &[0.0, tiny, tiny * 2.0, 1.0]);
        // (c) tiny span riding on a large offset (catastrophic for a
        // naive quantizer): 1e8 + i*eps.
        let pts: Vec<f64> = (0..700)
            .flat_map(|i| {
                let x = 1e8 + (i % 7) as f64 * 1e-8;
                [x, x]
            })
            .collect();
        agree(&pts, &[1e8 - 1.0, 1e8, 1e8 + 3.0e-8, 1e8 + 1.0]);
        // (d) zero coordinates everywhere (spread == 0.0 exactly).
        let f = QuantizedPoints::from_row_major(2, &[0.0; 1400]);
        for (t, expect) in [(0.0, 0), (-1.0, 0), (1.0, 700)] {
            assert_eq!(count(&f, &w2, t), expect, "t {t}");
        }
        // (e) non-finite coordinates disable the mirror for the block
        // but stay exact.
        let mut pts: Vec<f64> = (0..700).flat_map(|i| [i as f64, 1.0]).collect();
        pts[0] = f64::INFINITY;
        pts[3] = f64::NAN;
        agree(&pts, &[1.0, 5.0, 1e3]);
        // (f) a zero weight skips its dimension in both tiers alike.
        let pts = scatter(500, 2, 9);
        let f = QuantizedPoints::from_row_major(2, &pts);
        let o = FlatPoints::from_row_major(2, &pts);
        for t in [0.1, 5.0, 9.9] {
            assert_eq!(
                count(&f, &[1.0, 0.0], t),
                o.count_better_than(&[1.0, 0.0], t)
            );
        }
    }

    /// SplitMix64: the draws of [`edge_case`].
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A store whose coordinates sit where the error model is fragile —
    /// near `QUANT_MIN_SPREAD` and `QUANT_MAX_ABS` (either side), among
    /// `f32` and `f64` denormals, at ±0, or all of these mixed — and a
    /// weight with zero, `-0.0` and sub-EPS negative entries.
    fn edge_case(seed: u64) -> (usize, Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let state = &mut state;
        let dim = 1 + (next(state) % 5) as usize;
        let n = BLOCK / 2 + (next(state) % (3 * BLOCK as u64)) as usize;
        let scales = [QUANT_MIN_SPREAD, QUANT_MAX_ABS, 1e-40, 1e-310, 1.0];
        let regime = (next(state) % (scales.len() as u64 + 1)) as usize;
        let mut coords = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            let scale = scales
                .get(regime)
                .copied()
                .unwrap_or_else(|| scales[(next(state) % scales.len() as u64) as usize]);
            let x = match next(state) % 8 {
                0 => 0.0,
                1 => -0.0,
                // A repeat: exact ties between points.
                2 if !coords.is_empty() => coords[coords.len() - 1],
                _ => scale * 2.0 * unit(state),
            };
            coords.push(x);
        }
        let w: Vec<f64> = (0..dim)
            .map(|_| match next(state) % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => -1e-10,
                _ => unit(state),
            })
            .collect();
        (dim, coords, w)
    }

    /// Checks one edge case: per ok block, the bounds bracket every exact
    /// score and every `f32` score lies within `±E` of an interval
    /// enclosing the real score (and of the exact one); the two-tier
    /// counts equal the exact ones. Returns the scan stats.
    fn check_error_band(seed: u64) -> Result<ScanStats, String> {
        let (dim, coords, w) = edge_case(seed);
        let q = QuantizedPoints::from_row_major(dim, &coords);
        let tier = q.tier.as_ref().expect("dim ≤ MAX_QUANT_DIM");
        let n = q.exact.len();
        let mut exact = Vec::new();
        q.exact.scores_into(&w, &mut exact);
        let mut wf = [0.0f32; MAX_QUANT_DIM];
        for (o, &x) in wf.iter_mut().zip(&w) {
            *o = x as f32;
        }
        let mut s32 = [0.0f32; BLOCK];
        let mut row = vec![0.0; dim];
        for (block, start) in (0..n).step_by(BLOCK).enumerate() {
            let len = BLOCK.min(n - start);
            if !tier.block_ok[block] {
                continue;
            }
            let (lo, hi, spread) = q.block_bounds(tier, block, &w);
            q.scores_f32(tier, start, &w, &wf, &mut s32[..len]);
            let e = quant_rel_bound(dim) * spread;
            for (slot, &got) in s32[..len].iter().enumerate() {
                let i = tier.perm[start + slot] as usize;
                let s = exact[i];
                if !(lo <= s && s <= hi) {
                    return Err(format!("seed {seed}: score {s:e} outside [{lo:e}, {hi:e}]"));
                }
                if !band_holds(spread) {
                    continue;
                }
                // Interval arithmetic on the real score: the exact kernel
                // is within (dim + 1)·ε·Σ|w_d·x_d| of it, plus one
                // smallest subnormal per term for underflow.
                q.exact.point_into(i, &mut row);
                let abs: f64 = w.iter().zip(&row).map(|(a, b)| (a * b).abs()).sum();
                let slack =
                    (dim as f64 + 1.0) * f64::EPSILON * abs + dim as f64 * f64::from_bits(1);
                let (real_lo, real_hi) = (s - slack, s + slack);
                let got = got as f64;
                if !(real_lo - e <= got && got <= real_hi + e && (got - s).abs() <= e) {
                    return Err(format!(
                        "seed {seed}: f32 score {got:e} outside ±{e:e} of [{real_lo:e}, {real_hi:e}] (exact {s:e})"
                    ));
                }
            }
        }
        let mut thresholds = vec![0.0, -0.0, f64::MIN_POSITIVE, -1e-300, QUANT_MIN_SPREAD];
        let mut state = !seed;
        for _ in 0..12 {
            let s = exact[(next(&mut state) % n as u64) as usize];
            thresholds.extend([s, s * (1.0 + f64::EPSILON), s * (1.0 - f64::EPSILON)]);
        }
        let mut stats = ScanStats::default();
        for t in thresholds {
            let (got, st) = q.count_better_than_capped_stats(&w, t, usize::MAX);
            let want = q.exact.count_better_than(&w, t);
            if got != want {
                return Err(format!("seed {seed}: t {t:e} counted {got}, exact {want}"));
            }
            stats.quantized_blocks += st.quantized_blocks;
            stats.quantized_fallbacks += st.quantized_fallbacks;
            stats.blocks_skipped += st.blocks_skipped;
        }
        Ok(stats)
    }

    #[test]
    fn error_band_holds_at_the_edges_of_the_model() {
        // Over these seeds every tier runs: bounds verdicts, f32 passes
        // and exact fallbacks.
        let mut total = ScanStats::default();
        for seed in 0..48 {
            let stats = check_error_band(seed).unwrap();
            total.quantized_blocks += stats.quantized_blocks;
            total.quantized_fallbacks += stats.quantized_fallbacks;
            total.blocks_skipped += stats.blocks_skipped;
        }
        assert!(total.blocks_skipped > 0, "{total:?}");
        assert!(total.quantized_blocks > 0, "{total:?}");
        assert!(total.quantized_fallbacks > 0, "{total:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
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
            let f = QuantizedPoints::from_row_major(dim, &pts);
            let n = pts.len() / dim;
            let i = pick % n;
            let t = dot(&w, &pts[i * dim..(i + 1) * dim]);
            let naive: Vec<f64> = pts.chunks_exact(dim).map(|p| score(&w, p)).collect();
            let better = naive.iter().filter(|&&s| s < t).count();
            prop_assert_eq!(count(&f, &w, t), better);
            for k in [1usize, 2, 5] {
                prop_assert_eq!(f.count_better_than_capped(&w, t, k) >= k, better >= k);
            }
        }

        #[test]
        fn error_band_holds_for_edge_magnitudes(seed in 0u64..u64::MAX) {
            let checked = check_error_band(seed);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}
