//! Monochromatic reverse top-k queries in two dimensions (Definition 2).
//!
//! In 2-D every weighting vector is `w = (x, 1 − x)` for some `x ∈ [0, 1]`,
//! so `MRTOPk(q)` is a union of intervals of `x`. Each point `p` beats `q`
//! exactly where the linear function
//! `g_p(x) = f(w, p) − f(w, q) = (p₁ − q₁) + x·((p₀ − q₀) − (p₁ − q₁))`
//! is negative; a single left-to-right sweep over the roots of all `g_p`
//! maintains the count of beating points and reports the maximal regions
//! where fewer than `k` points beat `q`. This reproduces the paper's
//! Figure 2: `MRTOP3(q)` is the segment from `B(1/6, 5/6)` to
//! `C(3/4, 1/4)`.
//!
//! Ties are handled with the paper's `≤` semantics: at the exact root of a
//! `g_p`, `p` ties with `q` and does *not* push it out, so qualifying
//! intervals are closed (and isolated qualifying weights — where the count
//! dips only at a tie point — are reported as degenerate intervals).

/// A closed interval `[lo, hi]` of the first weight component `x`,
/// with `w = (x, 1 − x)`. Degenerate (`lo == hi`) intervals are single
/// qualifying weights.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightInterval {
    /// Smallest qualifying `x`.
    pub lo: f64,
    /// Largest qualifying `x`.
    pub hi: f64,
}

impl WeightInterval {
    /// Whether `x` lies in the closed interval (with tolerance `1e-12`).
    pub fn contains(&self, x: f64) -> bool {
        self.lo - 1e-12 <= x && x <= self.hi + 1e-12
    }
}

/// Computes the exact `MRTOPk(q)` weight intervals over a flat 2-D point
/// buffer. Returns maximal disjoint closed intervals in ascending order.
///
/// # Panics
/// Panics if the buffer length is odd or `q` is not two-dimensional.
pub fn monochromatic_reverse_topk_2d(points: &[f64], q: &[f64], k: usize) -> Vec<WeightInterval> {
    assert_eq!(points.len() % 2, 0, "coordinate buffer length mismatch");
    assert_eq!(q.len(), 2, "q must be two-dimensional");
    if k == 0 {
        return Vec::new();
    }
    let n = points.len() / 2;
    // Past `n + 1` every `k` admits the whole segment; the clamp keeps
    // the signed counts below exact.
    let k = k.min(n + 1);

    // Count of points beating q just right of x = 0, plus crossing events.
    #[derive(Clone, Copy)]
    struct Event {
        x: f64,
        // +1: p starts beating q after x; −1: p stops beating q after x.
        delta: i64,
    }
    let mut base = 0i64; // beats on (0, first event)
    let mut base_at0 = 0i64; // beats exactly at x = 0
    let mut events: Vec<Event> = Vec::new();

    for i in 0..n {
        let a = points[i * 2] - q[0]; // g(1)
        let b = points[i * 2 + 1] - q[1]; // g(0)
        let slope = a - b;
        if b < 0.0 {
            base_at0 += 1;
        }
        if slope == 0.0 {
            // Constant g: beats everywhere or nowhere.
            if b < 0.0 {
                base += 1;
            }
            continue;
        }
        let root = -b / slope;
        // Sign just right of 0: b, or slope when b == 0.
        let beats_initially = b < 0.0 || (b == 0.0 && slope < 0.0);
        if beats_initially {
            base += 1;
        }
        if root > 0.0 && root < 1.0 {
            events.push(Event {
                x: root,
                delta: if beats_initially { -1 } else { 1 },
            });
        }
    }
    events.sort_by(|p, r| p.x.total_cmp(&r.x));

    let kk = k as i64;
    let mut regions: Vec<(f64, f64)> = Vec::new(); // qualifying closed runs
    let push = |lo: f64, hi: f64, regions: &mut Vec<(f64, f64)>| {
        if let Some(last) = regions.last_mut() {
            if lo <= last.1 + 1e-12 {
                last.1 = last.1.max(hi);
                return;
            }
        }
        regions.push((lo, hi));
    };

    // Point x = 0.
    if base_at0 < kk {
        push(0.0, 0.0, &mut regions);
    }
    let mut count = base;
    let mut prev_x = 0.0f64;
    let mut i = 0usize;
    while i <= events.len() {
        let seg_end = if i < events.len() { events[i].x } else { 1.0 };
        // Open interval (prev_x, seg_end).
        if count < kk && seg_end > prev_x {
            push(prev_x, seg_end, &mut regions);
        }
        if i == events.len() {
            break;
        }
        // Gather all events at this x.
        let x = events[i].x;
        let mut down = 0i64; // p's that stop beating (they tie AT x)
        let mut up = 0i64; // p's that start beating (they tie AT x too)
        while i < events.len() && events[i].x == x {
            if events[i].delta < 0 {
                down += 1;
            } else {
                up += 1;
            }
            i += 1;
        }
        // Exactly at x every crossing point ties with q → doesn't beat.
        let count_at = count - down;
        if count_at < kk {
            push(x, x, &mut regions);
        }
        count = count - down + up;
        prev_x = x;
    }
    // Point x = 1: count just left of 1 excludes points tying at 1.
    let beats_at1 = (0..n)
        .filter(|&i| {
            let g1 = points[i * 2] - q[0];
            g1 < 0.0
        })
        .count() as i64;
    if beats_at1 < kk {
        push(1.0, 1.0, &mut regions);
    }

    regions
        .into_iter()
        .map(|(lo, hi)| WeightInterval { lo, hi })
        .collect()
}

/// Whether the weighting vector `(x, 1 − x)` is in `MRTOPk(q)` given the
/// intervals from [`monochromatic_reverse_topk_2d`].
pub fn weight_in_result(intervals: &[WeightInterval], x: f64) -> bool {
    intervals.iter().any(|iv| iv.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    #[test]
    fn figure_2_segment_bc() {
        // MRTOP3(q) for q=(4,4) is exactly [1/6, 3/4].
        let iv = monochromatic_reverse_topk_2d(&fig_points(), &[4.0, 4.0], 3);
        assert_eq!(iv.len(), 1, "{iv:?}");
        assert!((iv[0].lo - 1.0 / 6.0).abs() < 1e-9, "{iv:?}");
        assert!((iv[0].hi - 3.0 / 4.0).abs() < 1e-9, "{iv:?}");
        // The paper's example vectors w2=(1/6,5/6) and w3=(3/4,1/4) are in,
        // A=(1/10,9/10) and D=(4/5,1/5) are out.
        assert!(weight_in_result(&iv, 1.0 / 6.0));
        assert!(weight_in_result(&iv, 3.0 / 4.0));
        assert!(!weight_in_result(&iv, 0.1));
        assert!(!weight_in_result(&iv, 0.8));
    }

    #[test]
    fn k_one_top_choice_region() {
        // For k=1 with q=(4,4), p1=(2,1) beats q for every weight
        // (it dominates q), so MRTOP1(q) is empty.
        let iv = monochromatic_reverse_topk_2d(&fig_points(), &[4.0, 4.0], 1);
        assert!(iv.is_empty(), "{iv:?}");
    }

    #[test]
    fn k_zero_is_empty_and_large_k_is_everything() {
        assert!(monochromatic_reverse_topk_2d(&fig_points(), &[4.0, 4.0], 0).is_empty());
        let iv = monochromatic_reverse_topk_2d(&fig_points(), &[4.0, 4.0], 8);
        assert_eq!(iv.len(), 1);
        assert_eq!((iv[0].lo, iv[0].hi), (0.0, 1.0));
    }

    #[test]
    fn dominating_query_point_qualifies_everywhere() {
        let iv = monochromatic_reverse_topk_2d(&fig_points(), &[0.5, 0.5], 1);
        assert_eq!(iv.len(), 1);
        assert_eq!((iv[0].lo, iv[0].hi), (0.0, 1.0));
    }

    #[test]
    fn tie_only_weight_is_degenerate_interval() {
        // Two symmetric points both beat q except exactly at x = 0.5 where
        // both tie: the result for k=1 is the single weight (0.5, 0.5).
        let pts = vec![1.0, 3.0, 3.0, 1.0];
        let q = [2.0, 2.0];
        let iv = monochromatic_reverse_topk_2d(&pts, &q, 1);
        assert_eq!(iv.len(), 1, "{iv:?}");
        assert!((iv[0].lo - 0.5).abs() < 1e-12);
        assert!((iv[0].hi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_everything_qualifies() {
        let iv = monochromatic_reverse_topk_2d(&[], &[1.0, 1.0], 1);
        assert_eq!(iv.len(), 1);
        assert_eq!((iv[0].lo, iv[0].hi), (0.0, 1.0));
    }

    /// Brute-force oracle: rank of q at a specific x.
    fn rank_at(points: &[f64], q: &[f64], x: f64) -> usize {
        let w = [x, 1.0 - x];
        let sq = w[0] * q[0] + w[1] * q[1];
        let n = points.len() / 2;
        (0..n)
            .filter(|&i| w[0] * points[i * 2] + w[1] * points[i * 2 + 1] < sq)
            .count()
            + 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn sweep_matches_brute_force_sampling(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..80),
            q in (0.0f64..10.0, 0.0f64..10.0),
            k in 1usize..6,
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let qv = [q.0, q.1];
            let iv = monochromatic_reverse_topk_2d(&flat, &qv, k);
            // Dense sampling (avoids exact event points w.h.p.).
            for s in 0..200 {
                let x = (s as f64 + 0.5) / 200.0;
                let qualifies = rank_at(&flat, &qv, x) <= k;
                prop_assert_eq!(
                    weight_in_result(&iv, x),
                    qualifies,
                    "x = {} intervals = {:?}",
                    x,
                    iv
                );
            }
        }

        #[test]
        fn intervals_are_sorted_and_disjoint(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..80),
            q in (0.0f64..10.0, 0.0f64..10.0),
            k in 1usize..6,
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let iv = monochromatic_reverse_topk_2d(&flat, &[q.0, q.1], k);
            for w in iv.windows(2) {
                prop_assert!(w[0].hi < w[1].lo);
            }
            for i in &iv {
                prop_assert!(i.lo <= i.hi);
                prop_assert!((0.0..=1.0).contains(&i.lo));
                prop_assert!((0.0..=1.0).contains(&i.hi));
            }
        }
    }
}
