//! Sampling machinery for MWK and MQWK (§4.3–4.4).
//!
//! **Weight samples.** For a fixed target rank, the optimal modified
//! weighting vector lies on one of the hyperplanes
//! `{w : w·(p − q) = 0}` for `p` incomparable with `q`, intersected with
//! the weight simplex (§4.3, citing \[14\]). The paper further narrows the
//! sample space to vectors that "approximate the minimum `|w − wᵢ|`" —
//! for one hyperplane that minimiser is the *projection* of the why-not
//! vector `wᵢ` onto it. The sampler therefore draws, per sample:
//!
//! * with high probability, the projection of a (random) why-not anchor
//!   onto the tie hyperplane of a point currently *beating* `q` under
//!   that anchor (crossing such a hyperplane is what improves `q`'s
//!   rank), optionally jittered along the hyperplane for diversity;
//! * otherwise an exploration draw: a feasible point of a random
//!   incomparable hyperplane, randomised by hit-and-run steps.
//!
//! Every sample is nudged `ε` into the closed "`p` does not beat `q`"
//! side so downstream exact-arithmetic rank computations agree with the
//! paper's tie semantics (`f(w,q) ≤ f(w,p)` keeps `q` in).
//!
//! **Query-point samples.** MQWK samples candidate query points from the
//! box `(qmin, q)` where `qmin` is the MQP optimum — any point outside
//! that box is provably dominated by an endpoint solution (§4.4).

use crate::incomparable::{DominanceFrontier, Reuse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use wqrtq_geom::{dot, Weight};
use wqrtq_query::ProbeCtx;

/// Samples weighting vectors from the union of the `I`-hyperplanes of a
/// dominance frontier, anchored at the why-not vectors.
#[derive(Debug)]
pub struct WeightSampler<'a> {
    frontier: &'a DominanceFrontier,
    anchors: Vec<Weight>,
    /// Per anchor: indices of incomparable points beating `q` under it.
    culprits: Vec<Vec<u32>>,
    rng: StdRng,
    /// Number of hit-and-run randomisation steps per exploration sample.
    mix_steps: usize,
    /// The vectors of one draw, so that a draw allocates nothing: the tie
    /// plane's normal `δ = p − q`, its projection `δ̃` into `Σ = 0`, a
    /// tangent direction, and the sample itself.
    delta: Vec<f64>,
    dtilde: Vec<f64>,
    dir: Vec<f64>,
    w: Vec<f64>,
}

impl<'a> WeightSampler<'a> {
    /// Creates a sampler over the frontier's incomparable hyperplanes,
    /// anchored at `why_not` (the vectors whose neighbourhood matters).
    pub fn new(frontier: &'a DominanceFrontier, why_not: &[Weight], seed: u64) -> Self {
        let culprits = Reuse::new(frontier, &[], why_not).culprits(frontier);
        Self::with_culprits(frontier, why_not, culprits, seed)
    }

    /// [`WeightSampler::new`] with each anchor's culprits (positions in
    /// the frontier's `I`, ascending) already found.
    pub(crate) fn with_culprits(
        frontier: &'a DominanceFrontier,
        why_not: &[Weight],
        culprits: Vec<Vec<u32>>,
        seed: u64,
    ) -> Self {
        Self {
            frontier,
            anchors: why_not.to_vec(),
            culprits,
            rng: StdRng::seed_from_u64(seed),
            mix_steps: 6,
            delta: Vec::new(),
            dtilde: Vec::new(),
            dir: Vec::new(),
            w: Vec::new(),
        }
    }

    /// Draws up to `n` sample weighting vectors. Returns fewer (possibly
    /// zero) when the frontier has no incomparable points or degenerate
    /// hyperplanes are hit repeatedly.
    pub fn sample(&mut self, n: usize) -> Vec<Weight> {
        let mut out = Vec::with_capacity(n);
        self.sample_each(n, |w| {
            out.push(Weight::new(w));
            ControlFlow::Continue(())
        });
        out
    }

    /// [`WeightSampler::sample`], lending each draw to `sink` instead of
    /// boxing it; a `sink` that breaks ends the draws.
    pub(crate) fn sample_each(
        &mut self,
        n: usize,
        mut sink: impl FnMut(&[f64]) -> ControlFlow<()>,
    ) {
        let m = self.frontier.num_incomparable();
        if m == 0 {
            return;
        }
        let (mut drawn, mut failures) = (0, 0);
        while drawn < n && failures < 8 * n + 64 {
            let drew = if !self.anchors.is_empty() && self.rng.gen::<f64>() < 0.75 {
                self.sample_projection()
            } else {
                let p_idx = self.rng.gen_range(0..m);
                self.sample_on_plane(p_idx)
            };
            if drew {
                if sink(&self.w).is_break() {
                    return;
                }
                drawn += 1;
            } else {
                failures += 1;
            }
        }
    }

    /// Loads the tie plane of the `p_idx`-th incomparable point — `δ` and
    /// `δ̃ = δ − mean(δ)·1` — and returns `δ̃·δ̃`.
    fn load_plane(&mut self, p_idx: usize) -> f64 {
        let (p, q) = (self.frontier.incomparable_point(p_idx), self.frontier.q());
        self.delta.clear();
        self.delta.extend(p.iter().zip(q).map(|(x, y)| x - y));
        let dmean = self.delta.iter().sum::<f64>() / q.len() as f64;
        self.dtilde.clear();
        self.dtilde.extend(self.delta.iter().map(|d| d - dmean));
        self.dtilde.iter().map(|d| d * d).sum()
    }

    /// Projection draw: project a random anchor onto the tie hyperplane
    /// of one of its culprit points — the minimal move neutralising that
    /// point (and every nearer one).
    fn sample_projection(&mut self) -> bool {
        let a_idx = self.rng.gen_range(0..self.anchors.len());
        let culprits = &self.culprits[a_idx];
        if culprits.is_empty() {
            return false;
        }
        let p_idx = culprits[self.rng.gen_range(0..culprits.len())] as usize;
        let dd = self.load_plane(p_idx);
        if dd < 1e-18 {
            return false;
        }

        // Projection within the Σw = 1 plane: w = a − μ·δ̃ with
        // μ = (a·δ)/(δ̃·δ̃).
        let anchor = self.anchors[a_idx].as_slice();
        let mu = dot(anchor, &self.delta) / dd;
        self.w.clear();
        let projected = anchor.iter().zip(&self.dtilde).map(|(ai, di)| ai - mu * di);
        self.w.extend(projected);

        // Optional jitter along the hyperplane for diversity (d > 2).
        if anchor.len() > 2 && self.rng.gen::<f64>() < 0.5 && self.tangent_direction(dd) {
            let (lo, hi) = step_range(&self.w, &self.dir);
            let lo = lo.max(-0.15);
            let hi = hi.min(0.15);
            if hi > lo {
                let t = self.rng.gen_range(lo..hi);
                for (wk, dk) in self.w.iter_mut().zip(&self.dir) {
                    *wk += t * dk;
                }
            }
        }
        self.finish_sample(dd)
    }

    /// Exploration draw: a feasible point of `{w ∈ simplex : w·δ = 0}`
    /// randomised by hit-and-run.
    fn sample_on_plane(&mut self, p_idx: usize) -> bool {
        let dd = self.load_plane(p_idx);
        let delta = &self.delta;
        let dim = delta.len();
        // Feasible construction: one index where p is better (δ < 0) and
        // one where it is worse (δ > 0); incomparability guarantees both
        // exist (up to ties, which we skip).
        let is_neg = |i: &usize| delta[*i] < -1e-12;
        let is_pos = |i: &usize| delta[*i] > 1e-12;
        let (negs, poss) = (
            (0..dim).filter(is_neg).count(),
            (0..dim).filter(is_pos).count(),
        );
        if negs == 0 || poss == 0 {
            return false;
        }
        let i = (0..dim).filter(is_neg).nth(self.rng.gen_range(0..negs));
        let j = (0..dim).filter(is_pos).nth(self.rng.gen_range(0..poss));
        let (i, j) = (i.expect("counted"), j.expect("counted"));
        // w = t·e_i + (1−t)·e_j with t·δ_i + (1−t)·δ_j = 0.
        let t = delta[j] / (delta[j] - delta[i]);
        let w = &mut self.w;
        w.clear();
        w.resize(dim, 0.0);
        w[i] = t;
        w[j] = 1.0 - t;

        // Hit-and-run inside {w ≥ 0, Σw = 1, w·δ = 0} for d > 2.
        if dim > 2 {
            for _ in 0..self.mix_steps {
                if self.tangent_direction(dd) {
                    let (lo, hi) = step_range(&self.w, &self.dir);
                    if hi > lo {
                        let t = self.rng.gen_range(lo..hi);
                        for (wk, dk) in self.w.iter_mut().zip(&self.dir) {
                            *wk = (*wk + t * dk).max(0.0);
                        }
                        let s: f64 = self.w.iter().sum();
                        for wk in &mut self.w {
                            *wk /= s;
                        }
                    }
                }
            }
        }
        self.finish_sample(dd)
    }

    /// Clamps to the simplex and nudges ε into the closed "p does not
    /// beat q" side (w·δ ≥ 0). Mathematically the tie itself keeps q in
    /// (the paper's ≤ semantics); the nudge makes exact-arithmetic rank
    /// computations agree under floating point. Its 1e-9 magnitude is far
    /// above rounding noise and far below any observable penalty.
    fn finish_sample(&mut self, dd: f64) -> bool {
        let Self {
            delta, dtilde, w, ..
        } = self;
        for x in w.iter_mut() {
            if !x.is_finite() {
                return false;
            }
            *x = x.max(0.0);
        }
        let s: f64 = w.iter().sum();
        if s <= 0.0 || dd < 1e-18 {
            return false;
        }
        for x in w.iter_mut() {
            *x /= s;
        }
        // Clamping may have pushed w off the hyperplane to the beating
        // side; correct by projecting the violation out, then nudge.
        let viol = dot(w, delta);
        if viol < 0.0 {
            let mu = viol / dd;
            for (wk, dk) in w.iter_mut().zip(dtilde.iter()) {
                *wk = (*wk - mu * dk).max(0.0);
            }
        }
        for (wk, dk) in w.iter_mut().zip(dtilde.iter()) {
            *wk = (*wk + 1e-9 * dk).max(0.0);
        }
        let s: f64 = w.iter().sum();
        if s <= 0.0 {
            return false;
        }
        for x in w.iter_mut() {
            *x /= s;
        }
        true
    }

    /// A random unit direction in the tangent space
    /// `{v : Σv = 0, v·δ = 0}` of the loaded plane, into `dir`.
    fn tangent_direction(&mut self, dd: f64) -> bool {
        let Self {
            dtilde, dir, rng, ..
        } = self;
        let dim = dtilde.len();
        dir.clear();
        dir.extend((0..dim).map(|_| rng.gen::<f64>() - 0.5));
        // Project out the all-ones direction.
        let mean = dir.iter().sum::<f64>() / dim as f64;
        for x in dir.iter_mut() {
            *x -= mean;
        }
        // Project out δ (within the Σ=0 subspace: that is δ̃).
        if dd < 1e-18 {
            return false;
        }
        let vd: f64 = dir.iter().zip(dtilde.iter()).map(|(a, b)| a * b).sum();
        for (x, d) in dir.iter_mut().zip(dtilde.iter()) {
            *x -= vd / dd * d;
        }
        let norm: f64 = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return false;
        }
        for x in dir.iter_mut() {
            *x /= norm;
        }
        true
    }
}

/// The range of `t` keeping `w + t·d ≥ 0`.
fn step_range(w: &[f64], d: &[f64]) -> (f64, f64) {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for (wi, di) in w.iter().zip(d) {
        if *di > 1e-15 {
            lo = lo.max(-wi / di);
        } else if *di < -1e-15 {
            hi = hi.min(-wi / di);
        }
    }
    (lo.max(-1e3), hi.min(1e3))
}

/// Samples `n` candidate query points uniformly from the open box
/// `(qmin, q)` — the qualified sample space of MQWK (§4.4).
pub fn sample_query_points(qmin: &[f64], q: &[f64], n: usize, seed: u64) -> Vec<Vec<f64>> {
    sample_query_points_with(qmin, q, n, seed, &ProbeCtx::new())
}

/// [`sample_query_points`], polling `ctx`'s cancel flag once per 256
/// draws: once it is set, the points drawn so far — fewer than `n` —
/// are returned, for the caller to discard.
pub fn sample_query_points_with(
    qmin: &[f64],
    q: &[f64],
    n: usize,
    seed: u64,
    ctx: &ProbeCtx,
) -> Vec<Vec<f64>> {
    assert_eq!(qmin.len(), q.len(), "dimension mismatch");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        if ctx.cancelled_at(i) {
            break;
        }
        let point = qmin.iter().zip(q).map(|(lo, hi)| {
            if hi > lo {
                rng.gen_range(*lo..*hi)
            } else {
                *lo
            }
        });
        points.push(point.collect());
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_geom::score;
    use wqrtq_rtree::RTree;

    fn fig_frontier() -> DominanceFrontier {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = RTree::bulk_load(2, &pts);
        DominanceFrontier::new(&tree, &[4.0, 4.0])
    }

    fn kevin_julia() -> Vec<Weight> {
        vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])]
    }

    #[test]
    fn samples_lie_on_tie_hyperplanes_2d() {
        let f = fig_frontier();
        let mut s = WeightSampler::new(&f, &kevin_julia(), 42);
        let ws = s.sample(50);
        assert!(!ws.is_empty());
        for w in &ws {
            // Each sample ties q with SOME incomparable point.
            let sq = score(w, f.q());
            let tied = (0..f.num_incomparable())
                .any(|i| (score(w, f.incomparable_point(i)) - sq).abs() < 1e-6);
            assert!(tied, "sample {w:?} ties no incomparable point");
        }
    }

    #[test]
    fn samples_never_land_on_beating_side() {
        // The ε-nudge guarantees the tying point does not beat q.
        let f = fig_frontier();
        let mut s = WeightSampler::new(&f, &kevin_julia(), 8);
        for w in s.sample(100) {
            let sq = score(&w, f.q());
            let near_tie_beats = (0..f.num_incomparable()).any(|i| {
                let sp = score(&w, f.incomparable_point(i));
                (sp - sq).abs() < 1e-6 && sp < sq
            });
            assert!(!near_tie_beats, "sample {w:?} has its tie point beating q");
        }
    }

    #[test]
    fn paper_tie_weights_are_reachable() {
        // p4=(9,3) ties q=(4,4) at w=(1/6,5/6); p7=(3,7) at w=(3/4,1/4)
        // (Figure 2(b) landmarks B and C). With anchored projection both
        // appear quickly: they are the projections of Kevin and Julia.
        let f = fig_frontier();
        let mut s = WeightSampler::new(&f, &kevin_julia(), 7);
        let ws = s.sample(200);
        let found_b = ws.iter().any(|w| (w[0] - 1.0 / 6.0).abs() < 1e-6);
        let found_c = ws.iter().any(|w| (w[0] - 0.75).abs() < 1e-6);
        assert!(found_b, "tie weight of p4 never sampled");
        assert!(found_c, "tie weight of p7 never sampled");
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let f = fig_frontier();
        let anchors = kevin_julia();
        let a: Vec<Vec<f64>> = WeightSampler::new(&f, &anchors, 5)
            .sample(20)
            .into_iter()
            .map(|w| w.into_vec())
            .collect();
        let b: Vec<Vec<f64>> = WeightSampler::new(&f, &anchors, 5)
            .sample(20)
            .into_iter()
            .map(|w| w.into_vec())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_frontier_yields_no_samples() {
        let pts = vec![0.1, 0.1, 0.2, 0.2]; // both points dominate q: I = ∅
        let tree = RTree::bulk_load(2, &pts);
        let f = DominanceFrontier::new(&tree, &[5.0, 5.0]);
        assert_eq!(f.num_incomparable(), 0);
        let mut s = WeightSampler::new(&f, &kevin_julia(), 1);
        assert!(s.sample(10).is_empty());
    }

    #[test]
    fn three_d_samples_satisfy_constraints() {
        // 3-D: projections and hit-and-run must keep samples on the
        // simplex ∩ (some tie hyperplane).
        let pts = vec![
            5.0, 1.0, 9.0, //
            1.0, 8.0, 4.0, //
            9.0, 5.0, 1.0, //
            2.0, 9.0, 9.0, //
        ];
        let tree = RTree::bulk_load(3, &pts);
        let q = [4.0, 4.0, 4.0];
        let f = DominanceFrontier::new(&tree, &q);
        assert!(f.num_incomparable() > 0);
        let anchors = vec![Weight::new(vec![0.2, 0.3, 0.5])];
        let mut s = WeightSampler::new(&f, &anchors, 11);
        let ws = s.sample(100);
        assert!(ws.len() >= 50);
        for w in &ws {
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(w.iter().all(|&x| x >= 0.0));
            let sq = score(w, &q);
            let tied = (0..f.num_incomparable())
                .any(|i| (score(w, f.incomparable_point(i)) - sq).abs() < 1e-5);
            assert!(tied, "3-D sample {w:?} lies on no tie hyperplane");
        }
    }

    #[test]
    fn projections_cluster_near_their_anchor() {
        // The §4.3 quality requirement: samples should approximate the
        // minimum |w − wi|. Anchored projections must on average sit far
        // closer to the anchor than blind feasible-point construction.
        let pts: Vec<f64> = (0..400)
            .flat_map(|i| {
                let a = (i as f64 * 0.7919) % 1.0 * 10.0;
                let b = (i as f64 * 0.3617) % 1.0 * 10.0;
                let c = (i as f64 * 0.5387) % 1.0 * 10.0;
                [a, b, c]
            })
            .collect();
        let tree = RTree::bulk_load(3, &pts);
        let q = [3.0, 3.0, 3.0];
        let f = DominanceFrontier::new(&tree, &q);
        let anchor = Weight::new(vec![0.6, 0.3, 0.1]);
        let mut anchored = WeightSampler::new(&f, std::slice::from_ref(&anchor), 3);
        let mut blind = WeightSampler::new(&f, &[], 3);
        let mean_dist = |ws: &[Weight]| {
            ws.iter().map(|w| anchor.distance(w)).sum::<f64>() / ws.len().max(1) as f64
        };
        let da = mean_dist(&anchored.sample(200));
        let db = mean_dist(&blind.sample(200));
        assert!(
            da < 0.7 * db,
            "anchored mean distance {da} should be well below blind {db}"
        );
    }

    #[test]
    fn three_d_hit_and_run_actually_mixes() {
        // Exploration samples from one hyperplane should differ — the
        // polytope has positive dimension for d = 3.
        let pts = vec![5.0, 1.0, 9.0];
        let tree = RTree::bulk_load(3, &pts);
        let f = DominanceFrontier::new(&tree, &[4.0, 4.0, 4.0]);
        let mut s = WeightSampler::new(&f, &[], 3);
        let ws = s.sample(20);
        assert_eq!(ws.len(), 20);
        let first = ws[0].as_slice().to_vec();
        assert!(
            ws.iter().any(|w| {
                w.as_slice()
                    .iter()
                    .zip(&first)
                    .any(|(a, b)| (a - b).abs() > 1e-6)
            }),
            "all 20 samples identical — hit-and-run not mixing"
        );
    }

    #[test]
    fn query_point_samples_stay_in_box() {
        let qmin = [1.0, 2.0, 3.0];
        let q = [2.0, 2.0, 5.0]; // middle dim degenerate
        let samples = sample_query_points(&qmin, &q, 64, 9);
        assert_eq!(samples.len(), 64);
        for s in &samples {
            assert!(s[0] >= 1.0 && s[0] <= 2.0);
            assert_eq!(s[1], 2.0);
            assert!(s[2] >= 3.0 && s[2] <= 5.0);
        }
    }
}
