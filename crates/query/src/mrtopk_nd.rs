//! Approximate monochromatic reverse top-k in arbitrary dimensions.
//!
//! For d > 2 the exact `MRTOPk(q)` is a union of cells of a hyperplane
//! arrangement on the (d−1)-simplex, whose complexity grows quickly
//! (the paper's §2 notes that published exact monochromatic algorithms
//! are 2-D). This module provides the standard sampling estimate: RTA
//! over a population drawn uniformly from the simplex, reporting the
//! qualifying samples plus the estimated volume fraction of the
//! qualifying region.
//!
//! In 2-D the estimate converges to the exact interval measure from
//! [`crate::mrtopk`], which the tests verify.

use crate::brtopk::bichromatic_reverse_topk_rta;
use crate::snapshot::{ProbeCtx, Snapshot};
use wqrtq_geom::Weight;

/// A sampled estimate of the monochromatic reverse top-k result.
#[derive(Clone, Debug)]
pub struct MrtopkEstimate {
    /// Sampled weighting vectors whose top-k contains `q`.
    pub members: Vec<Weight>,
    /// Number of samples drawn.
    pub samples: usize,
    /// Estimated fraction of the weight simplex in `MRTOPk(q)`.
    pub volume_fraction: f64,
}

impl MrtopkEstimate {
    /// The estimate over a drawn `population` whose members are the
    /// ascending indices `members`, moved out in draw order.
    pub fn from_members(mut population: Vec<Weight>, members: &[usize]) -> Self {
        let samples = population.len();
        for (slot, &i) in members.iter().enumerate() {
            population.swap(slot, i); // `i ≥ slot`: members ascend
        }
        population.truncate(members.len());
        Self {
            volume_fraction: members.len() as f64 / samples.max(1) as f64,
            samples,
            members: population,
        }
    }
}

/// Deterministic splitmix64 step (no external RNG needed here).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The `samples` weighting vectors the estimate for `(dim, samples,
/// seed)` is taken over: uniform simplex draws via exponential spacings,
/// a pure function of its arguments.
pub fn simplex_population(dim: usize, samples: usize, seed: u64) -> Vec<Weight> {
    simplex_population_with(dim, samples, seed, &ProbeCtx::new())
}

/// [`simplex_population`], polling `ctx`'s cancel flag once per 256
/// draws: once it is set, the weights drawn so far — fewer than
/// `samples` — are returned, for the caller to discard.
pub fn simplex_population_with(
    dim: usize,
    samples: usize,
    seed: u64,
    ctx: &ProbeCtx,
) -> Vec<Weight> {
    let mut state = seed ^ 0xd1b54a32d192ed03;
    let mut spacing = || -unit(&mut state).max(f64::EPSILON).ln();
    let mut population = Vec::with_capacity(samples);
    for i in 0..samples {
        if ctx.cancelled_at(i) {
            break;
        }
        population.push(Weight::normalized(
            (0..dim).map(|_| spacing()).collect::<Vec<_>>(),
        ));
    }
    population
}

/// Estimates `MRTOPk(q)` over the snapshot's live points: RTA over
/// [`simplex_population`]`(dim, samples, seed)` on `ctx`. Every verdict is
/// exact, so the estimate is identical for any two snapshots holding the
/// same live rows. A cancel flag on `ctx` stops the draws and RTA within
/// a chunk of 256; the estimate is then the caller's to discard.
///
/// # Panics
/// Panics if `q` does not match the snapshot's dimensionality.
pub fn monochromatic_reverse_topk_sampled<'a>(
    snap: impl Into<Snapshot<'a>>,
    q: &[f64],
    k: usize,
    samples: usize,
    seed: u64,
    ctx: &mut ProbeCtx,
) -> MrtopkEstimate {
    let snap = snap.into();
    assert_eq!(q.len(), snap.dim(), "query dimension mismatch");
    let population = simplex_population_with(snap.dim(), samples, seed, ctx);
    let members = bichromatic_reverse_topk_rta(snap, &population, q, k, ctx);
    MrtopkEstimate::from_members(population, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrtopk::monochromatic_reverse_topk_2d;
    use wqrtq_geom::DeltaView;
    use wqrtq_rtree::RTree;

    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    #[test]
    fn estimate_converges_to_exact_measure_in_2d() {
        // Exact MRTOP3(q) is [1/6, 3/4]: measure 7/12 ≈ 0.5833 of the
        // simplex (x is uniform on [0,1] under simplex sampling in 2-D).
        let pts = fig_points();
        let tree = RTree::bulk_load(2, &pts);
        let est = monochromatic_reverse_topk_sampled(
            &tree,
            &[4.0, 4.0],
            3,
            4000,
            7,
            &mut ProbeCtx::new(),
        );
        let exact = monochromatic_reverse_topk_2d(&pts, &[4.0, 4.0], 3);
        let exact_measure: f64 = exact.iter().map(|iv| iv.hi - iv.lo).sum();
        assert!(
            (est.volume_fraction - exact_measure).abs() < 0.04,
            "estimate {} vs exact measure {exact_measure}",
            est.volume_fraction
        );
    }

    #[test]
    fn members_are_genuine_members() {
        let pts = fig_points();
        let tree = RTree::bulk_load(2, &pts);
        let est =
            monochromatic_reverse_topk_sampled(&tree, &[4.0, 4.0], 3, 500, 3, &mut ProbeCtx::new());
        let exact = monochromatic_reverse_topk_2d(&pts, &[4.0, 4.0], 3);
        for w in &est.members {
            assert!(
                exact.iter().any(|iv| iv.contains(w[0])),
                "sampled member {w:?} outside the exact intervals"
            );
        }
    }

    #[test]
    fn three_d_estimate_is_sane() {
        // A dominated query qualifies nowhere; a dominating one
        // everywhere.
        let mut pts = Vec::new();
        let mut state = 5u64;
        for _ in 0..500 {
            for _ in 0..3 {
                pts.push(unit(&mut state) + 0.5);
            }
        }
        let tree = RTree::bulk_load(3, &pts);
        let everywhere = monochromatic_reverse_topk_sampled(
            &tree,
            &[0.1, 0.1, 0.1],
            1,
            300,
            1,
            &mut ProbeCtx::new(),
        );
        assert_eq!(everywhere.volume_fraction, 1.0);
        let nowhere = monochromatic_reverse_topk_sampled(
            &tree,
            &[10.0, 10.0, 10.0],
            1,
            300,
            1,
            &mut ProbeCtx::new(),
        );
        assert_eq!(nowhere.volume_fraction, 0.0);
        assert!(nowhere.members.is_empty());
    }

    #[test]
    fn view_estimate_matches_rebuilt_oracle() {
        use std::sync::Arc;
        use wqrtq_geom::FlatPoints;
        let pts = fig_points();
        let tree = RTree::bulk_load(2, &pts);
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        );
        let (live, _) = view.materialize_row_major();
        let rebuilt = RTree::bulk_load(2, &live);
        for (k, seed) in [(1, 3u64), (3, 9), (5, 42)] {
            let overlaid = Snapshot::from(&tree).overlay(&view);
            let got = monochromatic_reverse_topk_sampled(
                overlaid,
                &[4.0, 4.0],
                k,
                400,
                seed,
                &mut ProbeCtx::new(),
            );
            let oracle = monochromatic_reverse_topk_sampled(
                &rebuilt,
                &[4.0, 4.0],
                k,
                400,
                seed,
                &mut ProbeCtx::new(),
            );
            assert_eq!(got.volume_fraction, oracle.volume_fraction, "k {k}");
            assert_eq!(got.members.len(), oracle.members.len());
            for (a, b) in got.members.iter().zip(&oracle.members) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let tree = RTree::bulk_load(2, &fig_points());
        let a =
            monochromatic_reverse_topk_sampled(&tree, &[4.0, 4.0], 3, 200, 9, &mut ProbeCtx::new());
        let b =
            monochromatic_reverse_topk_sampled(&tree, &[4.0, 4.0], 3, 200, 9, &mut ProbeCtx::new());
        assert_eq!(a.volume_fraction, b.volume_fraction);
        assert_eq!(a.members.len(), b.members.len());
    }

    /// Uniform rows in `[0, 1)^dim` from the module's own splitmix stream.
    fn uniform_rows(dim: usize, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n * dim).map(|_| unit(&mut state)).collect()
    }

    /// FNV-1a over the bits of every member entry, in draw order.
    fn member_bits(est: &MrtopkEstimate) -> u64 {
        est.members
            .iter()
            .flat_map(|w| w.as_slice().iter())
            .fold(0xcbf2_9ce4_8422_2325, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The estimates the per-sample `is_in_topk` loop produced before the
    /// sampler became one RTA run over its drawn population (commit
    /// `a8cc9d6`): `volume_fraction` (its shortest round-trip form, so
    /// bit-exact), member count and the members' bit hash, over a plain
    /// tree and through an overlay (every 7th base row deleted, 60 rows
    /// appended).
    #[test]
    fn estimates_are_pinned_to_the_per_sample_loop() {
        use std::sync::Arc;
        use wqrtq_geom::FlatPoints;
        /// `(q, k, samples, seed, overlaid, "fraction count hash")`.
        type Pin = (&'static [f64], usize, usize, u64, bool, &'static str);
        #[rustfmt::skip]
        let pins: [Pin; 8] = [
            (&[0.04, 0.05, 0.03], 10, 1000, 1, false, "0.939 939 38abfd98fdb7cad6"),
            (&[0.01, 0.2, 0.05], 5, 500, 42, false, "0.19 95 5a651b93cd76bd08"),
            (&[0.06, 0.005, 0.07], 3, 2000, 7, false, "0.575 1150 985154c41286469e"),
            (&[0.2; 5], 10, 1000, 3, false, "0.115 115 486dd135176d1cc9"),
            (&[0.1, 0.4, 0.2, 0.3, 0.1], 3, 800, 99, false, "0.02875 23 145a3c8284a7c749"),
            (&[0.3, 0.1, 0.25, 0.05, 0.2], 25, 1500, 2015, false,
                "0.7146666666666667 1072 4c38663fd260dd34"),
            (&[0.04, 0.05, 0.03], 10, 1000, 1, true, "0.879 879 16ee1fa6fe58ec9a"),
            (&[0.3, 0.1, 0.25, 0.05, 0.2], 25, 1500, 2015, true, "0.112 168 f8c3d4f4285cde47"),
        ];
        for (q, k, samples, seed, overlaid, pinned) in pins {
            let dim = q.len();
            let n = if dim == 3 { 2000 } else { 1000 };
            let pts = uniform_rows(dim, n, 11 + dim as u64);
            let tree = RTree::bulk_load(dim, &pts);
            let dead_ids: Vec<u32> = (0..n as u32).step_by(7).collect();
            let dead_rows: Vec<f64> = dead_ids
                .iter()
                .flat_map(|&i| pts[i as usize * dim..(i as usize + 1) * dim].to_vec())
                .collect();
            let view = DeltaView::new(
                Arc::new(FlatPoints::from_row_major(dim, &pts)),
                Arc::new(uniform_rows(dim, 60, 99).iter().map(|x| x * 0.3).collect()),
                Arc::new((0..60u32).map(|i| n as u32 + i).collect()),
                Arc::new(dead_rows),
                Arc::new(dead_ids),
            );
            let snap = if overlaid {
                Snapshot::from(&tree).overlay(&view)
            } else {
                Snapshot::from(&tree)
            };
            let mut ctx = ProbeCtx::new();
            let est = monochromatic_reverse_topk_sampled(snap, q, k, samples, seed, &mut ctx);
            let got = format!(
                "{} {} {:x}",
                est.volume_fraction,
                est.members.len(),
                member_bits(&est)
            );
            assert_eq!(got, pinned, "q {q:?} k {k} seed {seed} overlay {overlaid}");
        }
    }

    #[test]
    fn a_set_cancel_flag_stops_the_draws_within_one_chunk() {
        use crate::snapshot::CANCEL_POLL_CHUNK;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut ctx = ProbeCtx::new();
        ctx.cancel = Some(Arc::new(AtomicBool::new(false)));
        let bits = |ws: &[Weight]| -> Vec<u64> {
            ws.iter()
                .flat_map(|w| w.as_slice().iter().map(|x| x.to_bits()))
                .collect()
        };
        let unset = simplex_population_with(3, 1000, 7, &ctx);
        assert_eq!(bits(&unset), bits(&simplex_population(3, 1000, 7)));
        ctx.cancel = Some(Arc::new(AtomicBool::new(true)));
        let drawn = simplex_population_with(3, 1 << 20, 7, &ctx);
        assert!(drawn.len() <= CANCEL_POLL_CHUNK, "{} drawn", drawn.len());
    }
}
