//! The score table against the naive scan: a population's
//! [`ScoreTable`] over a base answers [`ScoreTable::reverse_topk`]
//! through any snapshot of that base — plain, with appended rows, with
//! tombstones inside the stored top-`t` — exactly as
//! [`bichromatic_reverse_topk_naive`] over the live rows, for every `k`
//! its depth serves (after the `live + 1` clamp), and declines every
//! deeper `k`.
//!
//! The data is a coarse grid (score ties and duplicate rows) whose
//! zeros carry either sign and whose first step is a denormal, often
//! with fewer rows than a table is deep. `q` is a data point, a grid
//! point or the grid's far corner — where most weights find `t` stored
//! scores below `f(w, q)`. Tombstones are a stride of the base or its
//! best rows under one weight: the latter sit inside every stored
//! top-`t` and send weights to the per-weight `is_in_topk` fallback.
//! The population carries a sub-EPS negative entry and a `−0.0` entry.
//! Tables are 10 deep, as the engine builds them, and 32 and 128 deep,
//! which pins the depth-generic contract of the type.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the case count (default 8 rounds of 6).

use proptest::prelude::*;
use std::sync::Arc;
use wqrtq_geom::{score, DeltaView, FlatPoints, Point, Weight};
use wqrtq_query::{bichromatic_reverse_topk_naive, ProbeCtx, ScoreTable, Snapshot};
use wqrtq_rtree::RTree;

fn cases() -> ProptestConfig {
    let rounds = std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(8);
    ProptestConfig::with_cases(6 * rounds.max(1))
}

/// Grid coordinate `g`: a zero of either sign, a denormal, or a
/// quarter step.
fn coord(g: usize, negative_zero: bool) -> f64 {
    match g {
        0 if negative_zero => -0.0,
        0 => 0.0,
        1 => f64::MIN_POSITIVE / 4.0,
        g => g as f64 * 0.25,
    }
}

/// The depths tested; the engine builds the first.
const DEPTHS: [usize; 3] = [10, 32, 128];

/// Every table's verdicts through `snap` against the naive scan over
/// `live`, for each `k` of the hostile list.
fn check(
    snap: Snapshot<'_>,
    shape: &str,
    tables: &[ScoreTable],
    weights: &[Weight],
    live: &[f64],
    q: &[f64],
) -> Result<(), TestCaseError> {
    let dim = q.len();
    let points: Vec<Point> = live
        .chunks_exact(dim)
        .map(|p| Point::new(p.to_vec()))
        .collect();
    let n = points.len();
    let mut ctx = ProbeCtx::new();
    for k in [0, 1, 9, 10, 11, 32, 33, 128, 129, n, n + 1, usize::MAX] {
        let naive = bichromatic_reverse_topk_naive(&points, weights, q, k);
        for table in tables {
            let got = table.reverse_topk(snap, weights, q, k, &mut ctx);
            if k.min(n + 1) <= table.depth() {
                prop_assert_eq!(
                    got.as_ref(),
                    Some(&naive),
                    "{} depth {} k {} n {} q {:?}",
                    shape,
                    table.depth(),
                    k,
                    n,
                    q
                );
            } else {
                prop_assert!(
                    got.is_none(),
                    "{} depth {} served k {}",
                    shape,
                    table.depth(),
                    k
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn table_verdicts_match_the_naive_scan_over_the_live_rows(
        grid in proptest::collection::vec((0usize..9, 0usize..9, 0usize..9, proptest::bool::ANY), 0..200),
        extra in proptest::collection::vec((0usize..9, 0usize..9, 0usize..9, proptest::bool::ANY), 0..16),
        raw in proptest::collection::vec((0usize..5, 0usize..5, 0usize..5), 1..8),
        shape in (2usize..4, 0usize..3, 0usize..3, 0usize..3),
        params in (0usize..200, 1usize..6, 0usize..4),
    ) {
        let (dim, q_choice, dead_choice, tie_copies) = shape;
        let (pick, stride, delta_q) = params;
        let row = |&(a, b, c, neg): &(usize, usize, usize, bool)| {
            [coord(a, neg), coord(b, !neg), coord(c, neg)][..dim].to_vec()
        };
        let mut base: Vec<f64> = grid.iter().flat_map(row).collect();
        let n_grid = base.len() / dim;
        let q = match q_choice {
            0 if n_grid > 0 => base[(pick % n_grid) * dim..(pick % n_grid + 1) * dim].to_vec(),
            1 => vec![2.0; dim],
            _ => row(&(pick % 9, (pick / 9) % 9, 4, pick % 2 == 0)),
        };
        for _ in 0..tie_copies {
            base.extend_from_slice(&q);
        }
        let n_base = base.len() / dim;

        let mut weights: Vec<Weight> = raw
            .iter()
            .map(|&(a, b, c)| Weight::normalized(&[a as f64 + 0.5, b as f64, c as f64][..dim]))
            .collect();
        let mut barely_negative = vec![0.0; dim];
        (barely_negative[0], barely_negative[1]) = (1.0 + 5e-10, -5e-10);
        weights.push(Weight::new(barely_negative));
        let mut signed_zero = vec![0.0; dim];
        (signed_zero[0], signed_zero[1]) = (-0.0, 1.0);
        weights.push(Weight::new(signed_zero));

        let tree = RTree::bulk_load_with_fanout(dim, &base, 8);
        let tables: Vec<ScoreTable> =
            DEPTHS.map(|t| ScoreTable::build(&tree, &weights, t)).into();
        let flat = Arc::new(FlatPoints::from_row_major(dim, &base));

        // Tombstones: none, a stride, or the best rows under the first
        // weight (inside its stored top-t, and most others').
        let mut dead_ids: Vec<u32> = match dead_choice {
            0 => Vec::new(),
            1 => (0..n_base as u32).step_by(stride).collect(),
            _ => {
                let mut by_score: Vec<u32> = (0..n_base as u32).collect();
                let w = weights[0].as_slice();
                let s = |i: u32| score(w, &base[i as usize * dim..(i as usize + 1) * dim]);
                by_score.sort_by(|&a, &b| s(a).total_cmp(&s(b)));
                by_score.truncate(pick.min(n_base));
                by_score
            }
        };
        dead_ids.sort_unstable();
        let dead_rows: Vec<f64> = dead_ids
            .iter()
            .flat_map(|&i| base[i as usize * dim..(i as usize + 1) * dim].to_vec())
            .collect();
        let mut delta_rows: Vec<f64> = extra.iter().flat_map(row).collect();
        for _ in 0..delta_q {
            delta_rows.extend_from_slice(&q);
        }
        let delta_ids: Vec<u32> =
            (0..(delta_rows.len() / dim) as u32).map(|i| n_base as u32 + i).collect();
        let plain = DeltaView::plain(flat.clone());
        let mutated = DeltaView::new(
            flat,
            Arc::new(delta_rows),
            Arc::new(delta_ids),
            Arc::new(dead_rows),
            Arc::new(dead_ids),
        );

        let bare = Snapshot::from(&tree);
        check(bare, "bare", &tables, &weights, &base, &q)?;
        check(bare.overlay(&plain), "plain view", &tables, &weights, &base, &q)?;
        let (live, _) = mutated.materialize_row_major();
        let snap = bare.overlay(&mutated);
        prop_assert_eq!(snap.live_len(), live.len() / dim);
        check(snap, "mutated view", &tables, &weights, &live, &q)?;
    }
}

/// A base whose best rows under every weight are tombstoned, so each
/// weight finds all `t` stored scores below `f(w, q)` while fewer than
/// `k` live rows beat `q`: the verdict is `is_in_topk`'s, which probes.
#[test]
fn tombstones_inside_the_stored_scores_fall_back_to_the_probe() {
    let dim = 2;
    // 60 rows on the diagonal below q, 40 above it.
    let base: Vec<f64> = (0..100).flat_map(|i| [i as f64; 2]).collect();
    let q = [59.5, 59.5];
    let tree = RTree::bulk_load_with_fanout(dim, &base, 8);
    let weights: Vec<Weight> = [0.2, 0.5, 0.8]
        .iter()
        .map(|&x| Weight::from_first_2d(x))
        .collect();
    let table = ScoreTable::build(&tree, &weights, 10);
    let flat = Arc::new(FlatPoints::from_row_major(dim, &base));
    let dead_ids: Vec<u32> = (0..55).collect();
    let dead_rows: Vec<f64> = base[..55 * dim].to_vec();
    let view = DeltaView::new(
        flat,
        Arc::new(Vec::new()),
        Arc::new(Vec::new()),
        Arc::new(dead_rows),
        Arc::new(dead_ids),
    );
    let (live, _) = view.materialize_row_major();
    let points: Vec<Point> = live
        .chunks_exact(dim)
        .map(|p| Point::new(p.to_vec()))
        .collect();
    for k in [5, 6, 9, 10] {
        let mut ctx = ProbeCtx::new();
        let snap = Snapshot::from(&tree).overlay(&view);
        let got = table.reverse_topk(snap, &weights, &q, k, &mut ctx);
        let naive = bichromatic_reverse_topk_naive(&points, &weights, &q, k);
        assert_eq!(got, Some(naive), "k {k}");
        // 5 live rows beat q, but all 10 stored scores and 55 tombstones
        // lie below f(w, q): `10 − 55 + 0 ≥ k` never holds, so every
        // verdict is the probe's.
        assert!(ctx.nodes_visited > 0, "k {k}: the fallback did not probe");
    }
    // Without the tombstones the same table decides everything itself.
    let mut ctx = ProbeCtx::new();
    let plain = table.reverse_topk(&tree, &weights, &q, 10, &mut ctx);
    assert_eq!(plain, Some(Vec::new()));
    assert_eq!(ctx.nodes_visited, 0);
}
