//! The one differential property behind the single-entry-point API:
//! whatever a [`Snapshot`] carries — nothing, a plain overlay, a mutated
//! overlay, a dominance mask, or any combination — every operation
//! answers bit-identically to the naive scan over the snapshot's live
//! rows ([`DeltaView::materialize_row_major`]).
//!
//! The data is drawn from a coarse grid (exact score ties between
//! distinct points) with copies of `q` injected into both the base and
//! the appended rows (ties right at the `k` boundary), `k` runs past the
//! mask's build cap (forcing the unmasked fallback).
//!
//! A weight with a negative entry is outside the index's contract (MBR
//! score bounds assume monotone scoring), so the naive scan is no oracle
//! for it; what must hold is that every masked tier steps aside — a
//! shape with a mask answers exactly like the same shape without it.

use proptest::prelude::*;
use std::sync::Arc;
use wqrtq_geom::{score, DeltaView, FlatPoints, Point, Weight};
use wqrtq_query::{
    bichromatic_reverse_topk_naive, bichromatic_reverse_topk_rta, is_in_topk, kth_point,
    rank_of_point, rank_of_point_scan, rta_over_order, rta_sorted_order, topk, topk_scan, ProbeCtx,
    Snapshot,
};
use wqrtq_rtree::{DominanceIndex, RTree};

/// Everything one case checks a snapshot shape against.
struct Case<'a> {
    /// The live rows (row-major) and the stable id of each.
    live: &'a [f64],
    ids: &'a [u32],
    q: &'a [f64],
    k: usize,
    /// Non-negative weights: the scalar operations run per weight, RTA
    /// takes them as the bichromatic population.
    weights: &'a [Weight],
    /// A raw weight slice with a plainly negative entry, and a population
    /// weight whose negative entry `Weight::new` tolerates (sub-EPS).
    negative: &'a [f64],
    barely_negative: &'a Weight,
}

fn check_shape(snap: Snapshot<'_>, shape: &str, c: &Case<'_>) -> Result<(), TestCaseError> {
    let dim = c.q.len();
    let mut ctx = ProbeCtx::new();
    // q itself probes the tie boundary; a few data points probe the rest.
    let queries: Vec<&[f64]> = std::iter::once(c.q)
        .chain(c.live.chunks_exact(dim).take(4))
        .collect();
    for w in c.weights.iter().map(Weight::as_slice) {
        for qq in &queries {
            let oracle = rank_of_point_scan(c.live, w, qq);
            prop_assert_eq!(
                rank_of_point(snap, w, qq),
                oracle,
                "{} rank w {:?}",
                shape,
                w
            );
            for k in [0, 1, c.k, c.k + 9] {
                prop_assert_eq!(
                    is_in_topk(snap, w, qq, k, &mut ctx),
                    k > 0 && oracle <= k,
                    "{} membership w {:?} q {:?} k {}",
                    shape,
                    w,
                    qq,
                    k
                );
            }
        }

        let oracle = topk_scan(c.live, w, c.k);
        let got = topk(snap, w, c.k);
        prop_assert_eq!(got.len(), oracle.len(), "{} top-k length", shape);
        for (g, o) in got.iter().zip(&oracle) {
            prop_assert_eq!(g.1, o.1, "{} top-k score w {:?}", shape, w);
            // Ids must map through the live-row id table wherever the
            // score is strict (exact ties may permute between
            // structures).
            let tied = c
                .live
                .chunks_exact(dim)
                .filter(|p| score(w, p) == o.1)
                .count()
                > 1;
            if !tied {
                prop_assert_eq!(g.0, c.ids[o.0 as usize], "{} top-k id", shape);
            }
        }
        prop_assert_eq!(
            kth_point(snap, w, c.k).map(|p| p.score),
            oracle.get(c.k - 1).map(|o| o.1),
            "{} k-th score w {:?}",
            shape,
            w
        );
        prop_assert!(kth_point(snap, w, 0).is_none());
        prop_assert!(kth_point(snap, w, c.ids.len() + 1).is_none());
    }

    // Negative entries: the mask must not change a thing.
    let unmasked = Snapshot { dom: None, ..snap };
    for qq in &queries {
        for k in [1, c.k, c.k + 9] {
            prop_assert_eq!(
                is_in_topk(snap, c.negative, qq, k, &mut ctx),
                is_in_topk(unmasked, c.negative, qq, k, &mut ctx),
                "{} negative-weight membership q {:?} k {}",
                shape,
                qq,
                k
            );
        }
    }
    let mut with_negative = c.weights.to_vec();
    with_negative.push(c.barely_negative.clone());
    prop_assert_eq!(
        bichromatic_reverse_topk_rta(snap, &with_negative, c.q, c.k),
        bichromatic_reverse_topk_rta(unmasked, &with_negative, c.q, c.k),
        "{} negative-weight RTA",
        shape
    );

    let live_points: Vec<Point> = c
        .live
        .chunks_exact(dim)
        .map(|p| Point::new(p.to_vec()))
        .collect();
    let naive = bichromatic_reverse_topk_naive(&live_points, c.weights, c.q, c.k);
    prop_assert_eq!(
        &bichromatic_reverse_topk_rta(snap, c.weights, c.q, c.k),
        &naive,
        "{} one-shot RTA",
        shape
    );
    // Sharded, each shard on a cold context …
    let order = rta_sorted_order(c.weights);
    let mut merged = Vec::new();
    for piece in order.chunks(order.len().div_ceil(3)) {
        let mut cold = ProbeCtx::new();
        merged.extend(rta_over_order(snap, c.weights, piece, c.q, c.k, &mut cold));
        prop_assert_eq!(
            cold.rta.buffer_prunes + cold.rta.tree_verifications,
            piece.len(),
            "{} every weight decided exactly once",
            shape
        );
    }
    merged.sort_unstable();
    prop_assert_eq!(&merged, &naive, "{} sharded RTA", shape);
    // … and unsharded on the context every probe above already used,
    // after an RTA for a different query left its pool behind.
    let other = c.live.chunks_exact(dim).next().unwrap_or(c.q);
    rta_over_order(snap, c.weights, &order, other, c.k, &mut ctx);
    prop_assert!(ctx.is_warm());
    let mut warm = rta_over_order(snap, c.weights, &order, c.q, c.k, &mut ctx);
    warm.sort_unstable();
    prop_assert_eq!(&warm, &naive, "{} warm-context RTA", shape);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_snapshot_shape_matches_the_naive_scan_over_its_live_rows(
        grid in proptest::collection::vec((0usize..40, 0usize..40, 0usize..40), 4..160),
        extra in proptest::collection::vec((0usize..40, 0usize..40, 0usize..40), 0..12),
        shape in (2usize..4, 0usize..40, 0usize..40, 0usize..40),
        raw in proptest::collection::vec((0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0), 1..12),
        params in (1usize..14, 2usize..6, 0usize..4, 0usize..3),
    ) {
        let (dim, q0, q1, q2) = shape;
        let (k, del_stride, tie_copies, cap_choice) = params;
        let row = |&(a, b, c): &(usize, usize, usize)| {
            [a as f64 * 0.25, b as f64 * 0.25, c as f64 * 0.25][..dim].to_vec()
        };
        let q = row(&(q0, q1, q2));

        // Base rows, with copies of q tying it under every weight.
        let mut base: Vec<f64> = grid.iter().flat_map(row).collect();
        for _ in 0..tie_copies {
            base.extend_from_slice(&q);
        }
        let n_base = base.len() / dim;
        let tree = RTree::bulk_load_with_fanout(dim, &base, 8);
        // A cap of 2 or 5 puts most k past it; the default never does.
        let dom = DominanceIndex::build_with_cap(&tree, [2, 5, 1024][cap_choice]);
        let flat = Arc::new(FlatPoints::from_row_major(dim, &base));

        // Overlay: tombstone every del_stride-th base row, append
        // `extra` plus one more copy of q.
        let dead_ids: Vec<u32> = (0..n_base as u32).step_by(del_stride).collect();
        let dead_rows: Vec<f64> = dead_ids
            .iter()
            .flat_map(|&i| base[i as usize * dim..(i as usize + 1) * dim].to_vec())
            .collect();
        let mut delta_rows: Vec<f64> = extra.iter().flat_map(row).collect();
        delta_rows.extend_from_slice(&q);
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

        let weights: Vec<Weight> = raw
            .iter()
            .map(|&(a, b, c)| Weight::normalized(&[a, b, c][..dim]))
            .collect();
        let mut negative = vec![0.0; dim];
        (negative[0], negative[1]) = (1.3, -0.3);
        let mut barely_negative = vec![0.0; dim];
        (barely_negative[0], barely_negative[1]) = (1.0 + 5e-10, -5e-10);
        let barely_negative = Weight::new(barely_negative);

        let bare = Snapshot::from(&tree);
        for (view, shapes) in [
            (
                &plain,
                vec![
                    ("bare", bare),
                    ("bare+mask", bare.mask(&dom)),
                    ("plain view", bare.overlay(&plain)),
                    ("plain view+mask", bare.overlay(&plain).mask(&dom)),
                ],
            ),
            (
                &mutated,
                vec![
                    ("mutated view", bare.overlay(&mutated)),
                    ("mutated view+mask", bare.overlay(&mutated).mask(&dom)),
                ],
            ),
        ] {
            let (live, ids) = view.materialize_row_major();
            let case = Case {
                live: &live,
                ids: &ids,
                q: &q,
                k,
                weights: &weights,
                negative: &negative,
                barely_negative: &barely_negative,
            };
            for (name, snap) in shapes {
                prop_assert_eq!(snap.live_len(), ids.len());
                check_shape(snap, name, &case)?;
            }
        }
    }
}
