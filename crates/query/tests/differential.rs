//! The one differential property behind the single-entry-point API:
//! whatever a [`Snapshot`] carries — nothing, a plain overlay or a
//! mutated overlay — every operation answers bit-identically to the
//! naive scan over the snapshot's live rows
//! ([`DeltaView::materialize_row_major`]).
//!
//! The data is drawn from a coarse grid (exact score ties between
//! distinct points) with copies of `q` injected into both the base and
//! the appended rows (ties right at the `k` boundary).
//!
//! Weights with a negative entry — a plainly negative raw slice, and a
//! population weight whose sub-EPS negative entry `Weight::new`
//! tolerates — are checked against the same naive scan: the index's
//! node bounds pick each dimension's corner by the entry's sign.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the case count (default 8 rounds of 6).

use proptest::prelude::*;
use std::sync::Arc;
use wqrtq_geom::{score, DeltaView, FlatPoints, Point, Weight};
use wqrtq_query::{
    bichromatic_reverse_topk_naive, bichromatic_reverse_topk_rta, is_in_topk, kth_point,
    rank_of_point, rank_of_point_scan, rta_over_order, rta_sorted_order, topk, topk_scan, ProbeCtx,
    Snapshot,
};
use wqrtq_rtree::RTree;

fn cases() -> ProptestConfig {
    let rounds = std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(8);
    ProptestConfig::with_cases(6 * rounds.max(1))
}

/// Everything one case checks a snapshot shape against.
struct Case<'a> {
    /// The live rows (row-major) and the stable id of each.
    live: &'a [f64],
    ids: &'a [u32],
    q: &'a [f64],
    k: usize,
    /// The bichromatic population, and every weight the scalar
    /// operations run under: the last population weight has a sub-EPS
    /// negative entry `Weight::new` tolerates.
    weights: &'a [Weight],
    /// A raw weight slice with a plainly negative entry (scalar
    /// operations only: no `Weight` admits it).
    negative: &'a [f64],
}

fn check_shape(snap: Snapshot<'_>, shape: &str, c: &Case<'_>) -> Result<(), TestCaseError> {
    let dim = c.q.len();
    let mut ctx = ProbeCtx::new();
    // q itself probes the tie boundary; a few data points probe the rest.
    let queries: Vec<&[f64]> = std::iter::once(c.q)
        .chain(c.live.chunks_exact(dim).take(4))
        .collect();
    let scalar_weights = c.weights.iter().map(Weight::as_slice);
    for w in scalar_weights.chain(std::iter::once(c.negative)) {
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
    #![proptest_config(cases())]

    #[test]
    fn every_snapshot_shape_matches_the_naive_scan_over_its_live_rows(
        grid in proptest::collection::vec((0usize..40, 0usize..40, 0usize..40), 4..160),
        extra in proptest::collection::vec((0usize..40, 0usize..40, 0usize..40), 0..12),
        shape in (2usize..4, 0usize..40, 0usize..40, 0usize..40),
        raw in proptest::collection::vec((0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0), 1..12),
        params in (1usize..14, 2usize..6, 0usize..4),
    ) {
        let (dim, q0, q1, q2) = shape;
        let (k, del_stride, tie_copies) = params;
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

        let mut weights: Vec<Weight> = raw
            .iter()
            .map(|&(a, b, c)| Weight::normalized(&[a, b, c][..dim]))
            .collect();
        let mut negative = vec![0.0; dim];
        (negative[0], negative[1]) = (1.3, -0.3);
        let mut barely_negative = vec![0.0; dim];
        (barely_negative[0], barely_negative[1]) = (1.0 + 5e-10, -5e-10);
        weights.push(Weight::new(barely_negative));

        let bare = Snapshot::from(&tree);
        for (view, shapes) in [
            (
                &plain,
                vec![("bare", bare), ("plain view", bare.overlay(&plain))],
            ),
            (
                &mutated,
                vec![("mutated view", bare.overlay(&mutated))],
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
            };
            for (name, snap) in shapes {
                prop_assert_eq!(snap.live_len(), ids.len());
                check_shape(snap, name, &case)?;
            }
        }
    }
}
