//! A snapshot's one ranked walk, `ProbeCtx::bounded_topk`, merges the
//! base index's bounded top-k with a k-bounded heap of the appended
//! rows; this suite runs it **to exhaustion** (`k` past the live count)
//! and proves the sequence is the one order every ranking keeps, at
//! overlay sizes and depths `differential.rs` never reaches (it appends
//! ≤ 13 rows and stops at `k ≤ 13`).
//!
//! The oracle is that order taken literally: score every live row and
//! sort by `(score via f64::total_cmp, id)` — `−0.0` before `+0.0`, and
//! equal scores by id whether the rows sit in the base, in the overlay
//! or one in each. No tie is exempt: the sequence is a function of the
//! live rows.
//!
//! The data sits on a coarse grid with both signs of zero, duplicated
//! rows and copies of `q` in the base and in the overlay, under weights
//! with zero entries, so exact ties are everywhere.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the case count (default 8 rounds; each
//! round runs every overlay size against every tombstone pattern).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wqrtq_core::explain;
use wqrtq_geom::{score, DeltaView, FlatPoints};
use wqrtq_query::{kth_point, topk, ProbeCtx, Snapshot};
use wqrtq_rtree::RTree;

const DELTAS: [usize; 6] = [0, 1, 2, 17, 300, 5_000];

fn rounds() -> usize {
    std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(1)
}

/// Which base rows are tombstoned.
#[derive(Clone, Copy, Debug)]
enum Dead {
    None,
    Some,
    All,
}

/// One live row as the oracle ranks it.
#[derive(Clone, Debug)]
struct Row {
    id: u32,
    score: f64,
    coords: Vec<f64>,
}

/// `n` gridded rows: few levels per coordinate, zeros of either sign.
fn gridded(rng: &mut StdRng, n: usize, dim: usize, levels: u32) -> Vec<f64> {
    (0..n * dim)
        .map(|_| {
            let x = f64::from(rng.gen_range(0..levels)) * 0.25;
            if x == 0.0 && rng.gen_bool(0.5) {
                -0.0
            } else {
                x
            }
        })
        .collect()
}

/// Overwrites a few random rows with copies of `q`.
fn plant(rng: &mut StdRng, rows: &mut [f64], q: &[f64], copies: usize) {
    let n = rows.len() / q.len();
    for _ in 0..copies.min(n) {
        let at = rng.gen_range(0..n) * q.len();
        rows[at..at + q.len()].copy_from_slice(q);
    }
}

/// Weights on a grid of eighths (exact ties between distinct rows),
/// led by the ones with zero entries.
fn weights(rng: &mut StdRng, dim: usize) -> Vec<Vec<f64>> {
    let mut axis = vec![0.0; dim];
    axis[rng.gen_range(0..dim)] = 1.0;
    let mut pair = vec![0.0; dim];
    (pair[0], pair[dim - 1]) = (0.5, 0.5);
    let mut eighths = vec![0u32; dim];
    for _ in 0..8 {
        eighths[rng.gen_range(0..dim)] += 1;
    }
    vec![
        axis,
        pair,
        eighths.iter().map(|&e| f64::from(e) / 8.0).collect(),
        vec![1.0 / dim as f64; dim],
    ]
}

/// The order, literally: every live row sorted by `(score via
/// total_cmp, id)`.
fn oracle(view: &DeltaView, w: &[f64]) -> Vec<Row> {
    let (live, ids) = view.materialize_row_major();
    let mut rows: Vec<Row> = live
        .chunks_exact(view.dim())
        .zip(&ids)
        .map(|(coords, &id)| Row {
            id,
            score: score(w, coords),
            coords: coords.to_vec(),
        })
        .collect();
    rows.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.id.cmp(&b.id)));
    rows
}

fn assert_same(got: (u32, f64, &[f64]), want: &Row, what: &str) {
    let (id, score, coords) = got;
    assert_eq!(id, want.id, "{what}: id");
    assert_eq!(score.to_bits(), want.score.to_bits(), "{what}: score bits");
    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(coords), bits(&want.coords), "{what}: coordinates");
}

/// Runs the walk to exhaustion and checks every consumer against the
/// oracle.
fn check(snap: Snapshot<'_>, view: &DeltaView, w: &[f64], what: &str) {
    let want = oracle(view, w);
    let (live, delta) = (want.len(), view.delta_len());
    assert_eq!(snap.live_len(), live, "{what}: live count");

    let mut walked = Vec::with_capacity(live);
    ProbeCtx::new().bounded_topk(snap, w, live + 1, |p| {
        walked.push((p.id, p.score, p.coords.to_vec()));
    });
    assert_eq!(walked.len(), live, "{what}: the walk emits every live row");
    for (pos, ((id, s, coords), row)) in walked.iter().zip(&want).enumerate() {
        assert_same((*id, *s, coords), row, &format!("{what} @{pos}"));
    }

    for k in [0, 1, delta, live, live + 1] {
        let prefix: Vec<(u32, u64)> = want
            .iter()
            .take(k)
            .map(|r| (r.id, r.score.to_bits()))
            .collect();
        let bounded: Vec<(u32, u64)> = topk(snap, w, k)
            .into_iter()
            .map(|(id, s)| (id, s.to_bits()))
            .collect();
        assert_eq!(bounded, prefix, "{what}: top-k prefix at k = {k}");
        let got = kth_point(snap, w, k);
        match k.checked_sub(1).and_then(|i| want.get(i)) {
            None => assert!(got.is_none(), "{what}: k-th point at k = {k}"),
            Some(row) => {
                let p = got.unwrap_or_else(|| panic!("{what}: no k-th point at k = {k}"));
                assert_same(
                    (p.id, p.score, &p.coords),
                    row,
                    &format!("{what} k-th k={k}"),
                );
            }
        }
    }

    // The culprit scan, from queries ranked past the overlay: a live row
    // a little deeper than Δ (ties at the boundary) and a point every
    // live row beats (every live row is a culprit).
    let beaten_by_all = vec![8.0; view.dim()];
    let deep = want.get((delta + 3).min(live.saturating_sub(1)));
    for q in deep.map(|r| &r.coords).into_iter().chain([&beaten_by_all]) {
        let sq = score(w, q);
        let strictly_better = want.iter().filter(|r| r.score < sq).count();
        let mut ctx = ProbeCtx::new();
        let ex = explain(snap, w, q, usize::MAX, &mut ctx);
        assert_eq!(ex.rank, strictly_better + 1, "{what}: explained rank");
        assert!(!ex.truncated, "{what}: an unbounded scan never truncates");
        assert_eq!(ex.culprits.len(), strictly_better, "{what}: culprit count");
        for (pos, (c, row)) in ex.culprits.iter().zip(&want).enumerate() {
            let what = format!("{what} culprit {pos}");
            assert_same((c.id, c.score, &c.coords), row, &what);
        }
        let limit = strictly_better / 2;
        let cut = explain(snap, w, q, limit, &mut ctx);
        assert_eq!(cut.rank, ex.rank, "{what}: a limit keeps the rank");
        assert_eq!(
            cut.culprits,
            ex.culprits[..limit],
            "{what}: limited culprits"
        );
        assert_eq!(cut.truncated, limit < strictly_better, "{what}: truncated");
    }
}

#[test]
fn merged_traversal_drains_in_contract_order() {
    let mut rng = StdRng::seed_from_u64(0x0E21_A7ED);
    for round in 0..rounds() {
        let dim = rng.gen_range(2usize..5);
        let levels = rng.gen_range(2u32..6);
        let base_n = [1, 7, 90, 700][rng.gen_range(0usize..4)];
        let q = gridded(&mut rng, 1, dim, levels);
        let mut base = gridded(&mut rng, base_n, dim, levels);
        plant(&mut rng, &mut base, &q, round % 3);
        let tree = RTree::bulk_load_with_fanout(dim, &base, [4, 8, 64][round % 3]);
        let flat = Arc::new(FlatPoints::from_row_major(dim, &base));
        let ws = weights(&mut rng, dim);

        for delta_n in DELTAS {
            for dead in [Dead::None, Dead::Some, Dead::All] {
                let mut delta_rows = gridded(&mut rng, delta_n, dim, levels);
                plant(&mut rng, &mut delta_rows, &q, 2);
                // Strictly ascending ids with gaps (earlier appends that
                // were since deleted), so slot != id − base_n.
                let mut next = base_n as u32;
                let delta_ids: Vec<u32> = (0..delta_n)
                    .map(|_| {
                        next += rng.gen_range(1u32..4);
                        next - 1
                    })
                    .collect();
                let stride = rng.gen_range(2usize..5);
                let dead_ids: Vec<u32> = match dead {
                    Dead::None => Vec::new(),
                    Dead::Some => (0..base_n as u32).step_by(stride).collect(),
                    Dead::All => (0..base_n as u32).collect(),
                };
                let dead_rows: Vec<f64> = dead_ids
                    .iter()
                    .flat_map(|&i| base[i as usize * dim..(i as usize + 1) * dim].to_vec())
                    .collect();
                let view = DeltaView::new(
                    flat.clone(),
                    Arc::new(delta_rows),
                    Arc::new(delta_ids),
                    Arc::new(dead_rows),
                    Arc::new(dead_ids),
                );
                let snap = Snapshot::from(&tree).overlay(&view);
                for w in &ws {
                    let what =
                        format!("round {round} d={dim} n={base_n} Δ={delta_n} {dead:?} w={w:?}");
                    check(snap, &view, w, &what);
                    if view.is_plain() {
                        // No view at all is the same traversal.
                        check(Snapshot::from(&tree), &view, w, &format!("{what} bare"));
                    }
                }
            }
        }
    }
}
