//! `Snapshot::best_first` merges the base index's ranking with a lazily
//! consumed heap of the appended rows; this suite drains it **to
//! exhaustion** and proves the sequence is the one its order contract
//! spells out, at overlay sizes and depths `differential.rs` never
//! reaches (it appends ≤ 13 rows and stops at `k ≤ 13`).
//!
//! The oracle is the contract taken literally: score every live row,
//! stable-sort, base before appended on a tie, appended rows among
//! themselves by slot. One subtlety is pinned rather than avoided: the
//! two streams are each ordered by `f64::total_cmp` (−0.0 before +0.0)
//! but compared with each other by `<=`, under which the two zeros tie —
//! so the oracle orders by value first, base-before-delta second, sign
//! of zero third.
//!
//! The data sits on a coarse grid with both signs of zero, duplicated
//! rows and copies of `q` in the base and in the overlay, under weights
//! with zero entries, so exact ties are everywhere. Rows that tie *within
//! the base* keep the index's traversal order, which no contract fixes:
//! for those the score is compared and the id only has to be a base id
//! (that every live id leaves exactly once is checked separately).
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
    appended: bool,
    /// Another live *base* row has the same score value.
    base_tie: bool,
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

/// The contract, literally: canonical order (live base rows ascending,
/// then appended rows by slot) stable-sorted by score value, base before
/// appended, then `total_cmp` (the sign of a zero).
fn oracle(view: &DeltaView, w: &[f64]) -> Vec<Row> {
    let (live, ids) = view.materialize_row_major();
    let base_n = view.base_len() as u32;
    let mut rows: Vec<Row> = live
        .chunks_exact(view.dim())
        .zip(&ids)
        .map(|(coords, &id)| Row {
            id,
            score: score(w, coords),
            coords: coords.to_vec(),
            appended: id >= base_n,
            base_tie: false,
        })
        .collect();
    rows.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .expect("finite scores")
            .then(a.appended.cmp(&b.appended))
            .then(a.score.total_cmp(&b.score))
    });
    // Base rows of one score value are adjacent after the sort.
    for i in 1..rows.len() {
        if !rows[i].appended && !rows[i - 1].appended && rows[i].score == rows[i - 1].score {
            rows[i].base_tie = true;
            rows[i - 1].base_tie = true;
        }
    }
    rows
}

fn assert_same(got: (u32, f64, &[f64]), want: &Row, base_n: u32, what: &str) {
    let (id, score, coords) = got;
    if want.base_tie {
        assert_eq!(score, want.score, "{what}: score");
        assert!(id < base_n, "{what}: a base row must be emitted");
        return;
    }
    assert_eq!(id, want.id, "{what}: id");
    assert_eq!(score.to_bits(), want.score.to_bits(), "{what}: score bits");
    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(coords), bits(&want.coords), "{what}: coordinates");
}

/// Drains the traversal and checks every consumer against the oracle.
fn check(snap: Snapshot<'_>, view: &DeltaView, w: &[f64], what: &str) {
    let want = oracle(view, w);
    let base_n = view.base_len() as u32;
    let (live, delta) = (want.len(), view.delta_len());
    assert_eq!(snap.live_len(), live, "{what}: live count");

    let mut it = snap.best_first(w);
    let mut emitted = Vec::with_capacity(live);
    for (pos, row) in want.iter().enumerate() {
        let p = it
            .next_entry()
            .unwrap_or_else(|| panic!("{what}: exhausted at {pos} of {live}"));
        assert_same(
            (p.id, p.score, p.coords),
            row,
            base_n,
            &format!("{what} @{pos}"),
        );
        emitted.push(p.id);
    }
    assert!(
        it.next_entry().is_none(),
        "{what}: emits past the live rows"
    );
    assert!(it.next_entry().is_none(), "{what}: exhaustion is sticky");
    emitted.sort_unstable();
    let mut ids: Vec<u32> = want.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(emitted, ids, "{what}: every live id exactly once");

    for k in [0, 1, delta, live, live + 1] {
        // The bounded top-k is the traversal's prefix, base ties and
        // signs of zero included.
        let mut fresh = snap.best_first(w);
        let prefix: Vec<(u32, u64)> = std::iter::from_fn(|| fresh.next_entry())
            .take(k)
            .map(|p| (p.id, p.score.to_bits()))
            .collect();
        let bounded: Vec<(u32, u64)> = topk(snap, w, k)
            .into_iter()
            .map(|(id, s)| (id, s.to_bits()))
            .collect();
        assert_eq!(bounded, prefix, "{what}: top-k prefix at k = {k}");
        assert_eq!(
            kth_point(snap, w, k).map(|p| (p.id, p.score.to_bits())),
            k.checked_sub(1).and_then(|i| prefix.get(i).copied()),
            "{what}: k-th point of the prefix at k = {k}"
        );

        let got = kth_point(snap, w, k);
        match k.checked_sub(1).and_then(|i| want.get(i)) {
            None => assert!(got.is_none(), "{what}: k-th point at k = {k}"),
            Some(row) => {
                let p = got.unwrap_or_else(|| panic!("{what}: no k-th point at k = {k}"));
                let what = format!("{what} k-th k={k}");
                assert_same((p.id, p.score, &p.coords), row, base_n, &what);
                let top = topk(snap, w, k);
                assert_eq!(top.len(), k, "{what}: top-k length");
                assert_eq!(
                    top[k - 1].1.to_bits(),
                    p.score.to_bits(),
                    "{what}: top-k tail"
                );
            }
        }
    }

    // The unbounded culprit scan, from queries ranked past the overlay:
    // a live row a little deeper than Δ (ties at the boundary) and a
    // point every live row beats (the scan drains the whole traversal).
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
            assert_same((c.id, c.score, &c.coords), row, base_n, &what);
        }
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
