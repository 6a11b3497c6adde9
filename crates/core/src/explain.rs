//! The first aspect of a why-not answer: *why* is the weighting vector
//! missing from the reverse top-k result?
//!
//! Per the paper (§3): a why-not vector `w` is excluded because more than
//! `k − 1` points score strictly better than `q` under `w`; those points
//! are the answer. The exact rank comes from the counted index (no
//! point enumerated), and the culprits are a prefix of the snapshot's
//! one ranked walk, [`ProbeCtx::bounded_topk`]: under its
//! `(score via total_cmp, id)` order the rows scoring strictly below
//! `f(w, q)` are exactly its first `rank − 1` entries, so the walk stops
//! at the culprit limit instead of draining every better point.

use wqrtq_query::{rank_of_point, ProbeCtx, Snapshot};

/// A data point responsible for excluding a why-not weighting vector.
#[derive(Clone, Debug, PartialEq)]
pub struct Culprit {
    /// Point id in the indexed dataset.
    pub id: u32,
    /// Its score under the why-not vector (strictly below `q`'s).
    pub score: f64,
    /// Its coordinates.
    pub coords: Vec<f64>,
}

/// The explanation for one why-not weighting vector.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Points scoring strictly better than `q`, in ascending score order,
    /// truncated to the requested limit.
    pub culprits: Vec<Culprit>,
    /// The actual rank of `q` under the vector (`culprits.len() + 1` when
    /// not truncated).
    pub rank: usize,
    /// Whether the culprit list was truncated by the limit.
    pub truncated: bool,
}

/// Explains why `q` is not in `TOPk(w)` by listing the points that
/// outrank it. `limit` bounds the number of returned culprits (the rank
/// is still exact); pass `usize::MAX` for all of them.
///
/// Rank and culprits are those of the snapshot's live rows (base index
/// minus tombstones, plus appended rows), so a dataset rebuilt from them
/// gives the same explanation with its ids mapped. The index nodes the
/// culprit walk expands (the `|RT|` cost term) are added to
/// `ctx.nodes_visited`.
pub fn explain<'a>(
    snap: impl Into<Snapshot<'a>>,
    w: &[f64],
    q: &[f64],
    limit: usize,
    ctx: &mut ProbeCtx,
) -> Explanation {
    let snap = snap.into();
    let rank = rank_of_point(snap, w, q);
    let better = rank - 1;
    let mut culprits = Vec::with_capacity(limit.min(better));
    ctx.bounded_topk(snap, w, limit.min(better), |p| {
        culprits.push(Culprit {
            id: p.id,
            score: p.score,
            coords: p.coords.to_vec(),
        });
    });
    Explanation {
        culprits,
        rank,
        truncated: better > limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_rtree::RTree;

    fn fig_tree() -> RTree {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        RTree::bulk_load(2, &pts)
    }

    #[test]
    fn kevin_is_excluded_by_p1_p2_p4() {
        // §3: "for w1 in Figure 1, there are three points, i.e., p1, p2,
        // and p4, with scores smaller than that of q".
        let t = fig_tree();
        let e = explain(
            &t,
            &[0.1, 0.9],
            &[4.0, 4.0],
            usize::MAX,
            &mut ProbeCtx::new(),
        );
        let ids: Vec<u32> = e.culprits.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 3]); // ascending score: 1.1, 3.3, 3.6
        assert_eq!(e.rank, 4);
        assert!(!e.truncated);
    }

    #[test]
    fn julia_is_excluded_by_p3_p1_p7() {
        let t = fig_tree();
        let e = explain(
            &t,
            &[0.9, 0.1],
            &[4.0, 4.0],
            usize::MAX,
            &mut ProbeCtx::new(),
        );
        let ids: Vec<u32> = e.culprits.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![2, 0, 6]); // scores 1.8 < 1.9 < 3.4
        assert_eq!(e.rank, 4);
    }

    #[test]
    fn member_vector_has_no_culprits_beyond_its_rank() {
        let t = fig_tree();
        let e = explain(
            &t,
            &[0.5, 0.5],
            &[4.0, 4.0],
            usize::MAX,
            &mut ProbeCtx::new(),
        );
        assert_eq!(e.rank, 2);
        assert_eq!(e.culprits.len(), 1);
        assert_eq!(e.culprits[0].id, 0);
    }

    #[test]
    fn limit_truncates_but_rank_stays_exact() {
        let t = fig_tree();
        let e = explain(&t, &[0.1, 0.9], &[4.0, 4.0], 1, &mut ProbeCtx::new());
        assert_eq!(e.culprits.len(), 1);
        assert_eq!(e.rank, 4);
        assert!(e.truncated);
    }

    #[test]
    fn view_explanation_matches_rebuilt_oracle() {
        use std::sync::Arc;
        use wqrtq_geom::{DeltaView, FlatPoints};
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = RTree::bulk_load(2, &pts);
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        );
        let (live, ids) = view.materialize_row_major();
        let rebuilt = RTree::bulk_load(2, &live);
        for w in [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]] {
            for limit in [0, 2, usize::MAX] {
                let overlaid = Snapshot::from(&tree).overlay(&view);
                let mut ctx = ProbeCtx::new();
                let got = explain(overlaid, &w, &[4.0, 4.0], limit, &mut ctx);
                let oracle = explain(&rebuilt, &w, &[4.0, 4.0], limit, &mut ctx);
                assert_eq!(got.rank, oracle.rank, "w {w:?}");
                assert_eq!(got.truncated, oracle.truncated);
                assert_eq!(got.culprits.len(), oracle.culprits.len());
                for (g, o) in got.culprits.iter().zip(&oracle.culprits) {
                    assert_eq!(g.score, o.score);
                    assert_eq!(g.id, ids[o.id as usize]);
                    assert_eq!(g.coords, o.coords);
                }
            }
        }
    }

    #[test]
    fn scores_are_ascending_and_below_q() {
        let t = fig_tree();
        let e = explain(
            &t,
            &[0.3, 0.7],
            &[4.0, 4.0],
            usize::MAX,
            &mut ProbeCtx::new(),
        );
        let sq = 0.3 * 4.0 + 0.7 * 4.0;
        assert!(e.culprits.windows(2).all(|w| w[0].score <= w[1].score));
        assert!(e.culprits.iter().all(|c| c.score < sq));
    }
}
