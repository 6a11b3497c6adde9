//! The unified WQRTQ framework (Figure 4 of the paper).
//!
//! [`Wqrtq`] wraps an indexed dataset, a query point and `k`, validates
//! why-not inputs (for bichromatic queries the vectors must come from
//! `W ∖ BRTOPk(q)`; for monochromatic queries any non-member vector is
//! allowed — both reduce to "q ranks below k", which is what we check),
//! explains an omission (aspect 1) and verifies a refinement. The
//! refinements themselves (aspect 2) come from one door,
//! [`Wqrtq::advise`] in [`crate::advisor`]; the free functions
//! [`crate::mqp()`], [`crate::mwk()`] and [`crate::mqwk()`] run one
//! strategy without a facade.

use crate::error::WhyNotError;
use crate::explain::{explain, Explanation};
use crate::penalty::{check_query_point, Tolerances};
use wqrtq_geom::Weight;
use wqrtq_query::{is_in_topk, rank_of_point, ProbeCtx, Snapshot};

/// A refined reverse top-k query: what one plan step changes.
#[derive(Clone, Debug)]
pub enum RefinedQuery {
    /// Solution 1 (MQP): only the query point moved.
    QueryPoint {
        /// The refined query point.
        q_prime: Vec<f64>,
    },
    /// Solution 2 (MWK): only the preferences moved.
    Preferences {
        /// The refined why-not vectors.
        why_not: Vec<Weight>,
        /// The refined `k`.
        k: usize,
    },
    /// Solution 3 (MQWK): everything moved.
    Everything {
        /// The refined query point.
        q_prime: Vec<f64>,
        /// The refined why-not vectors.
        why_not: Vec<Weight>,
        /// The refined `k`.
        k: usize,
    },
}

/// A refinement with its penalty.
#[derive(Clone, Debug)]
pub struct WqrtqAnswer {
    /// What to change.
    pub refined: RefinedQuery,
    /// The penalty of the change (Eq. 1, 4 or 5 depending on solution).
    pub penalty: f64,
}

/// The WQRTQ facade: a reverse top-k query under why-not investigation.
///
/// Answers against a borrowed [`Snapshot`]: one-shot callers pass
/// `&RTree`, a serving layer passes its dataset handle's snapshot (the
/// shared pre-built index plus the overlay of appends and tombstones,
/// folded into every rank test, constraint plane, dominance frontier
/// and verification) — the index is built once, never per call, and
/// answers match a dataset rebuilt from the live rows.
#[derive(Clone, Debug)]
pub struct Wqrtq<'a> {
    snapshot: Snapshot<'a>,
    q: Vec<f64>,
    k: usize,
    tol: Tolerances,
}

impl<'a> Wqrtq<'a> {
    /// Wraps a query: `q` is the query point and `k` the original
    /// parameter, answered against `snapshot`.
    ///
    /// # Errors
    /// Returns [`WhyNotError::DimensionMismatch`] when `q` (or the
    /// snapshot's overlay) does not match the index,
    /// [`WhyNotError::ZeroK`] for `k = 0`,
    /// [`WhyNotError::ZeroQueryPoint`] when `‖q‖` is not positive, and
    /// [`WhyNotError::QueryPointOverflow`] when `q · q` is not finite.
    pub fn new(
        snapshot: impl Into<Snapshot<'a>>,
        q: &[f64],
        k: usize,
    ) -> Result<Self, WhyNotError> {
        let snapshot = snapshot.into();
        let dim = snapshot.dim();
        let view_dim = snapshot.view.map_or(dim, |v| v.dim());
        if q.len() != dim || view_dim != dim {
            return Err(WhyNotError::DimensionMismatch {
                expected: dim,
                got: if q.len() != dim { q.len() } else { view_dim },
            });
        }
        if k == 0 {
            return Err(WhyNotError::ZeroK);
        }
        check_query_point(q)?;
        Ok(Self {
            snapshot,
            q: q.to_vec(),
            k,
            tol: Tolerances::paper_default(),
        })
    }

    /// The snapshot every answer is computed against.
    pub fn snapshot(&self) -> Snapshot<'a> {
        self.snapshot
    }

    /// Overrides the default (paper) tolerances α, β, γ, λ.
    pub fn with_tolerances(mut self, tol: Tolerances) -> Self {
        self.tol = tol;
        self
    }

    /// The penalty-model coefficients this facade evaluates under.
    pub fn tolerances(&self) -> &Tolerances {
        &self.tol
    }

    /// The query point.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// The original `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Checks that every vector is genuinely why-not (q ranks below it),
    /// returning the actual ranks. This is the input contract of
    /// Definitions 4/5: monochromatic vectors may be arbitrary non-member
    /// weights, bichromatic ones must be absent from `BRTOPk(q)` — both
    /// reduce to this rank test.
    pub fn validate_why_not(&self, why_not: &[Weight]) -> Result<Vec<usize>, WhyNotError> {
        if why_not.is_empty() {
            return Err(WhyNotError::EmptyWhyNot);
        }
        let mut ranks = Vec::with_capacity(why_not.len());
        for (i, w) in why_not.iter().enumerate() {
            if w.dim() != self.snapshot.dim() {
                return Err(WhyNotError::DimensionMismatch {
                    expected: self.snapshot.dim(),
                    got: w.dim(),
                });
            }
            let r = rank_of_point(self.snapshot, w, &self.q);
            if r <= self.k {
                return Err(WhyNotError::NotWhyNot {
                    index: i,
                    rank: r,
                    k: self.k,
                });
            }
            ranks.push(r);
        }
        Ok(ranks)
    }

    /// Aspect 1: why is `w` not in the reverse top-k result? Lists the
    /// culprit points (§3).
    pub fn explain(&self, w: &Weight, limit: usize) -> Explanation {
        explain(self.snapshot, w, &self.q, limit, &mut ProbeCtx::new())
    }

    /// Verifies that an answer actually fixes the why-not question: every
    /// (refined) why-not vector must contain the (refined) query point in
    /// its (refined) top-k.
    pub fn verify(&self, why_not: &[Weight], answer: &WqrtqAnswer) -> bool {
        // One probe context serves every membership test in the loop —
        // the traversal queue allocates once, not per vector.
        let mut ctx = ProbeCtx::new();
        let mut all_in = |ws: &[Weight], q: &[f64], k: usize| {
            ws.iter()
                .all(|w| is_in_topk(self.snapshot, w, q, k, &mut ctx))
        };
        match &answer.refined {
            RefinedQuery::QueryPoint { q_prime } => all_in(why_not, q_prime, self.k),
            RefinedQuery::Preferences {
                why_not: refined,
                k,
            } => all_in(refined, &self.q, *k),
            RefinedQuery::Everything {
                q_prime,
                why_not: refined,
                k,
            } => all_in(refined, q_prime, *k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{StrategyKind, WhyNotOptions};
    use std::sync::Arc;
    use wqrtq_geom::{DeltaView, FlatPoints};
    use wqrtq_query::bichromatic_reverse_topk_rta;
    use wqrtq_rtree::RTree;

    fn fig_tree() -> RTree {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        RTree::bulk_load(2, &pts)
    }

    fn kevin_julia() -> Vec<Weight> {
        vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])]
    }

    /// Every strategy on the sampled paths, with these budgets.
    fn sampled(sample_size: usize, query_samples: usize, seed: u64) -> WhyNotOptions {
        WhyNotOptions {
            sample_size,
            query_samples,
            seed,
            exact_2d: false,
            ..WhyNotOptions::default()
        }
    }

    #[test]
    fn validation_accepts_why_not_and_rejects_members() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        assert_eq!(w.validate_why_not(&kevin_julia()).unwrap(), vec![4, 4]);
        let tony = vec![Weight::new(vec![0.5, 0.5])];
        assert!(matches!(
            w.validate_why_not(&tony),
            Err(WhyNotError::NotWhyNot {
                index: 0,
                rank: 2,
                k: 3
            })
        ));
    }

    #[test]
    fn all_three_solutions_verify() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let wn = kevin_julia();
        for step in w.advise(&wn, &sampled(200, 200, 7)).unwrap().steps {
            let answer = step.answer;
            assert!(w.verify(&wn, &answer), "unverified answer {answer:?}");
            assert!(answer.penalty >= 0.0);
        }
    }

    #[test]
    fn answers_are_sorted_by_penalty() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let steps = w
            .advise(&kevin_julia(), &sampled(200, 200, 3))
            .unwrap()
            .steps;
        assert_eq!(steps.len(), 3);
        assert!(steps
            .windows(2)
            .all(|p| p[0].answer.penalty <= p[1].answer.penalty));
        // MQWK (Everything) is never beaten on this workload because it
        // subsumes both endpoints.
        assert!(matches!(
            steps[0].answer.refined,
            RefinedQuery::Everything { .. }
        ));
    }

    #[test]
    fn population_partition_matches_paper() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let population = vec![
            Weight::new(vec![0.1, 0.9]), // Kevin
            Weight::new(vec![0.5, 0.5]), // Tony
            Weight::new(vec![0.3, 0.7]), // Anna
            Weight::new(vec![0.9, 0.1]), // Julia
        ];
        let members = bichromatic_reverse_topk_rta(&tree, &population, w.q(), w.k());
        // Tony and Anna are the members; the rest — Kevin and Julia — are
        // exactly the valid why-not inputs, and the members are not.
        assert_eq!(members, vec![1, 2]);
        let wn: Vec<Weight> = [0, 3].iter().map(|&i| population[i].clone()).collect();
        assert!(w.validate_why_not(&wn).is_ok());
        for i in members {
            assert!(w
                .validate_why_not(std::slice::from_ref(&population[i]))
                .is_err());
        }
    }

    #[test]
    fn exact_2d_preferences_beat_or_match_sampled() {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = RTree::bulk_load(2, &pts);
        let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &pts)));
        let w = Wqrtq::new(Snapshot::from(&tree).overlay(&view), &[4.0, 4.0], 3).unwrap();
        let wn = kevin_julia();
        let mwk = |exact_2d| {
            let options = WhyNotOptions {
                strategies: vec![StrategyKind::Mwk],
                exact_2d,
                ..sampled(400, 0, 3)
            };
            w.advise(&wn, &options).unwrap().steps.remove(0)
        };
        let (exact, sampled) = (mwk(true), mwk(false));
        assert!(exact.stats.exact && !sampled.stats.exact);
        assert!(exact.answer.penalty <= sampled.answer.penalty + 1e-9);
        assert!(w.verify(&wn, &exact.answer));
    }

    #[test]
    fn explanation_reaches_through_facade() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let e = w.explain(&Weight::new(vec![0.1, 0.9]), 10);
        assert_eq!(e.rank, 4);
        assert_eq!(e.culprits.len(), 3);
    }

    #[test]
    fn accessors_and_tolerance_override() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3)
            .unwrap()
            .with_tolerances(Tolerances::new(0.2, 0.8, 0.5, 0.5));
        assert_eq!(w.q(), &[4.0, 4.0]);
        assert_eq!(w.k(), 3);
    }

    #[test]
    fn view_facade_matches_rebuilt_facade_bit_for_bit() {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = fig_tree();
        // Delete p5/p6 (ids 4, 5), append a near-frontier point and a
        // far one.
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.2, 3.1, 8.5, 8.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![7.0, 5.0, 5.0, 8.0]),
            Arc::new(vec![4, 5]),
        );
        let (live, _) = view.materialize_row_major();
        let rebuilt = RTree::bulk_load(2, &live);
        let plain_view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &live)));

        let overlay = Wqrtq::new(Snapshot::from(&tree).overlay(&view), &[4.0, 4.0], 3).unwrap();
        let oracle = Wqrtq::new(
            Snapshot::from(&rebuilt).overlay(&plain_view),
            &[4.0, 4.0],
            3,
        )
        .unwrap();
        let wn = kevin_julia();
        assert_eq!(
            overlay.validate_why_not(&wn).unwrap(),
            oracle.validate_why_not(&wn).unwrap()
        );
        let a = overlay.advise(&wn, &sampled(150, 150, 11)).unwrap().steps;
        let b = oracle.advise(&wn, &sampled(150, 150, 11)).unwrap().steps;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.strategy, y.strategy);
            let (x, y) = (&x.answer, &y.answer);
            assert_eq!(x.penalty.to_bits(), y.penalty.to_bits(), "penalty drift");
            match (&x.refined, &y.refined) {
                (
                    RefinedQuery::QueryPoint { q_prime: qa },
                    RefinedQuery::QueryPoint { q_prime: qb },
                ) => assert_eq!(qa, qb),
                (
                    RefinedQuery::Preferences { why_not: wa, k: ka },
                    RefinedQuery::Preferences { why_not: wb, k: kb },
                ) => {
                    assert_eq!(ka, kb);
                    for (u, v) in wa.iter().zip(wb) {
                        assert_eq!(u.as_slice(), v.as_slice());
                    }
                }
                (
                    RefinedQuery::Everything {
                        q_prime: qa,
                        why_not: wa,
                        k: ka,
                    },
                    RefinedQuery::Everything {
                        q_prime: qb,
                        why_not: wb,
                        k: kb,
                    },
                ) => {
                    assert_eq!(qa, qb);
                    assert_eq!(ka, kb);
                    for (u, v) in wa.iter().zip(wb) {
                        assert_eq!(u.as_slice(), v.as_slice());
                    }
                }
                other => panic!("refinement family mismatch: {other:?}"),
            }
            assert!(overlay.verify(&wn, x), "overlay answer fails verification");
        }
    }

    #[test]
    fn dimension_mismatch_and_zero_k_detected_at_construction() {
        let tree = fig_tree();
        assert!(matches!(
            Wqrtq::new(&tree, &[1.0, 2.0, 3.0], 3),
            Err(WhyNotError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Wqrtq::new(&tree, &[4.0, 4.0], 0),
            Err(WhyNotError::ZeroK)
        ));
        // Eq. 1 divides by ‖q‖, and so does every plan that moves q.
        for origin in [[0.0, 0.0], [-0.0, 0.0], [1e-200, 0.0]] {
            assert!(matches!(
                Wqrtq::new(&tree, &origin, 3),
                Err(WhyNotError::ZeroQueryPoint)
            ));
        }
        // MQP squares `q′ − q`, so `q · q` must stay finite.
        for huge in [[1e155, 0.0], [1e300, 1e300], [1e154, 1e154]] {
            assert!(matches!(
                Wqrtq::new(&tree, &huge, 3),
                Err(WhyNotError::QueryPointOverflow)
            ));
        }
        assert!(Wqrtq::new(&tree, &[1e153, 1e153], 3).is_ok());
    }
}
