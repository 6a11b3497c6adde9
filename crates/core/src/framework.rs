//! The unified WQRTQ framework (Figure 4 of the paper).
//!
//! [`Wqrtq`] wraps an indexed dataset, a query point and `k`, validates
//! why-not inputs (for bichromatic queries the vectors must come from
//! `W ∖ BRTOPk(q)`; for monochromatic queries any non-member vector is
//! allowed — both reduce to "q ranks below k", which is what we check),
//! and exposes the three refinement solutions plus the aspect-1
//! explanation under one roof.

use crate::error::WhyNotError;
use crate::explain::{explain, Explanation};
use crate::incomparable::DominanceFrontier;
use crate::mqp::mqp;
use crate::mqwk::mqwk_with_frontier;
use crate::mwk::{mwk_with_frontier, Budget};
use crate::penalty::Tolerances;
use wqrtq_geom::Weight;
use wqrtq_query::{bichromatic_reverse_topk_rta, is_in_topk, rank_of_point, ProbeCtx, Snapshot};

/// A refined reverse top-k query, as returned by the framework.
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
    /// snapshot's overlay) does not match the index, and
    /// [`WhyNotError::ZeroK`] for `k = 0`.
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

    /// Splits a bichromatic weight population `W` into
    /// (`BRTOPk(q)`, `W ∖ BRTOPk(q)`) — the second component is the set
    /// of *valid why-not inputs* per Definition 5. Indices refer to
    /// `weights`.
    pub fn partition_population(&self, weights: &[Weight]) -> (Vec<usize>, Vec<usize>) {
        let members = bichromatic_reverse_topk_rta(self.snapshot, weights, &self.q, self.k);
        let mut in_result = vec![false; weights.len()];
        for &i in &members {
            in_result[i] = true;
        }
        let missing = (0..weights.len()).filter(|&i| !in_result[i]).collect();
        (members, missing)
    }

    /// Solution 1: modify the query point (MQP).
    pub fn modify_query(&self, why_not: &[Weight]) -> Result<WqrtqAnswer, WhyNotError> {
        self.validate_why_not(why_not)?;
        self.answer_mqp(why_not)
    }

    /// MQP without the why-not validation pass — for callers (the
    /// advisor) that validated the set once already.
    pub(crate) fn answer_mqp(&self, why_not: &[Weight]) -> Result<WqrtqAnswer, WhyNotError> {
        let res = mqp(self.snapshot, &self.q, self.k, why_not)?;
        Ok(WqrtqAnswer {
            refined: RefinedQuery::QueryPoint {
                q_prime: res.q_prime,
            },
            penalty: res.penalty,
        })
    }

    /// Solution 2: modify the why-not vectors and `k` (MWK).
    pub fn modify_preferences(
        &self,
        why_not: &[Weight],
        sample_size: usize,
        seed: u64,
    ) -> Result<WqrtqAnswer, WhyNotError> {
        self.validate_why_not(why_not)?;
        Ok(self.answer_mwk(&self.frontier(), why_not, sample_size, seed))
    }

    /// Sampled MWK over `frontier` (this query's
    /// [`Wqrtq::frontier`]) without the why-not validation pass.
    pub(crate) fn answer_mwk(
        &self,
        frontier: &DominanceFrontier,
        why_not: &[Weight],
        sample_size: usize,
        seed: u64,
    ) -> WqrtqAnswer {
        let res = mwk_with_frontier(
            frontier,
            self.k,
            why_not,
            sample_size,
            &self.tol,
            seed,
            &Budget::UNBOUNDED,
        );
        WqrtqAnswer {
            refined: RefinedQuery::Preferences {
                why_not: res.refined,
                k: res.k_prime,
            },
            penalty: res.penalty,
        }
    }

    /// `FindIncom` at this query's point: the dominance frontier the
    /// sampled MWK and MQWK answers start from.
    pub(crate) fn frontier(&self) -> DominanceFrontier {
        DominanceFrontier::new(self.snapshot, &self.q)
    }

    /// Solution 2, exact variant (2-D data only): enumerates candidate
    /// `k′` values against the exact monochromatic weight intervals
    /// instead of sampling, returning the *globally optimal* `(Wm′, k′)`.
    /// `points` must be the flat buffer the tree was built from.
    ///
    /// # Panics
    /// Panics if the data is not two-dimensional (see
    /// [`crate::exact2d::mwk_exact_2d`]).
    pub fn modify_preferences_exact_2d(
        &self,
        points: &[f64],
        why_not: &[Weight],
    ) -> Result<WqrtqAnswer, WhyNotError> {
        self.validate_why_not(why_not)?;
        self.answer_mwk_exact_2d(points, why_not)
    }

    /// Exact 2-D MWK without the why-not validation pass.
    pub(crate) fn answer_mwk_exact_2d(
        &self,
        points: &[f64],
        why_not: &[Weight],
    ) -> Result<WqrtqAnswer, WhyNotError> {
        let res = crate::exact2d::mwk_exact_2d(points, &self.q, self.k, why_not, &self.tol);
        Ok(WqrtqAnswer {
            refined: RefinedQuery::Preferences {
                why_not: res.refined,
                k: res.k_prime,
            },
            penalty: res.penalty,
        })
    }

    /// Solution 3: modify everything (MQWK).
    pub fn modify_all(
        &self,
        why_not: &[Weight],
        sample_size: usize,
        query_samples: usize,
        seed: u64,
    ) -> Result<WqrtqAnswer, WhyNotError> {
        self.validate_why_not(why_not)?;
        self.answer_mqwk(&self.frontier(), why_not, sample_size, query_samples, seed)
    }

    /// MQWK over `frontier` (this query's [`Wqrtq::frontier`]) without
    /// the why-not validation pass.
    pub(crate) fn answer_mqwk(
        &self,
        frontier: &DominanceFrontier,
        why_not: &[Weight],
        sample_size: usize,
        query_samples: usize,
        seed: u64,
    ) -> Result<WqrtqAnswer, WhyNotError> {
        let res = mqwk_with_frontier(
            self.snapshot,
            frontier,
            self.k,
            why_not,
            sample_size,
            query_samples,
            &self.tol,
            seed,
        )?;
        Ok(WqrtqAnswer {
            refined: RefinedQuery::Everything {
                q_prime: res.q_prime,
                why_not: res.refined,
                k: res.k_prime,
            },
            penalty: res.penalty,
        })
    }

    /// Runs all three solutions and returns them sorted by penalty
    /// (cheapest first) — the "pick your scenario" view of Figure 4.
    pub fn all_refinements(
        &self,
        why_not: &[Weight],
        sample_size: usize,
        query_samples: usize,
        seed: u64,
    ) -> Result<Vec<WqrtqAnswer>, WhyNotError> {
        let mut answers = vec![
            self.modify_query(why_not)?,
            self.modify_preferences(why_not, sample_size, seed)?,
            self.modify_all(why_not, sample_size, query_samples, seed)?,
        ];
        answers.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
        Ok(answers)
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
        for answer in w.all_refinements(&wn, 200, 200, 7).unwrap() {
            assert!(w.verify(&wn, &answer), "unverified answer {answer:?}");
            assert!(answer.penalty >= 0.0);
        }
    }

    #[test]
    fn answers_are_sorted_by_penalty() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let answers = w.all_refinements(&kevin_julia(), 200, 200, 3).unwrap();
        assert_eq!(answers.len(), 3);
        assert!(answers.windows(2).all(|p| p[0].penalty <= p[1].penalty));
        // MQWK (Everything) is never beaten on this workload because it
        // subsumes both endpoints.
        assert!(matches!(
            answers[0].refined,
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
        let (members, missing) = w.partition_population(&population);
        assert_eq!(members, vec![1, 2]); // Tony, Anna
        assert_eq!(missing, vec![0, 3]); // Kevin, Julia
                                         // The missing side is exactly the set of valid why-not inputs.
        let wn: Vec<Weight> = missing.iter().map(|&i| population[i].clone()).collect();
        assert!(w.validate_why_not(&wn).is_ok());
    }

    #[test]
    fn exact_2d_preferences_beat_or_match_sampled() {
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = RTree::bulk_load(2, &pts);
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let wn = kevin_julia();
        let exact = w.modify_preferences_exact_2d(&pts, &wn).unwrap();
        let sampled = w.modify_preferences(&wn, 400, 3).unwrap();
        assert!(exact.penalty <= sampled.penalty + 1e-9);
        assert!(w.verify(&wn, &exact));
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
        use std::sync::Arc;
        use wqrtq_geom::{DeltaView, FlatPoints};
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
        let a = overlay.all_refinements(&wn, 150, 150, 11).unwrap();
        let b = oracle.all_refinements(&wn, 150, 150, 11).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
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
    }
}
