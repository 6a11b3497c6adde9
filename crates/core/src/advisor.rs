//! The why-not **advisor**: one call that answers the whole why-not
//! question.
//!
//! The paper's user-facing deliverable is not "run MQP, MWK and MQWK and
//! compare by hand" — it is a *recommendation*: the minimum-penalty
//! refinement under the combined penalty model `αΔk + βΔW` / `γΔq + λ·…`
//! (Eqs. 1, 4, 5). [`Wqrtq::advise`] runs the aspect-1 explanation plus
//! every requested refinement strategy (auto-selecting the exact 2-D
//! path where it applies), verifies each answer against the dataset,
//! breaks every penalty into its per-term components, and returns a
//! [`RefinementPlan`] ranked cheapest-first. [`Wqrtq::advise_with`]
//! additionally reports each step as it completes, which is what lets a
//! serving layer stream partial answers while later strategies are
//! still running.

use crate::error::WhyNotError;
use crate::exact2d::mwk_exact_2d;
use crate::explain::{explain, Explanation};
use crate::framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
use crate::incomparable::DominanceFrontier;
use crate::mqp::{mqp, MqpResult};
use crate::mqwk;
use crate::mwk::{mwk_sampled, Budget};
use crate::penalty::{delta_wm, query_point_penalty, Tolerances};
use crate::sampling::WeightSampler;
use std::cell::OnceCell;
use wqrtq_geom::weight::MAX_SIMPLEX_DISTANCE;
use wqrtq_geom::Weight;
use wqrtq_query::ProbeCtx;

/// One of the paper's three refinement strategies, as a plain
/// (data-only) selector for the advisor and the serving layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Solution 1 — modify the query point (safe region + QP).
    Mqp,
    /// Solution 2 — modify the why-not vectors and `k`.
    Mwk,
    /// Solution 3 — modify `q`, the vectors and `k` together.
    Mqwk,
}

impl StrategyKind {
    /// All strategies, in the paper's presentation order (also the
    /// advisor's execution and tie-breaking order).
    pub const ALL: [StrategyKind; 3] = [StrategyKind::Mqp, StrategyKind::Mwk, StrategyKind::Mqwk];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Mqp => "MQP",
            StrategyKind::Mwk => "MWK",
            StrategyKind::Mqwk => "MQWK",
        }
    }

    /// The stable serialisation tag of this strategy: what the engine's
    /// request encoding writes (the wire's submit bytes, and the bytes its
    /// cache fingerprint hashes) and the plan replies carry.
    pub fn tag(self) -> u8 {
        match self {
            StrategyKind::Mqp => 1,
            StrategyKind::Mwk => 2,
            StrategyKind::Mqwk => 3,
        }
    }

    /// Resolves a serialisation tag back to its strategy (`None` for
    /// unknown tags).
    pub fn from_tag(tag: u8) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|s| s.tag() == tag)
    }
}

/// Everything a why-not advisor call can be tuned by: the penalty model
/// coefficients, which strategies to run, the culprit budget of the
/// explanation, the sampling budgets, and the seed.
///
/// The struct is plain data (`PartialEq`, no invariants enforced at
/// construction) so it can travel through request vocabularies and wire
/// codecs; serving layers validate it at their request boundary instead.
#[derive(Clone, Debug, PartialEq)]
pub struct WhyNotOptions {
    /// Penalty-model coefficients α, β, γ, λ (Eqs. 4 and 5).
    pub tol: Tolerances,
    /// Strategies to run (deduplicated; executed in [`StrategyKind::ALL`]
    /// order regardless of the order given here).
    pub strategies: Vec<StrategyKind>,
    /// Maximum culprits reported per why-not vector (ranks stay exact).
    pub culprit_limit: usize,
    /// Weight samples `|S|` for the sampled MWK / MQWK paths.
    pub sample_size: usize,
    /// Query-point samples `|Q|` for MQWK.
    pub query_samples: usize,
    /// Seed for every sampling step (determinism is seed-driven).
    pub seed: u64,
    /// Allow the advisor to auto-select the exact 2-D MWK path (globally
    /// optimal, no sampling) when the data is two-dimensional. Disable
    /// it to pin the sampled path (e.g. to reproduce the free
    /// [`crate::mwk()`] bit for bit).
    pub exact_2d: bool,
}

impl Default for WhyNotOptions {
    fn default() -> Self {
        Self {
            tol: Tolerances::paper_default(),
            strategies: StrategyKind::ALL.to_vec(),
            culprit_limit: 16,
            sample_size: 200,
            query_samples: 200,
            seed: 0,
            exact_2d: true,
        }
    }
}

/// A penalty decomposed into the per-term components of Eqs. (1), (4)
/// and (5). `combined` is the strategy's own penalty (the value the plan
/// is ranked by); the three terms are the *normalised* quantities before
/// their α/β/γ/λ weighting, so a caller can re-weigh a plan under
/// different tolerances without re-running it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PenaltyBreakdown {
    /// The strategy's penalty (Eq. 1 for MQP, Eq. 4 for MWK, Eq. 5 for
    /// MQWK).
    pub combined: f64,
    /// `Δq = ‖q − q′‖/‖q‖` (zero when the query point did not move).
    pub query_term: f64,
    /// `Δk / Δkmax` (zero when `k` did not grow).
    pub k_term: f64,
    /// `ΔWm / ΔWm_max` (zero when no vector moved).
    pub weight_term: f64,
}

/// Deterministic per-step execution facts (no wall-clock — plans must be
/// reproducible bit for bit across runs, worker counts and caches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepStats {
    /// Whether the exact 2-D path answered this step (no sampling).
    pub exact: bool,
    /// Weight samples actually drawn (zero for MQP and exact paths).
    pub sample_size: usize,
    /// Query-point samples actually drawn (zero outside MQWK).
    pub query_samples: usize,
}

/// One executed refinement strategy inside a plan.
#[derive(Clone, Debug)]
pub struct RankedStep {
    /// Which strategy produced this refinement.
    pub strategy: StrategyKind,
    /// The refinement and its penalty.
    pub answer: WqrtqAnswer,
    /// The penalty split into its per-term components.
    pub breakdown: PenaltyBreakdown,
    /// Whether [`Wqrtq::verify`] confirmed the refinement actually fixes
    /// the why-not question.
    pub verified: bool,
    /// Deterministic execution facts.
    pub stats: StepStats,
}

/// The advisor's answer: the explanation plus every executed strategy,
/// ranked cheapest-first under the configured penalty model.
#[derive(Clone, Debug)]
pub struct RefinementPlan {
    /// One explanation per why-not vector (input order), culprit lists
    /// truncated to the configured limit.
    pub explanations: Vec<Explanation>,
    /// `k′max` (Lemma 4): the worst actual rank of `q` under the
    /// original why-not vectors.
    pub k_max: usize,
    /// Executed strategies, ascending by penalty (ties broken by
    /// [`StrategyKind::ALL`] order). `steps[0]` is the recommendation.
    pub steps: Vec<RankedStep>,
}

impl RefinementPlan {
    /// The minimum-penalty refinement — the advisor's recommendation.
    pub fn recommended(&self) -> &RankedStep {
        &self.steps[0]
    }
}

/// A progress event emitted by [`Wqrtq::advise_with`] as soon as the
/// corresponding step completes — the hook streaming serving layers
/// forward as partial frames.
#[derive(Debug)]
pub enum AdvisorEvent<'a> {
    /// The explanation for why-not vector `index` is ready.
    Explained {
        /// Index into the why-not set.
        index: usize,
        /// The explanation (culprit-limited).
        explanation: &'a Explanation,
    },
    /// One refinement strategy finished (events arrive in execution
    /// order, *before* the final plan ranks them).
    Step(&'a RankedStep),
    /// One strategy finished: its wall-clock time, reported just
    /// before its [`AdvisorEvent::Step`]. Validation and explanations
    /// are not timed. Carries no plan content — serving layers fold
    /// these into their stage metrics and skip them when streaming
    /// partial plans.
    StageTimed {
        /// The strategy timed.
        strategy: StrategyKind,
        /// Wall-clock duration of the strategy in nanoseconds.
        nanos: u64,
    },
}

/// Deduplicates a strategy selection into canonical execution order.
fn canonical_strategies(requested: &[StrategyKind]) -> Vec<StrategyKind> {
    StrategyKind::ALL
        .into_iter()
        .filter(|s| requested.contains(s))
        .collect()
}

/// What a plan's strategies share, each found by the first step that
/// needs it: the dominance frontier at `q` (MWK's sampled path and
/// MQWK) and MQP's answer (MQP's step and MQWK's `qmin`).
#[derive(Default)]
struct Shared {
    frontier: OnceCell<DominanceFrontier>,
    mqp: OnceCell<MqpResult>,
}

impl Wqrtq<'_> {
    /// Runs one refinement strategy under `options` and packages it as a
    /// plan step (penalty breakdown + verification + stats) — the one
    /// place a plan runs a strategy. `k_max` is the worst rank of `q`
    /// under the why-not set, which [`Wqrtq::validate_why_not`] has
    /// checked: the strategies run without a second validation pass.
    /// The sampled strategies stop early on `ctx`'s cancel flag.
    fn run_step(
        &self,
        why_not: &[Weight],
        strategy: StrategyKind,
        options: &WhyNotOptions,
        k_max: usize,
        shared: &Shared,
        ctx: &ProbeCtx,
    ) -> Result<RankedStep, WhyNotError> {
        let (snapshot, q, k, tol) = (self.snapshot(), self.q(), self.k(), self.tolerances());
        let frontier = || {
            shared
                .frontier
                .get_or_init(|| DominanceFrontier::new(snapshot, q))
        };
        let solve_mqp = || match shared.mqp.get() {
            Some(res) => Ok(res),
            None => mqp(snapshot, q, k, why_not).map(|res| shared.mqp.get_or_init(|| res)),
        };
        let stats = |exact, sample_size, query_samples| StepStats {
            exact,
            sample_size,
            query_samples,
        };
        let (refined, penalty, stats) = match strategy {
            StrategyKind::Mqp => {
                let res = solve_mqp()?;
                let q_prime = res.q_prime.clone();
                (
                    RefinedQuery::QueryPoint { q_prime },
                    res.penalty,
                    stats(false, 0, 0),
                )
            }
            // The exact 2-D sweep is globally optimal and needs the live
            // row buffer; it applies whenever the snapshot carries a view
            // to materialise it from (the engine's always does) and the
            // caller did not pin the sampled path.
            StrategyKind::Mwk => match snapshot.view {
                Some(view) if options.exact_2d && view.dim() == 2 => {
                    let points = view.materialize_row_major().0;
                    let res = mwk_exact_2d(&points, q, k, why_not, tol);
                    let refined = RefinedQuery::Preferences {
                        why_not: res.refined,
                        k: res.k_prime,
                    };
                    (refined, res.penalty, stats(true, 0, 0))
                }
                _ => {
                    let frontier = frontier();
                    let res = mwk_sampled(
                        frontier,
                        k,
                        why_not,
                        options.sample_size,
                        tol,
                        &Budget::UNBOUNDED,
                        || WeightSampler::new(frontier, why_not, options.seed),
                        ctx,
                    );
                    let refined = RefinedQuery::Preferences {
                        why_not: res.refined,
                        k: res.k_prime,
                    };
                    (refined, res.penalty, stats(false, options.sample_size, 0))
                }
            },
            StrategyKind::Mqwk => {
                let res = mqwk::refine(
                    frontier(),
                    solve_mqp()?,
                    k,
                    why_not,
                    options.sample_size,
                    options.query_samples,
                    tol,
                    options.seed,
                    ctx,
                );
                let refined = RefinedQuery::Everything {
                    q_prime: res.q_prime,
                    why_not: res.refined,
                    k: res.k_prime,
                };
                let stats = stats(false, options.sample_size, options.query_samples);
                (refined, res.penalty, stats)
            }
        };
        let answer = WqrtqAnswer { refined, penalty };
        let breakdown = self.breakdown(why_not, &answer, k_max);
        let verified = self.verify(why_not, &answer);
        Ok(RankedStep {
            strategy,
            answer,
            breakdown,
            verified,
            stats,
        })
    }

    /// Decomposes an answer's penalty into the Eq. (1)/(4)/(5) terms.
    fn breakdown(
        &self,
        why_not: &[Weight],
        answer: &WqrtqAnswer,
        k_max: usize,
    ) -> PenaltyBreakdown {
        let k = self.k();
        let k_term = |k_prime: usize| {
            let dk = k_prime.saturating_sub(k) as f64;
            let dk_max = k_max.saturating_sub(k) as f64;
            if dk_max > 0.0 {
                dk / dk_max
            } else {
                0.0
            }
        };
        let weight_term = |refined: &[Weight]| delta_wm(why_not, refined) / MAX_SIMPLEX_DISTANCE;
        let (query_term, k_t, w_t) = match &answer.refined {
            RefinedQuery::QueryPoint { q_prime } => {
                (query_point_penalty(self.q(), q_prime), 0.0, 0.0)
            }
            RefinedQuery::Preferences {
                why_not: refined,
                k,
            } => (0.0, k_term(*k), weight_term(refined)),
            RefinedQuery::Everything {
                q_prime,
                why_not: refined,
                k,
            } => (
                query_point_penalty(self.q(), q_prime),
                k_term(*k),
                weight_term(refined),
            ),
        };
        PenaltyBreakdown {
            combined: answer.penalty,
            query_term,
            k_term: k_t,
            weight_term: w_t,
        }
    }

    /// Answers the whole why-not question in one call: validates the
    /// why-not set, explains each vector, runs every requested strategy
    /// (exact 2-D MWK auto-selected where applicable), and returns the
    /// plan ranked cheapest-first. Equivalent to
    /// [`Wqrtq::advise_with`] with a fresh context and a no-op observer.
    ///
    /// # Errors
    /// [`WhyNotError::NoStrategies`] when the strategy set is empty;
    /// otherwise whatever validation or the strategies surface.
    pub fn advise(
        &self,
        why_not: &[Weight],
        options: &WhyNotOptions,
    ) -> Result<RefinementPlan, WhyNotError> {
        self.advise_with(why_not, options, &mut ProbeCtx::new(), |_| {})
    }

    /// [`Wqrtq::advise`], reporting each completed step through `emit`
    /// as soon as it is ready (explanations first, then strategies in
    /// execution order). The final plan re-ranks the steps by penalty;
    /// the events deliberately do not wait for that ranking — they exist
    /// so a serving layer can stream partial answers while the more
    /// expensive strategies are still running.
    ///
    /// The explanations run on `ctx`'s buffers. A set cancel flag on
    /// `ctx` stops the plan between steps, and MWK's and MQWK's sampling
    /// loops within a chunk of 256; a step cut short is not reported, and
    /// the plan returned is then incomplete and the caller's to discard.
    ///
    /// # Errors
    /// See [`Wqrtq::advise`].
    pub fn advise_with(
        &self,
        why_not: &[Weight],
        options: &WhyNotOptions,
        ctx: &mut ProbeCtx,
        mut emit: impl FnMut(AdvisorEvent<'_>),
    ) -> Result<RefinementPlan, WhyNotError> {
        let strategies = canonical_strategies(&options.strategies);
        if strategies.is_empty() {
            return Err(WhyNotError::NoStrategies);
        }
        let ranks = self.validate_why_not(why_not)?;
        let k_max = ranks.iter().copied().max().expect("non-empty why-not set");

        let mut explanations = Vec::with_capacity(why_not.len());
        let mut steps = Vec::with_capacity(strategies.len());
        let (snapshot, q) = (self.snapshot(), self.q());
        'run: {
            for (index, w) in why_not.iter().enumerate() {
                if ctx.is_cancelled() {
                    break 'run;
                }
                let explanation = explain(snapshot, w, q, options.culprit_limit, ctx);
                emit(AdvisorEvent::Explained {
                    index,
                    explanation: &explanation,
                });
                explanations.push(explanation);
            }

            let shared = Shared::default();
            for strategy in strategies {
                if ctx.is_cancelled() {
                    break 'run;
                }
                let started = std::time::Instant::now();
                let step = self.run_step(why_not, strategy, options, k_max, &shared, ctx)?;
                if ctx.is_cancelled() {
                    break 'run;
                }
                let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                emit(AdvisorEvent::StageTimed { strategy, nanos });
                emit(AdvisorEvent::Step(&step));
                steps.push(step);
            }
        }
        // Cheapest first; the stable sort keeps the canonical strategy
        // order on exact penalty ties.
        steps.sort_by(|a, b| a.answer.penalty.total_cmp(&b.answer.penalty));

        Ok(RefinementPlan {
            explanations,
            k_max,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_query::Snapshot;
    use wqrtq_rtree::RTree;

    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    fn fig_tree() -> RTree {
        RTree::bulk_load(2, &fig_points())
    }

    fn kevin_julia() -> Vec<Weight> {
        vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])]
    }

    fn plain_view() -> wqrtq_geom::DeltaView {
        use std::sync::Arc;
        use wqrtq_geom::{DeltaView, FlatPoints};
        DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &fig_points())))
    }

    #[test]
    fn plan_is_ranked_verified_and_recommends_the_minimum() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let plan = w.advise(&kevin_julia(), &WhyNotOptions::default()).unwrap();
        assert_eq!(plan.explanations.len(), 2);
        assert_eq!(plan.k_max, 4);
        assert_eq!(plan.steps.len(), 3);
        assert!(plan
            .steps
            .windows(2)
            .all(|p| p[0].answer.penalty <= p[1].answer.penalty));
        for step in &plan.steps {
            assert!(step.verified, "unverified step {:?}", step.strategy);
            assert!((step.breakdown.combined - step.answer.penalty).abs() < 1e-15);
        }
        assert_eq!(
            plan.recommended().answer.penalty,
            plan.steps[0].answer.penalty
        );
    }

    #[test]
    fn breakdown_terms_recombine_into_the_penalty() {
        let tree = fig_tree();
        let tol = Tolerances::new(0.3, 0.7, 0.6, 0.4);
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3)
            .unwrap()
            .with_tolerances(tol);
        let mut options = WhyNotOptions {
            tol,
            ..WhyNotOptions::default()
        };
        options.exact_2d = false;
        let plan = w.advise(&kevin_julia(), &options).unwrap();
        for step in &plan.steps {
            let b = &step.breakdown;
            let recombined = match step.strategy {
                StrategyKind::Mqp => b.query_term,
                StrategyKind::Mwk => tol.alpha * b.k_term + tol.beta * b.weight_term,
                StrategyKind::Mqwk => {
                    tol.gamma * b.query_term
                        + tol.lambda * (tol.alpha * b.k_term + tol.beta * b.weight_term)
                }
            };
            assert!(
                (recombined - b.combined).abs() < 1e-12,
                "{:?}: {recombined} vs {}",
                step.strategy,
                b.combined
            );
        }
    }

    #[test]
    fn exact_2d_is_auto_selected_on_view_facades() {
        let tree = fig_tree();
        let view = plain_view();
        let w = Wqrtq::new(Snapshot::from(&tree).overlay(&view), &[4.0, 4.0], 3).unwrap();
        let wn = kevin_julia();
        let plan = w.advise(&wn, &WhyNotOptions::default()).unwrap();
        let mwk = plan
            .steps
            .iter()
            .find(|s| s.strategy == StrategyKind::Mwk)
            .unwrap();
        assert!(mwk.stats.exact, "2-D view facade must take the exact path");
        // The exact step matches the standalone oracle bit for bit.
        let oracle = crate::exact2d::mwk_exact_2d(
            &fig_points(),
            &[4.0, 4.0],
            3,
            &wn,
            &Tolerances::paper_default(),
        );
        assert_eq!(mwk.answer.penalty.to_bits(), oracle.penalty.to_bits());

        // Opting out pins the sampled path.
        let sampled_only = WhyNotOptions {
            exact_2d: false,
            ..WhyNotOptions::default()
        };
        let plan = w.advise(&wn, &sampled_only).unwrap();
        let mwk = plan
            .steps
            .iter()
            .find(|s| s.strategy == StrategyKind::Mwk)
            .unwrap();
        assert!(!mwk.stats.exact);
        assert_eq!(mwk.stats.sample_size, sampled_only.sample_size);
    }

    #[test]
    fn events_stream_in_execution_order() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let mut trace = Vec::new();
        let mut timed = Vec::new();
        let plan = w
            .advise_with(
                &kevin_julia(),
                &WhyNotOptions::default(),
                &mut ProbeCtx::new(),
                |event| match event {
                    AdvisorEvent::Explained { index, .. } => trace.push(format!("explain{index}")),
                    AdvisorEvent::Step(step) => trace.push(step.strategy.name().to_string()),
                    AdvisorEvent::StageTimed { strategy, .. } => {
                        timed.push(strategy);
                        trace.push(format!("timed {}", strategy.name()));
                    }
                },
            )
            .unwrap();
        // One timing per strategy, just before the step it times;
        // validation and explanations are not timed.
        assert_eq!(
            trace,
            [
                "explain0",
                "explain1",
                "timed MQP",
                "MQP",
                "timed MWK",
                "MWK",
                "timed MQWK",
                "MQWK"
            ]
        );
        assert_eq!(timed, StrategyKind::ALL);
        assert_eq!(plan.steps.len(), 3);
    }

    #[test]
    fn a_set_cancel_flag_stops_the_plan_and_its_sampling_loops() {
        use crate::incomparable::{DominanceFrontier, Reuse};
        use crate::mqwk::RefinementSource;
        use crate::sampling::{sample_query_points, sample_query_points_with};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let why_not = kevin_julia();
        let options = WhyNotOptions {
            exact_2d: false,
            ..WhyNotOptions::default()
        };
        let flag = Arc::new(AtomicBool::new(false));
        let mut ctx = ProbeCtx::new();
        ctx.cancel = Some(flag.clone());
        // An unset flag changes nothing.
        let unset = w.advise_with(&why_not, &options, &mut ctx, |_| {}).unwrap();
        let plain = w.advise(&why_not, &options).unwrap();
        assert_eq!(format!("{unset:?}"), format!("{plain:?}"));

        // A set flag stops the plan before its next step, reporting none.
        flag.store(true, Ordering::Release);
        let mut reported = 0;
        let stopped = w
            .advise_with(&why_not, &options, &mut ctx, |event| {
                if !matches!(event, AdvisorEvent::StageTimed { .. }) {
                    reported += 1;
                }
            })
            .unwrap();
        assert_eq!(reported, 0);
        assert!(stopped.explanations.is_empty() && stopped.steps.is_empty());

        // Inside a step, MWK draws no sample at any budget, and MQWK
        // evaluates its two endpoints but no sampled query point.
        let (tol, q) = (Tolerances::paper_default(), [4.0, 4.0]);
        let frontier = DominanceFrontier::new(&tree, &q);
        let sampler = || WeightSampler::new(&frontier, &why_not, 7);
        let budget = &Budget::UNBOUNDED;
        let mwk = mwk_sampled(&frontier, 3, &why_not, 1 << 20, &tol, budget, sampler, &ctx);
        assert_eq!(mwk.candidates_examined, why_not.len(), "only the originals");
        let solved = mqp(&tree, &q, 3, &why_not).unwrap();
        let mqwk = mqwk::refine(&frontier, &solved, 3, &why_not, 64, 4096, &tol, 7, &ctx);
        assert_eq!((mqwk.candidates_evaluated, mqwk.candidates_pruned), (2, 0));
        // At the largest |Q|, MQWK draws at most one chunk of query points
        // and builds no reuse over them: it answers its first endpoint.
        let qmin = &solved.q_prime;
        let drawn = sample_query_points_with(qmin, &q, 1 << 20, 7, &ctx);
        assert!(drawn.len() <= 256, "{} drawn", drawn.len());
        let samples = sample_query_points(qmin, &q, 1000, 7);
        assert!(Reuse::new_with(&frontier, &samples, &why_not, &ctx).is_none());
        let mqwk = mqwk::refine(&frontier, &solved, 3, &why_not, 64, 1 << 20, &tol, 7, &ctx);
        assert_eq!(mqwk.source, RefinementSource::QueryEndpoint);
        assert_eq!((mqwk.candidates_evaluated, mqwk.candidates_pruned), (2, 0));
        // An unset flag draws and builds exactly what the plain calls do.
        flag.store(false, Ordering::Release);
        let drawn = sample_query_points_with(qmin, &q, 1000, 7, &ctx);
        assert_eq!(format!("{drawn:?}"), format!("{samples:?}"));
        let reuse = Reuse::new_with(&frontier, &samples, &why_not, &ctx).unwrap();
        let plain = Reuse::new(&frontier, &samples, &why_not);
        assert_eq!(format!("{reuse:?}"), format!("{plain:?}"));
    }

    #[test]
    fn strategy_subset_and_duplicates_are_canonicalised() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let options = WhyNotOptions {
            strategies: vec![StrategyKind::Mwk, StrategyKind::Mqp, StrategyKind::Mqp],
            ..WhyNotOptions::default()
        };
        let plan = w.advise(&kevin_julia(), &options).unwrap();
        let kinds: Vec<StrategyKind> = plan.steps.iter().map(|s| s.strategy).collect();
        assert_eq!(kinds.len(), 2);
        assert!(kinds.contains(&StrategyKind::Mqp) && kinds.contains(&StrategyKind::Mwk));
    }

    #[test]
    fn empty_strategy_set_is_a_typed_error() {
        let tree = fig_tree();
        let w = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
        let options = WhyNotOptions {
            strategies: Vec::new(),
            ..WhyNotOptions::default()
        };
        assert!(matches!(
            w.advise(&kevin_julia(), &options),
            Err(WhyNotError::NoStrategies)
        ));
    }

    #[test]
    fn a_plan_solves_mqp_once_and_each_step_equals_its_free_function() {
        // MQWK's `qmin` is the plan's MQP answer, whether or not the plan
        // has an MQP step before it; every step still equals the free
        // function at the same snapshot and seed, bit for bit.
        use crate::{mqwk, mwk};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use StrategyKind::{Mqp, Mqwk, Mwk};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same_weights = |a: &[Weight], b: &[Weight]| {
            a.len() == b.len() && a.iter().zip(b).all(|(u, v)| bits(u) == bits(v))
        };
        let mut rng = StdRng::seed_from_u64(35);
        let cube: Vec<f64> = (0..3 * 200).map(|_| rng.gen::<f64>()).collect();
        let cases = [
            (fig_tree(), vec![4.0, 4.0], 3, kevin_julia()),
            (
                RTree::bulk_load(3, &cube),
                vec![0.5, 0.5, 0.5],
                5,
                vec![
                    Weight::new(vec![0.2, 0.3, 0.5]),
                    Weight::new(vec![0.6, 0.3, 0.1]),
                ],
            ),
        ];
        let tol = Tolerances::paper_default();
        let (sample_size, query_samples, seed) = (120, 40, 9);
        for (tree, q, k, wn) in &cases {
            let w = Wqrtq::new(tree, q, *k).unwrap();
            let free_mqp = mqp(tree, q, *k, wn).unwrap();
            let free_mwk = mwk(tree, q, *k, wn, sample_size, &tol, seed).unwrap();
            let free_mqwk = mqwk(tree, q, *k, wn, sample_size, query_samples, &tol, seed).unwrap();
            for strategies in [
                vec![Mqwk],
                vec![Mqp, Mqwk],
                vec![Mwk, Mqwk],
                StrategyKind::ALL.to_vec(),
            ] {
                let options = WhyNotOptions {
                    strategies: strategies.clone(),
                    sample_size,
                    query_samples,
                    seed,
                    exact_2d: false,
                    ..WhyNotOptions::default()
                };
                let plan = w.advise(wn, &options).unwrap();
                assert_eq!(plan.steps.len(), strategies.len());
                for step in &plan.steps {
                    let penalty = step.answer.penalty.to_bits();
                    match &step.answer.refined {
                        RefinedQuery::QueryPoint { q_prime } => {
                            assert_eq!(penalty, free_mqp.penalty.to_bits());
                            assert_eq!(bits(q_prime), bits(&free_mqp.q_prime));
                        }
                        RefinedQuery::Preferences { why_not, k } => {
                            assert_eq!(penalty, free_mwk.penalty.to_bits());
                            assert_eq!(*k, free_mwk.k_prime);
                            assert!(same_weights(why_not, &free_mwk.refined));
                        }
                        RefinedQuery::Everything {
                            q_prime,
                            why_not,
                            k,
                        } => {
                            assert_eq!(penalty, free_mqwk.penalty.to_bits(), "{strategies:?}");
                            assert_eq!(bits(q_prime), bits(&free_mqwk.q_prime));
                            assert_eq!(*k, free_mqwk.k_prime);
                            assert!(same_weights(why_not, &free_mqwk.refined));
                        }
                    }
                }
            }
        }
    }
}
