//! The typed request/response vocabulary of the engine.
//!
//! A [`Request`] names a catalog dataset and one of the query classes the
//! library implements; a [`Response`] carries plain-data results
//! (`PartialEq`, so batch determinism is directly assertable). Every
//! request has a stable [`Request::fingerprint`] — combined with the
//! dataset's catalog epoch triple it keys the engine's result cache.
//!
//! [`Request::validate`] is the engine's input firewall: every float a
//! request carries must be finite (a single NaN or infinity would
//! silently corrupt the strict `<` comparisons and `total_cmp` sorts in
//! the kernels), and every weighting vector must be non-negative with at
//! least one positive component. Workers reject invalid requests with a
//! typed error before touching any index.

use crate::error::EngineError;
use crate::metrics::StatsSnapshot;
use wqrtq_core::advisor::{PenaltyBreakdown, StrategyKind, WhyNotOptions};

/// Upper bound on any sampling budget a request may carry
/// (`sample_size`, `query_samples` — 2²⁰ samples is far beyond any
/// useful quality/latency trade-off). The samplers allocate and loop
/// proportionally to these values, so an unbounded budget from the
/// wire would let one hostile frame pin a pool worker for hours or
/// abort the process on an impossible allocation.
pub const MAX_SAMPLE_BUDGET: usize = 1 << 20;

/// The weight population a bichromatic reverse top-k request runs
/// against.
#[derive(Clone, Debug, PartialEq)]
pub enum WeightSet {
    /// A population registered in the catalog under this name.
    Named(String),
    /// An inline population (each inner vector is one weighting vector).
    Inline(Vec<Vec<f64>>),
}

/// One unit of work for the engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `TOPk(w)` over a catalog dataset.
    TopK {
        /// Catalog dataset name.
        dataset: String,
        /// The weighting vector.
        weight: Vec<f64>,
        /// How many points.
        k: usize,
    },
    /// Monochromatic reverse top-k (Definition 2): which regions of the
    /// weight space rank `q` in their top-k. Exact intervals in 2-D,
    /// seeded simplex sampling otherwise.
    ReverseTopKMono {
        /// Catalog dataset name.
        dataset: String,
        /// The query point.
        q: Vec<f64>,
        /// The reverse top-k parameter.
        k: usize,
        /// Sample count for the `d > 2` sampled estimate.
        samples: usize,
        /// Sampling seed for the `d > 2` estimate.
        seed: u64,
    },
    /// Bichromatic reverse top-k (Definition 3): which customers of a
    /// weight population rank `q` in their top-k (RTA algorithm).
    ReverseTopKBi {
        /// Catalog dataset name.
        dataset: String,
        /// The customer population.
        weights: WeightSet,
        /// The query point.
        q: Vec<f64>,
        /// The reverse top-k parameter.
        k: usize,
    },
    /// The unified why-not question (the paper's full deliverable):
    /// explanation plus every requested refinement strategy, verified
    /// and ranked cheapest-first under the configured penalty model.
    /// Served by the core advisor layer; answered with
    /// [`Response::Plan`]. One strategy alone is
    /// `options.strategies = vec![kind]`; the explanation's culprit list
    /// is capped by `options.culprit_limit`.
    WhyNot {
        /// Catalog dataset name.
        dataset: String,
        /// The query point.
        q: Vec<f64>,
        /// The original `k`.
        k: usize,
        /// The why-not weighting vectors.
        why_not: Vec<Vec<f64>>,
        /// Penalty coefficients, strategy subset, culprit limit, sample
        /// budgets and seed (validated at [`Request::validate`]).
        options: WhyNotOptions,
    },
    /// Appends rows to a dataset's delta overlay (`O(Δ)`, no rebuild).
    Append {
        /// Catalog dataset name.
        dataset: String,
        /// Flat row-major coordinates of the rows to append.
        points: Vec<f64>,
    },
    /// Deletes points (by stable id) from a dataset: base rows are
    /// tombstoned, appended rows drop out of the delta overlay.
    Delete {
        /// Catalog dataset name.
        dataset: String,
        /// Stable point ids to delete.
        ids: Vec<u32>,
    },
    /// Fetches the engine's observability snapshot (per-kind and
    /// per-stage latency histograms, cache/catalog/overlay counters) as
    /// [`Response::Stats`]. Dataset-less and side-effect free: workers
    /// serve it without touching the catalog, the cache, or the metrics
    /// themselves, so the returned snapshot equals what
    /// [`crate::Engine::metrics`] reports at the same quiesced point.
    Stats,
}

/// Validates one weighting vector: finite, non-negative, some positive.
pub(crate) fn check_weight(w: &[f64], field: &'static str) -> Result<(), EngineError> {
    if !w.iter().all(|x| x.is_finite()) {
        return Err(EngineError::NonFiniteInput { field });
    }
    if w.iter().any(|&x| x < 0.0) || !w.iter().any(|&x| x > 0.0) {
        return Err(EngineError::InvalidWeight { field });
    }
    Ok(())
}

/// Validates one coordinate vector: finite throughout.
pub(crate) fn check_finite(v: &[f64], field: &'static str) -> Result<(), EngineError> {
    if v.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(EngineError::NonFiniteInput { field })
    }
}

/// Validates one sampling budget against [`MAX_SAMPLE_BUDGET`].
pub(crate) fn check_budget(value: usize, field: &'static str) -> Result<(), EngineError> {
    if value > MAX_SAMPLE_BUDGET {
        return Err(EngineError::SampleBudgetTooLarge {
            field,
            max: MAX_SAMPLE_BUDGET,
        });
    }
    Ok(())
}

/// Validates advisor options at the request boundary: the penalty-model
/// coefficients must be finite, non-negative and satisfy the convexity
/// constraints of Eqs. (4)/(5), the strategy set must be non-empty, and
/// the sampling budgets must stay under [`MAX_SAMPLE_BUDGET`]. (The
/// `WhyNotOptions` struct itself is deliberately plain data so it can
/// travel through wire codecs unvalidated; this is where hostile or
/// malformed values are stopped.)
pub(crate) fn check_options(options: &WhyNotOptions) -> Result<(), EngineError> {
    let t = &options.tol;
    let coefficients = [t.alpha, t.beta, t.gamma, t.lambda];
    if !coefficients.iter().all(|c| c.is_finite()) {
        return Err(EngineError::NonFiniteInput {
            field: "penalty tolerances",
        });
    }
    if coefficients.iter().any(|&c| c < 0.0) {
        return Err(EngineError::InvalidTolerances {
            reason: "coefficients must be non-negative",
        });
    }
    if (t.alpha + t.beta - 1.0).abs() > 1e-6 {
        return Err(EngineError::InvalidTolerances {
            reason: "alpha + beta must equal 1",
        });
    }
    if (t.gamma + t.lambda - 1.0).abs() > 1e-6 {
        return Err(EngineError::InvalidTolerances {
            reason: "gamma + lambda must equal 1",
        });
    }
    if options.strategies.is_empty() {
        return Err(EngineError::EmptyStrategySet);
    }
    check_budget(options.sample_size, "sample size")?;
    check_budget(options.query_samples, "query samples")?;
    Ok(())
}

/// Request kinds, for metrics bucketing and the wire vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// [`Request::TopK`].
    TopK,
    /// [`Request::ReverseTopKMono`].
    ReverseTopKMono,
    /// [`Request::ReverseTopKBi`].
    ReverseTopKBi,
    /// [`Request::WhyNot`].
    WhyNot,
    /// [`Request::Append`].
    Append,
    /// [`Request::Delete`].
    Delete,
    /// [`Request::Stats`].
    Stats,
}

/// The **source-of-truth vocabulary table**: every request kind with its
/// display name and its stable wire-protocol body tag. The metrics
/// ordering ([`RequestKind::ALL`] and the metrics index), the display
/// names ([`RequestKind::name`]) and the server frame codec
/// ([`RequestKind::wire_tag`] / [`RequestKind::from_wire_tag`]) all
/// derive from this single table, so the engine and wire vocabularies
/// cannot drift — a conformance test in `wqrtq-server` fails if a tag
/// is reused, renumbered, or a kind is missing from the codec.
///
/// Wire tags are **append-only**: a tag is never renumbered or reused,
/// and new kinds take the next free tag regardless of their position in
/// this table. Tags 4 and 5 are retired (the pre-advisor
/// explain/refine kinds) and stay reserved.
pub const REQUEST_KIND_TABLE: [(RequestKind, &str, u8); 7] = [
    (RequestKind::TopK, "topk", 1),
    (RequestKind::ReverseTopKMono, "rtopk-mono", 2),
    (RequestKind::ReverseTopKBi, "rtopk-bi", 3),
    (RequestKind::WhyNot, "whynot-plan", 8),
    (RequestKind::Append, "append", 6),
    (RequestKind::Delete, "delete", 7),
    (RequestKind::Stats, "stats", 9),
];

impl RequestKind {
    /// All kinds, in [`REQUEST_KIND_TABLE`] order (metrics table order).
    pub const ALL: [RequestKind; REQUEST_KIND_TABLE.len()] = {
        let mut all = [RequestKind::TopK; REQUEST_KIND_TABLE.len()];
        let mut i = 0;
        while i < REQUEST_KIND_TABLE.len() {
            all[i] = REQUEST_KIND_TABLE[i].0;
            i += 1;
        }
        all
    };

    /// Whether this kind mutates its dataset (served outside the result
    /// cache and without resolving an index snapshot).
    pub fn is_mutation(self) -> bool {
        matches!(self, RequestKind::Append | RequestKind::Delete)
    }

    fn row(self) -> &'static (RequestKind, &'static str, u8) {
        REQUEST_KIND_TABLE
            .iter()
            .find(|(kind, _, _)| *kind == self)
            // lint: allow(no-panic) — table completeness is asserted by
            // `kind_table_is_the_single_source_of_truth` and the
            // drift lint.
            .expect("every kind has a table row")
    }

    /// Display name (from [`REQUEST_KIND_TABLE`]).
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// The stable wire-protocol body tag of this kind (from
    /// [`REQUEST_KIND_TABLE`]); the server's request codec writes and
    /// dispatches on exactly this byte.
    pub fn wire_tag(self) -> u8 {
        self.row().2
    }

    /// Resolves a wire body tag back to its kind (`None` for unknown
    /// tags — a protocol error at the codec layer).
    pub fn from_wire_tag(tag: u8) -> Option<RequestKind> {
        REQUEST_KIND_TABLE
            .iter()
            .find(|(_, _, t)| *t == tag)
            .map(|(kind, _, _)| *kind)
    }

    pub(crate) fn index(self) -> usize {
        REQUEST_KIND_TABLE
            .iter()
            .position(|(kind, _, _)| *kind == self)
            // lint: allow(no-panic) — table completeness is asserted by
            // `kind_table_is_the_single_source_of_truth` and the
            // drift lint.
            .expect("every kind has a table row")
    }
}

impl Request {
    /// The kind bucket of this request.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::TopK { .. } => RequestKind::TopK,
            Request::ReverseTopKMono { .. } => RequestKind::ReverseTopKMono,
            Request::ReverseTopKBi { .. } => RequestKind::ReverseTopKBi,
            Request::WhyNot { .. } => RequestKind::WhyNot,
            Request::Append { .. } => RequestKind::Append,
            Request::Delete { .. } => RequestKind::Delete,
            Request::Stats => RequestKind::Stats,
        }
    }

    /// The catalog dataset this request runs against (empty for the
    /// dataset-less [`Request::Stats`]).
    pub fn dataset(&self) -> &str {
        match self {
            Request::TopK { dataset, .. }
            | Request::ReverseTopKMono { dataset, .. }
            | Request::ReverseTopKBi { dataset, .. }
            | Request::WhyNot { dataset, .. }
            | Request::Append { dataset, .. }
            | Request::Delete { dataset, .. } => dataset,
            Request::Stats => "",
        }
    }

    /// Validates the request's numeric payload before execution: every
    /// coordinate finite, every weighting vector non-negative with a
    /// positive component.
    ///
    /// # Errors
    /// [`EngineError::NonFiniteInput`] / [`EngineError::InvalidWeight`].
    pub fn validate(&self) -> Result<(), EngineError> {
        match self {
            Request::TopK { weight, .. } => check_weight(weight, "weight"),
            Request::ReverseTopKMono { q, samples, .. } => {
                check_finite(q, "query point")?;
                check_budget(*samples, "samples")
            }
            Request::ReverseTopKBi { weights, q, .. } => {
                check_finite(q, "query point")?;
                if let WeightSet::Inline(ws) = weights {
                    for w in ws {
                        check_weight(w, "inline weight set")?;
                    }
                }
                Ok(())
            }
            Request::WhyNot {
                q,
                why_not,
                options,
                ..
            } => {
                check_finite(q, "query point")?;
                for w in why_not {
                    check_weight(w, "why-not vector")?;
                }
                check_options(options)
            }
            Request::Append { points, .. } => check_finite(points, "appended points"),
            Request::Delete { .. } => Ok(()),
            Request::Stats => Ok(()),
        }
    }

    /// A stable 64-bit content fingerprint (FNV-1a over every field,
    /// floats by bit pattern). Identical requests always fingerprint
    /// identically across runs; combined with the dataset epoch this keys
    /// the result cache.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Request::TopK { dataset, weight, k } => {
                h.write_u64(1);
                h.write_str(dataset);
                h.write_floats(weight);
                h.write_u64(*k as u64);
            }
            Request::ReverseTopKMono {
                dataset,
                q,
                k,
                samples,
                seed,
            } => {
                h.write_u64(2);
                h.write_str(dataset);
                h.write_floats(q);
                h.write_u64(*k as u64);
                h.write_u64(*samples as u64);
                h.write_u64(*seed);
            }
            Request::ReverseTopKBi {
                dataset,
                weights,
                q,
                k,
            } => {
                h.write_u64(3);
                h.write_str(dataset);
                match weights {
                    WeightSet::Named(name) => {
                        h.write_u64(1);
                        h.write_str(name);
                    }
                    WeightSet::Inline(ws) => {
                        h.write_u64(2);
                        h.write_u64(ws.len() as u64);
                        for w in ws {
                            h.write_floats(w);
                        }
                    }
                }
                h.write_floats(q);
                h.write_u64(*k as u64);
            }
            Request::WhyNot {
                dataset,
                q,
                k,
                why_not,
                options,
            } => {
                h.write_u64(8);
                h.write_str(dataset);
                h.write_floats(q);
                h.write_u64(*k as u64);
                h.write_u64(why_not.len() as u64);
                for w in why_not {
                    h.write_floats(w);
                }
                // Every option influences the plan, so every option is
                // part of the cache identity.
                h.write_u64(options.tol.alpha.to_bits());
                h.write_u64(options.tol.beta.to_bits());
                h.write_u64(options.tol.gamma.to_bits());
                h.write_u64(options.tol.lambda.to_bits());
                h.write_u64(options.strategies.len() as u64);
                for s in &options.strategies {
                    h.write_u64(u64::from(s.tag()));
                }
                h.write_u64(options.culprit_limit as u64);
                h.write_u64(options.sample_size as u64);
                h.write_u64(options.query_samples as u64);
                h.write_u64(options.seed);
                h.write_u64(u64::from(options.exact_2d));
            }
            Request::Append { dataset, points } => {
                h.write_u64(6);
                h.write_str(dataset);
                h.write_floats(points);
            }
            Request::Delete { dataset, ids } => {
                h.write_u64(7);
                h.write_str(dataset);
                h.write_u64(ids.len() as u64);
                for id in ids {
                    h.write_u64(*id as u64);
                }
            }
            Request::Stats => {
                h.write_u64(9);
            }
        }
        h.finish()
    }
}

/// A refinement result in plain data (mirrors the core framework's
/// `RefinedQuery`/`WqrtqAnswer`, with `PartialEq` for determinism tests).
#[derive(Clone, Debug, PartialEq)]
pub struct Refinement {
    /// The refined query point, when the strategy moved it.
    pub q_prime: Option<Vec<f64>>,
    /// The refined why-not vectors, when the strategy moved them.
    pub why_not: Option<Vec<Vec<f64>>>,
    /// The refined `k`, when the strategy changed it.
    pub k: Option<usize>,
    /// The penalty of the refinement (Eq. 1, 4 or 5).
    pub penalty: f64,
}

/// One why-not explanation in plain data (mirrors the core
/// `Explanation`, with `PartialEq` for determinism tests).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanExplanation {
    /// Actual rank of `q` under the why-not vector.
    pub rank: usize,
    /// Points outranking `q`, ascending by score, as `(id, score)`.
    pub culprits: Vec<(u32, f64)>,
    /// Whether the culprit list hit the configured limit.
    pub truncated: bool,
}

/// One executed strategy of a [`Plan`] (mirrors the core advisor's
/// `RankedStep` in plain data).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStep {
    /// Which strategy produced this refinement.
    pub strategy: StrategyKind,
    /// The refinement and its penalty.
    pub refinement: Refinement,
    /// The penalty split into its Eq. (1)/(4)/(5) terms.
    pub breakdown: PenaltyBreakdown,
    /// Whether the core `verify` confirmed the refinement fixes the
    /// why-not question.
    pub verified: bool,
    /// Whether the exact 2-D path answered this step (no sampling).
    pub exact: bool,
    /// Weight samples actually drawn (zero for MQP and exact paths).
    pub sample_size: usize,
    /// Query-point samples actually drawn (zero outside MQWK).
    pub query_samples: usize,
}

/// The ranked answer to a [`Request::WhyNot`]: explanations plus every
/// executed strategy, cheapest-first. `steps[0]` is the recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// One explanation per why-not vector, in input order.
    pub explanations: Vec<PlanExplanation>,
    /// `k′max` (Lemma 4) — the `Δk` normaliser of the penalty model.
    pub k_max: usize,
    /// Executed strategies, ascending by penalty.
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// The minimum-penalty refinement — the advisor's recommendation.
    pub fn recommended(&self) -> &PlanStep {
        &self.steps[0]
    }
}

/// A progressive partial result of an in-flight [`Request::WhyNot`],
/// emitted as each advisor step completes (explanations first, then
/// strategies in execution order — *before* the final plan ranks them).
/// Serving layers forward these so pipelined clients can act on early
/// results; the final [`Response::Plan`] remains the authoritative
/// answer (cache hits skip the partials entirely).
#[derive(Clone, Debug, PartialEq)]
pub enum PlanDelta {
    /// The explanation for why-not vector `index` is ready.
    Explained {
        /// Index into the request's why-not set.
        index: usize,
        /// The explanation (culprit-limited).
        explanation: PlanExplanation,
    },
    /// One refinement strategy finished.
    Step(PlanStep),
}

/// The result of one [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `TOPk(w)` as `(point id, score)` in ascending score order.
    TopK(Vec<(u32, f64)>),
    /// Exact 2-D monochromatic result: qualifying `(lo, hi)` intervals of
    /// the first weight component.
    MonoExact(Vec<(f64, f64)>),
    /// Sampled monochromatic estimate for `d > 2`.
    MonoSampled {
        /// Estimated fraction of the weight simplex in `MRTOPk(q)`.
        volume_fraction: f64,
        /// Samples drawn.
        samples: usize,
    },
    /// Qualifying customer indices (into the request's population).
    ReverseTopKBi(Vec<usize>),
    /// The ranked why-not plan of a [`Request::WhyNot`].
    Plan(Plan),
    /// A mutation was applied; the dataset now holds this many live
    /// points.
    Mutated {
        /// Live points after the mutation.
        live_len: usize,
    },
    /// The observability snapshot answering a [`Request::Stats`]
    /// (boxed: the histogram-bearing snapshot dwarfs every other
    /// variant).
    Stats(Box<StatsSnapshot>),
    /// The request failed; the batch continues.
    Error(String),
}

impl Response {
    /// Whether this response is an error.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn write_byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_byte(b);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.bytes() {
            self.write_byte(b);
        }
    }

    fn write_floats(&mut self, xs: &[f64]) {
        self.write_u64(xs.len() as u64);
        for x in xs {
            self.write_u64(x.to_bits());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topk(dataset: &str, w: &[f64], k: usize) -> Request {
        Request::TopK {
            dataset: dataset.into(),
            weight: w.to_vec(),
            k,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let a = topk("products", &[0.3, 0.7], 5);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(
            a.fingerprint(),
            topk("products", &[0.3, 0.7], 6).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            topk("products", &[0.7, 0.3], 5).fingerprint()
        );
        assert_ne!(a.fingerprint(), topk("other", &[0.3, 0.7], 5).fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_kinds_with_same_payload() {
        let bi = Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Inline(Vec::new()),
            q: vec![1.0, 2.0],
            k: 3,
        };
        let mono = Request::ReverseTopKMono {
            dataset: "d".into(),
            q: vec![1.0, 2.0],
            k: 3,
            samples: 0,
            seed: 0,
        };
        assert_ne!(bi.fingerprint(), mono.fingerprint());
    }

    #[test]
    fn named_and_inline_weight_sets_fingerprint_differently() {
        let named = Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Named("customers".into()),
            q: vec![1.0],
            k: 2,
        };
        let inline = Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Inline(vec![vec![1.0]]),
            q: vec![1.0],
            k: 2,
        };
        assert_ne!(named.fingerprint(), inline.fingerprint());
    }

    #[test]
    fn kind_and_dataset_accessors() {
        let r = topk("p", &[1.0], 1);
        assert_eq!(r.kind(), RequestKind::TopK);
        assert_eq!(r.dataset(), "p");
        assert_eq!(r.kind().name(), "topk");
        assert_eq!(RequestKind::ALL.len(), 7);
        assert_eq!(Request::Stats.kind(), RequestKind::Stats);
        assert_eq!(Request::Stats.dataset(), "");
        assert!(Request::Stats.validate().is_ok());
        assert!(!RequestKind::Stats.is_mutation());
        assert_eq!(Request::Stats.fingerprint(), Request::Stats.fingerprint());
        for (i, k) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    fn why_not_request(options: WhyNotOptions) -> Request {
        Request::WhyNot {
            dataset: "p".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options,
        }
    }

    #[test]
    fn kind_table_is_the_single_source_of_truth() {
        // Wire tags are unique and round-trip through the lookup.
        for (kind, name, tag) in REQUEST_KIND_TABLE {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.wire_tag(), tag);
            assert_eq!(RequestKind::from_wire_tag(tag), Some(kind));
        }
        let mut tags: Vec<u8> = REQUEST_KIND_TABLE.iter().map(|(_, _, t)| *t).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), REQUEST_KIND_TABLE.len(), "wire tags collide");
        assert_eq!(RequestKind::from_wire_tag(0), None);
        assert_eq!(RequestKind::from_wire_tag(0xff), None);
    }

    #[test]
    fn why_not_options_are_validated_at_the_boundary() {
        use wqrtq_core::penalty::Tolerances;
        let ok = why_not_request(WhyNotOptions::default());
        assert!(ok.validate().is_ok());

        let nan = why_not_request(WhyNotOptions {
            tol: Tolerances {
                alpha: f64::NAN,
                beta: 0.5,
                gamma: 0.5,
                lambda: 0.5,
            },
            ..WhyNotOptions::default()
        });
        assert_eq!(
            nan.validate(),
            Err(EngineError::NonFiniteInput {
                field: "penalty tolerances"
            })
        );

        let negative = why_not_request(WhyNotOptions {
            tol: Tolerances {
                alpha: -0.5,
                beta: 1.5,
                gamma: 0.5,
                lambda: 0.5,
            },
            ..WhyNotOptions::default()
        });
        assert!(matches!(
            negative.validate(),
            Err(EngineError::InvalidTolerances { .. })
        ));

        let lopsided = why_not_request(WhyNotOptions {
            tol: Tolerances {
                alpha: 0.5,
                beta: 0.6,
                gamma: 0.5,
                lambda: 0.5,
            },
            ..WhyNotOptions::default()
        });
        assert_eq!(
            lopsided.validate(),
            Err(EngineError::InvalidTolerances {
                reason: "alpha + beta must equal 1"
            })
        );

        let no_strategies = why_not_request(WhyNotOptions {
            strategies: Vec::new(),
            ..WhyNotOptions::default()
        });
        assert_eq!(no_strategies.validate(), Err(EngineError::EmptyStrategySet));

        let bad_vector = Request::WhyNot {
            dataset: "p".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![f64::NAN, 0.9]],
            options: WhyNotOptions::default(),
        };
        assert!(bad_vector.validate().is_err());
    }

    #[test]
    fn why_not_options_are_part_of_the_cache_identity() {
        let base = why_not_request(WhyNotOptions::default());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let seeded = why_not_request(WhyNotOptions {
            seed: 1,
            ..WhyNotOptions::default()
        });
        assert_ne!(base.fingerprint(), seeded.fingerprint());
        let subset = why_not_request(WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            ..WhyNotOptions::default()
        });
        assert_ne!(base.fingerprint(), subset.fingerprint());
        let sampled = why_not_request(WhyNotOptions {
            exact_2d: false,
            ..WhyNotOptions::default()
        });
        assert_ne!(base.fingerprint(), sampled.fingerprint());
    }

    #[test]
    fn error_predicate() {
        assert!(Response::Error("x".into()).is_error());
        assert!(!Response::TopK(vec![]).is_error());
    }
}
