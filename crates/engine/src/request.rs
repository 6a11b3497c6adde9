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
//! the kernels), a `TopK` weight must be non-negative with at least one
//! positive component, and a why-not vector or inline population member
//! must pass [`Weight::check`], as a registered population does. Workers
//! reject invalid requests with a typed error before touching any index.

use crate::error::EngineError;
use crate::metrics::StatsSnapshot;
use std::cell::RefCell;
use wqrtq_codec::{ByteReader, ByteWriter, DecodeError};
use wqrtq_core::advisor::{PenaltyBreakdown, StrategyKind, WhyNotOptions};
use wqrtq_core::penalty::Tolerances;
use wqrtq_geom::Weight;

/// Upper bound on any sampling budget a request may carry
/// (`sample_size`, `query_samples` — 2²⁰ samples is far beyond any
/// useful quality/latency trade-off). The samplers allocate and loop
/// proportionally to these values, so an unbounded budget from the
/// wire would let one hostile frame pin a pool worker for hours or
/// abort the process on an impossible allocation.
pub const MAX_SAMPLE_BUDGET: usize = 1 << 20;

/// Upper bound on a plan's work, `sample_size · (query_samples + 1)`:
/// MWK scores every weight sample, and MQWK every weight sample at every
/// query sample. At ~0.33 µs per (sample, query sample) pair — 13.2 ms
/// per plan at 200 × 200 over IND 100k×3 — the largest admissible
/// square plan (8 191 × 8 191) runs ~22 s, where one at
/// [`MAX_SAMPLE_BUDGET`] × [`MAX_SAMPLE_BUDGET`] would run ~4 days. The
/// per-budget cap stays: it bounds memory, which this product does not
/// when `query_samples` is 0.
pub const MAX_PLAN_PAIRS: usize = 1 << 26;

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
    /// Deletes points by id from a dataset: base rows are tombstoned,
    /// appended rows drop out of the delta overlay. Ids are stable within
    /// a base generation; a compaction renumbers the live rows in
    /// canonical order (base survivors ascending, then appends).
    Delete {
        /// Catalog dataset name.
        dataset: String,
        /// Point ids of the current base generation to delete.
        ids: Vec<u32>,
    },
    /// Registers (or replaces) a dataset from a flat `n × dim` buffer;
    /// answered with [`Response::Mutated`] carrying `n`.
    Register {
        /// Catalog dataset name.
        dataset: String,
        /// Dimensionality.
        dim: usize,
        /// Flat row-major coordinates.
        coords: Vec<f64>,
    },
    /// Registers an immutable customer weight population; answered with
    /// [`Response::Mutated`] carrying its size.
    RegisterWeights {
        /// Catalog weight-set name.
        name: String,
        /// One simplex weighting vector per customer.
        weights: Vec<Vec<f64>>,
    },
    /// Merges a dataset's delta overlay into a fresh bulk-loaded base
    /// now, renumbering its ids; answered with [`Response::Compacted`].
    Compact {
        /// Catalog dataset name.
        dataset: String,
    },
    /// Fetches the engine's observability snapshot (per-kind and
    /// per-stage latency histograms, cache/catalog/overlay counters) as
    /// [`Response::Stats`]. Dataset-less and side-effect free: workers
    /// serve it without touching the catalog, the cache, or the metrics
    /// themselves, so the returned snapshot equals what
    /// [`crate::Engine::metrics`] reports at the same quiesced point.
    Stats,
}

/// Validates a `TopK` weighting vector, which is scored as a raw slice:
/// finite, non-negative, some positive.
pub(crate) fn check_weight(w: &[f64], field: &'static str) -> Result<(), EngineError> {
    if !w.iter().all(|x| x.is_finite()) {
        return Err(EngineError::NonFiniteInput { field });
    }
    if w.iter().any(|&x| x < 0.0) || !w.iter().any(|&x| x > 0.0) {
        return Err(EngineError::InvalidWeight { field });
    }
    Ok(())
}

/// Validates a simplex weighting vector — an inline population member
/// or a why-not vector — with [`Weight::check`], the rule a registered
/// population meets: a non-finite entry is [`EngineError::NonFiniteInput`],
/// any other failure [`EngineError::InvalidWeight`].
pub(crate) fn check_simplex(w: &[f64], field: &'static str) -> Result<(), EngineError> {
    check_finite(w, field)?;
    Weight::check(w).map_err(|_| EngineError::InvalidWeight { field })
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
/// constraints of Eqs. (4)/(5), the strategy set must be non-empty, the
/// sampling budgets must stay under [`MAX_SAMPLE_BUDGET`], and their
/// product under [`MAX_PLAN_PAIRS`]. (The
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
    // Both factors are at most 2^20 here, so the product cannot overflow.
    if options.sample_size * (options.query_samples + 1) > MAX_PLAN_PAIRS {
        return Err(EngineError::SampleBudgetTooLarge {
            field: "sample size × (query samples + 1)",
            max: MAX_PLAN_PAIRS,
        });
    }
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
    /// [`Request::Register`].
    Register,
    /// [`Request::RegisterWeights`].
    RegisterWeights,
    /// [`Request::Compact`].
    Compact,
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
pub const REQUEST_KIND_TABLE: [(RequestKind, &str, u8); 10] = [
    (RequestKind::TopK, "topk", 1),
    (RequestKind::ReverseTopKMono, "rtopk-mono", 2),
    (RequestKind::ReverseTopKBi, "rtopk-bi", 3),
    (RequestKind::WhyNot, "whynot-plan", 8),
    (RequestKind::Append, "append", 6),
    (RequestKind::Delete, "delete", 7),
    (RequestKind::Stats, "stats", 9),
    (RequestKind::Register, "register", 10),
    (RequestKind::RegisterWeights, "register-weights", 11),
    (RequestKind::Compact, "compact", 12),
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

    /// Whether this kind writes the catalog (served outside the result
    /// cache, never fingerprinted, and without resolving an index
    /// snapshot).
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            RequestKind::Append
                | RequestKind::Delete
                | RequestKind::Register
                | RequestKind::RegisterWeights
                | RequestKind::Compact
        )
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
            Request::Register { .. } => RequestKind::Register,
            Request::RegisterWeights { .. } => RequestKind::RegisterWeights,
            Request::Compact { .. } => RequestKind::Compact,
        }
    }

    /// The catalog dataset this request runs against (empty for the
    /// dataset-less [`Request::Stats`] and [`Request::RegisterWeights`]).
    pub fn dataset(&self) -> &str {
        match self {
            Request::TopK { dataset, .. }
            | Request::ReverseTopKMono { dataset, .. }
            | Request::ReverseTopKBi { dataset, .. }
            | Request::WhyNot { dataset, .. }
            | Request::Append { dataset, .. }
            | Request::Delete { dataset, .. }
            | Request::Register { dataset, .. }
            | Request::Compact { dataset } => dataset,
            Request::Stats | Request::RegisterWeights { .. } => "",
        }
    }

    /// Validates the request's numeric payload before execution: every
    /// coordinate finite, a `TopK` weight non-negative with a positive
    /// component, and every why-not vector, inline population member and
    /// registered population member a simplex vector by
    /// [`Weight::check`]. A registration's shape and coordinates are the
    /// catalog's to check as it takes them.
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
                        check_simplex(w, "inline weight set")?;
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
                    check_simplex(w, "why-not vector")?;
                }
                check_options(options)
            }
            Request::Append { points, .. } => check_finite(points, "appended points"),
            Request::RegisterWeights { weights, .. } => {
                for w in weights {
                    check_simplex(w, "weight set")?;
                }
                Ok(())
            }
            Request::Delete { .. }
            | Request::Stats
            | Request::Register { .. }
            | Request::Compact { .. } => Ok(()),
        }
    }

    /// A stable 64-bit content fingerprint: FNV-1a over the request's
    /// wire encoding ([`Request::encode_into`]). The encoding decodes back
    /// to the request, so distinct requests hash distinct bytes, and a
    /// field the wire carries is part of the cache identity by
    /// construction. Combined with the dataset epoch this keys the result
    /// cache. Mutations never enter the cache, so the engine never
    /// fingerprints them.
    pub fn fingerprint(&self) -> u64 {
        thread_local! {
            // One encoding buffer per thread, reused: the fingerprint runs
            // on every served query and allocates nothing once warm.
            static BUF: RefCell<ByteWriter> = RefCell::new(ByteWriter::new());
        }
        BUF.with_borrow_mut(|w| {
            w.clear();
            self.encode_into(w);
            let hash = fnv1a(w.as_slice());
            if w.as_slice().len() > RETAINED_ENCODING {
                *w = ByteWriter::new();
            }
            hash
        })
    }

    /// Appends the request's wire encoding: the kind's tag from
    /// [`REQUEST_KIND_TABLE`], then the request's body (`encode_body`). The
    /// server's submit frame carries exactly these bytes, and
    /// [`Request::fingerprint`] hashes them.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(self.kind().wire_tag());
        self.encode_body(w);
    }

    /// Appends the request's fields in declaration order (integers
    /// little-endian, floats by bit pattern, strings and vectors
    /// length-prefixed), without the kind's tag: the body a submit frame
    /// and a WAL record both carry behind their own tag byte.
    pub(crate) fn encode_body(&self, w: &mut ByteWriter) {
        match self {
            Request::TopK { dataset, weight, k } => {
                w.put_str(dataset);
                w.put_f64s(weight);
                w.put_usize(*k);
            }
            Request::ReverseTopKMono {
                dataset,
                q,
                k,
                samples,
                seed,
            } => {
                w.put_str(dataset);
                w.put_f64s(q);
                w.put_usize(*k);
                w.put_usize(*samples);
                w.put_u64(*seed);
            }
            Request::ReverseTopKBi {
                dataset,
                weights,
                q,
                k,
            } => {
                w.put_str(dataset);
                match weights {
                    WeightSet::Named(name) => {
                        w.put_u8(1);
                        w.put_str(name);
                    }
                    WeightSet::Inline(ws) => {
                        w.put_u8(2);
                        put_vectors(w, ws);
                    }
                }
                w.put_f64s(q);
                w.put_usize(*k);
            }
            Request::WhyNot {
                dataset,
                q,
                k,
                why_not,
                options,
            } => {
                w.put_str(dataset);
                w.put_f64s(q);
                w.put_usize(*k);
                put_vectors(w, why_not);
                encode_options(w, options);
            }
            Request::Append { dataset, points } => {
                w.put_str(dataset);
                w.put_f64s(points);
            }
            Request::Delete { dataset, ids } => {
                w.put_str(dataset);
                w.put_usize(ids.len());
                for id in ids {
                    w.put_u64(u64::from(*id));
                }
            }
            // Stats carries no body: the kind tag is the whole request.
            Request::Stats => {}
            Request::Register {
                dataset,
                dim,
                coords,
            } => {
                w.put_str(dataset);
                w.put_usize(*dim);
                w.put_f64s(coords);
            }
            Request::RegisterWeights { name, weights } => {
                w.put_str(name);
                put_vectors(w, weights);
            }
            Request::Compact { dataset } => w.put_str(dataset),
        }
    }

    /// Reads one request written by [`Request::encode_into`]. Values are
    /// decoded unvalidated (a hostile float or budget is
    /// [`Request::validate`]'s to refuse with a typed error); only bytes
    /// that name no request fail here.
    ///
    /// # Errors
    /// [`DecodeError`] on an unknown tag, a truncated field, or a count
    /// longer than the remaining bytes.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Request, DecodeError> {
        let tag = r.take_u8("request tag")?;
        let kind =
            RequestKind::from_wire_tag(tag).ok_or(DecodeError::new("unknown request tag"))?;
        Request::decode_body(kind, r)
    }

    /// Reads the body [`Request::encode_body`] wrote for a request of
    /// `kind`, as unvalidated as [`Request::decode`].
    ///
    /// # Errors
    /// [`DecodeError`] on a truncated field or a count longer than the
    /// remaining bytes.
    pub(crate) fn decode_body(
        kind: RequestKind,
        r: &mut ByteReader<'_>,
    ) -> Result<Request, DecodeError> {
        Ok(match kind {
            RequestKind::TopK => Request::TopK {
                dataset: r.take_str("dataset")?,
                weight: r.take_f64s("weight")?,
                k: r.take_usize("k")?,
            },
            RequestKind::ReverseTopKMono => Request::ReverseTopKMono {
                dataset: r.take_str("dataset")?,
                q: r.take_f64s("query point")?,
                k: r.take_usize("k")?,
                samples: r.take_usize("samples")?,
                seed: r.take_u64("seed")?,
            },
            RequestKind::ReverseTopKBi => {
                let dataset = r.take_str("dataset")?;
                let weights = match r.take_u8("weight-set tag")? {
                    1 => WeightSet::Named(r.take_str("weight-set name")?),
                    2 => WeightSet::Inline(take_vectors(r, "weight count", "weight vector")?),
                    _ => return Err(DecodeError::new("unknown weight-set tag")),
                };
                Request::ReverseTopKBi {
                    dataset,
                    weights,
                    q: r.take_f64s("query point")?,
                    k: r.take_usize("k")?,
                }
            }
            RequestKind::WhyNot => {
                let dataset = r.take_str("dataset")?;
                let q = r.take_f64s("query point")?;
                let k = r.take_usize("k")?;
                let why_not = take_vectors(r, "why-not count", "why-not vector")?;
                Request::WhyNot {
                    dataset,
                    q,
                    k,
                    why_not,
                    options: decode_options(r)?,
                }
            }
            RequestKind::Append => Request::Append {
                dataset: r.take_str("dataset")?,
                points: r.take_f64s("points")?,
            },
            RequestKind::Delete => {
                let dataset = r.take_str("dataset")?;
                let count = r.take_count(8, "id count")?;
                let ids = (0..count)
                    .map(|_| {
                        let id = r.take_u64("point id")?;
                        u32::try_from(id).map_err(|_| DecodeError::new("point id exceeds u32"))
                    })
                    .collect::<Result<_, _>>()?;
                Request::Delete { dataset, ids }
            }
            RequestKind::Stats => Request::Stats,
            RequestKind::Register => Request::Register {
                dataset: r.take_str("dataset")?,
                dim: r.take_usize("dimension")?,
                coords: r.take_f64s("coordinates")?,
            },
            RequestKind::RegisterWeights => Request::RegisterWeights {
                name: r.take_str("weight-set name")?,
                weights: take_vectors(r, "weight count", "weight vector")?,
            },
            RequestKind::Compact => Request::Compact {
                dataset: r.take_str("dataset")?,
            },
        })
    }
}

/// Writes a list of vectors: its count, then each length-prefixed.
fn put_vectors(w: &mut ByteWriter, vectors: &[Vec<f64>]) {
    w.put_usize(vectors.len());
    for v in vectors {
        w.put_f64s(v);
    }
}

/// Reads a list written by [`put_vectors`], its count checked against
/// the bytes left (each vector takes at least its 8-byte length).
fn take_vectors(
    r: &mut ByteReader<'_>,
    count: &'static str,
    each: &'static str,
) -> Result<Vec<Vec<f64>>, DecodeError> {
    let n = r.take_count(8, count)?;
    (0..n).map(|_| r.take_f64s(each)).collect()
}

/// Encodings longer than this are not kept as the next fingerprint's
/// buffer (a large inline population would otherwise pin its size per
/// thread).
const RETAINED_ENCODING: usize = 64 * 1024;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// Strategies travel as `StrategyKind::tag`, their one serialisation tag.
fn encode_options(w: &mut ByteWriter, options: &WhyNotOptions) {
    w.put_f64(options.tol.alpha);
    w.put_f64(options.tol.beta);
    w.put_f64(options.tol.gamma);
    w.put_f64(options.tol.lambda);
    w.put_usize(options.strategies.len());
    for s in &options.strategies {
        w.put_u8(s.tag());
    }
    w.put_usize(options.culprit_limit);
    w.put_usize(options.sample_size);
    w.put_usize(options.query_samples);
    w.put_u64(options.seed);
    w.put_u8(u8::from(options.exact_2d));
}

fn decode_options(r: &mut ByteReader<'_>) -> Result<WhyNotOptions, DecodeError> {
    // The tolerances are deliberately decoded *unvalidated* (the struct
    // is plain data); `Request::validate` rejects hostile values with a
    // typed engine error instead of a protocol error, so a bad frame
    // costs its sender one error reply, not the connection.
    let tol = Tolerances {
        alpha: r.take_f64("alpha")?,
        beta: r.take_f64("beta")?,
        gamma: r.take_f64("gamma")?,
        lambda: r.take_f64("lambda")?,
    };
    let count = r.take_count(1, "strategy count")?;
    let strategies = (0..count)
        .map(|_| {
            StrategyKind::from_tag(r.take_u8("strategy kind")?)
                .ok_or(DecodeError::new("unknown strategy kind tag"))
        })
        .collect::<Result<_, _>>()?;
    Ok(WhyNotOptions {
        tol,
        strategies,
        culprit_limit: r.take_usize("culprit limit")?,
        sample_size: r.take_usize("sample size")?,
        query_samples: r.take_usize("query samples")?,
        seed: r.take_u64("seed")?,
        exact_2d: r.take_u8("exact-2d flag")? != 0,
    })
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
    /// points (a registered population: this many weights).
    Mutated {
        /// Live points after the mutation.
        live_len: usize,
    },
    /// A [`Request::Compact`] finished.
    Compacted {
        /// Whether a merge ran: false when the overlay was empty.
        ran: bool,
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
        assert_eq!(RequestKind::ALL.len(), 10);
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

    /// `base` with one field changed by `$edit`, matched by `$pat`.
    macro_rules! perturb {
        ($base:expr, $pat:pat => $edit:expr) => {{
            let mut r = $base.clone();
            match &mut r {
                $pat => $edit,
                _ => unreachable!("pattern names the base's kind"),
            }
            r
        }};
    }

    fn flip(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }

    #[test]
    fn why_not_options_are_part_of_the_cache_identity() {
        // Every field of every kind is part of the cache identity, each
        // why-not option included: changing one float bit, count, seed,
        // name, order or option changes the fingerprint, and every
        // request decodes back from its own encoding.
        use Request as R;
        let plan = why_not_request(WhyNotOptions {
            tol: Tolerances::new(0.3, 0.7, 0.9, 0.1),
            strategies: vec![StrategyKind::Mwk, StrategyKind::Mqp],
            culprit_limit: 4,
            sample_size: 64,
            query_samples: 16,
            seed: 9,
            exact_2d: false,
        });
        let top = topk("products", &[0.3, 0.7], 5);
        let mono = R::ReverseTopKMono {
            dataset: "p".into(),
            q: vec![4.0, 4.0, 4.0],
            k: 3,
            samples: 500,
            seed: 42,
        };
        let named = R::ReverseTopKBi {
            dataset: "p".into(),
            weights: WeightSet::Named("customers".into()),
            q: vec![4.0, 4.0],
            k: 3,
        };
        let inline = R::ReverseTopKBi {
            dataset: "p".into(),
            weights: WeightSet::Inline(vec![vec![0.1, 0.9], vec![0.5, 0.5]]),
            q: vec![4.0, 4.0],
            k: 3,
        };
        let append = R::Append {
            dataset: "p".into(),
            points: vec![1.0, 2.0],
        };
        let delete = R::Delete {
            dataset: "p".into(),
            ids: vec![0, 7],
        };
        let register = R::Register {
            dataset: "p".into(),
            dim: 2,
            coords: vec![1.0, 2.0, 3.0, 4.0],
        };
        let population = R::RegisterWeights {
            name: "customers".into(),
            weights: vec![vec![0.1, 0.9], vec![0.5, 0.5]],
        };
        let compact = R::Compact {
            dataset: "p".into(),
        };
        let cases = [
            (
                top.clone(),
                vec![
                    perturb!(top, R::TopK { dataset, .. } => dataset.push('s')),
                    perturb!(top, R::TopK { weight, .. } => flip(&mut weight[1])),
                    perturb!(top, R::TopK { k, .. } => *k += 1),
                ],
            ),
            (
                mono.clone(),
                vec![
                    perturb!(mono, R::ReverseTopKMono { dataset, .. } => dataset.push('s')),
                    perturb!(mono, R::ReverseTopKMono { q, .. } => flip(&mut q[2])),
                    perturb!(mono, R::ReverseTopKMono { k, .. } => *k += 1),
                    perturb!(mono, R::ReverseTopKMono { samples, .. } => *samples += 1),
                    perturb!(mono, R::ReverseTopKMono { seed, .. } => *seed += 1),
                ],
            ),
            (
                named.clone(),
                vec![
                    perturb!(named, R::ReverseTopKBi { dataset, .. } => dataset.push('s')),
                    perturb!(named, R::ReverseTopKBi {
                        weights: WeightSet::Named(name), ..
                    } => name.push('s')),
                    perturb!(named, R::ReverseTopKBi { q, .. } => flip(&mut q[0])),
                    perturb!(named, R::ReverseTopKBi { k, .. } => *k += 1),
                ],
            ),
            (
                inline.clone(),
                vec![
                    perturb!(inline, R::ReverseTopKBi {
                        weights: WeightSet::Inline(ws), ..
                    } => flip(&mut ws[1][0])),
                    perturb!(inline, R::ReverseTopKBi {
                        weights: WeightSet::Inline(ws), ..
                    } => ws.swap(0, 1)),
                    perturb!(inline, R::ReverseTopKBi { q, .. } => flip(&mut q[1])),
                    perturb!(inline, R::ReverseTopKBi { k, .. } => *k += 1),
                ],
            ),
            (
                plan.clone(),
                vec![
                    perturb!(plan, R::WhyNot { dataset, .. } => dataset.push('s')),
                    perturb!(plan, R::WhyNot { q, .. } => flip(&mut q[0])),
                    perturb!(plan, R::WhyNot { k, .. } => *k += 1),
                    perturb!(plan, R::WhyNot { why_not, .. } => flip(&mut why_not[0][1])),
                    perturb!(plan, R::WhyNot { why_not, .. } => why_not.swap(0, 1)),
                    perturb!(plan, R::WhyNot { options, .. } => flip(&mut options.tol.alpha)),
                    perturb!(plan, R::WhyNot { options, .. } => flip(&mut options.tol.beta)),
                    perturb!(plan, R::WhyNot { options, .. } => flip(&mut options.tol.gamma)),
                    perturb!(plan, R::WhyNot { options, .. } => flip(&mut options.tol.lambda)),
                    perturb!(plan, R::WhyNot { options, .. } => options.strategies.swap(0, 1)),
                    perturb!(plan, R::WhyNot { options, .. } => options.strategies.truncate(1)),
                    perturb!(plan, R::WhyNot { options, .. } => options.culprit_limit += 1),
                    perturb!(plan, R::WhyNot { options, .. } => options.sample_size += 1),
                    perturb!(plan, R::WhyNot { options, .. } => options.query_samples += 1),
                    perturb!(plan, R::WhyNot { options, .. } => options.seed += 1),
                    perturb!(plan, R::WhyNot { options, .. } => options.exact_2d = true),
                ],
            ),
            (
                append.clone(),
                vec![
                    perturb!(append, R::Append { dataset, .. } => dataset.push('s')),
                    perturb!(append, R::Append { points, .. } => flip(&mut points[0])),
                ],
            ),
            (
                delete.clone(),
                vec![
                    perturb!(delete, R::Delete { dataset, .. } => dataset.push('s')),
                    perturb!(delete, R::Delete { ids, .. } => ids.swap(0, 1)),
                    perturb!(delete, R::Delete { ids, .. } => ids[1] += 1),
                ],
            ),
            (
                register.clone(),
                vec![
                    perturb!(register, R::Register { dataset, .. } => dataset.push('s')),
                    perturb!(register, R::Register { dim, .. } => *dim += 2),
                    perturb!(register, R::Register { coords, .. } => flip(&mut coords[3])),
                ],
            ),
            (
                population.clone(),
                vec![
                    perturb!(population, R::RegisterWeights { name, .. } => name.push('s')),
                    perturb!(population, R::RegisterWeights { weights, .. } => weights.swap(0, 1)),
                    perturb!(population, R::RegisterWeights { weights, .. } => {
                        flip(&mut weights[0][0])
                    }),
                ],
            ),
            (
                compact.clone(),
                vec![perturb!(compact, R::Compact { dataset } => dataset.push('s'))],
            ),
            (R::Stats, vec![]),
        ];
        let mut seen = std::collections::HashSet::new();
        for (base, perturbed) in &cases {
            for r in std::iter::once(base).chain(perturbed) {
                let mut w = ByteWriter::new();
                r.encode_into(&mut w);
                let bytes = w.into_vec();
                let mut reader = ByteReader::new(&bytes);
                assert_eq!(Request::decode(&mut reader).as_ref(), Ok(r));
                assert_eq!(reader.finish(), Ok(()), "{r:?}");
                assert_eq!(r.fingerprint(), r.clone().fingerprint());
                assert!(seen.insert(r.fingerprint()), "{r:?} shares a fingerprint");
            }
            for r in perturbed {
                assert_ne!(r.fingerprint(), base.fingerprint(), "{r:?}");
            }
        }
    }

    #[test]
    fn a_plans_work_is_bounded_as_well_as_each_budget() {
        let plan = |sample_size: usize, query_samples: usize| {
            why_not_request(WhyNotOptions {
                sample_size,
                query_samples,
                ..WhyNotOptions::default()
            })
        };
        let too_much = Err(EngineError::SampleBudgetTooLarge {
            field: "sample size × (query samples + 1)",
            max: MAX_PLAN_PAIRS,
        });
        // Each factor at its cap passes the per-budget check and used to
        // be admitted.
        assert_eq!(
            plan(MAX_SAMPLE_BUDGET, MAX_SAMPLE_BUDGET).validate(),
            too_much
        );
        assert_eq!(plan(200, 200).validate(), Ok(()));
        // The largest admissible square plan, and one sample past it.
        assert_eq!(plan(8191, 8191).validate(), Ok(()));
        assert_eq!(plan(8192, 8192).validate(), too_much);
        // The per-budget cap still bounds a plan without query samples.
        assert!(matches!(
            plan(MAX_PLAN_PAIRS, 0).validate(),
            Err(EngineError::SampleBudgetTooLarge {
                field: "sample size",
                ..
            })
        ));
        assert_eq!(plan(MAX_SAMPLE_BUDGET, 0).validate(), Ok(()));
    }

    #[test]
    fn error_predicate() {
        assert!(Response::Error("x".into()).is_error());
        assert!(!Response::TopK(vec![]).is_error());
    }
}
