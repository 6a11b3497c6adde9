//! # WQRTQ — Why-not Questions on Reverse Top-k Queries
//!
//! A Rust reproduction of *Gao, Liu, Chen, Zheng, Zhou: "Answering Why-not
//! Questions on Reverse Top-k Queries", PVLDB 8(7), 2015*.
//!
//! Given a reverse top-k query (monochromatic or bichromatic) whose result
//! does not contain a set of expected weighting vectors `Wm`, this library
//!
//! 1. **explains** which data points are responsible for the omission, and
//! 2. **refines** the query with minimum penalty so that the refined result
//!    contains `Wm`, via three strategies:
//!    * [`core::mqp`](mod@core::mqp) — modify the query point `q` (safe region + QP),
//!    * [`core::mwk`](mod@core::mwk) — modify `Wm` and `k` (hyperplane sampling),
//!    * [`core::mqwk`](mod@core::mqwk) — modify `q`, `Wm` and `k` simultaneously.
//!
//! The facade crate re-exports every sub-crate under a stable path. See the
//! README for a quick start and `DESIGN.md` for the architecture.
//!
//! ```
//! use wqrtq::data::figure1;
//! use wqrtq::query::brtopk::bichromatic_reverse_topk_naive;
//!
//! let example = figure1::dataset();
//! let res = bichromatic_reverse_topk_naive(
//!     &example.products, &example.customers, example.apple.coords(), 3);
//! // Tony and Anna rank Apple among their top-3 (paper §1).
//! assert_eq!(res, vec![1, 2]);
//! ```

pub use wqrtq_core as core;
pub use wqrtq_data as data;
pub use wqrtq_engine as engine;
pub use wqrtq_geom as geom;
pub use wqrtq_linalg as linalg;
pub use wqrtq_obs as obs;
pub use wqrtq_qp as qp;
pub use wqrtq_query as query;
pub use wqrtq_rtree as rtree;
pub use wqrtq_server as server;

pub use wqrtq_core::framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
pub use wqrtq_engine::Engine;
pub use wqrtq_geom::{Point, Weight};

/// The common imports for serving workloads: the engine with its request
/// vocabulary, the one-shot framework facade, and the vocabulary types.
///
/// ```
/// use wqrtq::prelude::*;
///
/// let engine = Engine::builder().workers(2).build();
/// engine.register_dataset("p", 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let response = engine.submit(Request::TopK {
///     dataset: "p".into(),
///     weight: vec![0.5, 0.5],
///     k: 1,
/// });
/// assert!(!response.is_error());
/// ```
pub mod prelude {
    pub use wqrtq_core::advisor::{
        PenaltyBreakdown, RankedStep, RefinementPlan, StrategyKind, WhyNotOptions,
    };
    pub use wqrtq_core::framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
    pub use wqrtq_core::penalty::Tolerances;
    pub use wqrtq_engine::{
        CatalogStats, DatasetEpoch, Engine, EngineBuilder, HistogramSnapshot, MetricsSnapshot,
        Plan, PlanDelta, PlanExplanation, PlanStep, Request, RequestKind, Response, ServerCounters,
        SlowRequest, Stage, StatsSnapshot, TraceSnapshot, WeightSet,
    };
    pub use wqrtq_geom::{DeltaView, Point, Weight};
    pub use wqrtq_rtree::RTree;
    pub use wqrtq_server::{Client, Server, ServerBuilder};
}

/// Compiles and runs the README's Rust blocks under `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
