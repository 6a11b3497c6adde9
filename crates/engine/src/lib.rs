#![warn(missing_docs)]

//! # WQRTQ engine — a concurrent, batched query-serving subsystem
//!
//! The library crates answer one query per call; this crate turns them
//! into a **serving system** for reverse top-k and why-not workloads,
//! the shape production traffic actually has (many queries against few,
//! slowly changing datasets — cf. *Indexing Reverse Top-k Queries* and
//! the PUG provenance engine's cached-state design):
//!
//! * [`Catalog`] — named datasets with lazily built, `Arc`-shared R-tree
//!   indexes and mutation **epochs**; immutable customer weight
//!   populations;
//! * [`Request`] / [`Response`] — a typed vocabulary covering top-k,
//!   mono- and bichromatic reverse top-k, and the why-not question
//!   (explanation plus the MQP / MWK / MQWK refinements, ranked);
//! * [`Engine::submit_batch`] — fans a batch across a fixed worker pool
//!   over mpsc channels and reassembles **ordered** responses; results
//!   are deterministic and independent of the worker count;
//! * [`ResultCache`] — an engine-level LRU of whole responses keyed on
//!   `(dataset epoch, request fingerprint)`; epochs make stale hits
//!   impossible;
//! * [`MetricsSnapshot`] — per-kind request counts, latency, index-node
//!   accesses (via `rtree` traversal counters) and cache hit rate.
//!
//! ```
//! use wqrtq_engine::{Engine, Request, Response};
//!
//! let engine = Engine::builder().workers(2).build();
//! engine.register_dataset("p", 2, vec![0.2, 0.8, 0.5, 0.5, 0.9, 0.1]).unwrap();
//! let r = engine.submit(Request::TopK {
//!     dataset: "p".into(),
//!     weight: vec![0.5, 0.5],
//!     k: 1,
//! });
//! assert_eq!(r, Response::TopK(vec![(0, 0.5)]));
//! println!("{}", engine.metrics());
//! ```

mod cache;
mod catalog;
mod engine;
mod error;
mod metrics;
mod request;
pub mod storage;
mod worker;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use catalog::{Catalog, CatalogStats, DatasetEpoch, DatasetHandle};
pub use engine::{Admitted, BatchSubmission, Engine, EngineBuilder, InlineAnswer};
pub use error::EngineError;
pub use metrics::{
    KindSnapshot, Metrics, MetricsSnapshot, ServerCounters, StageSnapshot, StatsSnapshot,
};
pub use storage::{FsyncPolicy, StorageError};
// Observability vocabulary (histograms, stages, spans) re-exported for
// the same reason: one dependency gives serving layers the full surface.
pub use request::{
    Plan, PlanDelta, PlanExplanation, PlanStep, Refinement, Request, RequestKind, Response,
    WeightSet, REQUEST_KIND_TABLE,
};
pub use wqrtq_obs::{
    Histogram, HistogramSnapshot, SlowRequest, SpanRecord, Stage, TraceSnapshot, Tracer,
    RELATIVE_ERROR_BOUND,
};
// Advisor vocabulary re-exported so serving layers (and the wire codec)
// need only this crate for the full request surface.
pub use wqrtq_core::advisor::{PenaltyBreakdown, StrategyKind, WhyNotOptions};
pub use wqrtq_core::penalty::Tolerances;
// The probe scratch a caller of `Engine::serve_inline` owns.
pub use wqrtq_query::ProbeCtx;
