#![warn(missing_docs)]

//! # WQRTQ core — answering why-not questions on reverse top-k queries
//!
//! This crate implements the contribution of *Gao, Liu, Chen, Zheng, Zhou:
//! "Answering Why-not Questions on Reverse Top-k Queries", PVLDB 8(7),
//! 2015*: given a reverse top-k query (monochromatic or bichromatic) whose
//! result does not contain a set `Wm` of expected weighting vectors,
//!
//! 1. **explain** the omission — [`explain`](fn@explain) returns, per why-not vector,
//!    the data points that outrank the query product (the paper's "first
//!    aspect"), and
//! 2. **refine** the query with minimum penalty so the refined result
//!    contains `Wm` (the "second aspect"), via three strategies:
//!
//! | Module   | Modifies        | Technique |
//! |----------|-----------------|-----------|
//! | [`mqp`](mod@mqp)  | query point `q` | safe region (Lemmas 1–3) + quadratic programming |
//! | [`mwk`](mod@mwk)  | `Wm` and `k`    | weight-space hyperplane sampling + candidate scan (Lemmas 4–6) |
//! | [`mqwk`](mod@mqwk) | `q`, `Wm`, `k`  | query-point sampling + MQP + MWK + R-tree reuse |
//!
//! The [`framework`] module holds the unified `WQRTQ` facade of the
//! paper's Figure 4 — a query under investigation, its why-not
//! validation, explanation and verification — and the [`advisor`]
//! module is its one door to a refinement: [`Wqrtq::advise`] answers
//! the whole why-not question in one call — explanation plus every
//! requested strategy, verified and ranked cheapest-first into a
//! [`RefinementPlan`]. The free functions [`mqp()`], [`mwk()`] and
//! [`mqwk()`] run one strategy without a facade. Penalty semantics
//! follow Equations (1), (3), (4) and (5); see `DESIGN.md` for the
//! calibration of the normalising constants against the paper's worked
//! examples.
//!
//! Every algorithm takes its dataset as `impl Into<`[`Snapshot`]`>`: a
//! bare `&RTree` (the paper's "index over `P`") or a serving layer's
//! index + delta overlay — one function per operation,
//! the same answer either way.

pub mod advisor;
pub mod baseline;
pub mod error;
pub mod exact2d;
pub mod explain;
pub mod framework;
pub mod incomparable;
pub mod mqp;
pub mod mqwk;
pub mod mwk;
pub mod penalty;
pub mod safe_region;
pub mod sampling;

pub use advisor::{
    AdvisorEvent, PenaltyBreakdown, RankedStep, RefinementPlan, StepStats, StrategyKind,
    WhyNotOptions,
};
pub use error::WhyNotError;
pub use exact2d::{mwk_exact_2d, Exact2dResult};
pub use explain::{explain, Explanation};
pub use framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
pub use incomparable::DominanceFrontier;
pub use mqp::{mqp, MqpResult};
pub use mqwk::{mqwk, MqwkResult};
pub use mwk::{mwk, MwkResult};
pub use penalty::Tolerances;
pub use safe_region::SafeRegion;
pub use wqrtq_query::{ProbeCtx, Snapshot};
