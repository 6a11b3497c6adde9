#![warn(missing_docs)]

//! Top-k and reverse top-k query processing.
//!
//! Implements the query classes the paper builds on (its Definitions 1–3):
//!
//! * [`topk`](mod@topk) — top-k queries, both branch-and-bound over the R-tree (the
//!   I/O-optimal BRS strategy \[29\]) and a linear-scan baseline;
//! * [`rank`] — the *rank* of a query point under a weighting vector
//!   (`1 + #points strictly better`), the predicate behind every reverse
//!   top-k decision;
//! * [`brtopk`] — **bichromatic** reverse top-k (Definition 3): which of
//!   the known customer weighting vectors put `q` in their top-k. A
//!   per-population score table for named populations, the RTA-style
//!   algorithm with threshold-buffer reuse \[31\] for everything else,
//!   and a naive per-weight oracle;
//! * [`mrtopk`] — **monochromatic** reverse top-k (Definition 2) in two
//!   dimensions, computing the exact qualifying weight intervals by a
//!   plane sweep (the segment `BC` of the paper's Figure 2), and
//!   [`mrtopk_nd`] — its sampled estimate in any dimension: RTA over a
//!   drawn simplex population.
//!
//! Every indexed operation is **one function** taking
//! `impl Into<`[`Snapshot`]`>` — the base R-tree plus an optional delta
//! overlay (see [`snapshot`]). A bare
//! `&RTree` is a snapshot, so `topk(&tree, w, k)` is the paper's call and
//! `topk(handle.snapshot(), w, k)` the serving one. Operations that
//! probe in a hot loop take a reusable [`ProbeCtx`].

pub mod brtopk;
pub mod mrtopk;
pub mod mrtopk_nd;
pub mod rank;
pub mod snapshot;
pub mod topk;

pub use brtopk::{
    bichromatic_reverse_topk_naive, bichromatic_reverse_topk_rta, rta_over_order, rta_sorted_order,
    RtaStats, ScoreTable,
};
pub use mrtopk::{monochromatic_reverse_topk_2d, WeightInterval};
pub use mrtopk_nd::{
    monochromatic_reverse_topk_sampled, simplex_population, simplex_population_with, MrtopkEstimate,
};
pub use rank::{is_in_topk, rank_of_point, rank_of_point_scan};
pub use snapshot::{ProbeCtx, Snapshot};
pub use topk::{kth_point, topk, topk_scan, topk_with, KthPoint};
