//! Paper-figure harness for the WQRTQ experimental study (§5 of the
//! paper).
//!
//! [`params`] encodes Table 1 (parameter ranges and defaults) plus the
//! run profiles; [`harness`] prepares workloads and measures the three
//! refinement algorithms. The `figures` binary regenerates every
//! experimental figure (7–12) as a printed table. Serving performance is
//! not measured here: that is `benchmark/` at the repository root.

pub mod harness;
pub mod params;
