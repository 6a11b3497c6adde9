//! Benchmark harness for the WQRTQ experimental study (§5 of the paper).
//!
//! [`params`] encodes Table 1 (parameter ranges and defaults) plus the
//! run profiles; [`harness`] prepares workloads and measures the three
//! refinement algorithms. The `figures` binary regenerates every
//! experimental figure (7–12) as a printed table; the Criterion benches
//! in `benches/` track the same configurations at reduced scale plus the
//! design-choice ablations called out in DESIGN.md.

pub mod alloc_count;
pub mod durability_bench;
pub mod engine_bench;
pub mod harness;
pub mod mutation_bench;
pub mod params;
pub mod rank_bench;
pub mod scale_bench;
pub mod server_bench;
pub mod whynot_bench;

pub use durability_bench::{DurabilityBenchConfig, DurabilityComparison};
pub use engine_bench::{compare, EngineBenchConfig, EngineComparison};
pub use harness::{prepare, run_algorithm, Algorithm, Measurement, Prepared};
pub use mutation_bench::{MutationBenchConfig, MutationComparison};
pub use params::{Config, DatasetKind, Profile};
pub use rank_bench::{RankBenchConfig, RankComparison};
pub use scale_bench::{ScaleBenchConfig, ScaleCell, ScaleReport, TierTiming};
pub use server_bench::{ServerBenchConfig, ServerComparison, SweepPoint};
pub use whynot_bench::{WhyNotBenchConfig, WhyNotReport};
