//! Scale sweep for the two-tier data plane: the k-dominance pre-filter
//! and the quantized block scan, measured against the exact f64
//! reference plane across dataset cardinality × dimensionality cells.
//!
//! Two serving primitives are timed per `(n, d)` cell, each with the
//! tiers on and off:
//!
//! * **membership** — per-weight top-k membership probes through the
//!   index (the path the engine takes for every large dataset): the
//!   dominance-masked probe against the unmasked one.
//! * **RTA** — the culprit-pool reverse top-k sweep over the whole
//!   population ([`rta_over_order`]), masked against unmasked.
//!
//! A four-way flat-scan ablation rides along (quantized + mask,
//! quantized only, mask only, exact) — the overlay-correction path —
//! so a regression in either tier is attributable to its kernel.
//!
//! Verdicts are asserted bit-identical between every tier combination
//! *before* any timing starts — the report's `two_tier_bit_identical`
//! flag is the AND over all cells, and `scripts/check_bench.sh` gates
//! on it. The sweep also records what the tiers actually did
//! (`prefilter_skips`, `bound_skips`, `quantized_fallbacks`) so a
//! "speedup" that comes from the tiers silently disengaging is visible
//! as zeros.
//!
//! The binary `scale_bench` emits the JSON report `scripts/bench.sh`
//! writes to `BENCH_scale.json`. Defaults sweep
//! `n ∈ {100k, 1M} × d ∈ {3, 5, 8}`; the 10M tier is opt-in via
//! `--ns` because its index build alone takes minutes.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wqrtq_data::synthetic::independent;
use wqrtq_geom::delta::DeltaView;
use wqrtq_geom::flat::FlatPoints;
use wqrtq_query::{is_in_topk, rta_over_order, rta_sorted_order, ProbeCtx, Snapshot};
use wqrtq_rtree::{DominanceIndex, RTree};

use crate::rank_bench::{population, query_point};

/// Workload shape for the scale sweep.
#[derive(Clone, Debug)]
pub struct ScaleBenchConfig {
    /// Dataset cardinalities to sweep.
    pub ns: Vec<usize>,
    /// Dimensionalities to sweep.
    pub dims: Vec<usize>,
    /// Explicit `(n, dim)` cells; when non-empty this overrides the
    /// `ns × dims` cross product (an asymmetric sweep — e.g. every
    /// dimension at 100 K but only `d = 3` at 1 M — in one report).
    pub cells: Vec<(usize, usize)>,
    /// Customer population size `|W|` (probe weights per pass).
    pub num_weights: usize,
    /// The reverse top-k parameter.
    pub k: usize,
    /// Timed passes per path.
    pub repeats: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for ScaleBenchConfig {
    fn default() -> Self {
        Self {
            ns: vec![100_000, 1_000_000],
            dims: vec![3, 5, 8],
            cells: Vec::new(),
            num_weights: 240,
            k: 10,
            repeats: 5,
            seed: 2015,
        }
    }
}

impl ScaleBenchConfig {
    /// The `(n, dim)` cells this sweep will measure, in run order.
    pub fn cell_list(&self) -> Vec<(usize, usize)> {
        if !self.cells.is_empty() {
            return self.cells.clone();
        }
        let mut out = Vec::with_capacity(self.ns.len() * self.dims.len());
        for &n in &self.ns {
            for &dim in &self.dims {
                out.push((n, dim));
            }
        }
        out
    }
}

/// Wall-clock for a batch of identical operations.
#[derive(Clone, Copy, Debug)]
pub struct TierTiming {
    /// Operations performed (membership checks or RTA requests).
    pub ops: usize,
    /// Total elapsed wall-clock across all ops.
    pub elapsed: Duration,
}

impl TierTiming {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// One `(n, d)` cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Time to build the dominance mask over the cell's index.
    pub mask_build: Duration,
    /// Index membership probes with the dominance mask.
    pub membership_on: TierTiming,
    /// Index membership probes without the mask.
    pub membership_off: TierTiming,
    /// Flat-scan membership, quantized kernel + mask.
    pub flat_two_tier: TierTiming,
    /// Flat-scan membership, quantized kernel only.
    pub flat_quant_only: TierTiming,
    /// Flat-scan membership, dominance mask over the exact kernel.
    pub flat_mask_only: TierTiming,
    /// Flat-scan membership on the exact reference plane.
    pub flat_exact: TierTiming,
    /// Masked RTA sweep (dominance pre-filter on).
    pub rta_on: TierTiming,
    /// Unmasked RTA sweep.
    pub rta_off: TierTiming,
    /// Points/subtrees the dominance mask skipped, cumulative.
    pub prefilter_skips: u64,
    /// Blocks the quantized bounds pass decided wholesale.
    pub bound_skips: u64,
    /// Blocks scored in the quantized mirror.
    pub quantized_blocks: u64,
    /// Near-threshold blocks rescored in exact f64.
    pub quantized_fallbacks: u64,
    /// Reverse top-k members the RTA sweep found (sanity datum).
    pub members: usize,
    /// Points with fewer than `k` dominators (potential culprits).
    pub frontier_size: usize,
    /// Masked RTA: weights decided by the culprit pool, one request.
    pub rta_buffer_prunes: u64,
    /// Masked RTA: weights needing a tree verification, one request.
    pub rta_tree_verifications: u64,
    /// Whether every tier combination agreed bit-for-bit.
    pub bit_identical: bool,
}

impl ScaleCell {
    /// Membership probe throughput ratio: masked vs unmasked.
    pub fn membership_speedup(&self) -> f64 {
        self.membership_on.ops_per_sec() / self.membership_off.ops_per_sec()
    }

    /// RTA throughput ratio: masked vs unmasked.
    pub fn rta_speedup(&self) -> f64 {
        self.rta_on.ops_per_sec() / self.rta_off.ops_per_sec()
    }
}

/// The full sweep report.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// The configuration the sweep ran with.
    pub config: ScaleBenchConfig,
    /// One entry per `(n, d)` cell, in sweep order.
    pub cells: Vec<ScaleCell>,
}

impl ScaleReport {
    /// The gate cell: the largest-`n` cell at `d = 3` (the acceptance
    /// regime), falling back to the last cell of the sweep.
    pub fn gate_cell(&self) -> &ScaleCell {
        self.cells
            .iter()
            .filter(|c| c.dim == 3)
            .max_by_key(|c| c.n)
            .or_else(|| self.cells.last())
            .expect("sweep produced no cells")
    }

    /// Membership speedup at the gate cell (both tiers vs none).
    pub fn membership_two_tier_speedup(&self) -> f64 {
        self.gate_cell().membership_speedup()
    }

    /// RTA speedup at the gate cell (masked vs unmasked).
    pub fn rta_two_tier_speedup(&self) -> f64 {
        self.gate_cell().rta_speedup()
    }

    /// Whether every cell's tier combinations agreed bit-for-bit.
    pub fn bit_identical(&self) -> bool {
        self.cells.iter().all(|c| c.bit_identical)
    }

    /// Renders the report as the `BENCH_scale.json` document.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                cells.push_str(",\n");
            }
            cells.push_str(&format!(
                concat!(
                    "    {{\"n\": {}, \"dim\": {}, \"mask_build_secs\": {:.6},\n",
                    "     \"membership_probes_per_sec\": {{\"masked\": {:.1}, \"unmasked\": {:.1}}},\n",
                    "     \"flat_scan_checks_per_sec\": {{\"two_tier\": {:.1}, \"quantized_only\": {:.1}, ",
                    "\"mask_only\": {:.1}, \"exact\": {:.1}}},\n",
                    "     \"rta_requests_per_sec\": {{\"masked\": {:.3}, \"unmasked\": {:.3}}},\n",
                    "     \"membership_speedup\": {:.3}, \"rta_speedup\": {:.3},\n",
                    "     \"prefilter_skips\": {}, \"bound_skips\": {}, \"quantized_blocks\": {}, ",
                    "\"quantized_fallbacks\": {},\n",
                    "     \"members\": {}, \"frontier_size\": {}, \"rta_buffer_prunes\": {}, ",
                    "\"rta_tree_verifications\": {}, \"bit_identical\": {}}}"
                ),
                c.n,
                c.dim,
                c.mask_build.as_secs_f64(),
                c.membership_on.ops_per_sec(),
                c.membership_off.ops_per_sec(),
                c.flat_two_tier.ops_per_sec(),
                c.flat_quant_only.ops_per_sec(),
                c.flat_mask_only.ops_per_sec(),
                c.flat_exact.ops_per_sec(),
                c.rta_on.ops_per_sec(),
                c.rta_off.ops_per_sec(),
                c.membership_speedup(),
                c.rta_speedup(),
                c.prefilter_skips,
                c.bound_skips,
                c.quantized_blocks,
                c.quantized_fallbacks,
                c.members,
                c.frontier_size,
                c.rta_buffer_prunes,
                c.rta_tree_verifications,
                c.bit_identical,
            ));
        }
        let gate = self.gate_cell();
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"scale_two_tier\",\n",
                "  \"num_weights\": {}, \"k\": {}, \"repeats\": {}, \"seed\": {},\n",
                "  \"cells\": [\n{}\n  ],\n",
                "  \"gate_cell\": {{\"n\": {}, \"dim\": {}}},\n",
                "  \"membership_two_tier_speedup\": {:.4},\n",
                "  \"rta_two_tier_speedup\": {:.4},\n",
                "  \"two_tier_bit_identical\": {}\n",
                "}}\n"
            ),
            self.config.num_weights,
            self.config.k,
            self.config.repeats,
            self.config.seed,
            cells,
            gate.n,
            gate.dim,
            self.membership_two_tier_speedup(),
            self.rta_two_tier_speedup(),
            self.bit_identical(),
        )
    }

    /// Human-oriented one-liner per cell plus the gate summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "n={:>8} d={} membership {:>10.0}/s vs {:>10.0}/s ({:.2}x)  rta {:>8.2}/s vs {:>8.2}/s ({:.2}x)  skips={} fallbacks={} identical={}\n",
                c.n,
                c.dim,
                c.membership_on.ops_per_sec(),
                c.membership_off.ops_per_sec(),
                c.membership_speedup(),
                c.rta_on.ops_per_sec(),
                c.rta_off.ops_per_sec(),
                c.rta_speedup(),
                c.prefilter_skips,
                c.quantized_fallbacks,
                c.bit_identical,
            ));
        }
        let gate = self.gate_cell();
        out.push_str(&format!(
            "gate (n={}, d={}): membership {:.2}x, rta {:.2}x, bit_identical={}\n",
            gate.n,
            gate.dim,
            self.membership_two_tier_speedup(),
            self.rta_two_tier_speedup(),
            self.bit_identical(),
        ));
        out
    }
}

fn time_passes(repeats: usize, ops_per_pass: usize, mut pass: impl FnMut()) -> TierTiming {
    let start = Instant::now();
    for _ in 0..repeats {
        pass();
    }
    TierTiming {
        ops: repeats * ops_per_pass,
        elapsed: start.elapsed(),
    }
}

fn measure_cell(cfg: &ScaleBenchConfig, n: usize, dim: usize) -> ScaleCell {
    let seed = cfg
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((n as u64) << 8 | dim as u64);
    let ds = independent(n, dim, seed);
    let flat_quant = Arc::new(FlatPoints::from_row_major(dim, &ds.coords));
    let flat_exact = Arc::new(FlatPoints::from_row_major_exact(dim, &ds.coords));
    let tree = RTree::bulk_load(dim, &ds.coords);
    let mask_start = Instant::now();
    let dom = DominanceIndex::build(&tree);
    let mask_build = mask_start.elapsed();

    let view_quant = DeltaView::plain(flat_quant.clone());
    let view_exact = DeltaView::plain(flat_exact.clone());
    let weights = population(dim, cfg.num_weights);
    let q = query_point(dim, n, cfg.k);
    let k = cfg.k;
    let counts = dom.counts();

    // Correctness before any clock starts: all four membership tier
    // combinations must produce the same verdict vector, and the masked
    // RTA sweep the same member set as the unmasked one.
    let verdicts = |f: &dyn Fn(&[f64]) -> bool| -> Vec<bool> {
        weights.iter().map(|w| f(w.as_slice())).collect()
    };
    let oracle = verdicts(&|w| view_exact.is_in_topk(w, &q, k));
    let mut bit_identical = true;
    bit_identical &= oracle == verdicts(&|w| view_quant.is_in_topk_masked(w, &q, k, counts));
    bit_identical &= oracle == verdicts(&|w| view_quant.is_in_topk(w, &q, k));
    bit_identical &= oracle == verdicts(&|w| view_exact.is_in_topk_masked(w, &q, k, counts));
    // The same single entry points, with and without the mask on the
    // snapshot.
    let unmasked = Snapshot::from(&tree);
    let masked = unmasked.mask(&dom);
    let mut ctx = ProbeCtx::new();
    for snap in [unmasked, masked] {
        let probed: Vec<bool> = weights
            .iter()
            .map(|w| is_in_topk(snap, w.as_slice(), &q, k, &mut ctx))
            .collect();
        bit_identical &= oracle == probed;
    }
    let expected_members = oracle.iter().filter(|&&b| b).count();

    let order = rta_sorted_order(&weights);
    let rta_unmasked = rta_over_order(unmasked, &weights, &order, &q, k, &mut ctx);
    // A context of its own, so its counters are the masked run's alone.
    let mut masked_ctx = ProbeCtx::new();
    let rta_masked = rta_over_order(masked, &weights, &order, &q, k, &mut masked_ctx);
    let rta_stats = masked_ctx.rta;
    bit_identical &= rta_masked == rta_unmasked;
    bit_identical &= rta_masked.len() == expected_members;
    let frontier_size = counts.iter().filter(|&&c| (c as usize) < k).count();

    // Timed passes. Each membership pass re-checks every weight and
    // folds the verdicts into a count that must reproduce the oracle —
    // keeps the loop honest under optimization without `black_box` on
    // the hot path.
    let membership_pass = |check: &dyn Fn(&[f64]) -> bool| {
        let hits = weights.iter().filter(|w| check(w.as_slice())).count();
        assert_eq!(hits, expected_members, "membership verdicts drifted");
    };
    let m = weights.len();
    let mut probe_pass = |snap: Snapshot<'_>| {
        time_passes(cfg.repeats, m, || {
            let hits = weights
                .iter()
                .filter(|w| is_in_topk(snap, w.as_slice(), &q, k, &mut ctx))
                .count();
            assert_eq!(hits, expected_members, "probe verdicts drifted");
        })
    };
    let membership_on = probe_pass(masked);
    let membership_off = probe_pass(unmasked);
    let flat_two_tier = time_passes(cfg.repeats, m, || {
        membership_pass(&|w| view_quant.is_in_topk_masked(w, &q, k, counts))
    });
    let flat_quant_only = time_passes(cfg.repeats, m, || {
        membership_pass(&|w| view_quant.is_in_topk(w, &q, k))
    });
    let flat_mask_only = time_passes(cfg.repeats, m, || {
        membership_pass(&|w| view_exact.is_in_topk_masked(w, &q, k, counts))
    });
    let flat_exact = time_passes(cfg.repeats, m, || {
        membership_pass(&|w| view_exact.is_in_topk(w, &q, k))
    });

    let mut rta_pass = |snap: Snapshot<'_>| {
        time_passes(cfg.repeats, 1, || {
            let members = rta_over_order(snap, &weights, &order, &q, k, &mut ctx);
            assert_eq!(members.len(), expected_members, "RTA drifted");
        })
    };
    let rta_on = rta_pass(masked);
    let rta_off = rta_pass(unmasked);

    let totals = flat_quant.tier_totals();
    ScaleCell {
        n,
        dim,
        mask_build,
        membership_on,
        membership_off,
        flat_two_tier,
        flat_quant_only,
        flat_mask_only,
        flat_exact,
        rta_on,
        rta_off,
        prefilter_skips: dom.skips(),
        bound_skips: totals.bound_skips,
        quantized_blocks: totals.quantized_blocks,
        quantized_fallbacks: totals.quantized_fallbacks,
        members: expected_members,
        frontier_size,
        rta_buffer_prunes: rta_stats.buffer_prunes as u64,
        rta_tree_verifications: rta_stats.tree_verifications as u64,
        bit_identical,
    }
}

/// Runs the full sweep. Prints one progress line per cell to stderr as
/// large cells take tens of seconds to build.
pub fn run(cfg: &ScaleBenchConfig) -> ScaleReport {
    let mut cells = Vec::new();
    for (n, dim) in cfg.cell_list() {
        eprintln!("scale_bench: measuring n={n} d={dim} ...");
        cells.push(measure_cell(cfg, n, dim));
    }
    ScaleReport {
        config: cfg.clone(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleBenchConfig {
        ScaleBenchConfig {
            ns: vec![1500, 3000],
            dims: vec![2, 3],
            num_weights: 60,
            k: 5,
            repeats: 2,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_is_bit_identical_and_reports_every_cell() {
        let report = run(&tiny());
        assert_eq!(report.cells.len(), 4);
        assert!(report.bit_identical());
        for cell in &report.cells {
            assert!(cell.members > 0, "degenerate workload: no members");
            assert!(cell.members < cell.dim * 60, "degenerate: all members");
            assert!(cell.membership_on.ops_per_sec() > 0.0);
            assert!(cell.rta_off.ops_per_sec() > 0.0);
        }
    }

    #[test]
    fn explicit_cells_override_the_cross_product() {
        let cfg = ScaleBenchConfig {
            cells: vec![(1000, 2), (2000, 3)],
            ..tiny()
        };
        assert_eq!(cfg.cell_list(), vec![(1000, 2), (2000, 3)]);
        let report = run(&ScaleBenchConfig {
            num_weights: 40,
            repeats: 1,
            ..cfg
        });
        assert_eq!(report.cells.len(), 2);
        assert_eq!((report.gate_cell().n, report.gate_cell().dim), (2000, 3));
        assert!(report.bit_identical());
    }

    #[test]
    fn gate_cell_prefers_largest_n_at_dim_3() {
        let report = run(&tiny());
        let gate = report.gate_cell();
        assert_eq!((gate.n, gate.dim), (3000, 3));
        assert!(report.membership_two_tier_speedup() > 0.0);
        assert!(report.rta_two_tier_speedup() > 0.0);
    }

    #[test]
    fn json_report_carries_the_gate_keys() {
        let report = run(&ScaleBenchConfig {
            ns: vec![1000],
            dims: vec![3],
            num_weights: 40,
            k: 4,
            repeats: 1,
            seed: 11,
            ..Default::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"membership_two_tier_speedup\""));
        assert!(json.contains("\"rta_two_tier_speedup\""));
        assert!(json.contains("\"two_tier_bit_identical\": true"));
        assert!(json.contains("\"prefilter_skips\""));
    }
}
