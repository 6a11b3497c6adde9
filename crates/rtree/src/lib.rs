#![warn(missing_docs)]

//! A d-dimensional R-tree for branch-and-bound query processing.
//!
//! The paper's algorithms (BRS top-k, `FindIncom`, rank computation) all
//! traverse an R-tree over the product dataset `P`. This crate implements
//! that index from scratch:
//!
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive packing (the standard way
//!   to build a static R-tree over a known dataset) straight into one
//!   frozen arena: range-linked nodes, column-wise corners, one
//!   leaf-ordered point store;
//! * [`search::BestFirst`] — best-first (priority-queue) traversal under a
//!   monotone lower bound, the core of the BRS top-k algorithm \[29\],
//!   and [`RTree::topk_into`], its first `k` points through a k-bounded
//!   heap;
//! * [`RTree::count_score_below`] — counted aggregates per subtree make
//!   rank queries ("how many points score strictly less than q?")
//!   sub-linear;
//! * [`RTree::probe_topk_membership`] — the early-exit, count-only rank
//!   test behind reverse top-k serving: best-first descent over MBR score
//!   bounds that stops as soon as either membership outcome is proven,
//!   with an allocation-free reusable [`ProbeScratch`];
//! * [`RTree::split_by_dominance`] — the pruned traversal behind
//!   `FindIncom` (Algorithm 2, lines 20–29);
//! * [`dominator_counts`] — per-point strict-dominator counts, capped
//!   ([`DominanceIndex`] is its retired wrapper, read by no serving
//!   path).
//!
//! Node fanout defaults to 64 entries (~4 KiB per node at d = 3 and two
//! `f64` corners per entry), mirroring the paper's 4096-byte pages.

pub mod bulk;
pub mod mask;
pub mod search;
pub mod tree;

pub use mask::{dominator_counts, DominanceIndex};
pub use search::{BestFirst, CulpritBuf, ProbeResult, ProbeScratch};
pub use tree::RTree;

/// Default maximum number of entries per node.
pub const DEFAULT_FANOUT: usize = 64;

/// A totally ordered `f64` wrapper for priority queues.
///
/// Scores produced by finite weights over finite coordinates are always
/// finite, so `total_cmp` ordering is safe here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_orders_like_f64() {
        let mut v = vec![OrdF64(3.0), OrdF64(-1.0), OrdF64(2.0)];
        v.sort();
        assert_eq!(v, vec![OrdF64(-1.0), OrdF64(2.0), OrdF64(3.0)]);
    }
}
