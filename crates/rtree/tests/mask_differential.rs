//! `dominator_counts` certifies subtrees, restricts to the open leaves
//! and counts bit-parallel; this suite proves the counts are the ones the
//! definition gives.
//!
//! The oracle is the definition taken literally: for every point, the
//! number of points `wqrtq_geom::dominates` says dominate it, capped.
//! The data sits on a coarse grid with negative values and both signs of
//! zero, so copies, whole-dataset copies and equal-sum non-copies are
//! everywhere — the territory where a sorted sweep goes wrong. Trees are
//! bulk-loaded at several fan-outs and caps; the tree's membership probe
//! is checked on the same trees against a full count.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the case count (default 8 rounds of 8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wqrtq_geom::{dominates, score};
use wqrtq_rtree::{dominator_counts, ProbeScratch, RTree};

const CAPS: [u16; 4] = [1, 3, 17, 1024];
const FANOUTS: [usize; 3] = [4, 8, 64];

fn rounds() -> usize {
    std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(1)
}

/// `(id, row)` pairs of one tree, in insertion order.
struct Points {
    dim: usize,
    ids: Vec<u32>,
    coords: Vec<f64>,
}

impl Points {
    fn dense(dim: usize, coords: Vec<f64>) -> Self {
        let ids = (0..(coords.len() / dim) as u32).collect();
        Self { dim, ids, coords }
    }

    fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.coords.chunks_exact(self.dim)
    }

    /// Dominator count per row, O(n²) by definition.
    fn dominators(&self) -> Vec<usize> {
        self.rows()
            .map(|p| self.rows().filter(|q| dominates(q, p)).count())
            .collect()
    }

    fn bulk(&self, fanout: usize) -> RTree {
        RTree::bulk_load_with_fanout(self.dim, &self.coords, fanout)
    }
}

/// Gridded rows: few distinct values per coordinate, centred on zero,
/// zeros of either sign, optionally the whole dataset repeated.
fn gridded(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f64> {
    let levels = rng.gen_range(2i32..7);
    let step = [1.0, 0.5, 0.1][rng.gen_range(0usize..3)];
    let copies = [1, 1, 2, 3][rng.gen_range(0usize..4)];
    let base: Vec<f64> = (0..n.div_ceil(copies) * dim)
        .map(|_| {
            let x = f64::from(rng.gen_range(0..levels) - levels / 2) * step;
            if x == 0.0 && rng.gen_bool(0.5) {
                -0.0
            } else {
                x
            }
        })
        .collect();
    let mut coords = base.repeat(copies);
    coords.truncate(n * dim);
    coords
}

/// The capped counts against the oracle's (uncapped) `dominators`, and
/// the tree's membership probe against a full count.
fn check(points: &Points, dominators: &[usize], tree: &RTree, cap: u16, what: &str) {
    let counts = dominator_counts(tree, cap);
    let expected: Vec<u16> = dominators
        .iter()
        .map(|&c| c.min(cap as usize) as u16)
        .collect();
    let slots = points.ids.iter().max().map_or(0, |&m| m as usize + 1);
    assert_eq!(counts.len(), slots, "{what}: count slots");
    let mut present = vec![false; slots];
    for (&id, &c) in points.ids.iter().zip(&expected) {
        assert_eq!(counts[id as usize], c, "{what}: id {id}");
        present[id as usize] = true;
    }
    for (id, p) in present.iter().enumerate() {
        assert!(*p || counts[id] == 0, "{what}: absent id {id}");
    }

    // Verdicts: the tree probe against a full count.
    let n = points.ids.len();
    let mut scratch = ProbeScratch::new();
    let mut weight = vec![0.0; points.dim];
    for probe in 0..n.min(6) {
        let q = &points.coords[(probe * 7 % n) * points.dim..][..points.dim];
        weight.fill(1.0 / points.dim as f64);
        weight[probe % points.dim] = 0.0; // a dominator may tie on the score
        let threshold = score(&weight, q);
        let exact = points
            .rows()
            .filter(|p| score(&weight, p) < threshold)
            .count();
        for k in [1usize, 2, 10, 17, 128, 1024] {
            let probe = tree.probe_topk_membership(&weight, threshold, k, &mut scratch, None);
            assert_eq!(probe.in_topk, exact < k, "{what}: probe k {k} q {q:?}");
        }
    }
}

#[test]
fn gridded_trees_match_the_definition() {
    let sizes = [0usize, 1, 2, 3, 5, 17, 64, 65, 130, 300, 700];
    for round in 0..rounds() * 8 {
        let mut rng = StdRng::seed_from_u64(0xD0_u64 + round as u64);
        let dim = 2 + round % 5;
        let n = sizes[rng.gen_range(0..sizes.len())];
        let points = Points::dense(dim, gridded(&mut rng, n, dim));
        let oracle = points.dominators();
        let fanout = FANOUTS[rng.gen_range(0..FANOUTS.len())];
        let cap = CAPS[rng.gen_range(0..CAPS.len())];
        let what = format!("round {round} d {dim} n {n} fanout {fanout} cap {cap}");
        let tree = points.bulk(fanout);
        check(&points, &oracle, &tree, cap, &format!("{what} bulk"));
    }
}

#[test]
fn every_cap_and_fanout_on_one_tied_dataset() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for dim in 2..=6 {
        let points = Points::dense(dim, gridded(&mut rng, 400, dim));
        let oracle = points.dominators();
        for fanout in FANOUTS {
            let tree = points.bulk(fanout);
            for cap in CAPS {
                let what = format!("d {dim} fanout {fanout} cap {cap}");
                check(&points, &oracle, &tree, cap, &what);
            }
        }
    }
}

#[test]
fn an_open_set_spanning_many_source_chunks() {
    // Uniform d = 6 at the default cap: the mean point has n / 2⁶ ≈ 220
    // dominators, so almost nothing saturates, every leaf stays open and
    // the 14 100 open points fill four 4096-source chunks. The dataset is
    // three copies of 4 700 rows — runs of copies straddle the chunk
    // borders — which also keeps the oracle affordable unoptimised: a
    // copy of `p` never dominates `p` and a copy of a dominator does, so
    // every count is three times the base's. A sample of rows is counted
    // literally over all 14 100 as well.
    let mut rng = StdRng::seed_from_u64(6);
    let base = Points::dense(6, (0..4_700 * 6).map(|_| rng.gen::<f64>()).collect());
    let points = Points::dense(6, base.coords.repeat(3));
    let oracle: Vec<usize> = base.dominators().iter().map(|c| c * 3).collect();
    let oracle = oracle.repeat(3);
    for (p, &c) in points.rows().zip(&oracle).step_by(97) {
        assert_eq!(points.rows().filter(|q| dominates(q, p)).count(), c);
    }
    check(&points, &oracle, &points.bulk(64), 1024, "uniform 3x4700x6");
}

#[test]
fn the_roots_children_certify_every_leaf_but_the_first() {
    // Points on the diagonal pack into leaves of consecutive runs; each
    // leaf's lower corner is dominated by all earlier leaves, so at a
    // small cap the walk stops at the root's children.
    let coords: Vec<f64> = (0..64 * 9).flat_map(|i| [f64::from(i); 3]).collect();
    let points = Points::dense(3, coords);
    let oracle = points.dominators();
    for cap in [1, 3, 17] {
        let what = format!("diagonal cap {cap}");
        check(&points, &oracle, &points.bulk(64), cap, &what);
    }
}

#[test]
fn a_nan_row_does_not_panic() {
    // The engine rejects non-finite rows, `RTree` does not; dominance
    // against NaN is not an order, so only termination, bounds and the
    // cap are promised.
    let mut rng = StdRng::seed_from_u64(0xBAD);
    for fanout in FANOUTS {
        let mut coords = gridded(&mut rng, 500, 3);
        coords[3 * 123 + 1] = f64::NAN;
        coords[3 * 124..3 * 125].fill(f64::NAN);
        let tree = RTree::bulk_load_with_fanout(3, &coords, fanout);
        for cap in CAPS {
            let counts = dominator_counts(&tree, cap);
            assert_eq!(counts.len(), 500);
            assert!(counts.iter().all(|&c| c <= cap));
        }
    }
}
