//! Branch-and-bound traversals: best-first ranking, the bounded top-k,
//! counted rank queries, and the dominance split behind `FindIncom`.
//!
//! Every score-ordered traversal prunes with node bounds that score, per
//! dimension, the corner the weight entry's sign picks (`lo` below and
//! `hi` above for a non-negative entry, the reverse for a negative one),
//! so the bounds hold for any finite weight; for non-negative weights
//! they are the plain lower and upper corner scores.
//!
//! A ranking has one order: score by `f64::total_cmp` (`−0.0` before
//! `+0.0`), then point id — never the store row, which depends on how
//! the tree was packed.

use crate::tree::RTree;
use crate::{DominanceIndex, OrdF64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wqrtq_geom::{dominates, score};

/// A point produced by [`BestFirst`] in ascending score order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedPoint<'a> {
    /// The point's caller-assigned id.
    pub id: u32,
    /// Its score under the traversal's weighting vector.
    pub score: f64,
    /// Its coordinates (borrowed from the tree).
    pub coords: &'a [f64],
}

/// A node's queue key: its lower bound, with `+0.0` lowered to `−0.0`
/// so that no point inside sorts before it under `total_cmp` (a bound
/// is `<=` every score below it, and only the two zeros tie under `<=`
/// while `total_cmp` parts them).
#[inline]
fn node_key(bound: f64) -> OrdF64 {
    OrdF64(if bound == 0.0 { -0.0 } else { bound })
}

/// Best-first traversal under a linear scoring function — the incremental
/// ranking engine of the BRS top-k algorithm. Each call to `next` returns
/// the unvisited point with the smallest `(score, id)` key, so taking the
/// first `k` elements yields `TOPk(w)` and scanning until the query point
/// would appear yields its exact rank. The sequence depends on the
/// points alone, not on the fanout the tree was packed with.
pub struct BestFirst<'a> {
    tree: &'a RTree,
    weight: Vec<f64>,
    /// Unopened nodes, min-first by key.
    nodes: BinaryHeap<Reverse<(OrdF64, u32)>>,
    /// Scored points not yet emitted as `(score, id, row)`, min-first.
    points: BinaryHeap<Reverse<(OrdF64, u32, u32)>>,
    /// Child bounds of the node being opened.
    bounds: Vec<f64>,
    nodes_visited: usize,
}

impl<'a> BestFirst<'a> {
    fn new(tree: &'a RTree, weight: &[f64]) -> Self {
        assert_eq!(weight.len(), tree.dim(), "weight dimension mismatch");
        let mut nodes = BinaryHeap::new();
        if !tree.is_empty() {
            let root = tree.root();
            nodes.push(Reverse((node_key(tree.min_score(root, weight)), root)));
        }
        Self {
            tree,
            weight: weight.to_vec(),
            nodes,
            points: BinaryHeap::new(),
            bounds: Vec::new(),
            nodes_visited: 0,
        }
    }

    /// Tree nodes expanded so far — the `|RT|` cost term of the paper's
    /// theorems, exposed so serving layers can report per-query index
    /// work without a second traversal.
    pub fn nodes_visited(&self) -> usize {
        self.nodes_visited
    }

    /// Returns the next point in `(score, id)` order, with coordinates:
    /// the best scored point once its key precedes every unopened
    /// node's (at an equal key the node opens first).
    pub fn next_entry(&mut self) -> Option<RankedPoint<'a>> {
        let tree = self.tree;
        loop {
            let next = self.nodes.peek().map(|&Reverse((key, _))| key);
            if let Some(&Reverse((s, id, row))) = self.points.peek() {
                if next.is_none_or(|key| s < key) {
                    self.points.pop();
                    return Some(RankedPoint {
                        id,
                        score: s.0,
                        coords: tree.row(row as usize),
                    });
                }
            }
            let Reverse((_, node)) = self.nodes.pop()?;
            self.nodes_visited += 1;
            if tree.is_leaf(node) {
                for row in tree.range(node) {
                    let (id, p) = tree.point(row);
                    let s = OrdF64(score(&self.weight, p));
                    self.points.push(Reverse((s, id, row as u32)));
                }
            } else {
                tree.child_bounds(node, &self.weight, &mut self.bounds);
                for (c, &b) in tree.range(node).zip(&self.bounds) {
                    self.nodes.push(Reverse((node_key(b), c as u32)));
                }
            }
        }
    }
}

impl Iterator for BestFirst<'_> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        self.next_entry().map(|r| (r.id, r.score))
    }
}

/// Reusable state for [`RTree::probe_topk_membership`] and
/// [`RTree::topk_into`]: the priority queues survive across calls, so a
/// serving worker performs zero heap allocations per rank test or top-k
/// once they have grown to the tree's working depth.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    bounds: Vec<f64>,
    /// Top-k: scored points not yet emitted as `(score, id, row)`,
    /// min-first.
    pending: BinaryHeap<Reverse<(OrdF64, u32, u32)>>,
    /// Top-k: the `k` smallest `(score, id)` keys accepted so far.
    kept: BinaryHeap<(OrdF64, u32)>,
}

impl ProbeScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Culprit points collected by a membership probe: ids and flat
/// coordinates in parallel. Ids let callers deduplicate — the same point
/// can surface in probe after probe, and an RTA threshold pool that
/// counted it twice would prune unsoundly.
#[derive(Debug, Default)]
pub struct CulpritBuf {
    /// Point ids, parallel to `coords`.
    pub ids: Vec<u32>,
    /// Flat row-major coordinates.
    pub coords: Vec<f64>,
}

impl CulpritBuf {
    /// Empties both buffers, keeping capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.coords.clear();
    }

    /// Number of collected points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Outcome of one early-exit membership probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeResult {
    /// Whether `q ∈ TOPk(w)` under the strict-better tie semantics.
    pub in_topk: bool,
    /// Points proven strictly better than the threshold when the probe
    /// stopped. Exact iff the probe proved membership or exhausted the
    /// tree; a lower bound (≥ `k`) when it proved non-membership.
    pub better: usize,
    /// Tree nodes expanded (the paper's `|RT|` cost term).
    pub nodes_visited: usize,
}

/// The `FindIncom` classification of a dataset relative to a query point:
/// the set `D` of points dominating `q` and the set `I` of points
/// incomparable with `q` (points dominated by `q` are pruned away, whole
/// subtrees at a time).
#[derive(Clone, Debug, Default)]
pub struct DominanceSplit {
    /// Ids of points dominating `q`.
    pub dominating_ids: Vec<u32>,
    /// Flat `|D| × dim` coordinates of the dominating points.
    pub dominating_coords: Vec<f64>,
    /// Ids of points incomparable with `q`.
    pub incomparable_ids: Vec<u32>,
    /// Flat `|I| × dim` coordinates of the incomparable points.
    pub incomparable_coords: Vec<f64>,
}

impl DominanceSplit {
    /// `|D|`.
    pub fn num_dominating(&self) -> usize {
        self.dominating_ids.len()
    }

    /// `|I|`.
    pub fn num_incomparable(&self) -> usize {
        self.incomparable_ids.len()
    }
}

impl RTree {
    /// Starts a best-first (ascending `(score, id)`) traversal under
    /// `weight`.
    pub fn best_first(&self, weight: &[f64]) -> BestFirst<'_> {
        BestFirst::new(self, weight)
    }

    /// The bounded top-k: the first `k` points [`RTree::best_first`]
    /// would emit, skipping the ids `dead` rejects, as `(store row,
    /// score)` pairs handed to `emit` in emission order (resolve a row
    /// with [`RTree::point`]). `emit` returns whether to continue.
    /// Returns the nodes expanded — the ones the progressive traversal
    /// expands before its `k`-th live point.
    ///
    /// The same best-first order, minus the pushes that cannot matter:
    /// a scored point enters only while it is among the `k` smallest
    /// `(score, id)` keys accepted so far — anything larger has `k`
    /// accepted points leaving ahead of it — and a child is queued only
    /// while its key could still open it ahead of the current `k`-th
    /// key. A point leaves once its key precedes the best unopened
    /// node's. A node bound of `+0.0` is keyed `−0.0` (see `node_key`):
    /// keyed `+0.0`, it would let an already scored `−0.0` point leave
    /// ahead of a `−0.0` point of smaller id inside it.
    ///
    /// # Panics
    /// Panics if `weight.len() != dim`.
    pub fn topk_into(
        &self,
        weight: &[f64],
        k: usize,
        dead: impl Fn(u32) -> bool,
        scratch: &mut ProbeScratch,
        mut emit: impl FnMut(u32, f64) -> bool,
    ) -> usize {
        assert_eq!(weight.len(), self.dim(), "weight dimension mismatch");
        let ProbeScratch {
            heap,
            bounds,
            pending,
            kept,
        } = scratch;
        heap.clear();
        pending.clear();
        kept.clear();
        if k == 0 || self.is_empty() {
            return 0;
        }
        let root = self.root();
        heap.push(Reverse((node_key(self.min_score(root, weight)), root)));
        let mut visited = 0;
        let mut emitted = 0;
        loop {
            let next = heap.peek().map(|&Reverse((bound, _))| bound);
            if let Some(&Reverse((s, _, row))) = pending.peek() {
                if next.is_none_or(|bound| s < bound) {
                    pending.pop();
                    emitted += 1;
                    if !emit(row, s.0) || emitted == k {
                        break;
                    }
                    continue;
                }
            }
            let Some(Reverse((_, node))) = heap.pop() else {
                break;
            };
            visited += 1;
            if self.is_leaf(node) {
                for row in self.range(node) {
                    let (id, p) = self.point(row);
                    if dead(id) {
                        continue;
                    }
                    let key = (OrdF64(score(weight, p)), id);
                    if kept.len() == k && kept.peek().is_some_and(|&last| key > last) {
                        continue;
                    }
                    kept.push(key);
                    if kept.len() > k {
                        kept.pop();
                    }
                    pending.push(Reverse((key.0, id, row as u32)));
                }
            } else {
                self.child_bounds(node, weight, bounds);
                let full = kept.len() == k;
                let limit = kept.peek().filter(|_| full).map(|&(s, _)| s);
                for (c, &b) in self.range(node).zip(bounds.iter()) {
                    let key = node_key(b);
                    if limit.is_none_or(|s| key <= s) {
                        heap.push(Reverse((key, c as u32)));
                    }
                }
            }
        }
        visited
    }

    /// Counts points whose score under `weight` is below `threshold`
    /// (strictly below when `strict`, else `≤`). Sub-trees entirely below
    /// contribute their cached counts; sub-trees entirely above are pruned.
    pub fn count_score_below(&self, weight: &[f64], threshold: f64, strict: bool) -> usize {
        assert_eq!(weight.len(), self.dim(), "weight dimension mismatch");
        if self.is_empty() {
            return 0;
        }
        let below = |s: f64| {
            if strict {
                s < threshold
            } else {
                s <= threshold
            }
        };
        let mut count = 0usize;
        let mut stack = vec![self.root()];
        while let Some(node) = stack.pop() {
            if !below(self.min_score(node, weight)) {
                continue; // entire subtree at-or-above the threshold
            }
            if below(self.max_score(node, weight)) {
                count += self.count[node as usize]; // entire subtree below
                continue;
            }
            if self.is_leaf(node) {
                let rows = self.range(node);
                count += rows
                    .filter(|&row| below(score(weight, self.row(row))))
                    .count();
            } else {
                stack.extend(self.range(node).map(|c| c as u32));
            }
        }
        count
    }

    /// Early-exit membership probe: decides `q ∈ TOPk(w)` (given
    /// `threshold = f(w, q)`) with a best-first descent over MBR score
    /// *lower* bounds, stopping the moment either outcome is proven:
    ///
    /// * **not a member** as soon as `k` strictly-better points are
    ///   counted (subtrees whose MBR upper bound is below the threshold
    ///   count wholesale via the cached per-node counts);
    /// * **a member** as soon as the smallest remaining lower bound
    ///   reaches the threshold — best-first order makes every remaining
    ///   subtree at least that bad, so the running count is already the
    ///   exact number of better points and `count < k` proves membership.
    ///
    /// `culprits` optionally collects up to `k` individually-scored
    /// better points (ids + coordinates, appended; the caller clears) —
    /// the RTA threshold buffer is seeded from them. Wholesale-counted
    /// subtrees are *not* expanded just to extract coordinates.
    ///
    /// # Panics
    /// Panics if `weight.len() != dim`.
    pub fn probe_topk_membership(
        &self,
        weight: &[f64],
        threshold: f64,
        k: usize,
        scratch: &mut ProbeScratch,
        mut culprits: Option<&mut CulpritBuf>,
    ) -> ProbeResult {
        assert_eq!(weight.len(), self.dim(), "weight dimension mismatch");
        let mut result = ProbeResult {
            in_topk: false,
            better: 0,
            nodes_visited: 0,
        };
        if k == 0 {
            return result;
        }
        if self.is_empty() {
            result.in_topk = true;
            return result;
        }
        let ProbeScratch { heap, bounds, .. } = scratch;
        heap.clear();
        let root = self.root();
        heap.push(Reverse((OrdF64(self.min_score(root, weight)), root)));
        while let Some(Reverse((OrdF64(lo), node))) = heap.pop() {
            if lo >= threshold {
                // Best-first order: every remaining subtree scores ≥ lo,
                // so `better` is exact and q's rank is better + 1 ≤ k.
                result.in_topk = true;
                return result;
            }
            result.nodes_visited += 1;
            if self.max_score(node, weight) < threshold {
                // Whole subtree strictly better: count without expanding.
                result.better += self.count[node as usize];
                if result.better >= k {
                    return result;
                }
                continue;
            }
            if self.is_leaf(node) {
                for row in self.range(node) {
                    let p = self.row(row);
                    if score(weight, p) < threshold {
                        result.better += 1;
                        if let Some(out) = culprits.as_deref_mut() {
                            if out.len() < k {
                                out.ids.push(self.ids[row]);
                                out.coords.extend_from_slice(p);
                            }
                        }
                        if result.better >= k {
                            return result;
                        }
                    }
                }
            } else {
                self.child_bounds(node, weight, bounds);
                for (c, &b) in self.range(node).zip(bounds.iter()) {
                    if b < threshold {
                        heap.push(Reverse((OrdF64(b), c as u32)));
                    }
                }
            }
        }
        // Heap exhausted: the count is exact and below k.
        result.in_topk = true;
        result
    }

    /// Retired: [`RTree::probe_topk_membership`] under the name the
    /// masked probe had; `k_eff` and `dom` are ignored. Kept only for
    /// `benchmark/`, whose `rtree.probe_masked_ns` and
    /// `rtree.mask_speedup_*` probes still call it.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_topk_membership_masked(
        &self,
        weight: &[f64],
        threshold: f64,
        k: usize,
        _k_eff: usize,
        _dom: &DominanceIndex,
        scratch: &mut ProbeScratch,
        culprits: Option<&mut CulpritBuf>,
    ) -> ProbeResult {
        self.probe_topk_membership(weight, threshold, k, scratch, culprits)
    }

    /// The `FindIncom` traversal (Algorithm 2 of the paper, lines 20–29):
    /// classifies all points not dominated by `q` into dominating (`D`)
    /// and incomparable (`I`) sets, pruning every subtree whose MBR is
    /// entirely dominated by `q`.
    pub fn split_by_dominance(&self, q: &[f64]) -> DominanceSplit {
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        let mut out = DominanceSplit::default();
        if self.is_empty() {
            return out;
        }
        let n = self.node_count();
        let mut stack = vec![self.root()];
        while let Some(node) = stack.pop() {
            // `q` dominates-or-equals the lower corner: nothing inside
            // escapes being dominated by (or coinciding with) `q`.
            let lo = |d: usize| self.lo[d * n + node as usize];
            if q.iter().enumerate().all(|(d, x)| *x <= lo(d)) {
                continue;
            }
            if self.is_leaf(node) {
                for row in self.range(node) {
                    let (id, p) = self.point(row);
                    if dominates(p, q) {
                        out.dominating_ids.push(id);
                        out.dominating_coords.extend_from_slice(p);
                    } else if !dominates(q, p) {
                        out.incomparable_ids.push(id);
                        out.incomparable_coords.extend_from_slice(p);
                    }
                }
            } else {
                stack.extend(self.range(node).map(|c| c as u32));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's Figure 1/2 dataset (price, heat).
    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, // p1
            6.0, 3.0, // p2
            1.0, 9.0, // p3
            9.0, 3.0, // p4
            7.0, 5.0, // p5
            5.0, 8.0, // p6
            3.0, 7.0, // p7
        ]
    }

    fn scatter(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * dim);
        let mut state = seed | 1;
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 10.0);
        }
        v
    }

    #[test]
    fn best_first_reproduces_figure_1c_for_tony() {
        // Tony = (0.5, 0.5): ranking p1(1.5) < p2(4.5) < p3,p7(5.0) < p5(6.0)…
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let order: Vec<(u32, f64)> = t.best_first(&[0.5, 0.5]).collect();
        assert_eq!(order.len(), 7);
        assert_eq!(order[0], (0, 1.5)); // p1
        assert_eq!(order[1], (1, 4.5)); // p2
        let scores: Vec<f64> = order.iter().map(|(_, s)| *s).collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn best_first_scores_are_globally_sorted() {
        let pts = scatter(500, 3, 7);
        let t = RTree::bulk_load_with_fanout(3, &pts, 8);
        let w = [0.2, 0.3, 0.5];
        let ranked: Vec<(u32, f64)> = t.best_first(&w).collect();
        assert_eq!(ranked.len(), 500);
        // Matches brute force ordering of scores.
        let mut brute: Vec<f64> = (0..500)
            .map(|i| score(&w, &pts[i * 3..i * 3 + 3]))
            .collect();
        brute.sort_by(f64::total_cmp);
        for (r, b) in ranked.iter().zip(&brute) {
            assert!((r.1 - b).abs() < 1e-12);
        }
    }

    #[test]
    fn best_first_entry_exposes_coords() {
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let mut bf = t.best_first(&[0.5, 0.5]);
        let first = bf.next_entry().unwrap();
        assert_eq!(first.coords, &[2.0, 1.0]);
        assert_eq!(first.id, 0);
    }

    #[test]
    fn best_first_on_empty_tree() {
        let t = RTree::bulk_load(2, &[]);
        assert_eq!(t.best_first(&[0.5, 0.5]).next(), None);
    }

    #[test]
    fn bounded_topk_is_the_traversal_prefix() {
        // Gridded rows with zeros of both signs: exact ties everywhere,
        // and nodes whose `+0.0` bound sorts after a `−0.0` point inside.
        let mut state = 5u64;
        let pts: Vec<f64> = (0..300 * 2)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                match (state >> 40) % 6 {
                    0 => -0.0,
                    r => (r - 1) as f64 * 0.25,
                }
            })
            .collect();
        let mut scratch = ProbeScratch::new();
        for fanout in [4, 8, 64] {
            let t = RTree::bulk_load_with_fanout(2, &pts, fanout);
            for w in [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75]] {
                let mut bf = t.best_first(&w);
                let drained: Vec<(u32, f64)> = bf.by_ref().collect();
                // The one order: score by `total_cmp`, then id.
                let mut sorted: Vec<(u32, f64)> = pts
                    .chunks_exact(2)
                    .enumerate()
                    .map(|(id, p)| (id as u32, score(&w, p)))
                    .collect();
                sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    v.iter().map(|&(id, s)| (id, s.to_bits())).collect()
                };
                assert_eq!(bits(&drained), bits(&sorted), "fanout {fanout} w {w:?}");
                for k in [0, 1, 2, 7, 40, 299, 300, 301] {
                    let mut got = Vec::new();
                    let nodes = t.topk_into(
                        &w,
                        k,
                        |_| false,
                        &mut scratch,
                        |row, s| {
                            got.push((t.point(row as usize).0, s.to_bits()));
                            true
                        },
                    );
                    let want = bits(&sorted[..k.min(sorted.len())]);
                    assert_eq!(got, want, "fanout {fanout} w {w:?} k {k}");
                    let mut prefix = t.best_first(&w);
                    prefix.by_ref().take(k).for_each(drop);
                    assert_eq!(
                        nodes,
                        prefix.nodes_visited(),
                        "fanout {fanout} w {w:?} k {k}"
                    );
                }
                // Dead rows are skipped, not counted.
                let mut live = Vec::new();
                t.topk_into(
                    &w,
                    10,
                    |id| id % 3 == 0,
                    &mut scratch,
                    |row, _| {
                        live.push(t.point(row as usize).0);
                        true
                    },
                );
                let want: Vec<u32> = drained
                    .iter()
                    .map(|&(id, _)| id)
                    .filter(|id| id % 3 != 0)
                    .take(10)
                    .collect();
                assert_eq!(live, want, "fanout {fanout} w {w:?} dead");
            }
        }
    }

    #[test]
    fn count_below_matches_figure_1() {
        // Under Kevin = (0.1, 0.9), scores: 1.1, 3.3, 8.2, 3.6, 5.2, 7.7, 6.6.
        // Points strictly below q's score 4.0: p1, p2, p4 → 3 (why q is not
        // in Kevin's top-3: rank 4).
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        assert_eq!(t.count_score_below(&[0.1, 0.9], 4.0, true), 3);
        // Non-strict at a tie threshold: p3 scores exactly 8.2.
        assert_eq!(t.count_score_below(&[0.1, 0.9], 8.2, false), 7);
        assert_eq!(t.count_score_below(&[0.1, 0.9], 8.2, true), 6);
    }

    #[test]
    fn dominance_split_matches_figure_2a() {
        // q = (4,4): p1=(2,1) dominates q; p2, p3, p4, p7 are incomparable;
        // p5=(7,5) and p6=(5,8) are dominated by q.
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let mut split = t.split_by_dominance(&[4.0, 4.0]);
        split.dominating_ids.sort();
        split.incomparable_ids.sort();
        assert_eq!(split.dominating_ids, vec![0]);
        assert_eq!(split.incomparable_ids, vec![1, 2, 3, 6]);
        assert_eq!(split.num_dominating(), 1);
        assert_eq!(split.num_incomparable(), 4);
        assert_eq!(split.dominating_coords, vec![2.0, 1.0]);
    }

    #[test]
    fn dominance_split_equal_point_counts_as_incomparable() {
        // The paper's FindIncom adds any point not dominated by q to I;
        // a point equal to q is not dominated, so it lands in I.
        let mut pts = fig_points();
        pts.extend([4.0, 4.0]);
        let t = RTree::bulk_load_with_fanout(2, &pts, 4);
        let split = t.split_by_dominance(&[4.0, 4.0]);
        assert!(split.incomparable_ids.contains(&7));
    }

    #[test]
    fn probe_matches_paper_membership() {
        // Figure 1: q = (4,4), k = 3 → Tony and Anna in, Kevin and Julia out.
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let mut scratch = ProbeScratch::new();
        let cases = [
            ([0.1, 0.9], false), // Kevin: rank 4
            ([0.5, 0.5], true),  // Tony: rank 2
            ([0.3, 0.7], true),  // Anna: rank 3
            ([0.9, 0.1], false), // Julia: rank 4
        ];
        for (w, expect) in cases {
            let sq = score(&w, &[4.0, 4.0]);
            let r = t.probe_topk_membership(&w, sq, 3, &mut scratch, None);
            assert_eq!(r.in_topk, expect, "weight {w:?}");
            assert!(r.nodes_visited > 0);
            if r.in_topk {
                // Exact count on membership: rank = better + 1 ≤ k.
                assert!(r.better < 3);
            } else {
                assert!(r.better >= 3);
            }
        }
    }

    #[test]
    fn probe_tie_keeps_query_in() {
        let t = RTree::bulk_load(2, &[1.0, 1.0, 2.0, 2.0]);
        let mut scratch = ProbeScratch::new();
        // q = (2,2) ties the second point: only one point strictly better.
        let r = t.probe_topk_membership(&[0.5, 0.5], 2.0, 2, &mut scratch, None);
        assert!(r.in_topk);
        assert_eq!(r.better, 1);
    }

    #[test]
    fn probe_edge_cases() {
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let mut scratch = ProbeScratch::new();
        // k = 0: never a member.
        let r = t.probe_topk_membership(&[0.5, 0.5], 100.0, 0, &mut scratch, None);
        assert!(!r.in_topk);
        // Empty tree: always a member for k ≥ 1.
        let empty = RTree::bulk_load(2, &[]);
        let r = empty.probe_topk_membership(&[0.5, 0.5], 0.0, 1, &mut scratch, None);
        assert!(r.in_topk);
        // k > n: always a member even when every point beats q.
        let r = t.probe_topk_membership(&[0.5, 0.5], 100.0, 8, &mut scratch, None);
        assert!(r.in_topk);
        assert_eq!(r.better, 7);
        // k = n with every point strictly better: rank n+1 → not a member.
        let r = t.probe_topk_membership(&[0.5, 0.5], 100.0, 7, &mut scratch, None);
        assert!(!r.in_topk);
    }

    #[test]
    fn probe_collects_culprit_coordinates() {
        let t = RTree::bulk_load_with_fanout(2, &fig_points(), 4);
        let mut scratch = ProbeScratch::new();
        let mut culprits = CulpritBuf::default();
        let w = [0.1, 0.9];
        let r = t.probe_topk_membership(&w, 4.0, 3, &mut scratch, Some(&mut culprits));
        assert!(!r.in_topk);
        assert!(!culprits.is_empty());
        assert!(culprits.len() <= 3);
        assert_eq!(culprits.coords.len(), culprits.ids.len() * 2);
        // Every collected point really beats the threshold, and each id
        // maps to its own coordinates.
        for (p, &id) in culprits.coords.chunks_exact(2).zip(&culprits.ids) {
            assert!(score(&w, p) < 4.0);
            assert_eq!(p, &fig_points()[id as usize * 2..id as usize * 2 + 2]);
        }
        culprits.clear();
        assert!(culprits.is_empty());
    }

    #[test]
    fn probe_scratch_is_reusable_across_trees_and_weights() {
        let pts = scatter(800, 3, 3);
        let t = RTree::bulk_load_with_fanout(3, &pts, 8);
        let mut scratch = ProbeScratch::new();
        for i in 0..50 {
            let x = 0.1 + 0.8 * (i as f64 / 50.0);
            let w = [x / 2.0, (1.0 - x) / 2.0, 0.5];
            let q = [5.0, 5.0, 5.0];
            let sq = score(&w, &q);
            let probe = t.probe_topk_membership(&w, sq, 10, &mut scratch, None);
            let exact = t.count_score_below(&w, sq, true);
            assert_eq!(probe.in_topk, exact < 10, "weight {w:?}");
        }
    }

    #[test]
    fn negative_weight_entries_keep_every_traversal_exact() {
        // `Weight::new` admits sub-EPS negative entries, and the bare
        // index takes any slice: scoring the `lo` corner alone would
        // overestimate a node's minimum wherever `w_d < 0`.
        let pts = scatter(300, 3, 13);
        let t = RTree::bulk_load_with_fanout(3, &pts, 4);
        let mut scratch = ProbeScratch::new();
        for w in [
            [1.0 + 5e-10, -5e-10, 0.0],
            [0.7, -0.4, 0.7],
            [-0.3, 0.2, -0.9],
            [-0.0, 0.5, 0.5],
        ] {
            let mut brute: Vec<f64> = pts.chunks_exact(3).map(|p| score(&w, p)).collect();
            let ranked: Vec<f64> = t.best_first(&w).map(|(_, s)| s).collect();
            brute.sort_by(f64::total_cmp);
            assert_eq!(ranked, brute, "best-first order w {w:?}");
            for q in pts.chunks_exact(3).step_by(23) {
                let sq = score(&w, q);
                let better = brute.iter().filter(|&&s| s < sq).count();
                assert_eq!(t.count_score_below(&w, sq, true), better, "w {w:?}");
                for k in [1, 2, 10, 150] {
                    let r = t.probe_topk_membership(&w, sq, k, &mut scratch, None);
                    assert_eq!(r.in_topk, better < k, "probe w {w:?} q {q:?} k {k}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn probe_agrees_with_exact_count(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..400),
            q in (0.0f64..10.0, 0.0f64..10.0),
            k in 1usize..12,
            wraw in (0.01f64..1.0, 0.01f64..1.0),
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let t = RTree::bulk_load_with_fanout(2, &flat, 8);
            let sum = wraw.0 + wraw.1;
            let w = [wraw.0 / sum, wraw.1 / sum];
            let sq = score(&w, &[q.0, q.1]);
            let mut scratch = ProbeScratch::new();
            let r = t.probe_topk_membership(&w, sq, k, &mut scratch, None);
            let exact = t.count_score_below(&w, sq, true);
            prop_assert_eq!(r.in_topk, exact < k);
            if r.in_topk {
                prop_assert_eq!(r.better, exact);
            } else {
                prop_assert!(r.better >= k);
                prop_assert!(r.better <= exact);
            }
        }

        #[test]
        fn count_below_matches_brute_force(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..300),
            wraw in (0.01f64..1.0, 0.01f64..1.0),
            threshold in 0.0f64..20.0,
            strict in proptest::bool::ANY,
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let t = RTree::bulk_load_with_fanout(2, &flat, 8);
            let sum = wraw.0 + wraw.1;
            let w = [wraw.0 / sum, wraw.1 / sum];
            let brute = pts.iter().filter(|(a, b)| {
                let s = w[0] * a + w[1] * b;
                if strict { s < threshold } else { s <= threshold }
            }).count();
            prop_assert_eq!(t.count_score_below(&w, threshold, strict), brute);
        }

        #[test]
        fn dominance_split_matches_brute_force(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 1..200),
            q in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b, c)| [*a, *b, *c]).collect();
            let t = RTree::bulk_load_with_fanout(3, &flat, 8);
            let qv = [q.0, q.1, q.2];
            let mut split = t.split_by_dominance(&qv);
            split.dominating_ids.sort();
            split.incomparable_ids.sort();
            let mut brute_d = Vec::new();
            let mut brute_i = Vec::new();
            for (i, (a, b, c)) in pts.iter().enumerate() {
                let p = [*a, *b, *c];
                if dominates(&p, &qv) {
                    brute_d.push(i as u32);
                } else if !dominates(&qv, &p) {
                    brute_i.push(i as u32);
                }
            }
            prop_assert_eq!(split.dominating_ids, brute_d);
            prop_assert_eq!(split.incomparable_ids, brute_i);
        }

        #[test]
        fn best_first_is_a_permutation_in_score_order(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..150),
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let t = RTree::bulk_load_with_fanout(2, &flat, 4);
            let w = [0.3, 0.7];
            let ranked: Vec<(u32, f64)> = t.best_first(&w).collect();
            prop_assert_eq!(ranked.len(), pts.len());
            let mut ids: Vec<u32> = ranked.iter().map(|(i, _)| *i).collect();
            ids.sort();
            prop_assert!(ids.iter().enumerate().all(|(i, &id)| id == i as u32));
            prop_assert!(ranked.windows(2).all(|w2| w2[0].1 <= w2[1].1));
        }
    }
}
