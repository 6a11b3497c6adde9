//! Per-point strict-dominator counts, in the spirit of Chester et al.,
//! *Indexing Reverse Top-k Queries*.
//!
//! A point strictly dominated by `k` others can never be a top-k member
//! under any non-negative weight vector: each dominator's computed score
//! is no larger (round-to-nearest multiplies and adds are monotone and
//! both sides run the same operation order), so at least `k` points rank
//! at or ahead of it. [`dominator_counts`] counts each point's
//! dominators, saturated at a cap. No serving path reads the counts.
//!
//! ## Build
//!
//! A capped count is exact over any superset of the points with fewer
//! than `cap` dominators (a point's first `cap` dominators in a
//! dominance-compatible order each have fewer than `cap`, since a
//! dominator's dominators dominate the point too), so a point known to
//! be saturated is never looked at again, as a target or as a source:
//! (1) *certify* — top-down, one capped branch-and-bound probe of each
//! node's MBR lower corner; `cap` dominators there saturate the whole
//! subtree; (2) *restrict* — only the leaves left open are read again;
//! (3) *count bit-parallel* — the `m` open points, in a
//! dominance-compatible order, are counted against each other through
//! per-dimension sorted-prefix bitsets, one source chunk at a time.
//! `O(nodes · probe + d · m² / 64)` time, `O(m)` scratch.

use crate::tree::RTree;
use wqrtq_geom::dominates;

/// The cap [`DominanceIndex::build`] counts to.
const BUILD_CAP: u16 = 128;

/// Retired: the k-dominance mask no serving path reads. Kept only
/// because `benchmark/` compiles against it — `rtree.mask_build_s_*`
/// times [`DominanceIndex::build`], which still runs
/// [`dominator_counts`] at cap 128 and keeps nothing but the cap.
#[derive(Debug)]
pub struct DominanceIndex {
    cap: u16,
}

impl DominanceIndex {
    /// Counts every point's dominators to cap 128 (see
    /// [`dominator_counts`]) and drops the counts.
    pub fn build(tree: &RTree) -> Self {
        std::hint::black_box(dominator_counts(tree, BUILD_CAP));
        Self { cap: BUILD_CAP }
    }

    /// Whether `k` lies within the build cap (`0 < k ≤ cap`). Only
    /// `benchmark/`'s probe timings ask.
    #[inline]
    pub fn usable_for(&self, k: usize) -> bool {
        k > 0 && k <= self.cap as usize
    }
}

/// Per-point strict-dominator counts of `tree`, indexed by point id and
/// saturated at `cap` (ids absent from the tree read 0).
///
/// Three steps (see the module docs): certify whole subtrees from one
/// capped probe of their MBR's lower corner, restrict to the points of
/// the leaves left open, and count those against each other with
/// sorted-prefix bitsets — `O(nodes · probe + d · m² / 64)` time and
/// `O(m)` scratch for `m` open points.
///
/// # Panics
/// Panics if `cap` is zero.
pub fn dominator_counts(tree: &RTree, cap: u16) -> Vec<u16> {
    assert!(cap > 0, "dominance cap must be positive");
    let slots = tree.ids.iter().max().map_or(0, |&m| m as usize + 1);
    let mut counts = vec![0u16; slots];
    // Saturated unless the point turns out to sit in an open leaf.
    tree.ids.iter().for_each(|&id| counts[id as usize] = cap);
    count_open_points(tree, &open_leaves(tree, cap), cap, &mut counts);
    counts
}

/// Counts points of `tree` strictly dominating `p`, stopping at `cap`.
fn count_dominators_capped(tree: &RTree, p: &[f64], cap: usize, stack: &mut Vec<u32>) -> u16 {
    stack.clear();
    if tree.is_empty() {
        return 0;
    }
    stack.push(tree.root());
    let n = tree.node_count();
    let mut count = 0usize;
    while let Some(node) = stack.pop() {
        let lo = |d: usize| tree.lo[d * n + node as usize];
        if p.iter().enumerate().any(|(d, x)| lo(d) > *x) {
            continue; // nothing in here is ≤ p in every dimension
        }
        let hi = |d: usize| tree.hi[d * n + node as usize];
        if p.iter().enumerate().all(|(d, x)| hi(d) <= *x)
            && p.iter().enumerate().any(|(d, x)| hi(d) < *x)
        {
            // Every point sits at-or-below p and strictly below in some
            // dimension: the whole subtree dominates p.
            count += tree.count[node as usize];
            if count >= cap {
                return cap as u16;
            }
            continue;
        }
        if tree.is_leaf(node) {
            for row in tree.range(node) {
                if dominates(tree.row(row), p) {
                    count += 1;
                    if count >= cap {
                        return cap as u16;
                    }
                }
            }
        } else {
            stack.extend(tree.range(node).map(|c| c as u32));
        }
    }
    count.min(cap) as u16
}

/// Step 1 of the build: the leaves no lower-corner probe certified. A
/// point dominating a node's MBR lower corner dominates every point of
/// the subtree, so a corner with `cap` dominators saturates the subtree
/// without descending.
fn open_leaves(tree: &RTree, cap: u16) -> Vec<u32> {
    let mut open = Vec::new();
    if tree.is_empty() {
        return open;
    }
    let mut walk = vec![tree.root()];
    let mut stack = Vec::new();
    let mut corner = vec![0.0; tree.dim()];
    while let Some(node) = walk.pop() {
        tree.corner_into(&tree.lo, node, &mut corner);
        if count_dominators_capped(tree, &corner, cap as usize, &mut stack) >= cap {
            continue;
        }
        if tree.is_leaf(node) {
            open.push(node);
        } else {
            walk.extend(tree.range(node).map(|c| c as u32));
        }
    }
    open
}

/// Sources per bit-parallel chunk; one chunk's sorted columns and prefix
/// sets (~100 KiB per dimension) are alive at a time.
const SOURCE_CHUNK: usize = 4096;

/// Ranks between materialised prefix sets of a sorted column; the ranks
/// in between are reached by setting single bits.
const PREFIX_STEP: usize = 32;

/// Steps 2–3 of the build: exact capped counts for the points of the
/// `open` leaves, taken over those points alone. `#dominators(p)` is
/// `#{q ≤ p in every dimension} − #{q = p in every dimension}`; the
/// first term is the popcount of the AND of `d` prefix sets ("source ≤ p
/// in dimension j") per source chunk, the second the run of copies
/// around `p` in a dominance-compatible order.
fn count_open_points(tree: &RTree, open: &[u32], cap: u16, counts: &mut [u16]) {
    /// (coordinate sum, store row).
    type OpenPoint = (f64, u32);
    let dim = tree.dim();
    let point = |e: &OpenPoint| tree.row(e.1 as usize);
    let m = open.iter().map(|&leaf| tree.count[leaf as usize]).sum();
    let mut order: Vec<OpenPoint> = Vec::with_capacity(m);
    for &leaf in open {
        for row in tree.range(leaf) {
            let sum = tree.row(row).iter().fold(0.0, |s, x| s + x);
            order.push((sum, row as u32));
        }
    }
    // (coordinate sum, then lexicographic) is a linear extension of
    // dominance: rounded sums added in one order are monotone but not
    // strictly, hence the tie-break. `dominates` treats −0.0 and 0.0 as
    // equal and `total_cmp` would separate them, so the key folds them
    // (`x + 0.0`; a sum started at 0.0 is never −0.0) and copies end up
    // adjacent.
    let cmp = |a: &OpenPoint, b: &OpenPoint| {
        a.0.total_cmp(&b.0).then_with(|| {
            let lex = point(a).iter().zip(point(b));
            lex.map(|(x, y)| (x + 0.0).total_cmp(&(y + 0.0)))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    };
    order.sort_unstable_by(cmp);

    // room[t] = cap + (copies of t that the chunks up to its own will
    // count as hits, itself included) − hits so far; 0 = saturated.
    let mut room = vec![0u32; m];
    let mut start = 0;
    while start < m {
        let mut end = start + 1;
        while end < m && cmp(&order[start], &order[end]).is_eq() {
            end += 1;
        }
        for (t, r) in room.iter_mut().enumerate().take(end).skip(start) {
            let chunk_end = (t / SOURCE_CHUNK + 1) * SOURCE_CHUNK;
            *r = u32::from(cap).saturating_add((end.min(chunk_end) - start) as u32);
        }
        start = end;
    }

    let mut hit = Vec::new();
    let mut prefix = Vec::new();
    for base in (0..m).step_by(SOURCE_CHUNK) {
        let len = SOURCE_CHUNK.min(m - base);
        let words = len.div_ceil(64);
        // Per dimension: the chunk sorted by that coordinate, and the
        // set of its first `r` members for every multiple `r` of the step.
        let columns: Vec<_> = (0..dim)
            .map(|j| {
                let mut col: Vec<(f64, u16)> = (0..len)
                    .map(|i| (point(&order[base + i])[j], i as u16))
                    .collect();
                col.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                let mut sets = Vec::with_capacity((len / PREFIX_STEP + 1) * words);
                let mut set = vec![0u64; words];
                for rank in 0..=len {
                    if rank % PREFIX_STEP == 0 {
                        sets.extend_from_slice(&set);
                    }
                    if let Some(&(_, i)) = col.get(rank) {
                        set[i as usize / 64] |= 1 << (i % 64);
                    }
                }
                (col, sets)
            })
            .collect();
        hit.resize(words, 0u64);
        prefix.resize(words, 0u64);
        for t in base..m {
            if room[t] == 0 {
                continue;
            }
            let p = point(&order[t]);
            for (j, (col, sets)) in columns.iter().enumerate() {
                // Upper-bound rank: equal coordinates count as `≤`.
                let rank = col.partition_point(|v| v.0 <= p[j]);
                let at = rank / PREFIX_STEP;
                let set = if j == 0 { &mut hit } else { &mut prefix };
                set.copy_from_slice(&sets[at * words..(at + 1) * words]);
                for &(_, i) in &col[at * PREFIX_STEP..rank] {
                    set[i as usize / 64] |= 1 << (i % 64);
                }
                if j > 0 {
                    hit.iter_mut().zip(&prefix).for_each(|(h, s)| *h &= s);
                }
            }
            let hits: u32 = hit.iter().map(|w| w.count_ones()).sum();
            room[t] = room[t].saturating_sub(hits);
        }
    }
    for (e, r) in order.iter().zip(room) {
        let left = u16::try_from(r).map_or(cap, |r| r.min(cap));
        counts[tree.ids[e.1 as usize] as usize] = cap - left;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * dim);
        let mut state = seed | 1;
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 10.0);
        }
        v
    }

    fn brute_counts(pts: &[f64], dim: usize) -> Vec<usize> {
        let rows: Vec<&[f64]> = pts.chunks_exact(dim).collect();
        rows.iter()
            .map(|p| rows.iter().filter(|q| dominates(q, p)).count())
            .collect()
    }

    #[test]
    fn counts_match_brute_force() {
        for dim in [2usize, 3, 4] {
            let pts = scatter(400, dim, dim as u64 + 7);
            let tree = RTree::bulk_load_with_fanout(dim, &pts, 8);
            let counts = dominator_counts(&tree, 1024);
            let brute = brute_counts(&pts, dim);
            for (id, &b) in brute.iter().enumerate() {
                assert_eq!(counts[id] as usize, b.min(1024), "dim {dim} id {id}");
            }
        }
    }

    #[test]
    fn duplicates_do_not_dominate_each_other() {
        // 300 copies of one point: nobody dominates anybody, so every
        // copy sits in every skyband (the acyclicity that keeps ties sound).
        let pts: Vec<f64> = (0..300).flat_map(|_| [5.0, 5.0]).collect();
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let counts = dominator_counts(&tree, 1024);
        assert_eq!(counts.len(), 300);
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn saturation_respects_cap_and_usability() {
        let mut pts = vec![0.0, 0.0]; // dominates everything below
        pts.extend(scatter(500, 2, 3).iter().map(|x| x + 1.0));
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build(&tree);
        assert!(dom.usable_for(1) && dom.usable_for(128));
        assert!(!dom.usable_for(129) && !dom.usable_for(0));
        let counts = dominator_counts(&tree, 4);
        assert!(counts.iter().all(|&c| c <= 4));
        // The origin point dominates ≥ 4 others? No — it is dominated by
        // nobody; everything else is dominated by it.
        assert_eq!(counts[0], 0);
        assert!(counts[1..].iter().all(|&c| c >= 1));
    }

    #[test]
    fn empty_tree_counts_nothing() {
        let tree = RTree::bulk_load_with_fanout(3, &[], 8);
        assert!(dominator_counts(&tree, 1024).is_empty());
        assert!(DominanceIndex::build(&tree).usable_for(1));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "the per-point reference takes minutes unoptimised"
    )]
    fn counts_match_the_per_point_probe_at_benchmark_scale() {
        // Stand-ins for the two shapes `rtopk_scan` sets up, uniform
        // 100k×3 and anti-correlated 50k×5 (every point near the plane
        // Σx = d/2).
        let uniform = scatter(100_000, 3, 29);
        let anti: Vec<f64> = scatter(50_000, 5, 31)
            .chunks_exact(5)
            .zip(scatter(50_000, 1, 37))
            .flat_map(|(p, c)| {
                let scale = (2.0 + c / 10.0) / p.iter().sum::<f64>();
                p.iter().map(move |x| x * scale)
            })
            .collect();
        for (dim, pts) in [(3, uniform), (5, anti)] {
            let tree = RTree::bulk_load(dim, &pts);
            let cap = BUILD_CAP;
            let counts = dominator_counts(&tree, cap);
            let mut stack = Vec::new();
            tree.for_each_point(|id, p| {
                let probed = count_dominators_capped(&tree, p, cap as usize, &mut stack);
                assert_eq!(counts[id as usize], probed, "dim {dim} id {id}");
            });
        }
    }
}
