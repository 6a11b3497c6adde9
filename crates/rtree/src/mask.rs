//! The k-dominance pre-filter: nested culprit planes selected at
//! index-build time from per-point dominator counts, in the spirit of
//! Chester et al., *Indexing Reverse Top-k Queries*.
//!
//! A point strictly dominated by `k` others can never be a top-k member
//! under any non-negative weight vector: each dominator's computed score
//! is no larger (round-to-nearest multiplies and adds are monotone and
//! both sides run the same operation order), so at least `k` points rank
//! at or ahead of it. [`DominanceIndex`] keeps, for one tree, the nested
//! skybands those counts select — plain immutable data that serving
//! reads through [`DominanceIndex::plane_outranked`].
//!
//! ## Build
//!
//! [`dominator_counts`] counts each point's strict dominators, saturated
//! at a cap. A capped count is exact over any superset of the points
//! with fewer than `cap` dominators (the lemma in
//! [`DominanceIndex::plane_outranked`]'s soundness paragraph, applied to
//! "dominates `p`" instead of "scores below `q`"), so a point known to be
//! saturated is never looked at again, as a target or as a source:
//! (1) *certify* — top-down, one capped branch-and-bound probe of each
//! node's MBR lower corner; `cap` dominators there saturate the whole
//! subtree; (2) *restrict* — only the leaves left open are read again;
//! (3) *count bit-parallel* — the `m` open points, in a
//! dominance-compatible order, are counted against each other through
//! per-dimension sorted-prefix bitsets, one source chunk at a time.
//! `O(nodes · probe + d · m² / 64)` time, `O(m)` scratch. The counts
//! then select the nested culprit planes ([`CULPRIT_PLANE_TIERS`]): each
//! skyband is copied once, as exact [`FlatPoints`] columns in leaf order,
//! and the counts are dropped. The planes read only counts below the top
//! tier, so the index counts to [`CULPRIT_PLANE_K`] and no further: the
//! build takes 36 ms at uniform 100k×3, 78 ms at anti-correlated 50k×5
//! and 16 ms at uniform 40k×3 (71, 169 and 28 ms counting to 1024;
//! median of 7, 2-core x86-64 Xeon).
//!
//! ## Lifecycle under mutation
//!
//! The index describes one *base epoch* — it is built from the bulk-loaded
//! tree and shared immutably until compaction rebuilds the base.
//! Appends never join it (delta rows are counted separately). Deletes
//! are absorbed by the verdict cap: tombstoned base points stay in the
//! planes, so a view verdict inflates its cap by the number of dead
//! points scoring better (`d_dead`), exactly as it does for a tree probe.

use crate::tree::RTree;
use wqrtq_geom::{dominates, FlatPoints};

/// Skyband thresholds of the nested culprit planes: one compact
/// [`FlatPoints`] per tier, holding every point with fewer than that
/// many dominators. A capped verdict picks the smallest tier at or
/// above its cap — small caps (the common `k ≈ 10` regime) scan the
/// tight inner skyband instead of the full outer one, and the middle
/// tier absorbs the cap inflation view verdicts pay per tombstone.
pub const CULPRIT_PLANE_TIERS: [u16; 3] = [10, 32, 128];

/// Cap ceiling of the culprit planes (the largest tier): verdicts with
/// caps above this fall back to tree probes.
pub const CULPRIT_PLANE_K: u16 = 128;

/// Largest fraction of the dataset the culprit plane may hold (as a
/// denominator): above `n / PLANE_MAX_FRACTION` points the plane would
/// barely shrink the scan while doubling resident coordinates, so the
/// build skips it and callers fall back to tree probes.
const PLANE_MAX_FRACTION: usize = 4;

/// Immutable culprit-plane index over one tree's points (one base
/// epoch): the planes and the cap their counts were taken at, with no
/// interior mutability, so it is shared (`Arc`) across serving workers
/// as is.
#[derive(Debug)]
pub struct DominanceIndex {
    cap: u16,
    /// Nested culprit planes, ascending by skyband threshold: each entry
    /// `(t, plane)` holds the `t`-skyband (every point with fewer than
    /// `t` dominators) as exact columns in leaf order. Tiers whose skyband
    /// would exceed a quarter of the dataset are dropped (high
    /// dimensions / tiny sets), where a compact scan stops paying for
    /// itself; verdicts then fall back to tree probes.
    planes: Vec<(u16, FlatPoints)>,
}

impl DominanceIndex {
    /// Builds the index at cap [`CULPRIT_PLANE_K`], the top tier.
    pub fn build(tree: &RTree) -> Self {
        Self::build_with_cap(tree, CULPRIT_PLANE_K)
    }

    /// Builds the planes from [`dominator_counts`] saturated at `cap`,
    /// clamped to [`CULPRIT_PLANE_K`]: a count at or above the top tier
    /// selects no plane, and every count below it is exact at that cap.
    /// Tiers above `cap` collapse into one `cap`-skyband plane.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn build_with_cap(tree: &RTree, cap: u16) -> Self {
        let cap = cap.min(CULPRIT_PLANE_K);
        let counts = dominator_counts(tree, cap);
        let mut planes = Vec::new();
        if tree.len() >= PLANE_MAX_FRACTION {
            let dim = tree.dim();
            for tier in CULPRIT_PLANE_TIERS {
                let t = tier.min(cap);
                if planes.last().is_some_and(|(prev, _)| *prev >= t) {
                    continue; // cap collapsed this tier into the previous one
                }
                let skyband = counts.iter().filter(|&&c| c < t).count();
                if skyband > tree.len() / PLANE_MAX_FRACTION {
                    break; // larger tiers are supersets — all too dense
                }
                let mut rows = Vec::with_capacity(skyband * dim);
                tree.for_each_point(|id, p| {
                    if counts[id as usize] < t {
                        rows.extend_from_slice(p);
                    }
                });
                planes.push((t, FlatPoints::from_row_major(dim, &rows)));
            }
        }
        Self { cap, planes }
    }

    /// Whether `k` lies within the build cap (`0 < k ≤ cap`). No
    /// serving path asks ([`DominanceIndex::plane_usable_for`] implies
    /// it); `benchmark/`'s probe timings do.
    #[inline]
    pub fn usable_for(&self, k: usize) -> bool {
        k > 0 && k <= self.cap as usize
    }

    /// Whether a `cap`-capped verdict may be served by a culprit plane:
    /// some tier's skyband threshold is at or above `cap`.
    #[inline]
    pub fn plane_usable_for(&self, cap: usize) -> bool {
        cap > 0
            && self
                .planes
                .last()
                .is_some_and(|(t, _)| (*t as usize) >= cap)
    }

    /// The nested culprit planes, ascending by skyband threshold.
    #[inline]
    pub fn culprit_planes(&self) -> &[(u16, FlatPoints)] {
        &self.planes
    }

    /// Serves the verdict "do at least `cap` points score strictly
    /// below `threshold` under `w`?" from a culprit plane alone, using
    /// the smallest tier whose threshold covers `cap`.
    ///
    /// Sound in both directions: the plane is a subset of the dataset,
    /// so its count never overshoots the exact one; and if the exact
    /// better-set `B` has at least `cap` elements, its first `cap`
    /// points in dominance order each have fewer than `cap ≤ tier`
    /// dominators (every dominator of a better point is itself better,
    /// so position `i` bounds the dominator count by `i − 1`) — all of
    /// them are in the tier's skyband and the capped plane count reaches
    /// `cap`. Deleted base points are counted like live ones, so view
    /// callers inflate `cap` by the dead better-count, exactly as with
    /// the probe cap. Returns `None` (caller falls back to a scan or
    /// probe) when no tier covers `cap` or `w` has a negative entry
    /// (the dominance argument needs monotone scoring).
    pub fn plane_outranked(&self, w: &[f64], threshold: f64, cap: usize) -> Option<bool> {
        if cap == 0 || w.iter().any(|&x| x < 0.0) {
            return None;
        }
        let (_, plane) = self.planes.iter().find(|(t, _)| (*t as usize) >= cap)?;
        Some(plane.count_better_than_capped(w, threshold, cap) >= cap)
    }

    /// Samples up to `max_rows` culprit points — points scoring
    /// strictly below `threshold` under `w` — from the same tier a
    /// [`DominanceIndex::plane_outranked`] call with this `cap` would
    /// scan, appending to `out`. Returns the rows pushed (0 when no
    /// tier covers `cap`).
    ///
    /// Every row is a real dataset point, so a caller may feed the
    /// sample to a threshold-prune pool without affecting any verdict:
    /// pools re-score their rows per weight, and k distinct dataset
    /// points beating `q` prove it outranked regardless of how they
    /// were found. The ids are *plane-local* point indices — stable
    /// identities for pool deduplication within one base epoch, **not**
    /// dataset ids (a pool must never mix the two id spaces).
    pub fn plane_culprits_into(
        &self,
        w: &[f64],
        threshold: f64,
        cap: usize,
        max_rows: usize,
        out: &mut crate::search::CulpritBuf,
    ) -> usize {
        if cap == 0 {
            return 0;
        }
        match self.planes.iter().find(|(t, _)| (*t as usize) >= cap) {
            Some((_, plane)) => {
                plane.collect_better_into(w, threshold, max_rows, &mut out.ids, &mut out.coords)
            }
            None => 0,
        }
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
    use wqrtq_geom::score;

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
        let dom = DominanceIndex::build_with_cap(&tree, 4);
        assert_eq!(dom.cap, 4);
        assert!(dom.usable_for(1) && dom.usable_for(4));
        assert!(!dom.usable_for(5) && !dom.usable_for(0));
        let counts = dominator_counts(&tree, 4);
        assert!(counts.iter().all(|&c| c <= 4));
        // The origin point dominates ≥ 4 others? No — it is dominated by
        // nobody; everything else is dominated by it.
        assert_eq!(counts[0], 0);
        assert!(counts[1..].iter().all(|&c| c >= 1));
        // Caps past the top tier select nothing more: they clamp to it.
        assert_eq!(
            DominanceIndex::build_with_cap(&tree, 1024).cap,
            CULPRIT_PLANE_K
        );
        assert_eq!(DominanceIndex::build(&tree).cap, CULPRIT_PLANE_K);
    }

    #[test]
    fn empty_tree_builds_empty_index() {
        let tree = RTree::bulk_load_with_fanout(3, &[], 8);
        assert!(dominator_counts(&tree, 1024).is_empty());
        let dom = DominanceIndex::build(&tree);
        assert!(!dom.plane_usable_for(1));
        assert_eq!(dom.plane_outranked(&[0.5, 0.5, 0.0], 1.0, 1), None);
    }

    #[test]
    fn plane_verdicts_match_full_counts() {
        // Every tier's capped verdict must equal brute-force counting
        // over the *entire* dataset — for caps served by the inner tier,
        // the outer tier, and caps between the two. Caps above the
        // retained ceiling must decline instead of guessing.
        let pts = scatter(3000, 2, 17);
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build(&tree);
        let planes = dom.culprit_planes();
        assert!(planes.len() >= 2, "3000 uniform 2-d points keep both tiers");
        assert!(planes.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(planes.windows(2).all(|w| w[0].1.len() <= w[1].1.len()));
        let ceiling = planes.last().unwrap().0 as usize;
        assert!(dom.plane_usable_for(ceiling) && !dom.plane_usable_for(ceiling + 1));
        for wraw in [[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]] {
            for qi in (0..1500).step_by(131) {
                let q = &pts[qi * 2..qi * 2 + 2];
                let t = score(&wraw, q);
                let exact = pts.chunks_exact(2).filter(|p| score(&wraw, p) < t).count();
                for cap in [1usize, 4, 16, 17, 60, 128, 129] {
                    let expected = (cap <= ceiling).then_some(exact >= cap);
                    assert_eq!(
                        dom.plane_outranked(&wraw, t, cap),
                        expected,
                        "w {wraw:?} q {q:?} cap {cap} exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_tiers_collapse_under_a_small_cap() {
        // cap = 8 < every tier threshold: the tiers collapse into one
        // 8-skyband plane, and caps above the build cap decline.
        let pts = scatter(800, 2, 23);
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build_with_cap(&tree, 8);
        assert_eq!(dom.culprit_planes().len(), 1);
        assert_eq!(dom.culprit_planes()[0].0, 8);
        assert!(dom.plane_usable_for(8) && !dom.plane_usable_for(9));
        // Negative weight entries break the dominance argument.
        assert_eq!(dom.plane_outranked(&[-0.1, 1.1], 2.0, 4), None);
        // Caps beyond the ceiling, and cap = 0, decline.
        assert_eq!(dom.plane_outranked(&[0.5, 0.5], 2.0, 9), None);
        assert_eq!(dom.plane_outranked(&[0.5, 0.5], 2.0, 0), None);
    }

    #[test]
    fn dense_skyband_drops_the_plane() {
        // All-duplicate data: nothing dominates anything, the skyband is
        // the whole dataset, and keeping a plane would just be a full
        // copy — the build must decline it.
        let pts: Vec<f64> = (0..300).flat_map(|_| [5.0, 5.0]).collect();
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build(&tree);
        assert!(dom.culprit_planes().is_empty());
        assert_eq!(dom.plane_outranked(&[0.5, 0.5], 6.0, 1), None);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "the per-point reference takes minutes unoptimised"
    )]
    fn counts_match_the_per_point_probe_at_benchmark_scale() {
        // Stand-ins for the two shapes `rtopk_scan` sets up, uniform
        // 100k×3 and anti-correlated 50k×5 (every point near the plane
        // Σx = d/2); `mask_differential` pins the planes at the real inputs.
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
            let cap = DominanceIndex::build(&tree).cap;
            let counts = dominator_counts(&tree, cap);
            let mut stack = Vec::new();
            tree.for_each_point(|id, p| {
                let probed = count_dominators_capped(&tree, p, cap as usize, &mut stack);
                assert_eq!(counts[id as usize], probed, "dim {dim} id {id}");
            });
        }
    }
}
