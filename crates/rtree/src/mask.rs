//! The k-dominance pre-filter: per-point dominator counts materialised
//! at index-build time, in the spirit of Chester et al., *Indexing
//! Reverse Top-k Queries*.
//!
//! A point strictly dominated by `k` others can never be a top-k member
//! under any non-negative weight vector: each dominator's computed score
//! is no larger (round-to-nearest multiplies and adds are monotone and
//! both sides run the same operation order), so at least `k` points rank
//! at or ahead of it. [`DominanceIndex`] stores, for every point of one
//! tree, the number of points strictly dominating it (saturated at a
//! build cap), plus the minimum of those counts per subtree so probes
//! can skip whole all-masked subtrees in O(1).
//!
//! ## Build
//!
//! A capped count is exact over any superset of the points with fewer
//! than `cap` dominators (the lemma in
//! [`DominanceIndex::plane_outranked`]'s soundness paragraph, applied to
//! "dominates `p`" instead of "scores below `q`"), so a point known to be
//! saturated is never looked at again, as a target or as a source:
//! (1) *certify* — top-down, one capped branch-and-bound probe of each
//! node's MBR lower corner; `cap` dominators there saturate the whole
//! subtree; (2) *restrict* — only the leaves left open are read again;
//! (3) *count bit-parallel* — the `m` open points, in a
//! dominance-compatible order, are counted against each other through
//! per-dimension sorted-prefix bitsets, one source chunk at a time.
//! `O(nodes · probe + d · m² / 64)` time, `O(m)` scratch.
//!
//! ## Verdict preservation, not count preservation
//!
//! Masked traversals ([`crate::RTree::probe_topk_membership_masked`])
//! keep wholesale subtree counts (which include masked points) while
//! skipping masked points wherever points are scored individually. The
//! resulting count `c` is not the exact better-count, but for any
//! exclusion threshold `k_eff` and verdict cap `cap ≤ k_eff` it
//! satisfies `c ≥ cap ⟺ exact ≥ cap`: if `exact ≥ cap`, order the
//! better-set by dominance — a masked point needs `k_eff` strict
//! predecessors, so the first `min(|B|, k_eff) ≥ cap` points of the
//! order are unmasked and still counted. Exact-rank and enumeration
//! paths must never consult the mask.
//!
//! ## Lifecycle under mutation
//!
//! The mask describes one *base epoch* — it is built from the bulk-loaded
//! tree and shared immutably until compaction rebuilds the base.
//! Appends never join the mask (delta rows are corrected separately and
//! can only add dominators, which keeps exclusions sound). Deletes are
//! absorbed by inflating the exclusion threshold: with `D` tombstones,
//! a point excluded at `k_eff = cap + D` still has at least `cap` live
//! dominators, so callers pass `k_eff = cap + tombstone_count` and fall
//! back to the unmasked path when that exceeds the build cap.

use crate::tree::RTree;
use std::sync::atomic::{AtomicU64, Ordering};
use wqrtq_geom::{dominates, FlatPoints};

/// Default saturation cap for dominator counts: generous against any
/// realistic `k + tombstones` while keeping the count storage at u16.
pub const DEFAULT_DOMINANCE_CAP: u16 = 1024;

/// Skyband thresholds of the nested culprit planes: one compact
/// [`FlatPoints`] per tier, holding every point with fewer than that
/// many dominators. A capped verdict picks the smallest tier at or
/// above its cap — small caps (the common `k ≈ 10` regime) scan the
/// tight inner skyband instead of the full outer one, and the middle
/// tier absorbs the cap inflation view verdicts pay per tombstone.
pub const CULPRIT_PLANE_TIERS: [u16; 3] = [10, 32, 128];

/// Exclusion-threshold ceiling of the culprit planes (the largest
/// tier): verdicts with caps above this fall back to masked probes.
pub const CULPRIT_PLANE_K: u16 = 128;

/// Largest fraction of the dataset the culprit plane may hold (as a
/// denominator): above `n / PLANE_MAX_FRACTION` points the plane would
/// barely shrink the scan while doubling resident coordinates, so the
/// build skips it and callers fall back to masked tree probes.
const PLANE_MAX_FRACTION: usize = 4;

/// Immutable dominator-count index over one tree's points (one base
/// epoch). Cheap to share (`Arc`) across serving workers; the only
/// mutable state is the relaxed skip counter.
#[derive(Debug)]
pub struct DominanceIndex {
    /// `counts[id]` = number of points strictly dominating point `id`,
    /// saturated at `cap`.
    counts: Vec<u16>,
    /// Minimum of `counts` over each tree node's subtree, indexed by
    /// node arena slot (parallel to the tree it was built from).
    node_min: Vec<u16>,
    cap: u16,
    /// Nested culprit planes, ascending by skyband threshold: each entry
    /// `(t, plane)` is a clustered [`FlatPoints`] over the `t`-skyband
    /// (every point with fewer than `t` dominators). Tiers whose skyband
    /// would exceed a quarter of the dataset are dropped (high
    /// dimensions / tiny sets), where a compact scan stops paying for
    /// itself; verdicts then fall back to masked tree probes.
    planes: Vec<(u16, FlatPoints)>,
    /// Points skipped by masked traversals since build (telemetry).
    skips: AtomicU64,
}

impl DominanceIndex {
    /// Builds the index with [`DEFAULT_DOMINANCE_CAP`].
    pub fn build(tree: &RTree) -> Self {
        Self::build_with_cap(tree, DEFAULT_DOMINANCE_CAP)
    }

    /// Builds the index, saturating per-point dominator counts at `cap`.
    ///
    /// Three steps (see the module docs): certify whole subtrees from
    /// one capped probe of their MBR's lower corner, restrict to the
    /// points of the leaves left open, and count those against each
    /// other with sorted-prefix bitsets — `O(nodes · probe + d · m² / 64)`
    /// time and `O(m)` scratch for `m` open points.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn build_with_cap(tree: &RTree, cap: u16) -> Self {
        assert!(cap > 0, "dominance cap must be positive");
        let slots = tree.ids.iter().max().map_or(0, |&m| m as usize + 1);
        let mut counts = vec![0u16; slots];
        // Saturated unless the point turns out to sit in an open leaf.
        tree.ids.iter().for_each(|&id| counts[id as usize] = cap);
        count_open_points(tree, &open_leaves(tree, cap), cap, &mut counts);
        let node_min = node_min(tree, &counts);
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
        Self {
            counts,
            node_min,
            cap,
            planes,
            skips: AtomicU64::new(0),
        }
    }

    /// The saturation cap the counts were built with.
    #[inline]
    pub fn cap(&self) -> u16 {
        self.cap
    }

    /// Per-point dominator counts (saturated), indexed by point id —
    /// the raw slice consumed by the flat masked kernels.
    #[inline]
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }

    /// Whether exclusion at `k_eff` is sound against the saturated
    /// counts: a stored count of `cap` only certifies "≥ cap"
    /// dominators, so thresholds above the cap must use the unmasked
    /// path.
    #[inline]
    pub fn usable_for(&self, k_eff: usize) -> bool {
        k_eff > 0 && k_eff <= self.cap as usize
    }

    /// Whether point `id` is excluded at threshold `k_eff` (has at
    /// least `k_eff` strict dominators). Ids outside the built range
    /// are never excluded.
    #[inline]
    pub fn is_excluded(&self, id: u32, k_eff: usize) -> bool {
        self.counts
            .get(id as usize)
            .is_some_and(|&c| (c as usize) >= k_eff)
    }

    /// Whether every point under `node` is excluded at `k_eff`.
    #[inline]
    pub(crate) fn node_excluded(&self, node: u32, k_eff: usize) -> bool {
        (self.node_min[node as usize] as usize) >= k_eff
    }

    /// Number of tree nodes this index was built over (must match the
    /// tree it is consulted with).
    #[inline]
    pub(crate) fn node_slots(&self) -> usize {
        self.node_min.len()
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
        self.note_skips((self.counts.len() - plane.len()) as u64);
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

    /// Points skipped by masked traversals since build.
    pub fn skips(&self) -> u64 {
        self.skips.load(Ordering::Relaxed)
    }

    /// Folds one traversal's skip tally into the cumulative counter.
    #[inline]
    pub(crate) fn note_skips(&self, n: u64) {
        if n > 0 {
            self.skips.fetch_add(n, Ordering::Relaxed);
        }
    }
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

/// Minimum dominator count per subtree, bottom-up: children always
/// precede their parent in the arena.
fn node_min(tree: &RTree, counts: &[u16]) -> Vec<u16> {
    let mut node_min = Vec::with_capacity(tree.node_count());
    for node in 0..tree.node_count() as u32 {
        let range = tree.range(node);
        let m = if tree.is_leaf(node) {
            tree.ids[range].iter().map(|&i| counts[i as usize]).min()
        } else {
            node_min[range].iter().copied().min()
        };
        node_min.push(m.unwrap_or(u16::MAX));
    }
    node_min
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
            let dom = DominanceIndex::build(&tree);
            let brute = brute_counts(&pts, dim);
            for (id, &b) in brute.iter().enumerate() {
                assert_eq!(
                    dom.counts()[id] as usize,
                    b.min(DEFAULT_DOMINANCE_CAP as usize),
                    "dim {dim} id {id}"
                );
            }
        }
    }

    #[test]
    fn duplicates_do_not_dominate_each_other() {
        // 300 copies of one point: nobody dominates anybody, so nothing
        // may ever be masked (the acyclicity that keeps ties sound).
        let pts: Vec<f64> = (0..300).flat_map(|_| [5.0, 5.0]).collect();
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build(&tree);
        assert!(dom.counts().iter().all(|&c| c == 0));
        assert!(!dom.is_excluded(0, 1));
    }

    #[test]
    fn saturation_respects_cap_and_usability() {
        let mut pts = vec![0.0, 0.0]; // dominates everything below
        pts.extend(scatter(500, 2, 3).iter().map(|x| x + 1.0));
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build_with_cap(&tree, 4);
        assert_eq!(dom.cap(), 4);
        assert!(dom.counts().iter().all(|&c| c <= 4));
        assert!(dom.usable_for(1) && dom.usable_for(4));
        assert!(!dom.usable_for(5) && !dom.usable_for(0));
        // The origin point dominates ≥ 4 others? No — it is dominated by
        // nobody; everything else is dominated by it.
        assert_eq!(dom.counts()[0], 0);
        assert!(dom.counts()[1..].iter().all(|&c| c >= 1));
    }

    #[test]
    fn node_min_is_a_lower_bound_everywhere() {
        let pts = scatter(600, 3, 11);
        let tree = RTree::bulk_load_with_fanout(3, &pts, 8);
        let dom = DominanceIndex::build(&tree);
        // Walk every node and check min(counts of subtree) == node_min.
        fn subtree_min(tree: &RTree, node: u32, counts: &[u16]) -> u16 {
            let range = tree.range(node);
            if tree.is_leaf(node) {
                tree.ids[range]
                    .iter()
                    .map(|&i| counts[i as usize])
                    .min()
                    .unwrap()
            } else {
                let children = range.map(|c| subtree_min(tree, c as u32, counts));
                children.min().unwrap()
            }
        }
        for node in 0..tree.node_count() as u32 {
            let want = subtree_min(&tree, node, dom.counts());
            assert_eq!(dom.node_min[node as usize], want, "node {node}");
        }
        assert_eq!(dom.node_slots(), tree.node_count());
    }

    #[test]
    fn masked_probe_matches_unmasked_with_ties() {
        let mut pts = scatter(900, 2, 5);
        // Inject exact duplicates (tie territory).
        let dup: Vec<f64> = pts[..40].to_vec();
        pts.extend_from_slice(&dup);
        let tree = RTree::bulk_load_with_fanout(2, &pts, 8);
        let dom = DominanceIndex::build(&tree);
        let mut scratch = crate::ProbeScratch::new();
        for wraw in [[0.2, 0.8], [0.5, 0.5], [0.85, 0.15]] {
            for qi in (0..pts.len() / 2).step_by(37) {
                let q = &pts[qi * 2..qi * 2 + 2];
                let t = score(&wraw, q);
                for k in [1usize, 3, 10] {
                    let plain = tree.probe_topk_membership(&wraw, t, k, &mut scratch, None);
                    let masked =
                        tree.probe_topk_membership_masked(&wraw, t, k, k, &dom, &mut scratch, None);
                    assert_eq!(masked.in_topk, plain.in_topk, "w {wraw:?} q {q:?} k {k}");
                }
            }
        }
        assert!(dom.skips() > 0, "the mask should have skipped something");
    }

    #[test]
    fn empty_tree_builds_empty_index() {
        let tree = RTree::bulk_load_with_fanout(3, &[], 8);
        let dom = DominanceIndex::build(&tree);
        assert!(dom.counts().is_empty());
        assert!(!dom.is_excluded(0, 1));
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
        assert!(dom.skips() > 0, "plane verdicts should report skips");
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
        // The two shapes `rtopk_scan` sets up: uniform 100k×3 and
        // anti-correlated 50k×5 (every point near the plane Σx = d/2).
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
            let dom = DominanceIndex::build(&tree);
            let mut stack = Vec::new();
            tree.for_each_point(|id, p| {
                let probed = count_dominators_capped(&tree, p, dom.cap() as usize, &mut stack);
                assert_eq!(dom.counts()[id as usize], probed, "dim {dim} id {id}");
            });
        }
    }
}
