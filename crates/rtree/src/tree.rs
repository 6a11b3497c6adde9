//! The R-tree container: one frozen arena, statistics, invariants.

use crate::bulk;
use crate::DEFAULT_FANOUT;
use std::ops::Range;
use wqrtq_geom::Mbr;

/// A d-dimensional R-tree over `(u32, point)` entries, bulk-loaded once
/// with Sort-Tile-Recursive packing ([`RTree::bulk_load`]) and never
/// mutated; an empty tree is the bulk load of an empty slice.
///
/// The storage is one arena. Nodes `0..leaves` are the leaves in STR
/// order, followed by each upper level bottom-up, the root last. A node
/// is a point count and a `[first, end)` range: child node ids for an
/// internal node, rows of the leaf-ordered point store for a leaf. The
/// node corners are stored column-wise (`lo[d · nodes + node]`), so
/// bounding a node's children is one contiguous pass per dimension.
#[derive(Clone, Debug)]
pub struct RTree {
    pub(crate) dim: usize,
    pub(crate) fanout: usize,
    /// Number of leaves (the node ids `0..leaves`).
    pub(crate) leaves: usize,
    /// Points under each node.
    pub(crate) count: Vec<usize>,
    /// `[first, end)` of each node: children or store rows.
    pub(crate) span: Vec<(u32, u32)>,
    /// Lower corners, column-wise.
    pub(crate) lo: Vec<f64>,
    /// Upper corners, column-wise.
    pub(crate) hi: Vec<f64>,
    /// Point ids in leaf order.
    pub(crate) ids: Vec<u32>,
    /// Row-major coordinates in leaf order, parallel to `ids`.
    pub(crate) coords: Vec<f64>,
}

impl RTree {
    /// Bulk loads a dataset with Sort-Tile-Recursive packing and the
    /// default fanout. `points` is a flat row-major buffer of
    /// `n × dim` coordinates; point `i` gets id `i as u32`.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn bulk_load(dim: usize, points: &[f64]) -> Self {
        Self::bulk_load_with_fanout(dim, points, DEFAULT_FANOUT)
    }

    /// [`RTree::bulk_load`] with an explicit fanout.
    pub fn bulk_load_with_fanout(dim: usize, points: &[f64], fanout: usize) -> Self {
        bulk::str_bulk_load(dim, points, fanout)
    }

    /// Dimensionality of the indexed points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of nodes (the paper's `|RT|` cost factor).
    pub fn node_count(&self) -> usize {
        self.count.len()
    }

    /// Height of the tree (1 for a single leaf, 0 when empty).
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut level = self.leaves;
        while level > 0 {
            h += 1;
            level = if level == 1 {
                0
            } else {
                level.div_ceil(self.fanout)
            };
        }
        h
    }

    /// The id and coordinates of the point at row `row` of the
    /// leaf-ordered store (the rows [`RTree::topk_into`] reports).
    #[inline]
    pub fn point(&self, row: usize) -> (u32, &[f64]) {
        (self.ids[row], self.row(row))
    }

    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[f64] {
        &self.coords[row * self.dim..(row + 1) * self.dim]
    }

    /// The root's node id (the tree must not be empty).
    #[inline]
    pub(crate) fn root(&self) -> u32 {
        (self.node_count() - 1) as u32
    }

    #[inline]
    pub(crate) fn is_leaf(&self, node: u32) -> bool {
        (node as usize) < self.leaves
    }

    /// A node's children (internal) or store rows (leaf).
    #[inline]
    pub(crate) fn range(&self, node: u32) -> Range<usize> {
        let (first, end) = self.span[node as usize];
        first as usize..end as usize
    }

    /// The corner column bounding `wd · x` over a node from below: `lo`
    /// for a non-negative weight entry (`−0.0` included), `hi` for a
    /// negative one — the other way round from above (`upper`). Rounded
    /// products and sums are monotone, so these columns scored in
    /// [`wqrtq_geom::score`]'s operation order bound every computed
    /// point score of the subtree.
    #[inline]
    fn corner(&self, wd: f64, upper: bool) -> &[f64] {
        if (wd < 0.0) != upper {
            &self.hi
        } else {
            &self.lo
        }
    }

    /// `f(w, ·)` of a node's bounding corner (see `corner`).
    #[inline]
    fn corner_score(&self, node: u32, w: &[f64], upper: bool) -> f64 {
        let n = self.node_count();
        let mut s = w[0] * self.corner(w[0], upper)[node as usize];
        for (d, &wd) in w.iter().enumerate().skip(1) {
            s += wd * self.corner(wd, upper)[d * n + node as usize];
        }
        s
    }

    /// Lower bound on `f(w, p)` over the subtree.
    #[inline]
    pub(crate) fn min_score(&self, node: u32, w: &[f64]) -> f64 {
        self.corner_score(node, w, false)
    }

    /// Upper bound on `f(w, p)` over the subtree.
    #[inline]
    pub(crate) fn max_score(&self, node: u32, w: &[f64]) -> f64 {
        self.corner_score(node, w, true)
    }

    /// The lower bounds of an internal node's children under `w`, one
    /// contiguous pass over each corner column, into `out`.
    pub(crate) fn child_bounds(&self, node: u32, w: &[f64], out: &mut Vec<f64>) {
        let n = self.node_count();
        let children = self.range(node);
        out.clear();
        let first = &self.corner(w[0], false)[children.clone()];
        out.extend(first.iter().map(|&x| w[0] * x));
        for (d, &wd) in w.iter().enumerate().skip(1) {
            let col = &self.corner(wd, false)[d * n + children.start..d * n + children.end];
            out.iter_mut().zip(col).for_each(|(s, &x)| *s += wd * x);
        }
    }

    /// One corner of a node as a row.
    pub(crate) fn corner_into(&self, corner: &[f64], node: u32, out: &mut [f64]) {
        let n = self.node_count();
        for (d, x) in out.iter_mut().enumerate() {
            *x = corner[d * n + node as usize];
        }
    }

    pub(crate) fn mbr(&self, node: u32) -> Mbr {
        let mut lo = vec![0.0; self.dim];
        let mut hi = vec![0.0; self.dim];
        self.corner_into(&self.lo, node, &mut lo);
        self.corner_into(&self.hi, node, &mut hi);
        Mbr::new(lo, hi)
    }

    /// Visits every `(id, coords)` pair in depth-first order (the last
    /// child first).
    pub fn for_each_point(&self, mut f: impl FnMut(u32, &[f64])) {
        if self.is_empty() {
            return;
        }
        let mut stack = vec![self.root()];
        while let Some(node) = stack.pop() {
            if self.is_leaf(node) {
                for row in self.range(node) {
                    f(self.ids[row], self.row(row));
                }
            } else {
                stack.extend(self.range(node).map(|c| c as u32));
            }
        }
    }

    /// Checks every structural invariant; returns a description of the
    /// first violation. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let nodes = self.node_count();
        if self.coords.len() != self.len() * self.dim {
            return Err("coords length mismatch".into());
        }
        if nodes == 0 {
            return if self.is_empty() {
                Ok(())
            } else {
                Err("points without nodes".into())
            };
        }
        let mut rows = 0;
        for node in 0..nodes as u32 {
            let range = self.range(node);
            if range.is_empty() || range.len() > self.fanout {
                return Err(format!("node {node} has {} entries", range.len()));
            }
            let mbr = self.mbr(node);
            let count = if self.is_leaf(node) {
                if range.start != rows {
                    return Err(format!("leaf {node} does not follow its predecessor"));
                }
                rows = range.end;
                for row in range.clone() {
                    if !mbr.contains(self.row(row)) {
                        return Err(format!("leaf {node} MBR misses row {row}"));
                    }
                }
                range.len()
            } else {
                let mut sum = 0;
                for c in range.map(|c| c as u32) {
                    if c >= node {
                        return Err(format!("internal {node} links forward to {c}"));
                    }
                    let cm = self.mbr(c);
                    if !mbr.contains(cm.lo()) || !mbr.contains(cm.hi()) {
                        return Err(format!("internal {node} MBR misses child {c}"));
                    }
                    sum += self.count[c as usize];
                }
                sum
            };
            if count != self.count[node as usize] {
                return Err(format!(
                    "node {node} count {} != {count}",
                    self.count[node as usize]
                ));
            }
        }
        if rows != self.len() || self.count[self.root() as usize] != self.len() {
            return Err(format!("len {} != indexed rows {rows}", self.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_points(n: usize, dim: usize) -> Vec<f64> {
        // Deterministic pseudo-random scatter without external deps.
        let mut v = Vec::with_capacity(n * dim);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..n * dim {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 100.0);
        }
        v
    }

    #[test]
    fn empty_tree_properties() {
        let t = RTree::bulk_load_with_fanout(3, &[], 8);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.node_count(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn bulk_load_and_validate() {
        let pts = grid_points(1000, 3);
        let t = RTree::bulk_load_with_fanout(3, &pts, 16);
        assert_eq!(t.len(), 1000);
        t.validate().unwrap();
        // Every original point must be present with its id.
        let mut seen = vec![false; 1000];
        t.for_each_point(|id, c| {
            assert_eq!(c, &pts[id as usize * 3..id as usize * 3 + 3]);
            seen[id as usize] = true;
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bulk_load_small_dataset_is_single_leaf() {
        let pts = grid_points(5, 2);
        let t = RTree::bulk_load_with_fanout(2, &pts, 16);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn duplicate_coordinates_are_fine() {
        let pts: Vec<f64> = (0..50).flat_map(|_| [1.0, 1.0]).collect();
        let t = RTree::bulk_load_with_fanout(2, &pts, 4);
        assert_eq!(t.len(), 50);
        t.validate().unwrap();
    }

    #[test]
    fn height_grows_logarithmically() {
        let pts = grid_points(4096, 2);
        let t = RTree::bulk_load_with_fanout(2, &pts, 8);
        // 4096 points at fanout 8: ≥ 512 leaves → height ≥ 4.
        assert!(t.height() >= 4, "height = {}", t.height());
        assert!(t.height() <= 7, "height = {}", t.height());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn invariants_hold_for_bulk_loads(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0), 1..400),
            fanout in 4usize..32,
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b, c)| [*a, *b, *c]).collect();
            let t = RTree::bulk_load_with_fanout(3, &flat, fanout);
            prop_assert_eq!(t.len(), pts.len());
            prop_assert!(t.validate().is_ok());
        }
    }
}
