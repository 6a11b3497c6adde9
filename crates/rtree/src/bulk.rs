//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs `n` points into `⌈n / fanout⌉` leaves by recursively sorting
//! on each dimension and slicing into `⌈L^(1/d)⌉` slabs, producing compact,
//! low-overlap leaves. Upper levels are built by packing consecutive runs
//! of the (spatially ordered) lower level, up to the root — so every
//! node's children are consecutive ids and the pass writes the arena
//! directly.

use crate::tree::RTree;

/// Builds an [`RTree`] over the flat `n × dim` coordinate buffer.
///
/// # Panics
/// Panics if `dim == 0`, `fanout < 4`, or the buffer length is not a
/// multiple of `dim`.
pub fn str_bulk_load(dim: usize, points: &[f64], fanout: usize) -> RTree {
    assert!(dim > 0, "dimension must be positive");
    assert!(fanout >= 4, "fanout must be at least 4");
    assert_eq!(points.len() % dim, 0, "coordinate buffer length mismatch");
    let n = points.len() / dim;

    // Order point indices with recursive sort-tile slicing; the store
    // holds the rows in that order, so leaf `i` is rows
    // `[i · fanout, (i + 1) · fanout)`.
    let mut ids: Vec<u32> = (0..n as u32).collect();
    str_order(points, dim, fanout, &mut ids, 0);
    let mut coords = Vec::with_capacity(points.len());
    for &id in &ids {
        coords.extend_from_slice(&points[id as usize * dim..(id as usize + 1) * dim]);
    }

    let leaves = n.div_ceil(fanout);
    let mut nodes = leaves;
    let mut level = leaves;
    while level > 1 {
        level = level.div_ceil(fanout);
        nodes += level;
    }
    let mut span = Vec::with_capacity(nodes);
    let mut count = Vec::with_capacity(nodes);
    for first in (0..n).step_by(fanout) {
        let end = (first + fanout).min(n);
        span.push((first as u32, end as u32));
        count.push(end - first);
    }
    // Upper levels: consecutive runs of the level below, up to the root.
    let mut below = 0..leaves;
    while below.len() > 1 {
        let start = span.len();
        for first in below.clone().step_by(fanout) {
            let end = (first + fanout).min(below.end);
            span.push((first as u32, end as u32));
            count.push(count[first..end].iter().sum());
        }
        below = start..span.len();
    }

    // Corners, column-wise, grown exactly like `Mbr::expand` / `union`
    // (first-seen wins on `±0` ties): a leaf over its rows in order, an
    // internal node over each child's lower then upper corner.
    let mut lo = vec![f64::INFINITY; dim * nodes];
    let mut hi = vec![f64::NEG_INFINITY; dim * nodes];
    for d in 0..dim {
        let col = d * nodes;
        for (node, &(first, end)) in span.iter().enumerate() {
            let (mut l, mut h) = (lo[col + node], hi[col + node]);
            let mut grow = |x: f64| {
                if x < l {
                    l = x;
                }
                if x > h {
                    h = x;
                }
            };
            if node < leaves {
                (first..end).for_each(|row| grow(coords[row as usize * dim + d]));
            } else {
                for c in first as usize..end as usize {
                    grow(lo[col + c]);
                    grow(hi[col + c]);
                }
            }
            (lo[col + node], hi[col + node]) = (l, h);
        }
    }

    RTree {
        dim,
        fanout,
        leaves,
        count,
        span,
        lo,
        hi,
        ids,
        coords,
    }
}

/// Recursively orders `order[..]` so that consecutive runs of `fanout`
/// indices form spatially compact tiles.
fn str_order(points: &[f64], dim: usize, fanout: usize, order: &mut [u32], axis: usize) {
    let n = order.len();
    if n <= fanout {
        return;
    }
    order.sort_unstable_by(|&a, &b| {
        let va = points[a as usize * dim + axis];
        let vb = points[b as usize * dim + axis];
        va.total_cmp(&vb)
    });
    if axis + 1 == dim {
        return; // final axis: chunking happens at the caller
    }
    // Number of slabs along this axis: S = ⌈L^(1/(d−axis))⌉ with
    // L = ⌈n / fanout⌉ leaves remaining.
    let leaves = n.div_ceil(fanout) as f64;
    let remaining = (dim - axis) as f64;
    let slabs = leaves.powf(1.0 / remaining).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        str_order(points, dim, fanout, &mut order[start..end], axis + 1);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize, dim: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * dim);
        let mut state = 42u64;
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        v
    }

    #[test]
    fn empty_input_gives_empty_tree() {
        let t = str_bulk_load(2, &[], 8);
        assert!(t.is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn single_point() {
        let t = str_bulk_load(3, &[1.0, 2.0, 3.0], 8);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn exact_fanout_boundary() {
        // n == fanout → one leaf; n == fanout + 1 → needs two leaves + root.
        let pts = scatter(8, 2);
        let t = str_bulk_load(2, &pts, 8);
        assert_eq!(t.node_count(), 1);
        let pts9 = scatter(9, 2);
        let t9 = str_bulk_load(2, &pts9, 8);
        assert!(t9.node_count() >= 3);
        t9.validate().unwrap();
    }

    #[test]
    fn leaves_tile_space_with_low_overlap() {
        // STR on a uniform grid should produce leaves whose total area is
        // close to the root area (little overlap).
        let mut pts = Vec::new();
        for x in 0..32 {
            for y in 0..32 {
                pts.extend([x as f64, y as f64]);
            }
        }
        let t = str_bulk_load(2, &pts, 16);
        t.validate().unwrap();
        let root_area = t.mbr(t.root()).area();
        let leaf_area: f64 = (0..t.leaves as u32).map(|l| t.mbr(l).area()).sum();
        assert!(
            leaf_area < 1.5 * root_area,
            "leaf area {leaf_area} vs root {root_area}"
        );
    }

    #[test]
    fn high_dimensional_bulk_load() {
        let pts = scatter(500, 13); // NBA-like dimensionality
        let t = str_bulk_load(13, &pts, 32);
        assert_eq!(t.len(), 500);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_buffer_panics() {
        let _ = str_bulk_load(2, &[1.0, 2.0, 3.0], 8);
    }
}
