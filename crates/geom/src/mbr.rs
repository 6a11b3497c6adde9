//! Minimum bounding rectangles (MBRs) for R-tree nodes: the form in
//! which `RTree::validate` reads a node's corners to check containment.
//! The tree stores its corners column-wise and computes its own
//! sign-aware score bounds from them.

/// An axis-aligned minimum bounding rectangle `[lo, hi]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbr {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Mbr {
    /// Creates an MBR from explicit corners.
    ///
    /// # Panics
    /// Panics if dimensions mismatch, are empty, or `lo[i] > hi[i]`.
    pub fn new(lo: impl Into<Vec<f64>>, hi: impl Into<Vec<f64>>) -> Self {
        let lo: Vec<f64> = lo.into();
        let hi: Vec<f64> = hi.into();
        assert_eq!(lo.len(), hi.len(), "corner dimension mismatch");
        assert!(!lo.is_empty(), "MBR needs at least one dimension");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "lower corner must not exceed upper corner"
        );
        Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// An "empty" placeholder that becomes valid after the first
    /// [`Mbr::expand`]: `lo = +∞`, `hi = −∞`.
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            lo: vec![f64::INFINITY; dim].into_boxed_slice(),
            hi: vec![f64::NEG_INFINITY; dim].into_boxed_slice(),
        }
    }

    /// Whether this MBR is still the empty placeholder.
    pub fn is_empty(&self) -> bool {
        self.lo.iter().any(|l| !l.is_finite())
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Grows the MBR to cover `p`.
    pub fn expand(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dim(), "dimension mismatch");
        for ((l, h), &x) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(p) {
            if x < *l {
                *l = x;
            }
            if x > *h {
                *h = x;
            }
        }
    }

    /// Grows the MBR to cover another MBR.
    pub fn union(&mut self, other: &Mbr) {
        self.expand(&other.lo);
        self.expand(&other.hi);
    }

    /// Hyper-volume (0 for degenerate boxes).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// Whether the point lies inside (closed) the MBR.
    pub fn contains(&self, p: &[f64]) -> bool {
        assert_eq!(p.len(), self.dim(), "dimension mismatch");
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(p)
            .all(|((l, h), x)| *l <= *x && *x <= *h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Mbr::new(vec![0.0, 1.0], vec![2.0, 3.0]);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.lo(), &[0.0, 1.0]);
        assert_eq!(m.hi(), &[2.0, 3.0]);
        assert_eq!(m.area(), 4.0);
    }

    #[test]
    #[should_panic(expected = "lower corner")]
    fn inverted_corners_panic() {
        let _ = Mbr::new(vec![2.0], vec![1.0]);
    }

    #[test]
    fn empty_then_expand() {
        let mut m = Mbr::empty(2);
        assert!(m.is_empty());
        m.expand(&[1.0, 5.0]);
        assert!(!m.is_empty());
        assert_eq!(m.lo(), &[1.0, 5.0]);
        m.expand(&[3.0, 2.0]);
        assert_eq!(m.lo(), &[1.0, 2.0]);
        assert_eq!(m.hi(), &[3.0, 5.0]);
    }

    #[test]
    fn union_covers_both() {
        let a = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Mbr::new(vec![2.0, -1.0], vec![3.0, 0.5]);
        let mut u = a.clone();
        u.union(&b);
        assert_eq!(u.lo(), &[0.0, -1.0]);
        assert_eq!(u.hi(), &[3.0, 1.0]);
    }
}
