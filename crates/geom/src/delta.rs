//! The delta-overlay dataset snapshot: a bulk-built base plus a small
//! mutable tail, served without rebuilding anything.
//!
//! A live dataset is a *base* (the column-major [`FlatPoints`] mirror of
//! whatever the R-tree was bulk-loaded from) plus one [`Overlay`]: rows
//! **appended** since the base was built and base rows **tombstoned**
//! since, two small row-major sets. The overlay is the one home of those
//! buffers, the mutations that change them, their invariants
//! ([`Overlay::try_new`]) and the canonical merge ([`Overlay::merge`]);
//! a [`DeltaView`] pairs it with its base as an immutable, cheaply
//! clonable snapshot. Every rank primitive decomposes over that exactly:
//!
//! ```text
//! |{live p : f(w, p) < t}| = base_count(t) − dead_count(t) + delta_count(t)
//! ```
//!
//! where `base_count` is the fused [`FlatPoints::count_better_than`]
//! kernel (or an R-tree probe — the view never assumes which engine
//! counted the base) and the two corrections are
//! [`count_better_rows`] sweeps over buffers of overlay size `O(Δ)`.
//! Compaction only bounds `Δ` (the engine's default lets it reach
//! `max(1024, base/4)` rows), so a mutated dataset answers queries at
//! base cost plus two linear sweeps per threshold — at the bound those
//! sweeps, not the base probe, are most of a rank or RTA verdict — and
//! answers them **identically** to a dataset rebuilt from scratch, which
//! is the invariant the engine's differential fuzz enforces.
//!
//! ## Point identity
//!
//! Base rows keep the ids they were bulk-loaded with (`0..base_len`);
//! appended rows get the next ids in append order and keep them even
//! when earlier appended rows are deleted. Ids are scoped to one base
//! epoch: compaction rebuilds the base in the merge's *canonical order*
//! — surviving base rows ascending by id, then surviving appended rows
//! in append order — and re-assigns dense ids.

use crate::flat::{count_better_rows, FlatPoints};
use std::fmt;
use std::sync::Arc;

/// Why overlay parts or a mutation were refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayError {
    /// A row buffer does not hold whole rows of the dimensionality.
    Ragged {
        /// Dimensionality.
        dim: usize,
        /// Offending buffer length.
        len: usize,
    },
    /// Delta ids are not strictly ascending within
    /// `[base_len, base_len + appends)`, or that range passes `u32::MAX`.
    DeltaIds,
    /// Tombstone ids are not strictly ascending within `[0, base_len)`.
    TombstoneIds,
    /// An append would allocate an id past `u32::MAX`.
    Full,
    /// A delete names an id that is not live, or names one twice.
    NotLive(u32),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Ragged { dim, len } => write!(f, "ragged rows: {len} values at dimension {dim}"),
            Self::DeltaIds => f.write_str("delta ids must ascend within the allocated range"),
            Self::TombstoneIds => f.write_str("tombstones name base rows only, ascending"),
            Self::Full => f.write_str("the u32 point-id space is exhausted"),
            Self::NotLive(id) => write!(f, "point id {id} is not live"),
        }
    }
}

impl std::error::Error for OverlayError {}

/// The mutable tail of one base generation: live appended rows,
/// tombstoned base rows, and the monotone counters an epoch reads. The
/// buffers are copy-on-write `Arc`s (a mutation copies one only while a
/// clone holds it), and every value keeps [`Overlay::try_new`]'s rules.
#[derive(Clone, Debug)]
pub struct Overlay {
    dim: usize,
    base_len: usize,
    /// Rows appended since the base was built (monotone; also the id
    /// allocator — the next appended row gets id `base_len + appends`).
    appends: u64,
    /// Rows deleted since the base was built (monotone).
    deletes: u64,
    /// Row-major coordinates of live appended rows, in append order.
    delta_rows: Arc<Vec<f64>>,
    /// Ids parallel to `delta_rows`, strictly ascending.
    delta_ids: Arc<Vec<u32>>,
    /// Row-major coordinates of tombstoned base rows.
    dead_rows: Arc<Vec<f64>>,
    /// Ids parallel to `dead_rows`, strictly ascending.
    dead_ids: Arc<Vec<u32>>,
}

impl Overlay {
    /// The empty overlay of a fresh base of `base_len` rows.
    pub fn new(dim: usize, base_len: usize) -> Self {
        Self {
            dim,
            base_len,
            appends: 0,
            deletes: 0,
            delta_rows: Arc::default(),
            delta_ids: Arc::default(),
            dead_rows: Arc::default(),
            dead_ids: Arc::default(),
        }
    }

    /// Assembles an overlay from `(appends, deletes)`, the appended
    /// `(rows, ids)` and the tombstoned `(rows, ids)`, checking every rule
    /// the mutations keep.
    ///
    /// # Errors
    /// [`OverlayError::Ragged`], [`OverlayError::DeltaIds`] or
    /// [`OverlayError::TombstoneIds`]: the first rule the parts break.
    pub fn try_new(
        dim: usize,
        base_len: usize,
        (appends, deletes): (u64, u64),
        (delta_rows, delta_ids): (Arc<Vec<f64>>, Arc<Vec<u32>>),
        (dead_rows, dead_ids): (Arc<Vec<f64>>, Arc<Vec<u32>>),
    ) -> Result<Self, OverlayError> {
        for (rows, ids) in [(&delta_rows, &delta_ids), (&dead_rows, &dead_ids)] {
            if ids.len().checked_mul(dim) != Some(rows.len()) {
                let len = rows.len();
                return Err(OverlayError::Ragged { dim, len });
            }
        }
        let ascend_within = |ids: &[u32], lo: u64, hi: u64| {
            ids.windows(2).all(|w| w[0] < w[1])
                && ids.first().is_none_or(|&id| u64::from(id) >= lo)
                && ids.last().is_none_or(|&id| u64::from(id) < hi)
        };
        let base = base_len as u64;
        if appends > u64::from(u32::MAX).saturating_sub(base)
            || !ascend_within(&delta_ids, base, base + appends)
        {
            return Err(OverlayError::DeltaIds);
        }
        if !ascend_within(&dead_ids, 0, base) {
            return Err(OverlayError::TombstoneIds);
        }
        Ok(Self {
            dim,
            base_len,
            appends,
            deletes,
            delta_rows,
            delta_ids,
            dead_rows,
            dead_ids,
        })
    }

    /// Pairs the overlay with the base it was built over (`base_len`
    /// rows of `dim` coordinates).
    pub fn view(self, base: Arc<FlatPoints>) -> DeltaView {
        debug_assert_eq!((base.dim(), base.len()), (self.dim, self.base_len));
        DeltaView {
            base,
            overlay: self,
        }
    }

    /// Rows appended since the base was built (monotone).
    #[inline]
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Rows deleted since the base was built (monotone).
    #[inline]
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Live appended rows plus tombstones — the size compaction bounds.
    #[inline]
    pub fn len(&self) -> usize {
        self.delta_ids.len() + self.dead_ids.len()
    }

    /// Whether there is nothing to merge.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live points.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.base_len - self.dead_ids.len() + self.delta_ids.len()
    }

    /// The parts [`Overlay::try_new`] takes, borrowed: the appended
    /// `(rows, ids)` and the tombstoned `(rows, ids)`.
    pub fn buffers(&self) -> [(&[f64], &[u32]); 2] {
        [
            (&self.delta_rows, &self.delta_ids),
            (&self.dead_rows, &self.dead_ids),
        ]
    }

    /// Checks an append of row-major `points`: whole rows, with ids left
    /// for all of them. An empty append passes and is no mutation.
    ///
    /// # Errors
    /// [`OverlayError::Ragged`] / [`OverlayError::Full`].
    pub fn check_append(&self, points: &[f64]) -> Result<(), OverlayError> {
        let (dim, len) = (self.dim, points.len());
        if !len.is_multiple_of(dim) {
            return Err(OverlayError::Ragged { dim, len });
        }
        let rows = len.checked_div(dim).unwrap_or(0) as u64;
        if self.base_len as u64 + self.appends + rows > u64::from(u32::MAX) {
            return Err(OverlayError::Full);
        }
        Ok(())
    }

    /// Appends rows [`Overlay::check_append`] accepted, giving them the
    /// next ids in order — in place (amortised `O(rows)`) unless a clone
    /// still holds the buffers, which then keeps the old rows.
    pub fn append(&mut self, points: &[f64]) {
        let next = self.base_len as u64 + self.appends;
        let rows = points.len().checked_div(self.dim).unwrap_or(0) as u64;
        Arc::make_mut(&mut self.delta_rows).extend_from_slice(points);
        Arc::make_mut(&mut self.delta_ids).extend((next..next + rows).map(|id| id as u32));
        self.appends += rows;
    }

    /// Whether `id` names a live row.
    fn is_live(&self, id: u32) -> bool {
        if (id as usize) < self.base_len {
            self.dead_ids.binary_search(&id).is_err()
        } else {
            self.delta_ids.binary_search(&id).is_ok()
        }
    }

    /// Checks a delete, all or nothing, and returns its victims sorted
    /// ascending. An empty delete passes with no victims.
    ///
    /// # Errors
    /// [`OverlayError::NotLive`] naming the first id (in call order)
    /// that is unknown or already deleted, else the least id named twice.
    pub fn check_delete(&self, ids: &[u32]) -> Result<Vec<u32>, OverlayError> {
        if let Some(&id) = ids.iter().find(|&&id| !self.is_live(id)) {
            return Err(OverlayError::NotLive(id));
        }
        let mut victims = ids.to_vec();
        victims.sort_unstable();
        match victims.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(OverlayError::NotLive(w[0])),
            None => Ok(victims),
        }
    }

    /// Deletes the victims [`Overlay::check_delete`] returned: appended
    /// rows are dropped, base rows tombstoned (their coordinates read
    /// through `base_row`, as in [`Overlay::merge`]) — one pass over each
    /// buffer.
    pub fn delete(&mut self, victims: &[u32], base_row: impl Fn(usize, &mut [f64])) {
        let dim = self.dim;
        let (base, delta) =
            victims.split_at(victims.partition_point(|&id| (id as usize) < self.base_len));
        if !delta.is_empty() {
            let keep = self.delta_ids.len() - delta.len();
            let (mut rows, mut ids) = (Vec::with_capacity(keep * dim), Vec::with_capacity(keep));
            for (pos, &id) in self.delta_ids.iter().enumerate() {
                if delta.binary_search(&id).is_err() {
                    ids.push(id);
                    rows.extend_from_slice(&self.delta_rows[pos * dim..(pos + 1) * dim]);
                }
            }
            (self.delta_rows, self.delta_ids) = (Arc::new(rows), Arc::new(ids));
        }
        if !base.is_empty() {
            // Merge the two ascending runs, copying old tombstones in bulk.
            let (old, total) = (&self.dead_ids, self.dead_ids.len() + base.len());
            let (mut rows, mut ids) = (Vec::with_capacity(total * dim), Vec::with_capacity(total));
            let (mut from, mut row) = (0, vec![0.0; dim]);
            for &id in base {
                let to = old.partition_point(|&dead| dead < id);
                ids.extend_from_slice(&old[from..to]);
                rows.extend_from_slice(&self.dead_rows[from * dim..to * dim]);
                base_row(id as usize, &mut row);
                ids.push(id);
                rows.extend_from_slice(&row);
                from = to;
            }
            ids.extend_from_slice(&old[from..]);
            rows.extend_from_slice(&self.dead_rows[from * dim..]);
            (self.dead_rows, self.dead_ids) = (Arc::new(rows), Arc::new(ids));
        }
        self.deletes += victims.len() as u64;
    }

    /// The live rows in **canonical order** — surviving base rows
    /// ascending by id, then appended rows in append order — row-major,
    /// with each row's id: what compaction bulk-loads and a rebuilt
    /// oracle registers. Ids are stable within a base generation only:
    /// the compacted base numbers these rows `0..live` in this order. Base rows are read through `base_row` (row `i`
    /// into a `dim`-long slice), so row-major and [`FlatPoints`] bases
    /// share it.
    pub fn merge(&self, base_row: impl Fn(usize, &mut [f64])) -> (Vec<f64>, Vec<u32>) {
        let live = self.live_len();
        let mut coords = Vec::with_capacity(live * self.dim);
        let mut ids = Vec::with_capacity(live);
        let mut row = vec![0.0; self.dim];
        let mut dead = self.dead_ids.iter().peekable();
        for id in 0..self.base_len as u32 {
            if dead.next_if_eq(&&id).is_none() {
                base_row(id as usize, &mut row);
                coords.extend_from_slice(&row);
                ids.push(id);
            }
        }
        coords.extend_from_slice(&self.delta_rows);
        ids.extend_from_slice(&self.delta_ids);
        (coords, ids)
    }
}

/// An immutable snapshot of a dataset as *base + delta − tombstones*: a
/// base paired with one [`Overlay`], all `Arc`-shared, so a clone for
/// every worker per request is a handful of reference-count bumps.
#[derive(Clone, Debug)]
pub struct DeltaView {
    base: Arc<FlatPoints>,
    overlay: Overlay,
}

impl DeltaView {
    /// A plain (overlay-free) view of a base: no appends, no tombstones.
    pub fn plain(base: Arc<FlatPoints>) -> Self {
        Overlay::new(base.dim(), base.len()).view(base)
    }

    /// Assembles a view from its parts (the allocator taken as the least
    /// one the delta ids allow; a view reads no counter).
    ///
    /// # Panics
    /// Panics with the [`OverlayError`] when [`Overlay::try_new`] refuses
    /// the parts (ragged buffers, or ids outside their ranges).
    pub fn new(
        base: Arc<FlatPoints>,
        delta_rows: Arc<Vec<f64>>,
        delta_ids: Arc<Vec<u32>>,
        dead_rows: Arc<Vec<f64>>,
        dead_ids: Arc<Vec<u32>>,
    ) -> Self {
        let base_len = base.len() as u64;
        let appends = delta_ids
            .last()
            .map_or(0, |&id| (u64::from(id) + 1).saturating_sub(base_len));
        let (delta, dead) = ((delta_rows, delta_ids), (dead_rows, dead_ids));
        match Overlay::try_new(base.dim(), base.len(), (appends, 0), delta, dead) {
            Ok(overlay) => overlay.view(base),
            // lint: allow(no-panic) — the documented `# Panics` contract:
            // a view assembled from inconsistent parts is a caller bug.
            Err(e) => panic!("{e}"),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Number of base rows (live or tombstoned).
    #[inline]
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Number of live appended rows.
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.overlay.delta_ids.len()
    }

    /// Number of live points.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.overlay.live_len()
    }

    /// Whether no live points exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Whether the view carries no overlay at all — the hot-path guard
    /// that lets callers fall through to their plain base kernels.
    #[inline]
    pub fn is_plain(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Row-major coordinates of the live appended rows.
    #[inline]
    pub fn delta_rows(&self) -> &[f64] {
        &self.overlay.delta_rows
    }

    /// Ids of the live appended rows (parallel to
    /// [`DeltaView::delta_rows`]).
    #[inline]
    pub fn delta_ids(&self) -> &[u32] {
        &self.overlay.delta_ids
    }

    /// Sorted ids of the tombstoned base rows.
    #[inline]
    pub fn dead_ids(&self) -> &[u32] {
        &self.overlay.dead_ids
    }

    /// Whether a *base* id is tombstoned (binary search; the overlay is
    /// small by construction, but enumeration paths call this per
    /// candidate).
    #[inline]
    pub fn is_deleted(&self, id: u32) -> bool {
        self.overlay.dead_ids.binary_search(&id).is_ok()
    }

    /// Coordinates of the `i`-th live appended row.
    #[inline]
    pub fn delta_row(&self, i: usize) -> &[f64] {
        let dim = self.dim();
        &self.overlay.delta_rows[i * dim..(i + 1) * dim]
    }

    /// Live appended rows scoring strictly below `threshold` under `w` —
    /// the additive overlay correction.
    #[inline]
    pub fn count_better_delta(&self, w: &[f64], threshold: f64) -> usize {
        count_better_rows(&self.overlay.delta_rows, w, threshold)
    }

    /// Tombstoned base rows scoring strictly below `threshold` under `w`
    /// — the subtractive overlay correction (these rows are still inside
    /// the base index and must be discounted from whatever it reports).
    #[inline]
    pub fn count_better_dead(&self, w: &[f64], threshold: f64) -> usize {
        count_better_rows(&self.overlay.dead_rows, w, threshold)
    }

    /// The live rows in canonical order with their ids — stable within
    /// this base generation, renumbered `0..live` in this order by a
    /// compaction — [`Overlay::merge`] over this view's base.
    pub fn materialize_row_major(&self) -> (Vec<f64>, Vec<u32>) {
        self.overlay.merge(|i, row| self.base.point_into(i, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score;

    /// The paper's Figure 1 dataset (price, heat).
    fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    fn overlaid() -> DeltaView {
        // Base: the 7 paper points. Delete p2 (id 1) and p5 (id 4),
        // append (4.5, 2.0) and (0.5, 0.5) as ids 7 and 8.
        let base = Arc::new(FlatPoints::from_row_major(2, &fig_points()));
        DeltaView::new(
            base,
            Arc::new(vec![4.5, 2.0, 0.5, 0.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![6.0, 3.0, 7.0, 5.0]),
            Arc::new(vec![1, 4]),
        )
    }

    /// The live rows of `overlaid()`, in canonical order.
    fn live_rows() -> Vec<f64> {
        vec![
            2.0, 1.0, 1.0, 9.0, 9.0, 3.0, 5.0, 8.0, 3.0, 7.0, 4.5, 2.0, 0.5, 0.5,
        ]
    }

    #[test]
    fn plain_view_has_no_corrections() {
        let base = Arc::new(FlatPoints::from_row_major(2, &fig_points()));
        let v = DeltaView::plain(base);
        assert!(v.is_plain());
        assert_eq!(v.live_len(), 7);
        let w = [0.1, 0.9];
        assert_eq!(v.count_better_delta(&w, 100.0), 0);
        assert_eq!(v.count_better_dead(&w, 100.0), 0);
    }

    #[test]
    fn overlay_counts_match_live_scan() {
        let v = overlaid();
        assert!(!v.is_plain());
        assert_eq!(v.base_len(), 7);
        assert_eq!(v.delta_len(), 2);
        assert_eq!(v.dead_ids().len(), 2);
        assert_eq!(v.live_len(), 7);
        let live = live_rows();
        for w in [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1], [0.3, 0.7]] {
            for t in [0.5, 2.0, 3.9, 4.0, 5.5, 100.0] {
                let naive = live.chunks_exact(2).filter(|p| score(&w, p) < t).count();
                let base = v.base.count_better_than(&w, t);
                let live_count = base - v.count_better_dead(&w, t) + v.count_better_delta(&w, t);
                assert_eq!(live_count, naive, "w {w:?} t {t}");
            }
        }
    }

    #[test]
    fn deletion_lookup_and_delta_access() {
        let v = overlaid();
        assert!(v.is_deleted(1));
        assert!(v.is_deleted(4));
        assert!(!v.is_deleted(0));
        assert!(!v.is_deleted(7));
        assert_eq!(v.delta_ids(), &[7, 8]);
        assert_eq!(v.delta_row(0), &[4.5, 2.0]);
        assert_eq!(v.delta_row(1), &[0.5, 0.5]);
        assert_eq!(v.dead_ids(), &[1, 4]);
    }

    #[test]
    fn materialization_is_canonical() {
        let (coords, ids) = overlaid().materialize_row_major();
        assert_eq!(coords, live_rows());
        assert_eq!(ids, vec![0, 2, 3, 5, 6, 7, 8]);
        // A plain view materialises the base verbatim.
        let base = Arc::new(FlatPoints::from_row_major(2, &fig_points()));
        let (coords, ids) = DeltaView::plain(base).materialize_row_major();
        assert_eq!(coords, fig_points());
        assert_eq!(ids, (0..7).collect::<Vec<u32>>());
    }

    #[test]
    fn everything_deleted_is_empty() {
        let base = Arc::new(FlatPoints::from_row_major(2, &[1.0, 1.0, 2.0, 2.0]));
        let v = DeltaView::new(
            base,
            Arc::new(vec![]),
            Arc::new(vec![]),
            Arc::new(vec![1.0, 1.0, 2.0, 2.0]),
            Arc::new(vec![0, 1]),
        );
        assert!(v.is_empty());
        assert_eq!(v.count_better_dead(&[0.5, 0.5], 100.0), 2);
    }

    #[test]
    #[should_panic(expected = "tombstones name base rows only")]
    fn tombstone_outside_base_rejected() {
        let base = Arc::new(FlatPoints::from_row_major(2, &[1.0, 1.0]));
        let _ = DeltaView::new(
            base,
            Arc::new(vec![]),
            Arc::new(vec![]),
            Arc::new(vec![9.0, 9.0]),
            Arc::new(vec![5]),
        );
    }

    #[test]
    fn append_grows_in_place_unless_a_clone_holds_the_buffers() {
        let mut o = Overlay::new(2, 4);
        o.append(&[0.5, 0.5, 0.25, 0.75]);
        let ptrs = |o: &Overlay| (Arc::as_ptr(&o.delta_rows), Arc::as_ptr(&o.delta_ids));
        let before = ptrs(&o);
        o.append(&[0.9, 0.9]);
        assert_eq!(before, ptrs(&o), "an unshared overlay grows in place");

        let held = o.clone();
        o.append(&[0.1, 0.1]);
        o.delete(&[5], |_, _| {
            unreachable!("dropping an appended row reads no base row")
        });
        assert_ne!(before, ptrs(&o), "a shared overlay is copied");
        assert_eq!(held.delta_ids.as_slice(), &[4, 5, 6]);
        assert_eq!(
            held.delta_rows.as_slice(),
            &[0.5, 0.5, 0.25, 0.75, 0.9, 0.9]
        );
        assert_eq!(o.delta_ids.as_slice(), &[4, 6, 7]);
    }

    #[test]
    fn appends_stop_at_the_end_of_the_id_space() {
        let max = u64::from(u32::MAX);
        let empty = || (Arc::default(), Arc::default());
        let at = |appends| Overlay::try_new(2, 2, (appends, 0), empty(), empty());
        // The next id is `u32::MAX - 2`: room for exactly two more rows.
        let o = at(max - 4).unwrap();
        assert_eq!(o.check_append(&[0.0; 4]), Ok(()));
        assert_eq!(o.check_append(&[0.0; 6]), Err(OverlayError::Full));
        assert_eq!(o.check_append(&[]), Ok(()));
        assert_eq!(
            o.check_append(&[0.0; 3]),
            Err(OverlayError::Ragged { dim: 2, len: 3 })
        );
        // An allocator already past the id space is a broken image.
        assert_eq!(at(max - 1).unwrap_err(), OverlayError::DeltaIds);
    }

    /// SplitMix64: the draws of the model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn coords(&mut self, n: usize) -> Vec<f64> {
            (0..n)
                .map(|_| (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0)
                .collect()
        }
    }

    /// An overlay's parts as owned buffers, to break one field at a time.
    #[derive(Clone, Debug, PartialEq)]
    struct Parts {
        counters: (u64, u64),
        delta_rows: Vec<f64>,
        delta_ids: Vec<u32>,
        dead_rows: Vec<f64>,
        dead_ids: Vec<u32>,
    }

    fn parts(o: &Overlay) -> Parts {
        Parts {
            counters: (o.appends, o.deletes),
            delta_rows: o.delta_rows.to_vec(),
            delta_ids: o.delta_ids.to_vec(),
            dead_rows: o.dead_rows.to_vec(),
            dead_ids: o.dead_ids.to_vec(),
        }
    }

    fn rebuild(o: &Overlay, p: Parts) -> Result<Overlay, OverlayError> {
        let delta = (Arc::new(p.delta_rows), Arc::new(p.delta_ids));
        let dead = (Arc::new(p.dead_rows), Arc::new(p.dead_ids));
        Overlay::try_new(o.dim, o.base_len, p.counters, delta, dead)
    }

    /// `try_new` takes back `o`'s own parts, and refuses a one-field
    /// break of each rule `o` holds data for.
    fn check_rules(o: &Overlay) {
        let same = rebuild(o, parts(o)).expect("an overlay's own parts");
        assert_eq!(parts(&same), parts(o));
        let broken = |edit: &dyn Fn(&mut Parts)| {
            let mut p = parts(o);
            edit(&mut p);
            rebuild(o, p).expect_err("a broken rule")
        };
        let base = o.base_len as u32;
        assert!(matches!(
            broken(&|p| p.delta_rows.push(0.0)),
            OverlayError::Ragged { .. }
        ));
        assert!(matches!(
            broken(&|p| p.dead_rows.push(0.0)),
            OverlayError::Ragged { .. }
        ));
        let past_the_id_space = u64::from(u32::MAX) + 1;
        assert_eq!(
            broken(&|p| p.counters.0 = past_the_id_space),
            OverlayError::DeltaIds
        );
        if let Some(&last) = o.delta_ids.last() {
            // The allocator behind the last id it handed out.
            let behind = u64::from(last - base);
            assert_eq!(broken(&|p| p.counters.0 = behind), OverlayError::DeltaIds);
            if base > 0 {
                let below = &|p: &mut Parts| p.delta_ids[0] = base - 1;
                assert_eq!(broken(below), OverlayError::DeltaIds);
            }
        }
        if o.delta_ids.len() > 1 {
            assert_eq!(broken(&|p| p.delta_ids.swap(0, 1)), OverlayError::DeltaIds);
        }
        if let Some(last) = o.dead_ids.len().checked_sub(1) {
            let past = &|p: &mut Parts| p.dead_ids[last] = base;
            assert_eq!(broken(past), OverlayError::TombstoneIds);
        }
        if o.dead_ids.len() > 1 {
            let unsorted = &|p: &mut Parts| p.dead_ids.swap(0, 1);
            assert_eq!(broken(unsorted), OverlayError::TombstoneIds);
        }
    }

    /// The overlay against a naive model — the live `(id, row)` pairs in
    /// canonical order — over random append/delete sequences with empty
    /// calls and unknown, already-deleted and repeated ids. After every
    /// call the merge, the view's materialisation and the model agree,
    /// and `try_new` accepts the overlay and refuses each broken rule.
    /// `WQRTQ_FUZZ_ROUNDS` sets the round count (default 8).
    #[test]
    fn seeded_model_of_the_overlay() {
        let rounds = std::env::var("WQRTQ_FUZZ_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8u64);
        for round in 0..rounds {
            let mut rng = Rng(0x0de1_7a5e ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let dim = 1 + rng.below(3) as usize;
            let base_len = rng.below(10) as usize;
            let coords = rng.coords(base_len * dim);
            let flat = Arc::new(FlatPoints::from_row_major(dim, &coords));
            let base_row =
                |i: usize, row: &mut [f64]| row.copy_from_slice(&coords[i * dim..(i + 1) * dim]);
            let mut overlay = Overlay::new(dim, base_len);
            let mut live: Vec<(u32, Vec<f64>)> = (0..base_len)
                .map(|i| (i as u32, coords[i * dim..(i + 1) * dim].to_vec()))
                .collect();
            let (mut next_id, mut appends, mut deletes) = (base_len as u32, 0, 0);
            for step in 0..48 {
                if rng.below(2) == 0 {
                    let rows = rng.below(4) as usize; // 0: an empty call
                    let points = rng.coords(rows * dim);
                    overlay.check_append(&points).unwrap();
                    overlay.append(&points);
                    for row in points.chunks_exact(dim) {
                        live.push((next_id, row.to_vec()));
                        next_id += 1;
                        appends += 1;
                    }
                } else {
                    // Live ids, and ids drawn past the allocator and over
                    // dead rows alike; now and then one named twice.
                    let mut ids: Vec<u32> = (0..rng.below(4))
                        .map(|_| match rng.below(3) {
                            0 if !live.is_empty() => live[rng.below(live.len() as u64) as usize].0,
                            _ => rng.below(u64::from(next_id) + 2) as u32,
                        })
                        .collect();
                    if rng.below(4) == 0 {
                        ids.extend(ids.last().copied());
                    }
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    let repeated = sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
                    let dead = ids
                        .iter()
                        .copied()
                        .find(|id| live.iter().all(|(l, _)| l != id));
                    match (overlay.check_delete(&ids), dead.or(repeated)) {
                        (Ok(victims), None) => {
                            assert_eq!(victims, sorted);
                            overlay.delete(&victims, base_row);
                            live.retain(|(id, _)| !ids.contains(id));
                            deletes += ids.len() as u64;
                        }
                        (Err(e), Some(id)) => assert_eq!(e, OverlayError::NotLive(id)),
                        (got, want) => panic!(
                            "round {round} step {step}: {ids:?} gave {got:?}, model {want:?}"
                        ),
                    }
                }
                let merged = overlay.merge(base_row);
                let want_ids: Vec<u32> = live.iter().map(|(id, _)| *id).collect();
                let want_rows: Vec<f64> = live.iter().flat_map(|(_, r)| r.clone()).collect();
                assert_eq!(merged, (want_rows, want_ids), "round {round} step {step}");
                let view = overlay.clone().view(flat.clone());
                assert_eq!(view.materialize_row_major(), merged);
                assert_eq!(
                    (overlay.live_len(), overlay.appends(), overlay.deletes()),
                    (live.len(), appends, deletes)
                );
                check_rules(&overlay);
            }
        }
    }
}
