//! The one input every query takes, and the one scratch every probe
//! reuses.
//!
//! The paper's algorithms all read "the index over `P`". A serving
//! system adds one optional part to that index — a [`DeltaView`] of rows
//! appended and deleted since it was built — which never changes an
//! answer: an un-mutated dataset is an overlay with nothing in it. So
//! there is one [`Snapshot`] and one function per operation; whether the
//! overlay corrections run is decided from what the snapshot carries.

use crate::brtopk::RtaStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wqrtq_geom::DeltaView;
use wqrtq_rtree::{search::CulpritBuf, OrdF64, ProbeScratch, RTree};

/// A borrowed, consistent view of one dataset: the base index plus an
/// optional overlay. A bare `&RTree` converts into one, so the
/// paper-facing call `mqp(&tree, q, k, wm)` and the serving call
/// `mqp(handle.snapshot(), q, k, wm)` are the same function.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot<'a> {
    /// The index over the base rows.
    pub tree: &'a RTree,
    /// Rows appended to / deleted from the base since `tree` was built
    /// (its base must be the rows `tree` indexes). `None` and a plain
    /// view are equivalent.
    pub view: Option<&'a DeltaView>,
}

impl<'a> From<&'a RTree> for Snapshot<'a> {
    fn from(tree: &'a RTree) -> Self {
        Self { tree, view: None }
    }
}

impl<'a> Snapshot<'a> {
    /// This snapshot answering over `view`'s live rows.
    pub fn overlay(self, view: &'a DeltaView) -> Self {
        Self {
            view: Some(view),
            ..self
        }
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.tree.dim()
    }

    /// Number of live points (base minus tombstones plus appends).
    pub fn live_len(&self) -> usize {
        self.view.map_or(self.tree.len(), DeltaView::live_len)
    }

    /// The overlay, when it actually holds a mutation — a plain view
    /// takes exactly the bare-tree code path.
    pub(crate) fn mutated(&self) -> Option<&'a DeltaView> {
        self.view.filter(|v| !v.is_plain())
    }
}

/// Loop items decided between two reads of the cancel flag (see
/// [`ProbeCtx::cancelled_at`]).
pub(crate) const CANCEL_POLL_CHUNK: usize = 256;

/// Per-worker reusable buffers and work counters for the probing
/// operations ([`crate::is_in_topk`], [`crate::topk_with`],
/// [`crate::rta_over_order`], and the why-not explanation scan). One
/// instance per serving worker: after warm-up the hot paths allocate
/// nothing per request.
#[derive(Debug, Default)]
pub struct ProbeCtx {
    /// Index nodes expanded by every probe run on this context so far
    /// (the paper's `|RT|` cost term). Callers reset it as they see fit.
    pub nodes_visited: usize,
    /// RTA prune/verify counters accumulated over every
    /// [`crate::rta_over_order`] run on this context.
    pub rta: RtaStats,
    /// The running request's cancel flag: once set, a loop that polls
    /// it (RTA's, and the why-not advisor's) stops early and its
    /// incomplete answer is the caller's to discard.
    pub cancel: Option<Arc<AtomicBool>>,
    pub(crate) probe: ProbeScratch,
    /// The bounded top-k's appended rows: `(score, delta slot)`.
    pub(crate) top_delta: Vec<(OrdF64, u32)>,
    /// Flat row-major coordinates of recently-seen culprit points.
    pub(crate) pool: Vec<f64>,
    /// Ids parallel to `pool` — the prune counts *distinct* dataset
    /// points, so the same point must never enter the pool twice.
    pub(crate) pool_ids: Vec<u32>,
    /// Culprits collected by the current probe (merged into the pool).
    pub(crate) fresh: CulpritBuf,
    /// Whether any RTA has run on this context (a run whose probes meet
    /// no culprit allocates no pool, so capacity alone can't signal
    /// warmth).
    pub(crate) warm: bool,
}

impl ProbeCtx {
    /// Fresh (empty) context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an RTA request has already run on this context —
    /// subsequent requests reuse its buffers instead of allocating
    /// (serving metrics count these as buffer-reuse hits).
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Whether the cancel flag is set.
    pub fn is_cancelled(&self) -> bool {
        matches!(&self.cancel, Some(flag) if flag.load(Ordering::Acquire))
    }

    /// [`ProbeCtx::is_cancelled`], read only when item `n` of a loop
    /// starts a chunk of 256 (item 0 included): a loop that stops on it
    /// pays one flag read per chunk and runs at most a chunk past the
    /// flag.
    pub fn cancelled_at(&self, n: usize) -> bool {
        n.is_multiple_of(CANCEL_POLL_CHUNK) && self.is_cancelled()
    }

    /// Decides "do fewer than `cap` base points score strictly below
    /// `s` under `w`?" with one early-exit descent of the base index.
    /// With `collect`, the better points the probe scored individually
    /// land in `self.fresh`.
    pub(crate) fn probe(
        &mut self,
        snap: Snapshot<'_>,
        w: &[f64],
        s: f64,
        cap: usize,
        collect: bool,
    ) -> bool {
        let culprits = collect.then(|| {
            self.fresh.clear();
            &mut self.fresh
        });
        let res = snap
            .tree
            .probe_topk_membership(w, s, cap, &mut self.probe, culprits);
        self.nodes_visited += res.nodes_visited;
        res.in_topk
    }

    /// Merges `self.fresh` into the culprit pool — id-deduplicated,
    /// skipping ids `is_dead` rejects, and recency-bounded to
    /// `max_points` so stale evidence ages out.
    pub(crate) fn pool_fresh(
        &mut self,
        dim: usize,
        max_points: usize,
        is_dead: impl Fn(u32) -> bool,
    ) {
        for (i, &id) in self.fresh.ids.iter().enumerate() {
            if is_dead(id) || self.pool_ids.contains(&id) {
                continue;
            }
            self.pool_ids.push(id);
            self.pool
                .extend_from_slice(&self.fresh.coords[i * dim..(i + 1) * dim]);
        }
        if self.pool_ids.len() > max_points {
            let excess = self.pool_ids.len() - max_points;
            self.pool_ids.drain(0..excess);
            self.pool.drain(0..excess * dim);
        }
    }
}
