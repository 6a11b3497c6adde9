//! The dataset catalog: named product datasets served as **delta
//! overlays** — a bulk-loaded base (R-tree + column-major mirror) plus a
//! small mutable tail — and named (immutable) customer weight
//! populations.
//!
//! ## Mutation lifecycle
//!
//! * **Register** installs a fresh base. The index is built lazily on
//!   first use, exactly once: a per-entry [`OnceLock`] makes concurrent
//!   cold callers block on the single builder instead of racing
//!   duplicate `bulk_load`s (the build still runs outside the catalog
//!   lock, so other datasets never stall behind it).
//! * **Append** validates, logs, then extends the delta memtable — in
//!   place (amortised `O(rows)`) unless a snapshot still holds the
//!   previous version, in which case exactly that append copies it
//!   (`Arc::make_mut`); the built index is untouched.
//! * **Delete** validates, logs, then tombstones a base row (id +
//!   coordinates recorded) or drops a delta row — `O(Δ)`, index
//!   untouched.
//! * Both mutate nothing before the WAL record is written, so a failed
//!   log leaves the catalog as it was ("unlogged means undone") with no
//!   roll-back to get wrong; an empty append/delete is not a mutation
//!   and writes nothing.
//! * **Compaction** merges base + delta − tombstones into a fresh
//!   bulk-loaded base in *canonical order* (see
//!   [`wqrtq_geom::DeltaView::materialize_row_major`]), bumping the base
//!   epoch. It is triggered by the engine off the request path and
//!   abandoned harmlessly if the dataset mutated while merging.
//!
//! Every snapshot carries a [`DatasetEpoch`] triple
//! `(base, delta, tombstones)` whose components only ever grow within a
//! base generation (and `base` grows across generations), so a result
//! cache keyed on it can never serve a stale response — whether or not
//! the stale entry was evicted yet.

use crate::error::EngineError;
use crate::storage::{
    CatalogState, DatasetState, Durability, StorageError, WalRecord, WalRecordRef, WeightSetState,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use wqrtq_geom::{DeltaView, FlatPoints, Weight};
use wqrtq_query::Snapshot;
use wqrtq_rtree::{DominanceIndex, RTree};

/// A storage failure surfaced through the engine's error vocabulary.
fn durability_err(e: StorageError) -> EngineError {
    EngineError::Durability {
        reason: e.to_string(),
    }
}

/// Rebuilds a [`Weight`] from persisted components without panicking:
/// [`Weight::new`] asserts its invariants, so a damaged image must be
/// rejected as a typed error first.
fn weight_from_state(w: Vec<f64>) -> Result<Weight, EngineError> {
    let valid = !w.is_empty()
        && w.iter().all(|x| x.is_finite() && *x >= -1e-9)
        && (w.iter().sum::<f64>() - 1.0).abs() < 1e-6;
    if !valid {
        return Err(EngineError::Durability {
            reason: "recovered weight vector violates its invariants".to_string(),
        });
    }
    Ok(Weight::new(w))
}

/// The versions of one dataset snapshot. Any mutation strictly increases
/// one component (appends bump `delta`, deletes bump `tombstones`,
/// re-registration and compaction bump `base` and reset the others), so
/// two distinct catalog states never share an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DatasetEpoch {
    /// Base generation (bulk-load count: registrations + compactions).
    pub base: u64,
    /// Rows appended since this base was built (monotone — deleting an
    /// appended row does not decrease it).
    pub delta: u64,
    /// Rows deleted since this base was built (monotone — covers both
    /// tombstoned base rows and dropped delta rows).
    pub tombstones: u64,
}

impl DatasetEpoch {
    /// The epoch of a freshly built base (no overlay yet).
    pub fn fresh(base: u64) -> Self {
        Self {
            base,
            delta: 0,
            tombstones: 0,
        }
    }
}

impl std::fmt::Display for DatasetEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}", self.base, self.delta, self.tombstones)
    }
}

/// A consistent snapshot of one dataset, handed to workers.
#[derive(Clone, Debug)]
pub struct DatasetHandle {
    /// Flat row-major coordinates of the *base* (what the index was
    /// built from; tombstoned rows included — the view discounts them).
    pub coords: Arc<Vec<f64>>,
    /// Dimensionality.
    pub dim: usize,
    /// Epoch triple at snapshot time.
    pub epoch: DatasetEpoch,
    /// The shared pre-built base index.
    pub index: Arc<RTree>,
    /// Column-major mirror of the base coordinates, built together with
    /// the index: the base store `view` reads.
    pub flat: Arc<FlatPoints>,
    /// The delta overlay this request must answer against (plain when
    /// the dataset has not mutated since its base was built).
    pub view: DeltaView,
    /// The k-dominance mask (its culprit planes) over the base tree,
    /// built lazily per base generation next to the index. `None` when
    /// the catalog was configured with the pre-filter off (the
    /// differential-oracle opt-out) — membership verdicts then always
    /// probe the tree.
    pub dom: Option<Arc<DominanceIndex>>,
}

impl DatasetHandle {
    /// Number of live points in this snapshot.
    pub fn live_len(&self) -> usize {
        self.view.live_len()
    }

    /// The borrowed form every query and why-not entry point takes:
    /// base index + overlay + mask (when the pre-filter is on).
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            tree: &self.index,
            view: Some(&self.view),
            dom: self.dom.as_deref(),
        }
    }
}

/// What [`Catalog::peek`] learns about a dataset without waiting or
/// building.
#[derive(Debug)]
pub(crate) struct Peek {
    /// Epoch triple at peek time.
    pub(crate) epoch: DatasetEpoch,
    /// The base index, when the dataset is overlay-free and its index
    /// and mask are built — a top-k over it needs no delta state.
    pub(crate) plain: Option<Arc<RTree>>,
}

type BuiltIndex = (Arc<RTree>, Arc<FlatPoints>);

#[derive(Debug)]
struct DatasetEntry {
    dim: usize,
    base_coords: Arc<Vec<f64>>,
    base_epoch: u64,
    /// Appends since the base was built (monotone; also the delta id
    /// allocator — the next appended row gets id `base_n + appends`).
    appends: u64,
    /// Rows deleted since the base was built (monotone).
    deletes: u64,
    /// Live appended rows (grown in place through `Arc::make_mut`: a
    /// snapshot holding the old Arcs forces the copy, and keeps them).
    delta_rows: Arc<Vec<f64>>,
    delta_ids: Arc<Vec<u32>>,
    /// Tombstoned base rows, id-sorted.
    dead_rows: Arc<Vec<f64>>,
    dead_ids: Arc<Vec<u32>>,
    /// Built exactly once per base generation; replaced wholesale on
    /// re-registration / compaction.
    index: Arc<OnceLock<BuiltIndex>>,
    /// The dominance mask of this base generation, built lazily after
    /// the index (its own `OnceLock`, so mask construction never blocks
    /// callers that only need the tree). Replaced wholesale together
    /// with the index — the mask describes exactly one base epoch.
    dom: Arc<OnceLock<Arc<DominanceIndex>>>,
}

impl DatasetEntry {
    fn fresh(dim: usize, coords: Vec<f64>, base_epoch: u64) -> Self {
        Self {
            dim,
            base_coords: Arc::new(coords),
            base_epoch,
            appends: 0,
            deletes: 0,
            delta_rows: Arc::new(Vec::new()),
            delta_ids: Arc::new(Vec::new()),
            dead_rows: Arc::new(Vec::new()),
            dead_ids: Arc::new(Vec::new()),
            index: Arc::new(OnceLock::new()),
            dom: Arc::new(OnceLock::new()),
        }
    }

    fn epoch(&self) -> DatasetEpoch {
        DatasetEpoch {
            base: self.base_epoch,
            delta: self.appends,
            tombstones: self.deletes,
        }
    }

    fn base_len(&self) -> usize {
        self.base_coords.len() / self.dim
    }

    fn live_len(&self) -> usize {
        self.base_len() - self.dead_ids.len() + self.delta_ids.len()
    }

    /// Delta rows plus tombstones — the overlay size compaction bounds.
    fn overlay_len(&self) -> usize {
        self.delta_ids.len() + self.dead_ids.len()
    }
}

#[derive(Debug, Default)]
struct CatalogInner {
    datasets: HashMap<String, DatasetEntry>,
    weight_sets: HashMap<String, Arc<Vec<Weight>>>,
}

/// Point-in-time mutation/build counters of a [`Catalog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// `bulk_load`s actually executed (lazy first-use builds and
    /// compaction merges). The acceptance gate for overlay serving:
    /// appending to an indexed dataset must not move this.
    pub index_builds: u64,
    /// Mutations absorbed by the overlay while a built base index
    /// existed — each one is a `bulk_load` the pre-overlay design would
    /// have paid.
    pub rebuilds_avoided: u64,
    /// Overlay merges completed.
    pub compactions: u64,
    /// Compaction attempts abandoned because the dataset mutated while
    /// the merge was running (the next mutation re-triggers).
    pub compactions_abandoned: u64,
    /// Dominance masks actually built (lazy first-use per base
    /// generation). Deliberately separate from `index_builds`, whose
    /// exact values the overlay-serving gates assert.
    pub mask_builds: u64,
    /// WAL records appended by the attached durability layer (0 when
    /// the engine runs without a `data_dir`).
    pub wal_appends: u64,
    /// Snapshots installed (at compaction and explicit checkpoints).
    pub snapshot_writes: u64,
    /// Recoveries performed: 1 after resuming pre-existing durable
    /// state, 0 for a fresh data directory or an in-memory engine.
    pub recoveries: u64,
    /// WAL records replayed by the last recovery.
    pub wal_replayed: u64,
}

/// Thread-safe catalog of datasets and weight populations.
#[derive(Debug)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
    /// Build the k-dominance mask per base generation and hand it to
    /// serving snapshots.
    prefilter: bool,
    index_builds: AtomicU64,
    rebuilds_avoided: AtomicU64,
    compactions: AtomicU64,
    compactions_abandoned: AtomicU64,
    mask_builds: AtomicU64,
    /// The durability layer, attached once (after recovery replay, so
    /// replayed mutations are not logged twice). `None` for in-memory
    /// engines — every hook below is then a single branch, leaving the
    /// default path untouched.
    durability: OnceLock<Arc<Durability>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::with_config(true)
    }
}

/// Validates that every coordinate is finite (the request boundary's
/// helper, reused so catalog-level and request-level rejection agree).
fn check_finite(points: &[f64]) -> Result<(), EngineError> {
    crate::request::check_finite(points, "coordinates")
}

impl Catalog {
    /// An empty catalog with the k-dominance pre-filter enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty catalog; `prefilter` gates the k-dominance mask. Off
    /// yields the unmasked reference plane the differential
    /// oracles compare against.
    pub fn with_config(prefilter: bool) -> Self {
        Self {
            inner: RwLock::default(),
            prefilter,
            index_builds: AtomicU64::new(0),
            rebuilds_avoided: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compactions_abandoned: AtomicU64::new(0),
            mask_builds: AtomicU64::new(0),
            durability: OnceLock::new(),
        }
    }

    /// Attaches the durability layer. Must happen strictly after any
    /// recovery replay — mutations made before the attach are never
    /// logged (that is what makes replay idempotent).
    ///
    /// # Panics
    /// Panics if a layer is already attached.
    pub(crate) fn attach_durability(&self, d: Arc<Durability>) {
        self.durability
            .set(d)
            // lint: allow(no-panic) — the documented `# Panics`
            // contract: attaching twice is an engine-construction bug.
            .expect("durability layer attached exactly once");
    }

    /// Registers (or replaces) a dataset from a flat `n × dim` buffer.
    /// Replacement bumps the base epoch and drops any built index.
    ///
    /// # Errors
    /// [`EngineError::ZeroDimension`] when `dim` is zero,
    /// [`EngineError::RaggedCoordinates`] when the buffer length is not a
    /// multiple of `dim`, [`EngineError::NonFiniteInput`] on NaN/infinite
    /// coordinates.
    pub fn register(&self, name: &str, dim: usize, coords: Vec<f64>) -> Result<(), EngineError> {
        if dim == 0 {
            return Err(EngineError::ZeroDimension);
        }
        if !coords.len().is_multiple_of(dim) {
            return Err(EngineError::RaggedCoordinates {
                dim,
                len: coords.len(),
            });
        }
        check_finite(&coords)?;
        let mut inner = self.inner.write().expect("catalog lock");
        let base_epoch = match inner.datasets.get(name) {
            Some(old) => old.base_epoch + 1,
            None => 1,
        };
        let prev = inner.datasets.insert(
            name.to_string(),
            DatasetEntry::fresh(dim, coords, base_epoch),
        );
        if let Some(d) = self.durability.get() {
            // lint: allow(no-panic) — the insert is two lines up and the
            // write lock is still held.
            let entry = inner.datasets.get(name).expect("just inserted");
            let logged = d.log(WalRecordRef::Register {
                name,
                dim: dim as u64,
                coords: &entry.base_coords,
            });
            if let Err(e) = logged {
                // Unlogged means undone: restore the previous entry so
                // the in-memory and durable states cannot diverge.
                match prev {
                    Some(p) => {
                        inner.datasets.insert(name.to_string(), p);
                    }
                    None => {
                        inner.datasets.remove(name);
                    }
                }
                return Err(durability_err(e));
            }
        }
        Ok(())
    }

    /// Appends points to a dataset's delta memtable: validate, log, then
    /// extend in place — amortised `O(rows)` — unless a snapshot still
    /// holds the previous version, which then keeps its rows while this
    /// append copies them. No index is dropped or rebuilt; an empty
    /// append changes and logs nothing. Returns the live point count
    /// after the append.
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`] / [`EngineError::RaggedCoordinates`]
    /// / [`EngineError::NonFiniteInput`] / [`EngineError::DatasetFull`] /
    /// [`EngineError::Durability`] (nothing was applied).
    pub fn append(&self, name: &str, points: &[f64]) -> Result<usize, EngineError> {
        check_finite(points)?;
        let mut inner = self.inner.write().expect("catalog lock");
        let entry = inner
            .datasets
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        if !points.len().is_multiple_of(entry.dim) {
            return Err(EngineError::RaggedCoordinates {
                dim: entry.dim,
                len: points.len(),
            });
        }
        let rows = (points.len() / entry.dim) as u64;
        let next_id = entry.base_len() as u64 + entry.appends;
        if next_id + rows > u32::MAX as u64 {
            return Err(EngineError::DatasetFull);
        }
        if rows == 0 {
            return Ok(entry.live_len()); // not a mutation: nothing to log
        }
        // Log first: nothing is mutated before the record is written, so
        // a failed log needs no roll-back.
        if let Some(d) = self.durability.get() {
            d.log(WalRecordRef::Append { name, points })
                .map_err(durability_err)?;
        }
        Arc::make_mut(&mut entry.delta_rows).extend_from_slice(points);
        Arc::make_mut(&mut entry.delta_ids).extend((0..rows).map(|i| (next_id + i) as u32));
        entry.appends += rows;
        let live = entry.live_len();
        if entry.index.get().is_some() {
            // ordering: Relaxed — monotonic stats counter, read only by
            // `stats()`.
            self.rebuilds_avoided.fetch_add(1, Ordering::Relaxed);
        }
        Ok(live)
    }

    /// Deletes points by id: validate, log, then apply — base rows are
    /// tombstoned, appended rows are dropped from the memtable —
    /// `O(Δ + |ids|)`, no index touched. All-or-nothing: an unknown or
    /// already-deleted id fails the whole call without mutating or
    /// logging anything; an empty delete changes and logs nothing.
    /// Returns the live count after.
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`] / [`EngineError::UnknownPointId`] /
    /// [`EngineError::Durability`] (nothing was applied).
    pub fn delete(&self, name: &str, ids: &[u32]) -> Result<usize, EngineError> {
        let mut inner = self.inner.write().expect("catalog lock");
        let entry = inner
            .datasets
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        if ids.is_empty() {
            return Ok(entry.live_len()); // not a mutation: nothing to log
        }
        let dim = entry.dim;
        let base_n = entry.base_len() as u32;
        // Validate first (all-or-nothing), splitting the victims into
        // sorted base tombstones and a delta-row removal set; then merge
        // each buffer in one pass — O(Δ + |ids| log |ids|) total, not
        // O(|ids| × Δ) of per-id splicing.
        let mut base_victims: Vec<u32> = Vec::new();
        let mut delta_victims: Vec<u32> = Vec::new();
        for &id in ids {
            if id < base_n {
                if entry.dead_ids.binary_search(&id).is_ok() {
                    return Err(EngineError::UnknownPointId { id }); // tombstoned twice
                }
                base_victims.push(id);
            } else {
                entry
                    .delta_ids
                    .binary_search(&id)
                    .map_err(|_| EngineError::UnknownPointId { id })?;
                delta_victims.push(id);
            }
        }
        base_victims.sort_unstable();
        delta_victims.sort_unstable();
        let dup_in = |v: &[u32]| v.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        if let Some(id) = dup_in(&base_victims).or_else(|| dup_in(&delta_victims)) {
            // The same id twice in one call is the same error as deleting
            // an already-deleted point.
            return Err(EngineError::UnknownPointId { id });
        }

        // Log first: nothing is mutated before the record is written, so
        // a failed log needs no roll-back.
        if let Some(d) = self.durability.get() {
            d.log(WalRecordRef::Delete { name, ids })
                .map_err(durability_err)?;
        }
        if !delta_victims.is_empty() {
            let keep = entry.delta_ids.len() - delta_victims.len();
            let mut delta_rows = Vec::with_capacity(keep * dim);
            let mut delta_ids = Vec::with_capacity(keep);
            for (pos, &id) in entry.delta_ids.iter().enumerate() {
                if delta_victims.binary_search(&id).is_err() {
                    delta_ids.push(id);
                    delta_rows.extend_from_slice(&entry.delta_rows[pos * dim..(pos + 1) * dim]);
                }
            }
            entry.delta_rows = Arc::new(delta_rows);
            entry.delta_ids = Arc::new(delta_ids);
        }
        if !base_victims.is_empty() {
            let total = entry.dead_ids.len() + base_victims.len();
            let mut dead_ids = Vec::with_capacity(total);
            let mut dead_rows = Vec::with_capacity(total * dim);
            let mut push = |id: u32, from_base: bool, old_pos: usize| {
                dead_ids.push(id);
                if from_base {
                    let at = id as usize * dim;
                    dead_rows.extend_from_slice(&entry.base_coords[at..at + dim]);
                } else {
                    dead_rows
                        .extend_from_slice(&entry.dead_rows[old_pos * dim..(old_pos + 1) * dim]);
                }
            };
            // Merge the two sorted id runs.
            let (mut i, mut j) = (0, 0);
            while i < entry.dead_ids.len() || j < base_victims.len() {
                let take_old = j >= base_victims.len()
                    || (i < entry.dead_ids.len() && entry.dead_ids[i] < base_victims[j]);
                if take_old {
                    push(entry.dead_ids[i], false, i);
                    i += 1;
                } else {
                    push(base_victims[j], true, 0);
                    j += 1;
                }
            }
            entry.dead_rows = Arc::new(dead_rows);
            entry.dead_ids = Arc::new(dead_ids);
        }
        entry.deletes += ids.len() as u64;
        let live = entry.live_len();
        if entry.index.get().is_some() {
            // ordering: Relaxed — monotonic stats counter, read only by
            // `stats()`.
            self.rebuilds_avoided.fetch_add(1, Ordering::Relaxed);
        }
        Ok(live)
    }

    /// Registers an immutable weight population. Every vector must be
    /// finite, non-negative, and not identically zero.
    ///
    /// # Errors
    /// [`EngineError::WeightSetExists`] when the name is taken —
    /// populations are immutable so cached bichromatic results keyed on
    /// the name can never go stale; register a new name instead.
    /// [`EngineError::NonFiniteInput`] / [`EngineError::InvalidWeight`]
    /// on malformed vectors.
    pub fn register_weights(&self, name: &str, weights: Vec<Weight>) -> Result<(), EngineError> {
        for w in &weights {
            crate::request::check_weight(w.as_slice(), "weight set")?;
        }
        let mut inner = self.inner.write().expect("catalog lock");
        if inner.weight_sets.contains_key(name) {
            return Err(EngineError::WeightSetExists(name.to_string()));
        }
        inner
            .weight_sets
            .insert(name.to_string(), Arc::new(weights));
        if let Some(d) = self.durability.get() {
            // lint: allow(no-panic) — the insert is two lines up and the
            // write lock is still held.
            let ws = inner.weight_sets.get(name).expect("just inserted");
            let logged = d.log(WalRecordRef::RegisterWeights {
                name,
                weights: ws.as_slice(),
            });
            if let Err(e) = logged {
                inner.weight_sets.remove(name);
                return Err(durability_err(e));
            }
        }
        Ok(())
    }

    /// A registered weight population.
    pub fn weights(&self, name: &str) -> Result<Arc<Vec<Weight>>, EngineError> {
        self.inner
            .read()
            .expect("catalog lock")
            .weight_sets
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownWeightSet(name.to_string()))
    }

    /// A consistent dataset snapshot, building the shared base index on
    /// first use. The build runs *outside* the catalog lock — a cold
    /// multi-million-point dataset never stalls requests against other
    /// datasets — and the per-entry [`OnceLock`] guarantees exactly one
    /// build per base generation: concurrent cold callers block on the
    /// winner instead of burning cores on duplicate `bulk_load`s whose
    /// losers would be discarded.
    pub fn handle(&self, name: &str) -> Result<DatasetHandle, EngineError> {
        // Snapshot everything consistent under the read lock.
        let (entry_snapshot, once, dom_once) = {
            let inner = self.inner.read().expect("catalog lock");
            let entry = inner
                .datasets
                .get(name)
                .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
            (
                (
                    entry.base_coords.clone(),
                    entry.dim,
                    entry.epoch(),
                    entry.delta_rows.clone(),
                    entry.delta_ids.clone(),
                    entry.dead_rows.clone(),
                    entry.dead_ids.clone(),
                ),
                entry.index.clone(),
                entry.dom.clone(),
            )
        };
        let (coords, dim, epoch, delta_rows, delta_ids, dead_rows, dead_ids) = entry_snapshot;
        let (index, flat) = once
            .get_or_init(|| {
                // ordering: Relaxed — monotonic stats counter; the
                // OnceLock provides the once-only synchronization.
                self.index_builds.fetch_add(1, Ordering::Relaxed);
                (
                    Arc::new(RTree::bulk_load(dim, &coords)),
                    Arc::new(FlatPoints::from_row_major(dim, &coords)),
                )
            })
            .clone();
        // The mask rides its own OnceLock on the same base generation:
        // built at most once per generation, outside the catalog lock,
        // and counted separately from index builds (overlay gates assert
        // exact `index_builds` values).
        let dom = self.prefilter.then(|| {
            dom_once
                .get_or_init(|| {
                    // ordering: Relaxed — monotonic stats counter; the
                    // OnceLock provides the once-only synchronization.
                    self.mask_builds.fetch_add(1, Ordering::Relaxed);
                    Arc::new(DominanceIndex::build(&index))
                })
                .clone()
        });
        let view = DeltaView::new(flat.clone(), delta_rows, delta_ids, dead_rows, dead_ids);
        Ok(DatasetHandle {
            coords,
            dim,
            epoch,
            index,
            flat,
            view,
            dom,
        })
    }

    /// Merges a dataset's overlay into a fresh bulk-loaded base **iff**
    /// its epoch still equals `epoch` when the merge finishes — the
    /// check-merge-recheck dance makes compaction safe to run
    /// concurrently with mutations: a mutation that lands mid-merge
    /// abandons this attempt (its own trigger will schedule the next
    /// one). Returns whether a merge was installed.
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`].
    pub fn compact_if(&self, name: &str, epoch: DatasetEpoch) -> Result<bool, EngineError> {
        // Snapshot the raw parts — deliberately NOT through `handle()`,
        // which would lazily bulk_load the *stale* base index only for
        // this merge to throw it away (ingest-only datasets never built
        // one). Materialisation needs the base coordinates alone.
        let (dim, base_coords, delta_rows, delta_ids, dead_ids) = {
            let inner = self.inner.read().expect("catalog lock");
            let entry = inner
                .datasets
                .get(name)
                .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
            if entry.epoch() != epoch || entry.overlay_len() == 0 {
                return Ok(false); // already merged, superseded, or nothing to do
            }
            (
                entry.dim,
                entry.base_coords.clone(),
                entry.delta_rows.clone(),
                entry.delta_ids.clone(),
                entry.dead_ids.clone(),
            )
        };
        // Merge + build outside the lock (the expensive part), in
        // canonical order: surviving base rows ascending, then appends.
        let live_rows = base_coords.len() / dim - dead_ids.len() + delta_ids.len();
        let mut live_coords = Vec::with_capacity(live_rows * dim);
        for (row, chunk) in base_coords.chunks_exact(dim).enumerate() {
            if dead_ids.binary_search(&(row as u32)).is_err() {
                live_coords.extend_from_slice(chunk);
            }
        }
        live_coords.extend_from_slice(&delta_rows);
        let built: BuiltIndex = (
            Arc::new(RTree::bulk_load(dim, &live_coords)),
            Arc::new(FlatPoints::from_row_major(dim, &live_coords)),
        );
        // ordering: Relaxed — monotonic stats counter, read only by
        // `stats()`.
        self.index_builds.fetch_add(1, Ordering::Relaxed);

        let mut inner = self.inner.write().expect("catalog lock");
        let entry = inner
            .datasets
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        if entry.epoch() != epoch {
            // ordering: Relaxed — monotonic stats counter, read only by
            // `stats()`.
            self.compactions_abandoned.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        if let Some(d) = self.durability.get() {
            // Log the merge *before* installing it: a Compact record that
            // cannot be made durable abandons the merge (the overlay and
            // its trigger survive untouched), so the WAL always carries
            // the record for any installed base.
            if let Err(e) = d.log(WalRecordRef::Compact { name }) {
                // ordering: Relaxed — monotonic stats counter.
                self.compactions_abandoned.fetch_add(1, Ordering::Relaxed);
                return Err(durability_err(e));
            }
        }
        // The stale generation's mask dies with it (the fresh entry's
        // OnceLock rebuilds lazily).
        let base_epoch = entry.base_epoch + 1;
        let mut fresh = DatasetEntry::fresh(entry.dim, live_coords, base_epoch);
        let once = OnceLock::new();
        // lint: allow(no-panic) — `once` was created on the previous
        // line; the first `set` on a fresh OnceLock cannot fail.
        once.set(built).expect("fresh OnceLock");
        fresh.index = Arc::new(once);
        *entry = fresh;
        // ordering: Relaxed — monotonic stats counter; installation of
        // the merged base is published by the catalog write lock above.
        self.compactions.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = self.durability.get() {
            // Snapshot the post-merge catalog while the write lock still
            // excludes concurrent mutations, so the image and the WAL
            // reset inside the checkpoint agree on `last_lsn`. A failed
            // checkpoint is deliberately tolerated: the previous snapshot
            // plus the full WAL (including the Compact record just
            // logged) still recover this exact state.
            let state = Self::export_state_locked(&inner, d.last_lsn());
            let _ = d.checkpoint(&state);
        }
        Ok(true)
    }

    /// An `O(1)` look at a dataset for a caller that must neither wait
    /// nor build: its epoch, plus its base index when the overlay is
    /// empty and the index (and, with the pre-filter on, the mask) is
    /// already built. `None` when the dataset is unknown or a writer
    /// holds the catalog lock — the caller then leaves the request to
    /// [`Catalog::handle`] on the pool.
    pub(crate) fn peek(&self, name: &str) -> Option<Peek> {
        let inner = self.inner.try_read().ok()?;
        let entry = inner.datasets.get(name)?;
        let ready = entry.overlay_len() == 0 && (!self.prefilter || entry.dom.get().is_some());
        Some(Peek {
            epoch: entry.epoch(),
            plain: entry
                .index
                .get()
                .filter(|_| ready)
                .map(|(tree, _)| tree.clone()),
        })
    }

    /// Current epoch triple of a dataset.
    pub fn epoch(&self, name: &str) -> Result<DatasetEpoch, EngineError> {
        self.inner
            .read()
            .expect("catalog lock")
            .datasets
            .get(name)
            .map(DatasetEntry::epoch)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))
    }

    /// `(overlay rows, base rows)` of a dataset — the compaction-policy
    /// inputs.
    pub fn overlay_size(&self, name: &str) -> Result<(usize, usize), EngineError> {
        self.inner
            .read()
            .expect("catalog lock")
            .datasets
            .get(name)
            .map(|e| (e.overlay_len(), e.base_len()))
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))
    }

    /// Registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .read()
            .expect("catalog lock")
            .datasets
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Whether a dataset's base index is currently built.
    pub fn is_indexed(&self, name: &str) -> bool {
        self.inner
            .read()
            .expect("catalog lock")
            .datasets
            .get(name)
            .is_some_and(|e| e.index.get().is_some())
    }

    /// Exports the complete catalog image under an already-held lock.
    /// The caller supplies the WAL position the image covers; datasets
    /// and weight populations are sorted by name so the same state
    /// always encodes to the same bytes.
    fn export_state_locked(inner: &CatalogInner, last_lsn: u64) -> CatalogState {
        let mut datasets: Vec<DatasetState> = inner
            .datasets
            .iter()
            .map(|(name, e)| DatasetState {
                name: name.clone(),
                dim: e.dim as u64,
                base_epoch: e.base_epoch,
                appends: e.appends,
                deletes: e.deletes,
                base_coords: (*e.base_coords).clone(),
                delta_rows: (*e.delta_rows).clone(),
                delta_ids: (*e.delta_ids).clone(),
                dead_rows: (*e.dead_rows).clone(),
                dead_ids: (*e.dead_ids).clone(),
            })
            .collect();
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        let mut weight_sets: Vec<WeightSetState> = inner
            .weight_sets
            .iter()
            .map(|(name, ws)| WeightSetState {
                name: name.clone(),
                weights: ws.iter().map(|w| w.as_slice().to_vec()).collect(),
            })
            .collect();
        weight_sets.sort_by(|a, b| a.name.cmp(&b.name));
        CatalogState {
            last_lsn,
            datasets,
            weight_sets,
        }
    }

    /// Installs a recovered snapshot image wholesale. Runs once at
    /// startup, before any traffic and strictly before the durability
    /// layer is attached — nothing here is logged (again).
    ///
    /// # Errors
    /// [`EngineError::Durability`] when the image violates an invariant
    /// the live catalog could never have produced — damage the CRC
    /// cannot see, e.g. a buffer length that disagrees with its ids.
    pub(crate) fn restore_state(&self, state: CatalogState) -> Result<(), EngineError> {
        let broken = |reason: &str| EngineError::Durability {
            reason: format!("recovered snapshot is inconsistent: {reason}"),
        };
        let mut inner = self.inner.write().expect("catalog lock");
        for d in state.datasets {
            let dim = usize::try_from(d.dim).unwrap_or(0);
            if dim == 0 {
                return Err(broken("zero dimensionality"));
            }
            if !d.base_coords.len().is_multiple_of(dim) {
                return Err(broken("ragged base coordinates"));
            }
            if d.delta_rows.len() != d.delta_ids.len() * dim {
                return Err(broken("delta rows disagree with delta ids"));
            }
            if d.dead_rows.len() != d.dead_ids.len() * dim {
                return Err(broken("tombstone rows disagree with tombstone ids"));
            }
            if !d.dead_ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(broken("tombstone ids not strictly ascending"));
            }
            let entry = DatasetEntry {
                dim,
                base_coords: Arc::new(d.base_coords),
                base_epoch: d.base_epoch,
                appends: d.appends,
                deletes: d.deletes,
                delta_rows: Arc::new(d.delta_rows),
                delta_ids: Arc::new(d.delta_ids),
                dead_rows: Arc::new(d.dead_rows),
                dead_ids: Arc::new(d.dead_ids),
                index: Arc::new(OnceLock::new()),
                dom: Arc::new(OnceLock::new()),
            };
            inner.datasets.insert(d.name, entry);
        }
        for ws in state.weight_sets {
            let weights = ws
                .weights
                .into_iter()
                .map(weight_from_state)
                .collect::<Result<Vec<Weight>, EngineError>>()?;
            inner.weight_sets.insert(ws.name, Arc::new(weights));
        }
        Ok(())
    }

    /// Replays one WAL record onto the catalog. Runs only during
    /// recovery, strictly before the durability layer is attached, so
    /// the replayed mutation is not logged a second time.
    ///
    /// # Errors
    /// Propagates the underlying mutation error — any failure means the
    /// durable log is inconsistent with the catalog's invariants.
    pub(crate) fn apply_replay(&self, rec: WalRecord) -> Result<(), EngineError> {
        match rec {
            WalRecord::Register { name, dim, coords } => {
                let dim = usize::try_from(dim).map_err(|_| EngineError::Durability {
                    reason: "replayed register has an impossible dimensionality".to_string(),
                })?;
                self.register(&name, dim, coords)
            }
            WalRecord::Append { name, points } => self.append(&name, &points).map(|_| ()),
            WalRecord::Delete { name, ids } => self.delete(&name, &ids).map(|_| ()),
            WalRecord::RegisterWeights { name, weights } => {
                let weights = weights
                    .into_iter()
                    .map(weight_from_state)
                    .collect::<Result<Vec<Weight>, EngineError>>()?;
                self.register_weights(&name, weights)
            }
            WalRecord::Compact { name } => {
                // A logged Compact means the merge installed at exactly
                // this point in the mutation order; the replayed catalog
                // is in the same pre-merge state, so compacting at the
                // current epoch reproduces the same base generation.
                let epoch = self.epoch(&name)?;
                self.compact_if(&name, epoch).map(|_| ())
            }
        }
    }

    /// Writes a full snapshot now and resets the WAL, returning whether
    /// one was written (`false` means the engine has no durability
    /// layer, which makes this a no-op).
    ///
    /// # Errors
    /// [`EngineError::Durability`] when the snapshot cannot be
    /// installed; the previous snapshot and the full WAL remain intact.
    pub fn checkpoint(&self) -> Result<bool, EngineError> {
        let Some(d) = self.durability.get() else {
            return Ok(false);
        };
        // The *write* lock excludes concurrent mutations between the
        // state export and the WAL reset inside the checkpoint — the
        // image and its `last_lsn` stay consistent.
        let inner = self.inner.write().expect("catalog lock");
        let state = Self::export_state_locked(&inner, d.last_lsn());
        d.checkpoint(&state).map_err(durability_err)?;
        Ok(true)
    }

    /// Point-in-time mutation/build counters: atomic loads only, so a
    /// caller never waits on the catalog lock.
    pub fn stats(&self) -> CatalogStats {
        let durability = self.durability.get().map(|d| d.stats()).unwrap_or_default();
        // ordering: Relaxed — stats snapshot reads of monotonic
        // counters; monitoring tolerates momentarily-stale values and
        // tests that assert exact counts synchronize via join/lock
        // happens-before edges first.
        CatalogStats {
            index_builds: self.index_builds.load(Ordering::Relaxed),
            rebuilds_avoided: self.rebuilds_avoided.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compactions_abandoned: self.compactions_abandoned.load(Ordering::Relaxed),
            mask_builds: self.mask_builds.load(Ordering::Relaxed),
            wal_appends: durability.wal_appends,
            snapshot_writes: durability.snapshot_writes,
            recoveries: durability.recoveries,
            wal_replayed: durability.wal_replayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FsyncPolicy, MemBackend, StorageBackend};
    use std::sync::atomic::AtomicBool;

    fn unit_square() -> Vec<f64> {
        vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    }

    /// `n` points on the 2-d diagonal: point `i` has `i` dominators, so
    /// from 40 points on the 10-skyband is at most a quarter of the set
    /// and the mask keeps a plane.
    fn diagonal(n: usize) -> Vec<f64> {
        (0..n).flat_map(|i| [i as f64; 2]).collect()
    }

    #[test]
    fn register_and_lazy_index() {
        let c = Catalog::new();
        c.register("sq", 2, unit_square()).unwrap();
        assert!(!c.is_indexed("sq"));
        let h = c.handle("sq").unwrap();
        assert_eq!(h.dim, 2);
        assert_eq!(h.epoch, DatasetEpoch::fresh(1));
        assert_eq!(h.index.len(), 4);
        assert!(h.view.is_plain());
        assert!(c.is_indexed("sq"));
        // Second handle shares the same index; exactly one build ran.
        let h2 = c.handle("sq").unwrap();
        assert!(Arc::ptr_eq(&h.index, &h2.index));
        assert_eq!(c.stats().index_builds, 1);
    }

    #[test]
    fn peek_never_builds_never_waits_and_offers_only_plain_built_bases() {
        let c = Catalog::new();
        assert!(c.peek("sq").is_none(), "unknown dataset");
        c.register("sq", 2, unit_square()).unwrap();
        let cold = c.peek("sq").unwrap();
        assert_eq!(cold.epoch, DatasetEpoch::fresh(1));
        assert!(cold.plain.is_none(), "no index yet");
        assert_eq!(c.stats().index_builds, 0, "the peek built nothing");
        let h = c.handle("sq").unwrap();
        let warm = c.peek("sq").unwrap();
        assert!(Arc::ptr_eq(warm.plain.as_ref().unwrap(), &h.index));
        {
            let _writer = c.inner.write().unwrap();
            assert!(c.peek("sq").is_none(), "a held write lock is not waited on");
            assert_eq!(c.stats().index_builds, 1, "stats take no lock");
        }
        c.append("sq", &[2.0, 2.0]).unwrap();
        let mutated = c.peek("sq").unwrap();
        assert_eq!(mutated.epoch, c.epoch("sq").unwrap());
        assert!(mutated.plain.is_none(), "an overlay needs delta state");
    }

    #[test]
    fn append_is_absorbed_by_the_overlay() {
        let c = Catalog::new();
        c.register("sq", 2, unit_square()).unwrap();
        let h1 = c.handle("sq").unwrap();
        assert_eq!(c.append("sq", &[0.5, 0.5]).unwrap(), 5);
        // The base index survives: no rebuild, no index drop.
        assert!(c.is_indexed("sq"));
        let h2 = c.handle("sq").unwrap();
        assert_eq!(
            h2.epoch,
            DatasetEpoch {
                base: 1,
                delta: 1,
                tombstones: 0
            }
        );
        assert!(Arc::ptr_eq(&h1.index, &h2.index), "no rebuild on append");
        assert_eq!(h2.view.delta_ids(), &[4]);
        assert_eq!(h2.live_len(), 5);
        // The old handle still sees its consistent snapshot.
        assert_eq!(h1.epoch, DatasetEpoch::fresh(1));
        assert!(h1.view.is_plain());
        let s = c.stats();
        assert_eq!((s.index_builds, s.rebuilds_avoided), (1, 1));
    }

    #[test]
    fn delete_tombstones_base_and_drops_delta_rows() {
        let c = Catalog::new();
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5, 0.25, 0.75]).unwrap(); // ids 4, 5
        assert_eq!(c.delete("sq", &[1, 4]).unwrap(), 4);
        let h = c.handle("sq").unwrap();
        assert_eq!(
            h.epoch,
            DatasetEpoch {
                base: 1,
                delta: 2,
                tombstones: 2
            }
        );
        assert_eq!(h.view.dead_ids(), &[1]);
        assert_eq!(h.view.delta_ids(), &[5]); // id 4 dropped, 5 survives
        assert_eq!(h.view.delta_rows(), &[0.25, 0.75]);
        // New appends keep allocating fresh ids (4 is never reused).
        c.append("sq", &[0.9, 0.9]).unwrap();
        assert_eq!(c.handle("sq").unwrap().view.delta_ids(), &[5, 6]);
        // Double delete and unknown ids are typed errors, atomically.
        assert_eq!(
            c.delete("sq", &[5, 1]).unwrap_err(),
            EngineError::UnknownPointId { id: 1 }
        );
        assert_eq!(
            c.handle("sq").unwrap().view.delta_ids(),
            &[5, 6],
            "failed delete must not partially apply"
        );
        assert_eq!(
            c.delete("sq", &[99]).unwrap_err(),
            EngineError::UnknownPointId { id: 99 }
        );
    }

    /// A [`MemBackend`] whose `wal_append`
    /// fails while the shared flag is set.
    #[derive(Debug)]
    struct FailingWal {
        inner: MemBackend,
        fail: Arc<AtomicBool>,
    }

    impl StorageBackend for FailingWal {
        fn wal_bytes(&self) -> std::io::Result<Vec<u8>> {
            self.inner.wal_bytes()
        }
        fn wal_append(&self, record: &[u8], sync: bool) -> std::io::Result<()> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected WAL failure"));
            }
            self.inner.wal_append(record, sync)
        }
        fn wal_truncate(&self, len: u64) -> std::io::Result<()> {
            self.inner.wal_truncate(len)
        }
        fn snapshot_bytes(&self) -> std::io::Result<Option<Vec<u8>>> {
            self.inner.snapshot_bytes()
        }
        fn install_checkpoint(&self, snapshot: &[u8]) -> std::io::Result<()> {
            self.inner.install_checkpoint(snapshot)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.inner.sync()
        }
    }

    /// A catalog logging to a [`FailingWal`], plus the failure switch.
    fn durable_catalog() -> (Catalog, Arc<AtomicBool>) {
        let fail = Arc::new(AtomicBool::new(false));
        let backend = FailingWal {
            inner: MemBackend::new(),
            fail: fail.clone(),
        };
        let recovered = Durability::open(Box::new(backend), FsyncPolicy::Never).unwrap();
        let c = Catalog::new();
        c.attach_durability(Arc::new(recovered.durability));
        (c, fail)
    }

    /// Everything a mutation may change, read back through the public
    /// surface: epoch, live count, materialised rows + ids, and a TopK
    /// answer with its score bits.
    type Observed = (DatasetEpoch, usize, Vec<u64>, Vec<u32>, Vec<(u32, u64)>);

    fn observe(c: &Catalog, name: &str) -> Observed {
        let h = c.handle(name).unwrap();
        let (rows, ids) = h.view.materialize_row_major();
        let top = wqrtq_query::topk(h.snapshot(), &[0.3, 0.7], usize::MAX);
        (
            h.epoch,
            h.live_len(),
            rows.iter().map(|x| x.to_bits()).collect(),
            ids,
            top.iter().map(|&(id, s)| (id, s.to_bits())).collect(),
        )
    }

    #[test]
    fn empty_mutations_are_not_mutations() {
        let (c, _fail) = durable_catalog();
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5]).unwrap(); // id 4
        let before = (observe(&c, "sq"), c.stats());
        assert_eq!(c.append("sq", &[]).unwrap(), 5);
        assert_eq!(c.delete("sq", &[]).unwrap(), 5);
        let after = (observe(&c, "sq"), c.stats());
        assert_eq!(before, after, "no WAL record, no epoch bump, no counter");
        // An unknown dataset is still an error, and ids are not skipped.
        assert_eq!(
            c.append("nope", &[]).unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
        assert_eq!(
            c.delete("nope", &[]).unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
        c.append("sq", &[0.25, 0.25]).unwrap();
        assert_eq!(c.handle("sq").unwrap().view.delta_ids(), &[4, 5]);
        assert_eq!(c.stats().wal_appends, before.1.wal_appends + 1);
    }

    #[test]
    fn unlogged_means_undone() {
        let (c, fail) = durable_catalog();
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5, 0.25, 0.75, 0.75, 0.25]).unwrap(); // ids 4, 5, 6
        c.delete("sq", &[2]).unwrap();
        let before = (observe(&c, "sq"), c.stats());
        let is_durability = |e: EngineError| matches!(e, EngineError::Durability { .. });

        fail.store(true, Ordering::SeqCst);
        assert!(is_durability(c.append("sq", &[0.1, 0.1]).unwrap_err()));
        assert!(is_durability(c.delete("sq", &[0, 3]).unwrap_err())); // base ids
        assert!(is_durability(c.delete("sq", &[4, 6]).unwrap_err())); // delta ids
        assert!(is_durability(c.delete("sq", &[1, 5]).unwrap_err())); // mixed
        assert_eq!(before, (observe(&c, "sq"), c.stats()), "nothing applied");

        // The next successful mutations behave as if the failed ones had
        // never been submitted: same ids assigned, same ids deletable.
        fail.store(false, Ordering::SeqCst);
        assert_eq!(c.append("sq", &[0.1, 0.1]).unwrap(), 7);
        assert_eq!(c.handle("sq").unwrap().view.delta_ids(), &[4, 5, 6, 7]);
        assert_eq!(c.delete("sq", &[1, 5]).unwrap(), 5);
        let h = c.handle("sq").unwrap();
        assert_eq!(h.view.dead_ids(), &[1, 2]);
        assert_eq!(h.view.delta_ids(), &[4, 6, 7]);
        assert_eq!(c.stats().wal_appends, before.1.wal_appends + 2);
    }

    #[test]
    fn append_grows_in_place_unless_a_snapshot_is_held() {
        let c = Catalog::new();
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5, 0.25, 0.75]).unwrap();
        let delta_ptrs = |c: &Catalog| {
            let inner = c.inner.read().unwrap();
            let e = &inner.datasets["sq"];
            (Arc::as_ptr(&e.delta_rows), Arc::as_ptr(&e.delta_ids))
        };
        // No handle outstanding: the same allocation is extended.
        let before = delta_ptrs(&c);
        c.append("sq", &[0.9, 0.9]).unwrap();
        assert_eq!(before, delta_ptrs(&c), "append must not copy the delta");

        // A held handle forces the copy and keeps reading its own rows.
        let held = c.handle("sq").unwrap();
        let seen = held.view.materialize_row_major();
        c.append("sq", &[0.1, 0.1]).unwrap();
        c.delete("sq", &[5]).unwrap();
        assert_ne!(before, delta_ptrs(&c), "a shared delta is copied");
        assert_eq!(held.view.materialize_row_major(), seen);
        assert_eq!(held.view.delta_ids(), &[4, 5, 6]);
        assert_eq!(c.handle("sq").unwrap().view.delta_ids(), &[4, 6, 7]);
    }

    #[test]
    fn compaction_merges_in_canonical_order() {
        let c = Catalog::new();
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5]).unwrap();
        c.delete("sq", &[0]).unwrap();
        let epoch = c.epoch("sq").unwrap();
        assert!(c.compact_if("sq", epoch).unwrap());
        let h = c.handle("sq").unwrap();
        assert_eq!(h.epoch, DatasetEpoch::fresh(2));
        assert!(h.view.is_plain());
        assert_eq!(
            *h.coords,
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5],
            "live rows in canonical order"
        );
        // Compacting again at the (stale) old epoch is a no-op.
        assert!(!c.compact_if("sq", epoch).unwrap());
        let s = c.stats();
        assert_eq!(s.compactions, 1);
    }

    #[test]
    fn compaction_abandons_when_superseded() {
        let c = Catalog::new();
        c.register("d", 2, unit_square()).unwrap();
        c.append("d", &[0.5, 0.5]).unwrap();
        let old = c.epoch("d").unwrap();
        c.append("d", &[0.6, 0.6]).unwrap();
        // `old` no longer matches: the merge must not install.
        assert!(!c.compact_if("d", old).unwrap());
        assert_eq!(c.epoch("d").unwrap().base, 1);
    }

    #[test]
    fn reregister_bumps_base_epoch() {
        let c = Catalog::new();
        c.register("d", 2, unit_square()).unwrap();
        c.append("d", &[0.5, 0.5]).unwrap();
        c.register("d", 3, vec![0.0; 9]).unwrap();
        let epoch = c.epoch("d").unwrap();
        assert_eq!(epoch, DatasetEpoch::fresh(2));
        assert_eq!(c.handle("d").unwrap().dim, 3);
    }

    #[test]
    fn errors_are_typed() {
        let c = Catalog::new();
        assert_eq!(
            c.handle("nope").unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
        assert_eq!(
            c.register("z", 0, vec![]).unwrap_err(),
            EngineError::ZeroDimension
        );
        assert_eq!(
            c.register("r", 3, vec![1.0, 2.0]).unwrap_err(),
            EngineError::RaggedCoordinates { dim: 3, len: 2 }
        );
        assert_eq!(
            c.register("nan", 2, vec![f64::NAN, 1.0]).unwrap_err(),
            EngineError::NonFiniteInput {
                field: "coordinates"
            }
        );
        c.register("d", 2, unit_square()).unwrap();
        assert_eq!(
            c.append("d", &[1.0]).unwrap_err(),
            EngineError::RaggedCoordinates { dim: 2, len: 1 }
        );
        assert_eq!(
            c.append("d", &[f64::INFINITY, 0.0]).unwrap_err(),
            EngineError::NonFiniteInput {
                field: "coordinates"
            }
        );
        assert_eq!(
            c.append("nope", &[1.0, 1.0]).unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
        assert_eq!(
            c.delete("nope", &[0]).unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
    }

    #[test]
    fn weight_sets_are_immutable_and_validated() {
        let c = Catalog::new();
        c.register_weights("cust", vec![Weight::new(vec![0.5, 0.5])])
            .unwrap();
        assert_eq!(c.weights("cust").unwrap().len(), 1);
        assert_eq!(
            c.register_weights("cust", vec![]).unwrap_err(),
            EngineError::WeightSetExists("cust".into())
        );
        assert_eq!(
            c.weights("nope").unwrap_err(),
            EngineError::UnknownWeightSet("nope".into())
        );
        // Weight's own constructor already rejects non-finite entries;
        // the catalog's check is the backstop for any future bypass.
        assert!(crate::request::check_weight(&[f64::NAN, 1.0], "w").is_err());
        assert!(crate::request::check_weight(&[-0.5, 1.5], "w").is_err());
        assert!(crate::request::check_weight(&[0.0, 0.0], "w").is_err());
        assert!(crate::request::check_weight(&[0.3, 0.7], "w").is_ok());
    }

    #[test]
    fn dataset_names_sorted() {
        let c = Catalog::new();
        c.register("b", 1, vec![1.0]).unwrap();
        c.register("a", 1, vec![2.0]).unwrap();
        assert_eq!(c.dataset_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn mask_builds_lazily_and_separately_from_the_index() {
        let c = Catalog::new();
        c.register("diag", 2, diagonal(64)).unwrap();
        let h = c.handle("diag").unwrap();
        let dom = h.dom.expect("default catalog builds the mask");
        assert!(!dom.culprit_planes().is_empty());
        let s = c.stats();
        assert_eq!((s.index_builds, s.mask_builds), (1, 1));
        // A second handle shares the same mask — still one build each.
        let h2 = c.handle("diag").unwrap();
        assert!(Arc::ptr_eq(&dom, h2.dom.as_ref().unwrap()));
        let s = c.stats();
        assert_eq!((s.index_builds, s.mask_builds), (1, 1));
    }

    #[test]
    fn prefilter_off_catalog_serves_the_unmasked_reference_plane() {
        let c = Catalog::with_config(false);
        c.register("sq", 2, unit_square()).unwrap();
        let h = c.handle("sq").unwrap();
        assert!(h.dom.is_none(), "prefilter off: no mask");
        let s = c.stats();
        assert_eq!(s.mask_builds, 0);
    }

    #[test]
    fn compaction_retires_the_mask_with_its_base_generation() {
        let c = Catalog::new();
        c.register("diag", 2, diagonal(64)).unwrap();
        let dom1 = c.handle("diag").unwrap().dom.unwrap();
        c.append("diag", &[0.5, 0.5]).unwrap();
        let epoch = c.epoch("diag").unwrap();
        assert!(c.compact_if("diag", epoch).unwrap());
        // The fresh base generation rebuilds its mask lazily, on demand.
        assert_eq!(c.stats().mask_builds, 1);
        let dom2 = c.handle("diag").unwrap().dom.unwrap();
        assert!(!Arc::ptr_eq(&dom1, &dom2), "new base, new mask");
        assert!(!dom2.culprit_planes().is_empty());
        assert_eq!(c.stats().mask_builds, 2);
    }

    #[test]
    fn concurrent_cold_handles_build_exactly_once() {
        use std::sync::Barrier;
        let c = Arc::new(Catalog::new());
        // Big enough that a build takes real time, so the race window is
        // wide open without the OnceLock.
        let n = 20_000;
        let coords: Vec<f64> = (0..n * 2).map(|i| (i % 997) as f64).collect();
        c.register("big", 2, coords).unwrap();
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = c.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    c.handle("big").unwrap()
                })
            })
            .collect();
        let built: Vec<DatasetHandle> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            c.stats().index_builds,
            1,
            "racing cold callers must share one build"
        );
        for h in &built[1..] {
            assert!(Arc::ptr_eq(&built[0].index, &h.index));
        }
    }
}
