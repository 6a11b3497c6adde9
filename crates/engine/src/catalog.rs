//! The dataset catalog: named product datasets — each one base
//! `Generation` plus one [`Overlay`] — and named (immutable) customer
//! weight populations.
//!
//! ## Mutation lifecycle
//!
//! * **One way in.** Every catalog write is a mutation [`Request`] taken
//!   by `Catalog::apply` — the pool's and the engine's mutations and
//!   recovery's replay alike. It locks, validates, logs the request
//!   itself as the WAL record, then moves its fields in (a
//!   registration's coordinates are never copied): a failed log leaves
//!   the catalog as it was ("unlogged means undone"), and an empty
//!   append/delete logs nothing. The public surface only reads.
//! * **Register** installs a fresh `Generation`: the base epoch, the
//!   row-major coordinates, and the index and each named population's
//!   [`ScoreTable`] built from them on first use, once
//!   each — concurrent cold callers block on the one builder behind the
//!   generation's [`OnceLock`], outside the catalog lock, so other
//!   datasets never stall behind a build. Each build records one
//!   [`Stage`] sample. **Append** and **delete** go through the
//!   overlay, the index untouched.
//! * **Compaction** (`Request::Compact`, or the scheduled
//!   `Job::Compact`'s `Catalog::compact_if`) installs a new generation
//!   bulk-loaded from [`Overlay::merge`]'s canonical order, bumping the
//!   base epoch, off the request path; a mutation landing mid-merge
//!   abandons it. A generation's merge guard lets one merge of it run
//!   at a time, so a second caller waits and then finds the epoch moved.
//!   The old generation's index and score tables die with it.
//! * **Recovery** rebuilds each overlay through [`Overlay::try_new`]
//!   and each population through [`Weight::try_new`]: a snapshot the
//!   catalog could not have written is a typed error.
//!
//! Every writer takes the lock through `Catalog::write`, so each hold is
//! one [`Stage::CatalogWrite`] sample. Lock order is merge guard, then
//! catalog lock; no one takes a merge guard under the catalog lock.
//!
//! Every snapshot carries a [`DatasetEpoch`] triple
//! `(base, delta, tombstones)` whose components only ever grow within a
//! base generation (and `base` grows across generations), so a result
//! cache keyed on it can never serve a stale response — whether or not
//! the stale entry was evicted yet.

use crate::error::EngineError;
use crate::request::{check_finite, check_simplex, Request, RequestKind, Response};
use crate::storage::{CatalogState, DatasetState, Durability, StorageError, WeightSetState};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockWriteGuard};
use std::time::Instant;
use wqrtq_geom::{DeltaView, FlatPoints, Overlay, Weight};
use wqrtq_obs::{Stage, Tracer};
use wqrtq_query::{ScoreTable, Snapshot};
use wqrtq_rtree::{DominanceIndex, RTree};

/// A storage failure surfaced through the engine's error vocabulary.
fn durability_err(e: StorageError) -> EngineError {
    EngineError::Durability {
        reason: e.to_string(),
    }
}

/// Rebuilds a [`Weight`] from persisted components through the one
/// check of its invariants, [`Weight::try_new`]: a damaged image is a
/// typed error, not a panic.
fn weight_from_state(w: Vec<f64>) -> Result<Weight, EngineError> {
    Weight::try_new(w).map_err(|_| EngineError::Durability {
        reason: "recovered weight vector violates its invariants".to_string(),
    })
}

/// A population has one dimension: every weight's is the first's.
fn check_population_dim(weights: &[Vec<f64>]) -> Result<(), EngineError> {
    let expected = weights.first().map_or(0, Vec::len);
    match weights.iter().find(|w| w.len() != expected) {
        Some(w) => Err(EngineError::DimensionMismatch {
            expected,
            got: w.len(),
        }),
        None => Ok(()),
    }
}

/// A registration's shape and coordinates: a positive dimensionality,
/// whole rows, finite throughout.
fn check_registration(dim: usize, coords: &[f64]) -> Result<(), EngineError> {
    if dim == 0 {
        return Err(EngineError::ZeroDimension);
    }
    if !coords.len().is_multiple_of(dim) {
        return Err(EngineError::RaggedCoordinates {
            dim,
            len: coords.len(),
        });
    }
    check_finite(coords, "coordinates")
}

/// The reply to a request that writes nothing, should one reach
/// [`Catalog::apply`].
fn not_a_write(kind: RequestKind) -> Response {
    Response::Error(format!("a {} request is not a catalog write", kind.name()))
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
    /// Retired: always `None`. The k-dominance mask is no longer built;
    /// the field stays only because `benchmark/` compiles against it.
    pub dom: Option<Arc<DominanceIndex>>,
    /// The generation the base fields come from: where its score tables
    /// live ([`Catalog::score_table`]).
    generation: Arc<Generation>,
}

impl DatasetHandle {
    /// Number of live points in this snapshot.
    pub fn live_len(&self) -> usize {
        self.view.live_len()
    }

    /// The borrowed form every query and why-not entry point takes:
    /// base index + overlay.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot::from(&*self.index).overlay(&self.view)
    }
}

/// What [`Catalog::peek`] learns about a dataset without waiting or
/// building.
#[derive(Debug)]
pub(crate) struct Peek {
    /// Epoch triple at peek time.
    pub(crate) epoch: DatasetEpoch,
    /// The base index, when the dataset is overlay-free and its index
    /// is built — a top-k over it needs no delta state.
    pub(crate) plain: Option<Arc<RTree>>,
    /// The asked-for population's weights and its score table over
    /// `plain`, when that table is already built.
    pub(crate) table: Option<PeekedTable>,
}

/// A named population and its built score table over a plain base.
#[derive(Debug)]
pub(crate) struct PeekedTable {
    pub(crate) weights: Arc<Vec<Weight>>,
    pub(crate) table: Arc<ScoreTable>,
}

type BuiltIndex = (Arc<RTree>, Arc<FlatPoints>);

/// How many scores a [`ScoreTable`] keeps per weight, and so the
/// largest clamped `k` it serves. A table pays off only when requests
/// repeat on one (generation, population); the measured traffic asks
/// for `k = 10`, so deeper requests keep RTA.
pub(crate) const SCORE_TABLE_DEPTH: usize = 10;

/// The largest population a score table is built for: at most 1.25 MiB
/// of scores and, at about 12 µs a weight (`d = 3`), 0.2 s of build on
/// the request that finds it cold. A larger population is answered by
/// RTA every time, in `O(|W|)` transient memory.
pub(crate) const SCORE_TABLE_MAX_WEIGHTS: usize = 1 << 14;

/// One bulk-loaded base: its epoch, its row-major coordinates, and the
/// index and score tables built from them lazily. Replaced
/// wholesale on re-registration and compaction, so they describe
/// exactly this base.
#[derive(Debug)]
struct Generation {
    epoch: u64,
    coords: Arc<Vec<f64>>,
    index: OnceLock<BuiltIndex>,
    /// Held by [`Catalog::compact_if`] from its epoch check through the
    /// install, so one merge of this base runs at a time.
    merging: Mutex<()>,
    /// Keyed by population name: populations are immutable and a name is
    /// never re-registered, so a table never goes stale within its base.
    /// The lock covers only finding a population's cell, never a build.
    tables: Mutex<HashMap<String, Arc<OnceLock<Arc<ScoreTable>>>>>,
}

#[derive(Clone, Debug)]
struct DatasetEntry {
    dim: usize,
    base: Arc<Generation>,
    overlay: Overlay,
}

impl DatasetEntry {
    /// A generation over `coords` with an empty overlay.
    fn new(dim: usize, epoch: u64, coords: Vec<f64>, index: OnceLock<BuiltIndex>) -> Self {
        let overlay = Overlay::new(dim, coords.len() / dim);
        let base = Generation {
            epoch,
            coords: Arc::new(coords),
            index,
            merging: Mutex::default(),
            tables: Mutex::default(),
        };
        Self {
            dim,
            base: Arc::new(base),
            overlay,
        }
    }

    fn epoch(&self) -> DatasetEpoch {
        DatasetEpoch {
            base: self.base.epoch,
            delta: self.overlay.appends(),
            tombstones: self.overlay.deletes(),
        }
    }
}

/// Row `i` of a row-major buffer: the base-row accessor the overlay's
/// delete and merge read tombstoned and surviving rows through.
fn row_major(coords: &[f64], dim: usize) -> impl Fn(usize, &mut [f64]) + '_ {
    move |i, row| row.copy_from_slice(&coords[i * dim..(i + 1) * dim])
}

/// The catalog write lock, held: derefs to the catalog's maps and,
/// when dropped, records the hold as one [`Stage::CatalogWrite`]
/// sample, just before the lock is released.
struct WriteHold<'a> {
    inner: RwLockWriteGuard<'a, CatalogInner>,
    tracer: &'a Tracer,
    started: Instant,
}

impl Deref for WriteHold<'_> {
    type Target = CatalogInner;

    fn deref(&self) -> &CatalogInner {
        &self.inner
    }
}

impl DerefMut for WriteHold<'_> {
    fn deref_mut(&mut self) -> &mut CatalogInner {
        &mut self.inner
    }
}

impl Drop for WriteHold<'_> {
    fn drop(&mut self) {
        let held = self.started.elapsed();
        self.tracer.sample(Stage::CatalogWrite, held);
    }
}

#[derive(Debug, Default)]
struct CatalogInner {
    datasets: HashMap<String, DatasetEntry>,
    weight_sets: HashMap<String, Arc<Vec<Weight>>>,
}

impl CatalogInner {
    fn dataset(&self, name: &str) -> Result<&DatasetEntry, EngineError> {
        let unknown = || EngineError::UnknownDataset(name.to_string());
        self.datasets.get(name).ok_or_else(unknown)
    }

    fn dataset_mut(&mut self, name: &str) -> Result<&mut DatasetEntry, EngineError> {
        let unknown = || EngineError::UnknownDataset(name.to_string());
        self.datasets.get_mut(name).ok_or_else(unknown)
    }
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
    /// Retired: always 0 (no k-dominance mask is built). Kept for
    /// `benchmark/`'s `engine.mask_builds` and its slot in the wire's
    /// stats reply.
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
    index_builds: AtomicU64,
    rebuilds_avoided: AtomicU64,
    compactions: AtomicU64,
    compactions_abandoned: AtomicU64,
    /// The engine's tracer, which every lazy build, every compaction,
    /// every write-lock hold and the durability layer record one
    /// [`Tracer::sample`] per operation into ([`Stage::IndexBuild`] on).
    tracer: Arc<Tracer>,
    /// The durability layer, attached once (after recovery replay, so
    /// replayed mutations are not logged twice). `None` for in-memory
    /// engines — every hook below is then a single branch, leaving the
    /// default path untouched.
    durability: OnceLock<Arc<Durability>>,
}

impl Catalog {
    /// An empty catalog sampling its builds and storage operations into
    /// `tracer`.
    pub(crate) fn new(tracer: Arc<Tracer>) -> Self {
        Self {
            inner: RwLock::default(),
            index_builds: AtomicU64::default(),
            rebuilds_avoided: AtomicU64::default(),
            compactions: AtomicU64::default(),
            compactions_abandoned: AtomicU64::default(),
            tracer,
            durability: OnceLock::new(),
        }
    }

    /// Takes the catalog write lock; every writer goes through here, so
    /// each hold is one [`Stage::CatalogWrite`] sample ([`WriteHold`]).
    fn write(&self) -> WriteHold<'_> {
        let inner = self.inner.write().expect("catalog lock");
        WriteHold {
            inner,
            tracer: &self.tracer,
            started: Instant::now(),
        }
    }

    /// Attaches the durability layer, sampling its storage stages into
    /// this catalog's tracer. Must happen strictly after any
    /// recovery replay — mutations made before the attach are never
    /// logged (that is what makes replay idempotent).
    ///
    /// # Panics
    /// Panics if a layer is already attached.
    pub(crate) fn attach_durability(&self, d: Durability) {
        self.durability
            .set(Arc::new(d.with_tracer(self.tracer.clone())))
            // lint: allow(no-panic) — the documented `# Panics`
            // contract: attaching twice is an engine-construction bug.
            .expect("durability layer attached exactly once");
    }

    /// The one catalog write: applies a mutation `request` and returns
    /// its reply — [`Response::Mutated`] with the rows or weights a
    /// registration took or the live count an append or delete left,
    /// [`Response::Compacted`] for a compaction, which is
    /// [`Catalog::compact_if`] at the current epoch. It locks,
    /// validates, logs `request` as its WAL record, then moves the
    /// fields in, so registered coordinates are never copied. A failed
    /// log leaves the catalog as it was ("unlogged means undone"); an
    /// empty append or delete changes and logs nothing. Re-registering
    /// a dataset bumps its base epoch and drops its built index; a
    /// delete is all-or-nothing. Recovery replays every WAL record
    /// through here before the durability layer is attached, so nothing
    /// is logged twice.
    ///
    /// # Errors
    /// A registration: [`EngineError::ZeroDimension`] /
    /// [`EngineError::RaggedCoordinates`] / [`EngineError::NonFiniteInput`].
    /// An append or delete: [`EngineError::UnknownDataset`] /
    /// [`EngineError::RaggedCoordinates`] / [`EngineError::NonFiniteInput`]
    /// / [`EngineError::DatasetFull`] / [`EngineError::UnknownPointId`]
    /// (an unknown, already-deleted or repeated id). A population:
    /// [`EngineError::NonFiniteInput`] / [`EngineError::InvalidWeight`] /
    /// [`EngineError::DimensionMismatch`] / [`EngineError::WeightSetExists`]
    /// (populations are immutable, so cached bichromatic results keyed on
    /// the name never go stale). Any of them: [`EngineError::Durability`]
    /// (nothing was applied).
    pub(crate) fn apply(&self, request: Request) -> Result<Response, EngineError> {
        let kind = request.kind();
        // Validate — under the write lock wherever a check reads the
        // catalog — and answer an empty append or delete right here.
        let (mut inner, victims) = match &request {
            Request::Compact { dataset } => {
                let epoch = self.epoch(dataset)?;
                let ran = self.compact_if(dataset, epoch)?;
                return Ok(Response::Compacted { ran });
            }
            Request::Register { dim, coords, .. } => {
                check_registration(*dim, coords)?;
                (self.write(), Vec::new())
            }
            Request::RegisterWeights { name, weights } => {
                for w in weights {
                    check_simplex(w, "weight set")?;
                }
                check_population_dim(weights)?;
                let inner = self.write();
                if inner.weight_sets.contains_key(name) {
                    return Err(EngineError::WeightSetExists(name.clone()));
                }
                (inner, Vec::new())
            }
            Request::Append { dataset, points } => {
                check_finite(points, "coordinates")?;
                let inner = self.write();
                let overlay = &inner.dataset(dataset)?.overlay;
                overlay.check_append(points)?;
                if points.is_empty() {
                    let live_len = overlay.live_len();
                    return Ok(Response::Mutated { live_len });
                }
                (inner, Vec::new())
            }
            Request::Delete { dataset, ids } => {
                let inner = self.write();
                let overlay = &inner.dataset(dataset)?.overlay;
                let victims = overlay.check_delete(ids)?;
                if victims.is_empty() {
                    let live_len = overlay.live_len();
                    return Ok(Response::Mutated { live_len });
                }
                (inner, victims)
            }
            _ => return Ok(not_a_write(kind)),
        };
        self.log(&request)?;
        let live_len = match request {
            Request::Register {
                dataset,
                dim,
                coords,
            } => {
                let rows = coords.len() / dim;
                let base_epoch = inner
                    .datasets
                    .get(&dataset)
                    .map_or(1, |old| old.base.epoch + 1);
                let entry = DatasetEntry::new(dim, base_epoch, coords, OnceLock::new());
                inner.datasets.insert(dataset, entry);
                rows
            }
            Request::RegisterWeights { name, weights } => {
                // Every vector passed `Weight::check` above.
                let population: Vec<Weight> = weights.into_iter().map(Weight::new).collect();
                let size = population.len();
                inner.weight_sets.insert(name, Arc::new(population));
                size
            }
            Request::Append { dataset, points } => {
                let entry = inner.dataset_mut(&dataset)?;
                entry.overlay.append(&points);
                self.absorbed(entry)
            }
            Request::Delete { dataset, .. } => {
                let entry = inner.dataset_mut(&dataset)?;
                let base_row = row_major(&entry.base.coords, entry.dim);
                entry.overlay.delete(&victims, base_row);
                self.absorbed(entry)
            }
            _ => return Ok(not_a_write(kind)),
        };
        Ok(Response::Mutated { live_len })
    }

    /// Writes a mutation's WAL record — before anything is applied, so a
    /// failed log needs no roll-back. A no-op without a durability layer.
    fn log(&self, request: &Request) -> Result<(), EngineError> {
        match self.durability.get() {
            Some(d) => d.log(request).map(|_| ()).map_err(durability_err),
            None => Ok(()),
        }
    }

    /// Bulk-loads a base's index and column-major mirror, counted and
    /// timed (lazily on first use, and for a compaction's merged base).
    fn build_index(&self, dim: usize, coords: &[f64]) -> BuiltIndex {
        let started = Instant::now();
        // ordering: Relaxed — monotonic stats counter, read only by
        // `stats()` (a lazy build's OnceLock synchronizes the build).
        self.index_builds.fetch_add(1, Ordering::Relaxed);
        let flat = FlatPoints::from_row_major(dim, coords);
        let built = (Arc::new(RTree::bulk_load(dim, coords)), Arc::new(flat));
        self.tracer.sample(Stage::IndexBuild, started.elapsed());
        built
    }

    /// Counts a mutation the overlay absorbed while a built index existed
    /// and returns the dataset's live count.
    fn absorbed(&self, entry: &DatasetEntry) -> usize {
        if entry.base.index.get().is_some() {
            // ordering: Relaxed — monotonic stats counter, read only by
            // `stats()`.
            self.rebuilds_avoided.fetch_add(1, Ordering::Relaxed);
        }
        entry.overlay.live_len()
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
    /// first use — outside the catalog lock, and exactly once per base
    /// generation: concurrent cold callers block on the one builder
    /// instead of burning cores on duplicate `bulk_load`s.
    pub fn handle(&self, name: &str) -> Result<DatasetHandle, EngineError> {
        // Under the read lock, clone the generation and the overlay.
        let entry = DatasetEntry::clone(self.inner.read().expect("catalog lock").dataset(name)?);
        let (dim, epoch, base) = (entry.dim, entry.epoch(), &entry.base);
        let (index, flat) = base
            .index
            .get_or_init(|| self.build_index(dim, &base.coords))
            .clone();
        Ok(DatasetHandle {
            coords: base.coords.clone(),
            dim,
            epoch,
            index,
            view: entry.overlay.view(flat.clone()),
            flat,
            dom: None,
            generation: entry.base,
        })
    }

    /// The [`SCORE_TABLE_DEPTH`]-deep score table of the population
    /// registered as `name` (`population`: its weights) over `handle`'s
    /// base, built on first use exactly once per (generation,
    /// population), outside the catalog lock. `None` — the request takes
    /// RTA — for `k = 0`, `k` past the depth and a population larger than
    /// [`SCORE_TABLE_MAX_WEIGHTS`].
    pub(crate) fn score_table(
        &self,
        handle: &DatasetHandle,
        name: &str,
        population: &[Weight],
        k: usize,
    ) -> Option<Arc<ScoreTable>> {
        if !(1..=SCORE_TABLE_DEPTH).contains(&k) || population.len() > SCORE_TABLE_MAX_WEIGHTS {
            return None;
        }
        let cell = {
            let mut tables = handle.generation.tables.lock().expect("score-table lock");
            // Look up by `&str` first: a hit allocates nothing.
            match tables.get(name) {
                Some(cell) => cell.clone(),
                None => tables.entry(name.to_string()).or_default().clone(),
            }
        };
        let table = cell.get_or_init(|| {
            let started = Instant::now();
            let table = ScoreTable::build(&handle.index, population, SCORE_TABLE_DEPTH);
            self.tracer.sample(Stage::TableBuild, started.elapsed());
            Arc::new(table)
        });
        Some(table.clone())
    }

    /// Merges a dataset's overlay into a fresh bulk-loaded base **iff**
    /// its epoch still equals `epoch` when the merge finishes — the
    /// check-merge-recheck dance makes compaction safe to run
    /// concurrently with mutations: a mutation that lands mid-merge
    /// abandons this attempt (its own trigger will schedule the next
    /// one). The generation's merge guard is held from the epoch check
    /// through the install, so a second caller for the same epoch waits
    /// for this merge and then returns `Ok(false)` instead of repeating
    /// it. Returns whether a merge was installed.
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`] / [`EngineError::Durability`]
    /// (the `Compact` record was not logged: nothing installed).
    pub(crate) fn compact_if(&self, name: &str, epoch: DatasetEpoch) -> Result<bool, EngineError> {
        // The guard comes before the catalog lock, never under it.
        let generation = self
            .inner
            .read()
            .expect("catalog lock")
            .dataset(name)?
            .base
            .clone();
        let _merging = generation.merging.lock().expect("merge guard lock");
        // Deliberately NOT through `handle()`, which would lazily build
        // the *stale* base index only for this merge to throw it away:
        // the merge needs the base coordinates alone.
        let DatasetEntry { dim, base, overlay } = {
            let inner = self.inner.read().expect("catalog lock");
            let entry = inner.dataset(name)?;
            if entry.epoch() != epoch || entry.overlay.is_empty() {
                return Ok(false); // already merged, superseded, or nothing to do
            }
            entry.clone()
        };
        // Merge + build outside the lock (the expensive part).
        let started = Instant::now();
        let (live, _) = overlay.merge(row_major(&base.coords, dim));
        let built = self.build_index(dim, &live);

        let mut inner = self.write();
        let entry = inner.dataset_mut(name)?;
        // Log the merge *before* installing it: a Compact record that
        // cannot be made durable abandons the merge (the overlay and its
        // trigger survive untouched), so the WAL always carries the
        // record for any installed base.
        let logged = if entry.epoch() == epoch {
            let request = Request::Compact {
                dataset: name.to_string(),
            };
            self.log(&request).map(|()| true)
        } else {
            Ok(false) // superseded mid-merge
        };
        if !matches!(logged, Ok(true)) {
            // ordering: Relaxed — monotonic stats counter, read only by
            // `stats()`.
            self.compactions_abandoned.fetch_add(1, Ordering::Relaxed);
            self.tracer.sample(Stage::Compaction, started.elapsed());
            return logged;
        }
        // The stale generation's index and score tables die with it.
        *entry = DatasetEntry::new(dim, entry.base.epoch + 1, live, OnceLock::from(built));
        // ordering: Relaxed — monotonic stats counter; installation of
        // the merged base is published by the catalog write lock above.
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.tracer.sample(Stage::Compaction, started.elapsed());
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
    /// empty and the index is already built (a compaction installs its
    /// merged base built), plus — over such a base — the score table of
    /// the weights registered as `population`, when it is already built
    /// and no other thread holds the tables' lock. `None` when the
    /// dataset is unknown or a writer holds the catalog lock — the caller
    /// then leaves the request to [`Catalog::handle`] on the pool.
    pub(crate) fn peek(&self, name: &str, population: Option<&str>) -> Option<Peek> {
        let inner = self.inner.try_read().ok()?;
        let entry = inner.datasets.get(name)?;
        let plain = entry.base.index.get().filter(|_| entry.overlay.is_empty());
        let table = plain.zip(population).and_then(|(_, population)| {
            let weights = inner.weight_sets.get(population)?;
            let tables = entry.base.tables.try_lock().ok()?;
            Some(PeekedTable {
                weights: weights.clone(),
                table: tables.get(population)?.get()?.clone(),
            })
        });
        Some(Peek {
            epoch: entry.epoch(),
            plain: plain.map(|(tree, _)| tree.clone()),
            table,
        })
    }

    /// Current epoch triple of a dataset.
    pub fn epoch(&self, name: &str) -> Result<DatasetEpoch, EngineError> {
        let inner = self.inner.read().expect("catalog lock");
        inner.dataset(name).map(DatasetEntry::epoch)
    }

    /// `(overlay rows, base rows)` of a dataset — the compaction-policy
    /// inputs.
    pub fn overlay_size(&self, name: &str) -> Result<(usize, usize), EngineError> {
        let inner = self.inner.read().expect("catalog lock");
        inner
            .dataset(name)
            .map(|e| (e.overlay.len(), e.base.coords.len() / e.dim))
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
            .is_some_and(|e| e.base.index.get().is_some())
    }

    /// Exports the complete catalog image under an already-held lock.
    /// The caller supplies the WAL position the image covers; datasets
    /// and weight populations are sorted by name so the same state
    /// always encodes to the same bytes.
    fn export_state_locked(inner: &CatalogInner, last_lsn: u64) -> CatalogState {
        let mut datasets: Vec<DatasetState> = inner
            .datasets
            .iter()
            .map(|(name, e)| {
                let [(delta_rows, delta_ids), (dead_rows, dead_ids)] = e.overlay.buffers();
                DatasetState {
                    name: name.clone(),
                    dim: e.dim as u64,
                    base_epoch: e.base.epoch,
                    appends: e.overlay.appends(),
                    deletes: e.overlay.deletes(),
                    base_coords: e.base.coords.to_vec(),
                    delta_rows: delta_rows.to_vec(),
                    delta_ids: delta_ids.to_vec(),
                    dead_rows: dead_rows.to_vec(),
                    dead_ids: dead_ids.to_vec(),
                }
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
    /// cannot see, e.g. a tombstone past the base or an allocator behind
    /// its delta ids ([`Overlay::try_new`] names the rule).
    pub(crate) fn restore_state(&self, state: CatalogState) -> Result<(), EngineError> {
        let broken = |reason: &str| EngineError::Durability {
            reason: format!("recovered snapshot is inconsistent: {reason}"),
        };
        let mut inner = self.write();
        for d in state.datasets {
            let dim = usize::try_from(d.dim)
                .ok()
                .filter(|&dim| dim > 0 && d.base_coords.len().is_multiple_of(dim))
                .ok_or_else(|| broken("zero dimensionality or ragged base coordinates"))?;
            let overlay = Overlay::try_new(
                dim,
                d.base_coords.len() / dim,
                (d.appends, d.deletes),
                (Arc::new(d.delta_rows), Arc::new(d.delta_ids)),
                (Arc::new(d.dead_rows), Arc::new(d.dead_ids)),
            )
            .map_err(|e| broken(&e.to_string()))?;
            let fresh = DatasetEntry::new(dim, d.base_epoch, d.base_coords, OnceLock::new());
            inner
                .datasets
                .insert(d.name, DatasetEntry { overlay, ..fresh });
        }
        for ws in state.weight_sets {
            check_population_dim(&ws.weights).map_err(|e| broken(&e.to_string()))?;
            let weights = ws
                .weights
                .into_iter()
                .map(weight_from_state)
                .collect::<Result<Vec<Weight>, EngineError>>()?;
            inner.weight_sets.insert(ws.name, Arc::new(weights));
        }
        Ok(())
    }

    /// Writes a full snapshot now and resets the WAL, returning whether
    /// one was written (`false` means the engine has no durability
    /// layer, which makes this a no-op).
    ///
    /// # Errors
    /// [`EngineError::Durability`] when the snapshot cannot be
    /// installed; the previous snapshot and the full WAL remain intact.
    pub(crate) fn checkpoint(&self) -> Result<bool, EngineError> {
        let Some(d) = self.durability.get() else {
            return Ok(false);
        };
        // The *write* lock excludes concurrent mutations between the
        // state export and the WAL reset inside the checkpoint — the
        // image and its `last_lsn` stay consistent.
        let inner = self.write();
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
            mask_builds: 0,
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
    use crate::storage::faulty::{Fault, Faulty};
    use crate::storage::{FsyncPolicy, MemBackend};

    /// The catalog's typed writes, as requests through [`Catalog::apply`].
    impl Catalog {
        fn register(&self, name: &str, dim: usize, coords: Vec<f64>) -> Result<(), EngineError> {
            let dataset = name.to_string();
            let request = Request::Register {
                dataset,
                dim,
                coords,
            };
            self.apply(request).map(drop)
        }

        fn append(&self, name: &str, points: &[f64]) -> Result<usize, EngineError> {
            let (dataset, points) = (name.to_string(), points.to_vec());
            self.apply(Request::Append { dataset, points })
                .map(live_len)
        }

        fn delete(&self, name: &str, ids: &[u32]) -> Result<usize, EngineError> {
            let (dataset, ids) = (name.to_string(), ids.to_vec());
            self.apply(Request::Delete { dataset, ids }).map(live_len)
        }

        fn register_weights(&self, name: &str, weights: Vec<Weight>) -> Result<(), EngineError> {
            let name = name.to_string();
            let weights = weights.into_iter().map(Weight::into_vec).collect();
            self.apply(Request::RegisterWeights { name, weights })
                .map(drop)
        }
    }

    /// An empty in-memory catalog with a tracer of its own.
    fn catalog() -> Catalog {
        Catalog::new(Arc::new(Tracer::new(1, 1, 1)))
    }

    fn live_len(reply: Response) -> usize {
        match reply {
            Response::Mutated { live_len } => live_len,
            other => panic!("expected a mutation reply, got {other:?}"),
        }
    }

    fn unit_square() -> Vec<f64> {
        vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    }

    /// `n` points on the 2-d diagonal.
    fn diagonal(n: usize) -> Vec<f64> {
        (0..n).flat_map(|i| [i as f64; 2]).collect()
    }

    #[test]
    fn register_and_lazy_index() {
        let c = catalog();
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
        // The retired mask fields stay empty.
        assert!(h.dom.is_none());
        assert_eq!(c.stats().mask_builds, 0);
    }

    #[test]
    fn peek_never_builds_never_waits_and_offers_only_plain_built_bases() {
        let c = catalog();
        assert!(c.peek("sq", None).is_none(), "unknown dataset");
        c.register("sq", 2, unit_square()).unwrap();
        let ws = vec![Weight::new(vec![0.5, 0.5]), Weight::new(vec![0.25, 0.75])];
        c.register_weights("w", ws.clone()).unwrap();
        let tables_built = || c.tracer.stage_latency(Stage::TableBuild).count;
        let cold = c.peek("sq", Some("w")).unwrap();
        assert_eq!(cold.epoch, DatasetEpoch::fresh(1));
        assert!(cold.plain.is_none(), "no index yet");
        assert!(cold.table.is_none(), "no table without an index");
        assert_eq!(c.stats().index_builds, 0, "the peek built nothing");
        let h = c.handle("sq").unwrap();
        let warm = c.peek("sq", Some("w")).unwrap();
        assert!(Arc::ptr_eq(warm.plain.as_ref().unwrap(), &h.index));
        assert!(warm.table.is_none(), "an unbuilt table");
        assert_eq!(tables_built(), 0, "the peek built no table");

        // A built table is offered with its population, and only its own.
        let table = c.score_table(&h, "w", &ws, 10).unwrap();
        let offered = c.peek("sq", Some("w")).unwrap().table.unwrap();
        assert!(Arc::ptr_eq(&offered.table, &table));
        assert!(Arc::ptr_eq(&offered.weights, &c.weights("w").unwrap()));
        assert!(c.peek("sq", None).unwrap().table.is_none());
        assert!(
            c.peek("sq", Some("nope")).unwrap().table.is_none(),
            "an unknown population"
        );
        {
            let _tables = h.generation.tables.lock().unwrap();
            let held = c.peek("sq", Some("w")).unwrap();
            assert!(held.table.is_none(), "a held tables lock is not waited on");
            assert!(held.plain.is_some(), "the index is still offered");
        }
        {
            let _writer = c.inner.write().unwrap();
            assert!(
                c.peek("sq", Some("w")).is_none(),
                "a held write lock is not waited on"
            );
            assert_eq!(c.stats().index_builds, 1, "stats take no lock");
        }
        c.append("sq", &[2.0, 2.0]).unwrap();
        let mutated = c.peek("sq", Some("w")).unwrap();
        assert_eq!(mutated.epoch, c.epoch("sq").unwrap());
        assert!(mutated.plain.is_none(), "an overlay needs delta state");
        assert!(mutated.table.is_none(), "so does a table through one");
        // A compaction installs its merged base built: the next peek
        // offers it, with no `handle()` in between — but not the old
        // generation's table.
        assert!(c.compact_if("sq", mutated.epoch).unwrap());
        let merged = c.peek("sq", Some("w")).unwrap();
        assert_eq!(merged.epoch, DatasetEpoch::fresh(2));
        assert!(merged.table.is_none(), "the merged base's table is unbuilt");
        let tree = merged.plain.expect("the merged base is offered");
        assert_eq!(tree.len(), 5);
        assert_eq!(c.stats().index_builds, 2, "the merge's build, no other");
        assert_eq!(tables_built(), 1, "the one `score_table` build");
        assert!(Arc::ptr_eq(&tree, &c.handle("sq").unwrap().index));
    }

    #[test]
    fn append_is_absorbed_by_the_overlay() {
        let c = catalog();
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
        let c = catalog();
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

    /// A catalog logging to a [`Faulty`] backend over `mem` that fails
    /// the planned `faults`, every record fsynced.
    fn durable_catalog(mem: &MemBackend, faults: &[(Fault, usize)]) -> Catalog {
        let backend = Faulty::new(mem, faults);
        let recovered = Durability::open(backend, FsyncPolicy::Always).unwrap();
        let c = catalog();
        c.attach_durability(recovered.durability);
        c
    }

    /// The catalog `mem` recovers, as `try_build` recovers one: the
    /// snapshot restored, then every record after it replayed through
    /// [`Catalog::apply`].
    fn reopen(mem: &MemBackend) -> Catalog {
        let recovered = Durability::open(Box::new(mem.clone()), FsyncPolicy::Always).unwrap();
        let c = catalog();
        if let Some(state) = recovered.state {
            c.restore_state(state).unwrap();
        }
        for (_, request) in recovered.records {
            c.apply(request).unwrap();
        }
        c
    }

    fn is_durability(e: EngineError) -> bool {
        matches!(e, EngineError::Durability { .. })
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
        let c = durable_catalog(&MemBackend::new(), &[]);
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
        // Records 1–3 land; the next four fail.
        let faults: Vec<_> = (4..=7).map(|n| (Fault::Enospc, n)).collect();
        let c = durable_catalog(&MemBackend::new(), &faults);
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5, 0.25, 0.75, 0.75, 0.25]).unwrap(); // ids 4, 5, 6
        c.delete("sq", &[2]).unwrap();
        let before = (observe(&c, "sq"), c.stats());

        assert!(is_durability(c.append("sq", &[0.1, 0.1]).unwrap_err()));
        assert!(is_durability(c.delete("sq", &[0, 3]).unwrap_err())); // base ids
        assert!(is_durability(c.delete("sq", &[4, 6]).unwrap_err())); // delta ids
        assert!(is_durability(c.delete("sq", &[1, 5]).unwrap_err())); // mixed
        assert_eq!(before, (observe(&c, "sq"), c.stats()), "nothing applied");

        // The next successful mutations behave as if the failed ones had
        // never been submitted: same ids assigned, same ids deletable.
        assert_eq!(c.append("sq", &[0.1, 0.1]).unwrap(), 7);
        assert_eq!(c.handle("sq").unwrap().view.delta_ids(), &[4, 5, 6, 7]);
        assert_eq!(c.delete("sq", &[1, 5]).unwrap(), 5);
        let h = c.handle("sq").unwrap();
        assert_eq!(h.view.dead_ids(), &[1, 2]);
        assert_eq!(h.view.delta_ids(), &[4, 6, 7]);
        assert_eq!(c.stats().wal_appends, before.1.wal_appends + 2);
    }

    #[test]
    fn a_refused_append_changes_nothing_and_its_ids_go_to_the_next() {
        for fault in [Fault::Enospc, Fault::ShortWrite, Fault::Fsync] {
            // Register and append are records 1 and 2; the third fails.
            let mem = MemBackend::new();
            let c = durable_catalog(&mem, &[(fault, 3)]);
            c.register("sq", 2, unit_square()).unwrap();
            c.append("sq", &[0.5, 0.5]).unwrap(); // id 4
            let before = observe(&c, "sq");
            let refused = c.append("sq", &[0.1, 0.9, 0.2, 0.2]).unwrap_err();
            assert!(is_durability(refused), "{fault:?}");
            assert_eq!(observe(&c, "sq"), before, "{fault:?}");
            assert_eq!(c.append("sq", &[0.1, 0.9, 0.2, 0.2]).unwrap(), 7);
            assert_eq!(c.handle("sq").unwrap().view.delta_ids(), &[4, 5, 6]);
            // The log holds exactly the acknowledged mutations.
            assert_eq!(observe(&reopen(&mem), "sq"), observe(&c, "sq"));
        }
    }

    #[test]
    fn a_compaction_whose_record_is_refused_leaves_the_overlay() {
        let mem = MemBackend::new();
        let c = durable_catalog(&mem, &[(Fault::ShortWrite, 4)]);
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5]).unwrap();
        c.delete("sq", &[1]).unwrap();
        let before = observe(&c, "sq");
        let compact = Request::Compact {
            dataset: "sq".into(),
        };
        assert!(is_durability(c.apply(compact).unwrap_err()));
        assert_eq!(observe(&c, "sq"), before, "the overlay is untouched");
        let stats = c.stats();
        assert_eq!((stats.compactions, stats.compactions_abandoned), (0, 1));
        assert_eq!(c.handle("sq").unwrap().view.dead_ids(), &[1]);
        assert_eq!(observe(&reopen(&mem), "sq"), before);
    }

    #[test]
    fn a_compaction_whose_checkpoint_fails_stays_installed_and_recovers() {
        for fault in [Fault::Checkpoint, Fault::CheckpointLate] {
            // The compaction's checkpoint fails, then an explicit one.
            let mem = MemBackend::new();
            let c = durable_catalog(&mem, &[(fault, 1), (Fault::Checkpoint, 2)]);
            c.register("sq", 2, unit_square()).unwrap();
            c.append("sq", &[0.5, 0.5, 0.25, 0.75]).unwrap();
            c.delete("sq", &[0, 4]).unwrap();
            assert!(c.compact_if("sq", c.epoch("sq").unwrap()).unwrap());
            let merged = observe(&c, "sq");
            assert_eq!(merged.0, DatasetEpoch::fresh(2), "{fault:?}");
            assert_eq!(merged.1, 4);
            assert_eq!(c.stats().compactions, 1);
            assert_eq!(observe(&reopen(&mem), "sq"), merged, "{fault:?}");
            // A failed explicit checkpoint changes nothing either.
            assert!(is_durability(c.checkpoint().unwrap_err()));
            assert_eq!(observe(&reopen(&mem), "sq"), merged, "{fault:?}");
            // A later one succeeds and recovers the same catalog.
            assert!(c.checkpoint().unwrap());
            assert_eq!(observe(&reopen(&mem), "sq"), merged, "{fault:?}");
        }
    }

    #[test]
    fn once_the_log_stops_every_mutation_is_refused() {
        // The third record is torn and cannot be cut back out.
        let mem = MemBackend::new();
        let c = durable_catalog(&mem, &[(Fault::ShortWrite, 3), (Fault::CutBack, 1)]);
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5]).unwrap();
        assert!(is_durability(c.append("sq", &[0.1, 0.1]).unwrap_err()));
        let before = (observe(&c, "sq"), c.dataset_names());
        let refused = [
            Request::Append {
                dataset: "sq".into(),
                points: vec![0.2, 0.2],
            },
            Request::Delete {
                dataset: "sq".into(),
                ids: vec![0, 4],
            },
            Request::Register {
                dataset: "sq".into(),
                dim: 2,
                coords: vec![3.0, 3.0],
            },
            Request::Register {
                dataset: "other".into(),
                dim: 2,
                coords: vec![3.0, 3.0],
            },
            Request::RegisterWeights {
                name: "w".into(),
                weights: vec![vec![0.5, 0.5]],
            },
            Request::Compact {
                dataset: "sq".into(),
            },
        ];
        for request in refused {
            let kind = request.kind();
            assert!(is_durability(c.apply(request).unwrap_err()), "{kind:?}");
            assert_eq!((observe(&c, "sq"), c.dataset_names()), before, "{kind:?}");
        }
        assert!(c.weights("w").is_err());
        assert_eq!(c.stats().wal_appends, 2);
        // Recovery stops at the torn bytes: the two acknowledged records.
        assert_eq!(observe(&reopen(&mem), "sq"), before.0);
    }

    #[test]
    fn a_held_snapshot_keeps_its_rows_across_mutations() {
        // Whether an unshared overlay grows in place is `Overlay`'s own
        // test; here, a held handle keeps reading exactly its rows.
        let c = catalog();
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5, 0.25, 0.75, 0.9, 0.9]).unwrap();
        let held = c.handle("sq").unwrap();
        let seen = held.view.materialize_row_major();
        c.append("sq", &[0.1, 0.1]).unwrap();
        c.delete("sq", &[5, 0]).unwrap();
        assert_eq!(held.view.materialize_row_major(), seen);
        assert_eq!(held.view.delta_ids(), &[4, 5, 6]);
        assert!(held.view.dead_ids().is_empty());
        let now = c.handle("sq").unwrap();
        assert_eq!(now.view.delta_ids(), &[4, 6, 7]);
        assert_eq!(now.view.dead_ids(), &[0]);
    }

    #[test]
    fn compaction_merges_in_canonical_order() {
        let c = catalog();
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
    fn a_compaction_records_one_sample_installed_or_abandoned() {
        // The third record, the first `Compact`, fails.
        let c = durable_catalog(&MemBackend::new(), &[(Fault::Enospc, 3)]);
        let samples = |stage: Stage| c.tracer.stage_latency(stage).count;
        c.register("sq", 2, unit_square()).unwrap();
        c.append("sq", &[0.5, 0.5]).unwrap();
        assert!(c.compact_if("sq", c.epoch("sq").unwrap()).is_err());
        assert_eq!(c.stats().compactions_abandoned, 1);
        assert_eq!(samples(Stage::Compaction), 1, "abandoned: unlogged");
        assert!(c.compact_if("sq", c.epoch("sq").unwrap()).unwrap());
        assert_eq!(samples(Stage::Compaction), 2, "installed");
        assert_eq!(samples(Stage::Checkpoint), 1, "the install's checkpoint");
        // Nothing to merge: no merge runs, and nothing is recorded.
        assert!(!c.compact_if("sq", c.epoch("sq").unwrap()).unwrap());
        assert_eq!(samples(Stage::Compaction), 2);
        // Register, append, the failed Compact record and the logged one;
        // every record but the failed one is fsynced.
        assert_eq!(samples(Stage::WalAppend), 4);
        assert_eq!(samples(Stage::Fsync), 3);
    }

    #[test]
    fn a_requested_compaction_racing_the_scheduled_one_merges_once() {
        // Two callers compact the same epoch at once, as a requested
        // compaction racing the scheduled one: whichever takes the
        // generation's merge guard second waits, then finds the epoch
        // moved.
        let uniform = |n: usize, seed: u64| -> Vec<f64> {
            let mut x = seed;
            (0..n * 3)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect()
        };
        for round in 0..3 {
            let c = catalog();
            c.register("u", 3, uniform(60_000, round)).unwrap();
            c.handle("u").unwrap();
            c.append("u", &uniform(10_000, round + 100)).unwrap();
            let epoch = c.epoch("u").unwrap();
            let before = c.stats();
            let start = std::sync::Barrier::new(2);
            let compact = || {
                start.wait();
                c.compact_if("u", epoch).unwrap()
            };
            let ran = std::thread::scope(|s| {
                let first = s.spawn(compact);
                let second = compact();
                [first.join().unwrap(), second]
            });
            assert_eq!(ran.iter().filter(|&&r| r).count(), 1, "round {round}");
            let after = c.stats();
            assert_eq!(after.index_builds - before.index_builds, 1, "round {round}");
            assert_eq!(after.compactions - before.compactions, 1, "round {round}");
            assert_eq!(
                after.compactions_abandoned - before.compactions_abandoned,
                0,
                "round {round}"
            );
        }
    }

    #[test]
    fn compaction_abandons_when_superseded() {
        let c = catalog();
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
        let c = catalog();
        c.register("d", 2, unit_square()).unwrap();
        c.append("d", &[0.5, 0.5]).unwrap();
        c.register("d", 3, vec![0.0; 9]).unwrap();
        let epoch = c.epoch("d").unwrap();
        assert_eq!(epoch, DatasetEpoch::fresh(2));
        assert_eq!(c.handle("d").unwrap().dim, 3);
    }

    #[test]
    fn errors_are_typed() {
        let c = catalog();
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
        let c = catalog();
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
        // A registered `Weight` is valid by construction; a request's
        // raw vectors are checked by `check_weight`, which refuses any
        // negative entry.
        assert!(crate::request::check_weight(&[f64::NAN, 1.0], "w").is_err());
        assert!(crate::request::check_weight(&[-0.5, 1.5], "w").is_err());
        assert!(crate::request::check_weight(&[0.0, 0.0], "w").is_err());
        assert!(crate::request::check_weight(&[0.3, 0.7], "w").is_ok());
    }

    #[test]
    fn a_mixed_dimension_population_is_refused_before_its_wal_record() {
        let c = durable_catalog(&MemBackend::new(), &[]);
        let mixed = vec![
            Weight::new(vec![0.5, 0.5]),
            Weight::new(vec![0.2, 0.3, 0.5]),
        ];
        assert_eq!(
            c.register_weights("w", mixed).unwrap_err(),
            EngineError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(c.stats().wal_appends, 0, "nothing logged");
        assert_eq!(
            c.weights("w").unwrap_err(),
            EngineError::UnknownWeightSet("w".into())
        );
        // The name is not taken.
        c.register_weights("w", vec![Weight::new(vec![0.5, 0.5])])
            .unwrap();
        assert_eq!(c.stats().wal_appends, 1);
        // An image holding such a population is damage the catalog could
        // not have written.
        let mut state = Catalog::export_state_locked(&c.inner.read().unwrap(), 1);
        state.weight_sets[0].weights.push(vec![0.2, 0.3, 0.5]);
        assert!(matches!(
            catalog().restore_state(state),
            Err(EngineError::Durability { .. })
        ));
    }

    #[test]
    fn dataset_names_sorted() {
        let c = catalog();
        c.register("b", 1, vec![1.0]).unwrap();
        c.register("a", 1, vec![2.0]).unwrap();
        assert_eq!(c.dataset_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn concurrent_cold_handles_build_exactly_once() {
        use std::sync::Barrier;
        let c = Arc::new(catalog());
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

    #[test]
    fn score_tables_are_built_once_per_generation_and_population() {
        use std::sync::Barrier;
        let c = catalog();
        c.register("diag", 2, diagonal(400)).unwrap();
        let ws: Vec<Weight> = (1..40)
            .map(|i| Weight::from_first_2d(f64::from(i) / 40.0))
            .collect();
        c.register_weights("w", ws.clone()).unwrap();
        let samples = |stage: Stage| c.tracer.stage_latency(stage).count;
        let h = c.handle("diag").unwrap();

        // Cold callers racing on one population share one build.
        let threads = 4;
        let barrier = Barrier::new(threads);
        let first: Vec<Arc<ScoreTable>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        c.score_table(&h, "w", &ws, 10).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(first.windows(2).all(|t| Arc::ptr_eq(&t[0], &t[1])));
        assert_eq!(first[0].depth(), SCORE_TABLE_DEPTH);
        assert_eq!(samples(Stage::TableBuild), 1);

        // A second handle reaches the same table; any k it covers does.
        let h2 = c.handle("diag").unwrap();
        assert!(Arc::ptr_eq(
            &c.score_table(&h2, "w", &ws, 3).unwrap(),
            &first[0]
        ));
        assert_eq!(samples(Stage::TableBuild), 1);

        // Another population is a table of its own; past the depth, and
        // for a population past the size cap, there is none.
        c.register_weights("v", ws[..7].to_vec()).unwrap();
        let other = c.score_table(&h2, "v", &ws[..7], 10).unwrap();
        assert!(!Arc::ptr_eq(&other, &first[0]));
        assert_eq!(samples(Stage::TableBuild), 2);
        assert!(c.score_table(&h2, "w", &ws, 0).is_none());
        assert!(c
            .score_table(&h2, "w", &ws, SCORE_TABLE_DEPTH + 1)
            .is_none());
        let huge = vec![ws[0].clone(); SCORE_TABLE_MAX_WEIGHTS + 1];
        c.register_weights("huge", huge.clone()).unwrap();
        assert!(c.score_table(&h2, "huge", &huge, 10).is_none());
        assert_eq!(samples(Stage::TableBuild), 2);

        // Compaction installs a new generation: the next read builds anew,
        // while a handle held across it keeps its own generation's table.
        c.append("diag", &[0.5, 0.5]).unwrap();
        assert!(c.compact_if("diag", c.epoch("diag").unwrap()).unwrap());
        let h3 = c.handle("diag").unwrap();
        let rebuilt = c.score_table(&h3, "w", &ws, 10).unwrap();
        assert!(!Arc::ptr_eq(&rebuilt, &first[0]));
        assert_eq!(samples(Stage::TableBuild), 3);
        assert!(Arc::ptr_eq(
            &c.score_table(&h, "w", &ws, 10).unwrap(),
            &first[0]
        ));
        assert_eq!(samples(Stage::TableBuild), 3);

        // Every index build recorded one sample too; no mask is built.
        let stats = c.stats();
        assert_eq!(samples(Stage::IndexBuild), stats.index_builds);
        assert_eq!(stats.index_builds, 2);
        assert_eq!(samples(Stage::MaskBuild), 0);
    }
}
