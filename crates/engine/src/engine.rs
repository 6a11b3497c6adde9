//! The [`Engine`]: catalog + worker pool + result cache + metrics under
//! one roof.
//!
//! The pool has one way in. [`Engine::submit_batch`] (blocking, in slot
//! order), [`Engine::submit_with_progress`] and
//! [`Engine::submit_batch_with`] each wrap their requests as
//! [`BatchSubmission`]s — the admitted request, trace id, optional
//! progress observer, completion — and queue each as one job.
//! Registrations, appends, deletes and compactions are requests too; the
//! in-process [`Engine::register_dataset`] and its siblings run the same
//! mutation function on the calling thread.
//!
//! ```
//! use wqrtq_engine::{Engine, Request, Response};
//!
//! let engine = Engine::builder().workers(4).build();
//! engine
//!     .register_dataset("products", 2, vec![2.0, 1.0, 6.0, 3.0, 1.0, 9.0])
//!     .unwrap();
//! let responses = engine.submit_batch(vec![Request::TopK {
//!     dataset: "products".into(),
//!     weight: vec![0.5, 0.5],
//!     k: 2,
//! }]);
//! assert!(matches!(responses[0], Response::TopK(_)));
//! ```

use crate::cache::ResultCache;
use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::request::{PlanDelta, Request, RequestKind, Response};
use crate::storage::{DiskBackend, Durability, FsyncPolicy};
use crate::worker::{mutate, Job, Pool, ProgressFn, TraceContext, WorkerContext};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use wqrtq_geom::Weight;
use wqrtq_obs::{SlowRequest, Stage, TraceSnapshot, Tracer};
use wqrtq_query::ProbeCtx;

/// Spans each worker's trace ring retains (oldest overwritten).
const TRACE_RING_CAPACITY: usize = 256;
/// Slowest requests the trace slow-log retains.
const SLOW_LOG_CAPACITY: usize = 8;

/// Configures an [`Engine`] before it spawns its workers.
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    workers: usize,
    cache_capacity: usize,
    overlay_limit: Option<usize>,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache_capacity: 256,
            overlay_limit: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }
}

impl EngineBuilder {
    /// Number of worker threads (default: available parallelism).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Result-cache capacity in entries (default 256).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        self.cache_capacity = capacity;
        self
    }

    /// Overlay rows (appended + tombstoned) a dataset may accumulate
    /// before the engine schedules a compaction on the worker pool. The
    /// default is adaptive — `max(1024, base_len / 4)`: large datasets
    /// merge once the overlay reaches a quarter of the base, while
    /// small ones tolerate proportionally bigger overlays (their `O(Δ)`
    /// correction sweeps are cheap and a merge would churn the index
    /// for little gain). Use `usize::MAX` to disable automatic
    /// compaction (mutation tests and deterministic id bookkeeping call
    /// [`Engine::compact`] manually).
    pub fn overlay_limit(mut self, limit: usize) -> Self {
        self.overlay_limit = Some(limit);
        self
    }

    /// Persist the catalog in `dir`: every mutation appends to a WAL
    /// there before it is acknowledged, compaction installs snapshots,
    /// and [`EngineBuilder::try_build`] recovers whatever state the
    /// directory holds. Without a data directory (the default) the
    /// engine is purely in-memory and pays zero durability cost.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// When WAL appends are forced to stable storage (default
    /// [`FsyncPolicy::Always`]: no acknowledged mutation is ever lost).
    /// Only meaningful together with [`EngineBuilder::data_dir`].
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Spawns the workers and returns the engine.
    ///
    /// # Panics
    /// Panics if a configured data directory cannot be opened or
    /// recovered — use [`EngineBuilder::try_build`] to handle that as a
    /// typed error instead.
    pub fn build(self) -> Engine {
        // lint: allow(no-panic) — the documented `# Panics` contract of
        // this convenience constructor; `try_build` is the typed path.
        self.try_build().expect("engine build")
    }

    /// Spawns the workers and returns the engine. With a data directory
    /// configured, first recovers: the latest snapshot is restored, the
    /// WAL's valid records beyond it are replayed in log order (a torn
    /// tail after a crash is truncated silently), and the WAL resumes
    /// appending exactly where the last valid record ended. Opening the
    /// directory records one [`Stage::Recovery`] sample, and the restore
    /// plus replay one [`Stage::Replay`] sample.
    ///
    /// # Errors
    /// [`EngineError::Durability`] when the data directory cannot be
    /// opened, its images are structurally corrupt, or the recovered
    /// state violates a catalog invariant.
    pub fn try_build(self) -> Result<Engine, EngineError> {
        // One ring shard per worker (workers hint with their own index)
        // plus the boundary shard (index `workers`: requests served
        // inline; the server loop hints with the connection id, which
        // lands anywhere). Made first, so recovery samples into it.
        let tracer = Tracer::new(self.workers + 1, TRACE_RING_CAPACITY, SLOW_LOG_CAPACITY);
        let tracer = Arc::new(tracer);
        let catalog = Catalog::new(tracer.clone());
        if let Some(dir) = &self.data_dir {
            let durability_err = |e: crate::storage::StorageError| EngineError::Durability {
                reason: e.to_string(),
            };
            let started = Instant::now();
            let backend = DiskBackend::open(dir).map_err(|e| EngineError::Durability {
                reason: format!("cannot open data dir {}: {e}", dir.display()),
            })?;
            let recovered =
                Durability::open(Box::new(backend), self.fsync).map_err(durability_err)?;
            tracer.sample(Stage::Recovery, started.elapsed());
            let started = Instant::now();
            if let Some(state) = recovered.state {
                catalog.restore_state(state)?;
            }
            for (lsn, request) in recovered.records {
                let kind = request.kind().name();
                catalog
                    .apply(request)
                    .map_err(|e| EngineError::Durability {
                        reason: format!("wal record {lsn} ({kind}) does not replay: {e}"),
                    })?;
            }
            tracer.sample(Stage::Replay, started.elapsed());
            // Attach only now: the replay above must not log again.
            catalog.attach_durability(recovered.durability);
        }
        Ok(self.spawn(catalog, tracer))
    }

    fn spawn(self, catalog: Catalog, tracer: Arc<Tracer>) -> Engine {
        let (queue, queue_rx) = mpsc::channel();
        let ctx = Arc::new(WorkerContext {
            metrics: Metrics::new(),
            catalog,
            cache: ResultCache::new(self.cache_capacity),
            tracer,
            // Workers re-enter the queue to schedule compactions.
            queue,
            overlay_limit: self.overlay_limit,
        });
        let pool = Pool::spawn(self.workers, queue_rx, ctx.clone());
        Engine {
            ctx,
            trace_ids: AtomicU64::new(1),
            pool: Some(pool),
        }
    }
}

/// A concurrent, batched query-serving engine over the WQRTQ query and
/// why-not algorithms.
///
/// Owns a [`Catalog`] of named datasets (lazily indexed, `Arc`-shared), a
/// fixed worker pool fed through mpsc channels, an LRU [`ResultCache`]
/// keyed on `(dataset epoch, request fingerprint)`, and per-request
/// [`Metrics`]. Dropping the engine shuts the pool down cleanly.
#[derive(Debug)]
pub struct Engine {
    /// Catalog, cache, metrics, tracer and the job queue — the state the
    /// workers and [`Engine::serve_inline`] serve against.
    ctx: Arc<WorkerContext>,
    /// Trace ids for in-process submissions (wire callers bring their
    /// own, composed from connection and frame ids).
    trace_ids: AtomicU64,
    pool: Option<Pool>,
}

/// A request admitted once, by [`Engine::serve_inline`] on an event loop
/// or [`BatchSubmission::new`] in process: the request, its kind, its
/// [`Request::fingerprint`] (0 for a mutation or `Stats`, which the
/// cache never holds) and the [`Request::validate`] verdict. A worker
/// serves it from these, so nothing is hashed or checked twice.
#[derive(Debug)]
pub struct Admitted {
    pub(crate) request: Request,
    pub(crate) kind: RequestKind,
    pub(crate) fingerprint: u64,
    pub(crate) verdict: Result<(), EngineError>,
}

impl From<Request> for Admitted {
    fn from(request: Request) -> Self {
        let kind = request.kind();
        let cached = !kind.is_mutation() && kind != RequestKind::Stats;
        Self {
            fingerprint: if cached { request.fingerprint() } else { 0 },
            verdict: request.validate(),
            kind,
            request,
        }
    }
}

impl From<Request> for Box<Admitted> {
    fn from(request: Request) -> Self {
        Box::new(Admitted::from(request))
    }
}

/// One request on its way to the worker pool — the one unit every
/// submit path queues, as one job: the admitted request, the
/// boundary-assigned trace id, an optional progress observer and cancel
/// flag, and the completion its response is routed into (invoked on the
/// worker thread that finished it).
pub struct BatchSubmission {
    pub(crate) admitted: Box<Admitted>,
    pub(crate) trace: TraceContext,
    pub(crate) progress: Option<ProgressFn>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    pub(crate) complete: Box<dyn FnOnce(Response) + Send + 'static>,
}

impl BatchSubmission {
    /// Packages one request for submission, admitting a [`Request`]
    /// here and taking what [`Engine::serve_inline`] hands back as is.
    pub fn new(
        request: impl Into<Box<Admitted>>,
        trace_id: u64,
        complete: impl FnOnce(Response) + Send + 'static,
    ) -> Self {
        Self {
            admitted: request.into(),
            trace: TraceContext {
                trace_id,
                submitted: Instant::now(),
            },
            progress: None,
            cancel: None,
            complete: Box::new(complete),
        }
    }

    /// Attaches a partial-result observer. For a [`Request::WhyNot`] it
    /// sees each advisor step as it completes (explanations first, then
    /// one call per refinement strategy, in execution order), strictly
    /// before the completion delivers the final ranked plan. Other
    /// request kinds never invoke it, and neither does a result served
    /// from the cache — the plan arrives whole in that case.
    pub fn with_progress(mut self, progress: impl FnMut(PlanDelta) + Send + 'static) -> Self {
        self.progress = Some(Box::new(progress));
        self
    }

    /// Attaches a cancel flag, shared with whoever would read the
    /// response. A worker that takes a read (any kind but a mutation:
    /// [`RequestKind::is_mutation`]) once the flag is set skips it: no
    /// execution, no metrics, no progress calls, and the completion
    /// receives a [`Response::Error`]. An admitted mutation still lands.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether a worker should skip this submission (see
    /// [`BatchSubmission::with_cancel`]).
    pub(crate) fn cancelled(&self) -> bool {
        !self.admitted.kind.is_mutation()
            && self
                .cancel
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Acquire))
    }
}

/// A request [`Engine::serve_inline`] answered on the calling thread.
#[derive(Debug)]
pub struct InlineAnswer {
    /// The reply, bit-identical to what the pool would have given.
    pub response: Response,
    /// Whether the answer executed a cache miss (rules 3 and 4 of
    /// [`Engine::serve_inline`]) rather than being a `Stats` reply or a
    /// cache hit: what a caller bounding the work it does inline counts.
    pub executed: bool,
}

impl std::fmt::Debug for BatchSubmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSubmission")
            .field("trace_id", &self.trace.trace_id)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Hands `items` to the pool, one job each, in order.
    fn enqueue(&self, items: Vec<BatchSubmission>) {
        for item in items {
            self.ctx
                .queue
                .send(Job::Serve(item))
                // lint: allow(no-panic) — a send fails only once every
                // worker (receiver) exited, and workers only exit on the
                // sentinels `Drop` sends; unreachable through `&self`.
                .expect("worker pool alive while engine alive");
        }
    }

    /// Read access to the catalog (names, epochs, handles). Its public
    /// surface only reads: every write is a mutation request, submitted
    /// or made through [`Engine::register_dataset`] and its siblings,
    /// which also schedule compactions.
    pub fn catalog(&self) -> &Catalog {
        &self.ctx.catalog
    }

    /// Registers (or replaces) a dataset. Equivalent to submitting
    /// [`Request::Register`], run on the calling thread.
    ///
    /// # Errors
    /// [`EngineError::ZeroDimension`] / [`EngineError::RaggedCoordinates`]
    /// / [`EngineError::NonFiniteInput`] / [`EngineError::Durability`]
    /// (nothing was registered).
    pub fn register_dataset(
        &self,
        name: &str,
        dim: usize,
        coords: Vec<f64>,
    ) -> Result<(), EngineError> {
        let dataset = name.to_string();
        let request = Request::Register {
            dataset,
            dim,
            coords,
        };
        mutate(&self.ctx, request).map(drop)
    }

    /// Appends points into a dataset's delta overlay — `O(Δ)`, the built
    /// index is untouched — scheduling a compaction if the overlay
    /// outgrew its threshold. Returns the live point count. Equivalent
    /// to submitting [`Request::Append`].
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`] / [`EngineError::RaggedCoordinates`]
    /// / [`EngineError::NonFiniteInput`] / [`EngineError::DatasetFull`] /
    /// [`EngineError::Durability`] (nothing was appended). An empty
    /// append changes and logs nothing.
    pub fn append_points(&self, name: &str, points: &[f64]) -> Result<usize, EngineError> {
        let dataset = name.to_string();
        let points = points.to_vec();
        mutate(&self.ctx, Request::Append { dataset, points }).map(live_len)
    }

    /// Deletes points by id (base rows are tombstoned, appended rows drop
    /// out of the overlay) — `O(Δ)`, index untouched — with the same
    /// compaction scheduling as appends. Ids are stable within a base
    /// generation; a compaction renumbers them in canonical order. Returns
    /// the live point count. Equivalent to submitting [`Request::Delete`].
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`] / [`EngineError::UnknownPointId`]
    /// (an unknown, already-deleted or repeated id: nothing is deleted) /
    /// [`EngineError::Durability`] (nothing was deleted). An empty
    /// delete changes and logs nothing.
    pub fn delete_points(&self, name: &str, ids: &[u32]) -> Result<usize, EngineError> {
        let (dataset, ids) = (name.to_string(), ids.to_vec());
        mutate(&self.ctx, Request::Delete { dataset, ids }).map(live_len)
    }

    /// Synchronously merges a dataset's overlay into a fresh bulk-loaded
    /// base (no-op when the overlay is empty). Returns whether a merge
    /// ran. Automatic compaction does the same off the request path; this
    /// entry point exists for deterministic id bookkeeping and tests.
    /// Equivalent to submitting [`Request::Compact`].
    ///
    /// # Errors
    /// [`EngineError::UnknownDataset`].
    pub fn compact(&self, name: &str) -> Result<bool, EngineError> {
        let dataset = name.to_string();
        let reply = mutate(&self.ctx, Request::Compact { dataset })?;
        Ok(matches!(reply, Response::Compacted { ran: true }))
    }

    /// Registers an immutable customer weight population. Equivalent to
    /// submitting [`Request::RegisterWeights`].
    ///
    /// # Errors
    /// [`EngineError::WeightSetExists`] when the name is taken —
    /// populations are immutable, so cached bichromatic results keyed on
    /// the name never go stale; register a new name instead.
    /// [`EngineError::DimensionMismatch`] when a weight's dimension is
    /// not the first's, [`EngineError::Durability`] when the population
    /// could not be logged. Nothing is registered on any of them.
    pub fn register_weights(&self, name: &str, weights: Vec<Weight>) -> Result<(), EngineError> {
        let name = name.to_string();
        let weights = weights.into_iter().map(Weight::into_vec).collect();
        mutate(&self.ctx, Request::RegisterWeights { name, weights }).map(drop)
    }

    /// Writes a full snapshot of the catalog now and resets the WAL
    /// (recovery then starts from this image instead of replaying the
    /// whole log). Returns `false` — doing nothing — for an engine
    /// without a data directory. Compaction checkpoints automatically;
    /// this entry point exists for shutdown hooks and tests.
    ///
    /// # Errors
    /// [`EngineError::Durability`] when the snapshot cannot be
    /// installed; the previous snapshot and full WAL stay intact.
    pub fn checkpoint(&self) -> Result<bool, EngineError> {
        self.ctx.catalog.checkpoint()
    }

    /// Serves one request on the pool.
    pub fn submit(&self, request: Request) -> Response {
        self.submit_batch(vec![request])
            .pop()
            // lint: allow(no-panic) — `submit_batch` returns exactly
            // one response per submitted request by contract (and its
            // own tests).
            .expect("one response per request")
    }

    /// Enqueues one request and returns immediately; `complete` runs on
    /// the worker thread that finished it, so a caller can keep `N`
    /// requests in flight without parking `N` threads, and responses may
    /// finish out of submission order. `progress` observes a
    /// [`Request::WhyNot`]'s partial results, as
    /// [`BatchSubmission::with_progress`] describes.
    ///
    /// Both callbacks must be quick and non-blocking: they run inline on
    /// a pool worker, and blocking there stalls every queued request
    /// behind it.
    pub fn submit_with_progress(
        &self,
        request: Request,
        progress: impl FnMut(PlanDelta) + Send + 'static,
        complete: impl FnOnce(Response) + Send + 'static,
    ) {
        let item =
            BatchSubmission::new(request, self.next_trace_id(), complete).with_progress(progress);
        self.submit_batch_with(vec![item]);
    }

    /// Submits a run of requests, one job each, each with its own
    /// caller-assigned trace id, completion and optional progress
    /// observer (the same contract as [`Engine::submit_with_progress`]).
    /// With more than one worker, a fast request queued behind a slow one
    /// overtakes it.
    ///
    /// Completions and observers run on worker threads and must be quick
    /// and non-blocking.
    pub fn submit_batch_with(&self, items: Vec<BatchSubmission>) {
        // Stats requests leave every counter untouched end to end, so
        // the snapshot they return equals `Engine::metrics()` at the
        // same quiesced point.
        for item in &items {
            if item.admitted.kind != RequestKind::Stats {
                self.ctx.metrics.record_async_submit();
            }
        }
        self.enqueue(items);
    }

    /// Admits `request` and serves it on the calling thread when it is
    /// cheap by construction. Otherwise it hands the boxed [`Admitted`]
    /// value back, having recorded and counted nothing, for the caller
    /// to queue as is ([`BatchSubmission::new`]): the pool reuses its
    /// fingerprint and validation verdict. Decided in this order:
    ///
    /// 1. [`Request::Stats`] (it never takes the catalog lock);
    /// 2. a cache hit of any query kind, keyed on an `O(1)` catalog peek;
    /// 3. a [`Request::TopK`] miss with `k` at most one leaf's worth
    ///    ([`wqrtq_rtree::DEFAULT_FANOUT`]) on a dataset whose overlay is
    ///    empty and whose index is already built;
    /// 4. a [`Request::ReverseTopKBi`] miss over a named population of at
    ///    most `INLINE_TABLE_MAX_WEIGHTS` (2 048) weights, on such a
    ///    dataset, whose score table over that index is already built and
    ///    covers `k` (clamped to `live + 1`): one comparison per weight.
    ///    An inline population, an unbuilt table, a deeper `k` and a
    ///    larger population go to the pool.
    ///
    /// So the caller never builds an index or a table, never waits on a
    /// lock another thread holds, and never runs work that grows with
    /// the overlay; [`InlineAnswer::executed`] tells rules 3 and 4 from
    /// the rest.
    /// The body is the pool's own — cache lookup and fill, execution,
    /// stage histograms and metrics — with a near-zero queue wait, one
    /// async submission counted per answered request, and the spans
    /// recorded into the tracer's boundary shard. `scratch` is the
    /// caller's own probe context, reused across calls: an event loop
    /// keeps one and calls this before staging a decoded submit.
    pub fn serve_inline(
        &self,
        request: Request,
        trace_id: u64,
        scratch: &mut ProbeCtx,
    ) -> Result<InlineAnswer, Box<Admitted>> {
        let admitted = Admitted::from(request);
        let trace = TraceContext {
            trace_id,
            submitted: Instant::now(),
        };
        crate::worker::serve_inline(&self.ctx, self.worker_count(), trace, &admitted, scratch)
            .ok_or_else(|| Box::new(admitted))
    }

    /// Fans a batch across the worker pool and reassembles responses in
    /// submission order. Responses are deterministic and independent of
    /// the worker count; failed requests yield [`Response::Error`] in
    /// their slot without affecting their neighbours.
    pub fn submit_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        if requests.is_empty() {
            return Vec::new();
        }
        // A batch of nothing but Stats requests is not workload — it
        // must observe the counters, not move them.
        if requests.iter().any(|r| !matches!(r, Request::Stats)) {
            self.ctx.metrics.record_batch();
        }
        let n = requests.len();
        let (reply_tx, reply_rx) = mpsc::channel();
        let items = requests
            .into_iter()
            .enumerate()
            .map(|(slot, request)| {
                let reply = reply_tx.clone();
                BatchSubmission::new(request, self.next_trace_id(), move |response| {
                    // A dropped receiver means the submitter gave up.
                    let _ = reply.send((slot, response));
                })
            })
            .collect();
        drop(reply_tx);
        self.enqueue(items);
        let mut responses: Vec<Option<Response>> = vec![None; n];
        for _ in 0..n {
            match reply_rx.recv() {
                Ok((slot, response)) => responses[slot] = Some(response),
                // Unreachable in practice: workers catch panics and the
                // pool outlives every in-flight batch. Degrade to typed
                // errors rather than poisoning the whole batch.
                Err(_) => break,
            }
        }
        responses
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Response::Error(EngineError::PoolShutdown.to_string())))
            .collect()
    }

    /// Point-in-time metrics (per-kind latency, index-node accesses,
    /// cache hit rate).
    pub fn metrics(&self) -> MetricsSnapshot {
        let ctx = &self.ctx;
        ctx.metrics
            .snapshot(ctx.cache.stats(), ctx.catalog.stats(), &ctx.tracer)
    }

    /// The engine's tracer, the one writer of its stage histograms — the
    /// server's event loop and reply encoders record their admission
    /// and serialize spans here.
    pub fn tracer(&self) -> &Tracer {
        &self.ctx.tracer
    }

    /// Drains the per-worker trace rings into one snapshot.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.ctx.tracer.drain()
    }

    /// The slowest requests seen so far (full span breakdown each),
    /// slowest first.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.ctx.tracer.slow_requests()
    }

    fn next_trace_id(&self) -> u64 {
        // ordering: Relaxed — unique-id ticket; fetch_add is atomic at
        // any ordering, and nothing is published through the counter.
        self.trace_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.pool.as_ref().map_or(0, Pool::len)
    }
}

/// The live count of a [`Response::Mutated`] — the reply the mutation
/// function gives every registration, append and delete.
fn live_len(reply: Response) -> usize {
    match reply {
        Response::Mutated { live_len } => live_len,
        _ => 0,
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Workers share the queue sender (to schedule compactions), so
        // the channel never disconnects; orderly shutdown is one sentinel
        // per worker. The queue is FIFO, so all previously submitted work
        // drains first.
        if let Some(pool) = self.pool.take() {
            for _ in 0..pool.len() {
                let _ = self.ctx.queue.send(Job::Shutdown);
            }
            pool.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WeightSet;
    use wqrtq_core::advisor::{StrategyKind, WhyNotOptions};

    /// One-strategy, sampled-path options (the single-strategy form of
    /// a why-not question).
    fn mqp_only(culprit_limit: usize) -> WhyNotOptions {
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            culprit_limit,
            exact_2d: false,
            ..WhyNotOptions::default()
        }
    }

    fn figure1_engine(workers: usize) -> Engine {
        let engine = Engine::builder()
            .workers(workers)
            .cache_capacity(32)
            .build();
        engine
            .register_dataset(
                "products",
                2,
                vec![
                    2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
                ],
            )
            .unwrap();
        engine
            .register_weights(
                "customers",
                vec![
                    Weight::new(vec![0.1, 0.9]), // Kevin
                    Weight::new(vec![0.5, 0.5]), // Tony
                    Weight::new(vec![0.3, 0.7]), // Anna
                    Weight::new(vec![0.9, 0.1]), // Julia
                ],
            )
            .unwrap();
        engine
    }

    #[test]
    fn serves_every_request_kind_on_the_paper_example() {
        let engine = figure1_engine(3);
        let batch = vec![
            Request::TopK {
                dataset: "products".into(),
                weight: vec![0.5, 0.5],
                k: 3,
            },
            Request::ReverseTopKBi {
                dataset: "products".into(),
                weights: WeightSet::Named("customers".into()),
                q: vec![4.0, 4.0],
                k: 3,
            },
            Request::ReverseTopKMono {
                dataset: "products".into(),
                q: vec![4.0, 4.0],
                k: 3,
                samples: 0,
                seed: 0,
            },
            Request::WhyNot {
                dataset: "products".into(),
                q: vec![4.0, 4.0],
                k: 3,
                why_not: vec![vec![0.1, 0.9]],
                options: mqp_only(10),
            },
            Request::WhyNot {
                dataset: "products".into(),
                q: vec![4.0, 4.0],
                k: 3,
                why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
                options: mqp_only(10),
            },
        ];
        let responses = engine.submit_batch(batch);
        assert_eq!(responses.len(), 5);
        // Paper §1: Tony and Anna (indices 1, 2) have q in their top-3.
        assert_eq!(responses[1], Response::ReverseTopKBi(vec![1, 2]));
        // Kevin ranks q 4th, behind three culprits.
        match &responses[3] {
            Response::Plan(plan) => {
                assert_eq!(plan.explanations[0].rank, 4);
                assert_eq!(plan.explanations[0].culprits.len(), 3);
            }
            other => panic!("expected a plan, got {other:?}"),
        }
        match &responses[4] {
            Response::Plan(plan) => {
                let r = &plan.recommended().refinement;
                let q_prime = r.q_prime.as_ref().expect("MQP moves q");
                assert!((q_prime[0] - 3.375).abs() < 1e-5);
                assert!((q_prime[1] - 3.625).abs() < 1e-5);
            }
            other => panic!("expected a plan, got {other:?}"),
        }
        assert!(responses.iter().all(|r| !r.is_error()));
        let m = engine.metrics();
        assert_eq!(m.total_requests(), 5);
        assert_eq!(m.batches, 1);
        assert!(m.total_index_nodes() > 0, "TopK/Explain report index work");
    }

    #[test]
    fn unknown_dataset_and_bad_dimensions_fail_without_poisoning_the_batch() {
        let engine = figure1_engine(2);
        let responses = engine.submit_batch(vec![
            Request::TopK {
                dataset: "nope".into(),
                weight: vec![0.5, 0.5],
                k: 1,
            },
            Request::TopK {
                dataset: "products".into(),
                weight: vec![0.5, 0.5, 0.5],
                k: 1,
            },
            Request::TopK {
                dataset: "products".into(),
                weight: vec![0.5, 0.5],
                k: 1,
            },
        ]);
        assert!(responses[0].is_error());
        assert!(responses[1].is_error());
        assert_eq!(responses[2], Response::TopK(vec![(0, 1.5)]));
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let engine = figure1_engine(2);
        let req = Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 3,
        };
        let first = engine.submit(req.clone());
        let second = engine.submit(req);
        assert_eq!(first, second);
        let stats = engine.metrics().cache;
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn submit_batch_with_routes_completions_without_blocking() {
        // The engine must be shareable across session threads: the
        // serving layer submits from many connections concurrently.
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<Engine>();

        let engine = figure1_engine(2);
        let (tx, rx) = mpsc::channel();
        let batch = [(7u64, 1usize), (8, 2), (9, 3)]
            .into_iter()
            .map(|(id, k)| {
                let tx = tx.clone();
                BatchSubmission::new(
                    Request::TopK {
                        dataset: "products".into(),
                        weight: vec![0.5, 0.5],
                        k,
                    },
                    id,
                    move |response| tx.send((id, response)).unwrap(),
                )
            })
            .collect();
        engine.submit_batch_with(batch);
        drop(tx);
        let mut got: Vec<(u64, Response)> = rx.iter().collect();
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got.len(), 3);
        for ((id, response), k) in got.into_iter().zip([1usize, 2, 3]) {
            assert_eq!(
                response,
                engine.submit(Request::TopK {
                    dataset: "products".into(),
                    weight: vec![0.5, 0.5],
                    k,
                }),
                "completion for id {id} must match the blocking path"
            );
        }
        assert_eq!(engine.metrics().async_submits, 3);
    }

    #[test]
    fn a_cancelled_claim_skips_its_read_but_an_admitted_write_still_lands() {
        let engine = figure1_engine(1);
        let cancel = Arc::new(AtomicBool::new(true));
        let plan = Request::WhyNot {
            dataset: "products".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: WhyNotOptions::default(),
        };
        let topk = Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        };
        let append = Request::Append {
            dataset: "products".into(),
            points: vec![0.5, 0.5],
        };
        let observed = Arc::new(AtomicU64::new(0));
        let before = engine.metrics();
        let (tx, rx) = mpsc::channel();
        let items = [plan, topk, append]
            .into_iter()
            .enumerate()
            .map(|(slot, request)| {
                let done = tx.clone();
                let seen = observed.clone();
                BatchSubmission::new(request, slot as u64, move |response| {
                    done.send((slot, response)).unwrap();
                })
                .with_progress(move |_| {
                    seen.fetch_add(1, Ordering::Relaxed);
                })
                .with_cancel(cancel.clone())
            })
            .collect();
        engine.submit_batch_with(items);
        drop(tx);
        let mut replies: Vec<(usize, Response)> = rx.iter().collect();
        replies.sort_by_key(|(slot, _)| *slot);
        assert!(matches!(&replies[0].1, Response::Error(msg) if msg.contains("cancelled")));
        assert!(matches!(&replies[1].1, Response::Error(msg) if msg.contains("cancelled")));
        assert!(!replies[2].1.is_error(), "{:?}", replies[2].1);
        assert_eq!(observed.load(Ordering::Relaxed), 0, "no serve, no progress");
        let after = engine.metrics();
        let requests = |m: &MetricsSnapshot, kind: RequestKind| {
            m.per_kind
                .iter()
                .find(|k| k.kind == kind)
                .map_or(0, |k| k.requests)
        };
        for kind in [RequestKind::WhyNot, RequestKind::TopK] {
            assert_eq!(requests(&after, kind), requests(&before, kind), "{kind:?}");
        }
        assert_eq!(
            requests(&after, RequestKind::Append),
            requests(&before, RequestKind::Append) + 1
        );
        let top = engine.submit(Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        });
        assert_eq!(top, Response::TopK(vec![(7, 0.5)]), "the append landed");
    }

    #[test]
    fn a_plan_with_an_observer_rides_a_batch_among_top_ks() {
        let engine = figure1_engine(2);
        let topk = |k: usize| Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k,
        };
        let plan = Request::WhyNot {
            dataset: "products".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options: WhyNotOptions::default(),
        };
        let mix = vec![topk(1), topk(2), plan, topk(3), topk(4)];
        let before = engine.metrics();
        let (tx, rx) = mpsc::channel();
        let items = mix
            .iter()
            .cloned()
            .enumerate()
            .map(|(slot, request)| {
                let is_plan = matches!(request, Request::WhyNot { .. });
                let done = tx.clone();
                let item = BatchSubmission::new(request, slot as u64, move |response| {
                    done.send((slot, Ok(response))).unwrap();
                });
                if is_plan {
                    let part = tx.clone();
                    item.with_progress(move |delta| part.send((slot, Err(delta))).unwrap())
                } else {
                    item
                }
            })
            .collect();
        engine.submit_batch_with(items);
        drop(tx);
        let events: Vec<_> = rx.iter().collect();
        let m = engine.metrics();
        assert_eq!(m.async_submits, before.async_submits + mix.len() as u64);
        assert_eq!(m.batches, before.batches, "a claimable run is not a batch");

        // The plan's deltas all precede its completion.
        let plan_events: Vec<_> = events.iter().filter(|(slot, _)| *slot == 2).collect();
        assert_eq!(plan_events.len(), 6);
        let (explained, steps) =
            plan_events[..5]
                .iter()
                .fold((0, 0), |(e, s), (_, event)| match event {
                    Err(PlanDelta::Explained { .. }) => (e + 1, s),
                    Err(PlanDelta::Step(_)) => (e, s + 1),
                    Ok(response) => panic!("completion before a delta: {response:?}"),
                });
        assert_eq!((explained, steps), (2, 3));
        assert!(matches!(plan_events[5].1, Ok(Response::Plan(_))));

        let mut responses: Vec<Option<Response>> = vec![None; mix.len()];
        for (slot, event) in events {
            if let Ok(response) = event {
                assert!(
                    responses[slot].replace(response).is_none(),
                    "slot {slot} twice"
                );
            }
        }
        let responses: Vec<Response> = responses.into_iter().map(Option::unwrap).collect();
        let direct = figure1_engine(1);
        for (request, response) in mix.iter().zip(&responses) {
            if matches!(request, Request::TopK { .. }) {
                assert_eq!(response, &direct.submit(request.clone()));
            }
        }
        // The blocking path over the same mix answers in slot order.
        assert_eq!(figure1_engine(2).submit_batch(mix), responses);
    }

    #[test]
    fn why_not_plan_streams_partials_then_recommends_the_minimum() {
        let engine = figure1_engine(2);
        let request = Request::WhyNot {
            dataset: "products".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options: WhyNotOptions::default(),
        };
        let (tx, rx) = mpsc::channel();
        let partial_tx = tx.clone();
        engine.submit_with_progress(
            request.clone(),
            move |delta| partial_tx.send(Err(delta)).unwrap(),
            move |response| tx.send(Ok(response)).unwrap(),
        );
        let events: Vec<_> = rx.iter().collect();
        // 2 explanations + 3 strategies stream before the final plan.
        assert_eq!(events.len(), 6);
        let mut explained = 0;
        let mut steps = 0;
        for (i, event) in events.iter().enumerate() {
            match event {
                Err(PlanDelta::Explained { .. }) => {
                    assert_eq!(i, explained, "explanations stream first");
                    explained += 1;
                }
                Err(PlanDelta::Step(_)) => steps += 1,
                Ok(response) => {
                    assert_eq!(i, 5, "the final plan arrives last");
                    match response {
                        Response::Plan(plan) => {
                            assert_eq!(plan.explanations.len(), 2);
                            assert_eq!(plan.k_max, 4);
                            assert_eq!(plan.steps.len(), 3);
                            assert!(plan
                                .steps
                                .windows(2)
                                .all(|p| { p[0].refinement.penalty <= p[1].refinement.penalty }));
                            assert!(plan.steps.iter().all(|s| s.verified));
                            // Every streamed step reappears in the plan.
                            assert_eq!(steps, plan.steps.len());
                        }
                        other => panic!("expected a plan, got {other:?}"),
                    }
                }
            }
        }
        assert_eq!(explained, 2);

        // The identical request is a cache hit: the plan arrives whole,
        // bit-identical, with no partials.
        let cached = engine.submit(request);
        match (&events[5], &cached) {
            (Ok(live), cached) => assert_eq!(live, cached),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(engine.metrics().cache.hits, 1);
    }

    #[test]
    fn submit_batch_empty_is_a_noop() {
        let engine = figure1_engine(1);
        assert!(engine.submit_batch(Vec::new()).is_empty());
        assert_eq!(engine.metrics().batches, 0);
    }

    #[test]
    fn builder_defaults_and_accessors() {
        let engine = Engine::builder().workers(2).build();
        assert_eq!(engine.worker_count(), 2);
        assert!(engine.catalog().dataset_names().is_empty());
    }

    fn scatter(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * dim);
        let mut state = seed | 1;
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 10.0);
        }
        v
    }

    fn big_population(m: usize) -> Vec<Vec<f64>> {
        (0..m)
            .map(|i| {
                let x = 0.05 + 0.9 * (i as f64 / m as f64);
                vec![x, 1.0 - x]
            })
            .collect()
    }

    #[test]
    fn scratch_reuse_is_tracked() {
        // Every bichromatic request runs RTA on the worker's scratch.
        let engine = Engine::builder().workers(1).build();
        engine
            .register_dataset("d", 2, scatter(3000, 2, 5))
            .unwrap();
        // Distinct bichromatic requests keep the worker busy on its own
        // scratch; from the second one on, the buffers are warm.
        for i in 0..5 {
            let q = 3.0 + i as f64 * 0.1;
            let r = engine.submit(Request::ReverseTopKBi {
                dataset: "d".into(),
                weights: WeightSet::Inline(big_population(8)),
                q: vec![q, q],
                k: 3,
            });
            assert!(!r.is_error());
        }
        let m = engine.metrics();
        assert!(
            m.scratch_reuses >= 3,
            "warm scratch must be reused across requests: {m:?}"
        );
    }

    #[test]
    fn mutation_requests_serve_through_the_pool() {
        let engine = figure1_engine(2);
        // Append a dominating product via a request; query in a later
        // batch (mutations and queries in one batch race by design).
        let r = engine.submit(Request::Append {
            dataset: "products".into(),
            points: vec![1.0, 0.5],
        });
        assert_eq!(r, Response::Mutated { live_len: 8 });
        let top = engine.submit(Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        });
        match &top {
            Response::TopK(points) => assert_eq!(points[0].0, 7, "appended point ranks first"),
            other => panic!("expected TopK, got {other:?}"),
        }
        // Delete it again: the original paper answer returns.
        let r = engine.submit(Request::Delete {
            dataset: "products".into(),
            ids: vec![7],
        });
        assert_eq!(r, Response::Mutated { live_len: 7 });
        let r = engine.submit(Request::ReverseTopKBi {
            dataset: "products".into(),
            weights: WeightSet::Named("customers".into()),
            q: vec![4.0, 4.0],
            k: 3,
        });
        assert_eq!(r, Response::ReverseTopKBi(vec![1, 2])); // Tony, Anna
        let m = engine.metrics();
        assert_eq!(m.catalog.index_builds, 1, "mutations never rebuild");
        // The append landed before the lazy index existed (nothing to
        // avoid); the delete hit a built index and was absorbed.
        assert_eq!(m.catalog.rebuilds_avoided, 1);
        // Bad mutations are typed errors that don't poison the batch.
        let rs = engine.submit_batch(vec![
            Request::Delete {
                dataset: "products".into(),
                ids: vec![7], // already deleted
            },
            Request::Append {
                dataset: "products".into(),
                points: vec![f64::NAN, 1.0],
            },
            Request::Append {
                dataset: "nope".into(),
                points: vec![1.0, 1.0],
            },
        ]);
        assert!(rs.iter().all(Response::is_error));
    }

    #[test]
    fn non_finite_inputs_are_rejected_with_typed_errors() {
        let engine = figure1_engine(1);
        let cases = vec![
            Request::TopK {
                dataset: "products".into(),
                weight: vec![f64::NAN, 0.5],
                k: 1,
            },
            Request::TopK {
                dataset: "products".into(),
                weight: vec![-0.5, 1.5],
                k: 1,
            },
            Request::TopK {
                dataset: "products".into(),
                weight: vec![0.0, 0.0],
                k: 1,
            },
            Request::ReverseTopKMono {
                dataset: "products".into(),
                q: vec![f64::INFINITY, 4.0],
                k: 3,
                samples: 0,
                seed: 0,
            },
            Request::ReverseTopKBi {
                dataset: "products".into(),
                weights: WeightSet::Inline(vec![vec![0.5, f64::NEG_INFINITY]]),
                q: vec![4.0, 4.0],
                k: 3,
            },
            Request::WhyNot {
                dataset: "products".into(),
                q: vec![f64::NAN, 4.0],
                k: 3,
                why_not: vec![vec![0.1, 0.9]],
                options: mqp_only(3),
            },
            Request::WhyNot {
                dataset: "products".into(),
                q: vec![4.0, 4.0],
                k: 3,
                why_not: vec![vec![f64::NAN, 0.9]],
                options: mqp_only(3),
            },
        ];
        for request in cases {
            let label = format!("{request:?}");
            let response = engine.submit(request);
            match response {
                Response::Error(msg) => assert!(
                    msg.contains("non-finite") || msg.contains("invalid weighting"),
                    "{label}: unexpected error text {msg}"
                ),
                other => panic!("{label}: expected typed error, got {other:?}"),
            }
        }
        // Nothing was executed or cached for any of them.
        assert_eq!(engine.metrics().cache.len, 0);
    }

    #[test]
    fn overlay_growth_triggers_background_compaction() {
        let engine = Engine::builder().workers(2).overlay_limit(4).build();
        engine.register_dataset("d", 2, scatter(64, 2, 3)).unwrap();
        engine.catalog().handle("d").unwrap(); // build the base index
        for i in 0..6 {
            engine.append_points("d", &[i as f64, i as f64]).unwrap();
        }
        // The 5th mutation crossed the limit and scheduled a merge on
        // the pool; wait for a worker to pick it up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while engine.metrics().catalog.compactions == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "compaction never ran: {:?}",
                engine.metrics().catalog
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let epoch = engine.catalog().epoch("d").unwrap();
        assert!(epoch.base >= 2, "compaction bumps the base epoch");
        // The merged dataset still answers correctly (66 live points).
        match engine.submit(Request::TopK {
            dataset: "d".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        }) {
            Response::TopK(points) => assert_eq!(points.len(), 1),
            other => panic!("expected TopK, got {other:?}"),
        }
    }

    #[test]
    fn stats_request_returns_the_metrics_without_perturbing_them() {
        let engine = figure1_engine(2);
        engine.submit(Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 3,
        });
        let before = engine.metrics();
        let response = engine.submit(Request::Stats);
        match &response {
            Response::Stats(stats) => {
                assert_eq!(stats.metrics, before, "snapshot equals Engine::metrics()");
                assert!(
                    stats.server.is_none(),
                    "in-process callers get no server counters"
                );
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Serving the stats request recorded nothing anywhere: a second
        // observation — by either path — still matches.
        assert_eq!(engine.metrics(), before);
        match engine.submit(Request::Stats) {
            Response::Stats(stats) => assert_eq!(stats.metrics, before),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stage_histograms_cover_the_request_pipeline() {
        use wqrtq_obs::Stage;
        let engine = figure1_engine(2);
        engine.submit(Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 3,
        });
        engine.submit(Request::WhyNot {
            dataset: "products".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: wqrtq_core::advisor::WhyNotOptions::default(),
        });
        let m = engine.metrics();
        for stage in [Stage::QueueWait, Stage::CacheLookup, Stage::Execute] {
            assert_eq!(
                m.stage_latency(stage).count,
                2,
                "both requests pass through {stage:?}"
            );
        }
        assert_eq!(
            m.stage_latency(Stage::IndexProbe).count,
            1,
            "only the top-k walks the index"
        );
        // One span per strategy the plan ran.
        assert_eq!(m.stage_latency(Stage::AdvisorStep).count, 3);
        // Admission is the wire server's span: an in-process submit has
        // none.
        assert_eq!(m.stage_latency(Stage::Admission).count, 0);
    }

    #[test]
    fn tracing_yields_spans_and_a_slow_log() {
        let request = Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k: 3,
        };
        let engine = figure1_engine(2);
        engine.submit(request);
        let snap = engine.trace_snapshot();
        assert!(!snap.spans.is_empty(), "engines retain spans");
        let trace_id = snap.spans[0].trace_id;
        assert!(snap.spans.iter().all(|s| s.trace_id == trace_id));
        let slow = engine.slow_requests();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, trace_id);
        // The index probe nests inside the execute span.
        let by_stage = |stage| {
            slow[0]
                .spans
                .iter()
                .find(|s| s.stage == stage)
                .unwrap_or_else(|| panic!("missing {stage:?} span"))
        };
        let probe = by_stage(wqrtq_obs::Stage::IndexProbe);
        let exec = by_stage(wqrtq_obs::Stage::Execute);
        assert!(probe.duration_nanos <= exec.duration_nanos);
        assert!(
            probe.start_nanos + probe.duration_nanos <= exec.start_nanos + exec.duration_nanos,
            "the probe ends within the execute span"
        );
    }

    #[test]
    fn serve_inline_runs_only_cheap_requests_and_hands_the_rest_back_untouched() {
        use crate::worker::INLINE_TABLE_MAX_WEIGHTS;
        use wqrtq_obs::Stage;
        use wqrtq_rtree::DEFAULT_FANOUT;
        let engine = figure1_engine(1);
        let twin = figure1_engine(1);
        // Past the depth-10 table once `k` is clamped to `live + 1`, and
        // a population just over the loop's cap.
        let crowd: Vec<Weight> = (0..=INLINE_TABLE_MAX_WEIGHTS)
            .map(|i| Weight::from_first_2d(i as f64 / INLINE_TABLE_MAX_WEIGHTS as f64))
            .collect();
        for e in [&engine, &twin] {
            e.register_dataset("many", 2, scatter(64, 2, 9)).unwrap();
            e.register_weights("crowd", crowd.clone()).unwrap();
        }
        let topk = |k: usize| Request::TopK {
            dataset: "products".into(),
            weight: vec![0.5, 0.5],
            k,
        };
        let named =
            |dataset: &str, population: &str, q: Vec<f64>, k: usize| Request::ReverseTopKBi {
                dataset: dataset.into(),
                weights: WeightSet::Named(population.into()),
                q,
                k,
            };
        let rtopk = named("products", "customers", vec![4.0, 4.0], 3);
        let mut scratch = ProbeCtx::new();
        let mut inline = |r: &Request| {
            let answer = engine.serve_inline(r.clone(), 7, &mut scratch).ok()?;
            Some((answer.response, answer.executed))
        };

        // Handed back before anything is recorded: an unbuilt index, a
        // mutation, an invalid request, an unknown dataset.
        let untouched = engine.metrics();
        assert_eq!(inline(&topk(1)), None, "the loop never builds");
        assert_eq!(
            inline(&Request::Delete {
                dataset: "products".into(),
                ids: vec![0],
            }),
            None
        );
        let mut nan = topk(1);
        if let Request::TopK { weight, .. } = &mut nan {
            weight[0] = f64::NAN;
        }
        assert_eq!(inline(&nan), None);
        assert_eq!(
            inline(&Request::TopK {
                dataset: "nope".into(),
                weight: vec![0.5, 0.5],
                k: 1,
            }),
            None
        );
        assert_eq!(engine.metrics(), untouched);
        assert!(!engine.catalog().is_indexed("products"));

        // Built and overlay-free: small-k misses run, large k and
        // reverse top-k misses without a built table go back, and a
        // warmed entry is a hit.
        engine.catalog().handle("products").unwrap();
        let before = engine.metrics();
        assert_eq!(inline(&topk(3)), Some((twin.submit(topk(3)), true)));
        assert_eq!(inline(&topk(DEFAULT_FANOUT + 1)), None);
        assert_eq!(inline(&rtopk), None, "the loop never builds a table");
        let warmed = engine.submit(rtopk.clone());
        assert_eq!(inline(&rtopk), Some((warmed, false)));
        assert!(matches!(
            inline(&Request::Stats),
            Some((Response::Stats(_), false))
        ));
        let m = engine.metrics();
        assert_eq!(m.async_submits, before.async_submits + 2);
        assert_eq!((m.cache.hits, m.cache.misses), (1, before.cache.misses + 2));
        assert_eq!(
            m.stage_latency(Stage::QueueWait).count,
            before.stage_latency(Stage::QueueWait).count + 3,
            "inline requests keep every stage histogram populated"
        );

        // The table built, a named miss runs on the loop, bit-identical
        // to the pool's answer, through the same stages.
        let before = engine.metrics();
        for (q, k) in [([3.5, 3.5], 3), ([6.0, 2.5], 1), ([9.5, 9.5], 40)] {
            let request = named("products", "customers", q.to_vec(), k);
            assert_eq!(inline(&request), Some((twin.submit(request), true)));
        }
        let m = engine.metrics();
        assert_eq!(m.async_submits, before.async_submits + 3);
        assert_eq!(m.cache.misses, before.cache.misses + 3);
        for stage in [Stage::CacheLookup, Stage::IndexProbe, Stage::Execute] {
            assert_eq!(
                m.stage_latency(stage).count,
                before.stage_latency(stage).count + 3,
                "{stage:?}"
            );
        }
        assert_eq!(
            m.stage_latency(Stage::TableBuild).count,
            before.stage_latency(Stage::TableBuild).count,
            "no table was built"
        );

        // Each of these goes back, recording and counting nothing: an
        // inline population, `k` past the table, a population over the
        // cap, an unknown population, and `q` of the wrong dimension.
        for warm in [
            named("many", "customers", vec![0.5, 0.5], 10),
            named("many", "crowd", vec![0.5, 0.5], 10),
        ] {
            assert!(!engine.submit(warm).is_error(), "tables built on the pool");
        }
        let untouched = engine.metrics();
        assert_eq!(
            inline(&Request::ReverseTopKBi {
                dataset: "products".into(),
                weights: WeightSet::Inline(vec![vec![0.5, 0.5]]),
                q: vec![5.0, 5.0],
                k: 3,
            }),
            None
        );
        assert_eq!(
            inline(&named("many", "customers", vec![1.0, 1.0], 11)),
            None
        );
        assert_eq!(inline(&named("many", "crowd", vec![1.0, 1.0], 10)), None);
        assert_eq!(inline(&named("products", "nope", vec![4.0, 4.0], 3)), None);
        assert_eq!(
            inline(&named("products", "customers", vec![4.0, 4.0, 4.0], 3)),
            None
        );
        assert_eq!(engine.metrics(), untouched);
        // Under the cap and within the depth, the same dataset runs.
        let request = named("many", "customers", vec![1.0, 1.0], 10);
        assert_eq!(inline(&request), Some((twin.submit(request), true)));

        // An overlay is delta state: even a cheap top-k or a built
        // table's answer goes back.
        engine.append_points("products", &[1.0, 0.5]).unwrap();
        let untouched = engine.metrics();
        assert_eq!(inline(&topk(1)), None);
        assert_eq!(
            inline(&named("products", "customers", vec![3.0, 3.0], 3)),
            None
        );
        assert_eq!(engine.metrics(), untouched);

        // A handed-back admission, queued as is, serves as a twin's
        // direct submit of the same request: the same reply and the same
        // counts — one `QueueWait`, and one miss and one `CacheLookup`
        // for a query that reaches the cache.
        let counts = |m: &MetricsSnapshot| {
            let kinds = m.per_kind.iter();
            let kinds: Vec<_> = kinds
                .map(|k| (k.requests, k.errors, k.index_nodes, k.cache_hits))
                .collect();
            let stages: Vec<_> = m.stages.iter().map(|s| s.latency.count).collect();
            let cache = (m.cache.hits, m.cache.misses, m.cache.len);
            (kinds, stages, cache, m.catalog)
        };
        let delete = Request::Delete {
            dataset: "products".into(),
            ids: vec![0],
        };
        let unknown = Request::TopK {
            dataset: "nope".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        };
        for (request, built, looked_up) in [
            (topk(1), false, 1),
            (delete, false, 0),
            (nan, false, 0),
            (unknown, false, 0),
            (topk(DEFAULT_FANOUT + 1), true, 1),
        ] {
            let (engine, twin) = (figure1_engine(1), figure1_engine(1));
            if built {
                engine.catalog().handle("products").unwrap();
                twin.catalog().handle("products").unwrap();
            }
            let admitted = engine.serve_inline(request.clone(), 7, &mut scratch);
            let (tx, rx) = mpsc::channel();
            let queued = BatchSubmission::new(admitted.unwrap_err(), 7, move |response| {
                tx.send(response).unwrap();
            });
            engine.submit_batch_with(vec![queued]);
            let what = format!("{request:?}");
            assert_eq!(rx.recv().unwrap(), twin.submit(request), "{what}");
            let m = engine.metrics();
            assert_eq!(counts(&m), counts(&twin.metrics()), "{what}");
            assert_eq!(m.stage_latency(Stage::QueueWait).count, 1, "{what}");
            let lookups = m.stage_latency(Stage::CacheLookup).count;
            assert_eq!((m.cache.misses, lookups), (looked_up, looked_up), "{what}");
        }
    }

    #[test]
    fn storage_stages_record_one_sample_per_operation() {
        use wqrtq_obs::Stage;
        let dir = std::env::temp_dir().join(format!("wqrtq-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = Engine::builder()
                .workers(1)
                .overlay_limit(usize::MAX)
                .data_dir(&dir)
                .build();
            let storage = [
                Stage::WalAppend,
                Stage::Fsync,
                Stage::Checkpoint,
                Stage::Compaction,
            ];
            let samples = || storage.map(|stage| engine.metrics().stage_latency(stage).count);
            engine.register_dataset("d", 2, scatter(32, 2, 4)).unwrap();
            let registered = samples();
            assert_eq!(registered, [1, 1, 0, 0], "one record, fsynced");
            engine.append_points("d", &[1.0, 1.0]).unwrap();
            assert!(engine.checkpoint().unwrap());
            assert_eq!(samples(), [2, 2, 1, 0], "one append, one checkpoint");
            // A compaction logs and fsyncs its record, then checkpoints.
            assert!(engine.compact("d").unwrap());
            assert_eq!(samples(), [3, 3, 2, 1]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        // Without a data directory there is nothing to record.
        let engine = figure1_engine(1);
        engine.append_points("products", &[1.0, 1.0]).unwrap();
        assert!(engine.compact("products").unwrap());
        let m = engine.metrics();
        assert_eq!(m.stage_latency(Stage::WalAppend).count, 0);
        assert_eq!(m.stage_latency(Stage::Compaction).count, 1);
    }

    #[test]
    fn recovery_replay_and_catalog_write_stages_record_one_sample_each() {
        use wqrtq_obs::Stage;
        let dir = std::env::temp_dir().join(format!("wqrtq-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Engine::builder()
                .workers(1)
                .overlay_limit(usize::MAX)
                .data_dir(&dir)
                .build()
        };
        let samples = |engine: &Engine| {
            [Stage::Recovery, Stage::Replay, Stage::CatalogWrite]
                .map(|stage| engine.metrics().stage_latency(stage).count)
        };
        {
            let engine = open();
            assert_eq!(samples(&engine), [1, 1, 0], "a fresh dir: nothing replayed");
            engine.register_dataset("d", 2, scatter(32, 2, 4)).unwrap();
            let w = Weight::new(vec![0.5, 0.5]);
            engine.register_weights("w", vec![w]).unwrap();
            engine.append_points("d", &[1.0, 1.0]).unwrap();
            engine.delete_points("d", &[0]).unwrap();
            assert_eq!(samples(&engine), [1, 1, 4], "one hold per mutation");
            assert!(engine.checkpoint().unwrap());
            engine.append_points("d", &[2.0, 2.0]).unwrap();
            assert_eq!(samples(&engine), [1, 1, 6]);
            // Reads take no write lock.
            engine.submit(Request::TopK {
                dataset: "d".into(),
                weight: vec![0.5, 0.5],
                k: 3,
            });
            assert_eq!(samples(&engine)[2], 6);
        }
        // Reopening: one recovery, one replay covering the snapshot's
        // install and the one record logged after it, each a hold.
        let engine = open();
        assert_eq!(samples(&engine), [1, 1, 2]);
        assert_eq!(engine.metrics().catalog.wal_replayed, 1);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
        // Without a data directory there is no recovery, and holds still
        // count.
        let engine = figure1_engine(1);
        engine.append_points("products", &[1.0, 1.0]).unwrap();
        assert_eq!(samples(&engine), [0, 0, 3], "dataset, population, append");
    }

    #[test]
    fn small_datasets_answer_bichromatic_through_rta() {
        // The paper example (7 points) runs RTA like any other dataset;
        // the first request on a cold worker reuses no scratch.
        let engine = figure1_engine(2);
        let r = engine.submit(Request::ReverseTopKBi {
            dataset: "products".into(),
            weights: WeightSet::Named("customers".into()),
            q: vec![4.0, 4.0],
            k: 3,
        });
        assert_eq!(r, Response::ReverseTopKBi(vec![1, 2])); // Tony, Anna
        assert_eq!(engine.metrics().scratch_reuses, 0);
    }

    #[test]
    fn a_population_past_the_table_cap_is_answered_by_rta() {
        use crate::catalog::SCORE_TABLE_MAX_WEIGHTS;
        use wqrtq_geom::Point;
        use wqrtq_obs::Stage;
        use wqrtq_query::bichromatic_reverse_topk_naive;
        let engine = Engine::builder().workers(1).build();
        let coords: Vec<f64> = (0..200)
            .flat_map(|i| {
                let x = f64::from(i) / 200.0;
                [x, 1.0 - x * x]
            })
            .collect();
        engine.register_dataset("curve", 2, coords.clone()).unwrap();
        let n = SCORE_TABLE_MAX_WEIGHTS;
        let weights: Vec<Weight> = (0..=n)
            .map(|i| Weight::from_first_2d(i as f64 / n as f64))
            .collect();
        engine.register_weights("huge", weights.clone()).unwrap();
        let points: Vec<Point> = coords
            .chunks_exact(2)
            .map(|p| Point::new(p.to_vec()))
            .collect();
        for q in [[0.5, 0.7], [0.3, 0.95]] {
            let r = engine.submit(Request::ReverseTopKBi {
                dataset: "curve".into(),
                weights: WeightSet::Named("huge".into()),
                q: q.to_vec(),
                k: 10,
            });
            let naive = bichromatic_reverse_topk_naive(&points, &weights, &q, 10);
            assert_eq!(r, Response::ReverseTopKBi(naive));
        }
        let m = engine.metrics();
        assert_eq!(m.stage_latency(Stage::TableBuild).count, 0);
        assert_eq!(m.scratch_reuses, 1, "the second request reran RTA");
    }
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "two 2^20-sample runs: ~3 s optimised, ~40 s unoptimised"
    )]
    fn a_cancel_flag_stops_a_max_budget_mono_mid_run_and_nothing_is_cached() {
        use crate::request::MAX_SAMPLE_BUDGET;
        use crate::worker::serve;
        use wqrtq_query::monochromatic_reverse_topk_sampled;
        use wqrtq_rtree::RTree;
        let engine = Engine::builder().workers(1).cache_capacity(8).build();
        let coords: Vec<f64> = (0..300u32)
            .flat_map(|i| {
                let x = f64::from(i) / 300.0;
                [x, (x * 7.0).fract(), 1.0 - x * x]
            })
            .collect();
        engine.register_dataset("cube", 3, coords.clone()).unwrap();
        let mono = Request::ReverseTopKMono {
            dataset: "cube".into(),
            q: vec![0.2, 0.3, 0.4],
            k: 5,
            samples: MAX_SAMPLE_BUDGET,
            seed: 7,
        };
        // A worker puts the claimed submission's flag on its context; the
        // claim-time check has already passed, so RTA's first look stops it.
        let mut scratch = ProbeCtx::new();
        scratch.cancel = Some(Arc::new(AtomicBool::new(true)));
        let trace = TraceContext {
            trace_id: 1,
            submitted: Instant::now(),
        };
        let reply = serve(
            &engine.ctx,
            0,
            trace,
            mono.clone().into(),
            &mut scratch,
            &mut None,
        );
        assert!(
            matches!(&reply, Response::Error(msg) if msg.contains("cancelled")),
            "{reply:?}"
        );
        assert_eq!(
            scratch.rta.buffer_prunes + scratch.rta.tree_verifications,
            0
        );
        let before = engine.metrics().cache;
        assert_eq!(before.len, 0, "a cancelled reply is not cached");

        let full = engine.submit(mono.clone());
        let after = engine.metrics().cache;
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
        let direct = monochromatic_reverse_topk_sampled(
            &RTree::bulk_load(3, &coords),
            &[0.2, 0.3, 0.4],
            5,
            MAX_SAMPLE_BUDGET,
            7,
            &mut ProbeCtx::new(),
        );
        assert_eq!(
            full,
            Response::MonoSampled {
                volume_fraction: direct.volume_fraction,
                samples: MAX_SAMPLE_BUDGET,
            }
        );
        assert!(direct.volume_fraction > 0.0 && direct.volume_fraction < 1.0);
    }

    #[test]
    fn a_cancel_flag_stops_a_max_budget_plan_between_steps_and_nothing_is_cached() {
        use crate::request::{PlanDelta, MAX_PLAN_PAIRS};
        use crate::worker::serve;
        use std::sync::Mutex;
        // The largest square plan `check_options` admits.
        let side = 8191;
        assert!(side * (side + 1) <= MAX_PLAN_PAIRS && (side + 1) * (side + 2) > MAX_PLAN_PAIRS);
        let engine = Engine::builder().workers(1).cache_capacity(8).build();
        let twin = Engine::builder().workers(1).build();
        let coords: Vec<f64> = (0..300u32)
            .flat_map(|i| {
                let x = f64::from(i) / 300.0;
                [x, (x * 7.0).fract(), 1.0 - x * x]
            })
            .collect();
        engine.register_dataset("cube", 3, coords.clone()).unwrap();
        twin.register_dataset("cube", 3, coords).unwrap();
        let plan = |budget: usize| Request::WhyNot {
            dataset: "cube".into(),
            q: vec![0.6, 0.6, 0.6],
            k: 5,
            why_not: vec![vec![0.2, 0.3, 0.5]],
            options: WhyNotOptions {
                sample_size: budget,
                query_samples: budget,
                seed: 7,
                ..WhyNotOptions::default()
            },
        };
        let trace = TraceContext {
            trace_id: 1,
            submitted: Instant::now(),
        };
        // The observer sets the flag when MQP's step arrives: MWK and
        // MQWK, at the largest admissible plan, never start.
        let flag = Arc::new(AtomicBool::new(false));
        let mut scratch = ProbeCtx::new();
        scratch.cancel = Some(flag.clone());
        let deltas = Arc::new(Mutex::new(Vec::new()));
        let (seen, setter) = (deltas.clone(), flag.clone());
        let mut progress: Option<ProgressFn> = Some(Box::new(move |delta: PlanDelta| {
            if matches!(delta, PlanDelta::Step(_)) {
                setter.store(true, Ordering::Release);
            }
            seen.lock().unwrap().push(delta);
        }));
        let reply = serve(
            &engine.ctx,
            0,
            trace,
            plan(side).into(),
            &mut scratch,
            &mut progress,
        );
        assert!(
            matches!(&reply, Response::Error(msg) if msg.contains("cancelled")),
            "{reply:?}"
        );
        let deltas = deltas.lock().unwrap();
        assert!(
            matches!(deltas[..], [PlanDelta::Explained { .. }, PlanDelta::Step(ref step)]
                if step.strategy == StrategyKind::Mqp)
        );
        assert_eq!(
            engine.metrics().cache.len,
            0,
            "a cancelled reply is not cached"
        );

        // An unset flag changes nothing: the plan equals a flagless twin's.
        flag.store(false, Ordering::Release);
        let full = serve(
            &engine.ctx,
            0,
            trace,
            plan(64).into(),
            &mut scratch,
            &mut None,
        );
        assert!(matches!(full, Response::Plan(ref p) if p.steps.len() == 3));
        assert_eq!(full, twin.submit(plan(64)));
    }
}
