//! The worker pool, per-worker scratch, and the request execution path.
//!
//! A fixed set of threads drains a shared mpsc work queue, first in,
//! first out. Every request enters as one [`Job::Serve`] carrying its
//! [`BatchSubmission`] — request, trace id, optional progress observer
//! and cancel flag, completion — and runs start to finish on the worker
//! that took it. The completion routes the response: into a slot of
//! [`crate::Engine::submit_batch`]'s ordered reply, or to the caller. No
//! worker ever waits on another.
//!
//! Every catalog write — a registration, append, delete or compaction,
//! queued or called in process — runs through one function, [`mutate`]:
//! [`Catalog::apply`], which recovery's replay calls too, plus the
//! compaction trigger. A scheduled [`Job::Compact`] calls
//! [`Catalog::compact_if`].
//!
//! Each worker owns a [`ProbeCtx`] — the RTA culprit pool and the probe
//! and top-k queues live across requests, so the steady-state hot path
//! performs no per-request allocations (tracked by the `scratch_reuses`
//! metric).
//!
//! [`serve_inline`], behind [`crate::Engine::serve_inline`], lets an
//! event loop answer the requests that are cheap by construction on its
//! own thread and its own `ProbeCtx` — a `Stats`, a cache hit, and over
//! a built, overlay-free base a small-`k` top-k miss or a named
//! bichromatic miss whose score table is built; it validates as
//! [`serve`] does and shares its cache lookup and fill, execution and
//! metrics ([`Serving`]), reports whether it executed a miss, and hands
//! everything else back untouched.
//!
//! Execution is deterministic — every algorithm is seed-driven — which
//! makes responses identical for any worker count (asserted by the
//! determinism tests).

use crate::cache::CacheKey;
use crate::catalog::{Catalog, CatalogStats, DatasetEpoch, DatasetHandle, PeekedTable};
use crate::engine::{BatchSubmission, InlineAnswer};
use crate::error::EngineError;
use crate::metrics::{Metrics, StatsSnapshot};
use crate::request::{
    Plan, PlanDelta, PlanExplanation, PlanStep, Refinement, Request, RequestKind, Response,
    WeightSet,
};
use crate::ResultCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wqrtq_core::advisor::{AdvisorEvent, RankedStep, RefinementPlan};
use wqrtq_core::explain::Explanation;
use wqrtq_core::framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
use wqrtq_geom::Weight;
use wqrtq_obs::{SpanRecord, Stage, Tracer};
use wqrtq_query::{
    bichromatic_reverse_topk_rta, monochromatic_reverse_topk_2d, simplex_population_with,
    topk_with, MrtopkEstimate, ProbeCtx, Snapshot,
};
use wqrtq_rtree::{RTree, DEFAULT_FANOUT};

/// Shared state every worker (and the engine's inline path) executes
/// against.
#[derive(Debug)]
pub(crate) struct WorkerContext {
    pub(crate) catalog: Catalog,
    pub(crate) cache: ResultCache,
    pub(crate) metrics: Metrics,
    /// The stage histograms, per-worker span rings and the slow-request
    /// log; shared with the catalog, which samples its builds into it.
    pub(crate) tracer: Arc<Tracer>,
    /// Re-entrant handle to the work queue, used to schedule
    /// compactions. Workers holding this sender keep the channel open,
    /// so shutdown is signalled with explicit [`Job::Shutdown`]
    /// sentinels instead of channel disconnection.
    pub(crate) queue: Sender<Job>,
    /// Overlay rows (delta + tombstones) a dataset may accumulate before
    /// a compaction is scheduled; `None` picks the adaptive default of
    /// `max(1024, base_len / 4)` (quarter-of-base for large datasets, a
    /// generous absolute floor for small ones whose overlay sweeps are
    /// cheap anyway).
    pub(crate) overlay_limit: Option<usize>,
}

/// Overlay size that triggers compaction under the adaptive policy.
pub(crate) fn compaction_threshold(overlay_limit: Option<usize>, base_len: usize) -> usize {
    overlay_limit.unwrap_or_else(|| 1024.max(base_len / 4))
}

/// A progressive-result observer for one in-flight request: invoked on
/// the worker thread as each advisor step completes. Like a completion,
/// it must be quick and non-blocking.
pub(crate) type ProgressFn = Box<dyn FnMut(PlanDelta) + Send>;

/// Tracing identity of one queued request: the trace id assigned at the
/// boundary (wire or `submit`) plus the submission instant, from which
/// the worker derives the queue-wait span at pickup.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TraceContext {
    pub(crate) trace_id: u64,
    pub(crate) submitted: Instant,
}

/// One unit of queued work.
pub(crate) enum Job {
    /// One request. With more than one worker, a fast request queued
    /// behind a slow one overtakes it.
    Serve(BatchSubmission),
    /// A scheduled overlay merge for a dataset, run off the request
    /// path. Carries the epoch the trigger observed: a dataset that
    /// mutated (or compacted) since is left alone.
    Compact {
        dataset: String,
        epoch: DatasetEpoch,
    },
    /// Orderly shutdown sentinel (one per worker, sent on engine drop).
    Shutdown,
}

/// The answer a cancelled submission's completion receives (see
/// [`BatchSubmission::with_cancel`]).
const CANCELLED: &str = "request cancelled: nobody is waiting for its reply";

/// The fixed thread pool.
#[derive(Debug)]
pub(crate) struct Pool {
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads draining `queue`.
    pub(crate) fn spawn(workers: usize, queue: Receiver<Job>, ctx: Arc<WorkerContext>) -> Self {
        assert!(workers > 0, "need at least one worker");
        let queue = Arc::new(Mutex::new(queue));
        let handles = (0..workers)
            .map(|i| {
                let queue = queue.clone();
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("wqrtq-worker-{i}"))
                    .spawn(move || worker_loop(i, &queue, &ctx))
                    // lint: allow(no-panic) — one-time pool
                    // construction; an engine without workers cannot
                    // serve anything.
                    .expect("spawn worker thread")
            })
            .collect();
        Self { handles }
    }

    /// Waits for every worker to exit (the engine must already have sent
    /// one [`Job::Shutdown`] per worker, otherwise this blocks forever).
    ///
    /// A completion closure may own the last `Arc<Engine>`, in which case
    /// the engine is dropped — and this runs — on a worker. That worker
    /// cannot join itself (`EDEADLK`); its sentinel is queued, so it
    /// exits on its own once the closure returns.
    pub(crate) fn join(self) {
        let me = std::thread::current().id();
        for h in self.handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.handles.len()
    }
}

fn worker_loop(worker: usize, queue: &Mutex<Receiver<Job>>, ctx: &WorkerContext) {
    let mut scratch = ProbeCtx::new();
    loop {
        // Hold the queue lock only for the dequeue, never during work.
        let job = match queue.lock().expect("work queue lock").recv() {
            Ok(job) => job,
            Err(_) => return, // channel torn down: shut down
        };
        match job {
            Job::Serve(mut item) => {
                if item.cancelled() {
                    (item.complete)(Response::Error(CANCELLED.into()));
                    continue;
                }
                let trace = TraceContext {
                    trace_id: item.trace_id,
                    submitted: item.submitted,
                };
                // A flag set mid-run stops RTA, or a plan's sampling
                // loops, within a chunk.
                scratch.cancel = item.cancel.take();
                let response = serve(
                    ctx,
                    worker,
                    trace,
                    item.request,
                    &mut scratch,
                    &mut item.progress,
                );
                scratch.cancel = None;
                (item.complete)(response);
            }
            Job::Compact { dataset, epoch } => {
                // Best-effort: an unknown dataset (dropped since the
                // trigger) or a superseded epoch is simply skipped.
                let _ = ctx.catalog.compact_if(&dataset, epoch);
            }
            Job::Shutdown => return,
        }
    }
}

/// Duration as saturating nanoseconds (the span/histogram unit).
fn span_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-request stage collector: buffers the stage spans of one request
/// and, once the request is answered, records them into the tracer —
/// each span's stage histogram and ring, plus the slow-log entry — in
/// one go. A request the event loop hands back is dropped unrecorded,
/// so it leaves no trace. The buffer is tiny (≤ a dozen spans).
pub(crate) struct SpanBuf {
    trace_id: u64,
    spans: Vec<SpanRecord>,
}

impl SpanBuf {
    fn new(trace_id: u64) -> Self {
        SpanBuf {
            trace_id,
            spans: Vec::new(),
        }
    }

    /// Notes a stage that just finished (its start is reconstructed
    /// from `now - duration`, so callers need no start bookkeeping).
    fn push_ended(&mut self, tracer: &Tracer, stage: Stage, duration: Duration) {
        let nanos = span_nanos(duration);
        self.spans.push(SpanRecord {
            trace_id: self.trace_id,
            stage,
            start_nanos: tracer.now_nanos().saturating_sub(nanos),
            duration_nanos: nanos,
        });
    }
}

/// What a cache miss executes against.
enum Target<'a> {
    /// The pool's snapshot: overlay included, the index built
    /// on first use; `progress` observes a [`Request::WhyNot`]'s partial
    /// results.
    Handle(DatasetHandle, &'a mut Option<ProgressFn>),
    /// The loop's top-k over a built, overlay-free base index — no
    /// delta state.
    Plain {
        tree: Arc<RTree>,
        weight: &'a [f64],
        k: usize,
    },
    /// The loop's bichromatic reverse top-k of a named population from
    /// its built score table over a built, overlay-free base index.
    Table {
        tree: Arc<RTree>,
        named: PeekedTable,
        q: &'a [f64],
        k: usize,
    },
}

/// One request between pickup and reply: its span buffer and the clock
/// its metrics are taken from. [`serve`] and [`serve_inline`] differ only
/// in how they resolve the dataset and whether they may hand a request
/// back; cache lookup and fill, execution and metrics are these
/// methods, shared.
struct Serving {
    kind: RequestKind,
    /// The request's [`Request::fingerprint`], taken once: it keys the
    /// cache and names the request in the trace. A mutation is never
    /// cached, so it is never encoded and hashed: its trace names it 0.
    fingerprint: u64,
    started: Instant,
    spans: SpanBuf,
}

impl Serving {
    /// Starts the clock and notes the queue wait since submission.
    fn begin(ctx: &WorkerContext, trace: TraceContext, request: &Request) -> Self {
        let started = Instant::now();
        let mut spans = SpanBuf::new(trace.trace_id);
        let queue_wait = started.saturating_duration_since(trace.submitted);
        spans.push_ended(&ctx.tracer, Stage::QueueWait, queue_wait);
        let kind = request.kind();
        Self {
            kind,
            fingerprint: if kind.is_mutation() {
                0
            } else {
                request.fingerprint()
            },
            started,
            spans,
        }
    }

    /// Records an answer that neither came from nor goes to the cache.
    fn uncached(&self, ctx: &WorkerContext, response: Response) -> Response {
        let elapsed = self.started.elapsed();
        ctx.metrics
            .record(self.kind, elapsed, 0, false, response.is_error());
        response
    }

    fn fail(&self, ctx: &WorkerContext, e: EngineError) -> Response {
        self.uncached(ctx, Response::Error(e.to_string()))
    }

    /// Looks `key` up in the result cache and records a hit. A miss is
    /// counted only if `executes`: by the thread that goes on to run it.
    fn lookup(&mut self, ctx: &WorkerContext, key: &CacheKey, executes: bool) -> Option<Response> {
        let lookup = Instant::now();
        let cached = ctx.cache.lookup(key, executes);
        self.spans
            .push_ended(&ctx.tracer, Stage::CacheLookup, lookup.elapsed());
        if cached.is_some() {
            let elapsed = self.started.elapsed();
            ctx.metrics.record(self.kind, elapsed, 0, true, false);
        }
        cached
    }

    /// Runs a miss against `target`, caches a successful answer and
    /// records it.
    fn execute(
        &mut self,
        ctx: &WorkerContext,
        request: &Request,
        key: CacheKey,
        target: Target<'_>,
        scratch: &mut ProbeCtx,
    ) -> Response {
        if matches!(&target, Target::Handle(handle, _) if !handle.view.is_plain()) {
            ctx.metrics.record_delta_hit();
        }
        let spans = &mut self.spans;
        let exec = Instant::now();
        let (response, index_nodes) = catch_unwind(AssertUnwindSafe(|| match target {
            Target::Handle(handle, progress) => {
                execute(ctx, &handle, request, scratch, progress, spans)
            }
            Target::Plain { tree, weight, k } => {
                execute_topk(ctx, spans, Snapshot::from(&*tree), weight, k, scratch)
            }
            Target::Table { tree, named, q, k } => probe(ctx, spans, || {
                let (snap, weights) = (Snapshot::from(&*tree), &named.weights[..]);
                // `serve_inline` admits only a `k` the table serves; RTA,
                // as on the pool, should it ever not.
                let members = named
                    .table
                    .reverse_topk(snap, weights, q, k, scratch)
                    .unwrap_or_else(|| bichromatic_reverse_topk_rta(snap, weights, q, k, scratch));
                (Response::ReverseTopKBi(members), 0)
            }),
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request panicked".to_string());
            (Response::Error(format!("request panicked: {msg}")), 0)
        });
        spans.push_ended(&ctx.tracer, Stage::Execute, exec.elapsed());

        if !response.is_error() {
            ctx.cache.insert(key, response.clone());
        }
        ctx.metrics.record(
            self.kind,
            self.started.elapsed(),
            index_nodes,
            false,
            response.is_error(),
        );
        response
    }

    /// Records the spans into `shard`, offers the request to the slow
    /// log, and hands the response back.
    fn finish(self, ctx: &WorkerContext, shard: usize, response: Response) -> Response {
        let total = span_nanos(self.started.elapsed());
        let spans = &self.spans.spans;
        ctx.tracer
            .record_request(shard, self.fingerprint, total, spans);
        response
    }
}

/// A `Stats` reply. It is built before any recording: the snapshot must
/// equal `Engine::metrics()` taken at the same quiesced point (the wire
/// differential test asserts exactly that), so serving it must not
/// perturb the counters it reports — no metrics, no stage histograms, no
/// cache or catalog traffic.
fn stats(ctx: &WorkerContext, catalog: CatalogStats) -> Response {
    Response::Stats(Box::new(StatsSnapshot {
        metrics: ctx
            .metrics
            .snapshot(ctx.cache.stats(), catalog, &ctx.tracer),
        server: None,
    }))
}

/// Serves one request on a pool worker: validate (the input firewall:
/// non-finite coordinates and malformed weighting vectors die before
/// any index or cache is touched) → snapshot the dataset
/// (building its index on first use) → cache lookup → execute → cache
/// fill → metrics, with the spans recorded into `shard`. A
/// [`Request::WhyNot`]'s `progress` observes partial results as the
/// advisor produces them; a cache hit skips it entirely (the plan
/// arrives whole, no steps run). A mutation goes to [`mutate`] instead:
/// no snapshot, no index build, no cache.
pub(crate) fn serve(
    ctx: &WorkerContext,
    shard: usize,
    trace: TraceContext,
    request: Request,
    scratch: &mut ProbeCtx,
    progress: &mut Option<ProgressFn>,
) -> Response {
    if matches!(request, Request::Stats) {
        return stats(ctx, ctx.catalog.stats());
    }
    let mut serving = Serving::begin(ctx, trace, &request);
    let response = if let Err(e) = request.validate() {
        serving.fail(ctx, e)
    } else if serving.kind.is_mutation() {
        let response = mutate(ctx, request).unwrap_or_else(|e| Response::Error(e.to_string()));
        serving.uncached(ctx, response)
    } else {
        match ctx.catalog.handle(request.dataset()) {
            Err(e) => serving.fail(ctx, e),
            Ok(handle) => {
                let key = CacheKey {
                    epoch: handle.epoch,
                    fingerprint: serving.fingerprint,
                };
                match serving.lookup(ctx, &key, true) {
                    Some(hit) => hit,
                    None => {
                        let target = Target::Handle(handle, progress);
                        serving.execute(ctx, &request, key, target, scratch)
                    }
                }
            }
        }
    };
    serving.finish(ctx, shard, response)
}

/// The largest named population whose table answer the event loop
/// runs itself; a larger one goes to the pool. An overlay-free table
/// answer is one score and one comparison per weight. Measured through
/// [`crate::Engine::serve_inline`] on a 2-core x86-64 host (release,
/// `k = 10`, IND 100k×3 and ANTI 50k×5, unique query points; the whole
/// call, validation and cache fill included), p50 over three runs:
/// 1 000 weights take 9–11 µs at `d = 3` and `d = 5`, 2 048 take
/// 15–18 µs, and a small-`k` top-k miss — the other work the loop runs —
/// 7–12 µs. At the cap a table answer costs about two top-k misses, so
/// the server's per-event miss budget (`INLINE_MISSES_PER_EVENT`) keeps
/// the loop occupancy it was sized for.
pub(crate) const INLINE_TABLE_MAX_WEIGHTS: usize = 2048;

/// Serves one request on an event loop if it is cheap by construction —
/// a [`Request::Stats`], a cache hit, a [`Request::TopK`] miss with `k`
/// at most one leaf's worth, or a named [`Request::ReverseTopKBi`] miss
/// its built score table answers, both over a built, overlay-free base —
/// and never waits for a writer. Anything else returns `None` having
/// recorded and counted nothing, for the pool to [`serve`].
pub(crate) fn serve_inline(
    ctx: &WorkerContext,
    shard: usize,
    trace: TraceContext,
    request: &Request,
    scratch: &mut ProbeCtx,
) -> Option<InlineAnswer> {
    if matches!(request, Request::Stats) {
        let response = stats(ctx, ctx.catalog.stats());
        return Some(InlineAnswer {
            response,
            executed: false,
        });
    }
    if request.kind().is_mutation() {
        return None;
    }
    let mut serving = Serving::begin(ctx, trace, request);
    request.validate().ok()?;
    let population = match request {
        Request::ReverseTopKBi {
            weights: WeightSet::Named(name),
            ..
        } => Some(name.as_str()),
        _ => None,
    };
    // An `O(1)` look at what is built; no snapshot, no delta state.
    let peek = ctx.catalog.peek(request.dataset(), population)?;
    let target = match (request, peek.plain, peek.table) {
        (Request::TopK { weight, k, .. }, Some(tree), _) if *k <= DEFAULT_FANOUT => {
            Some(Target::Plain {
                tree,
                weight,
                k: *k,
            })
        }
        // A built table implies the population's dimension is the
        // base's: it is only ever built after the pool checked that.
        (Request::ReverseTopKBi { q, k, .. }, Some(tree), Some(named))
            if q.len() == tree.dim()
                && *k >= 1
                && (*k).min(tree.len() + 1) <= named.table.depth()
                && named.weights.len() <= INLINE_TABLE_MAX_WEIGHTS =>
        {
            Some(Target::Table {
                tree,
                named,
                q,
                k: *k,
            })
        }
        _ => None,
    };
    let key = CacheKey {
        epoch: peek.epoch,
        fingerprint: serving.fingerprint,
    };
    let (response, executed) = match serving.lookup(ctx, &key, target.is_some()) {
        Some(hit) => (hit, false),
        None => (serving.execute(ctx, request, key, target?, scratch), true),
    };
    let response = serving.finish(ctx, shard, response);
    Some(InlineAnswer { response, executed })
}

/// Validates a vector against the dataset dimensionality.
fn check_dim(dim: usize, v: &[f64]) -> Result<(), EngineError> {
    if v.len() != dim {
        return Err(EngineError::DimensionMismatch {
            expected: dim,
            got: v.len(),
        });
    }
    Ok(())
}

/// Lifts a request's why-not vectors or population onto the simplex
/// type the algorithms take. [`Request::validate`] has already held a
/// queued request's to [`Weight::check`], the rule `try_new` applies
/// here.
fn simplex_weights(raw: &[Vec<f64>], field: &'static str) -> Result<Vec<Weight>, EngineError> {
    raw.iter()
        .map(|w| Weight::try_new(w.clone()).map_err(|_| EngineError::InvalidWeight { field }))
        .collect()
}

/// Runs the bichromatic reverse top-k for one request on the worker's
/// own scratch: from the generation's score table when the population
/// is registered as `named` and the catalog keeps a table for it that
/// covers `k` (clamped to `live + 1`), else by RTA — the engine's one RTA
/// call, which a sampled mono's drawn population also takes. A cancel
/// flag that stopped RTA makes the reply [`CANCELLED`].
fn execute_bichromatic(
    ctx: &WorkerContext,
    handle: &DatasetHandle,
    population: &[Weight],
    named: Option<&str>,
    q: &[f64],
    k: usize,
    scratch: &mut ProbeCtx,
) -> Response {
    let live_k = k.min(handle.live_len() + 1);
    let table = named.and_then(|name| ctx.catalog.score_table(handle, name, population, live_k));
    if let Some(members) =
        table.and_then(|t| t.reverse_topk(handle.snapshot(), population, q, k, scratch))
    {
        return Response::ReverseTopKBi(members);
    }
    // RTA reuses the worker's warm culprit pool / probe queue.
    if scratch.is_warm() {
        ctx.metrics.record_scratch_reuse();
    }
    let members = bichromatic_reverse_topk_rta(handle.snapshot(), population, q, k, scratch);
    if scratch.is_cancelled() {
        return Response::Error(CANCELLED.into());
    }
    Response::ReverseTopKBi(members)
}

/// Times an index-walking kernel as an [`Stage::IndexProbe`] stage.
fn probe<T>(ctx: &WorkerContext, spans: &mut SpanBuf, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    spans.push_ended(&ctx.tracer, Stage::IndexProbe, started.elapsed());
    out
}

/// Answers a top-k: the `k`-bounded best-first over the base index,
/// merged with the overlay when the snapshot carries one.
fn execute_topk(
    ctx: &WorkerContext,
    spans: &mut SpanBuf,
    snap: Snapshot<'_>,
    weight: &[f64],
    k: usize,
    scratch: &mut ProbeCtx,
) -> (Response, usize) {
    if let Err(e) = check_dim(snap.dim(), weight) {
        return (Response::Error(e.to_string()), 0);
    }
    probe(ctx, spans, || {
        let before = scratch.nodes_visited;
        let out = topk_with(snap, weight, k, scratch);
        (Response::TopK(out), scratch.nodes_visited - before)
    })
}

/// Runs the algorithm behind a request. Returns the response plus the
/// index nodes expanded (0 where the primitive does not report it).
fn execute(
    ctx: &WorkerContext,
    handle: &DatasetHandle,
    request: &Request,
    scratch: &mut ProbeCtx,
    progress: &mut Option<ProgressFn>,
    spans: &mut SpanBuf,
) -> (Response, usize) {
    match request {
        Request::TopK { weight, k, .. } => {
            execute_topk(ctx, spans, handle.snapshot(), weight, *k, scratch)
        }
        Request::ReverseTopKMono {
            q,
            k,
            samples,
            seed,
            ..
        } => {
            if let Err(e) = check_dim(handle.dim, q) {
                return (Response::Error(e.to_string()), 0);
            }
            probe(ctx, spans, || {
                let reply = if handle.dim == 2 {
                    // The exact sweep needs a flat live buffer; un-mutated
                    // datasets reuse the base verbatim, overlays materialise
                    // their live rows (O(n), amortised by the sweep's own
                    // O(n log n)).
                    let live_coords;
                    let coords: &[f64] = if handle.view.is_plain() {
                        &handle.coords
                    } else {
                        live_coords = handle.view.materialize_row_major().0;
                        &live_coords
                    };
                    let intervals = monochromatic_reverse_topk_2d(coords, q, *k);
                    Response::MonoExact(intervals.into_iter().map(|iv| (iv.lo, iv.hi)).collect())
                } else {
                    // A flag that cuts the draws short stops RTA at its
                    // first poll, and the reply is the cancelled error.
                    let population = simplex_population_with(handle.dim, *samples, *seed, scratch);
                    match execute_bichromatic(ctx, handle, &population, None, q, *k, scratch) {
                        Response::ReverseTopKBi(members) => {
                            let est = MrtopkEstimate::from_members(population, &members);
                            let (volume_fraction, samples) = (est.volume_fraction, est.samples);
                            Response::MonoSampled {
                                volume_fraction,
                                samples,
                            }
                        }
                        cancelled => cancelled,
                    }
                };
                (reply, 0)
            })
        }
        Request::ReverseTopKBi { weights, q, k, .. } => {
            if let Err(e) = check_dim(handle.dim, q) {
                return (Response::Error(e.to_string()), 0);
            }
            let (population, named): (Arc<Vec<Weight>>, _) = match weights {
                WeightSet::Named(name) => match ctx.catalog.weights(name) {
                    Ok(ws) => (ws, Some(name.as_str())),
                    Err(e) => return (Response::Error(e.to_string()), 0),
                },
                WeightSet::Inline(ws) => match simplex_weights(ws, "inline weight set") {
                    Ok(ws) => (Arc::new(ws), None),
                    Err(e) => return (Response::Error(e.to_string()), 0),
                },
            };
            // A registered population has one dimension (the catalog
            // checks it), so its first weight speaks for all of them.
            let scan = if named.is_some() { 1 } else { population.len() };
            if let Some(w) = population.iter().take(scan).find(|w| w.dim() != handle.dim) {
                let e = EngineError::DimensionMismatch {
                    expected: handle.dim,
                    got: w.dim(),
                };
                return (Response::Error(e.to_string()), 0);
            }
            probe(ctx, spans, || {
                (
                    execute_bichromatic(ctx, handle, &population, named, q, *k, scratch),
                    0,
                )
            })
        }
        Request::WhyNot {
            q,
            k,
            why_not,
            options,
            ..
        } => {
            let why_not = match simplex_weights(why_not, "why-not vector") {
                Ok(ws) => ws,
                Err(e) => return (Response::Error(e.to_string()), 0),
            };
            let wqrtq = match Wqrtq::new(handle.snapshot(), q, *k) {
                Ok(w) => w.with_tolerances(options.tol),
                Err(e) => return (Response::Error(e.to_string()), 0),
            };
            // Every advisor event passes through `on_event` first, which
            // peels off the timing events ([`AdvisorEvent::StageTimed`],
            // one per strategy run) into `AdvisorStep` spans; the
            // remaining events become streamed plan deltas when the
            // caller asked for progress.
            let result = {
                let mut on_event = |event: &AdvisorEvent<'_>| {
                    if let AdvisorEvent::StageTimed { nanos, .. } = *event {
                        let took = Duration::from_nanos(nanos);
                        spans.push_ended(&ctx.tracer, Stage::AdvisorStep, took);
                    }
                };
                match progress {
                    Some(emit) => wqrtq.advise_with(&why_not, options, scratch, |event| {
                        on_event(&event);
                        if let Some(delta) = delta_from_event(&event) {
                            emit(delta);
                        }
                    }),
                    None => wqrtq.advise_with(&why_not, options, scratch, |event| on_event(&event)),
                }
            };
            // A flag that stopped the plan leaves it incomplete.
            match result {
                _ if scratch.is_cancelled() => (Response::Error(CANCELLED.into()), 0),
                Ok(plan) => (Response::Plan(plan_from(plan)), 0),
                Err(e) => (Response::Error(e.to_string()), 0),
            }
        }
        Request::Append { .. }
        | Request::Delete { .. }
        | Request::Register { .. }
        | Request::RegisterWeights { .. }
        | Request::Compact { .. }
        | Request::Stats => {
            // lint: allow(no-panic) — `serve` routes mutations and stats
            // to their own paths before snapshot resolution; this arm
            // exists only to keep the match exhaustive.
            unreachable!("mutations and stats are dispatched before snapshot resolution")
        }
    }
}

/// The one mutation path — a queued request's (after [`serve`]
/// validated it) and an in-process `Engine` call's alike:
/// [`Catalog::apply`], then, when an append or delete left the overlay
/// past its threshold, a compaction scheduled off the request path.
/// The request is taken by value, so a registration's coordinates move
/// into the catalog uncopied. Stale cache entries need no eviction: the
/// epoch a mutation moves is part of every cache key.
pub(crate) fn mutate(ctx: &WorkerContext, request: Request) -> Result<Response, EngineError> {
    let catalog = &ctx.catalog;
    let overlaid = matches!(request, Request::Append { .. } | Request::Delete { .. })
        .then(|| request.dataset().to_string());
    let response = catalog.apply(request)?;
    if let Some(dataset) = overlaid {
        if let Ok((overlay, base_len)) = catalog.overlay_size(&dataset) {
            if overlay > compaction_threshold(ctx.overlay_limit, base_len) {
                if let Ok(epoch) = catalog.epoch(&dataset) {
                    // A send failure means the pool is shutting down — the
                    // overlay simply persists until the next trigger.
                    let _ = ctx.queue.send(Job::Compact { dataset, epoch });
                }
            }
        }
    }
    Ok(response)
}

fn plan_explanation_from(explanation: &Explanation) -> PlanExplanation {
    PlanExplanation {
        rank: explanation.rank,
        culprits: explanation
            .culprits
            .iter()
            .map(|c| (c.id, c.score))
            .collect(),
        truncated: explanation.truncated,
    }
}

fn plan_step_from(step: &RankedStep) -> PlanStep {
    PlanStep {
        strategy: step.strategy,
        refinement: refinement_from(step.answer.clone()),
        breakdown: step.breakdown,
        verified: step.verified,
        exact: step.stats.exact,
        sample_size: step.stats.sample_size,
        query_samples: step.stats.query_samples,
    }
}

fn plan_from(plan: RefinementPlan) -> Plan {
    Plan {
        explanations: plan
            .explanations
            .iter()
            .map(plan_explanation_from)
            .collect(),
        k_max: plan.k_max,
        steps: plan.steps.iter().map(plan_step_from).collect(),
    }
}

/// Maps an advisor event to the streamed plan delta it represents.
/// Timing events carry no plan content and map to `None`.
fn delta_from_event(event: &AdvisorEvent<'_>) -> Option<PlanDelta> {
    match event {
        AdvisorEvent::Explained { index, explanation } => Some(PlanDelta::Explained {
            index: *index,
            explanation: plan_explanation_from(explanation),
        }),
        AdvisorEvent::Step(step) => Some(PlanDelta::Step(plan_step_from(step))),
        AdvisorEvent::StageTimed { .. } => None,
    }
}

fn refinement_from(answer: WqrtqAnswer) -> Refinement {
    let weights_to_raw = |ws: Vec<Weight>| ws.into_iter().map(Weight::into_vec).collect::<Vec<_>>();
    match answer.refined {
        RefinedQuery::QueryPoint { q_prime } => Refinement {
            q_prime: Some(q_prime),
            why_not: None,
            k: None,
            penalty: answer.penalty,
        },
        RefinedQuery::Preferences { why_not, k } => Refinement {
            q_prime: None,
            why_not: Some(weights_to_raw(why_not)),
            k: Some(k),
            penalty: answer.penalty,
        },
        RefinedQuery::Everything {
            q_prime,
            why_not,
            k,
        } => Refinement {
            q_prime: Some(q_prime),
            why_not: Some(weights_to_raw(why_not)),
            k: Some(k),
            penalty: answer.penalty,
        },
    }
}
