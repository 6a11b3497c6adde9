//! Span-based request tracing: one latency histogram per [`Stage`],
//! per-worker ring buffers and a bounded slow-request log.
//!
//! A stage is observed once. [`Tracer::record`] puts a span's duration
//! into its stage's histogram and the span into a ring shard;
//! [`Tracer::sample`] takes an observation no request owns (a build, a
//! WAL append, a lock hold) into the histogram alone. Nothing else
//! writes a stage histogram.
//!
//! Design constraints, in priority order:
//!
//! 1. **Recording never blocks.** Each worker records into its own ring
//!    shard behind a `try_lock`; a contended shard (a concurrent drain,
//!    or a mis-hinted foreign thread) drops the span and increments
//!    `dropped` instead of waiting. Tracing is diagnostic — losing a
//!    span under contention is correct; stalling the hot path is not.
//!    The dropped span's histogram sample is still taken: histograms
//!    are lock-free.
//! 2. **Bounded memory.** Rings overwrite their oldest span once full;
//!    the slow-request log keeps only the top-N totals, guarded by an
//!    atomic threshold so non-slow requests reject without locking.
//! 3. **Cheap spans.** A [`SpanRecord`] is five words; timestamps are
//!    nanoseconds since the tracer's construction (`Instant` epoch), so
//!    records are plain `Copy` data.

use crate::{Histogram, HistogramSnapshot, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed stage span of one traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request's trace id (wire: `conn << 32 | frame`; in-process:
    /// an engine counter).
    pub trace_id: u64,
    /// Which pipeline stage this span timed.
    pub stage: Stage,
    /// Span start, nanoseconds since [`Tracer::new`].
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
}

/// A drained copy of every ring shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The retained spans, oldest-first within each shard.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because a shard was contended at record time.
    pub dropped: u64,
}

/// One entry of the slow-request log: a request's full span breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowRequest {
    /// The request's trace id.
    pub trace_id: u64,
    /// The request fingerprint (workload identity, cache-key hash; 0 for
    /// a mutation, which is never cached and so never fingerprinted).
    pub fingerprint: u64,
    /// End-to-end duration in nanoseconds.
    pub total_nanos: u64,
    /// Every stage span recorded for this request.
    pub spans: Vec<SpanRecord>,
}

impl SlowRequest {
    /// Renders the entry as a JSON object.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\": \"{}\", \"start_us\": {:.3}, \"duration_us\": {:.3}}}",
                    s.stage.name(),
                    s.start_nanos as f64 / 1_000.0,
                    s.duration_nanos as f64 / 1_000.0
                )
            })
            .collect();
        format!(
            "{{\"trace_id\": {}, \"fingerprint\": {}, \"total_us\": {:.3}, \"spans\": [{}]}}",
            self.trace_id,
            self.fingerprint,
            self.total_nanos as f64 / 1_000.0,
            spans.join(", ")
        )
    }
}

/// A fixed-capacity overwrite-oldest span buffer (one per shard).
#[derive(Debug)]
struct Ring {
    buf: Vec<SpanRecord>,
    /// Next write position once `buf` reached capacity.
    head: usize,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
        }
    }

    fn push(&mut self, span: SpanRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(span);
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Removes and returns the retained spans, oldest first.
    fn drain(&mut self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        out
    }
}

/// The tracing sink: the stage histograms, sharded span rings and the
/// slow-request log.
///
/// Construct one per engine with one shard per worker; server threads
/// record with their connection id as the shard hint (any hint is safe
/// — it only picks which ring absorbs the span).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// One latency histogram per stage, in [`Stage::ALL`] order.
    stages: [Histogram; Stage::COUNT],
    shards: Vec<Mutex<Ring>>,
    dropped: AtomicU64,
    slow: Mutex<Vec<SlowRequest>>,
    slow_capacity: usize,
    /// Smallest total in a full slow log; cheap pre-filter so non-slow
    /// requests never take the lock.
    slow_floor: AtomicU64,
}

impl Tracer {
    /// A tracer with `shards` rings of `ring_capacity` spans each and a
    /// slow log keeping the `slow_capacity` slowest requests.
    pub fn new(shards: usize, ring_capacity: usize, slow_capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            stages: std::array::from_fn(|_| Histogram::new()),
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Ring::new(ring_capacity.max(1))))
                .collect(),
            dropped: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            slow_capacity: slow_capacity.max(1),
            slow_floor: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this tracer's construction (span timestamps).
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one span: its duration into its stage's histogram, the
    /// span into the hinted shard. Never blocks: if the shard is
    /// contended the span is dropped and counted, its sample kept.
    pub fn record(&self, shard_hint: usize, span: SpanRecord) {
        self.stages[span.stage.index()].record(span.duration_nanos);
        match self.shards[shard_hint % self.shards.len()].try_lock() {
            Ok(mut ring) => ring.push(span),
            Err(_) => {
                // ordering: Relaxed — monotonic drop tally, read only by
                // `drain()` snapshots.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one observation no request owns — a build, a storage
    /// operation, a catalog lock hold — into `stage`'s histogram, with
    /// no span.
    pub fn sample(&self, stage: Stage, duration: Duration) {
        self.stages[stage.index()].record_duration(duration);
    }

    /// A copy of `stage`'s latency histogram.
    pub fn stage_latency(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// Records a whole request's spans and offers it to the slow log.
    pub fn record_request(
        &self,
        shard_hint: usize,
        fingerprint: u64,
        total_nanos: u64,
        spans: &[SpanRecord],
    ) {
        for &span in spans {
            self.record(shard_hint, span);
        }
        self.offer_slow(fingerprint, total_nanos, spans);
    }

    /// Admits the request to the slow log if it beats the current
    /// floor. Non-slow requests return after one atomic load.
    fn offer_slow(&self, fingerprint: u64, total_nanos: u64, spans: &[SpanRecord]) {
        // ordering: Relaxed — admission heuristic: a stale floor admits
        // (or skips) a borderline request, and the authoritative
        // ranking happens under the `slow` mutex below.
        if total_nanos <= self.slow_floor.load(Ordering::Relaxed) {
            return;
        }
        // A contended slow log drops the candidate rather than stall
        // the worker; the floor check already filters the common case.
        let Ok(mut slow) = self.slow.try_lock() else {
            // ordering: Relaxed — monotonic drop tally.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let trace_id = spans.first().map_or(0, |s| s.trace_id);
        slow.push(SlowRequest {
            trace_id,
            fingerprint,
            total_nanos,
            spans: spans.to_vec(),
        });
        slow.sort_by_key(|s| std::cmp::Reverse(s.total_nanos));
        slow.truncate(self.slow_capacity);
        if slow.len() == self.slow_capacity {
            // ordering: Relaxed — publishes only the heuristic floor
            // value itself; readers re-check under the mutex.
            self.slow_floor
                .store(slow.last().map_or(0, |s| s.total_nanos), Ordering::Relaxed);
        }
    }

    /// Drains every ring shard into one snapshot (spans oldest-first
    /// per shard; the `dropped` counter is carried over, not reset).
    pub fn drain(&self) -> TraceSnapshot {
        let mut spans = Vec::new();
        for shard in &self.shards {
            if let Ok(mut ring) = shard.lock() {
                spans.append(&mut ring.drain());
            }
        }
        TraceSnapshot {
            spans,
            // ordering: Relaxed — monitoring read of a monotonic tally.
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// The current slow-request log, slowest first (a clone; the log
    /// keeps accumulating).
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(trace_id: u64, stage: Stage, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            stage,
            start_nanos: start,
            duration_nanos: dur,
        }
    }

    #[test]
    fn rings_overwrite_oldest_and_drain_in_order() {
        let t = Tracer::new(1, 4, 4);
        for i in 0..6u64 {
            t.record(0, span(i, Stage::Execute, i * 10, 1));
        }
        let snap = t.drain();
        let ids: Vec<u64> = snap.spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, [2, 3, 4, 5]);
        assert_eq!(snap.dropped, 0);
        assert!(t.drain().spans.is_empty(), "drain empties the rings");
    }

    #[test]
    fn contended_shard_drops_instead_of_blocking() {
        let t = Arc::new(Tracer::new(1, 8, 4));
        let guard = t.shards[0].lock().unwrap();
        // The shard lock is held: recording from another handle must
        // return promptly (drop + count), not deadlock.
        let t2 = Arc::clone(&t);
        let rec = std::thread::spawn(move || {
            t2.record(0, span(1, Stage::QueueWait, 0, 5));
        });
        rec.join().unwrap();
        drop(guard);
        assert_eq!(t.drain().dropped, 1);
        // The dropped span is still one observation of its stage.
        let wait = t.stage_latency(Stage::QueueWait);
        assert_eq!((wait.count, wait.max), (1, 5));
    }

    #[test]
    fn spans_and_samples_feed_their_own_stage_histograms() {
        let t = Tracer::new(2, 8, 4);
        t.record(0, span(1, Stage::QueueWait, 0, 3_000));
        t.record(1, span(2, Stage::QueueWait, 0, 5_000));
        t.record(0, span(1, Stage::Execute, 0, 40_000));
        t.sample(Stage::WalAppend, Duration::from_micros(7));
        assert_eq!(t.stage_latency(Stage::QueueWait).count, 2);
        assert_eq!(t.stage_latency(Stage::Execute).count, 1);
        assert_eq!(t.stage_latency(Stage::CacheLookup).count, 0);
        let wal = t.stage_latency(Stage::WalAppend);
        assert_eq!((wal.count, wal.max), (1, 7_000));
        // A sample is no span: the rings hold the three spans alone.
        assert_eq!(t.drain().spans.len(), 3);
    }

    #[test]
    fn slow_log_keeps_the_top_n_with_full_breakdowns() {
        let t = Tracer::new(2, 16, 3);
        for (id, total) in [(1u64, 50u64), (2, 900), (3, 10), (4, 700), (5, 800)] {
            let spans = [
                span(id, Stage::QueueWait, 0, total / 4),
                span(id, Stage::Execute, total / 4, 3 * total / 4),
            ];
            t.record_request(id as usize, id * 11, total, &spans);
        }
        let slow = t.slow_requests();
        let totals: Vec<u64> = slow.iter().map(|s| s.total_nanos).collect();
        assert_eq!(totals, [900, 800, 700]);
        assert_eq!(slow[0].trace_id, 2);
        assert_eq!(slow[0].fingerprint, 22);
        assert_eq!(slow[0].spans.len(), 2);
        assert_eq!(slow[0].spans[1].stage, Stage::Execute);
    }

    #[test]
    fn spans_nest_and_recording_survives_concurrent_drains() {
        // Writers record nested span pairs while a reader drains in a
        // loop; writers must finish promptly (no blocking) and every
        // span either lands in a snapshot or is counted as dropped.
        let t = Arc::new(Tracer::new(4, 64, 8));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let id = w * 1_000 + i;
                        let outer_start = t.now_nanos();
                        let spans = [
                            span(id, Stage::CacheLookup, outer_start + 5, 10),
                            span(id, Stage::Execute, outer_start, 100),
                        ];
                        t.record_request(w as usize, id, 100, &spans);
                    }
                })
            })
            .collect();
        let reader = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut collected = Vec::new();
                for _ in 0..50 {
                    collected.extend(t.drain().spans);
                    std::thread::yield_now();
                }
                collected
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let mut spans = reader.join().unwrap();
        let tail = t.drain();
        spans.extend(tail.spans);
        // Nested spans stay attributable to their request: both stages
        // of any fully retained trace share the trace id, and the inner
        // span lies within the outer's window.
        for pair in spans.chunks(2) {
            if let [a, b] = pair {
                if a.trace_id == b.trace_id && a.stage == Stage::CacheLookup {
                    assert!(a.start_nanos >= b.start_nanos);
                    assert!(a.start_nanos + a.duration_nanos <= b.start_nanos + b.duration_nanos);
                }
            }
        }
        assert!(
            spans.len() as u64 + tail.dropped <= 4 * 500 * 2,
            "spans are never duplicated"
        );
        assert!(!spans.is_empty());
    }
}
