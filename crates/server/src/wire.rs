//! The typed wire vocabulary: every engine [`Request`] / [`Response`]
//! kind — registrations and compactions included — plus connection
//! liveness.
//!
//! A frame payload is `u64 request id` + `u8 opcode` + body. Request ids
//! are assigned by the client and echoed verbatim on the matching
//! response frame — that is the *only* correlation mechanism, so a
//! client may keep any number of frames in flight (pipelining) and the
//! server may complete them in any order (responses are routed by the
//! shard pool, not the arrival order). Id `0` is reserved for
//! connection-level [`ServerFrame::ProtocolError`] frames that cannot be
//! attributed to a parsed request.
//!
//! A submit's body is the engine's own request encoding
//! ([`Request::encode_into`] / [`Request::decode`]), the bytes the result
//! cache's [`Request::fingerprint`] hashes; this module frames it.
//!
//! Floats travel as IEEE-754 bit patterns ([`crate::frame::ByteWriter`]),
//! so a decoded [`Response`] is bit-identical to the in-process value —
//! the property the differential loopback test pins down.

use crate::frame::{ByteReader, ByteWriter, DecodeError};
use wqrtq_engine::{
    CacheStats, CatalogStats, HistogramSnapshot, KindSnapshot, MetricsSnapshot, PenaltyBreakdown,
    Plan, PlanDelta, PlanExplanation, PlanStep, Refinement, Request, RequestKind, Response,
    ServerCounters, Stage, StageSnapshot, StatsSnapshot, StrategyKind,
};

/// Reserved request id for connection-level errors that cannot be
/// attributed to a parsed request (bad magic, malformed frame).
pub const CONNECTION_ID: u64 = 0;

/// Wire coverage table for [`wqrtq_engine::EngineError`].
///
/// Typed engine errors cross the wire *rendered*: the serving loop folds
/// them into [`Response::Error`] (a `RESP_ERROR` frame carrying the
/// `Display` text), so the wire format never needs a per-variant tag —
/// but that also means nothing in the type system notices when a new
/// variant is added without a conformance check. This table is that
/// check's anchor: `wqrtq-lint` (the `drift` rule) cross-references it
/// against the `EngineError` declaration, and the
/// `every_engine_error_round_trips_as_an_error_frame` test below proves
/// each listed variant survives encode → decode as a decodable error
/// frame with its message intact.
pub const ENGINE_ERROR_VARIANTS: [&str; 15] = [
    "UnknownDataset",
    "UnknownWeightSet",
    "DimensionMismatch",
    "ZeroDimension",
    "RaggedCoordinates",
    "WeightSetExists",
    "NonFiniteInput",
    "InvalidWeight",
    "InvalidTolerances",
    "EmptyStrategySet",
    "SampleBudgetTooLarge",
    "UnknownPointId",
    "DatasetFull",
    "PoolShutdown",
    "Durability",
];

// Client → server opcodes. 0x02–0x04 are retired (the control frames
// that registered and compacted outside the request vocabulary) and
// stay reserved.
const OP_SUBMIT: u8 = 0x01;
const OP_PING: u8 = 0x05;

// Server → client opcodes. 0x82–0x83 are retired (those control frames'
// acknowledgements) and stay reserved.
const OP_REPLY: u8 = 0x81;
const OP_PONG: u8 = 0x84;
const OP_BUSY: u8 = 0x85;
const OP_PROTOCOL_ERROR: u8 = 0x86;
const OP_HELLO: u8 = 0x87;
const OP_REPLY_PART: u8 = 0x88;

/// One client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Serve one engine request — a query, a registration, an append,
    /// a delete or a compaction — through admission.
    Submit(Request),
    /// Liveness probe; answered with [`ServerFrame::Pong`] by the event
    /// loop itself.
    Ping,
}

/// One server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// The engine's response to a [`ClientFrame::Submit`].
    Reply(Response),
    /// Liveness answer.
    Pong,
    /// The admission queue was full; the request was **not** executed.
    /// The client may retry after draining some in-flight responses.
    Busy,
    /// The connection violated the protocol (bad preamble, malformed or
    /// oversized frame); the server closes the connection after this.
    ProtocolError(String),
    /// The negotiation answer: the server's first frame on a connection
    /// that sent the [`crate::frame::MAGIC_V2`] preamble (carried on the
    /// reserved connection id).
    Hello {
        /// The protocol version the server settled on.
        version: u8,
        /// The largest frame payload this server accepts, so a client
        /// can size registrations without trial and error.
        max_frame_len: u64,
    },
    /// A progressive partial result of an in-flight plan request:
    /// explanations and per-strategy refinements stream as the advisor
    /// produces them, each echoing the request id,
    /// strictly before the final [`ServerFrame::Reply`] carries the
    /// ranked plan. Best-effort: a client that lets its receive queue
    /// overflow may miss partials, never the final reply.
    ReplyPart(PlanDelta),
}

impl ClientFrame {
    /// Encodes a [`ClientFrame::Submit`] payload for `request` by
    /// reference — the pipelined hot path, sparing the caller a clone of
    /// a potentially large request (byte-identical to
    /// `ClientFrame::Submit(request.clone()).encode(id)`).
    pub fn encode_submit(id: u64, request: &Request) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(id);
        w.put_u8(OP_SUBMIT);
        request.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes the message as a frame payload carrying `id`.
    pub fn encode(&self, id: u64) -> Vec<u8> {
        match self {
            ClientFrame::Submit(request) => Self::encode_submit(id, request),
            ClientFrame::Ping => {
                let mut w = ByteWriter::new();
                w.put_u64(id);
                w.put_u8(OP_PING);
                w.into_vec()
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// [`DecodeError`] on any malformed, truncated, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<(u64, Self), DecodeError> {
        let mut r = ByteReader::new(payload);
        let id = r.take_u64("request id")?;
        let opcode = r.take_u8("opcode")?;
        let frame = match opcode {
            OP_SUBMIT => ClientFrame::Submit(Request::decode(&mut r)?),
            OP_PING => ClientFrame::Ping,
            _ => return Err(DecodeError::new("unknown client opcode")),
        };
        r.finish()?;
        Ok((id, frame))
    }
}

impl ServerFrame {
    /// Encodes the message as a frame payload carrying `id`.
    pub fn encode(&self, id: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w, id);
        w.into_vec()
    }

    /// Encodes the message as a whole wire frame carrying `id`: the
    /// length prefix and [`ServerFrame::encode`]'s payload, in one buffer.
    pub fn encode_frame(&self, id: u64) -> Vec<u8> {
        let mut w = ByteWriter::framed();
        self.encode_into(&mut w, id);
        w.into_frame()
    }

    fn encode_into(&self, w: &mut ByteWriter, id: u64) {
        w.put_u64(id);
        match self {
            ServerFrame::Reply(response) => {
                w.put_u8(OP_REPLY);
                encode_response(w, response);
            }
            ServerFrame::Pong => w.put_u8(OP_PONG),
            ServerFrame::Busy => w.put_u8(OP_BUSY),
            ServerFrame::ProtocolError(msg) => {
                w.put_u8(OP_PROTOCOL_ERROR);
                w.put_str(msg);
            }
            ServerFrame::Hello {
                version,
                max_frame_len,
            } => {
                w.put_u8(OP_HELLO);
                w.put_u8(*version);
                w.put_u64(*max_frame_len);
            }
            ServerFrame::ReplyPart(delta) => {
                w.put_u8(OP_REPLY_PART);
                encode_plan_delta(w, delta);
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// [`DecodeError`] on any malformed, truncated, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<(u64, Self), DecodeError> {
        let mut r = ByteReader::new(payload);
        let id = r.take_u64("request id")?;
        let opcode = r.take_u8("opcode")?;
        let frame = match opcode {
            OP_REPLY => ServerFrame::Reply(decode_response(&mut r)?),
            OP_PONG => ServerFrame::Pong,
            OP_BUSY => ServerFrame::Busy,
            OP_PROTOCOL_ERROR => ServerFrame::ProtocolError(r.take_str("error message")?),
            OP_HELLO => ServerFrame::Hello {
                version: r.take_u8("protocol version")?,
                max_frame_len: r.take_u64("max frame length")?,
            },
            OP_REPLY_PART => ServerFrame::ReplyPart(decode_plan_delta(&mut r)?),
            _ => return Err(DecodeError::new("unknown server opcode")),
        };
        r.finish()?;
        Ok((id, frame))
    }
}

// Response body tags (one per `Response` variant). Tags are never
// reused: 5 and 6 are retired (the pre-advisor explanation/refinement
// replies) and stay reserved.
const RESP_TOPK: u8 = 1;
const RESP_MONO_EXACT: u8 = 2;
const RESP_MONO_SAMPLED: u8 = 3;
const RESP_RTOPK_BI: u8 = 4;
const RESP_MUTATED: u8 = 7;
const RESP_ERROR: u8 = 8;
const RESP_PLAN: u8 = 9;
const RESP_STATS: u8 = 10;
const RESP_COMPACTED: u8 = 11;

// Plan-delta body tags (partial frames).
const DELTA_EXPLAINED: u8 = 1;
const DELTA_STEP: u8 = 2;

fn encode_response(w: &mut ByteWriter, response: &Response) {
    match response {
        Response::TopK(points) => {
            w.put_u8(RESP_TOPK);
            w.put_usize(points.len());
            for (id, score) in points {
                w.put_u64(u64::from(*id));
                w.put_f64(*score);
            }
        }
        Response::MonoExact(intervals) => {
            w.put_u8(RESP_MONO_EXACT);
            w.put_usize(intervals.len());
            for (lo, hi) in intervals {
                w.put_f64(*lo);
                w.put_f64(*hi);
            }
        }
        Response::MonoSampled {
            volume_fraction,
            samples,
        } => {
            w.put_u8(RESP_MONO_SAMPLED);
            w.put_f64(*volume_fraction);
            w.put_usize(*samples);
        }
        Response::ReverseTopKBi(members) => {
            w.put_u8(RESP_RTOPK_BI);
            w.put_usize(members.len());
            for member in members {
                w.put_usize(*member);
            }
        }
        Response::Plan(plan) => {
            w.put_u8(RESP_PLAN);
            encode_plan(w, plan);
        }
        Response::Stats(stats) => {
            w.put_u8(RESP_STATS);
            encode_stats(w, stats);
        }
        Response::Mutated { live_len } => {
            w.put_u8(RESP_MUTATED);
            w.put_usize(*live_len);
        }
        Response::Compacted { ran } => {
            w.put_u8(RESP_COMPACTED);
            w.put_u8(u8::from(*ran));
        }
        Response::Error(msg) => {
            w.put_u8(RESP_ERROR);
            w.put_str(msg);
        }
    }
}

fn encode_refinement(w: &mut ByteWriter, refinement: &Refinement) {
    match &refinement.q_prime {
        Some(q) => {
            w.put_u8(1);
            w.put_f64s(q);
        }
        None => w.put_u8(0),
    }
    match &refinement.why_not {
        Some(ws) => {
            w.put_u8(1);
            w.put_usize(ws.len());
            for weight in ws {
                w.put_f64s(weight);
            }
        }
        None => w.put_u8(0),
    }
    match refinement.k {
        Some(k) => {
            w.put_u8(1);
            w.put_usize(k);
        }
        None => w.put_u8(0),
    }
    w.put_f64(refinement.penalty);
}

fn decode_refinement(r: &mut ByteReader<'_>) -> Result<Refinement, DecodeError> {
    let q_prime = match r.take_u8("q' flag")? {
        0 => None,
        _ => Some(r.take_f64s("q'")?),
    };
    let why_not = match r.take_u8("why-not flag")? {
        0 => None,
        _ => {
            let count = r.take_count(8, "why-not count")?;
            Some(
                (0..count)
                    .map(|_| r.take_f64s("why-not vector"))
                    .collect::<Result<_, _>>()?,
            )
        }
    };
    let k = match r.take_u8("k flag")? {
        0 => None,
        _ => Some(r.take_usize("k")?),
    };
    Ok(Refinement {
        q_prime,
        why_not,
        k,
        penalty: r.take_f64("penalty")?,
    })
}

fn encode_plan_explanation(w: &mut ByteWriter, explanation: &PlanExplanation) {
    w.put_usize(explanation.rank);
    w.put_usize(explanation.culprits.len());
    for (id, score) in &explanation.culprits {
        w.put_u64(u64::from(*id));
        w.put_f64(*score);
    }
    w.put_u8(u8::from(explanation.truncated));
}

fn decode_plan_explanation(r: &mut ByteReader<'_>) -> Result<PlanExplanation, DecodeError> {
    let rank = r.take_usize("rank")?;
    let count = r.take_count(16, "culprit count")?;
    let culprits = (0..count)
        .map(|_| {
            let id = r.take_u64("culprit id")?;
            let id = u32::try_from(id).map_err(|_| DecodeError::new("culprit id"))?;
            Ok((id, r.take_f64("culprit score")?))
        })
        .collect::<Result<_, DecodeError>>()?;
    Ok(PlanExplanation {
        rank,
        culprits,
        truncated: r.take_u8("truncated flag")? != 0,
    })
}

fn encode_plan_step(w: &mut ByteWriter, step: &PlanStep) {
    w.put_u8(step.strategy.tag());
    encode_refinement(w, &step.refinement);
    w.put_f64(step.breakdown.combined);
    w.put_f64(step.breakdown.query_term);
    w.put_f64(step.breakdown.k_term);
    w.put_f64(step.breakdown.weight_term);
    w.put_u8(u8::from(step.verified));
    w.put_u8(u8::from(step.exact));
    w.put_usize(step.sample_size);
    w.put_usize(step.query_samples);
}

fn decode_plan_step(r: &mut ByteReader<'_>) -> Result<PlanStep, DecodeError> {
    let strategy = StrategyKind::from_tag(r.take_u8("strategy kind")?)
        .ok_or(DecodeError::new("unknown strategy kind tag"))?;
    let refinement = decode_refinement(r)?;
    let breakdown = PenaltyBreakdown {
        combined: r.take_f64("combined penalty")?,
        query_term: r.take_f64("query term")?,
        k_term: r.take_f64("k term")?,
        weight_term: r.take_f64("weight term")?,
    };
    Ok(PlanStep {
        strategy,
        refinement,
        breakdown,
        verified: r.take_u8("verified flag")? != 0,
        exact: r.take_u8("exact flag")? != 0,
        sample_size: r.take_usize("sample size")?,
        query_samples: r.take_usize("query samples")?,
    })
}

fn encode_plan(w: &mut ByteWriter, plan: &Plan) {
    w.put_usize(plan.explanations.len());
    for explanation in &plan.explanations {
        encode_plan_explanation(w, explanation);
    }
    w.put_usize(plan.k_max);
    w.put_usize(plan.steps.len());
    for step in &plan.steps {
        encode_plan_step(w, step);
    }
}

fn decode_plan(r: &mut ByteReader<'_>) -> Result<Plan, DecodeError> {
    let count = r.take_count(16, "explanation count")?;
    let explanations = (0..count)
        .map(|_| decode_plan_explanation(r))
        .collect::<Result<_, _>>()?;
    let k_max = r.take_usize("k max")?;
    let count = r.take_count(8, "step count")?;
    let steps = (0..count)
        .map(|_| decode_plan_step(r))
        .collect::<Result<Vec<_>, _>>()?;
    if steps.is_empty() {
        return Err(DecodeError::new("plan without steps"));
    }
    Ok(Plan {
        explanations,
        k_max,
        steps,
    })
}

fn encode_plan_delta(w: &mut ByteWriter, delta: &PlanDelta) {
    match delta {
        PlanDelta::Explained { index, explanation } => {
            w.put_u8(DELTA_EXPLAINED);
            w.put_usize(*index);
            encode_plan_explanation(w, explanation);
        }
        PlanDelta::Step(step) => {
            w.put_u8(DELTA_STEP);
            encode_plan_step(w, step);
        }
    }
}

fn decode_plan_delta(r: &mut ByteReader<'_>) -> Result<PlanDelta, DecodeError> {
    Ok(match r.take_u8("plan delta tag")? {
        DELTA_EXPLAINED => PlanDelta::Explained {
            index: r.take_usize("why-not index")?,
            explanation: decode_plan_explanation(r)?,
        },
        DELTA_STEP => PlanDelta::Step(decode_plan_step(r)?),
        _ => return Err(DecodeError::new("unknown plan delta tag")),
    })
}

// Histograms travel in their canonical sparse form (sorted, non-empty
// buckets only) so a decode/encode round trip is bit-identical.
fn encode_histogram(w: &mut ByteWriter, h: &HistogramSnapshot) {
    w.put_u64(h.count);
    w.put_u64(h.sum);
    w.put_u64(h.max);
    w.put_usize(h.buckets.len());
    for &(index, count) in &h.buckets {
        w.put_u64(u64::from(index));
        w.put_u64(count);
    }
}

fn decode_histogram(r: &mut ByteReader<'_>) -> Result<HistogramSnapshot, DecodeError> {
    let count = r.take_u64("histogram count")?;
    let sum = r.take_u64("histogram sum")?;
    let max = r.take_u64("histogram max")?;
    let buckets = r.take_count(16, "histogram bucket count")?;
    let buckets = (0..buckets)
        .map(|_| {
            let index = r.take_u64("bucket index")?;
            let index =
                u16::try_from(index).map_err(|_| DecodeError::new("bucket index exceeds u16"))?;
            Ok((index, r.take_u64("bucket value")?))
        })
        .collect::<Result<_, DecodeError>>()?;
    Ok(HistogramSnapshot {
        count,
        sum,
        max,
        buckets,
    })
}

fn encode_stats(w: &mut ByteWriter, stats: &StatsSnapshot) {
    let m = &stats.metrics;
    w.put_usize(m.per_kind.len());
    for kind in &m.per_kind {
        w.put_u8(kind.kind.wire_tag());
        w.put_u64(kind.requests);
        w.put_u64(kind.errors);
        encode_histogram(w, &kind.latency);
        w.put_u64(kind.index_nodes);
        w.put_u64(kind.cache_hits);
    }
    w.put_usize(m.stages.len());
    for stage in &m.stages {
        w.put_u8(stage.stage.tag());
        encode_histogram(w, &stage.latency);
    }
    w.put_u64(m.batches);
    w.put_u64(m.async_submits);
    w.put_u64(m.scratch_reuses);
    w.put_u64(m.parallel_shards);
    w.put_u64(m.sharded_requests);
    w.put_u64(m.delta_hits);
    w.put_u64(m.catalog.index_builds);
    w.put_u64(m.catalog.rebuilds_avoided);
    w.put_u64(m.catalog.compactions);
    w.put_u64(m.catalog.compactions_abandoned);
    w.put_u64(m.catalog.mask_builds);
    // Reserved: the slots of the retired `prefilter_skips` and
    // `quantized_fallbacks` counters, always 0 and never to be reused.
    w.put_u64(0);
    w.put_u64(0);
    w.put_u64(m.catalog.wal_appends);
    w.put_u64(m.catalog.snapshot_writes);
    w.put_u64(m.catalog.recoveries);
    w.put_u64(m.catalog.wal_replayed);
    w.put_u64(m.cache.hits);
    w.put_u64(m.cache.misses);
    w.put_usize(m.cache.len);
    w.put_usize(m.cache.capacity);
    match &stats.server {
        Some(counters) => {
            w.put_u8(1);
            w.put_u64(counters.connections_accepted);
            w.put_u64(counters.connections_open);
            w.put_u64(counters.frames_in);
            w.put_u64(counters.frames_out);
            w.put_u64(counters.busy_rejections);
            w.put_u64(counters.protocol_errors);
            w.put_u64(counters.in_flight);
            w.put_u64(counters.read_syscalls);
            w.put_u64(counters.write_syscalls);
        }
        None => w.put_u8(0),
    }
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<StatsSnapshot, DecodeError> {
    let kinds = r.take_count(35, "kind snapshot count")?;
    let mut per_kind = Vec::with_capacity(kinds);
    for _ in 0..kinds {
        let kind = RequestKind::from_wire_tag(r.take_u8("kind tag")?);
        let requests = r.take_u64("kind requests")?;
        let errors = r.take_u64("kind errors")?;
        let latency = decode_histogram(r)?;
        let index_nodes = r.take_u64("kind index nodes")?;
        let cache_hits = r.take_u64("kind cache hits")?;
        // A kind appended after this build is skipped, as a stage is.
        if let Some(kind) = kind {
            per_kind.push(KindSnapshot {
                kind,
                requests,
                errors,
                latency,
                index_nodes,
                cache_hits,
            });
        }
    }
    let count = r.take_count(33, "stage snapshot count")?;
    let mut stages = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.take_u8("stage tag")?;
        let latency = decode_histogram(r)?;
        // A stage appended after this build is skipped, not refused: its
        // histogram is self-delimiting, so newer servers stay readable.
        if let Some(stage) = Stage::from_tag(tag) {
            stages.push(StageSnapshot { stage, latency });
        }
    }
    let batches = r.take_u64("batches")?;
    let async_submits = r.take_u64("async submits")?;
    let scratch_reuses = r.take_u64("scratch reuses")?;
    let parallel_shards = r.take_u64("parallel shards")?;
    let sharded_requests = r.take_u64("sharded requests")?;
    let delta_hits = r.take_u64("delta hits")?;
    let catalog = CatalogStats {
        index_builds: r.take_u64("index builds")?,
        rebuilds_avoided: r.take_u64("rebuilds avoided")?,
        compactions: r.take_u64("compactions")?,
        compactions_abandoned: r.take_u64("compactions abandoned")?,
        mask_builds: r.take_u64("mask builds")?,
        wal_appends: {
            // The two reserved slots `encode_stats` writes as 0: read,
            // dropped.
            r.take_u64("reserved stats slot")?;
            r.take_u64("reserved stats slot")?;
            r.take_u64("wal appends")?
        },
        snapshot_writes: r.take_u64("snapshot writes")?,
        recoveries: r.take_u64("recoveries")?,
        wal_replayed: r.take_u64("wal replayed")?,
    };
    let cache = CacheStats {
        hits: r.take_u64("cache hits")?,
        misses: r.take_u64("cache misses")?,
        len: r.take_usize("cache len")?,
        capacity: r.take_usize("cache capacity")?,
    };
    let server = match r.take_u8("server counters flag")? {
        0 => None,
        1 => Some(ServerCounters {
            connections_accepted: r.take_u64("connections accepted")?,
            connections_open: r.take_u64("connections open")?,
            frames_in: r.take_u64("frames in")?,
            frames_out: r.take_u64("frames out")?,
            busy_rejections: r.take_u64("busy rejections")?,
            protocol_errors: r.take_u64("protocol errors")?,
            in_flight: r.take_u64("in flight")?,
            read_syscalls: r.take_u64("read syscalls")?,
            write_syscalls: r.take_u64("write syscalls")?,
        }),
        _ => return Err(DecodeError::new("invalid server counters flag")),
    };
    Ok(StatsSnapshot {
        metrics: MetricsSnapshot {
            per_kind,
            stages,
            batches,
            async_submits,
            scratch_reuses,
            parallel_shards,
            sharded_requests,
            delta_hits,
            catalog,
            cache,
        },
        server,
    })
}

fn decode_response(r: &mut ByteReader<'_>) -> Result<Response, DecodeError> {
    Ok(match r.take_u8("response tag")? {
        RESP_TOPK => {
            let count = r.take_count(16, "top-k count")?;
            Response::TopK(
                (0..count)
                    .map(|_| {
                        let id = r.take_u64("point id")?;
                        let id = u32::try_from(id).map_err(|_| DecodeError::new("point id"))?;
                        Ok((id, r.take_f64("score")?))
                    })
                    .collect::<Result<_, DecodeError>>()?,
            )
        }
        RESP_MONO_EXACT => {
            let count = r.take_count(16, "interval count")?;
            Response::MonoExact(
                (0..count)
                    .map(|_| Ok((r.take_f64("lo")?, r.take_f64("hi")?)))
                    .collect::<Result<_, DecodeError>>()?,
            )
        }
        RESP_MONO_SAMPLED => Response::MonoSampled {
            volume_fraction: r.take_f64("volume fraction")?,
            samples: r.take_usize("samples")?,
        },
        RESP_RTOPK_BI => {
            let count = r.take_count(8, "member count")?;
            Response::ReverseTopKBi(
                (0..count)
                    .map(|_| r.take_usize("member index"))
                    .collect::<Result<_, _>>()?,
            )
        }
        RESP_PLAN => Response::Plan(decode_plan(r)?),
        RESP_STATS => Response::Stats(Box::new(decode_stats(r)?)),
        RESP_MUTATED => Response::Mutated {
            live_len: r.take_usize("live length")?,
        },
        RESP_COMPACTED => Response::Compacted {
            ran: r.take_u8("compacted flag")? != 0,
        },
        RESP_ERROR => Response::Error(r.take_str("error message")?),
        _ => return Err(DecodeError::new("unknown response tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqrtq_engine::{Tolerances, WeightSet, WhyNotOptions};

    fn all_requests() -> Vec<Request> {
        vec![
            Request::TopK {
                dataset: "products".into(),
                weight: vec![0.3, 0.7],
                k: 5,
            },
            Request::ReverseTopKMono {
                dataset: "p".into(),
                q: vec![4.0, 4.0],
                k: 3,
                samples: 500,
                seed: 42,
            },
            Request::ReverseTopKBi {
                dataset: "p".into(),
                weights: WeightSet::Named("customers".into()),
                q: vec![4.0, 4.0],
                k: 3,
            },
            Request::ReverseTopKBi {
                dataset: "p".into(),
                weights: WeightSet::Inline(vec![vec![0.1, 0.9], vec![0.5, 0.5]]),
                q: vec![4.0, 4.0],
                k: 3,
            },
            Request::WhyNot {
                dataset: "p".into(),
                q: vec![4.0, 4.0],
                k: 3,
                why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
                options: WhyNotOptions::default(),
            },
            Request::WhyNot {
                dataset: "p".into(),
                q: vec![4.0, 4.0],
                k: 3,
                why_not: vec![vec![0.1, 0.9]],
                options: WhyNotOptions {
                    tol: Tolerances::new(0.3, 0.7, 0.9, 0.1),
                    strategies: vec![StrategyKind::Mwk, StrategyKind::Mqp],
                    culprit_limit: 0,
                    sample_size: 64,
                    query_samples: 16,
                    seed: u64::MAX,
                    exact_2d: false,
                },
            },
            Request::Append {
                dataset: "p".into(),
                points: vec![1.0, 2.0, 3.0, 4.0],
            },
            Request::Delete {
                dataset: "p".into(),
                ids: vec![0, 7, u32::MAX],
            },
            Request::Stats,
            Request::Register {
                dataset: "products".into(),
                dim: 2,
                coords: vec![2.0, 1.0, 6.0, 3.0],
            },
            Request::RegisterWeights {
                name: "customers".into(),
                weights: vec![vec![0.1, 0.9], vec![0.5, 0.5]],
            },
            Request::Compact {
                dataset: "products".into(),
            },
        ]
    }

    /// How many of [`all_requests`] the submit-bytes pin covers: the
    /// kinds that existed when it was taken.
    const PINNED_REQUESTS: usize = 9;

    fn sample_stats(server: Option<ServerCounters>) -> StatsSnapshot {
        StatsSnapshot {
            metrics: MetricsSnapshot {
                per_kind: vec![
                    KindSnapshot {
                        kind: RequestKind::TopK,
                        requests: 12,
                        errors: 1,
                        latency: HistogramSnapshot {
                            count: 3,
                            sum: 5_000,
                            max: 3_000,
                            buckets: vec![(160, 2), (197, 1)],
                        },
                        index_nodes: 44,
                        cache_hits: 3,
                    },
                    KindSnapshot {
                        kind: RequestKind::WhyNot,
                        requests: 2,
                        errors: 0,
                        latency: HistogramSnapshot {
                            count: 2,
                            sum: 80_000,
                            max: 65_000,
                            buckets: vec![(320, 2)],
                        },
                        index_nodes: 900,
                        cache_hits: 0,
                    },
                ],
                stages: vec![
                    StageSnapshot {
                        stage: Stage::QueueWait,
                        latency: HistogramSnapshot {
                            count: 14,
                            sum: 1_400,
                            max: 600,
                            buckets: vec![(31, 10), (40, 4)],
                        },
                    },
                    StageSnapshot {
                        stage: Stage::Execute,
                        latency: HistogramSnapshot {
                            count: 14,
                            sum: 84_000,
                            max: 65_000,
                            buckets: vec![(256, 13), (320, 1)],
                        },
                    },
                ],
                batches: 2,
                async_submits: 5,
                scratch_reuses: 9,
                parallel_shards: 4,
                sharded_requests: 1,
                delta_hits: 2,
                catalog: CatalogStats {
                    index_builds: 1,
                    rebuilds_avoided: 2,
                    compactions: 1,
                    compactions_abandoned: 0,
                    mask_builds: 1,
                    wal_appends: 57,
                    snapshot_writes: 3,
                    recoveries: 1,
                    wal_replayed: 12,
                },
                cache: CacheStats {
                    hits: 3,
                    misses: 11,
                    len: 4,
                    capacity: 256,
                },
            },
            server,
        }
    }

    fn sample_counters() -> ServerCounters {
        ServerCounters {
            connections_accepted: 2,
            connections_open: 1,
            frames_in: 40,
            frames_out: 39,
            busy_rejections: 1,
            protocol_errors: 1,
            in_flight: 2,
            read_syscalls: 11,
            write_syscalls: 9,
        }
    }

    fn sample_plan() -> Plan {
        Plan {
            explanations: vec![
                PlanExplanation {
                    rank: 4,
                    culprits: vec![(0, 1.1), (1, 3.3), (3, 3.6)],
                    truncated: false,
                },
                PlanExplanation {
                    rank: 4,
                    culprits: vec![(2, 1.8)],
                    truncated: true,
                },
            ],
            k_max: 4,
            steps: vec![
                PlanStep {
                    strategy: StrategyKind::Mqwk,
                    refinement: Refinement {
                        q_prime: Some(vec![3.8, 3.8]),
                        why_not: Some(vec![vec![0.135, 0.865]]),
                        k: Some(3),
                        penalty: 0.06,
                    },
                    breakdown: PenaltyBreakdown {
                        combined: 0.06,
                        query_term: 0.05,
                        k_term: 0.0,
                        weight_term: 0.1,
                    },
                    verified: true,
                    exact: false,
                    sample_size: 200,
                    query_samples: 200,
                },
                PlanStep {
                    strategy: StrategyKind::Mwk,
                    refinement: Refinement {
                        q_prime: None,
                        why_not: Some(vec![vec![1.0 / 6.0, 5.0 / 6.0]]),
                        k: Some(3),
                        penalty: 0.10833,
                    },
                    breakdown: PenaltyBreakdown {
                        combined: 0.10833,
                        query_term: 0.0,
                        k_term: 0.0,
                        weight_term: 0.21666,
                    },
                    verified: true,
                    exact: true,
                    sample_size: 0,
                    query_samples: 0,
                },
                PlanStep {
                    strategy: StrategyKind::Mqp,
                    refinement: Refinement {
                        q_prime: Some(vec![3.375, 3.625]),
                        why_not: None,
                        k: None,
                        penalty: 0.125,
                    },
                    breakdown: PenaltyBreakdown {
                        combined: 0.125,
                        query_term: 0.125,
                        k_term: 0.0,
                        weight_term: 0.0,
                    },
                    verified: true,
                    exact: false,
                    sample_size: 0,
                    query_samples: 0,
                },
            ],
        }
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::TopK(vec![(0, 1.5), (7, f64::MIN_POSITIVE)]),
            Response::MonoExact(vec![(0.0, 0.25), (0.75, 1.0)]),
            Response::MonoSampled {
                volume_fraction: 0.125,
                samples: 1000,
            },
            Response::ReverseTopKBi(vec![1, 2, 99]),
            Response::Plan(sample_plan()),
            Response::Stats(Box::new(sample_stats(None))),
            Response::Stats(Box::new(sample_stats(Some(sample_counters())))),
            Response::Mutated { live_len: 8 },
            Response::Compacted { ran: true },
            Response::Compacted { ran: false },
            Response::Error("unknown dataset `nope`".into()),
        ]
    }

    #[test]
    fn every_client_frame_roundtrips() {
        let mut frames: Vec<ClientFrame> = all_requests()
            .into_iter()
            .map(ClientFrame::Submit)
            .collect();
        frames.push(ClientFrame::Ping);
        for (i, frame) in frames.into_iter().enumerate() {
            let id = 1000 + i as u64;
            let payload = frame.encode(id);
            let (got_id, got) = ClientFrame::decode(&payload).expect("roundtrip");
            assert_eq!(got_id, id);
            assert_eq!(got, frame);
        }
    }

    #[test]
    fn the_submit_bytes_of_every_request_kind_are_pinned() {
        // A change to either CRC is a wire-format change: every deployed
        // client would send bytes the server no longer reads. The catalog
        // writes (tags 10–12) are pinned apart, so the first pin covers
        // exactly the bytes it always has.
        let requests = all_requests();
        let bytes = |requests: &[Request], first_id: usize| -> Vec<u8> {
            requests
                .iter()
                .enumerate()
                .flat_map(|(i, r)| ClientFrame::encode_submit((first_id + i) as u64, r))
                .collect()
        };
        let pinned = bytes(&requests[..PINNED_REQUESTS], 1);
        assert_eq!(pinned.len(), 763);
        assert_eq!(wqrtq_codec::crc32::checksum(&pinned), 0x1f55_94dd);
        let catalog_writes = bytes(&requests[PINNED_REQUESTS..], PINNED_REQUESTS + 1);
        assert_eq!(catalog_writes.len(), 183);
        assert_eq!(wqrtq_codec::crc32::checksum(&catalog_writes), 0xb5e9_c115);
    }

    #[test]
    fn the_committed_wire_corpus_decodes_to_the_values_written_here() {
        // `tests/format/v1/` holds the pinned submit stream, the catalog
        // writes and one `Stats` reply frame with server counters as
        // committed bytes. Each file's length and CRC-32 are pinned, so
        // none is rewritten in passing, and each decodes through the
        // server's decoders to values this test writes out.
        fn pinned(bytes: &'static [u8], len: usize, crc: u32) -> &'static [u8] {
            let crc_of = wqrtq_codec::crc32::checksum(bytes);
            assert_eq!((bytes.len(), crc_of), (len, crc), "a fixture moved");
            bytes
        }
        let submits = include_bytes!("../../../tests/format/v1/submit_stream.bin");
        let writes = include_bytes!("../../../tests/format/v1/catalog_writes.bin");
        let reply = include_bytes!("../../../tests/format/v1/stats_reply.bin");
        let stream = [
            pinned(submits, 763, 0x1f55_94dd),
            pinned(writes, 183, 0xb5e9_c115),
        ]
        .concat();
        // Each submit payload's length, in stream order; ids run from 1.
        let lengths = [58, 67, 69, 108, 183, 158, 59, 51, 10, 74, 83, 26];
        let mut at = 0;
        for (id, (request, len)) in (1..).zip(all_requests().into_iter().zip(lengths)) {
            let decoded = ClientFrame::decode(&stream[at..at + len]).expect("a submit decodes");
            assert_eq!(decoded, (id, ClientFrame::Submit(request)));
            at += len;
        }
        assert_eq!(at, stream.len());
        let stats = sample_stats(Some(sample_counters()));
        let want = ServerFrame::Reply(Response::Stats(Box::new(stats)));
        let decoded =
            ServerFrame::decode(pinned(reply, 575, 0xcacd_f6a9)).expect("a reply decodes");
        assert_eq!(decoded, (1, want));
    }

    #[test]
    fn every_server_frame_roundtrips_bit_identically() {
        let mut frames: Vec<ServerFrame> = all_responses()
            .into_iter()
            .map(ServerFrame::Reply)
            .collect();
        frames.extend([
            ServerFrame::Pong,
            ServerFrame::Busy,
            ServerFrame::ProtocolError("bad magic".into()),
            ServerFrame::Hello {
                version: crate::frame::PROTOCOL_VERSION,
                max_frame_len: crate::frame::DEFAULT_MAX_FRAME_LEN as u64,
            },
            ServerFrame::ReplyPart(PlanDelta::Explained {
                index: 1,
                explanation: PlanExplanation {
                    rank: 4,
                    culprits: vec![(2, 1.8), (0, 1.9)],
                    truncated: false,
                },
            }),
            ServerFrame::ReplyPart(PlanDelta::Step(sample_plan().steps[0].clone())),
        ]);
        for (i, frame) in frames.into_iter().enumerate() {
            let id = 7_000_000 + i as u64;
            let payload = frame.encode(id);
            let (got_id, got) = ServerFrame::decode(&payload).expect("roundtrip");
            assert_eq!(got_id, id);
            assert_eq!(got, frame);
            // Re-encoding the decoded value is byte-identical: the codec
            // is canonical, so equality extends to the bit level.
            assert_eq!(got.encode(id), payload);
        }
    }

    #[test]
    fn every_stage_tag_roundtrips_in_a_stats_reply() {
        // The stage list is length-prefixed, so stages appended after
        // `Serialize` (the build stages) travel without a version bump.
        let mut stats = sample_stats(None);
        stats.metrics.stages = Stage::ALL
            .into_iter()
            .enumerate()
            .map(|(i, stage)| StageSnapshot {
                stage,
                latency: HistogramSnapshot {
                    count: i as u64 + 1,
                    sum: 1_000 * (i as u64 + 1),
                    max: 1_000,
                    buckets: vec![(100 + i as u16, i as u64 + 1)],
                },
            })
            .collect();
        assert!(
            stats.metrics.stages.len() >= 10,
            "the build stages ride along"
        );
        let reply = ServerFrame::Reply(Response::Stats(Box::new(stats)));
        let payload = reply.encode(11);
        let (id, got) = ServerFrame::decode(&payload).expect("roundtrip");
        assert_eq!((id, &got), (11, &reply));
        assert_eq!(got.encode(11), payload);
    }

    #[test]
    fn a_stage_tag_this_build_does_not_know_is_skipped() {
        let mut stats = sample_stats(None);
        stats.metrics.per_kind.clear();
        let known = stats.metrics.stages.clone();
        stats.metrics.stages.insert(0, known[0].clone());
        let mut w = ByteWriter::new();
        encode_stats(&mut w, &stats);
        let mut bytes = w.into_vec();
        // The first stage's tag follows the two counts.
        let mut counts = ByteWriter::new();
        counts.put_usize(0);
        counts.put_usize(0);
        bytes[counts.into_vec().len()] = 0xEE;
        let got = decode_stats(&mut ByteReader::new(&bytes)).expect("decodes");
        assert_eq!(got.metrics.stages, known);
        stats.metrics.stages = known;
        assert_eq!(got, stats);
    }

    #[test]
    fn a_kind_tag_this_build_does_not_know_is_skipped() {
        // A server with request kinds this build lacks (as one with tags
        // 10–12 was to every client built before them) stays readable.
        let mut stats = sample_stats(None);
        let known = stats.metrics.per_kind.clone();
        stats.metrics.per_kind.insert(0, known[1].clone());
        let mut w = ByteWriter::new();
        encode_stats(&mut w, &stats);
        let mut bytes = w.into_vec();
        // The first kind's tag follows the kind count.
        let mut count = ByteWriter::new();
        count.put_usize(0);
        bytes[count.into_vec().len()] = 0xEE;
        let got = decode_stats(&mut ByteReader::new(&bytes)).expect("decodes");
        stats.metrics.per_kind = known;
        assert_eq!(got, stats);
    }

    #[test]
    fn a_decoder_built_before_the_recovery_stages_skips_their_rows() {
        // Tags 14–16 reach a decoder that stops at `Compaction` as tags
        // it does not know. This build stands in for that decoder by
        // reading them as 17–19, the first tags past its own.
        let latency = HistogramSnapshot {
            count: 1,
            sum: 10,
            max: 10,
            buckets: vec![(3, 1)],
        };
        let mut stats = sample_stats(None);
        stats.metrics.per_kind.clear();
        stats.metrics.stages = Stage::ALL
            .into_iter()
            .map(|stage| StageSnapshot {
                stage,
                latency: latency.clone(),
            })
            .collect();
        let mut w = ByteWriter::new();
        encode_stats(&mut w, &stats);
        let mut bytes = w.into_vec();
        let mut row = ByteWriter::new();
        row.put_u8(0);
        encode_histogram(&mut row, &latency);
        let row_len = row.into_vec().len();
        let mut counts = ByteWriter::new();
        counts.put_usize(0);
        counts.put_usize(0);
        let first_tag = counts.into_vec().len();
        let newer = [Stage::Recovery, Stage::Replay, Stage::CatalogWrite];
        for stage in newer {
            let at = first_tag + stage.index() * row_len;
            assert_eq!(bytes[at], stage.tag());
            bytes[at] += newer.len() as u8;
        }
        let got = decode_stats(&mut ByteReader::new(&bytes)).expect("decodes");
        stats
            .metrics
            .stages
            .retain(|row| !newer.contains(&row.stage));
        assert_eq!(stats.metrics.stages.len(), 14);
        assert_eq!(got, stats);
    }

    #[test]
    fn the_reserved_stats_slot_keeps_its_bytes_and_decodes_to_nothing() {
        let reply = ServerFrame::Reply(Response::Stats(Box::new(sample_stats(None))));
        let payload = reply.encode(3);
        // The layout is frozen: each slot still occupies its 8 bytes.
        assert_eq!(payload.len(), 503);
        // After the two slots: four durability counters, two cache
        // counters, cache len and capacity (8 bytes each), the server
        // flag byte.
        let slots = payload.len() - 1 - 8 * 8 - 16;
        assert_eq!(payload[slots - 8..slots], 1u64.to_le_bytes(), "mask builds");
        assert_eq!(payload[slots..slots + 16], [0; 16], "written as 0");
        assert_eq!(
            payload[slots + 16..slots + 24],
            57u64.to_le_bytes(),
            "wal appends"
        );
        // Whatever the slots hold is dropped: the frame decodes to the
        // same reply and re-encodes with the slots back at 0.
        let mut dirty = payload.clone();
        dirty[slots..slots + 8].copy_from_slice(&4321u64.to_le_bytes());
        dirty[slots + 8..slots + 16].copy_from_slice(&17u64.to_le_bytes());
        let (_, decoded) = ServerFrame::decode(&dirty).expect("decodes");
        assert_eq!(decoded, reply);
        assert_eq!(decoded.encode(3), payload);
    }

    #[test]
    fn wire_tags_conform_to_the_engine_vocabulary_table() {
        use wqrtq_engine::REQUEST_KIND_TABLE;
        // Tags are unique across the table…
        let mut tags: Vec<u8> = REQUEST_KIND_TABLE.iter().map(|(_, _, t)| *t).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), REQUEST_KIND_TABLE.len(), "wire tags collide");

        // …the representative corpus covers *every* kind (a new Request
        // variant without a corpus entry fails here)…
        let requests = all_requests();
        for (kind, name, tag) in REQUEST_KIND_TABLE {
            let covering: Vec<&Request> = requests.iter().filter(|r| r.kind() == kind).collect();
            assert!(
                !covering.is_empty(),
                "no corpus request for kind {name} — extend all_requests()"
            );
            // …and every encoded frame's body tag byte is exactly the
            // table's tag for its kind: the codec cannot drift from the
            // engine vocabulary without this assertion failing.
            for request in covering {
                let payload = ClientFrame::Submit((*request).clone()).encode(1);
                // Payload layout: u64 id + u8 opcode + u8 request tag.
                assert_eq!(
                    payload[9], tag,
                    "kind {name} encoded with tag {} instead of {tag}",
                    payload[9]
                );
                assert_eq!(wqrtq_engine::RequestKind::from_wire_tag(tag), Some(kind));
            }
        }

        // The surviving tags are frozen at these numbers (the benchmark
        // pre-encodes frames against them)…
        let table: Vec<(&str, u8)> = REQUEST_KIND_TABLE.iter().map(|r| (r.1, r.2)).collect();
        assert_eq!(
            table,
            [
                ("topk", 1),
                ("rtopk-mono", 2),
                ("rtopk-bi", 3),
                ("whynot-plan", 8),
                ("append", 6),
                ("delete", 7),
                ("stats", 9),
                ("register", 10),
                ("register-weights", 11),
                ("compact", 12),
            ]
        );
        let mut response_tags: Vec<u8> = all_responses()
            .iter()
            // Payload layout: u64 id + u8 opcode + u8 response tag.
            .map(|r| ServerFrame::Reply(r.clone()).encode(1)[9])
            .collect();
        response_tags.sort_unstable();
        response_tags.dedup();
        assert_eq!(response_tags, [1, 2, 3, 4, 7, 8, 9, 10, 11]);
        assert_eq!(
            [RESP_TOPK, RESP_MONO_EXACT, RESP_MONO_SAMPLED, RESP_RTOPK_BI],
            [1, 2, 3, 4]
        );
        assert_eq!(
            [
                RESP_MUTATED,
                RESP_ERROR,
                RESP_PLAN,
                RESP_STATS,
                RESP_COMPACTED
            ],
            [7, 8, 9, 10, 11]
        );

        // …and the retired ones (requests 4 and 5, responses 5 and 6)
        // stay reserved: nothing above uses them, and a frame carrying
        // one is a typed decode error, not a misparse as a newer kind.
        for retired in [4u8, 5] {
            let mut payload = ClientFrame::Submit(requests[0].clone()).encode(1);
            payload[9] = retired;
            assert!(ClientFrame::decode(&payload).is_err());
        }
        for retired in [5u8, 6] {
            let mut payload = ServerFrame::Reply(Response::TopK(Vec::new())).encode(1);
            payload[9] = retired;
            assert!(ServerFrame::decode(&payload).is_err());
        }
        // The retired control opcodes (client 0x02–0x04, server
        // 0x82–0x83) decode as nothing: a frame carrying one is refused.
        for (retired, body) in [
            (0x02u8, &[][..]),
            (0x03, &[]),
            (0x04, &[]),
            (0x82, &[]),
            (0x83, &[1]),
        ] {
            let mut w = ByteWriter::new();
            w.put_u64(1);
            w.put_u8(retired);
            let mut payload = w.into_vec();
            payload.extend_from_slice(body);
            assert!(ClientFrame::decode(&payload).is_err(), "{retired:#x}");
            assert!(ServerFrame::decode(&payload).is_err(), "{retired:#x}");
        }
    }

    #[test]
    fn encode_submit_matches_the_owned_encoding() {
        for request in all_requests() {
            assert_eq!(
                ClientFrame::encode_submit(42, &request),
                ClientFrame::Submit(request).encode(42)
            );
        }
    }

    #[test]
    fn encode_frame_is_the_length_prefixed_payload() {
        let frames = all_responses()
            .into_iter()
            .map(ServerFrame::Reply)
            .chain([ServerFrame::Busy, ServerFrame::ProtocolError("x".into())]);
        for frame in frames {
            let mut wire = Vec::new();
            crate::frame::write_frame(&mut wire, &frame.encode(9)).unwrap();
            assert_eq!(frame.encode_frame(9), wire);
        }
    }

    #[test]
    fn truncated_prefixes_never_panic_and_always_error() {
        let payloads: Vec<Vec<u8>> = all_requests()
            .into_iter()
            .map(|r| ClientFrame::Submit(r).encode(1))
            .chain(
                all_responses()
                    .into_iter()
                    .map(|r| ServerFrame::Reply(r).encode(1)),
            )
            .collect();
        for payload in payloads {
            for cut in 0..payload.len() {
                // Both decoders must reject every strict prefix cleanly.
                assert!(ClientFrame::decode(&payload[..cut]).is_err());
                assert!(ServerFrame::decode(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn unknown_opcodes_and_trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u8(0x7f);
        assert!(ClientFrame::decode(&w.into_vec()).is_err());

        let mut payload = ClientFrame::Ping.encode(1);
        payload.push(0);
        assert!(ClientFrame::decode(&payload).is_err());

        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u8(0x02);
        assert!(ServerFrame::decode(&w.into_vec()).is_err());
    }

    /// One constructed value per [`EngineError`] variant, in the
    /// [`ENGINE_ERROR_VARIANTS`] order.
    fn all_engine_errors() -> Vec<wqrtq_engine::EngineError> {
        use wqrtq_engine::EngineError;
        vec![
            EngineError::UnknownDataset("nope".into()),
            EngineError::UnknownWeightSet("nobody".into()),
            EngineError::DimensionMismatch {
                expected: 3,
                got: 2,
            },
            EngineError::ZeroDimension,
            EngineError::RaggedCoordinates { dim: 3, len: 7 },
            EngineError::WeightSetExists("customers".into()),
            EngineError::NonFiniteInput { field: "q" },
            EngineError::InvalidWeight { field: "weight" },
            EngineError::InvalidTolerances {
                reason: "alpha + beta must equal 1",
            },
            EngineError::EmptyStrategySet,
            EngineError::SampleBudgetTooLarge {
                field: "samples",
                max: 1 << 20,
            },
            EngineError::UnknownPointId { id: 42 },
            EngineError::DatasetFull,
            EngineError::PoolShutdown,
            EngineError::Durability {
                reason: "wal append failed".into(),
            },
        ]
    }

    /// The conformance test behind [`ENGINE_ERROR_VARIANTS`]: every
    /// typed engine error, rendered the way the serving loop renders it,
    /// survives the wire as a decodable error frame with its message
    /// intact. Constructing each variant here also pins the table to the
    /// enum — adding a variant without extending both trips the `drift`
    /// lint and this test's length assertion.
    #[test]
    fn every_engine_error_round_trips_as_an_error_frame() {
        let errors = all_engine_errors();
        assert_eq!(
            errors.len(),
            ENGINE_ERROR_VARIANTS.len(),
            "conformance corpus must cover every listed variant"
        );
        for (err, variant) in errors.iter().zip(ENGINE_ERROR_VARIANTS) {
            let debug = format!("{err:?}");
            assert!(
                debug.starts_with(variant),
                "corpus order drifted: expected `{variant}`, got `{debug}`"
            );
            let msg = err.to_string();
            assert!(!msg.is_empty(), "{variant} renders an empty message");
            let payload = ServerFrame::Reply(Response::Error(msg.clone())).encode(9);
            let (id, frame) = ServerFrame::decode(&payload).expect("error frame decodes");
            assert_eq!(id, 9);
            assert_eq!(frame, ServerFrame::Reply(Response::Error(msg)));
        }
    }
}
