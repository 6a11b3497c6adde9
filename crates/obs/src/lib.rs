//! Observability primitives for the serving stack: lock-free
//! log-linear-bucket latency histograms and span-based request tracing.
//!
//! The crate is deliberately dependency-free (std only) and knows
//! nothing about requests, engines or wire protocols — it provides the
//! two mechanisms the upper layers thread through every stage of the
//! hot path:
//!
//! * [`Histogram`] — a fixed-size array of `AtomicU64` buckets indexed
//!   by a log-linear scheme ([`RELATIVE_ERROR_BOUND`] bounded relative
//!   error). Recording is one `fetch_add` plus two bookkeeping atomics;
//!   snapshots are mergeable and answer p50/p90/p99/max.
//! * [`Tracer`] — per-worker ring buffers of stage [`SpanRecord`]s with
//!   a drainable [`TraceSnapshot`] and a bounded slow-request log
//!   ([`SlowRequest`]). Recording never blocks: a contended ring shard
//!   drops the span and counts it instead of waiting.
//!
//! The pipeline stage taxonomy lives here too ([`Stage`]) so the
//! engine, the server and `benchmark/` agree on the decomposition.

#![warn(missing_docs)]

mod histogram;
mod trace;

pub use histogram::{Histogram, HistogramSnapshot, RELATIVE_ERROR_BOUND};
pub use trace::{SlowRequest, SpanRecord, TraceSnapshot, Tracer};

/// A stage of the request pipeline, shared vocabulary between the
/// engine's stage histograms and the tracer's spans. The build stages
/// (from [`Stage::IndexBuild`] on) are per-dataset work a request may
/// trigger but does not own, and the storage stages (from
/// [`Stage::WalAppend`] on) are the durability layer's and the catalog
/// lock's: each build or storage operation records one histogram sample
/// and no span.
///
/// The discriminants are the wire encoding of the stage (the `Stats`
/// response carries per-stage histograms) — append-only, like request
/// kind tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Server-side admission: frame decode + admission-gauge acquire.
    Admission = 0,
    /// Queue wait: `submit` to worker pickup.
    QueueWait = 1,
    /// Result-cache lookup (hit or miss).
    CacheLookup = 2,
    /// Index traversal / rank-kernel execution inside `execute`.
    IndexProbe = 3,
    /// One why-not advisor stage (validate, explain, or one strategy).
    AdvisorStep = 4,
    /// The whole `execute` body, catalog view to response.
    Execute = 5,
    /// Server-side reply serialize + socket write/flush.
    Serialize = 6,
    /// One base's bulk-loaded index and column store.
    IndexBuild = 7,
    /// Retired: one base's k-dominance mask, which is no longer built.
    /// The tag is never reused or renumbered; no sample is recorded.
    MaskBuild = 8,
    /// One named population's score table over one base.
    TableBuild = 9,
    /// One mutation record's WAL write, not yet durable (every attempt,
    /// as with the storage stages below).
    WalAppend = 10,
    /// One WAL fsync, when the fsync policy asks for one.
    Fsync = 11,
    /// One snapshot installed and the WAL reset.
    Checkpoint = 12,
    /// One overlay merge run to its end, installed or abandoned.
    Compaction = 13,
    /// Opening a data dir at startup: snapshot decode, WAL scan and
    /// torn-tail truncation, one sample per durable engine built.
    Recovery = 14,
    /// Installing the recovered snapshot and replaying every WAL record
    /// after it, one sample per durable engine built.
    Replay = 15,
    /// One hold of the catalog write lock (registration, append,
    /// delete, a compaction's install, a checkpoint), lock wait
    /// excluded.
    CatalogWrite = 16,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 17] = [
        Stage::Admission,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::IndexProbe,
        Stage::AdvisorStep,
        Stage::Execute,
        Stage::Serialize,
        Stage::IndexBuild,
        Stage::MaskBuild,
        Stage::TableBuild,
        Stage::WalAppend,
        Stage::Fsync,
        Stage::Checkpoint,
        Stage::Compaction,
        Stage::Recovery,
        Stage::Replay,
        Stage::CatalogWrite,
    ];

    /// Number of stages (array-of-histograms length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (JSON keys, display tables).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::IndexProbe => "index_probe",
            Stage::AdvisorStep => "advisor_step",
            Stage::Execute => "execute",
            Stage::Serialize => "serialize",
            Stage::IndexBuild => "index_build",
            Stage::MaskBuild => "mask_build",
            Stage::TableBuild => "table_build",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Checkpoint => "checkpoint",
            Stage::Compaction => "compaction",
            Stage::Recovery => "recovery",
            Stage::Replay => "replay",
            Stage::CatalogWrite => "catalog_write",
        }
    }

    /// Position in [`Stage::ALL`] (equals the discriminant).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The discriminant, for wire encoding (the enum is `repr(u8)`).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Stage::tag`], for wire decoding.
    pub fn from_tag(tag: u8) -> Option<Stage> {
        Stage::ALL.get(tag as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tags_roundtrip_and_stay_dense() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::from_tag(stage.tag()), Some(stage));
            assert_eq!(usize::from(stage.tag()), i);
        }
        assert_eq!(Stage::from_tag(Stage::COUNT as u8), None);
        // Appended, never renumbered: the wire carries these tags.
        assert_eq!(Stage::Serialize as u8, 6);
        assert_eq!(Stage::IndexBuild as u8, 7);
        assert_eq!(Stage::MaskBuild as u8, 8);
        assert_eq!(Stage::TableBuild as u8, 9);
        assert_eq!(Stage::WalAppend as u8, 10);
        assert_eq!(Stage::Fsync as u8, 11);
        assert_eq!(Stage::Checkpoint as u8, 12);
        assert_eq!(Stage::Compaction as u8, 13);
        assert_eq!(Stage::Recovery as u8, 14);
        assert_eq!(Stage::Replay as u8, 15);
        assert_eq!(Stage::CatalogWrite as u8, 16);
        assert_eq!(Stage::COUNT, 17);
    }
}
