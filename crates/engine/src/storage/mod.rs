//! Durability: write-ahead log + atomic snapshots + crash recovery.
//!
//! The catalog's delta-overlay layout (bulk base, append-in-place delta
//! memtable, id-sorted tombstones) is already LSM-shaped; this module
//! persists it as the classic pair:
//!
//! * a **WAL** of mutation [`Request`]s (see [`record`]) appended inside
//!   the catalog's write lock, so log order *is* apply order;
//! * a **snapshot** of the full catalog (see [`snapshot`]) written
//!   atomically whenever a compaction installs (and on explicit
//!   [`crate::Engine::checkpoint`] calls), after which the WAL resets.
//!
//! **Recovery** ([`Durability::open`]) loads the snapshot, truncates any
//! torn WAL tail to the longest valid prefix, and hands back the records
//! beyond the snapshot's LSN; the engine replays them through
//! `Catalog::apply`, the one catalog write that logged them, so the
//! recovered catalog answers every request **bit-identically** to the
//! never-restarted one and resumes the exact epoch triple (the snapshot
//! persists the monotone `appends`/`deletes` counters, not just the live
//! rows).
//!
//! ## Failure taxonomy
//!
//! *Torn-tail* damage — short header, bad record magic, impossible
//! length, short payload, CRC mismatch — is the expected signature of a
//! crash mid-append: recovery silently keeps the longest valid prefix
//! (nothing past it was ever acknowledged) and truncates. *Structural*
//! damage — a corrupt snapshot, a CRC-valid record that does not decode,
//! a non-monotonic LSN — cannot be produced by a crash under this
//! design, so it surfaces as a typed [`StorageError`], never a panic and
//! never silent data loss.
//!
//! A *failed append* — a short write, ENOSPC, a failed fsync — is cut
//! back: [`Durability::log`] truncates the log to the length it had
//! before the record, so a refused mutation neither returns on restart
//! nor hides the records logged after it behind torn bytes. When that
//! truncation fails too, the log stops: every later append is
//! [`StorageError::WalStopped`], and nothing is acknowledged behind
//! bytes recovery could not read past.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades the crash window against append latency:
//! `Always` fsyncs every record before the mutation is acknowledged,
//! `EveryN(n)` amortises one fsync over `n` records, `Never` leaves
//! flushing to the OS — but even then, dropping the engine syncs the log
//! durably, so a *graceful* restart loses nothing under any policy.

mod backend;
pub mod record;
pub mod snapshot;

pub use backend::{
    DiskBackend, MemBackend, StorageBackend, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE, WAL_FILE,
};
pub use record::{WalReadout, MAX_WAL_RECORD_LEN, RECORD_MAGIC, WAL_TAGS};
pub use snapshot::{CatalogState, DatasetState, WeightSetState, SNAPSHOT_MAGIC};

use crate::metrics::StageHistograms;
use crate::request::Request;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use wqrtq_obs::Stage;

/// When WAL appends are forced to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync every record before acknowledging the mutation — the
    /// no-acknowledged-loss default.
    #[default]
    Always,
    /// Fsync once every `n` records (group commit): a crash can lose at
    /// most the last `n − 1` acknowledged mutations.
    EveryN(u64),
    /// Never fsync on the append path; the OS flushes when it pleases.
    /// A graceful shutdown still syncs (the engine syncs the log on
    /// drop), so this only widens the *crash* window.
    Never,
}

/// Durability-layer failures. Every variant is a typed, recoverable
/// error — corruption and IO trouble never panic the engine.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying backend (filesystem) failed.
    Io(io::Error),
    /// The snapshot image is damaged (bad magic, version, CRC, or
    /// body). Snapshots install atomically, so this is real corruption,
    /// not a torn write.
    SnapshotCorrupt {
        /// What the decoder rejected.
        reason: &'static str,
    },
    /// A WAL record passed its CRC but did not decode — it was written
    /// malformed, which replay must not paper over.
    WalCorrupt {
        /// What the decoder rejected.
        reason: String,
    },
    /// WAL record LSNs must be strictly increasing; a duplicate or
    /// regression means the log was spliced or doubly written.
    NonMonotonicLsn {
        /// The previous record's LSN.
        prev: u64,
        /// The offending record's LSN.
        got: u64,
    },
    /// A mutation would encode past [`MAX_WAL_RECORD_LEN`].
    OversizedRecord {
        /// The record's payload length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The request is no mutation, so the log has no record for it.
    NotAMutation {
        /// The request kind's display name.
        kind: &'static str,
    },
    /// A failed append could not be cut back, so the log may end in
    /// bytes recovery stops at; it takes no more records until the data
    /// directory is reopened.
    WalStopped,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io error: {e}"),
            StorageError::SnapshotCorrupt { reason } => {
                write!(f, "snapshot corrupt: {reason}")
            }
            StorageError::WalCorrupt { reason } => write!(f, "wal corrupt: {reason}"),
            StorageError::NonMonotonicLsn { prev, got } => {
                write!(f, "wal lsn not monotonic: {got} after {prev}")
            }
            StorageError::OversizedRecord { len, max } => {
                write!(f, "wal record of {len} bytes exceeds the {max}-byte cap")
            }
            StorageError::NotAMutation { kind } => {
                write!(f, "a {kind} request is no mutation and has no wal record")
            }
            StorageError::WalStopped => write!(
                f,
                "wal stopped: a failed append could not be cut back; reopen to recover"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Monotone durability counters, folded into
/// [`crate::CatalogStats`] when a durability layer is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (replay excluded).
    pub wal_appends: u64,
    /// Snapshots installed.
    pub snapshot_writes: u64,
    /// Recoveries performed (1 after resuming pre-existing durable
    /// state, 0 for a fresh data directory).
    pub recoveries: u64,
    /// WAL records replayed by the last recovery.
    pub wal_replayed: u64,
}

/// The durable state [`Durability::open`] hands back for replay.
#[derive(Debug)]
pub struct Recovered {
    /// The durability layer, positioned to append after the last valid
    /// record. Attach it to the catalog only *after* replaying, so the
    /// replayed mutations are not logged twice.
    pub durability: Durability,
    /// The snapshot image, if one was ever installed.
    pub state: Option<CatalogState>,
    /// WAL records beyond the snapshot, in log order, each with its LSN,
    /// to replay through the catalog's one write entry point.
    pub records: Vec<(u64, Request)>,
}

/// One engine's durability layer: an LSN allocator over a
/// [`StorageBackend`], logging mutations and installing snapshots.
#[derive(Debug)]
pub struct Durability {
    backend: Box<dyn StorageBackend>,
    fsync: FsyncPolicy,
    /// The next LSN to allocate. Mutations log under the catalog write
    /// lock, so allocation and append are never reordered relative to
    /// each other.
    next_lsn: AtomicU64,
    /// Appends since the last fsync (drives [`FsyncPolicy::EveryN`]).
    unsynced: AtomicU64,
    /// WAL bytes up to the end of the last acknowledged record: where a
    /// failed append is cut back to.
    wal_len: AtomicU64,
    /// Set when a cut-back failed: no later record is acknowledged.
    stopped: AtomicBool,
    wal_appends: AtomicU64,
    snapshot_writes: AtomicU64,
    recoveries: AtomicU64,
    wal_replayed: AtomicU64,
    /// The engine's stage histograms, which every WAL append, fsync and
    /// checkpoint records one sample into; `None` records nothing.
    stages: Option<StageHistograms>,
}

impl Durability {
    /// Opens the backend and recovers: loads the snapshot, scans the
    /// WAL, truncates any torn tail to the longest valid prefix, and
    /// returns the records past the snapshot's LSN for replay.
    ///
    /// # Errors
    /// [`StorageError::Io`] on backend failure and the structural
    /// variants ([`StorageError::SnapshotCorrupt`] /
    /// [`StorageError::WalCorrupt`] / [`StorageError::NonMonotonicLsn`])
    /// on damage a crash cannot explain. A torn WAL tail is *not* an
    /// error.
    pub fn open(
        backend: Box<dyn StorageBackend>,
        fsync: FsyncPolicy,
    ) -> Result<Recovered, StorageError> {
        let state = match backend.snapshot_bytes()? {
            Some(bytes) => Some(CatalogState::decode(&bytes)?),
            None => None,
        };
        let image = backend.wal_bytes()?;
        let had_state = state.is_some() || !image.is_empty();
        let readout = record::scan_wal(&image).map_err(|e| StorageError::WalCorrupt {
            reason: e.to_string(),
        })?;
        let mut prev_lsn = None;
        for &(lsn, _) in &readout.records {
            if let Some(prev) = prev_lsn {
                if lsn <= prev {
                    return Err(StorageError::NonMonotonicLsn { prev, got: lsn });
                }
            }
            prev_lsn = Some(lsn);
        }
        if readout.torn {
            backend.wal_truncate(readout.valid_len)?;
        }
        let snapshot_lsn = state.as_ref().map_or(0, |s| s.last_lsn);
        let next_lsn = prev_lsn.unwrap_or(0).max(snapshot_lsn) + 1;
        let records: Vec<(u64, Request)> = readout
            .records
            .into_iter()
            .filter(|&(lsn, _)| lsn > snapshot_lsn)
            .collect();
        let durability = Durability {
            backend,
            fsync,
            next_lsn: AtomicU64::new(next_lsn),
            unsynced: AtomicU64::new(0),
            wal_len: AtomicU64::new(readout.valid_len),
            stopped: AtomicBool::new(false),
            wal_appends: AtomicU64::new(0),
            snapshot_writes: AtomicU64::new(0),
            recoveries: AtomicU64::new(u64::from(had_state)),
            wal_replayed: AtomicU64::new(records.len() as u64),
            stages: None,
        };
        Ok(Recovered {
            durability,
            state,
            records,
        })
    }

    /// Records every later WAL append, fsync and checkpoint into
    /// `stages` ([`Stage::WalAppend`], [`Stage::Fsync`],
    /// [`Stage::Checkpoint`]).
    pub(crate) fn with_stages(mut self, stages: StageHistograms) -> Self {
        self.stages = Some(stages);
        self
    }

    /// Records one `stage` sample that began at `started`.
    fn record(&self, stage: Stage, started: Instant) {
        if let Some(histogram) = self.stages.as_ref().and_then(|s| s.get(stage.index())) {
            histogram.record_duration(started.elapsed());
        }
    }

    /// Appends `request`'s record under a fresh LSN, fsyncing per
    /// policy, and returns the LSN. Callers hold the catalog write lock,
    /// so log order equals apply order.
    ///
    /// A failed append or fsync leaves the log as it was: whatever part
    /// of the record reached it is truncated away before the error
    /// returns, so a refused mutation neither comes back on restart nor
    /// hides the records after it behind torn bytes. If that truncation
    /// fails too, the log stops, and every later call is
    /// [`StorageError::WalStopped`].
    ///
    /// # Errors
    /// [`StorageError::NotAMutation`] / [`StorageError::OversizedRecord`]
    /// / [`StorageError::Io`] / [`StorageError::WalStopped`].
    pub fn log(&self, request: &Request) -> Result<u64, StorageError> {
        // ordering: Relaxed — the stop flag, the LSN ticket and the log
        // length are all read and written under the catalog write lock
        // (see doc comment), which is the happens-before edge, so each
        // only needs atomicity.
        if self.stopped.load(Ordering::Relaxed) {
            return Err(StorageError::WalStopped);
        }
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        let start = self.wal_len.load(Ordering::Relaxed);
        let framed = record::encode(lsn, request).ok_or(StorageError::NotAMutation {
            kind: request.kind().name(),
        })?;
        let payload_len = framed.len() - record::RECORD_HEADER_LEN;
        if payload_len > MAX_WAL_RECORD_LEN {
            return Err(StorageError::OversizedRecord {
                len: payload_len,
                max: MAX_WAL_RECORD_LEN,
            });
        }
        let sync = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryN(n) => {
                // ordering: Relaxed — fsync cadence heuristic under the
                // same catalog-lock serialization as the LSN ticket; an
                // off-by-one sync costs one extra fsync, never
                // durability.
                let pending = self.unsynced.fetch_add(1, Ordering::Relaxed) + 1;
                if pending >= n.max(1) {
                    self.unsynced.store(0, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        };
        if let Err(e) = self.write(&framed, sync) {
            // ordering: Relaxed — under the catalog write lock, as above.
            if self.backend.wal_truncate(start).is_err() {
                self.stopped.store(true, Ordering::Relaxed);
            }
            return Err(e.into());
        }
        // ordering: Relaxed — the log length under the catalog write
        // lock, as above; `wal_appends` is a monotonic stats counter,
        // read only by `stats()`.
        self.wal_len
            .store(start + framed.len() as u64, Ordering::Relaxed);
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Appends one framed record and, when `sync`, fsyncs the log: one
    /// [`Stage::WalAppend`] sample and, when synced, one [`Stage::Fsync`].
    fn write(&self, framed: &[u8], sync: bool) -> io::Result<()> {
        let started = Instant::now();
        let appended = self.backend.wal_append(framed);
        self.record(Stage::WalAppend, started);
        appended?;
        if sync {
            let started = Instant::now();
            let synced = self.backend.sync();
            self.record(Stage::Fsync, started);
            synced?;
        }
        Ok(())
    }

    /// Atomically installs `state` as the current snapshot and resets
    /// the WAL. The caller (the catalog) holds its write lock, so no
    /// record can slip between the image and the reset.
    ///
    /// # Errors
    /// [`StorageError::Io`]. The install sequence is crash-safe at
    /// every step, so a failure here never loses acknowledged state —
    /// at worst the old snapshot plus the full WAL remain. A failed
    /// install may or may not have reset the log, so its length is read
    /// back for the next cut-back; if it cannot be, the log stops.
    pub fn checkpoint(&self, state: &CatalogState) -> Result<(), StorageError> {
        let started = Instant::now();
        let installed = self.backend.install_checkpoint(&state.encode());
        self.record(Stage::Checkpoint, started);
        // ordering: Relaxed — the log length and the stop flag under the
        // catalog write lock, as in `log`; `snapshot_writes` is a
        // monotonic stats counter, read only by `stats()`.
        if let Err(e) = installed {
            match self.backend.wal_bytes() {
                Ok(image) => self.wal_len.store(image.len() as u64, Ordering::Relaxed),
                Err(_) => self.stopped.store(true, Ordering::Relaxed),
            }
            return Err(e.into());
        }
        self.wal_len.store(0, Ordering::Relaxed);
        self.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The highest LSN allocated so far (0 before any append).
    pub fn last_lsn(&self) -> u64 {
        // ordering: Relaxed — read under the same catalog-lock
        // serialization as the `log()` ticket allocation.
        self.next_lsn.load(Ordering::Relaxed) - 1
    }

    /// Point-in-time durability counters.
    pub fn stats(&self) -> DurabilityStats {
        // ordering: Relaxed — stats snapshot of monotonic counters;
        // monitoring tolerates momentarily-stale values.
        DurabilityStats {
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Graceful shutdown makes the log durable even under
        // FsyncPolicy::Never; a crash obviously skips this, which is
        // exactly the window the policy chose to accept.
        let _ = self.backend.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_mem(backend: &MemBackend) -> Recovered {
        Durability::open(Box::new(backend.clone()), FsyncPolicy::Never).unwrap()
    }

    #[test]
    fn fresh_backend_recovers_nothing() {
        let mem = MemBackend::new();
        let rec = open_mem(&mem);
        assert!(rec.state.is_none());
        assert!(rec.records.is_empty());
        assert_eq!(rec.durability.stats().recoveries, 0);
        assert_eq!(rec.durability.last_lsn(), 0);
    }

    #[test]
    fn log_then_reopen_replays_in_order() {
        let mem = MemBackend::new();
        {
            let d = open_mem(&mem).durability;
            d.log(&Request::Register {
                dataset: "p".into(),
                dim: 1,
                coords: vec![1.0, 2.0],
            })
            .unwrap();
            d.log(&Request::Append {
                dataset: "p".into(),
                points: vec![3.0],
            })
            .unwrap();
            assert_eq!(d.stats().wal_appends, 2);
            assert_eq!(d.last_lsn(), 2);
        }
        let rec = open_mem(&mem);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.durability.stats().recoveries, 1);
        assert_eq!(rec.durability.stats().wal_replayed, 2);
        // Appending resumes past the recovered LSNs.
        assert_eq!(
            rec.durability
                .log(&Request::Compact {
                    dataset: "p".into(),
                })
                .unwrap(),
            3
        );
    }

    #[test]
    fn checkpoint_resets_the_wal_and_bounds_replay() {
        let mem = MemBackend::new();
        let d = open_mem(&mem).durability;
        d.log(&Request::Register {
            dataset: "p".into(),
            dim: 1,
            coords: vec![1.0],
        })
        .unwrap();
        let state = CatalogState {
            last_lsn: d.last_lsn(),
            ..CatalogState::default()
        };
        d.checkpoint(&state).unwrap();
        assert_eq!(mem.wal_len(), 0);
        d.log(&Request::Append {
            dataset: "p".into(),
            points: vec![2.0],
        })
        .unwrap();
        drop(d);
        let rec = open_mem(&mem);
        assert_eq!(rec.state.as_ref().unwrap().last_lsn, 1);
        // Only the post-checkpoint record replays.
        assert_eq!(rec.records.len(), 1);
        assert!(matches!(rec.records[0], (_, Request::Append { .. })));
        assert_eq!(rec.durability.last_lsn(), 2);
    }

    #[test]
    fn stale_records_below_the_snapshot_lsn_are_skipped() {
        // Simulates a crash after the snapshot rename but before the WAL
        // truncation: old records linger with LSNs the snapshot covers.
        let mem = MemBackend::new();
        let d = open_mem(&mem).durability;
        d.log(&Request::Register {
            dataset: "p".into(),
            dim: 1,
            coords: vec![1.0],
        })
        .unwrap();
        d.log(&Request::Append {
            dataset: "p".into(),
            points: vec![2.0],
        })
        .unwrap();
        drop(d);
        // Install a snapshot covering LSN 2 WITHOUT clearing the WAL.
        let state = CatalogState {
            last_lsn: 2,
            ..CatalogState::default()
        };
        mem.mutate_snapshot(|s| *s = Some(state.encode()));
        let rec = open_mem(&mem);
        assert!(rec.records.is_empty(), "covered records must not replay");
        assert_eq!(rec.durability.last_lsn(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let mem = MemBackend::new();
        let d = open_mem(&mem).durability;
        d.log(&Request::Append {
            dataset: "p".into(),
            points: vec![1.0],
        })
        .unwrap();
        d.log(&Request::Append {
            dataset: "p".into(),
            points: vec![2.0],
        })
        .unwrap();
        drop(d);
        let full = mem.wal_len();
        mem.mutate_wal(|wal| wal.truncate(full - 5));
        let rec = open_mem(&mem);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(mem.wal_len(), full / 2, "torn tail must be cut");
        // The replacement for the lost record reuses its LSN slot
        // correctly (strictly increasing from the surviving prefix).
        assert_eq!(
            rec.durability
                .log(&Request::Append {
                    dataset: "p".into(),
                    points: vec![9.0],
                })
                .unwrap(),
            2
        );
    }

    #[test]
    fn duplicate_lsn_is_a_typed_error() {
        let mem = MemBackend::new();
        let d = open_mem(&mem).durability;
        d.log(&Request::Append {
            dataset: "p".into(),
            points: vec![1.0],
        })
        .unwrap();
        drop(d);
        // Double the record's bytes: same LSN twice.
        mem.mutate_wal(|wal| {
            let copy = wal.clone();
            wal.extend_from_slice(&copy);
        });
        match Durability::open(Box::new(mem.clone()), FsyncPolicy::Never) {
            Err(StorageError::NonMonotonicLsn { prev: 1, got: 1 }) => {}
            other => panic!("expected NonMonotonicLsn, got {other:?}"),
        }
    }

    #[test]
    fn every_n_policy_counts_appends() {
        let mem = MemBackend::new();
        let rec = Durability::open(Box::new(mem.clone()), FsyncPolicy::EveryN(3)).unwrap();
        for i in 0..7u64 {
            rec.durability
                .log(&Request::Append {
                    dataset: "p".into(),
                    points: vec![i as f64],
                })
                .unwrap();
        }
        assert_eq!(rec.durability.stats().wal_appends, 7);
    }
}
