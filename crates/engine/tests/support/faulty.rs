//! A fault-injecting [`StorageBackend`] over [`MemBackend`]: ENOSPC
//! (whole or after a short write) on an append, a failed fsync, a
//! failed cut-back truncation, and a checkpoint that fails before or
//! after its install.
//!
//! One file, two includers: the engine's catalog unit tests (through
//! `storage::faulty`) and `tests/durability.rs` each declare it as a
//! module with `#[path]`, and each brings `MemBackend` and
//! `StorageBackend` into the parent module's scope.

use super::{MemBackend, StorageBackend};

/// A storage call a [`Faulty`] backend counts.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Append,
    Sync,
    Truncate,
    Checkpoint,
}

/// What a [`Faulty`] backend does on its faulted call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Fault {
    /// `wal_append` writes nothing and fails with ENOSPC.
    Enospc,
    /// `wal_append` writes the first half of the record, then fails
    /// with ENOSPC.
    ShortWrite,
    /// `sync` fails.
    Fsync,
    /// `wal_truncate` fails.
    CutBack,
    /// `install_checkpoint` fails before installing anything.
    Checkpoint,
    /// `install_checkpoint` installs the snapshot and resets the log,
    /// then fails (its last step, the directory or log sync, failed).
    CheckpointLate,
}

impl Fault {
    fn op(self) -> Op {
        match self {
            Fault::Enospc | Fault::ShortWrite => Op::Append,
            Fault::Fsync => Op::Sync,
            Fault::CutBack => Op::Truncate,
            Fault::Checkpoint | Fault::CheckpointLate => Op::Checkpoint,
        }
    }
}

/// A [`MemBackend`] that fails chosen calls: each `(fault, n)` fires on
/// the `n`-th call (from 1) of its operation. Truncation has a file's
/// `set_len` semantics: a length past the end pads with zeros.
#[derive(Debug)]
pub(crate) struct Faulty {
    inner: MemBackend,
    faults: Vec<(Fault, usize)>,
    calls: std::sync::Mutex<Vec<Op>>,
}

impl Faulty {
    pub(crate) fn new(inner: &MemBackend, faults: &[(Fault, usize)]) -> Box<Self> {
        Box::new(Self {
            inner: inner.clone(),
            faults: faults.to_vec(),
            calls: Default::default(),
        })
    }

    /// Counts one call of `op` and returns the fault planned for it.
    fn fault(&self, op: Op) -> Option<Fault> {
        let mut calls = self.calls.lock().unwrap();
        calls.push(op);
        let n = calls.iter().filter(|&&c| c == op).count();
        let planned = self.faults.iter().find(|&&(f, at)| f.op() == op && at == n);
        planned.map(|&(f, _)| f)
    }
}

fn enospc() -> std::io::Error {
    std::io::Error::from_raw_os_error(28) // ENOSPC
}

impl StorageBackend for Faulty {
    fn wal_bytes(&self) -> std::io::Result<Vec<u8>> {
        self.inner.wal_bytes()
    }
    fn wal_append(&self, record: &[u8]) -> std::io::Result<()> {
        match self.fault(Op::Append) {
            Some(Fault::Enospc) => Err(enospc()),
            Some(_) => {
                self.inner.wal_append(&record[..record.len() / 2])?;
                Err(enospc())
            }
            None => self.inner.wal_append(record),
        }
    }
    fn wal_truncate(&self, len: u64) -> std::io::Result<()> {
        if self.fault(Op::Truncate).is_some() {
            return Err(std::io::Error::other("injected truncate failure"));
        }
        self.inner.mutate_wal(|wal| wal.resize(len as usize, 0));
        Ok(())
    }
    fn snapshot_bytes(&self) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.snapshot_bytes()
    }
    fn install_checkpoint(&self, snapshot: &[u8]) -> std::io::Result<()> {
        match self.fault(Op::Checkpoint) {
            Some(Fault::CheckpointLate) => {
                self.inner.install_checkpoint(snapshot)?;
                Err(std::io::Error::other("injected late checkpoint failure"))
            }
            Some(_) => Err(std::io::Error::other("injected checkpoint failure")),
            None => self.inner.install_checkpoint(snapshot),
        }
    }
    fn sync(&self) -> std::io::Result<()> {
        match self.fault(Op::Sync) {
            Some(_) => Err(std::io::Error::other("injected fsync failure")),
            None => self.inner.sync(),
        }
    }
}
