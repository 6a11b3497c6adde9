//! Storage backends: where the WAL and snapshot bytes actually live.
//!
//! [`Durability`](super::Durability) speaks this narrow trait so the
//! formats, recovery logic, and crash-window reasoning are identical
//! whether the bytes sit on disk ([`DiskBackend`]) or in a shared
//! buffer ([`MemBackend`]). The in-memory backend is what the torn-write
//! and corrupt-corpus tests use for byte-level surgery without touching
//! a filesystem — and it keeps the default engine configuration (no
//! `data_dir`) truly zero-cost, because no backend is constructed at
//! all in that case.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// WAL file name inside a [`DiskBackend`] data directory.
pub const WAL_FILE: &str = "wal.log";

/// Snapshot file name inside a [`DiskBackend`] data directory.
pub const SNAPSHOT_FILE: &str = "catalog.snap";

/// Temp name the snapshot is staged under before its atomic rename.
pub const SNAPSHOT_TMP_FILE: &str = "catalog.snap.tmp";

/// Byte-level storage for one engine's WAL + snapshot pair.
///
/// Implementations must make `install_checkpoint` crash-safe: a crash
/// at any point leaves either the old (snapshot, WAL) pair or the new
/// one observable — never a half-written snapshot. Leaving *stale* WAL
/// records behind the new snapshot is fine (recovery skips records at
/// or below the snapshot's LSN); losing acknowledged records is not.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// The full current WAL image.
    fn wal_bytes(&self) -> io::Result<Vec<u8>>;

    /// Appends one framed record; [`StorageBackend::sync`] makes it
    /// durable.
    fn wal_append(&self, record: &[u8]) -> io::Result<()>;

    /// Truncates the WAL to `len` bytes (cutting a torn tail after a
    /// crash, or the part of a failed append that landed) and makes the
    /// truncation durable.
    fn wal_truncate(&self, len: u64) -> io::Result<()>;

    /// The current snapshot image, or `None` when none was ever
    /// installed.
    fn snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>>;

    /// Atomically installs `snapshot` as the current image, then resets
    /// the WAL to empty. See the trait docs for the crash contract.
    fn install_checkpoint(&self, snapshot: &[u8]) -> io::Result<()>;

    /// Makes every appended WAL byte durable (fsync): after an append
    /// when the fsync policy asks for it, and at graceful shutdown (under
    /// [`super::FsyncPolicy::Never`] the only sync that ever runs).
    fn sync(&self) -> io::Result<()>;
}

/// Files in a data directory: `wal.log` + `catalog.snap`.
pub struct DiskBackend {
    dir: PathBuf,
    /// Kept open in append mode for the life of the engine — one open
    /// file descriptor, not one `open(2)` per mutation.
    wal: Mutex<File>,
}

impl fmt::Debug for DiskBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskBackend")
            .field("dir", &self.dir)
            .finish()
    }
}

impl DiskBackend {
    /// Opens (creating as needed) the data directory and its WAL file.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        Ok(Self {
            dir,
            wal: Mutex::new(wal),
        })
    }

    /// The data directory this backend writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fsyncs the directory entry itself, so a rename or truncation
    /// survives a crash of the metadata journal. Best-effort on
    /// platforms where directories cannot be opened.
    fn sync_dir(&self) -> io::Result<()> {
        match File::open(&self.dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

impl StorageBackend for DiskBackend {
    fn wal_bytes(&self) -> io::Result<Vec<u8>> {
        fs::read(self.dir.join(WAL_FILE))
    }

    fn wal_append(&self, record: &[u8]) -> io::Result<()> {
        self.wal.lock().expect("wal file lock").write_all(record)
    }

    fn wal_truncate(&self, len: u64) -> io::Result<()> {
        let wal = self.wal.lock().expect("wal file lock");
        wal.set_len(len)?;
        wal.sync_data()
    }

    fn snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn install_checkpoint(&self, snapshot: &[u8]) -> io::Result<()> {
        // Stage, fsync, rename, fsync the directory: a crash anywhere in
        // this sequence leaves either the old image (rename not yet
        // durable) or the new one — never a torn snapshot.
        let tmp = self.dir.join(SNAPSHOT_TMP_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(snapshot)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.sync_dir()?;
        // Only now retire the log: records at or below the snapshot's
        // LSN are skipped on replay anyway, so a crash *before* this
        // truncation merely replays no-ops.
        self.wal_truncate(0)
    }

    fn sync(&self) -> io::Result<()> {
        self.wal.lock().expect("wal file lock").sync_data()
    }
}

#[derive(Debug, Default)]
struct MemState {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

/// An in-memory backend: the WAL and snapshot live in a shared buffer.
///
/// Clones share the same buffers, so "restarting" is dropping one
/// [`super::Durability`] and opening another over a clone — exactly the
/// crash-recovery cycle, minus the filesystem. [`MemBackend::mutate_wal`]
/// exposes the raw image for the torn-write and corrupt-corpus tests to
/// damage surgically.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    state: Arc<Mutex<MemState>>,
}

impl MemBackend {
    /// A fresh, empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` over the raw WAL image (test corruption hook).
    pub fn mutate_wal(&self, f: impl FnOnce(&mut Vec<u8>)) {
        f(&mut self.state.lock().expect("mem state lock").wal)
    }

    /// Runs `f` over the raw snapshot image (test corruption hook).
    pub fn mutate_snapshot(&self, f: impl FnOnce(&mut Option<Vec<u8>>)) {
        f(&mut self.state.lock().expect("mem state lock").snapshot)
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> usize {
        self.state.lock().expect("mem state lock").wal.len()
    }
}

impl StorageBackend for MemBackend {
    fn wal_bytes(&self) -> io::Result<Vec<u8>> {
        Ok(self.state.lock().expect("mem state lock").wal.clone())
    }

    fn wal_append(&self, record: &[u8]) -> io::Result<()> {
        self.state
            .lock()
            .expect("mem state lock")
            .wal
            .extend_from_slice(record);
        Ok(())
    }

    fn wal_truncate(&self, len: u64) -> io::Result<()> {
        self.state
            .lock()
            .expect("mem state lock")
            .wal
            .truncate(len as usize);
        Ok(())
    }

    fn snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.state.lock().expect("mem state lock").snapshot.clone())
    }

    fn install_checkpoint(&self, snapshot: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("mem state lock");
        state.snapshot = Some(snapshot.to_vec());
        state.wal.clear();
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}
