//! Durability integration proofs.
//!
//! * **Differential recovery** — a durable engine is mutated, dropped,
//!   and reopened from its data directory; the recovered catalog must
//!   answer *every request kind* bit-identically to a never-restarted
//!   in-memory oracle that saw the identical mutation stream, and must
//!   resume the exact epoch triple (the `appends` counter doubles as
//!   the delta id allocator, so an off-by-one here corrupts ids
//!   silently — only the triple proves the allocator survived).
//! * **Torn writes** — the WAL truncated at *every* byte offset must
//!   recover the longest valid record prefix, silently, and resume
//!   appending.
//! * **Corrupt corpus** — bad record magic, flipped CRC bytes,
//!   impossible length fields, mid-record truncation, duplicate LSNs,
//!   and snapshot damage each either recover a valid prefix or fail
//!   with a typed [`StorageError`]; none may panic.
//! * **Server restart** — a TCP server over a durable engine keeps its
//!   datasets across a full stop/start cycle with no re-registration.

use std::path::PathBuf;
use wqrtq::engine::storage::{CatalogState, DatasetState, SNAPSHOT_FILE};
use wqrtq::engine::storage::{
    Durability, FsyncPolicy, MemBackend, StorageBackend, StorageError, WalRecordRef, RECORD_MAGIC,
};
use wqrtq::engine::{Engine, EngineError, Request, Response, WeightSet};
use wqrtq::prelude::{StrategyKind, WhyNotOptions};
use wqrtq::Weight;
use wqrtq_server::{Client, Server};

/// A unique temp directory per test (removed on drop, best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "wqrtq-durability-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable(dir: &std::path::Path) -> Engine {
    Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX) // deterministic: no background merges
        .data_dir(dir)
        .build()
}

fn in_memory() -> Engine {
    Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build()
}

/// Options pinned to the sampled path (no exact-2D auto-selection); the
/// battery narrows them to one strategy per request.
fn sampled() -> WhyNotOptions {
    WhyNotOptions {
        exact_2d: false,
        ..WhyNotOptions::default()
    }
}

/// Every request kind against dataset `d` / population `pop`, with
/// fixed parameters so both engines receive identical bytes.
fn query_battery() -> Vec<Request> {
    let q = vec![4.0, 4.0];
    let mut batch = vec![
        Request::TopK {
            dataset: "d".into(),
            weight: vec![0.4, 0.6],
            k: 4,
        },
        Request::ReverseTopKMono {
            dataset: "d".into(),
            q: q.clone(),
            k: 3,
            samples: 0,
            seed: 0,
        },
        Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Named("pop".into()),
            q: q.clone(),
            k: 3,
        },
        Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Inline(vec![vec![0.25, 0.75], vec![0.8, 0.2]]),
            q: q.clone(),
            k: 2,
        },
        // The explanation slot: culprits capped at 8.
        Request::WhyNot {
            dataset: "d".into(),
            q: q.clone(),
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                culprit_limit: 8,
                ..sampled()
            },
        },
        Request::WhyNot {
            dataset: "d".into(),
            q: q.clone(),
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options: WhyNotOptions::default(),
        },
    ];
    for options in [
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            ..sampled()
        },
        WhyNotOptions {
            strategies: vec![StrategyKind::Mwk],
            sample_size: 40,
            seed: 9,
            ..sampled()
        },
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqwk],
            sample_size: 30,
            query_samples: 10,
            seed: 5,
            ..sampled()
        },
    ] {
        batch.push(Request::WhyNot {
            dataset: "d".into(),
            q: q.clone(),
            k: 3,
            why_not: vec![vec![0.15, 0.85]],
            options,
        });
    }
    batch
}

/// The mutation stream both twins receive: registration, appends,
/// deletes spanning base and delta rows, a weight population, a
/// re-registered second dataset, and a manual compaction.
fn mutate(e: &Engine) {
    e.register_dataset(
        "d",
        2,
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ],
    )
    .unwrap();
    e.register_weights(
        "pop",
        vec![
            wqrtq::Weight::new(vec![0.1, 0.9]),
            wqrtq::Weight::new(vec![0.5, 0.5]),
            wqrtq::Weight::new(vec![0.9, 0.1]),
        ],
    )
    .unwrap();
    e.append_points("d", &[4.5, 4.5, 0.5, 9.5]).unwrap(); // ids 7, 8
    e.delete_points("d", &[2, 7]).unwrap(); // one base, one delta row
    e.append_points("d", &[3.3, 3.7]).unwrap(); // id 9 (allocator past 8)
                                                // A second dataset exercising register-replace and compaction.
    e.register_dataset("e", 2, vec![1.0, 1.0, 2.0, 2.0])
        .unwrap();
    e.register_dataset("e", 2, vec![5.0, 5.0, 6.0, 6.0, 7.0, 7.0])
        .unwrap();
    e.append_points("e", &[8.0, 8.0]).unwrap();
    e.delete_points("e", &[0]).unwrap();
    assert!(e.compact("e").unwrap());
    e.append_points("e", &[9.0, 9.0]).unwrap();
}

#[test]
fn recovered_engine_answers_every_kind_bit_identically_and_resumes_the_epoch_triple() {
    let dir = TempDir::new("differential");
    let oracle = in_memory();
    mutate(&oracle);

    {
        let e = durable(dir.path());
        mutate(&e);
        // Graceful drop: the WAL syncs, nothing is lost.
    }
    let recovered = durable(dir.path());

    // Exact epoch triples — base, appends, AND tombstones.
    for name in ["d", "e"] {
        assert_eq!(
            recovered.catalog().epoch(name).unwrap(),
            oracle.catalog().epoch(name).unwrap(),
            "epoch triple of `{name}` must survive the restart"
        );
    }
    // The id allocator must have survived: appending after recovery
    // allocates the same id on both sides.
    for e in [&recovered, &oracle] {
        e.append_points("d", &[1.1, 8.8]).unwrap();
    }
    assert_eq!(
        recovered.submit_batch(query_battery()),
        oracle.submit_batch(query_battery()),
        "recovered catalog must answer bit-identically"
    );

    let stats = recovered.metrics().catalog;
    assert_eq!(stats.recoveries, 1, "one recovery must be counted");
    assert!(stats.wal_replayed > 0, "the WAL must actually replay");
}

#[test]
fn checkpoint_resets_the_wal_and_recovery_reads_the_snapshot() {
    let dir = TempDir::new("checkpoint");
    let oracle = in_memory();
    mutate(&oracle);
    {
        let e = durable(dir.path());
        mutate(&e);
        assert!(e.checkpoint().unwrap(), "durable engines checkpoint");
        assert!(!in_memory().checkpoint().unwrap(), "in-memory is a no-op");
    }
    let wal = std::fs::metadata(dir.path().join("wal.log")).unwrap();
    assert_eq!(wal.len(), 0, "checkpoint must retire the log");

    let recovered = durable(dir.path());
    assert_eq!(
        recovered.submit_batch(query_battery()),
        oracle.submit_batch(query_battery()),
        "snapshot-only recovery must be bit-identical too"
    );
    let stats = recovered.metrics().catalog;
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.wal_replayed, 0, "nothing left to replay");
    for name in ["d", "e"] {
        assert_eq!(
            recovered.catalog().epoch(name).unwrap(),
            oracle.catalog().epoch(name).unwrap()
        );
    }
}

#[test]
fn a_sub_eps_negative_weight_entry_registers_and_recovers_bit_identically() {
    // `Weight::try_new` accepts entries down to -1e-9; registration and
    // recovery apply that one rule.
    let dir = TempDir::new("signedweight");
    let signed = vec![1.0 + 5e-10, -5e-10];
    let bits = |ws: &[Weight]| -> Vec<Vec<u64>> {
        let bits = |w: &Weight| w.as_slice().iter().map(|x| x.to_bits()).collect();
        ws.iter().map(bits).collect()
    };
    let want = bits(&[Weight::try_new(signed.clone()).unwrap()]);
    {
        let e = durable(dir.path());
        let w = Weight::try_new(signed.clone()).unwrap();
        e.register_weights("snapshotted", vec![w]).unwrap();
        assert!(e.checkpoint().unwrap());
        let w = Weight::try_new(signed).unwrap();
        e.register_weights("logged", vec![w]).unwrap();
    }
    let recovered = durable(dir.path());
    assert_eq!(recovered.metrics().catalog.wal_replayed, 1);
    for name in ["snapshotted", "logged"] {
        assert_eq!(bits(&recovered.catalog().weights(name).unwrap()), want);
    }
}

#[test]
fn compaction_checkpoints_automatically() {
    let dir = TempDir::new("autocheckpoint");
    let e = durable(dir.path());
    e.register_dataset("d", 2, vec![1.0, 2.0, 3.0, 4.0])
        .unwrap();
    e.append_points("d", &[5.0, 6.0]).unwrap();
    assert!(e.compact("d").unwrap());
    let stats = e.metrics().catalog;
    assert_eq!(stats.snapshot_writes, 1, "compaction installs a snapshot");
    let wal = std::fs::metadata(dir.path().join("wal.log")).unwrap();
    assert_eq!(wal.len(), 0, "the merged history is retired");
    drop(e);
    let recovered = durable(dir.path());
    assert_eq!(
        recovered.catalog().epoch("d").unwrap(),
        wqrtq::engine::DatasetEpoch::fresh(2)
    );
}

#[test]
fn fsync_policies_all_survive_a_graceful_restart() {
    for (tag, policy) in [
        ("always", FsyncPolicy::Always),
        ("group", FsyncPolicy::EveryN(8)),
        ("never", FsyncPolicy::Never),
    ] {
        let dir = TempDir::new(tag);
        let oracle = in_memory();
        mutate(&oracle);
        {
            let e = Engine::builder()
                .workers(2)
                .overlay_limit(usize::MAX)
                .data_dir(dir.path())
                .fsync(policy)
                .build();
            mutate(&e);
            // Graceful drop syncs the log even under `Never`.
        }
        let recovered = durable(dir.path());
        assert_eq!(
            recovered.submit_batch(query_battery()),
            oracle.submit_batch(query_battery()),
            "policy {policy:?} must lose nothing on graceful shutdown"
        );
    }
}

/// Logs a deterministic record stream through a fresh [`Durability`]
/// over the given backend.
fn log_stream(backend: MemBackend, n: usize) -> Durability {
    let recovered = Durability::open(Box::new(backend), FsyncPolicy::Always).unwrap();
    assert!(recovered.records.is_empty());
    let d = recovered.durability;
    for i in 0..n {
        let coords = vec![i as f64, i as f64 + 0.5];
        d.log(WalRecordRef::Register {
            name: "t",
            dim: 2,
            coords: &coords,
        })
        .unwrap();
    }
    d
}

#[test]
fn wal_truncated_at_every_byte_offset_recovers_the_longest_valid_prefix() {
    let backend = MemBackend::new();
    let d = log_stream(backend.clone(), 5);
    drop(d);
    let full = backend.wal_len();

    // Record boundaries: scan the intact image once.
    let image = backend.wal_bytes().unwrap();
    let boundaries = {
        let mut ends = vec![0usize];
        let mut at = 0usize;
        while at < image.len() {
            let len =
                u32::from_le_bytes([image[at + 4], image[at + 5], image[at + 6], image[at + 7]])
                    as usize;
            at += 12 + len;
            ends.push(at);
        }
        ends
    };
    assert_eq!(*boundaries.last().unwrap(), full);

    for cut in 0..=full {
        let torn = MemBackend::new();
        torn.mutate_wal(|wal| *wal = image[..cut].to_vec());
        let recovered = Durability::open(Box::new(torn.clone()), FsyncPolicy::Always)
            .unwrap_or_else(|e| panic!("cut {cut}: torn tail must not error, got {e}"));
        let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        assert_eq!(
            recovered.records.len(),
            expect,
            "cut {cut}: longest valid prefix"
        );
        assert_eq!(
            torn.wal_len(),
            boundaries[expect],
            "cut {cut}: the torn tail is physically removed"
        );
        // Appending must resume cleanly after any cut.
        recovered
            .durability
            .log(WalRecordRef::Compact { name: "t" })
            .unwrap();
    }
}

#[test]
fn corrupt_wal_corpus_recovers_or_fails_typed_never_panics() {
    let image = {
        let backend = MemBackend::new();
        log_stream(backend.clone(), 3);
        backend.wal_bytes().unwrap()
    };
    let reopen = |f: &dyn Fn(&mut Vec<u8>)| {
        let b = MemBackend::new();
        b.mutate_wal(|wal| {
            *wal = image.clone();
            f(wal);
        });
        Durability::open(Box::new(b), FsyncPolicy::Always)
    };

    // Bad magic on the second record: the first survives, the damaged
    // tail is treated as torn and dropped.
    let second = {
        let len = u32::from_le_bytes([image[4], image[5], image[6], image[7]]) as usize;
        12 + len
    };
    let r = reopen(&|wal: &mut Vec<u8>| wal[second] ^= 0xFF).unwrap();
    assert_eq!(r.records.len(), 1);

    // Flipped CRC byte: same torn-tail treatment.
    let r = reopen(&|wal: &mut Vec<u8>| wal[second + 8] ^= 0x01).unwrap();
    assert_eq!(r.records.len(), 1);

    // Flipped payload byte: the CRC catches it.
    let r = reopen(&|wal: &mut Vec<u8>| wal[second + 12] ^= 0x01).unwrap();
    assert_eq!(r.records.len(), 1);

    // Impossible length field: torn, not a crash or a huge allocation.
    let r = reopen(&|wal: &mut Vec<u8>| {
        wal[second + 4..second + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    })
    .unwrap();
    assert_eq!(r.records.len(), 1);

    // Mid-record truncation of the last record.
    let r = reopen(&|wal: &mut Vec<u8>| {
        let n = wal.len();
        wal.truncate(n - 3);
    })
    .unwrap();
    assert_eq!(r.records.len(), 2);

    // Duplicate LSN (a record byte-copied over its successor): this is
    // structural damage no crash produces — a typed error, not a
    // silent prefix.
    let r = reopen(&|wal: &mut Vec<u8>| {
        let first = wal[..second].to_vec();
        wal.splice(second.., first);
    });
    assert!(
        matches!(r, Err(StorageError::NonMonotonicLsn { .. })),
        "duplicate LSN must be typed, got {r:?}"
    );

    // CRC-valid garbage payload: framing is intact, decode fails typed.
    let mut forged = RECORD_MAGIC.to_vec();
    let payload = [0xAB, 0xCD, 0xEF];
    forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    forged.extend_from_slice(&wqrtq_codec::crc32::checksum(&payload).to_le_bytes());
    forged.extend_from_slice(&payload);
    let r = reopen(&move |wal: &mut Vec<u8>| *wal = forged.clone());
    assert!(
        matches!(r, Err(StorageError::WalCorrupt { .. })),
        "undecodable-but-checksummed payload must be typed, got {r:?}"
    );
}

#[test]
fn a_compact_record_in_the_wal_replays_the_merge() {
    // A crash between compaction's WAL record and its snapshot install
    // leaves a bare Compact record behind. Craft that WAL directly (the
    // engine path always checkpoints right after) and recover over it:
    // replay must re-run the merge and land on the same base epoch.
    let dir = TempDir::new("compactreplay");
    {
        let backend = wqrtq::engine::storage::DiskBackend::open(dir.path()).unwrap();
        let d = Durability::open(Box::new(backend), FsyncPolicy::Always)
            .unwrap()
            .durability;
        d.log(WalRecordRef::Register {
            name: "d",
            dim: 2,
            coords: &[1.0, 2.0, 3.0, 4.0],
        })
        .unwrap();
        d.log(WalRecordRef::Append {
            name: "d",
            points: &[5.0, 6.0],
        })
        .unwrap();
        d.log(WalRecordRef::Compact { name: "d" }).unwrap();
        d.log(WalRecordRef::Append {
            name: "d",
            points: &[7.0, 8.0],
        })
        .unwrap();
    }
    let e = durable(dir.path());
    assert_eq!(e.metrics().catalog.wal_replayed, 4);
    let epoch = e.catalog().epoch("d").unwrap();
    assert_eq!(
        (epoch.base, epoch.delta, epoch.tombstones),
        (2, 1, 0),
        "the merge bumped the base and the post-merge append sits in the overlay"
    );
    match e.submit(Request::TopK {
        dataset: "d".into(),
        weight: vec![0.5, 0.5],
        k: 4,
    }) {
        Response::TopK(points) => assert_eq!(points.len(), 4),
        other => panic!("expected TopK, got {other:?}"),
    }
}

#[test]
fn corrupt_snapshot_is_a_typed_error_never_a_panic() {
    let dir = TempDir::new("badsnap");
    {
        let e = durable(dir.path());
        e.register_dataset("d", 2, vec![1.0, 2.0]).unwrap();
        e.checkpoint().unwrap();
    }
    let snap = dir.path().join("catalog.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    let err = Engine::builder()
        .data_dir(dir.path())
        .try_build()
        .expect_err("a damaged snapshot must refuse to build");
    let msg = err.to_string();
    assert!(
        msg.contains("durability failure"),
        "typed durability error expected, got: {msg}"
    );
}

#[test]
fn server_restart_keeps_its_datasets() {
    let dir = TempDir::new("server");
    let addr = {
        let server = Server::builder()
            .engine(durable(dir.path()))
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect_v2(addr).unwrap();
        client
            .register_dataset(
                "d",
                2,
                &[
                    2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
                ],
            )
            .unwrap();
        client
            .register_weights("pop", &[vec![0.1, 0.9], vec![0.5, 0.5], vec![0.3, 0.7]])
            .unwrap();
        let r = client
            .submit(&Request::Append {
                dataset: "d".into(),
                points: vec![4.5, 4.5],
            })
            .unwrap();
        assert_eq!(r, Response::Mutated { live_len: 8 });
        server.shutdown();
        addr
    };
    let _ = addr;

    // A brand-new server process-equivalent: same directory, no
    // re-registration — the catalog must simply be there.
    let server = Server::builder()
        .engine(durable(dir.path()))
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    let r = client
        .submit(&Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Named("pop".into()),
            q: vec![4.0, 4.0],
            k: 3,
        })
        .unwrap();
    assert_eq!(r, Response::ReverseTopKBi(vec![1, 2]));
    let stats = client.stats().unwrap();
    assert_eq!(stats.metrics.catalog.recoveries, 1);
    // Register + weights + append, one record each.
    assert_eq!(stats.metrics.catalog.wal_replayed, 3);
    server.shutdown();
}

/// A one-dataset snapshot image over a 4-row 2-d base with one
/// tombstone (id 1) and one append (id 4), as the catalog writes it;
/// `edit` then breaks it (or not) before it is CRC-framed.
fn snapshot_image(edit: impl FnOnce(&mut DatasetState)) -> Vec<u8> {
    let base = vec![1.0, 4.0, 2.0, 2.0, 3.0, 1.0, 4.0, 3.0];
    let mut d = DatasetState {
        name: "d".into(),
        dim: 2,
        base_epoch: 1,
        appends: 1,
        deletes: 1,
        dead_rows: base[2..4].to_vec(),
        dead_ids: vec![1],
        base_coords: base,
        delta_rows: vec![0.5, 0.5],
        delta_ids: vec![4],
    };
    edit(&mut d);
    CatalogState {
        last_lsn: 0,
        datasets: vec![d],
        weight_sets: Vec::new(),
    }
    .encode()
}

#[test]
fn snapshots_a_catalog_could_not_write_refuse_to_build() {
    // Each image is CRC-valid and decodes; each breaks one overlay rule
    // that a recovered catalog used to accept and a pool worker then
    // panicked on (the last one only at the next append).
    type Edit = fn(&mut DatasetState);
    let broken: [(&str, Edit); 4] = [
        ("a tombstone past the base", |d| d.dead_ids = vec![9]),
        ("a delta id inside the base", |d| d.delta_ids = vec![2]),
        ("unsorted delta ids", |d| {
            d.delta_rows = vec![0.5, 0.5, 0.25, 0.25];
            d.delta_ids = vec![5, 4];
            d.appends = 2;
        }),
        ("an allocator behind its delta ids", |d| d.appends = 0),
    ];
    for (what, edit) in broken {
        let dir = TempDir::new("badoverlay");
        std::fs::write(dir.path().join(SNAPSHOT_FILE), snapshot_image(edit)).unwrap();
        match Engine::builder()
            .workers(1)
            .data_dir(dir.path())
            .try_build()
        {
            Err(EngineError::Durability { reason }) => {
                assert!(reason.contains("inconsistent"), "{what}: {reason}")
            }
            Err(other) => panic!("{what}: expected a durability error, got {other}"),
            Ok(_) => panic!("{what}: the image must refuse to build"),
        }
    }

    // The consistent image recovers and serves like the catalog it
    // describes: same answers, same epoch, the allocator resumes at 5.
    let dir = TempDir::new("goodoverlay");
    std::fs::write(dir.path().join(SNAPSHOT_FILE), snapshot_image(|_| ())).unwrap();
    let recovered = Engine::builder()
        .workers(1)
        .data_dir(dir.path())
        .try_build()
        .expect("a consistent image recovers");
    let oracle = Engine::builder().workers(1).build();
    oracle
        .register_dataset("d", 2, vec![1.0, 4.0, 2.0, 2.0, 3.0, 1.0, 4.0, 3.0])
        .unwrap();
    oracle.append_points("d", &[0.5, 0.5]).unwrap();
    oracle.delete_points("d", &[1]).unwrap();
    for e in [&recovered, &oracle] {
        assert_eq!(e.append_points("d", &[0.25, 0.75]).unwrap(), 5);
        assert_eq!(e.delete_points("d", &[5]).unwrap(), 4, "id 5 was allocated");
    }
    let battery = || {
        vec![
            Request::TopK {
                dataset: "d".into(),
                weight: vec![0.3, 0.7],
                k: 3,
            },
            Request::ReverseTopKBi {
                dataset: "d".into(),
                weights: WeightSet::Inline(vec![vec![0.2, 0.8], vec![0.8, 0.2]]),
                q: vec![2.5, 2.5],
                k: 2,
            },
        ]
    };
    let answers = recovered.submit_batch(battery());
    assert!(answers.iter().all(|r| !r.is_error()), "{answers:?}");
    assert_eq!(answers, oracle.submit_batch(battery()));
    assert_eq!(
        recovered.catalog().epoch("d").unwrap(),
        oracle.catalog().epoch("d").unwrap()
    );
}

#[test]
fn the_snapshot_bytes_of_a_fixed_catalog_are_pinned() {
    // Register, appends, deletes of base and appended rows, and a weight
    // set: the CRC-32 of the `WQSN` image `checkpoint` writes for them.
    // A changed value is a changed snapshot format.
    let dir = TempDir::new("pinned");
    let e = durable(dir.path());
    e.register_dataset("d", 2, vec![1.0, 4.0, 2.0, 2.0, 3.0, 1.0, 4.0, 3.0])
        .unwrap();
    let rows = [0.5, 0.5, 2.5, 0.75, 3.5, 3.5]; // ids 4, 5, 6
    e.append_points("d", &rows).unwrap();
    e.delete_points("d", &[2, 5]).unwrap();
    e.append_points("d", &[1.5, 1.25]).unwrap(); // id 7
    e.delete_points("d", &[0, 4]).unwrap();
    e.register_dataset("e", 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        .unwrap();
    e.register_weights(
        "pop",
        vec![Weight::new(vec![0.25, 0.75]), Weight::new(vec![0.5, 0.5])],
    )
    .unwrap();
    assert!(e.checkpoint().unwrap());
    let bytes = std::fs::read(dir.path().join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(&bytes[..4], b"WQSN");
    assert_eq!(
        wqrtq_codec::crc32::checksum(&bytes),
        0x9473_60b2,
        "snapshot bytes changed ({} bytes)",
        bytes.len()
    );
}
