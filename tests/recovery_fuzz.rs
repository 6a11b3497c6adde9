//! Crash-recovery soak: mutation fuzz with random kill-points.
//!
//! Each round drives a durable engine through two phases of random
//! mutations — phase 1 ends in an explicit checkpoint (so recovery
//! crosses a snapshot boundary), phase 2 lands in the WAL — then
//! simulates a crash by **truncating `wal.log` at a uniformly random
//! byte offset** (a torn tail, mid-record more often than not) and
//! recovers. The WAL's own replay count names exactly which prefix of
//! the logical operation stream survived; an in-memory oracle replays
//! that prefix, and the recovered engine must answer the whole query
//! battery **bit-identically** and agree on the epoch triple.
//!
//! On a mismatch the failing WAL image and snapshot are written to
//! `target/recovery-failures/<tag>/` before the panic, so CI can
//! upload them as artifacts.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the rounds (default 6; the nightly soak
//! raises it).

use std::path::{Path, PathBuf};
use wqrtq::engine::{Engine, Request, Response, WeightSet};
use wqrtq::prelude::{StrategyKind, WhyNotOptions};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn coords(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng(seed | 1);
    (0..n * 2).map(|_| rng.unit() * 10.0).collect()
}

/// One logical mutation, generated once and replayed verbatim into
/// both the durable engine and the post-crash oracle. Every op logs
/// exactly one WAL record, so `wal_replayed` counts surviving ops.
#[derive(Clone, Debug)]
enum Op {
    Register { n: usize, seed: u64 },
    Append { rows: usize, seed: u64 },
    Delete { ids: Vec<u32> },
    Weights { name: String, seed: u64 },
}

fn apply(e: &Engine, op: &Op) {
    match op {
        Op::Register { n, seed } => e.register_dataset("d", 2, coords(*n, *seed)).unwrap(),
        Op::Append { rows, seed } => {
            e.append_points("d", &coords(*rows, *seed)).unwrap();
        }
        Op::Delete { ids } => {
            e.delete_points("d", ids).unwrap();
        }
        Op::Weights { name, seed } => {
            let mut rng = Rng(*seed | 1);
            let weights = (0..3)
                .map(|_| {
                    let a = 0.05 + 0.9 * rng.unit();
                    wqrtq::Weight::new(vec![a, 1.0 - a])
                })
                .collect();
            e.register_weights(name, weights).unwrap();
        }
    }
}

/// Live ids of dataset `d` — enough state to keep generating valid
/// deletes as the stream grows.
#[derive(Default)]
struct IdModel {
    ids: Vec<u32>,
    next_id: u32,
}

impl IdModel {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Register { n, .. } => {
                self.ids = (0..*n as u32).collect();
                self.next_id = *n as u32;
            }
            Op::Append { rows, .. } => {
                for _ in 0..*rows {
                    self.ids.push(self.next_id);
                    self.next_id += 1;
                }
            }
            Op::Delete { ids } => self.ids.retain(|id| !ids.contains(id)),
            Op::Weights { .. } => {}
        }
    }
}

/// A random op that is valid given the model's current state. `tag`
/// keeps weight-population names unique (they are immutable).
fn random_op(rng: &mut Rng, model: &IdModel, tag: usize) -> Op {
    match rng.below(100) {
        0..=44 => Op::Append {
            rows: 1 + rng.below(4),
            seed: rng.next(),
        },
        45..=79 if model.ids.len() > 4 => {
            let mut ids = vec![model.ids[rng.below(model.ids.len())]];
            let other = model.ids[rng.below(model.ids.len())];
            if !ids.contains(&other) {
                ids.push(other);
            }
            Op::Delete { ids }
        }
        80..=92 => Op::Weights {
            name: format!("w{tag}"),
            seed: rng.next(),
        },
        _ => Op::Register {
            n: 8 + rng.below(24),
            seed: rng.next(),
        },
    }
}

fn battery() -> Vec<Request> {
    vec![
        Request::TopK {
            dataset: "d".into(),
            weight: vec![0.35, 0.65],
            k: 5,
        },
        Request::TopK {
            dataset: "d".into(),
            weight: vec![0.7, 0.3],
            k: 1000, // larger than the dataset: full enumeration
        },
        Request::ReverseTopKMono {
            dataset: "d".into(),
            q: vec![4.0, 4.0],
            k: 3,
            samples: 0,
            seed: 0,
        },
        Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Inline(vec![vec![0.2, 0.8], vec![0.5, 0.5], vec![0.85, 0.15]]),
            q: vec![5.0, 3.0],
            k: 4,
        },
        // Explanation (culprits capped at 6) plus one sampled-path
        // strategy; `k = 1` keeps the vector a genuine why-not vector on
        // nearly every surviving prefix.
        Request::WhyNot {
            dataset: "d".into(),
            q: vec![3.0, 6.0],
            k: 1,
            why_not: vec![vec![0.45, 0.55]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                culprit_limit: 6,
                exact_2d: false,
                ..WhyNotOptions::default()
            },
        },
    ]
}

fn durable(dir: &Path) -> Engine {
    Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX) // background merges would checkpoint
        .data_dir(dir)
        .build()
}

fn fuzz_rounds() -> usize {
    std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// Preserves the failing durable images for CI artifact upload.
fn save_failure(tag: &str, wal: &[u8], snapshot: Option<&[u8]>) -> PathBuf {
    let dir = Path::new("target/recovery-failures").join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), wal).unwrap();
    if let Some(snap) = snapshot {
        std::fs::write(dir.join("catalog.snap"), snap).unwrap();
    }
    dir
}

fn run_round(seed: u64) {
    let mut rng = Rng(seed | 1);
    let dir =
        std::env::temp_dir().join(format!("wqrtq-recovery-fuzz-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut ops: Vec<Op> = vec![Op::Register {
        n: 16 + rng.below(32),
        seed: rng.next(),
    }];
    let mut model = IdModel::default();

    let phase1_len;
    {
        let e = durable(&dir);
        // Phase 1: random mutations, then the checkpoint recovery must
        // cross.
        for i in 0..(2 + rng.below(5)) {
            ops.push(random_op(&mut rng, &model, i));
        }
        for op in &ops {
            apply(&e, op);
            model.apply(op);
        }
        e.checkpoint().unwrap();
        phase1_len = ops.len();
        // Phase 2: mutations that land in the WAL, one record each.
        for i in 0..(2 + rng.below(6)) {
            let op = random_op(&mut rng, &model, 100 + i);
            apply(&e, &op);
            model.apply(&op);
            ops.push(op);
        }
    }

    // Kill-point: truncate the WAL at a uniformly random byte offset.
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    let cut = rng.below(full.len() + 1);
    std::fs::write(&wal_path, &full[..cut]).unwrap();
    let snapshot = std::fs::read(dir.join("catalog.snap")).ok();

    // Recover. The snapshot covers everything up to the checkpoint;
    // each phase-2 op logged exactly one record, so the replay count
    // names the surviving prefix of the op stream.
    let recovered = durable(&dir);
    let stats = recovered.metrics().catalog;
    assert_eq!(stats.recoveries, 1, "seed {seed}");
    let survived = {
        let replayed = stats.wal_replayed as usize;
        assert!(
            replayed <= ops.len() - phase1_len,
            "seed {seed}: replayed {replayed} of {} phase-2 records",
            ops.len() - phase1_len
        );
        phase1_len + replayed
    };

    let oracle = Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build();
    for op in &ops[..survived] {
        apply(&oracle, op);
    }

    let got = recovered.submit_batch(battery());
    let want = oracle.submit_batch(battery());
    let epochs = (
        recovered.catalog().epoch("d").unwrap(),
        oracle.catalog().epoch("d").unwrap(),
    );
    if got != want || epochs.0 != epochs.1 {
        let saved = save_failure(
            &format!("seed-{seed}-cut-{cut}"),
            &full[..cut],
            snapshot.as_deref(),
        );
        panic!(
            "seed {seed}, cut {cut}: recovered state diverges from the oracle \
             (surviving prefix {survived}/{}, epochs {} vs {}); \
             failing images saved to {}",
            ops.len(),
            epochs.0,
            epochs.1,
            saved.display()
        );
    }

    assert!(
        got.iter().any(|r| matches!(r, Response::Plan(_))),
        "seed {seed}: the why-not request errored — no plan was compared"
    );

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_kill_points_always_recover_a_consistent_prefix() {
    for round in 0..fuzz_rounds() {
        let seed = 0xD00D + round as u64 * 7919;
        run_round(seed);
    }
}
