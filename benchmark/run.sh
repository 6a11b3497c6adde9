#!/usr/bin/env bash
# Developer entry point for the whole-stack benchmark.
#
#   benchmark/run.sh                 full suite: 5 runs x 4 workloads (+ one traced run each)
#   benchmark/run.sh --smoke         every workload once, untraced, --seconds 1 --setups 1 (< 30 s after the build)
#   benchmark/run.sh --check         cargo fmt --check + clippy -D warnings + unit tests + compare --self-test
#   benchmark/run.sh compare A B     apply the regression bounds to two suite reports
#   benchmark/run.sh <anything else> passed to the binary (run --workload ..., manifest, --self-test)
#
# Reports land in benchmark/out/ (ignored by git). Every report carries
# the machine fingerprint: nproc, CPU model, kernel, rustc and commit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"

# Reuse the workspace's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
export WQRTQ_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export WQRTQ_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

bench() {
  cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

# Scratch directories are removed by the binary itself; this catches the
# ones a killed run left behind.
cleanup() { rm -rf "$here"/out/tmp-*; }
trap cleanup EXIT

case "${1:-}" in
  --smoke)
    for workload in serve_topk rtopk_scan whynot_plan mutate_mix; do
      bench run --workload "$workload" --seconds 1 --trace 0 --setups 1 | tail -n 1 |
        grep -q '"correct": true' || { echo "smoke: $workload FAILED" >&2; exit 1; }
      echo "smoke: $workload ok"
    done
    ;;
  --check)
    cargo fmt --manifest-path "$here/Cargo.toml" -- --check
    cargo clippy --release --offline --all-targets --manifest-path "$here/Cargo.toml" -- -D warnings
    cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
    bench --self-test
    ;;
  "")
    bench suite --runs 5
    ;;
  *)
    bench "$@"
    ;;
esac
