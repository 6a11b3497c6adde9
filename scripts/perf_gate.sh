#!/usr/bin/env bash
# "Did this change make anything slower?" — the one perf gate.
#
#   scripts/perf_gate.sh [PARENT_REF]      (default: HEAD~1)
#
# Checks the parent out with `git worktree add` into a temp dir, runs
# `benchmark/run.sh suite` (5 runs x 4 workloads + one traced run each)
# on it with its own CARGO_TARGET_DIR, runs the same suite on this
# working tree, then applies BENCHMARK.json's bounds with
# `benchmark/run.sh compare parent.json suite.json`. Both reports stay in
# benchmark/out/ (git-ignored).
#
# The two sides run back to back, parent first, not interleaved
# (interleaving needs a change under benchmark/): on a noisy box read the
# spreads compare prints before believing a difference.
#
# Exit code is compare's: non-zero on any REGRESSION or incorrect run.
# `unresolved` cells do not fail the gate — but for a PR that claims a
# gain, an `unresolved` verdict on the claimed cell is not a pass.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out"
tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

mkdir -p "$out"
git -C "$root" worktree add --detach "$tmp/parent" "${1:-HEAD~1}"
CARGO_TARGET_DIR="$tmp/target" "$tmp/parent/benchmark/run.sh" suite --out "$out/parent.json"
"$root/benchmark/run.sh" suite --out "$out/suite.json"
"$root/benchmark/run.sh" compare "$out/parent.json" "$out/suite.json"
