#!/usr/bin/env bash
# Runs the serving benchmarks and emits four JSON reports at the repo
# root:
#
#   BENCH_engine.json   — batched-engine vs sequential throughput on the
#                         mixed workload, at 1 worker and at --workers;
#   BENCH_rank.json     — single bichromatic reverse top-k latency: the
#                         flat-kernel RTA vs the naive oracle, plus engine
#                         worker scaling (1 vs --workers);
#   BENCH_mutation.json — append-heavy interleaved workload: the delta
#                         overlay vs the rebuild-per-mutation baseline;
#   BENCH_server.json   — the TCP front door vs in-process submission:
#                         connections × pipeline-depth sweep over the
#                         wire protocol;
#   BENCH_whynot.json   — the why-not advisor: plan throughput and
#                         per-case latency (all three strategies, every
#                         step verified), plus the streaming
#                         first-partial headstart;
#   BENCH_scale.json    — the two-tier data plane at scale: membership
#                         probes, flat count kernels and the RTA sweep
#                         with the dominance mask + quantized tier on vs
#                         off, per (n, dim) cell (10-M cells are opt-in:
#                         run scale_bench directly with --ns 10000000);
#   BENCH_durability.json — WAL logging overhead vs the in-memory
#                         mutation path (buffered and per-record fsync),
#                         recovery replay speed per 100k WAL records,
#                         and the recovered-bit-identical truth guard.
#
# The server bench additionally writes STATS_server.json — the server's
# full observability snapshot (engine metrics + front-door counters, the
# payload a wire `stats` request returns) after the sweep. Nightly CI
# uploads it as an artifact.
#
# Every emitted report is validated (well-formed JSON, non-empty) before
# the script moves on — a crashed or truncated bench run fails loudly
# here instead of committing garbage for CI to compare against.
#
# Usage:
#   scripts/bench.sh            # full workloads (20K × 3-D, |W| = 500; 100K mutation)
#   scripts/bench.sh --smoke    # tiny configuration (CI keep-compiling run)
#                               # + the mutation differential fuzz in
#                               #   release mode (debug assertions off)
#
# For custom workloads, run the binaries directly — their flag sets
# differ (engine_bench: --batch/--rounds; rank_bench: --weights/--k;
# mutation_bench: --ops/--append-rows; server_bench:
# --connections/--depth/--requests):
#   cargo run --release -p wqrtq-bench --bin engine_bench -- --n 50000 --workers 8
#   cargo run --release -p wqrtq-bench --bin rank_bench -- --weights 2000
#   cargo run --release -p wqrtq-bench --bin mutation_bench -- --n 200000 --ops 800
#   cargo run --release -p wqrtq-bench --bin server_bench -- --connections 8 --depth 32
#   cargo run --release -p wqrtq-bench --bin whynot_bench -- --n 20000 --rounds 24
#   cargo run --release -p wqrtq-bench --bin scale_bench -- --ns 10000000 --dims 3
#   cargo run --release -p wqrtq-bench --bin durability_bench -- --ops 5000 --replay-records 200000
set -euo pipefail

cd "$(dirname "$0")/.."

WORKERS=4
SMOKE=0
ENGINE_ARGS=(--workers "$WORKERS")
RANK_ARGS=(--workers "$WORKERS")
MUTATION_ARGS=(--workers "$WORKERS")
SERVER_ARGS=(--workers "$WORKERS")
WHYNOT_ARGS=(--workers "$WORKERS")
DURABILITY_ARGS=(--workers "$WORKERS")
# scale_bench exercises the shared kernels directly (no engine pool), so
# it takes no --workers; the full sweep covers 100 K across dims plus
# the 1-M gate cell at d = 3 (the cell the committed speedup floors
# guard — the largest-n cell at d = 3 in the report).
SCALE_ARGS=(--cells 100000:3,100000:5,100000:8,1000000:3)
if [[ "${1:-}" == "--smoke" ]]; then
    shift
    SMOKE=1
    ENGINE_ARGS+=(--n 3000 --batch 16 --rounds 2)
    RANK_ARGS+=(--n 3000 --weights 150 --repeats 3)
    MUTATION_ARGS+=(--n 5000 --ops 60)
    SERVER_ARGS+=(--n 3000 --requests 120 --connections 2 --depth 8)
    WHYNOT_ARGS+=(--n 3000 --rounds 8 --samples 64 --query-samples 24)
    SCALE_ARGS=(--ns 20000 --dims 3 --weights 60 --repeats 2)
    DURABILITY_ARGS+=(--n 3000 --ops 400 --replay-records 5000)
fi
if [[ $# -gt 0 ]]; then
    echo "error: unknown arguments: $*" >&2
    echo "       (this script takes only --smoke; see its header for custom runs)" >&2
    exit 2
fi

# Fails fast when a bench emitted a truncated or malformed report.
validate_json() {
    local file="$1"
    if [[ ! -s "$file" ]]; then
        echo "error: $file is missing or empty" >&2
        exit 1
    fi
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$file" <<'EOF' || { echo "error: $1 is not valid JSON" >&2; exit 1; }
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
if not isinstance(report, dict) or not report:
    sys.exit(f"{sys.argv[1]}: expected a non-empty JSON object")
EOF
    else
        # Minimal structural check when python3 is unavailable: the
        # report must open and close a JSON object.
        local first last
        first=$(head -c 1 "$file")
        last=$(tail -c 2 "$file" | tr -d '\n')
        if [[ "$first" != "{" || "$last" != "}" ]]; then
            echo "error: $file does not look like a complete JSON object" >&2
            exit 1
        fi
    fi
}

cargo build --release -p wqrtq-bench \
    --bin engine_bench --bin rank_bench --bin mutation_bench --bin server_bench \
    --bin whynot_bench --bin scale_bench --bin durability_bench

cargo run --release -p wqrtq-bench --bin engine_bench -- \
    --out BENCH_engine.json "${ENGINE_ARGS[@]}"
validate_json BENCH_engine.json
cargo run --release -p wqrtq-bench --bin rank_bench -- \
    --out BENCH_rank.json "${RANK_ARGS[@]}"
validate_json BENCH_rank.json
cargo run --release -p wqrtq-bench --bin mutation_bench -- \
    --out BENCH_mutation.json "${MUTATION_ARGS[@]}"
validate_json BENCH_mutation.json
cargo run --release -p wqrtq-bench --bin server_bench -- \
    --out BENCH_server.json --stats-out STATS_server.json "${SERVER_ARGS[@]}"
validate_json BENCH_server.json
validate_json STATS_server.json
cargo run --release -p wqrtq-bench --bin whynot_bench -- \
    --out BENCH_whynot.json "${WHYNOT_ARGS[@]}"
validate_json BENCH_whynot.json
cargo run --release -p wqrtq-bench --bin scale_bench -- \
    --out BENCH_scale.json "${SCALE_ARGS[@]}"
validate_json BENCH_scale.json
cargo run --release -p wqrtq-bench --bin durability_bench -- \
    --out BENCH_durability.json "${DURABILITY_ARGS[@]}"
validate_json BENCH_durability.json

if [[ "$SMOKE" == 1 ]]; then
    # Oracle-equivalence of the delta overlay with debug assertions off:
    # the differential fuzz at reduced rounds, in release mode.
    WQRTQ_FUZZ_ROUNDS=3 cargo test -q --release --test mutation_fuzz
    # Crash-recovery equivalence under random WAL kill-points, likewise
    # with debug assertions off.
    WQRTQ_FUZZ_ROUNDS=3 cargo test -q --release --test recovery_fuzz
fi

echo "--- BENCH_engine.json ---"
cat BENCH_engine.json
echo "--- BENCH_rank.json ---"
cat BENCH_rank.json
echo "--- BENCH_mutation.json ---"
cat BENCH_mutation.json
echo "--- BENCH_server.json ---"
cat BENCH_server.json
echo "--- BENCH_whynot.json ---"
cat BENCH_whynot.json
echo "--- BENCH_scale.json ---"
cat BENCH_scale.json
echo "--- BENCH_durability.json ---"
cat BENCH_durability.json
