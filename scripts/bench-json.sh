#!/usr/bin/env bash
# Regenerate the bench summary (and, by extension, bench/baseline.json)
# with one command:
#
#     scripts/bench-json.sh                 # writes BENCH.json
#     scripts/bench-json.sh bench/baseline.json
#
# Runs the pinned criterion groups of the bench-regression CI job
# (operators_micro: prepared_vs_cold, columnar_vs_row incl. the kernel
# benches, rank_join_topk; the ablation_sketch
# NDV-accuracy sweep; the ablation_write_path epoch-vs-rebuild write
# benches; and the ablation_buffer_pool paged-backend pool-size sweep) and
# converts the concatenated harness output into the stable JSON schema via
# scripts/bench_to_json.py.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH.json}"

{
    cargo bench -p ranksql-bench --bench operators_micro
    cargo bench -p ranksql-bench --bench ablation_sketch
    cargo bench -p ranksql-bench --bench ablation_write_path
    cargo bench -p ranksql-bench --bench ablation_buffer_pool
} \
    | tee /dev/stderr \
    | python3 scripts/bench_to_json.py --out "$OUT"

echo "wrote $OUT" >&2
