#!/usr/bin/env bash
# Micro-bench trajectory: runs the radio, event-queue, xmits-estimator,
# topology, and node-set-codec microbenchmarks and merges them into one
# BENCH_radio.json, so component speedups stay machine-tracked across
# changes. Compare two points with tools/bench_compare.py. End-to-end
# performance is measured by the fixed-work benchmark (perfbench/run.py)
# and gated by tools/perf_gate.py.
#
# Usage: tools/bench_json.sh [build-dir] [output.json]
#   build-dir   defaults to build-release (cmake --preset release)
#   output.json defaults to BENCH_radio.json in the repo root
# Environment:
#   BENCH_MIN_TIME  google-benchmark min seconds per bench (default 0.2;
#                   CI smoke uses 0.05)
#   BENCH_FILTER    optional --benchmark_filter regex forwarded to all
#                   microbenchmark binaries
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build-release}"
out="${2:-${repo_root}/BENCH_radio.json}"
min_time="${BENCH_MIN_TIME:-0.2}"
filter="${BENCH_FILTER:-}"

bench_dir="${repo_root}/${build_dir}/bench"
micro_benches=(micro_radio micro_event_queue micro_xmits micro_topology micro_nodeset)
for name in "${micro_benches[@]}"; do
  if [[ ! -x "${bench_dir}/bench_${name}" ]]; then
    echo "error: ${bench_dir}/bench_${name} not built (run: cmake --preset release && cmake --build --preset release)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

bench_args=(--benchmark_min_time="${min_time}" --benchmark_out_format=json)
[[ -n "${filter}" ]] && bench_args+=(--benchmark_filter="${filter}")

for name in "${micro_benches[@]}"; do
  "${bench_dir}/bench_${name}" "${bench_args[@]}" \
      --benchmark_out="${tmp}/${name}.json" >&2
done

commit="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"

python3 - "${tmp}" "${out}" "${commit}" "${min_time}" "${micro_benches[@]}" <<'PY'
import json
import sys

tmp, out, commit, min_time, *names = sys.argv[1:]
doc = {
    "schema": "scoop-bench-v1",
    "commit": commit,
    "benchmark_min_time_seconds": float(min_time),
}
for name in names:
    doc[name] = json.load(open(f"{tmp}/{name}.json"))
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {out}")
PY
