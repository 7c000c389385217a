#!/usr/bin/env bash
# Records the repo's perf trajectory as machine-readable JSON: builds the
# bench drivers and runs the ingress, network, and storage benches with
# their table recorders routed to BENCH_*.json files (schema documented in
# docs/OBSERVABILITY.md — every table the bench prints, plus the run scale).
#
#   tools/run_benches.sh [--smoke] [--out DIR] [--build-dir DIR]
#
#   --smoke       CI-sized run: HARMONY_BENCH_SCALE=0.05 (unless already
#                 set) and a small net_bench connection count.
#   --out DIR     where BENCH_ingest.json / BENCH_net.json /
#                 BENCH_storage.json land (default: the repo root).
#   --build-dir   bench build tree (default: <repo>/build-bench).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-bench"
out="$root"
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --out) out="$2"; shift ;;
    --build-dir) build="$2"; shift ;;
    *) echo "unknown flag $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ $smoke -eq 1 ]]; then
  export HARMONY_BENCH_SCALE="${HARMONY_BENCH_SCALE:-0.05}"
fi

cmake -B "$build" -S "$root" \
  -DHARMONY_BUILD_TESTS=OFF -DHARMONY_BUILD_BENCHES=ON
cmake --build "$build" -j"$(nproc)" \
  --target ingest_bench net_bench fig21_storage large_state_bench harmonyd

mkdir -p "$out"

# ingest_bench: session ingress, compression, tracing overhead (the
# off-vs-on pair the <2% budget is judged against).
"$build/ingest_bench" --json-out "$out/BENCH_ingest.json"

# net_bench: wire vs batched-wire vs in-process, plus the per-stage table.
if [[ $smoke -eq 1 ]]; then
  "$build/net_bench" --conns 16 --txns 300 --json-out "$out/BENCH_net.json"
else
  "$build/net_bench" --json-out "$out/BENCH_net.json"
fi

# fig21_storage predates --json-out flags; the harness env var routes its
# tables the same way.
HARMONY_BENCH_JSON="$out/BENCH_storage.json" "$build/fig21_storage"

# large_state_bench: working set >> pool — parallel group-flush scaling,
# pool hit rate, block-log truncation bounds, cold recovery time. Its
# tables merge into BENCH_storage.json (one storage trajectory file).
"$build/large_state_bench" --json-out "$out/BENCH_storage.large.tmp.json"
jq -s '{schema: .[0].schema, scale: .[0].scale,
        tables: (.[0].tables + .[1].tables)}' \
  "$out/BENCH_storage.json" "$out/BENCH_storage.large.tmp.json" \
  > "$out/BENCH_storage.merged.tmp.json"
mv "$out/BENCH_storage.merged.tmp.json" "$out/BENCH_storage.json"
rm -f "$out/BENCH_storage.large.tmp.json"

# net_bench --replicas: real 3-process leader+follower cluster over the
# wire replication frames (docs/REPLICATION.md), quorum-ack receipts,
# follower kill/rejoin mid-run, digest-identical shutdown.
if [[ $smoke -eq 1 ]]; then
  "$build/net_bench" --replicas 3 --conns 8 --txns 200 \
    --json-out "$out/BENCH_cluster.json"
else
  "$build/net_bench" --replicas 3 --conns 32 --txns 1000 \
    --json-out "$out/BENCH_cluster.json"
fi

for f in BENCH_ingest.json BENCH_net.json BENCH_storage.json \
         BENCH_cluster.json; do
  if [[ ! -s "$out/$f" ]]; then
    echo "run_benches: missing or empty $out/$f" >&2
    exit 1
  fi
done
echo "run_benches: wrote BENCH_{ingest,net,storage,cluster}.json to $out"
