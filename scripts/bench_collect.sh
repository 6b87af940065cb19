#!/usr/bin/env sh
# Runs every benchmark binary with `--json`, then merges the per-bench documents
# (schema "tock-bench-v1", see bench/bench_json.h) into one machine-readable
# results file:
#
#   {"schema":"tock-bench-results-v1","results":[ <per-bench doc>, ... ],
#    "failed":[ {"bench":"<name>","exit_code":N,"json":true|false}, ... ]}
#
# A failing bench does not stop collection: every bench runs, each document a
# bench wrote is kept (BenchReporter writes it on exit, gate failures included),
# and each bench that exited nonzero or wrote no document is listed in "failed".
# The script exits 1 when "failed" is not empty. A missing binary is listed with
# exit code 127.
#
# Usage: scripts/bench_collect.sh [output.json]
#   BUILD_DIR=build-foo scripts/bench_collect.sh    # non-default build tree
#
# The merge is plain concatenation — no jq/python dependency.
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_results.json}"

BENCHES="fig5_trusted_loc tab_syscall_sequences fig_energy_dutycycle \
tab_grant_exhaustion tab_allow_semantics tab_overlap_checks \
tab_process_loading tab_timer_virtualization tab_scheduler_policies \
tab_isolation_cost fig4_subslice tab_register_dsl tab_callbacks_vs_futures \
tab_hotpath_throughput tab_fleet_scaling tab_ota_throughput \
tab_telemetry_overhead"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT INT TERM

failed=""
for b in $BENCHES; do
  bin="$BUILD_DIR/bench/$b"
  json="$tmpdir/$b.json"
  code=0
  if [ -x "$bin" ]; then
    echo "==== running $b ===="
    "$bin" --json "$json" || code=$?
  else
    echo "error: $bin not found — build first (cmake --build $BUILD_DIR)" >&2
    code=127
  fi
  has_json=true
  if [ ! -s "$json" ]; then
    echo "error: $b produced no JSON output" >&2
    has_json=false
  fi
  if [ "$code" -ne 0 ] || [ "$has_json" = false ]; then
    [ "$code" -ne 0 ] && echo "error: $b exited $code" >&2
    failed="$failed $b:$code:$has_json"
  fi
done

{
  printf '{"schema":"tock-bench-results-v1","results":[\n'
  first=1
  for b in $BENCHES; do
    [ -s "$tmpdir/$b.json" ] || continue
    if [ "$first" = 1 ]; then first=0; else printf ',\n'; fi
    # Strip the trailing newline so the separator placement stays tidy.
    printf '%s' "$(cat "$tmpdir/$b.json")"
  done
  printf '\n],"failed":['
  first=1
  for f in $failed; do
    if [ "$first" = 1 ]; then first=0; else printf ','; fi
    rest="${f#*:}"  # f is name:exit_code:json
    printf '{"bench":"%s","exit_code":%s,"json":%s}' "${f%%:*}" "${rest%%:*}" "${rest#*:}"
  done
  printf ']}\n'
} >"$OUT"

echo "wrote $OUT ($(wc -c <"$OUT") bytes, $(echo "$BENCHES" | wc -w) benches)"
if [ -n "$failed" ]; then
  echo "error: failed benches:$failed" >&2
  exit 1
fi
