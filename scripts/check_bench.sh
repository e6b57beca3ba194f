#!/usr/bin/env bash
# check_bench.sh [bench-log] [json-out]
#
# Benchmark regression gate + machine-readable trajectory. Reads a
# `go test -bench ... -benchmem` log (or produces one itself when the
# bench-log argument is missing or empty) and:
#
#   1. fails if any benchmark pinned in the baseline file
#      (scripts/bench_baseline.txt; override the path with
#      $BENCH_BASELINE) reports more than 10% more allocs/op than its
#      recorded baseline —
#      allocation counts for the deterministic simulation benchmarks
#      don't vary with machine speed, so a trip means the code really
#      did start allocating more;
#   2. fails if a pinned ns/op baseline is exceeded by more than 2.0x —
#      a deliberately loose margin that absorbs machine-speed spread
#      across CI runners while still catching order-of-magnitude
#      regressions of the event-loop and pooled-pipeline wins;
#   3. when json-out is given, writes every benchmark result in the log
#      to that file as `name -> {ns_op, allocs_op, bytes_op}`, so the
#      perf history is tracked across PRs, not just gated. There is no
#      default path: a plain run never overwrites a committed BENCH_*.json.
#
# Update baselines only in the PR that deliberately changes the cost.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=${BENCH_BASELINE:-scripts/bench_baseline.txt}
log=${1:-}
json_out=${2:-}

if [ -n "$log" ]; then
  out=$(cat "$log")
else
  out=$(go test -run '^$' \
    -bench 'BenchmarkFigure5Responsiveness|BenchmarkFigure4Memoized|BenchmarkTable4Memoized|BenchmarkFigure4Instrumented' \
    -benchtime 1x -benchmem .)
  echo "$out"
fi

# Benchmark result lines look like:
#   BenchmarkFoo[-8]  1  123 ns/op [4.0 extra_metric]  456 B/op  789 allocs/op
# Emit the machine-readable trajectory first so it exists even when a
# gate below trips (CI uploads it either way).
if [ -n "$json_out" ]; then
  echo "$out" | awk '
    BEGIN { print "{"; n = 0 }
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns = ""; bytes = ""; allocs = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      if (ns == "") next
      if (n++) printf ",\n"
      printf "  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s, \"bytes_op\": %s}", \
        name, ns, (allocs == "" ? "null" : allocs), (bytes == "" ? "null" : bytes)
    }
    END { if (n) printf "\n"; print "}" }
  ' > "$json_out"
  echo "bench trajectory: $(grep -c 'ns_op' "$json_out") results -> $json_out"
fi

fail=0
while read -r name base base_ns; do
  case "$name" in ''|\#*) continue ;; esac
  line=$(echo "$out" | grep -E "^$name(-[0-9]+)?[[:space:]]" || true)
  if [ -z "$line" ]; then
    echo "FAIL bench: no result for $name in log (run with -benchmem?)" >&2
    fail=1
    continue
  fi
  allocs=$(echo "$line" | sed -n 's/.*[[:space:]]\([0-9]*\) allocs\/op.*/\1/p')
  if [ -z "$allocs" ]; then
    echo "FAIL bench: no allocs/op figure for $name in: $line" >&2
    fail=1
    continue
  fi
  if ! awk -v a="$allocs" -v b="$base" 'BEGIN{exit !(a <= b * 1.10)}'; then
    echo "FAIL bench: $name at $allocs allocs/op exceeds baseline $base by >10%" >&2
    fail=1
  else
    echo "ok bench: $name at $allocs allocs/op (baseline $base, ceiling +10%)"
  fi
  if [ -n "$base_ns" ]; then
    ns=$(echo "$line" | sed -n 's/.*[[:space:]]\([0-9][0-9]*\) ns\/op.*/\1/p')
    if [ -z "$ns" ]; then
      echo "FAIL bench: no ns/op figure for $name in: $line" >&2
      fail=1
    elif ! awk -v a="$ns" -v b="$base_ns" 'BEGIN{exit !(a <= b * 2.0)}'; then
      echo "FAIL bench: $name at $ns ns/op exceeds baseline $base_ns by >2.0x" >&2
      fail=1
    else
      echo "ok bench: $name at $ns ns/op (baseline $base_ns, ceiling 2.0x)"
    fi
  fi
done < "$baseline"

if [ "$fail" -ne 0 ]; then
  echo "bench check failed; baselines are in $baseline" >&2
  exit 1
fi
echo "bench check passed (baselines: $baseline)"
