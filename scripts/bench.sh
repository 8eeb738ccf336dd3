#!/usr/bin/env bash
# Benchmark runner: builds the offline microbench harness and records a
# machine-readable snapshot of the deductive-engine hot paths.
#
# Usage:
#   scripts/bench.sh                 # writes BENCH_<YYYY-MM-DD>.json
#   scripts/bench.sh out.json        # explicit output file
#   scripts/bench.sh --compare BENCH_old.json [out.json]
#                                    # run, then fail if any bench present
#                                    # in BOTH snapshots regressed >10%
#   BENCH_ITERS=31 scripts/bench.sh  # more samples per bench
#
# The JSON schema is gom-bench/microbench/v1: per bench, the name, median
# and min wall-clock nanoseconds, work units per iteration, and derived
# units/second throughput. Keep the committed BENCH_*.json files so the
# perf trajectory is reviewable PR over PR. The --compare gate only looks
# at rows shared by both files: brand-new benches can land freely, but a
# pre-existing row whose median grows beyond 110% of the old snapshot
# fails the run.
#
# Alongside the microbench snapshot, the SLO load harness (bench_slo)
# records a gom-bench/slo/v1 report to <out>_slo.json: per-verb p50/p99
# client-observed latency under a seeded multi-client evolution trace.
# --compare also diffs slo rows when the baseline has a sibling
# <old>_slo.json, with a lenient 1.5x p99 gate — wall-clock percentiles
# under thread contention are far noisier than single-thread medians, and
# the histogram buckets themselves are power-of-two quantized.
# BENCH_SLO_SESSIONS=0 skips the slo run entirely.

set -euo pipefail
cd "$(dirname "$0")/.."

compare_to=""
if [ "${1:-}" = "--compare" ]; then
  compare_to="${2:?usage: scripts/bench.sh --compare <old.json> [out.json]}"
  [ -f "$compare_to" ] || { echo "no such baseline: $compare_to"; exit 1; }
  shift 2
fi

out="${1:-BENCH_$(date +%F).json}"
iters="${BENCH_ITERS:-15}"
slo_sessions="${BENCH_SLO_SESSIONS:-200}"
slo_out="${out%.json}_slo.json"

cargo build --release -p gom-bench --bin microbench --bin bench_slo
./target/release/microbench --iters "$iters" --out "$out"
echo "benchmark snapshot written to $out"

if [ "$slo_sessions" != "0" ]; then
  ./target/release/bench_slo --seed 7 --sessions "$slo_sessions" \
    --writers 4 --readers 8 --out "$slo_out"
  echo "slo snapshot written to $slo_out"
fi

if [ -n "$compare_to" ]; then
  echo "comparing against $compare_to (fail on >10% median regression)"
  # The v1 schema emits one bench per line; pull (name, median_ns) pairs.
  medians() {
    sed -n 's/.*"name": "\([^"]*\)", "median_ns": \([0-9]*\).*/\1 \2/p' "$1"
  }
  medians "$compare_to" > /tmp/bench_old.$$
  medians "$out" > /tmp/bench_new.$$
  awk -v old=/tmp/bench_old.$$ '
    BEGIN {
      while ((getline line < old) > 0) {
        split(line, f, " "); base[f[1]] = f[2] + 0
      }
    }
    {
      name = $1; med = $2 + 0
      if (!(name in base)) { printf "  NEW  %-28s %12d ns\n", name, med; next }
      ratio = med / base[name]
      verdict = ratio > 1.10 ? "REGRESSED" : "ok"
      printf "  %-9s %-28s %12d -> %12d ns (%.2fx)\n", \
             verdict, name, base[name], med, ratio
      if (ratio > 1.10) bad++
    }
    END { if (bad > 0) { printf "%d bench(es) regressed >10%%\n", bad; exit 1 } }
  ' /tmp/bench_new.$$ && status=0 || status=$?
  rm -f /tmp/bench_old.$$ /tmp/bench_new.$$

  # SLO rows: compare per-verb p99 against the baseline's sibling
  # <old>_slo.json when both snapshots exist.
  slo_baseline="${compare_to%.json}_slo.json"
  if [ -f "$slo_baseline" ] && [ -f "$slo_out" ]; then
    echo "comparing slo rows against $slo_baseline (fail on >50% p99 regression)"
    p99s() {
      sed -n 's/.*"verb": "\([^"]*\)",.*"p99_us": \([0-9]*\).*/\1 \2/p' "$1"
    }
    p99s "$slo_baseline" > /tmp/slo_old.$$
    p99s "$slo_out" > /tmp/slo_new.$$
    awk -v old=/tmp/slo_old.$$ '
      BEGIN {
        while ((getline line < old) > 0) {
          split(line, f, " "); base[f[1]] = f[2] + 0
        }
      }
      {
        verb = $1; p99 = $2 + 0
        if (!(verb in base)) { printf "  NEW  %-8s p99 %9d us\n", verb, p99; next }
        ratio = base[verb] > 0 ? p99 / base[verb] : 1
        verdict = ratio > 1.50 ? "REGRESSED" : "ok"
        printf "  %-9s %-8s p99 %9d -> %9d us (%.2fx)\n", \
               verdict, verb, base[verb], p99, ratio
        if (ratio > 1.50) bad++
      }
      END { if (bad > 0) { printf "%d slo verb(s) regressed >50%%\n", bad; exit 1 } }
    ' /tmp/slo_new.$$ && slo_status=0 || slo_status=$?
    rm -f /tmp/slo_old.$$ /tmp/slo_new.$$
    if [ "$slo_status" -ne 0 ]; then status=$slo_status; fi
  fi
  exit $status
fi
