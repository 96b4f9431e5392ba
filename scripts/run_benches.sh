#!/usr/bin/env bash
# Regenerates every paper artifact and records the output.
#
#   scripts/run_benches.sh [quick]
#
# "quick" shrinks the world to a smoke-test scale (~800 ASes).
set -u
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "quick" ]]; then
  export RROPT_QUICK=1
fi

cmake -B build
cmake --build build -j "$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

# Collect the machine-readable telemetry the benches wrote alongside the
# textual log (one BENCH_<name>.json per bench binary), then consolidate
# it into a single BENCH_all.json keyed by bench name. Every bench's JSON
# uniformly carries "threads" and "peak_rss_mib" (bench/telemetry.h
# records them at finish() whether or not the bench did), so the summary
# below — and any diff of BENCH_all.json across runs — can compare memory
# and parallelism per bench, not just wall-clock.
mkdir -p bench_telemetry
mv -f BENCH_*.json bench_telemetry/ 2>/dev/null || true
scripts/collect_bench_telemetry.sh bench_telemetry
echo "telemetry: $(ls bench_telemetry 2>/dev/null | wc -l) files in bench_telemetry/"
echo
printf '%-16s %12s %8s %14s %12s %12s %9s\n' bench total_seconds threads \
  peak_rss_mib probes_sent probes_saved hit_rate
for f in bench_telemetry/BENCH_*.json; do
  [[ "$f" == */BENCH_all.json ]] && continue
  name=${f##*/BENCH_}; name=${name%.json}
  total=$(sed -n 's/.*"total_seconds": *\([0-9.eE+-]*\).*/\1/p' "$f" | head -n1)
  threads=$(sed -n 's/.*"threads": *\([0-9]*\).*/\1/p' "$f" | head -n1)
  rss=$(sed -n 's/.*"peak_rss_mib": *\([0-9.eE+-]*\).*/\1/p' "$f" | head -n1)
  sent=$(sed -n 's/.*"probes_sent": *\([0-9]*\).*/\1/p' "$f" | head -n1)
  saved=$(sed -n 's/.*"probes_saved": *\([0-9]*\).*/\1/p' "$f" | head -n1)
  hit=$(sed -n 's/.*"stopset_hit_rate": *\([0-9.eE+-]*\).*/\1/p' "$f" | head -n1)
  printf '%-16s %12s %8s %14s %12s %12s %9s\n' "$name" "${total:--}" \
    "${threads:--}" "${rss:--}" "${sent:--}" "${saved:--}" "${hit:--}"
done

# Headline stop-set numbers: the trace census's honest probe reduction
# (off-vs-on, bench_trace) — the figure the Doubletree stop sets exist
# to deliver, gated by check_bench_regression.sh's RROPT_STOPSET_REDUCTION
# floor.
trace=bench_telemetry/BENCH_trace.json
if [[ -f "$trace" ]]; then
  red=$(sed -n 's/.*"stopset_reduction": *\([0-9.eE+-]*\).*/\1/p' "$trace" | head -n1)
  base=$(sed -n 's/.*"probes_sent_baseline": *\([0-9]*\).*/\1/p' "$trace" | head -n1)
  sent=$(sed -n 's/.*"probes_sent": *\([0-9]*\).*/\1/p' "$trace" | head -n1)
  if [[ -n "$red" && -n "$base" && -n "$sent" ]]; then
    awk -v r="$red" -v b="$base" -v s="$sent" 'BEGIN {
      printf "stop sets: %d probes vs %d baseline " \
             "(%.1f%% census probe reduction)\n", s, b, r * 100
    }'
  fi
fi
