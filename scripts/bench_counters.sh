#!/usr/bin/env bash
# Exact gate on the benchmark's deterministic work counters:
#
#   bash scripts/bench_counters.sh
#
# Runs each workload of benchmark/ once, traced, at seed 1, and compares
# the counters in its last JSON line with BENCH_counters.json. Every
# counter must match exactly, except des_scale_1056's sim.allocs_per_event,
# which may differ by 0.1%: ClusterSim's hash maps draw per-process keys,
# so a table growth may or may not allocate (see benchmark/NOTES.md). Each
# run itself exits 1 on a conservation, fingerprint or replay violation.
# The result lines are kept in target/bench_counters/<workload>.json.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/target/bench_counters"
mkdir -p "$out"
cd "$root"
status=0
for w in des_scale_1056 mega_sharded_1e5 mux_lossy_2k; do
  rm -f "$out/$w.json"
  if ! bash benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 >"$out/$w.log"; then
    echo "FAIL $w: the benchmark run failed (see $out/$w.log)"
    status=1
    continue
  fi
  tail -n 1 "$out/$w.log" >"$out/$w.json"
  diffs=$(jq -r --arg w "$w" --slurpfile got "$out/$w.json" '
    .[$w] as $want | $got[0] as $got
    | if $want == null or $want == {} then "no golden counters for \($w)" else
        (if $got.correct != true then "correct is \($got.correct), not true" else empty end),
        ($want | to_entries[] | .key as $k | .value as $v | $got.metrics[$k].value as $g
         | if $g == null then "\($k): missing from the output"
           elif $w == "des_scale_1056" and $k == "sim.allocs_per_event" then
             (if ($g - $v) * ($g - $v) <= (0.001 * $v) * (0.001 * $v) then empty
              else "\($k): got \($g), golden \($v) (allowed 0.1%)" end)
           elif $g == $v then empty
           else "\($k): got \($g), golden \($v)" end)
      end' BENCH_counters.json)
  if [ -n "$diffs" ]; then
    sed "s/^/FAIL $w: /" <<<"$diffs"
    status=1
  else
    echo "ok   $w: $(jq --arg w "$w" '.[$w] | length' BENCH_counters.json) counters match"
  fi
done
exit "$status"
