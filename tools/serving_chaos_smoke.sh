#!/usr/bin/env bash
# Serving chaos smoke: drive the sharded streaming service through
# injected shard crashes, a stalled worker, poisoned frames, and failing
# inference rows mid-load, and assert that it converges with every fault
# attributed in the health counters — then run a disarmed control that
# must classify everything exactly with zero fault counters.
#
# The heavy lifting (multi-producer load, accounting identities, crash
# containment assertions) lives in bench/bench_serving_chaos.cpp; this
# script arms the injector, checks the two exit codes, and cross-checks
# the summary counters it prints.
#
# Usage: tools/serving_chaos_smoke.sh [path-to-chaos-binary]
# Default binary: build/bench/bench_serving_chaos

set -u

BIN=${1:-build/bench/bench_serving_chaos}
if [ ! -x "$BIN" ]; then
  echo "serving_chaos_smoke: chaos binary not found: $BIN" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

export MMHAR_LOG_LEVEL=${MMHAR_LOG_LEVEL:-3}
export MMHAR_SERVING_SHARDS=${MMHAR_SERVING_SHARDS:-4}
export MMHAR_SERVING_FRAMES=${MMHAR_SERVING_FRAMES:-24}

# Pull "key=value" integer counters out of the driver's summary line.
counter() { sed -n "s/.*[ (]$2=\([0-9]*\).*/\1/p" "$1" | head -n 1; }

echo "== armed run (crash + stall + poison + inference faults mid-load) =="
if ! MMHAR_FAULT_SPEC="serving.frame_poison=0.05,serving.infer_fail=0.02,serving.shard_crash@3,serving.shard_stall@11" \
     MMHAR_FAULT_SEED=7 "$BIN" > "$WORK/armed.out" 2>&1; then
  echo "serving_chaos_smoke: armed run failed" >&2
  cat "$WORK/armed.out" >&2
  exit 1
fi
grep "chaos summary" "$WORK/armed.out"

status=0
if ! grep -q "serving_chaos: OK" "$WORK/armed.out"; then
  echo "serving_chaos_smoke: armed run produced no OK line" >&2
  status=1
fi
# ~77 expected poison draws at p=0.05 over 64x24 claims and a
# deterministic crash@3: zero fires means the sites are not wired, not
# bad luck. The shard faults count every stream fault plus every caught
# crash, so the crash fire must show up in the surplus.
quarantined=$(counter "$WORK/armed.out" quarantined)
errors=$(counter "$WORK/armed.out" errors)
faults=$(counter "$WORK/armed.out" faults)
crash=$(counter "$WORK/armed.out" crash)
if [ -z "$quarantined" ] || [ "$quarantined" -lt 1 ]; then
  echo "serving_chaos_smoke: no poisoned frame was quarantined" >&2
  status=1
fi
if [ -z "$crash" ] || [ "$crash" -lt 1 ]; then
  echo "serving_chaos_smoke: the injected shard crash never fired" >&2
  status=1
elif [ -z "$faults" ] || [ -z "$errors" ] ||
     [ $((faults - quarantined - errors)) -ne "$crash" ]; then
  echo "serving_chaos_smoke: the injected shard crash is not counted" \
       "in the shard faults" >&2
  status=1
fi

echo "== disarmed control (same load, no injector) =="
if ! MMHAR_FAULT_SPEC= "$BIN" > "$WORK/control.out" 2>&1; then
  echo "serving_chaos_smoke: disarmed control failed" >&2
  cat "$WORK/control.out" >&2
  exit 1
fi
grep "chaos summary" "$WORK/control.out"
for key in quarantined errors shed faults; do
  v=$(counter "$WORK/control.out" "$key")
  if [ -z "$v" ] || [ "$v" -ne 0 ]; then
    echo "serving_chaos_smoke: disarmed control has nonzero $key" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "serving_chaos_smoke: OK (converged under injected faults; every" \
       "fault attributed; disarmed control clean)"
fi
exit $status
