#!/bin/sh
# zapd CI smoke: start the daemon, replay a tiny suite twice through
# zapc --connect, assert the second pass is served from the plan cache
# (>= 90% hits, zero plans computed) with byte-identical responses,
# check that zapc --connect prints what local zapc prints, then shut
# down cleanly.
set -eu

ZAPD=${ZAPD:-_build/default/bin/zapd.exe}
ZAPC=${ZAPC:-_build/default/bin/zapc.exe}
SOCK=${SOCK:-zapd-smoke.sock}
WORK=$(mktemp -d)

"$ZAPD" --socket "$SOCK" --jobs 2 &
ZAPD_PID=$!
cleanup() {
  kill "$ZAPD_PID" 2>/dev/null || true
  rm -f "$SOCK"
  rm -rf "$WORK"
}
trap cleanup EXIT

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "zapd did not come up" >&2
    exit 1
  fi
  sleep 0.1
done

# tiny per-processor tiles, greedy and ILP-planned per benchmark
pass() {
  out=$1
  : > "$out"
  for b in "ep:256" "frac:16" "tomcatv:16"; do
    name=${b%:*}
    tile=${b#*:}
    "$ZAPC" --bench "$name" --tile "$tile" --connect "$SOCK" >> "$out"
    "$ZAPC" --bench "$name" --tile "$tile" --plan ilp --connect "$SOCK" >> "$out"
  done
}

pass "$WORK/cold.out"
"$ZAPC" --server-stats --connect "$SOCK" > "$WORK/stats-cold.json"
pass "$WORK/warm.out"
"$ZAPC" --server-stats --connect "$SOCK" > "$WORK/stats-warm.json"

# the determinism bar: warm replies are byte-identical to cold ones
diff "$WORK/cold.out" "$WORK/warm.out"

python3 - "$WORK/stats-cold.json" "$WORK/stats-warm.json" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))["stats"]
warm = json.load(open(sys.argv[2]))["stats"]
hits = warm["cache"]["hits"] - cold["cache"]["hits"]
misses = warm["cache"]["misses"] - cold["cache"]["misses"]
plans = warm["plans_computed"] - cold["plans_computed"]
looked = hits + misses
rate = hits / looked if looked else 0.0
print(f"warm pass: {hits} hits / {looked} lookups ({100*rate:.0f}%), "
      f"{plans} plans computed")
assert rate >= 0.9, f"warm hit rate {rate:.2f} < 0.90"
assert plans == 0, f"warm pass re-planned {plans} times"
EOF

# The same invocation run locally and through the daemon must print the
# same bytes and exit with the same code.  --native is left out: its
# wall time varies run to run.
both() {
  name=$1
  shift
  set +e
  "$ZAPC" "$@" > "$WORK/$name.local" 2>&1
  echo "exit $?" >> "$WORK/$name.local"
  "$ZAPC" "$@" --connect "$SOCK" > "$WORK/$name.remote" 2>&1
  echo "exit $?" >> "$WORK/$name.remote"
  set -e
  diff "$WORK/$name.local" "$WORK/$name.remote"
}

printf 'program bad;\nregion R = [1..n;\n' > "$WORK/bad.zap"
both ilp-plan --bench frac --tile 16 --plan ilp --dump-plan
both spmd-run --bench ep --tile 256 --run --spmd -p 4
both ilp-c --bench tomcatv --tile 16 --plan ilp --dump-c --simplify
both parse-error "$WORK/bad.zap"
grep -q '^exit 124$' "$WORK/parse-error.local"

# --stats: the plan and spmd objects come from the reply; spans and
# counters are the client process's own and differ
member() {
  python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin)[sys.argv[1]]))' "$1"
}
stats_both() {
  name=$1
  shift
  "$ZAPC" "$@" --stats json:- | member "$name" > "$WORK/$name.local"
  "$ZAPC" "$@" --stats json:- --connect "$SOCK" | member "$name" > "$WORK/$name.remote"
  diff "$WORK/$name.local" "$WORK/$name.remote"
}
stats_both plan --bench frac --tile 16 --plan ilp
stats_both spmd --bench ep --tile 256 --run --spmd -p 4
echo "local vs --connect: 6 cases identical"

"$ZAPC" --shutdown --connect "$SOCK" > /dev/null
wait "$ZAPD_PID"
if [ -S "$SOCK" ]; then
  echo "socket file not removed on shutdown" >&2
  exit 1
fi
trap - EXIT
rm -rf "$WORK"
echo "zapd smoke: ok"
