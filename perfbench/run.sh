#!/bin/sh
# Build the benchmark and the zapd daemon from the source checkout in the
# current directory, then run one workload:
#
#   sh perfbench/run.sh --workload plan-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the checkout root.  Build output goes to _build and every
# file a run writes (socket, native artifacts, temp files, the result
# record) to perfbench/_run; the dune cache is switched off so nothing is
# written outside the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no source tree here (run from the root of a checkout)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . ./perfbench/main.exe ./bin/zapd.exe 1>&2

mkdir -p perfbench/_run/tmp
TMPDIR="$(pwd)/perfbench/_run/tmp"
export TMPDIR
exec ./_build/default/perfbench/main.exe "$@"
