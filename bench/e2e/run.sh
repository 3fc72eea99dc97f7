#!/usr/bin/env bash
# Build bin/pstream_run.exe and pbench from this checkout, then run pbench
# with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload tri_lag --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last stdout line is pbench's JSON
# summary. The dune cache is off so that the build writes only under
# _build/. See bench/e2e/README.md.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/pstream_run.ml ]; then
  echo "run.sh: pstream_run's sources are missing; run from a full checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . bin/pstream_run.exe bench/e2e/pbench.exe 1>&2
exec _build/default/bench/e2e/pbench.exe --pstream-run _build/default/bin/pstream_run.exe "$@"
