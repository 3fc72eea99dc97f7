#!/bin/sh
# CI entry point: build everything, run the full test battery (unit,
# integration, property, and the boundedness stress suite), and regenerate
# the bounded-state benchmark artifact so a state leak fails the pipeline
# loudly rather than silently shifting the tracked JSON.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune build @check (every module, including unreferenced ones) =="
dune build @check

echo "== dune runtest (includes the stress suite) =="
dune runtest

echo "== bounded-state benchmark (B1 -> BENCH_bounded_state.json) =="
dune exec bench/main.exe -- B1

# BENCH_bounded_state.json is tracked: a diff here means the memory
# behaviour of the engine changed and must be reviewed, not ignored.
if ! git diff --quiet -- BENCH_bounded_state.json 2>/dev/null; then
  echo "NOTE: BENCH_bounded_state.json changed; review and commit the new numbers." >&2
fi

echo "== telemetry smoke: report/trace consistency + watchdog =="
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT

# Safe run: the report must match an independent replay of its own event
# trace, and the watchdog must stay quiet.
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --report "$OBS_TMP/safe_report.json" --trace "$OBS_TMP/safe_trace.jsonl" \
  > /dev/null
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/safe_report.json" "$OBS_TMP/safe_trace.jsonl" --expect-quiet

# The trace tail must pretty-print with filters and find purge rounds.
dune exec bin/pstream_obs.exe -- tail "$OBS_TMP/safe_trace.jsonl" \
  --op J1 --event purge_round > "$OBS_TMP/tail_out.txt"
grep -q 'purge_round' "$OBS_TMP/tail_out.txt" || {
  echo "pstream-obs tail found no purge_round events in the safe trace" >&2
  exit 1
}

echo "== usage errors: out-of-range numeric flags =="
# Each value is out of its flag's range. pstream-run must refuse it as a
# usage error (exit 124) with a message, never with an uncaught exception
# from inside the run (exit 125). --sample is checked in both modes.
expect_usage_error() {
  set +e
  ./_build/default/bin/pstream_run.exe "$@" > /dev/null 2> "$OBS_TMP/usage.txt"
  status=$?
  set -e
  if [ "$status" -ne 124 ] || [ ! -s "$OBS_TMP/usage.txt" ] \
    || grep -qi 'uncaught exception' "$OBS_TMP/usage.txt"; then
    echo "pstream-run $*: exit $status, expected a usage error (124):" >&2
    cat "$OBS_TMP/usage.txt" >&2
    exit 1
  fi
}
for flag in --sample=0 --sample=-5 --fanin=0 --lag=-1 --shards=-2 \
  --checkpoint-every=0 --max-restarts=-1 --delay-ticks=-2 \
  --quarantine-cap=-1 --state-budget=-5 --drop-punct=1.5 \
  --late-data=-0.5; do
  expect_usage_error examples/triangle.query --rounds 20 "$flag"
done
expect_usage_error --query examples/star_rst.query \
  --query examples/star_rsu.query --rounds 20 --sample=0

echo "== usage errors: flags the chosen mode does not run =="
# A flag the mode would ignore is refused with exit 1 and a message naming
# it: the single-query-only flags in multi-query mode (with and without
# --shards), --no-share in single-query mode, --kill-shard without a
# fleet, and a kill aimed at a shard the fleet does not have.
expect_refusal() {
  # expect_refusal TEXT ARGS... -- exit 1 with TEXT in the message
  _want="$1"; shift
  set +e
  ./_build/default/bin/pstream_run.exe "$@" > /dev/null 2> "$OBS_TMP/refusal.txt"
  status=$?
  set -e
  if [ "$status" -ne 1 ] || ! grep -q -- "$_want" "$OBS_TMP/refusal.txt"; then
    echo "pstream-run $*: exit $status, expected exit 1 naming $_want:" >&2
    cat "$OBS_TMP/refusal.txt" >&2
    exit 1
  fi
}
MQ_SMALL="--query examples/star_rst.query --query examples/star_rsu.query --rounds 20"
for shards in 1 2; do
  for flags in "--checkpoint-every 2 --checkpoint-dir $OBS_TMP/mq_ckpt" \
    "--save-trace $OBS_TMP/mq_saved.trace" "--replay examples/triangle.query" \
    "--on-violation fail" "--grace 5" "--state-budget 4096" \
    "--late-data 0.5" "--drop-punct 0.1" "--dup-punct 0.1" \
    "--delay-punct 0.1" "--stall R:5:10" "--resume $OBS_TMP/mq_ckpt"; do
    expect_refusal "${flags%% *}" $MQ_SMALL --shards "$shards" $flags
  done
done
if [ -e "$OBS_TMP/mq_ckpt" ] || [ -e "$OBS_TMP/mq_saved.trace" ]; then
  echo "a refused multi-query run still wrote a checkpoint or a trace" >&2
  exit 1
fi
expect_refusal --no-share examples/triangle.query --rounds 20 --no-share
expect_refusal --kill-shard examples/triangle.query --rounds 20 \
  --kill-shard 0:10
expect_refusal --kill-shard $MQ_SMALL --kill-shard 0:10
expect_refusal "shard 5 does not exist" examples/triangle.query --rounds 20 \
  --shards 2 --kill-shard 5:10
expect_refusal "shard 2 does not exist" $MQ_SMALL --shards 2 --kill-shard 2:10

echo "== auction smoke: bids die on arrival =="
# Example 1's auction: each item's punctuation arrives before its bids, so
# the eager join drops every bid once it has probed. The peak stored state
# is then the generator's 5 open auctions (items only).
dune exec examples/auction.exe -- 3000 8 > "$OBS_TMP/auction.txt"
grep -q 'all 3000 totals match the ground truth: true' "$OBS_TMP/auction.txt" || {
  echo "auction example: totals do not match the ground truth" >&2
  exit 1
}
auction_peak="$(sed -n 's/^peak stored tuples: \([0-9]*\).*/\1/p' "$OBS_TMP/auction.txt")"
if [ -z "$auction_peak" ] || [ "$auction_peak" -gt 5 ]; then
  echo "auction example: peak stored tuples '$auction_peak', expected at most 5" >&2
  exit 1
fi

echo "== scaling gate: 4x the input must take under 8x the time =="
# pstream-run on the triangle at fanin 5 (eager policy, default
# telemetry), 400 against 1600 rounds, at lag 0 (a few live tuples) and
# lag 60 (~900). Best of 3 alternating runs per size. Linear growth reads
# about 4x; a per-element cost that grows with run length (quadratic
# growth reads 16x) fails the gate. --sample 1000 as in pbench: on the
# default 100-element grid the watchdog reads lag 60's warm-up ramp as
# growth and the run exits 3.
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
for lag in 0 60; do
  best_400=""; best_1600=""
  for _ in 1 2 3; do
    for rounds in 400 1600; do
      t0="$(now_ms)"
      ./_build/default/bin/pstream_run.exe examples/triangle.query --fanin 5 \
        --lag "$lag" --rounds "$rounds" --policy eager --sample 1000 > /dev/null
      dt=$(( $(now_ms) - t0 ))
      if [ "$rounds" -eq 400 ]; then
        if [ -z "$best_400" ] || [ "$dt" -lt "$best_400" ]; then best_400="$dt"; fi
      else
        if [ -z "$best_1600" ] || [ "$dt" -lt "$best_1600" ]; then best_1600="$dt"; fi
      fi
    done
  done
  echo "lag $lag: 400 rounds ${best_400} ms, 1600 rounds ${best_1600} ms"
  if [ "$best_1600" -ge $(( 8 * best_400 )) ]; then
    echo "scaling gate: 4x the input took ${best_1600} ms against ${best_400} ms (>= 8x) at lag $lag" >&2
    exit 1
  fi
done

echo "== live observability smoke: scrape while running =="
# Start a long run serving OpenMetrics, poll the endpoint until a mid-run
# scrape succeeds with all load-bearing families present and every
# exported family documented in the metric catalog, render one
# pstream-top frame, then let the run finish cleanly (exit 0).
REQUIRE_FAMILIES="--require pstream_state_bytes --require pstream_purge_lag \
  --require pstream_result_latency --require pstream_punct_progress_min \
  --require pstream_punct_progress_max --require pstream_gc_minor_words"

live_scrape() {
  # live_scrape SOCK OUT_PREFIX -- poll until one scrape validates
  _sock="$1"; _out="$2"
  _i=0
  while [ "$_i" -lt 150 ]; do
    if ./_build/default/bin/pstream_obs.exe scrape --connect "unix:$_sock" \
         $REQUIRE_FAMILIES --catalog docs/TELEMETRY.md \
         > "$_out" 2>/dev/null; then
      return 0
    fi
    _i=$((_i + 1))
    sleep 0.2
  done
  return 1
}

SEQ_SOCK="$OBS_TMP/metrics_seq.sock"
./_build/default/bin/pstream_run.exe examples/triangle.query --rounds 40000 \
  --sample 100 --listen "unix:$SEQ_SOCK" > "$OBS_TMP/live_seq_out.txt" 2>&1 &
LIVE_PID=$!
if ! live_scrape "$SEQ_SOCK" "$OBS_TMP/scrape_seq.txt"; then
  echo "never got a valid mid-run scrape from the sequential exporter" >&2
  kill "$LIVE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pstream_top.exe "unix:$SEQ_SOCK" --once \
  > "$OBS_TMP/top_frame.txt" 2>/dev/null || true
wait "$LIVE_PID" || {
  echo "the exporting sequential run did not exit 0" >&2
  exit 1
}
grep -q '^operator' "$OBS_TMP/top_frame.txt" && grep -q '^J1' "$OBS_TMP/top_frame.txt" || {
  echo "pstream-top did not render an operator row from the live endpoint" >&2
  exit 1
}

# Same families under --shards 4: the merged exposition must announce
# exactly the family set the sequential one does.
SH_SOCK="$OBS_TMP/metrics_sh.sock"
./_build/default/bin/pstream_run.exe examples/triangle.query --rounds 25000 \
  --sample 100 --shards 4 --listen "unix:$SH_SOCK" \
  > "$OBS_TMP/live_sh_out.txt" 2>&1 &
LIVE_PID=$!
if ! live_scrape "$SH_SOCK" "$OBS_TMP/scrape_sh.txt"; then
  echo "never got a valid mid-run scrape from the sharded exporter" >&2
  kill "$LIVE_PID" 2>/dev/null || true
  exit 1
fi
wait "$LIVE_PID" || {
  echo "the exporting sharded run did not exit 0" >&2
  exit 1
}
grep '^# TYPE' "$OBS_TMP/scrape_seq.txt" | sort > "$OBS_TMP/fam_seq.txt"
grep '^# TYPE' "$OBS_TMP/scrape_sh.txt" | sort > "$OBS_TMP/fam_sh.txt"
if ! cmp -s "$OBS_TMP/fam_seq.txt" "$OBS_TMP/fam_sh.txt"; then
  echo "sequential and sharded expositions announce different metric families:" >&2
  diff "$OBS_TMP/fam_seq.txt" "$OBS_TMP/fam_sh.txt" >&2 || true
  exit 1
fi

# A multi-query run records the same grid point: its mid-run scrape must
# carry the same required families (GC included) and stay within the
# catalog.
MQ_SOCK="$OBS_TMP/metrics_mq.sock"
./_build/default/bin/pstream_run.exe --query examples/star_rst.query \
  --query examples/star_rsu.query --rounds 12000 --sample 100 \
  --listen "unix:$MQ_SOCK" > "$OBS_TMP/live_mq_out.txt" 2>&1 &
LIVE_PID=$!
if ! live_scrape "$MQ_SOCK" "$OBS_TMP/scrape_mq.txt"; then
  echo "never got a valid mid-run scrape from the multi-query exporter" >&2
  kill "$LIVE_PID" 2>/dev/null || true
  exit 1
fi
wait "$LIVE_PID" || {
  echo "the exporting multi-query run did not exit 0" >&2
  exit 1
}

# The sharded multi-query run is the same fleet: its exposition must pass
# the same checks and announce the sequential multi-query family set.
MQ_SH_SOCK="$OBS_TMP/metrics_mq_sh.sock"
./_build/default/bin/pstream_run.exe --query examples/star_rst.query \
  --query examples/star_rsu.query --rounds 12000 --sample 100 --shards 2 \
  --listen "unix:$MQ_SH_SOCK" > "$OBS_TMP/live_mq_sh_out.txt" 2>&1 &
LIVE_PID=$!
if ! live_scrape "$MQ_SH_SOCK" "$OBS_TMP/scrape_mq_sh.txt"; then
  echo "never got a valid mid-run scrape from the sharded multi-query exporter" >&2
  kill "$LIVE_PID" 2>/dev/null || true
  exit 1
fi
wait "$LIVE_PID" || {
  echo "the exporting sharded multi-query run did not exit 0" >&2
  exit 1
}
grep '^# TYPE' "$OBS_TMP/scrape_mq.txt" | sort > "$OBS_TMP/fam_mq.txt"
grep '^# TYPE' "$OBS_TMP/scrape_mq_sh.txt" | sort > "$OBS_TMP/fam_mq_sh.txt"
if ! cmp -s "$OBS_TMP/fam_mq.txt" "$OBS_TMP/fam_mq_sh.txt"; then
  echo "sequential and sharded multi-query expositions announce different metric families:" >&2
  diff "$OBS_TMP/fam_mq.txt" "$OBS_TMP/fam_mq_sh.txt" >&2 || true
  exit 1
fi

# Forced unsafe run: still consistent, and the watchdog must raise an
# alarm naming a purge-unreachable input (pstream-run exits 3 on alarm).
set +e
dune exec bin/pstream_run.exe -- examples/unsafe.query --rounds 200 --force \
  --report "$OBS_TMP/unsafe_report.json" --trace "$OBS_TMP/unsafe_trace.jsonl" \
  > /dev/null
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "expected pstream-run to exit 3 (watchdog alarm) on the forced unsafe run, got $status" >&2
  exit 1
fi
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/unsafe_report.json" "$OBS_TMP/unsafe_trace.jsonl" \
  --expect-alarm S2 --expect-alarm S3

echo "== watchdog: no alarm while a long punctuation lag fills =="
# At lag 60 no punctuation arrives for the first 60 rounds, so the state
# fills to ~900 tuples before anything can be purged, then holds. That is
# not a leak: the triangle and the star pair must exit 0 with no alarm,
# sequentially and sharded.
for shards in 1 2; do
  for query in "examples/triangle.query" \
    "--query examples/star_rst.query --query examples/star_rsu.query"; do
    set +e
    # shellcheck disable=SC2086
    ./_build/default/bin/pstream_run.exe $query --rounds 300 --fanin 5 \
      --lag 60 --shards "$shards" > "$OBS_TMP/lag60.txt" 2>&1
    status=$?
    set -e
    if [ "$status" -ne 0 ] || grep -q 'WATCHDOG ALARM' "$OBS_TMP/lag60.txt"; then
      echo "pstream-run $query --lag 60 --shards $shards: exit $status, expected 0 with no alarm" >&2
      grep 'WATCHDOG ALARM' "$OBS_TMP/lag60.txt" >&2 || true
      exit 1
    fi
  done
done

echo "== README quick-start query (str and float attributes) =="
# README.md's quick-start query, read from the README so the check follows
# the text, must run sequentially and on 2 shards with equal output hashes.
sed -n '/^cat > q.txt <<.EOF.$/,/^EOF$/p' README.md | sed '1d;$d' \
  > "$OBS_TMP/readme.query"
if [ ! -s "$OBS_TMP/readme.query" ]; then
  echo "no quick-start query found in README.md" >&2
  exit 1
fi
for shards in 1 2; do
  ./_build/default/bin/pstream_run.exe "$OBS_TMP/readme.query" --rounds 200 \
    --shards "$shards" > "$OBS_TMP/readme_$shards.txt" || {
    echo "pstream-run on the README quick-start query failed (--shards $shards)" >&2
    exit 1
  }
  grep '^output hash: ' "$OBS_TMP/readme_$shards.txt" \
    > "$OBS_TMP/readme_hash_$shards.txt" || {
    echo "no output hash for the README quick-start query (--shards $shards)" >&2
    exit 1
  }
done
if ! cmp -s "$OBS_TMP/readme_hash_1.txt" "$OBS_TMP/readme_hash_2.txt"; then
  echo "README quick-start query: sequential and 2-shard output hashes differ" >&2
  cat "$OBS_TMP/readme_hash_1.txt" "$OBS_TMP/readme_hash_2.txt" >&2
  exit 1
fi

echo "== sharded smoke: --shards 1 vs --shards 4 =="
# Both shard counts must produce a self-consistent report/trace pair and
# the exact same output data-tuple multiset as each other.
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --shards 1 \
  --report "$OBS_TMP/sh1_report.json" --trace "$OBS_TMP/sh1_trace.jsonl" \
  > "$OBS_TMP/sh1_out.txt"
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --shards 4 \
  --report "$OBS_TMP/sh4_report.json" --trace "$OBS_TMP/sh4_trace.jsonl" \
  > "$OBS_TMP/sh4_out.txt"
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/sh1_report.json" "$OBS_TMP/sh1_trace.jsonl" --expect-quiet
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/sh4_report.json" "$OBS_TMP/sh4_trace.jsonl" --expect-quiet
hash1="$(grep '^output hash:' "$OBS_TMP/sh1_out.txt")"
hash4="$(grep '^output hash:' "$OBS_TMP/sh4_out.txt")"
if [ -z "$hash1" ] || [ "$hash1" != "$hash4" ]; then
  echo "sharded output hash mismatch: shards=1 '$hash1' vs shards=4 '$hash4'" >&2
  exit 1
fi

echo "== outer/anti smoke: punctuation-proven unmatched emission =="
# LEFT and ANTI examples must be admitted (outer verdict SAFE), produce a
# self-consistent report/trace pair, and emit the exact same output
# multiset sequentially and at --shards 4 — "unmatched" is a negative
# claim, so a mis-partitioned shard would show up as a hash divergence.
for kind in left anti; do
  dune exec bin/pstream_run.exe -- "examples/${kind}_join.query" --rounds 120 \
    --report "$OBS_TMP/${kind}_report.json" \
    --trace "$OBS_TMP/${kind}_trace.jsonl" \
    > "$OBS_TMP/${kind}_seq_out.txt"
  grep -q 'outer verdict: .*SAFE' "$OBS_TMP/${kind}_seq_out.txt" || {
    echo "$kind join example was not proven safe by the checker" >&2
    exit 1
  }
  dune exec bin/pstream_obs.exe -- verify \
    "$OBS_TMP/${kind}_report.json" "$OBS_TMP/${kind}_trace.jsonl" --expect-quiet
  dune exec bin/pstream_run.exe -- "examples/${kind}_join.query" --rounds 120 \
    --shards 4 > "$OBS_TMP/${kind}_sh4_out.txt"
  seq_hash="$(grep '^output hash:' "$OBS_TMP/${kind}_seq_out.txt")"
  sh4_hash="$(grep '^output hash:' "$OBS_TMP/${kind}_sh4_out.txt")"
  if [ -z "$seq_hash" ] || [ "$seq_hash" != "$sh4_hash" ]; then
    echo "$kind join output hash mismatch: sequential '$seq_hash' vs --shards 4 '$sh4_hash'" >&2
    exit 1
  fi
done

echo "== chaos smoke: fixed-seed fault injection (docs/FAULTS.md) =="
# 1) Quarantine: with late data injected, the contract diverts every
#    contradiction; the output hash must equal the fault-free run's, the
#    report must carry the quarantine counters, and the fault-annotated
#    trace must still replay-verify against the report. Delay/dup faults
#    (not drop) so purging is deferred, never lost: the watchdog stays
#    quiet and the run must exit 0.
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  > "$OBS_TMP/clean_out.txt"
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --chaos-seed 7 --dup-punct 0.1 --delay-punct 0.15 --late-data 0.2 \
  --on-violation quarantine \
  --report "$OBS_TMP/chaos_report.json" --trace "$OBS_TMP/chaos_trace.jsonl" \
  > "$OBS_TMP/chaos_out.txt"
clean_hash="$(grep '^output hash:' "$OBS_TMP/clean_out.txt")"
chaos_hash="$(grep '^output hash:' "$OBS_TMP/chaos_out.txt")"
if [ -z "$clean_hash" ] || [ "$clean_hash" != "$chaos_hash" ]; then
  echo "quarantine did not restore the fault-free output: '$clean_hash' vs '$chaos_hash'" >&2
  exit 1
fi
if ! grep -q '"quarantined":[1-9]' "$OBS_TMP/chaos_report.json"; then
  echo "chaos report is missing a non-zero quarantined counter" >&2
  exit 1
fi
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/chaos_report.json" "$OBS_TMP/chaos_trace.jsonl"

# 2) Graceful degradation: same seed under a state budget must shed
#    instead of leaking, keep the watchdog quiet, and exit 0.
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 200 \
  --chaos-seed 11 --drop-punct 0.05 --late-data 0.1 \
  --on-violation degrade --state-budget 8192 > /dev/null

# 3) Zero tolerance: the same contradictions under fail must abort with
#    exit 4.
set +e
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --chaos-seed 7 --late-data 0.2 --on-violation fail > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 4 ]; then
  echo "expected exit 4 (contract violation) from --on-violation fail, got $status" >&2
  exit 1
fi

# 4) Shard supervision: kill worker 1 mid-run; replay recovery must
#    reproduce the fault-free sharded output hash, exit 0.
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --shards 3 > "$OBS_TMP/nokill_out.txt"
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --shards 3 --kill-shard 1:200 > "$OBS_TMP/kill_out.txt"
nokill_hash="$(grep '^output hash:' "$OBS_TMP/nokill_out.txt")"
kill_hash="$(grep '^output hash:' "$OBS_TMP/kill_out.txt")"
if [ -z "$nokill_hash" ] || [ "$nokill_hash" != "$kill_hash" ]; then
  echo "killed-shard recovery hash mismatch: '$nokill_hash' vs '$kill_hash'" >&2
  exit 1
fi
grep -q '^shard restarts: 1' "$OBS_TMP/kill_out.txt" || {
  echo "expected exactly one shard restart in the kill run" >&2
  exit 1
}

# 5) Restart budget: the same kill with --max-restarts 0 must fail the
#    run with exit 5.
set +e
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 120 \
  --shards 3 --kill-shard 1:200 --max-restarts 0 > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 5 ]; then
  echo "expected exit 5 (shard failed) with --max-restarts 0, got $status" >&2
  exit 1
fi

echo "== checkpoint smoke: bounded recovery + durable resume (docs/FAULTS.md) =="
# Punctuation-aligned checkpoints every 2 sampling-grid points (--sample 50
# => a 100-element recovery interval). A three-kill storm — including two
# kills of the same shard — must restore every restart from a checkpoint,
# replay at most one interval, and reproduce the fault-free output hash.
CKPT_DIR="$OBS_TMP/ckpt"
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 400 \
  --sample 50 --shards 3 > "$OBS_TMP/ckpt_clean.txt"
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 400 \
  --sample 50 --shards 3 --checkpoint-every 2 --checkpoint-dir "$CKPT_DIR" \
  --kill-shard 1:800 --kill-shard 1:2000 --kill-shard 0:1500 \
  > "$OBS_TMP/ckpt_storm.txt"
ckpt_clean_hash="$(grep '^output hash:' "$OBS_TMP/ckpt_clean.txt")"
ckpt_storm_hash="$(grep '^output hash:' "$OBS_TMP/ckpt_storm.txt")"
if [ -z "$ckpt_clean_hash" ] || [ "$ckpt_clean_hash" != "$ckpt_storm_hash" ]; then
  echo "checkpointed kill-storm hash mismatch: '$ckpt_clean_hash' vs '$ckpt_storm_hash'" >&2
  exit 1
fi
grep -q '^shard restarts: 3 (recovered by history replay; 3 from checkpoint' \
  "$OBS_TMP/ckpt_storm.txt" || {
  echo "expected all three storm restarts to restore from a checkpoint" >&2
  exit 1
}
max_replayed="$(sed -n 's/.*max \([0-9]*\) elements replayed.*/\1/p' \
  "$OBS_TMP/ckpt_storm.txt")"
if [ -z "$max_replayed" ] || [ "$max_replayed" -gt 100 ]; then
  echo "storm replay not bounded by the 100-element checkpoint interval (max replayed: '$max_replayed')" >&2
  exit 1
fi

# Simulated process death: an unrecoverable kill (--max-restarts 0) must
# exit 5 but leave durable checkpoints behind; --resume with the same run
# configuration finishes the run and reproduces the fault-free hash.
rm -rf "$CKPT_DIR"
set +e
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 400 \
  --sample 50 --shards 3 --checkpoint-every 2 --checkpoint-dir "$CKPT_DIR" \
  --kill-shard 1:1200 --max-restarts 0 > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 5 ]; then
  echo "expected exit 5 (shard failed) from the process-death simulation, got $status" >&2
  exit 1
fi
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 400 \
  --sample 50 --shards 3 --resume "$CKPT_DIR" > "$OBS_TMP/ckpt_resume.txt"
grep -q '^resume: checkpoint at barrier' "$OBS_TMP/ckpt_resume.txt" || {
  echo "--resume did not report loading a checkpoint" >&2
  exit 1
}
resume_hash="$(grep '^output hash:' "$OBS_TMP/ckpt_resume.txt")"
if [ "$resume_hash" != "$ckpt_clean_hash" ]; then
  echo "--resume did not reproduce the uninterrupted hash: '$resume_hash' vs '$ckpt_clean_hash'" >&2
  exit 1
fi

# A resume whose run configuration differs (fingerprint mismatch) and a
# resume from a corrupted file must both refuse loudly with exit 6.
set +e
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 200 \
  --sample 50 --shards 3 --resume "$CKPT_DIR" > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 6 ]; then
  echo "expected exit 6 (invalid checkpoint) on a fingerprint mismatch, got $status" >&2
  exit 1
fi
newest_ckpt="$(ls -t "$CKPT_DIR"/ckpt-*.bin | head -n 1)"
printf '\377\377\377\377' \
  | dd of="$newest_ckpt" bs=1 seek=16 conv=notrunc 2>/dev/null
set +e
dune exec bin/pstream_run.exe -- examples/triangle.query --rounds 400 \
  --sample 50 --shards 3 --resume "$CKPT_DIR" > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 6 ]; then
  echo "expected exit 6 (invalid checkpoint) on a corrupted file, got $status" >&2
  exit 1
fi

echo "== shard-scaling benchmark (B2 -> BENCH_shard_scaling.json) =="
# B2 itself fails loudly on hash divergence or a watchdog alarm.
dune exec bench/main.exe -- B2
if ! git diff --quiet -- BENCH_shard_scaling.json 2>/dev/null; then
  echo "NOTE: BENCH_shard_scaling.json changed; review and commit the new numbers." >&2
fi

echo "== hot-path benchmark (B3 -> BENCH_hot_path.json) =="
# B3 gates correctness, not just speed: it fails if the batched path's
# output multiset diverges from the element path on any scenario, if
# shards 1/4 diverge from the sequential triangle answer, or if the
# batched triangle throughput drops below 5x the 1,580 el/s pre-batching
# baseline.
dune exec bench/main.exe -- B3
if [ ! -f BENCH_hot_path.json ]; then
  echo "B3 did not produce BENCH_hot_path.json" >&2
  exit 1
fi
if ! grep -q '"benchmark": "hot_path"' BENCH_hot_path.json; then
  echo "BENCH_hot_path.json is malformed (missing benchmark marker)" >&2
  exit 1
fi
if ! git diff --quiet -- BENCH_hot_path.json 2>/dev/null; then
  echo "NOTE: BENCH_hot_path.json changed; review and commit the new numbers." >&2
fi

echo "== multi-query smoke: shared vs --no-share vs --shards 4 =="
# Two overlapping star queries share their R |x| S sub-join. Sharing (and
# sharding the shared DAG) must never change any query's answer: the
# per-query output hashes have to be byte-identical across all three modes.
MQ_ARGS="--query examples/star_rst.query --query examples/star_rsu.query --rounds 120"
mq_hashes() {
  grep '^query .* output hash ' "$1" | sed 's/ emitted [0-9]* results,//' | sort
}
# A run's report must answer what its stdout printed: every query's
# (qid, emitted, hash) entry against its "query ... output hash" line.
mq_report_answers() {
  local report="$1" out="$2"
  grep -o '"qid":"[^"]*","emitted":[0-9]*,"hash":"[0-9a-f]*"' "$report" \
    | sed 's/"qid":"\([^"]*\)","emitted":\([0-9]*\),"hash":"\([0-9a-f]*\)"/query \1: emitted \2 results, output hash \3/' \
    | sort > "$out.report_answers"
  grep '^query .* output hash ' "$out" | sort > "$out.stdout_answers"
  if [ ! -s "$out.stdout_answers" ] \
    || ! cmp -s "$out.stdout_answers" "$out.report_answers"; then
    echo "report $report does not carry the answers $out printed:" >&2
    diff "$out.stdout_answers" "$out.report_answers" >&2 || true
    exit 1
  fi
}
dune exec bin/pstream_run.exe -- $MQ_ARGS \
  --report "$OBS_TMP/mq_report.json" --trace "$OBS_TMP/mq_trace.jsonl" \
  > "$OBS_TMP/mq_shared.txt"
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/mq_report.json" "$OBS_TMP/mq_trace.jsonl" --expect-quiet
mq_report_answers "$OBS_TMP/mq_report.json" "$OBS_TMP/mq_shared.txt"
grep -q '^shared group G1: streams {R, S} serving star_rst, star_rsu' \
  "$OBS_TMP/mq_shared.txt" || {
  echo "multi-query plan did not share the {R, S} sub-join" >&2
  exit 1
}
dune exec bin/pstream_run.exe -- $MQ_ARGS --no-share > "$OBS_TMP/mq_noshare.txt"
if grep -q '^shared group' "$OBS_TMP/mq_noshare.txt"; then
  echo "--no-share still produced a shared group" >&2
  exit 1
fi
dune exec bin/pstream_run.exe -- $MQ_ARGS --shards 4 > "$OBS_TMP/mq_shards.txt"
mq_hashes "$OBS_TMP/mq_shared.txt" > "$OBS_TMP/mq_h_shared.txt"
if [ "$(wc -l < "$OBS_TMP/mq_h_shared.txt")" -ne 2 ]; then
  echo "expected per-query hash lines for both queries, got:" >&2
  cat "$OBS_TMP/mq_h_shared.txt" >&2
  exit 1
fi
for mode in mq_noshare mq_shards; do
  mq_hashes "$OBS_TMP/$mode.txt" > "$OBS_TMP/mq_h_$mode.txt"
  if ! cmp -s "$OBS_TMP/mq_h_shared.txt" "$OBS_TMP/mq_h_$mode.txt"; then
    echo "multi-query hash mismatch (shared vs $mode):" >&2
    diff "$OBS_TMP/mq_h_shared.txt" "$OBS_TMP/mq_h_$mode.txt" >&2 || true
    exit 1
  fi
done

# A sharded multi-query run is instrumented like a single-query one: its
# report must verify against its merged trace, with the sequential hashes.
dune exec bin/pstream_run.exe -- $MQ_ARGS --shards 2 \
  --report "$OBS_TMP/mq_sh_report.json" --trace "$OBS_TMP/mq_sh_trace.jsonl" \
  > "$OBS_TMP/mq_sh2.txt"
mq_hashes "$OBS_TMP/mq_sh2.txt" > "$OBS_TMP/mq_h_mq_sh2.txt"
if ! cmp -s "$OBS_TMP/mq_h_shared.txt" "$OBS_TMP/mq_h_mq_sh2.txt"; then
  echo "multi-query hash mismatch (shared vs instrumented --shards 2):" >&2
  diff "$OBS_TMP/mq_h_shared.txt" "$OBS_TMP/mq_h_mq_sh2.txt" >&2 || true
  exit 1
fi
dune exec bin/pstream_obs.exe -- verify \
  "$OBS_TMP/mq_sh_report.json" "$OBS_TMP/mq_sh_trace.jsonl" --expect-quiet
mq_report_answers "$OBS_TMP/mq_sh_report.json" "$OBS_TMP/mq_sh2.txt"

# Shard supervision covers multi-query fleets: a killed shard is restarted
# and every query still answers the fault-free hash.
dune exec bin/pstream_run.exe -- $MQ_ARGS --shards 3 --kill-shard 1:200 \
  > "$OBS_TMP/mq_kill.txt"
mq_hashes "$OBS_TMP/mq_kill.txt" > "$OBS_TMP/mq_h_mq_kill.txt"
if ! cmp -s "$OBS_TMP/mq_h_shared.txt" "$OBS_TMP/mq_h_mq_kill.txt"; then
  echo "multi-query hash mismatch (shared vs --shards 3 with a kill):" >&2
  diff "$OBS_TMP/mq_h_shared.txt" "$OBS_TMP/mq_h_mq_kill.txt" >&2 || true
  exit 1
fi
grep -q '^shard restarts: 1' "$OBS_TMP/mq_kill.txt" || {
  echo "expected one shard restart in the multi-query kill run" >&2
  exit 1
}

echo "== multi-query benchmark (B4 -> BENCH_multi_query.json) =="
# B4 asserts hash equality and a strict shared-state win internally; the
# gate below re-checks the overlap scenario from the artifact so a stale
# or hand-edited JSON also fails.
dune exec bench/main.exe -- B4
if [ ! -f BENCH_multi_query.json ]; then
  echo "B4 did not produce BENCH_multi_query.json" >&2
  exit 1
fi
if ! grep -q '"benchmark": "multi_query"' BENCH_multi_query.json; then
  echo "BENCH_multi_query.json is malformed (missing benchmark marker)" >&2
  exit 1
fi
overlap_line="$(grep '"scenario": "overlap_star"' BENCH_multi_query.json)" || {
  echo "BENCH_multi_query.json lacks the overlap_star scenario" >&2
  exit 1
}
mq_shared_b="$(printf '%s' "$overlap_line" \
  | sed 's/.*"shared_peak_state_bytes": \([0-9]*\).*/\1/')"
mq_indep_b="$(printf '%s' "$overlap_line" \
  | sed 's/.*"independent_peak_state_bytes": \([0-9]*\).*/\1/')"
if [ -z "$mq_shared_b" ] || [ -z "$mq_indep_b" ] \
  || [ "$mq_shared_b" -ge "$mq_indep_b" ]; then
  echo "shared peak state ($mq_shared_b B) is not below independent ($mq_indep_b B) on overlap_star" >&2
  exit 1
fi
if ! git diff --quiet -- BENCH_multi_query.json 2>/dev/null; then
  echo "NOTE: BENCH_multi_query.json changed; review and commit the new numbers." >&2
fi

echo "== kill-storm soak (B5 short config -> soakcheck gate) =="
# The tracked BENCH_soak.json is the full-scale (~2M element) artifact;
# validate it first, then run a short-configuration storm in the temp dir
# (so the committed full-scale numbers are never touched) and gate the
# fresh artifact with the soakcheck subcommand — all JSON probing goes
# through pstream-obs, not grep/sed.
dune exec bin/pstream_obs.exe -- soakcheck BENCH_soak.json --expect-kills 8
REPO_ROOT="$(pwd)"
(cd "$OBS_TMP" \
  && PSTREAM_SOAK_ROUNDS=4000 "$REPO_ROOT/_build/default/bench/main.exe" B5)
dune exec bin/pstream_obs.exe -- soakcheck "$OBS_TMP/BENCH_soak.json" \
  --expect-kills 8

echo "== throughput regression gate (bench_diff vs HEAD) =="
# Hard gate: any scenario losing more than 30% batched throughput
# against the tracked baseline fails CI.
scripts/bench_diff.sh

echo "CI OK"
