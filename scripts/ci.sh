#!/usr/bin/env bash
# Full offline gate: format, lint, build, test. The workspace has zero
# registry dependencies, so everything here must succeed with the network
# switched off — CARGO_NET_OFFLINE makes any accidental dependency fail
# loudly instead of silently fetching.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo test --workspace -q

# Observability gate: re-run the smoke scenario with tracing on; it must
# emit a metrics snapshot under results/obs/ that parses with the strict
# in-repo JSON parser and carries the required top-level keys.
rm -rf results/obs
RF_TRACE=relsim=debug cargo test -q --test smoke
cargo run --release -q -p relaxfault-bench --bin obs_validate results/obs

# Determinism drift gate: the same pinned-seed scenario twice must produce
# identical counters (timings may jitter — the generous threshold ignores
# them; the exact counter comparison is the determinism signal). The
# obs_diff verdict JSON is kept under results/ci/ as a build artifact.
# Committed artifacts (the engine_hot pre-PR snapshot and verdict) stay;
# only the snapshots are scrubbed.
rm -rf results/ci/obs
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=drift_a \
    cargo run --release -q -p relaxfault-bench --bin fig08_hashing -- 4000
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=drift_b \
    cargo run --release -q -p relaxfault-bench --bin fig08_hashing -- 4000
cargo run --release -q -p relaxfault-bench --bin obs_diff -- \
    results/ci/obs/drift_a.json results/ci/obs/drift_b.json \
    --threshold 10 --out results/ci/obs_diff_verdict.json

# Disabled-path guard: observability must cost <1% of the Monte Carlo
# inner loop when off (the bench exits non-zero otherwise).
RF_BENCH_BATCH_MS=5 RF_BENCH_BATCHES=3 \
    cargo bench -q -p relaxfault-bench --bench node_eval

# Correctness subsystem pass: the differential oracles at a reduced case
# count, then an RF_CHECK=1 engine smoke with a forced failure proving the
# failure -> repro -> replay loop end to end. The repro JSON must satisfy
# the strict schema validator, and the replay must report bit-exact
# reproduction. Any relcheck failure exits 3.
rm -rf results/ci/relcheck
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- smoke --cases 25 \
    || exit 3
if RF_CHECK=1 RF_CHECK_FAIL_TRIAL=0 RF_RESULTS_DIR=results/ci \
    cargo run --release -q -p relaxfault-bench --bin fig08_hashing -- 50; then
    echo "relcheck: forced RF_CHECK failure did not fire" >&2
    exit 3
fi
repro=$(ls results/ci/relcheck/engine_check_*.json 2>/dev/null | head -n1 || true)
[ -n "$repro" ] || { echo "relcheck: no repro case written" >&2; exit 3; }
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/relcheck \
    || exit 3
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- replay "$repro" \
    || exit 3
# The forced failure fires at trial 0, before any planning. So the Figs
# 10-14 population also runs to completion with every per-trial check on
# (each planner key, the 16-way ones included, at 1x and 10x FIT), and its
# 30 table files must equal those of an unchecked run byte for byte.
rm -rf results/ci/rf_check results/ci/rf_plain
RF_CHECK=1 RF_RESULTS_DIR=results/ci/rf_check \
    cargo run --release -q -p relaxfault-bench --bin fig10_14_reliability -- 20000 >/dev/null \
    || exit 3
RF_RESULTS_DIR=results/ci/rf_plain \
    cargo run --release -q -p relaxfault-bench --bin fig10_14_reliability -- 20000 >/dev/null \
    || exit 3
tables=(results/ci/rf_plain/fig1*.{txt,csv,json})
[ "${#tables[@]}" -eq 30 ] \
    || { echo "relcheck: expected 30 Figs 10-14 tables, found ${#tables[@]}" >&2; exit 3; }
for t in "${tables[@]}"; do
    cmp -s "$t" "results/ci/rf_check/${t##*/}" \
        || { echo "relcheck: RF_CHECK run changed ${t##*/}" >&2; exit 3; }
done

# Thread-matrix gate: which worker runs a trial must never change its
# result, and neither may a change that means to keep every output. One
# pinned scenario mix is digested at 1, 2 and 4 threads; all three
# digests must be identical bit for bit, and the fresh verdict must equal
# the committed results/ci/thread_matrix_verdict.json byte for byte. A
# change that means to move outputs re-records that file (same command,
# --out pointing at it). Any divergence exits 7.
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- thread-matrix \
    --trials 4000 --out results/ci/thread_matrix_fresh.json \
    || { echo "thread-matrix gate: thread counts diverged" >&2; exit 7; }
if ! cmp -s results/ci/thread_matrix_fresh.json results/ci/thread_matrix_verdict.json; then
    echo "thread-matrix gate: digests moved from the committed verdict:" >&2
    diff results/ci/thread_matrix_verdict.json results/ci/thread_matrix_fresh.json >&2 || true
    exit 7
fi

# Fleet checkpoint/resume determinism gate: a 1M-node fleet over 20
# epochs runs to completion once; it must leave a progress document
# reporting completion with a forecast section, and a snapshot recording
# all 20 completed epochs. The same fleet is then killed mid-epoch by
# the RF_FLEET_CRASH_AT hook (the kill must actually fire), resumed from
# the surviving checkpoints, and the resumed run's obs snapshot must be a
# zero-delta obs_diff match of the uninterrupted one — counters are exact,
# so any divergence fails the build. The checkpoint directory itself must
# satisfy the strict fleet-checkpoint schema validator (which also rejects
# mixed schema versions). Verdict JSON is archived under results/ci/.
rm -rf results/ci/fleet_ckpt
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=fleet_full \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    1000000 --epochs=20
progress=results/ci/obs/fleet_full.progress.json
grep -q '"status": "complete"' "$progress" \
    || { echo "fleet gate: progress document never reached complete" >&2; exit 4; }
grep -q '"forecast"' "$progress" \
    || { echo "fleet gate: progress document has no forecast" >&2; exit 4; }
grep -Eq '"fleet\.epochs_completed": 20,?$' results/ci/obs/fleet_full.json \
    || { echo "fleet gate: snapshot does not record 20 completed epochs" >&2; exit 4; }
if RF_OBS=on RF_RESULTS_DIR=results/ci RF_FLEET_CRASH_AT=mid:13 \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    1000000 --epochs=20 --ckpt-dir=results/ci/fleet_ckpt >/dev/null 2>&1; then
    echo "fleet gate: injected crash did not kill the run" >&2
    exit 4
fi
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=fleet_resumed \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    --resume --ckpt-dir=results/ci/fleet_ckpt
cargo run --release -q -p relaxfault-bench --bin obs_diff -- \
    results/ci/obs/fleet_full.json results/ci/obs/fleet_resumed.json \
    --threshold 10 --out results/ci/fleet_resume_verdict.json \
    || { echo "fleet gate: resumed run drifted from the full run" >&2; exit 4; }
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/fleet_ckpt \
    || exit 4

# Crash-dump gate: a mid-epoch injected crash with checkpointing on must
# leave a crash dump whose embedded checkpoint `relcheck replay` proves
# bit-exact, whose snapshot times every epoch span the run entered (0..=7),
# and which satisfies the strict schema validator — while a truncated copy
# of the same dump must be rejected.
rm -rf results/ci/crash_ckpt results/ci/crash_truncated
if RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=crash_small RF_FLEET_CRASH_AT=mid:7 \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    200000 --epochs=12 --ckpt-dir=results/ci/crash_ckpt >/dev/null 2>&1; then
    echo "crash-dump gate: injected crash did not kill the run" >&2
    exit 4
fi
dump=results/ci/obs/crash_small.crashdump.json
[ -f "$dump" ] || { echo "crash-dump gate: no crash dump written" >&2; exit 4; }
grep -A1 '"relsim.fleet.epoch_ns": {' "$dump" | grep -q '"count": 8,' \
    || { echo "crash-dump gate: dump does not time the 8 epochs entered" >&2; exit 4; }
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- replay "$dump" \
    || { echo "crash-dump gate: dump did not replay bit-exactly" >&2; exit 4; }
mkdir -p results/ci/crash_truncated
head -c 256 "$dump" > results/ci/crash_truncated/crash_small.crashdump.json
if cargo run --release -q -p relaxfault-bench --bin obs_validate \
    results/ci/crash_truncated >/dev/null 2>&1; then
    echo "crash-dump gate: truncated dump was accepted" >&2
    exit 4
fi

# Final sweep: everything the CI runs above dropped in results/ci/obs
# (snapshots, event streams, crash dumps) must validate.
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/obs \
    || { echo "obs gate: results/ci/obs failed validation" >&2; exit 4; }

# Engine hot-loop bench: replay the per-trial pipeline and snapshot it.
# Cargo runs bench binaries with the bench crate as cwd, so
# RF_RESULTS_DIR must be absolute. The history gate below ingests the
# snapshot; its comparison against the committed baseline (exit 2) runs
# last, because a timing verdict on a shared host is noisy and must not
# hide the deterministic gates after this one.
if [ -f results/baselines/engine_hot.json ]; then
    RF_OBS=on RF_RESULTS_DIR="$PWD/results/ci" RF_RUN_NAME=engine_hot \
        RF_BENCH_BATCH_MS=40 RF_BENCH_BATCHES=5 \
        cargo bench -q -p relaxfault-bench --bench engine_hot
fi

# Perf-history observatory gate: the CI runs above were ledgered at
# obs_finish; ingest sweeps in the rest (e.g. the engine_hot bench, which
# writes its own snapshot), and a second ingest over the unchanged tree
# must be a byte-level no-op. The ledger must satisfy the strict
# obs_validate schema and structural invariants, and a truncated copy
# must be rejected. On trees with the committed engine_hot
# baseline, the trend check runs on a scratch copy: extended with a flat
# synthetic tail it must pass twice with byte-identical dashboards, and
# with an injected 2x engine_hot.fig10_mix regression it must fail naming
# the series and changepoint epoch. Verdicts (check log + dashboards)
# are archived under results/ci/history_gate/. Any failure exits 6.
rm -rf results/ci/history_gate results/ci/history_truncated
cargo run --release -q -p relaxfault-bench --bin obs_report -- ingest --results results/ci \
    || exit 6
mkdir -p results/ci/history_gate
cp results/ci/history/ledger.jsonl results/ci/history_gate/ledger.jsonl
cargo run --release -q -p relaxfault-bench --bin obs_report -- ingest --results results/ci \
    || exit 6
cmp -s results/ci/history/ledger.jsonl results/ci/history_gate/ledger.jsonl \
    || { echo "history gate: re-ingest was not a byte-level no-op" >&2; exit 6; }
cargo run --release -q -p relaxfault-bench --bin obs_report -- report --results results/ci \
    || exit 6
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/history \
    || exit 6
mkdir -p results/ci/history_truncated
head -c $(( $(wc -c < results/ci/history/ledger.jsonl) - 3 )) \
    results/ci/history/ledger.jsonl > results/ci/history_truncated/ledger.jsonl
if cargo run --release -q -p relaxfault-bench --bin obs_validate \
    results/ci/history_truncated >/dev/null 2>&1; then
    echo "history gate: truncated ledger was accepted" >&2
    exit 6
fi
if [ -f results/baselines/engine_hot.json ]; then
    scratch=results/ci/history_gate/ledger.jsonl
    cargo run --release -q -p relaxfault-bench --bin obs_report -- extend \
        --ledger "$scratch" --series engine_hot.fig10_mix --factor 1.0 --count 6 \
        || exit 6
    cargo run --release -q -p relaxfault-bench --bin obs_report -- report \
        --results results/ci --ledger "$scratch" \
        --out results/ci/history_gate/report_clean_a.html --check \
        || { echo "history gate: clean trend failed the check" >&2; exit 6; }
    cargo run --release -q -p relaxfault-bench --bin obs_report -- report \
        --results results/ci --ledger "$scratch" \
        --out results/ci/history_gate/report_clean_b.html --check || exit 6
    cmp -s results/ci/history_gate/report_clean_a.html \
        results/ci/history_gate/report_clean_b.html \
        || { echo "history gate: dashboard render is not deterministic" >&2; exit 6; }
    cargo run --release -q -p relaxfault-bench --bin obs_report -- extend \
        --ledger "$scratch" --series engine_hot.fig10_mix --factor 2.0 --count 3 \
        || exit 6
    if cargo run --release -q -p relaxfault-bench --bin obs_report -- report \
        --results results/ci --ledger "$scratch" \
        --out results/ci/history_gate/report_regressed.html --check \
        > results/ci/history_gate/check.log; then
        echo "history gate: injected 2x regression was not caught" >&2
        exit 6
    fi
    grep -q "REGRESSION bench:engine_hot.fig10_mix" results/ci/history_gate/check.log \
        || { echo "history gate: regression verdict does not name the series" >&2; exit 6; }
    grep -Eq "at epoch [0-9]+" results/ci/history_gate/check.log \
        || { echo "history gate: regression verdict does not name the epoch" >&2; exit 6; }
    cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/history_gate \
        || exit 6
fi

# Figure-farm gate: the job-list runner must survive a mid-job crash and
# resume to the exact artifacts of an uninterrupted run, and an injected
# deterministic failure must be captured as a replayable ReproCase
# without stopping the other jobs. Three legs over the mini matrix
# (fig08_hashing, fig10_14_reliability, table3_config: all cost 1 at
# --scale=0.02, so one worker runs them in id order): (1) an
# uninterrupted reference run, (2) a one-worker crash at
# mid:fig10_14_reliability (must exit 4, with fig08_hashing already ledgered
# ok) followed by --resume (must exit 0, skip fig08_hashing, and leave
# reference-identical tables; obs_diff writes the verdict to
# results/ci/farm_resume_verdict.json), (3) a --fail-job run (must exit
# 3) whose archived repro replays cleanly and whose diagnostic job the
# ledger records as repro/ok. Any failure exits 8.
rm -rf results/ci/farm_ref results/ci/farm_crash results/ci/farm_fail
RF_OBS=on cargo run --release -q -p relaxfault-bench --bin farm -- \
    run --matrix=mini --scale=0.02 --jobs=2 --dir=results/ci/farm_ref \
    || { echo "farm gate: reference run failed" >&2; exit 8; }
rc=0
RF_OBS=on RF_FARM_CRASH_AT=mid:fig10_14_reliability \
    cargo run --release -q -p relaxfault-bench --bin farm -- \
    run --matrix=mini --scale=0.02 --jobs=1 --dir=results/ci/farm_crash \
    || rc=$?
[ "$rc" -eq 4 ] || { echo "farm gate: injected crash did not kill the farm (exit $rc)" >&2; exit 8; }
[ -f results/ci/farm_crash/obs/farm.crashdump.json ] \
    || { echo "farm gate: crash left no dump" >&2; exit 8; }
RF_OBS=on cargo run --release -q -p relaxfault-bench --bin farm -- \
    run --matrix=mini --scale=0.02 --jobs=1 --dir=results/ci/farm_crash --resume \
    || { echo "farm gate: resume did not finish the matrix" >&2; exit 8; }
grep -q "fig08_hashing,skipped" results/ci/farm_crash/farm_summary.csv \
    || { echo "farm gate: resume re-ran a completed job" >&2; exit 8; }
for ref in results/ci/farm_ref/{fig,table}*.json; do
    cmp -s "$ref" "results/ci/farm_crash/${ref##*/}" \
        || { echo "farm gate: resumed ${ref##*/} drifted from the reference" >&2; exit 8; }
done
cargo run --release -q -p relaxfault-bench --bin obs_diff -- \
    results/ci/farm_ref/obs/fig08_hashing.json results/ci/farm_crash/obs/fig08_hashing.json \
    --threshold 10 \
    || { echo "farm gate: resumed fig08_hashing metrics drifted" >&2; exit 8; }
cargo run --release -q -p relaxfault-bench --bin obs_diff -- \
    results/ci/farm_ref/obs/fig10_14_reliability.json results/ci/farm_crash/obs/fig10_14_reliability.json \
    --threshold 10 --out results/ci/farm_resume_verdict.json \
    || { echo "farm gate: resumed fig10_14_reliability metrics drifted" >&2; exit 8; }
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/farm_crash/farm \
    || { echo "farm gate: farm ledger failed validation" >&2; exit 8; }
rc=0
RF_OBS=on cargo run --release -q -p relaxfault-bench --bin farm -- \
    run --matrix=mini --scale=0.02 --jobs=2 --dir=results/ci/farm_fail \
    --fail-job=fig08_hashing || rc=$?
[ "$rc" -eq 3 ] || { echo "farm gate: injected failure did not fail the job (exit $rc)" >&2; exit 8; }
repro=results/ci/farm_fail/farm/jobs/fig08_hashing.repro.json
[ -f "$repro" ] || { echo "farm gate: no ReproCase archived for the failed job" >&2; exit 8; }
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- replay "$repro" \
    || { echo "farm gate: archived ReproCase did not replay" >&2; exit 8; }
grep -A3 '"id": "fig08_hashing-repro"' results/ci/farm_fail/farm/farm_state.json \
    | tr -d '\n ' | grep -q '"role":"repro","status":"ok"' \
    || { echo "farm gate: diagnostic job is not recorded repro/ok" >&2; exit 8; }

# Engine hot-loop regression gate: compare the engine_hot snapshot taken
# above against the committed baseline. A regression verdict (obs_diff
# exit 1) fails the build with exit 2; the verdict JSON is kept under
# results/ci/ either way.
if [ -f results/baselines/engine_hot.json ]; then
    cargo run --release -q -p relaxfault-bench --bin obs_diff -- \
        results/baselines/engine_hot.json results/ci/obs/engine_hot.json \
        --threshold 0.5 --out results/ci/engine_hot_regression_verdict.json \
        || exit 2
fi
