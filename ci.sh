#!/usr/bin/env bash
# CI gate for the workspace. Run from the repository root.
#
# Mirrors the tier-1 verify (build + tests) and adds the documentation
# and lint gates. Everything runs offline: all dependencies are vendored
# path crates (see vendor/).
set -euo pipefail

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# Debug-assertion builds recompute every reused route-cache decision and
# run the audit (docs/DETERMINISM.md) every AUDIT_EVERY cycles of every
# simulation, on top of the one that ends each run in any build; the
# suite also carries the golden digests (tests/tests/golden_outputs.rs)
# and the cache-equivalence proptests (tests/tests/route_cache.rs).
cargo test -q

echo "==> sharded tier-1 suite (DF_TEST_SHARDS=2)"
# Every spec literal and bundled file in the tree leaves `shards` unset,
# so this env var reroutes the ENTIRE suite — golden digests included —
# through the group-sharded engine. Passing here means the sharded engine
# reproduces every serial expectation byte-for-byte (the shard-count
# invariance contract, docs/DETERMINISM.md); there are no sharded goldens
# to re-record, by design. On mismatch the shard-invariance proptests
# drop the offending result pairs in target/shard-diagnostics/, which
# the workflow archives.
DF_TEST_SHARDS=2 cargo test -q

echo "==> release-mode audit (--features shadow-verify)"
# The audit, every AUDIT_EVERY cycles, at release scheduling: release
# builds drop debug assertions, so the periodic audit inside every
# simulation and the recompute-and-compare check on every reused routing
# decision are re-enabled explicitly and exercised under the optimized
# scheduling they are meant to guard — on the route-cache properties, the
# goldens (serial and sharded), the shard-invariance suite, and the
# worker-team tests (lockstep populations, nested sweeps, panic
# propagation and join at release-speed interleavings).
cargo test -q --release -p integration-tests --features shadow-verify \
    --test route_cache --test golden_outputs --test sharding \
    --test shard_team --test shard_team_panic
# The engine's own unit modules at release arithmetic: the audit's
# corruption table (every step must still name its violation with debug
# assertions off — the plain `cycle - eligible_at` of a grant wraps
# instead of panicking there) and the folded-pipeline timing tests.
cargo test -q --release -p df-engine --features shadow-verify
# And the other half: a plain release build has no periodic audit, so
# here only the end-of-run one can catch the corrupted engine.
cargo test -q --release -p dragonfly-core --lib finish_audits_in_every_build

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings


echo "==> doc tests (df-workload schema examples et al.)"
cargo test -q --doc

# What the legs below write for the workflow to archive; nothing under
# it is committed (target/ is ignored).
artifacts=target/ci-artifacts
mkdir -p "$artifacts"

echo "==> scenario smoke run (reduced cycles) + timeline stream"
# The smoke run doubles as the windowed-telemetry gate: every mechanism
# streams one JSONL row per closed window, and each run's end-of-run
# audit panics unless its windows are contiguous and sum to its counters.
cargo run --release -p df-bench --bin scenario -- --quick \
    --timeline "$artifacts/timeline_interference.jsonl" \
    scenarios/interference_advc_vs_uniform.json > /dev/null

echo "==> shard-count invariance smoke (--shards 2 vs serial, byte-compare)"
# Same spec, same seed, different engine: the sharded CLI run must print
# byte-identical output. The beyond-paper h=7 machine (p=7, a=14 — 99
# groups, 9,702 nodes, one step past the paper's largest evaluation)
# runs the same gate end-to-end under the sharded engine.
shard_dir="$(mktemp -d)"
cargo run --release -p df-bench --bin scenario -- --quick \
    scenarios/interference_advc_vs_uniform.json > "$shard_dir/serial.out"
cargo run --release -p df-bench --bin scenario -- --quick --shards 2 \
    scenarios/interference_advc_vs_uniform.json > "$shard_dir/sharded.out"
cmp "$shard_dir/serial.out" "$shard_dir/sharded.out"
cargo run --release -p df-bench --bin scenario -- --quick \
    scenarios/beyond_paper_h7.json > "$shard_dir/h7-serial.out"
cargo run --release -p df-bench --bin scenario -- --quick --shards 2 \
    scenarios/beyond_paper_h7.json > "$shard_dir/h7-sharded.out"
cmp "$shard_dir/h7-serial.out" "$shard_dir/h7-sharded.out"
rm -rf "$shard_dir"

echo "==> sweep smoke run + determinism gate (bundled grid, twice, bit-compare)"
# The long-format table must be bit-identical across same-seed runs
# regardless of how cells were scheduled across threads. The first run's
# table lands in $artifacts for the workflow to archive.
sweep_rerun="$(mktemp -d)"
trap 'rm -rf "${sweep_rerun:-}"' EXIT
cargo run --release -p df-bench --bin sweep -- --quick \
    --csv "$artifacts/sweep_unfairness_grid.csv" \
    --out "$artifacts/sweep_unfairness_grid.json" \
    scenarios/sweep_unfairness_grid.json > /dev/null
cargo run --release -p df-bench --bin sweep -- --quick \
    --csv "$sweep_rerun/table.csv" --out "$sweep_rerun/table.json" \
    scenarios/sweep_unfairness_grid.json > /dev/null
cmp "$artifacts/sweep_unfairness_grid.csv" "$sweep_rerun/table.csv"
cmp "$artifacts/sweep_unfairness_grid.json" "$sweep_rerun/table.json"
# Sharded leg of the same gate: `--shards 2` threads through the base
# spec into every expanded cell, and both artifacts must still match the
# serial run byte-for-byte (the in-tree golden digests pin the same).
cargo run --release -p df-bench --bin sweep -- --quick --shards 2 \
    --csv "$sweep_rerun/sharded.csv" --out "$sweep_rerun/sharded.json" \
    scenarios/sweep_unfairness_grid.json > /dev/null
cmp "$artifacts/sweep_unfairness_grid.csv" "$sweep_rerun/sharded.csv"
cmp "$artifacts/sweep_unfairness_grid.json" "$sweep_rerun/sharded.json"

echo "==> SimConfig determinism gate (figure table2 --quick: twice serial, once sharded, bit-compare)"
# Every smoke above and below enters through a ScenarioSpec; the figure
# bin enters through SimConfig + run_grid (run_single per cell x seed),
# which installs the whole-machine generation source instead of per-job
# ones. Same contract: same seed, same bytes, whatever the engine. The
# --out document carries no `shards` field (it serializes labels and
# results, not configs), so the env var is the way to reroute it and the
# three files must be equal.
cargo run --release -p df-bench --bin figure -- table2 --quick \
    --out "$artifacts/table2_quick.json" > /dev/null
cargo run --release -p df-bench --bin figure -- table2 --quick \
    --out "$sweep_rerun/table2.json" > /dev/null
DF_TEST_SHARDS=2 cargo run --release -p df-bench --bin figure -- table2 --quick \
    --out "$sweep_rerun/table2-sharded.json" > /dev/null
cmp "$artifacts/table2_quick.json" "$sweep_rerun/table2.json"
cmp "$artifacts/table2_quick.json" "$sweep_rerun/table2-sharded.json"

echo "==> service smoke (df-serve: cache replay + admission control + drain)"
# Boot the job server with a deliberately tiny admission window, submit
# the bundled interference scenario twice — the second submission must
# be answered from the result cache, byte-identical to the first — then
# provoke a rejected-overload with stall-fault jobs that pin the single
# worker, and shut the server down gracefully: the drain must count both
# stall jobs (the running one and the queued one). The event log is the
# artifact CI archives (see docs/SERVICE.md).
service_sock="$(mktemp -u /tmp/df-service-ci.XXXXXX.sock)"
service_dir="$(mktemp -d)"
trap 'rm -rf "${sweep_rerun:-}" "${service_dir:-}"; rm -f "${service_sock:-}"' EXIT
cargo run --release -p df-bench --bin df-serve -- \
    --socket "$service_sock" --workers 1 --queue-depth 1 \
    --event-log "$artifacts/service_events.jsonl" &
service_pid=$!
for _ in $(seq 1 100); do
    [ -S "$service_sock" ] && break
    sleep 0.1
done
[ -S "$service_sock" ] || { echo "df-serve never bound its socket" >&2; exit 1; }
submit() { cargo run --release -p df-bench --bin df-submit -- --socket "$service_sock" "$@"; }
submit --quick --out "$service_dir/first.json" \
    scenarios/interference_advc_vs_uniform.json
submit --quick --out "$service_dir/second.json" \
    scenarios/interference_advc_vs_uniform.json 2> "$service_dir/second.log"
grep -q cached "$service_dir/second.log"
cmp "$service_dir/first.json" "$service_dir/second.json"
# Over-quota burst: two stalling jobs fill the worker and the one queue
# slot, then a third waiting submission must be rejected with exit
# code 3. The seed lists differ from the cached run above (the cache
# key pins the seeds), so none of these is answered from the cache. The
# stalls outlast every step up to the shutdown, so both jobs are still
# live when it arrives.
submit --quick --seeds 2 --no-wait \
    --fault '{"stall_at_cycle": 10, "stall_ms": 5000}' \
    scenarios/paper_job_anatomy.json
sleep 0.5  # let the worker claim the first stall job before queueing the next
submit --quick --seeds 2 --no-wait \
    --fault '{"stall_at_cycle": 10, "stall_ms": 5000}' \
    scenarios/interference_advc_vs_uniform.json
sleep 0.5
rc=0
submit --quick --seeds 4 scenarios/interference_advc_vs_uniform.json || rc=$?
[ "$rc" -eq 3 ] || { echo "expected rejected-overload exit 3, got $rc" >&2; exit 1; }
submit --shutdown 2> "$service_dir/shutdown.log"
grep -q "2 jobs drained" "$service_dir/shutdown.log" || {
    echo "expected the shutdown to drain 2 jobs, got: $(cat "$service_dir/shutdown.log")" >&2
    exit 1
}
wait "$service_pid"

echo "==> kill-recovery leg (durable state: crash mid-sweep, resume from checkpoint)"
# A state-backed server is aborted by a crash-point fault after three
# sweep-unit commits. A restarted server over the same --state-dir must
# resume the bundled sweep from its checkpoint — recomputing strictly
# fewer cells than the full grid — and the recovered table must be
# byte-identical to an uninterrupted run on a fresh state dir. A final
# submission replays the same bytes from the durable result cache.
recovery_sock="$(mktemp -u /tmp/df-recovery-ci.XXXXXX.sock)"
recovery_dir="$(mktemp -d)"
trap 'rm -rf "${sweep_rerun:-}" "${service_dir:-}" "${recovery_dir:-}"; rm -f "${service_sock:-}" "${recovery_sock:-}"' EXIT
serve_recovery() { # <state-dir> <event-log>
    cargo run --release -p df-bench --bin df-serve -- \
        --socket "$recovery_sock" --workers 1 \
        --state-dir "$1" --event-log "$2" &
    recovery_pid=$!
    # Wait for a socket that accepts, not one that exists: the aborted
    # server leaves its socket file behind until the restart reclaims it.
    for _ in $(seq 1 100); do
        python3 -c 'import socket, sys; socket.socket(socket.AF_UNIX).connect(sys.argv[1])' \
            "$recovery_sock" 2> /dev/null && return
        sleep 0.1
    done
    echo "df-serve (recovery leg) never bound its socket" >&2
    exit 1
}
rsubmit() { cargo run --release -p df-bench --bin df-submit -- --socket "$recovery_sock" "$@"; }
# Uninterrupted baseline on a throwaway state dir.
serve_recovery "$recovery_dir/baseline-state" "$recovery_dir/baseline.jsonl"
rsubmit --sweep --quick --out "$recovery_dir/baseline.json" \
    scenarios/sweep_unfairness_grid.json
rsubmit --shutdown
wait "$recovery_pid"
# Crash leg: the fault aborts the server after the third unit commit;
# the client sees a dropped connection (nonzero exit) and the state dir
# keeps the committed checkpoint lines.
serve_recovery "$recovery_dir/state" "$recovery_dir/crash.jsonl"
rsubmit --sweep --quick --fault '{"crash_after_cells": 3}' \
    scenarios/sweep_unfairness_grid.json 2> /dev/null || true
wait "$recovery_pid" 2> /dev/null || true
# Resume leg: the restart reclaims the stale socket the abort left
# behind, replays the checkpoint, and recomputes only unfinished cells.
serve_recovery "$recovery_dir/state" "$recovery_dir/resume.jsonl"
rsubmit --sweep --quick --out "$recovery_dir/recovered.json" \
    scenarios/sweep_unfairness_grid.json 2> "$recovery_dir/resume.log"
grep -q recovered "$recovery_dir/resume.log"
total_units=36 # 3 loads x 2 patterns x 2 placements x 3 mechanisms, 1 quick seed
resumed_rows=$(grep -c '"event":"sweep_rows"' "$recovery_dir/resume.jsonl")
[ "$resumed_rows" -ge 1 ] && [ "$resumed_rows" -lt "$total_units" ] || {
    echo "resume recomputed $resumed_rows of $total_units units (expected strictly fewer)" >&2
    exit 1
}
cmp "$recovery_dir/baseline.json" "$recovery_dir/recovered.json"
# The completed table is now a durable cache entry: a resubmission is a
# byte-identical cached replay, not a rerun.
rsubmit --sweep --quick --out "$recovery_dir/cached.json" \
    scenarios/sweep_unfairness_grid.json 2> "$recovery_dir/cached.log"
grep -q cached "$recovery_dir/cached.log"
cmp "$recovery_dir/baseline.json" "$recovery_dir/cached.json"
rsubmit --shutdown
wait "$recovery_pid"

echo "==> benchmark smoke gate (perf/check.sh: df-perf unit tests, every workload at smoke scale)"
# The layered benchmark is a detached package, so nothing above builds
# it: a change to an API it pins (perf/README.md) would otherwise only
# fail when the benchmark is next run. check.sh builds it, runs every
# workload once at smoke scale (timed and traced pass, pinned digests
# included) and checks the metric tables against BENCHMARK.json.
perf/check.sh

echo "==> paper scale (df-perf, 4 s each): peak-RSS gate on paper_advc, s2/serial printed"
# Peak RSS at Table I repeats to well under 1 % run to run, so it is the
# one paper-scale number gated here: the budget is the largest of ten
# runs of this gate's command plus 10 % (README, Performance). Speed does
# not repeat on a shared box: ROADMAP "make sharding pay or delete it" is
# decided on s2/serial over alternating pairs, and one short run each is
# only a reading, so that ratio can never fail the gate.
peak_rss_budget_mb=32.8
paper_run() {
    cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
        --workload "$1" --seed 11 --seconds 4 --trace 0 | tail -n 1
}
metric() {
    python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"][sys.argv[1]]["value"])' "$1"
}
advc="$(paper_run paper_advc)"
rss="$(metric peak_rss_mb <<< "$advc")"
echo "paper_advc peak_rss_mb = $rss (budget $peak_rss_budget_mb)"
python3 -c "import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))" \
    "$rss" "$peak_rss_budget_mb" || {
    echo "paper_advc peak_rss_mb $rss exceeds its $peak_rss_budget_mb MB budget" >&2
    exit 1
}
{
    serial="$(metric sim_cycles_per_s <<< "$advc")" &&
        s2="$(paper_run paper_advc_s2 | metric sim_cycles_per_s)" &&
        python3 -c "print('s2/serial = %.2f' % ($s2 / $serial))"
} || echo "s2/serial = n/a (reading failed)"

echo "CI gate passed."
