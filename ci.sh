#!/usr/bin/env bash
# CI gate for the workspace. Run from the repository root.
#
# Mirrors the tier-1 verify (build + tests) and adds the documentation
# and lint gates. Everything runs offline: all dependencies are vendored
# path crates (see vendor/).
set -euo pipefail

echo "==> cargo build --release"
cargo build --release

echo "==> cargo fmt --check (every workspace package)"
# Per package, not --all: --all would also format the vendored path
# crates under vendor/. The style is rustfmt.toml's; perf/ is not a
# workspace member.
for package in df-topology df-engine df-routing df-traffic df-stats df-workload \
    dragonfly-core df-service df-bench integration-tests; do
    cargo fmt -p "$package" -- --check
done

echo "==> cargo test -q"
# Unit, integration and doc tests of every workspace crate (the doc
# tests include df-workload's schema examples). Debug-assertion builds
# run the audit (docs/DETERMINISM.md) every AUDIT_EVERY cycles of every
# simulation, on top of the one that ends each run in any build. The
# suite also carries the golden digests
# (tests/tests/golden_outputs.rs: the scenario and sweep digests on the
# serial engine, the SimConfig digests serial and at shards: 2, with one
# row per output arbiter, since the other goldens all run transit
# priority); the
# shard-count invariance differential, which replays generated offer
# streams into the serial and the group-sharded engine over mechanism x
# arbiter and compares delivered-record streams (tests/tests/sharding.rs,
# which drops diverging pairs in target/shard-diagnostics/ for the
# workflow to archive); and the cache-equivalence proptests, which also
# count one route call per router visit (tests/tests/route_cache.rs).
cargo test -q

echo "==> vendored crates' own tests"
# vendor/ is not a workspace member, so the leg above never runs the
# stubs' unit and doc tests (serde_json's parser tests among them). Each
# run writes a Cargo.lock beside its manifest; .gitignore lists those.
for crate in rand rayon proptest serde_json; do
    cargo test -q --offline --manifest-path "vendor/$crate/Cargo.toml" --target-dir target/vendor
done

echo "==> release-mode tests (the audit without debug assertions)"
# Every build runs the same audit at the end of every run; only the
# periodic cadence is debug-only. These legs take the release build
# above as is. The route-cache properties, the goldens and the
# shard-invariance suite at release scheduling, and the worker-team
# tests (lockstep populations, nested sweeps, panic propagation and join
# at release-speed interleavings):
cargo test -q --release -p integration-tests \
    --test route_cache --test golden_outputs --test sharding \
    --test shard_team --test shard_team_panic
# The engine's own unit modules at release arithmetic: the audit's
# corruption table (every step must still name its violation with debug
# assertions off, where only the audit's own checks remain), the wait
# accounting's named panic on a stamp past the current cycle (a bare
# `u32` subtraction would wrap silently here), and the folded-pipeline
# timing tests.
cargo test -q --release -p df-engine
# And the simulator's end-of-run audit, where no periodic audit runs
# first to catch the corrupted engine.
cargo test -q --release -p dragonfly-core --lib finish_audits_in_every_build

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> sweep smoke run (bundled grid; the archived table)"
# golden_sweep_unfairness_grid pins these bytes; this run writes the
# table the workflow archives.
cargo run --release -p df-bench --bin sweep -- --quick \
    --csv "$artifacts/sweep_unfairness_grid.csv" \
    --out "$artifacts/sweep_unfairness_grid.json" \
    scenarios/sweep_unfairness_grid.json > /dev/null

echo "==> figure smoke run (table2 --quick: every paper mechanism through the figure bin)"
# Puts all seven mechanisms of the paper's set (so every source-routing
# rule and every in-transit policy) through a real binary end to end;
# the JSON is archived.
cargo run --release -p df-bench --bin figure -- table2 --quick \
    --out "$artifacts/table2_quick.json" > /dev/null

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
trap 'rm -rf "${service_dir:-}"; rm -f "${service_sock:-}"' EXIT
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
trap 'rm -rf "${service_dir:-}" "${recovery_dir:-}"; rm -f "${service_sock:-}" "${recovery_sock:-}"' EXIT
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
peak_rss_budget_mb=23.8
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
