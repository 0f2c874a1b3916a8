#!/usr/bin/env bash
# Smoke gate for the benchmark: builds df-perf offline, checks that the
# metric tables compiled into it are the ones BENCHMARK.json declares,
# runs every workload once at smoke scale (figure1 machine, one sweep
# seed, the small service mix; timed and traced pass), and asserts that
# every workload reports every declared metric, finite, with its unit.
# Run from anywhere; needs no network.
set -euo pipefail
cd "$(dirname "$0")/.."
perf() { cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"; }

cargo test --release --offline --quiet --manifest-path perf/Cargo.toml

perf run --smoke --out perf/out/smoke.json >/dev/null
perf metrics > perf/out/metrics.json

python3 - <<'PY'
import json, math, sys
bench = json.load(open("BENCHMARK.json"))
built = json.load(open("perf/out/metrics.json"))
report = json.load(open("perf/out/smoke.json"))
problems = []
for kind in ("end_to_end", "per_layer"):
    if bench[kind] != built[kind]:
        problems.append(f"BENCHMARK.json {kind} differs from the tables compiled into df-perf")
workloads = [w["name"] for w in bench["workloads"]]
if [w["workload"] for w in report["workloads"]] != workloads:
    problems.append("report workloads differ from BENCHMARK.json")
for w in report["workloads"]:
    if w["failed"] != 0 or w["attempted"] < 1 or not w["digest"]:
        problems.append(f"{w['workload']}: failed {w['failed']} of {w['attempted']}")
for kind, value_key in (("end_to_end", "median"), ("per_layer", "value")):
    rows = {(r["workload"], r["name"]): r for r in report[kind]}
    for w in workloads:
        for m in bench[kind]:
            row = rows.get((w, m["name"]))
            if row is None:
                problems.append(f"{w}: {m['name']} missing")
            elif row["unit"] != m["unit"]:
                problems.append(f"{w}: {m['name']} has unit {row['unit']}, want {m['unit']}")
            elif not isinstance(row[value_key], (int, float)) or not math.isfinite(row[value_key]):
                problems.append(f"{w}: {m['name']} is not finite")
    if len(rows) != len(workloads) * len(bench[kind]):
        problems.append(f"{kind}: {len(rows)} rows, want {len(workloads) * len(bench[kind])}")
if "unvalidated" not in report["note"]:
    problems.append("report lacks the model-unvalidated statement")
for p in problems:
    print("check.sh: FAILED:", p, file=sys.stderr)
sys.exit(1 if problems else 0)
PY
for w in paper_advc paper_un_pb paper_advc_s2 sweep_grid service_mix; do
  test -s "perf/out/trace-$w.jsonl" || { echo "check.sh: FAILED: no trace for $w" >&2; exit 1; }
done
echo "check.sh: ok"
