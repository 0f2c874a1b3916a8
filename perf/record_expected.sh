#!/usr/bin/env bash
# Re-record perf/workloads/expected.json: the default-seed digest and
# headline simulated statistics of every workload, at full and at smoke
# scale. Run it only when a change is *meant* to move same-seed output
# (the docs/DETERMINISM.md procedure); a PR that only speeds the
# simulator must leave this file untouched.
set -euo pipefail
cd "$(dirname "$0")/.."
seed=11
run() { cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"; }
rows() { # $1 = extra flag ("" or --smoke)
  for w in paper_advc paper_un_pb paper_advc_s2 sweep_grid service_mix; do
    # The shortest time box: digests do not depend on timing.
    run --workload "$w" --seed "$seed" --seconds 1 --trace 0 $1 2>/dev/null | tail -n 2 | head -n 1
  done
}
{ rows ""; echo "---"; rows "--smoke"; } | python3 -c '
import json, sys
full, smoke = [], []
cur = full
for line in sys.stdin:
    line = line.strip()
    if line == "---":
        cur = smoke
        continue
    d = json.loads(line)
    cur.append({"workload": d["workload"], "digest": d["digest"], "headline": d["headline"]})
json.dump({"seed": 11, "full": full, "smoke": smoke}, open("perf/workloads/expected.json", "w"), indent=2)
open("perf/workloads/expected.json", "a").write("\n")
'
echo "recorded perf/workloads/expected.json at seed $seed"
