#!/usr/bin/env bash
# Run the whole benchmark twice with the same seed and compare the two sets of
# end-to-end numbers against the bounds in BENCHMARK.json.
#
#   benchmark/repeat.sh [--seed N] [--seconds S] [--quick]
#
# Prints, per workload and end-to-end metric, how much worse the second run
# was than the first (negative = better) beside the metric's bound, as a
# markdown table; exits non-zero if any metric was worse by more than its
# bound. REPEATABILITY.md is this script's output on the box it was written
# on.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
for run in 1 2; do
    "$here/run.sh" "$@" >&2
    cp "$here/out/results.json" "$here/out/results.$run.json"
done
python3 - "$here/../BENCHMARK.json" "$here/out/results.1.json" "$here/out/results.2.json" <<'EOF'
import json, sys

manifest, first, second = (json.load(open(p)) for p in sys.argv[1:4])

def e2e(results):
    return {r["workload"]: r["metrics"] for r in results["runs"] if r["kind"] == "e2e"}

a, b = e2e(first), e2e(second)
env = first["env"]
print(f"seed {env['seed']}, {env['seconds']} s per run, nproc {env['nproc']}, {env['rustc']}, git {env['git_sha'][:12]}\n")
print("| workload | metric | first | second | worse by | bound | |")
print("|---|---|---|---|---|---|---|")
exceeded = 0
for w in manifest["workloads"]:
    for m in manifest["end_to_end"]:
        x, y = a[w["name"]][m["name"]]["value"], b[w["name"]][m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        over = worse > m["bound"]
        exceeded += over
        print(f"| {w['name']} | {m['name']} | {x:.4g} | {y:.4g} | {worse:+.1%} | {m['bound']:.0%} | {'EXCEEDED' if over else 'ok'} |")
print(f"\n{exceeded} metric(s) outside their bound")
sys.exit(1 if exceeded else 0)
EOF
