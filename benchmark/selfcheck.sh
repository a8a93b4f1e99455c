#!/usr/bin/env bash
# Runs the benchmark against itself: two interleaved sets of runs of the
# same build, and per workload and end-to-end metric prints both medians,
# each set's quartiles and spread, the relative difference between the
# medians and the declared bound. Exits non-zero if a difference exceeds
# its bound, or a spread other than setup_s's exceeds it.
#
#   selfcheck.sh                     two sets of 5 runs on seed 1, then on seed 2
#   selfcheck.sh --runs 10 --vary    two sets of 10 runs, run i on seed i: what the
#                                    driver that accepts the benchmark does
#
# Quartiles are Python's statistics.quantiles(values, n=4), the spread is
# their distance as a share of the median.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs=5 seeds="1 2" vary=0
while [ $# -gt 0 ]; do
	case "$1" in
	--runs) runs="$2"; shift 2 ;;
	--vary) vary=1; shift ;;
	*) echo "selfcheck: unknown argument $1" >&2; exit 2 ;;
	esac
done
[ "$vary" = 1 ] && seeds="1..$runs"

cd "$root"
spec="$(python3 -c 'import json; print(json.dumps(json.load(open("BENCHMARK.json"))))')"
seconds="$(python3 -c 'import json,sys; print(json.loads(sys.argv[1])["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.loads(sys.argv[1])["workloads"]))' "$spec")"
out="$root/.bench_build/selfcheck"
mkdir -p "$out"

status=0
for row in $seeds; do
	log="$out/runs-$row.jsonl"
	: >"$log"
	for i in $(seq 1 "$runs"); do
		seed="$row"
		[ "$vary" = 1 ] && seed="$i"
		for set in A B; do
			for w in $workloads; do
				line="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
				echo "{\"set\":\"$set\",\"workload\":\"$w\",\"seed\":$seed,\"result\":$line}" >>"$log"
			done
		done
	done
	python3 - "$log" "$row" "$spec" <<'EOF' || status=1
import json, statistics, sys
log, row, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
runs = [json.loads(l) for l in open(log)]
bad = False
print(f"seed {row}: two sets of {len(runs) // 2 // len({r['workload'] for r in runs})} runs per workload")
print(f"{'workload':14}{'metric':24}{'median A':>12}{'median B':>12}{'q1..q3 A':>26}{'spread A':>9}{'spread B':>9}{'B vs A':>9}{'bound':>7}")
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        sets = {}
        for s in "AB":
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs if r["set"] == s and r["workload"] == w]
            if not vals:
                break
            if not all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs if r["workload"] == w):
                bad = True
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            sets[s] = (med, q, (q[2] - q[0]) / med)
        if len(sets) < 2:
            continue
        (ma, qa, sa), (mb, _, sb) = sets["A"], sets["B"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = ""
        if worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"]):
            flag, bad = "  FAIL", True
        elif m["name"] != "setup_s" and max(abs(worse), sa, sb) > m["bound"] / 2:
            flag = "  over half the bound"
        print(f"{w:14}{m['name']:24}{ma:12.5g}{mb:12.5g}{qa[0]:13.5g}..{qa[2]:<11.5g}{sa:9.2%}{sb:9.2%}{worse:+9.2%}{m['bound']:7.0%}{flag}")
sys.exit(1 if bad else 0)
EOF
done
exit $status
