#!/bin/sh
# A/B runner for the serve benchmark: runs servebench/run.sh in two
# source trees in alternating order and summarizes the pairs.
#
#   sh scripts/bench_ab.sh PARENT_TREE CHANGE_TREE WORKLOAD FIRST_SEED PAIRS
#
# Pair i (0-based) runs both trees on seed FIRST_SEED+i; the parent
# runs first in even pairs and the change in odd ones, so a drift of
# the host's speed does not favour one side. Each run's result line
# (the last line servebench prints) is appended to AB_OUT tagged with
# its side and seed. When all pairs are done, it prints for every
# metric each side's median and [q1–q3], the change's Δ% against the
# parent's median, and the pairs the change won (lower wins unless
# CHANGE_TREE/BENCHMARK.json marks the metric "better": "higher"). A
# metric with a "bound" there (the end-to-end ones) is marked WORSE
# when the change's median is worse than the parent's by more than
# that fraction, and ok otherwise. Last it prints each side's failed
# and attempted operations summed over all pairs, marked WORSE when
# the change failed a larger share. PAIRS 0 only summarizes AB_OUT.
#
# Every run lasts CHANGE_TREE/BENCHMARK.json's run_seconds. AB_TRACE
# (default 0) is passed to servebench as --trace; AB_OUT (default
# ./bench_ab-WORKLOAD-FIRST_SEED.log) collects the result lines. Needs
# only sh and awk besides what servebench/run.sh needs.
set -eu

if [ $# -ne 5 ]; then
	echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD FIRST_SEED PAIRS" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
first=$4
pairs=$5
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$change/BENCHMARK.json")
trace=${AB_TRACE:-0}
out=${AB_OUT:-./bench_ab-$workload-$first.log}

# run SIDE TREE SEED appends one tagged result line to $out.
run() {
	line=$(cd "$2" && bash servebench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace "$trace" | tail -n 1)
	case $line in
	'{"correct":true'*) ;;
	*) echo "bench_ab: $1 seed $3 gave no correct result: $line" >&2 ;;
	esac
	printf '%s %s %s\n' "$1" "$3" "$line" >>"$out"
}

i=0
while [ "$i" -lt "$pairs" ]; do
	seed=$((first + i))
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
	i=$((i + 1))
done

awk -v runs="$out" '
# BENCHMARK.json: remember which metrics are better when higher, and
# the bound of each metric that has one.
FILENAME != runs {
	if (match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH)
		sub(/"name": *"/, "", name)
		sub(/"$/, "", name)
	}
	if ($0 ~ /"better": *"higher"/) higher[name] = 1
	if (match($0, /"bound": *[0-9.eE+-]+/)) {
		b = substr($0, RSTART, RLENGTH)
		sub(/"bound": */, "", b)
		bound[name] = b + 0
	}
	next
}
# A result line: SIDE SEED {"correct":…,"metrics":{"m":{"value":v,…},…}}
{
	side = $1
	seed = $2
	if (side == "parent") seen[seed] = 1
	rest = $0
	if (match(rest, /"attempted":[0-9]+/)) attempted[side] += substr(rest, RSTART + 12, RLENGTH - 12)
	if (match(rest, /"failed":[0-9]+/)) {
		f = substr(rest, RSTART + 9, RLENGTH - 9)
		val[side, "failed", seed] = f
		names["failed"] = 1
		failed[side] += f
	}
	while (match(rest, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
		m = substr(rest, RSTART, RLENGTH)
		rest = substr(rest, RSTART + RLENGTH)
		key = m
		sub(/^"/, "", key)
		sub(/".*/, "", key)
		v = m
		sub(/.*"value":/, "", v)
		val[side, key, seed] = v + 0
		names[key] = 1
	}
}
# sortv sorts a[1..n] in place (insertion sort: n is small).
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# q returns the p-quantile of the sorted a[1..n], interpolated.
function q(a, n, p,    h, lo) {
	if (n == 0) return 0
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
# share returns failed/attempted as a fraction (0 when nothing ran).
function share(side) {
	return attempted[side] > 0 ? failed[side] / attempted[side] : 0
}
END {
	printf "%-40s %28s %28s %8s %6s %s\n", "metric", "parent median [q1-q3]", "change median [q1-q3]", "delta", "won", "bound"
	for (key in names) sorted[++nk] = key
	sortv(sorted, nk)
	for (k = 1; k <= nk; k++) {
		key = sorted[k]
		np = nc = won = n = 0
		delete pv
		delete cv
		for (seed in seen) {
			if (!(("parent", key, seed) in val) || !(("change", key, seed) in val)) continue
			p = val["parent", key, seed]
			c = val["change", key, seed]
			pv[++np] = p
			cv[++nc] = c
			n++
			if ((key in higher) ? c > p : c < p) won++
		}
		if (n == 0) continue
		sortv(pv, np)
		sortv(cv, nc)
		pm = q(pv, np, 0.5)
		cm = q(cv, nc, 0.5)
		d = (pm != 0) ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "-"
		verdict = ""
		if (key in bound) {
			worse = (key in higher) ? pm - cm : cm - pm
			verdict = sprintf("%s (%.0f%%)", (worse > bound[key] * (pm < 0 ? -pm : pm)) ? "WORSE" : "ok", 100 * bound[key])
		}
		printf "%-40s %10.4g [%.4g-%.4g] %10.4g [%.4g-%.4g] %8s %3d/%d %s\n", key,
			pm, q(pv, np, 0.25), q(pv, np, 0.75), cm, q(cv, nc, 0.25), q(cv, nc, 0.75), d, won, n, verdict
	}
	printf "failed/attempted: parent %d/%d (%.3f%%), change %d/%d (%.3f%%) %s\n",
		failed["parent"], attempted["parent"], 100 * share("parent"),
		failed["change"], attempted["change"], 100 * share("change"),
		(share("change") > share("parent")) ? "WORSE" : "ok"
}
' "$change/BENCHMARK.json" "$out"
