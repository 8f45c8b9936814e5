#!/bin/sh
# pairs.sh — the house rule for a wall-clock claim, as one command: N
# alternating parent/change runs of the repository's benchmark, every run
# printed, then each side's median and quartiles per end-to-end metric and
# how many pairs the change won (ROADMAP.md's house rules: one unpaired
# run proves nothing on a shared host).
#
# Usage: scripts/pairs.sh <parent-tree> <change-tree> <workload|all> <seed> <pairs>
#
# Each tree is a checkout with its own benchmark/run.sh, which builds into
# that tree's .bench_build/. Odd pairs run the parent first, even pairs the
# change. The metric list and which direction is better come from the change
# tree's BENCHMARK.json. Every run's full output is kept in $PAIRS_DIR (a
# fresh temporary directory when unset) as <pair>.<side>.txt, and with
# workload "all" its -out file as <pair>.<side>.json, so a ledger can be
# cut from the same runs.
set -eu

if [ $# -ne 5 ]; then
	echo "usage: $0 <parent-tree> <change-tree> <workload|all> <seed> <pairs>" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
dir=${PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$dir"

# "name better" for each end-to-end metric, in the contract's order.
metrics=$(awk '
	/"end_to_end": \[/ { on = 1; next }
	on && /^  \]/ { exit }
	on && /"name":/ { n = $2; gsub(/[",]/, "", n) }
	on && /"better":/ { b = $2; gsub(/[",]/, "", b); print n, b }' "$change/BENCHMARK.json")
[ -n "$metrics" ] || { echo "pairs.sh: no end_to_end metrics in $change/BENCHMARK.json" >&2; exit 1; }

tree_of() { if [ "$1" = parent ]; then echo "$parent"; else echo "$change"; fi; }

# Build both sides and check that they run at all before timing anything.
for side in parent change; do
	(cd "$(tree_of $side)" && bash benchmark/run.sh -workload "$workload" -seed "$seed" -smoke) > /dev/null
done

# run_one PAIR SIDE runs the benchmark in that side's tree and appends one
# line per workload to $dir/runs: pair side workload attempted failed, then
# the metrics in order.
run_one() {
	pair=$1 side=$2
	out="$dir/$pair.$side.txt"
	ledger=""
	if [ "$workload" = all ]; then
		ledger="-out $dir/$pair.$side.json"
	fi
	# $ledger is two words or none.
	# shellcheck disable=SC2086
	(cd "$(tree_of "$side")" && bash benchmark/run.sh -workload "$workload" -seed "$seed" $ledger) > "$out"
	awk -v pair="$pair" -v side="$side" -v metrics="$metrics" '
		BEGIN { n = split(metrics, f, /[ \n]+/); for (i = 1; i <= n; i += 2) order[++k] = f[i] }
		function flush(   i, line) {
			if (w == "") return
			line = pair " " side " " w " " attempted " " failed
			for (i = 1; i <= k; i++) line = line " " v[order[i]]
			print line
			split("", v)
		}
		/^[^ ].*: attempted [0-9]+, failed [0-9]+$/ {
			name = $1; sub(/:$/, "", name)
			if (name != w) flush()
			w = name; attempted = $3 + 0; failed = $5 + 0
			next
		}
		/^  [^ ]/ { v[$1] = $2 }
		END { flush() }' "$out" | tee -a "$dir/runs"
}

echo "# runs kept in $dir"
echo "# pair side workload attempted failed $(echo "$metrics" | awk '{ printf "%s ", $1 }')"
: > "$dir/runs"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run_one "$i" parent
		run_one "$i" change
	else
		run_one "$i" change
		run_one "$i" parent
	fi
	i=$((i + 1))
done

# Per workload and metric: median [q1–q3] of each side, and the pairs won
# (ties count for neither side).
awk -v metrics="$metrics" '
	BEGIN {
		n = split(metrics, f, /[ \n]+/)
		for (i = 1; i <= n; i += 2) { name[++k] = f[i]; better[k] = f[i + 1] }
	}
	function quantile(a, n, p,    pos, lo) {
		pos = (n - 1) * p; lo = int(pos)
		if (lo + 1 >= n) return a[n]
		return a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
	}
	function num(x) { return (x >= 1000 || x <= -1000) ? sprintf("%.0f", x) : sprintf("%.4g", x) }
	function summary(w, side, m,    n, i, j, t, a) {
		n = 0
		for (i = 1; i <= pairs; i++) if ((i, side, w, m) in val) a[++n] = val[i, side, w, m]
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return num(quantile(a, n, 0.5)) " [" num(quantile(a, n, 0.25)) "–" num(quantile(a, n, 0.75)) "]"
	}
	{
		if ($1 > pairs) pairs = $1
		if (!($3 in seen)) { seen[$3]; ws[++nw] = $3 }
		attempted[$3, $2] = attempted[$3, $2] " " $4
		failed[$3, $2] += $5
		for (m = 1; m <= k; m++) val[$1, $2, $3, m] = $(5 + m)
	}
	END {
		for (x = 1; x <= nw; x++) {
			w = ws[x]
			printf "\n%s: failed parent %d, change %d; attempted parent%s, change%s\n", w, failed[w, "parent"], failed[w, "change"], attempted[w, "parent"], attempted[w, "change"]
			for (m = 1; m <= k; m++) {
				won = 0; lost = 0
				for (i = 1; i <= pairs; i++) {
					p = val[i, "parent", w, m]; c = val[i, "change", w, m]
					if (better[m] == "lower") { t = p; p = c; c = t }
					if (c > p) won++; else if (c < p) lost++
				}
				printf "  %-20s parent %-26s change %-26s change won %d, lost %d of %d (%s is better)\n", name[m], summary(w, "parent", m), summary(w, "change", m), won, lost, pairs, better[m]
			}
		}
	}' "$dir/runs"
