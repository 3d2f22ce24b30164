#!/usr/bin/env bash
# Paired parent/change runs of one repository-benchmark workload, with
# the choosing-metrics §8 verdict per end-to-end metric.
#
#   scripts/benchpair.sh <parent-rev> <workload> [pairs=10] [seed]
#
# The parent is checked out (git archive) into .bench_build/pair/parent
# and built there by its own benchmark/run.sh; the change is the working
# tree this script sits in. Each pair runs both sides back to back with
# `--seconds 24 --trace 0`, alternating which side goes first, because
# this host's speed drifts by tens of percent over minutes and only
# neighbouring runs compare. Run nothing else meanwhile.
#
# Per metric it prints each side's median [quartiles], the pairs the
# change won (ties count for neither side) and the verdict: "better" /
# "worse" need ≥ 9/10 of all pairs *and* a median gap wider than the
# distance between the parent's own quartiles; anything else is
# "unresolved". Every run's result line is kept in
# .bench_build/pair/<workload>.log.
#
# The benchmark divides its times by workload.host_slowdown, a probe of
# how slow the host ran around each repetition. The probe can move
# against the workload (memory latency one way, CPU speed the other), so
# below the verdicts the script prints each side's median probe factor
# and the throughput as the clock showed it beside the corrected one,
# and says so when the two sides' factors differ by more than 10 %.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-rev> <workload> [pairs=10] [seed]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/pair"
parent="$work/parent"
log="$work/$workload.log"

rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$rev" | tar -x -C "$parent"
: >"$log"

args=(--workload "$workload" --seconds 24 --trace 0)
[ -n "$seed" ] && args+=(--seed "$seed")

# one <side> <dir> <pair>: run the benchmark in dir, log its result line
# behind the workload.host_slowdown median of its end-to-end table (an
# untraced run's result line does not carry it).
one() {
	local out line slow
	out=$(bash "$2/benchmark/run.sh" "${args[@]}" 2>/dev/null)
	line=$(tail -n 1 <<<"$out")
	case $line in
	*'"correct":true'*) ;;
	*) echo "benchpair: $1 run of pair $3 did not end in a correct result: $line" >&2; exit 1 ;;
	esac
	slow=$(awk '$1 == "workload.host_slowdown" { print $3 }' <<<"$out")
	echo "$1 $3 ${slow:-0} $line" >>"$log"
	echo "pair $3 $1: $(sed 's/.*"throughput_ops_s":{"value":\([0-9.e+]*\).*/\1/' <<<"$line") ops/s" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		one parent "$parent" "$i"; one change "$root" "$i"
	else
		one change "$root" "$i"; one parent "$parent" "$i"
	fi
done

echo "$workload: $pairs pairs, parent $(git -C "$root" rev-parse --short "$rev")${seed:+, seed $seed}"
# Pass 1 reads the metric names and directions from BENCHMARK.json's
# end_to_end list, pass 2 the logged result lines.
awk '
function quantile(v, n, q,    h, lo) {   # v sorted ascending, 1-based
	h = (n - 1) * q + 1; lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) {
		t = dst[i]
		for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
		dst[j + 1] = t
	}
}
FNR == NR {
	if ($0 ~ /"end_to_end"/) ine = 1
	else if (ine && $0 ~ /^  \]/) ine = 0
	else if (ine && $1 == "\"name\":") { gsub(/[",]/, "", $2); names[++nm] = $2 }
	else if (ine && $1 == "\"better\":") { gsub(/[",]/, "", $2); better[names[nm]] = $2 }
	next
}
{
	side = $1; pair = $2
	for (k = 1; k <= nm; k++) {
		pat = "\"" names[k] "\":{\"value\":"
		at = index($0, pat)
		if (!at) continue
		rest = substr($0, at + length(pat))
		sub(/,.*/, "", rest)
		val[side, names[k], pair] = rest + 0
	}
	slow[side, pair] = $3 + 0
	if (pair > np) np = pair
}
# sidemedian fills the globals sm (median host_slowdown of the side) and
# rm (median throughput as measured, before the correction).
function sidemedian(side,    i, a, b, as, bs) {
	for (i = 1; i <= np; i++) {
		a[i] = slow[side, i]
		b[i] = a[i] ? val[side, "throughput_ops_s", i] / a[i] : 0
	}
	sorted(a, np, as); sorted(b, np, bs)
	sm = quantile(as, np, 0.5); rm = quantile(bs, np, 0.5)
}
END {
	printf "%-18s %-38s %-38s %-6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]; won = lost = 0
		for (i = 1; i <= np; i++) {
			p[i] = val["parent", m, i]; c[i] = val["change", m, i]
			d = (better[m] == "higher") ? c[i] - p[i] : p[i] - c[i]
			if (d > 0) won++; else if (d < 0) lost++
		}
		sorted(p, np, ps); sorted(c, np, cs)
		pm = quantile(ps, np, 0.5); cm = quantile(cs, np, 0.5)
		p1 = quantile(ps, np, 0.25); p3 = quantile(ps, np, 0.75)
		c1 = quantile(cs, np, 0.25); c3 = quantile(cs, np, 0.75)
		gap = (better[m] == "higher") ? cm - pm : pm - cm
		verdict = "unresolved"
		if (won >= 0.9 * np && gap > p3 - p1) verdict = "better"
		if (lost >= 0.9 * np && -gap > p3 - p1) verdict = "worse"
		printf "%-18s %-38s %-38s %-6s %s (%+.1f%%)\n", m,
			sprintf("%.6g [%.6g, %.6g]", pm, p1, p3),
			sprintf("%.6g [%.6g, %.6g]", cm, c1, c3),
			won "/" np, verdict, pm ? 100 * (cm - pm) / pm : 0
		if (m == "throughput_ops_s") { pthr = pm; cthr = cm }
	}
	sidemedian("parent"); psm = sm; prm = rm
	sidemedian("change")
	if (!psm || !sm) exit # a benchmark that prints no probe factor
	printf "host_slowdown median: parent %.3g, change %.3g; throughput_ops_s as measured (corrected): parent %.6g (%.6g), change %.6g (%.6g)\n",
		psm, sm, prm, pthr, rm, cthr
	if (psm && (sm / psm > 1.1 || sm / psm < 1 / 1.1))
		printf "NOTE: the sides ran under host_slowdown medians %.0f%% apart; compare the as-measured numbers before trusting the corrected verdicts\n",
			100 * (sm > psm ? sm / psm - 1 : psm / sm - 1)
}' "$root/BENCHMARK.json" "$log"
