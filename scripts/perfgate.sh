#!/usr/bin/env bash
# Gates the end-to-end benchmark's host-independent numbers against the
# checked-in scripts/perfgate.baseline. For each workload it runs
#
#   bash perfbench/run.sh --workload W --seed 1 --seconds 1 --trace 0
#
# and fails when the run reports "correct":false, when the report digest
# line differs from the baseline (a report byte changed) or when
# allocs_per_job is more than 3% above it. Wall-time metrics drift with the
# host and are not gated here.
#
#   scripts/perfgate.sh
#
# The serve workload sizes its tenants, job list and pool by the CPU count
# the Go runtime sees, so its digest depends on it. The baseline's `cpus`
# line names the count it was recorded with; every run is pinned (taskset)
# to that many of the CPUs this process may use, and the gate refuses to run
# on a host with fewer.
#
# A change that moves a digest or an allocation count on purpose updates the
# baseline in the same commit: rerun the command above for each workload
# under `taskset -c` with the baseline's CPU count and copy its digest line
# and allocs_per_job into the file.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build

want_cpus=$(awk '$1 == "cpus" { print $2 }' scripts/perfgate.baseline)
allowed=()
for r in $(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status | tr ',' ' '); do
	for ((c = ${r%-*}; c <= ${r#*-}; c++)); do allowed+=("$c"); done
done
if [ -z "$want_cpus" ] || [ "${#allowed[@]}" -lt "$want_cpus" ]; then
	echo "perfgate: the baseline was recorded on ${want_cpus:-an unstated number of} CPUs; this host allows ${#allowed[@]}" >&2
	exit 2
fi
pin=$(IFS=,; echo "${allowed[*]:0:want_cpus}")

fail=0
while read -r -u 3 workload allocs digest; do
	case "$workload" in '' | '#'* | cpus) continue ;; esac
	if ! out=$(taskset -c "$pin" bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 2>.bench_build/perfgate.err); then
		cat .bench_build/perfgate.err >&2
		echo "perfgate: $workload: benchmark run failed" >&2
		fail=1
		continue
	fi
	got_digest=$(grep '^digest ' <<<"$out" || true)
	result=$(tail -n 1 <<<"$out")
	got_allocs=$(grep -o '"allocs_per_job":{"value":[0-9.e+]*' <<<"$result" | cut -d: -f3 || true)
	verdict=ok
	if [[ "$result" != *'"correct":true'* ]]; then
		verdict=FAIL
		cat .bench_build/perfgate.err >&2
		echo "perfgate: $workload: the run did not report \"correct\":true" >&2
	fi
	if [ "$got_digest" != "$digest" ]; then
		verdict=FAIL
		echo "perfgate: $workload: digest changed" >&2
		echo "  want: $digest" >&2
		echo "  got:  ${got_digest:-no digest line}" >&2
	fi
	if [ -z "$got_allocs" ] || awk -v g="$got_allocs" -v b="$allocs" 'BEGIN { exit !(g > b * 1.03) }'; then
		verdict=FAIL
		echo "perfgate: $workload: allocs_per_job ${got_allocs:-missing} is over baseline $allocs +3%" >&2
	fi
	echo "perfgate: $workload: $verdict (allocs_per_job ${got_allocs:-missing}, baseline $allocs, CPUs $pin)"
	[ "$verdict" = ok ] || fail=1
done 3<scripts/perfgate.baseline
exit "$fail"
