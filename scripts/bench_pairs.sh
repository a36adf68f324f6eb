#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the pairs
# protocol behind every "claimed gain" in EXPERIMENTS.md. Run it from
# anywhere in the repository:
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD FIRST_SEED LAST_SEED
#
# PARENT_REV is exported with `git archive` into .bench_pairs/parent
# (fresh file times, so cargo rebuilds it) and built there with its own
# target dir; the working tree is the change. Nothing is written under
# .git. For each seed N from FIRST_SEED to LAST_SEED both sides run
#
#   bash perfbench/run.sh --workload WORKLOAD --seed N --seconds S --trace 0
#
# with S the run_seconds of BENCHMARK.json: the parent first on odd
# seeds, the change first on even ones. Each run, its build included, is
# stopped after RUN_LIMIT seconds (900, enough for a cold build of both
# workspaces and a slow check phase) and timed. Each set of runs keeps
# its files in a directory of its own,
# .bench_pairs/WORKLOAD-seeds-FIRST-LAST-STAMP with STAMP the set's UTC
# start time (e.g. serve_mixed-seeds-1-10-20261020T101500Z), so a later
# set over the same workload and seeds leaves them alone: each run's
# stdout in SIDE-seedN.out, and every JSON result line in results.tsv
# (side, seed, the run's wall seconds, line). Then, for each end-to-end
# metric of
# BENCHMARK.json, the script prints the per-pair values, each side's
# median and quartiles (linear interpolation), the pairs the change won
# (ties count for neither), whether the median gain exceeds the
# parent's quartile spread, and one no-regression verdict against the
# metric's bound, the first that holds of:
#
#   worse beyond bound (X % against Y %)   the change median is worse
#                                          than the parent median by
#                                          more than the bound
#   every change run better than every parent run
#   unresolved (parent quartile spread Z % of its median > Y %)
#   within bound
#
# Then one line names every metric that is worse or unresolved, or says
# none is; then each side's attempted and failed operations and its
# median run time; last, the set's directory. The verdicts do not change
# the exit status.
#
# Exits non-zero if a run times out, fails, prints no result line or
# reports "correct":false. On exit the parent's tree is removed and
# perfbench/Cargo.lock, which the offline builds rewrite, gets back the
# bytes it had at start.
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: scripts/bench_pairs.sh PARENT_REV WORKLOAD FIRST_SEED LAST_SEED" >&2
    exit 2
fi
parent_rev=$1 workload=$2 first=$3 last=$4
if ! [[ $first =~ ^[0-9]+$ && $last =~ ^[0-9]+$ ]] || ((first > last)); then
    echo "bench_pairs: seeds must be integers with FIRST_SEED <= LAST_SEED" >&2
    exit 2
fi

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# "name better bound" for each end-to-end metric, in BENCHMARK.json's
# order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
' BENCHMARK.json)
if [[ -z $seconds || -z $metrics ]]; then
    echo "bench_pairs: BENCHMARK.json has no run_seconds or end_to_end metrics" >&2
    exit 2
fi

parent_label=$(git -C "$root" rev-parse --short --verify "$parent_rev^{commit}")
work=$root/.bench_pairs
tree=$work/parent
lock=$root/perfbench/Cargo.lock
mkdir -p "$work"
rm -rf "$tree" "$work/Cargo.lock.start"
[[ ! -f $lock ]] || cp "$lock" "$work/Cargo.lock.start"
cleanup() {
    rm -rf "$tree"
    if [[ -f $work/Cargo.lock.start ]]; then
        cp "$work/Cargo.lock.start" "$lock"
    else
        rm -f "$lock"
    fi
}
trap cleanup EXIT
mkdir "$tree"
git -C "$root" archive "$parent_rev" | tar -x -m -C "$tree"

set_dir=$work/$workload-seeds-$first-$last-$(date -u +%Y%m%dT%H%M%SZ)
mkdir "$set_dir"
results=$set_dir/results.tsv

# Wall-clock limit of one run, its build included.
RUN_LIMIT=900

# run SIDE SEED: one timed benchmark run, its result line appended to
# $results.
run() {
    local side=$1 seed=$2 dir=$root line status=0 start wall
    local target=${CARGO_TARGET_DIR:-$root/.bench_build}
    local out=$set_dir/$side-seed$seed.out
    if [[ $side == parent ]]; then
        dir=$tree
        target=$work/target
    fi
    echo "bench_pairs: $workload seed $seed, $side" >&2
    start=$(date +%s.%N)
    (cd "$dir" && CARGO_TARGET_DIR=$target timeout --kill-after=30 "$RUN_LIMIT" \
        bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0) >"$out" || status=$?
    wall=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
    echo "bench_pairs: $workload seed $seed, $side: $wall s" >&2
    if ((status == 124 || status == 137)); then
        echo "bench_pairs: the $side run of seed $seed timed out after $RUN_LIMIT s" >&2
        exit 1
    fi
    if ((status != 0)); then
        echo "bench_pairs: the $side run of seed $seed failed" >&2
        exit 1
    fi
    line=$(tail -n 1 "$out")
    if [[ $line != "{"* ]]; then
        echo "bench_pairs: the $side run of seed $seed printed no result line" >&2
        exit 1
    fi
    printf '%s\t%s\t%s\t%s\n' "$side" "$seed" "$wall" "$line" >>"$results"
    if [[ $line == *'"correct":false'* ]]; then
        echo "bench_pairs: the $side run of seed $seed reported \"correct\":false" >&2
        exit 1
    fi
}

for ((seed = first; seed <= last; seed++)); do
    if ((seed % 2 == 1)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

echo "$workload, seeds $first-$last, $seconds s runs: parent $parent_label against the working tree"
awk -F'\t' -v metrics="$metrics" '
    function value(line, key,    m) {
        if (match(line, "\"" key "\":\\{\"value\":[-+0-9.eE]+")) {
            m = substr(line, RSTART, RLENGTH)
            sub(/.*:/, "", m)
            return m + 0
        }
        return "nan"
    }
    function count(line, key,    m) {
        if (match(line, "\"" key "\":[0-9]+")) {
            m = substr(line, RSTART, RLENGTH)
            sub(/.*:/, "", m)
            return m + 0
        }
        return 0
    }
    # The p-quantile of v[1..n], sorted into s, interpolating linearly.
    function quantile(v, n, p,    s, i, j, t, h, lo) {
        for (i = 1; i <= n; i++) s[i] = v[i]
        for (i = 2; i <= n; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
            s[j + 1] = t
        }
        h = (n - 1) * p + 1
        lo = int(h)
        return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    {
        side = $1
        k = ++seen[side]
        seed[side, k] = $2
        wall[side, k] = $3
        line[side, k] = $4
        attempted[side] += count($4, "attempted")
        failed[side] += count($4, "failed")
    }
    END {
        n = seen["parent"] < seen["change"] ? seen["parent"] : seen["change"]
        m = split(metrics, spec, /[ \n]/)
        flagged = ""
        for (i = 1; i + 2 <= m; i += 3) {
            name = spec[i]
            higher = spec[i + 1] == "higher"
            bound = 100 * spec[i + 2]
            wins = 0
            pairs = ""
            for (k = 1; k <= n; k++) {
                p[k] = value(line["parent", k], name)
                c[k] = value(line["change", k], name)
                if ((higher && c[k] > p[k]) || (!higher && c[k] < p[k])) wins++
                pairs = pairs sprintf(" %s:(%.6g, %.6g)", seed["parent", k], p[k], c[k])
                if (k == 1 || p[k] < pmin) pmin = p[k]
                if (k == 1 || p[k] > pmax) pmax = p[k]
                if (k == 1 || c[k] < cmin) cmin = c[k]
                if (k == 1 || c[k] > cmax) cmax = c[k]
            }
            pm = quantile(p, n, 0.5); pq1 = quantile(p, n, 0.25); pq3 = quantile(p, n, 0.75)
            cm = quantile(c, n, 0.5); cq1 = quantile(c, n, 0.25); cq3 = quantile(c, n, 0.75)
            gain = higher ? cm - pm : pm - cm
            spread = pq3 - pq1
            printf "%s (%s is better)\n", name, higher ? "higher" : "lower"
            printf "  per pair, seed:(parent, change):%s\n", pairs
            printf "  parent median %.6g (q1 %.6g, q3 %.6g); change median %.6g (q1 %.6g, q3 %.6g)\n", \
                pm, pq1, pq3, cm, cq1, cq3
            printf "  change won %d/%d pairs; change median %+.1f%% against the parent median; gain %.6g against the parent quartile spread %.6g: %s\n", \
                wins, n, pm != 0 ? 100 * (cm - pm) / pm : 0, gain, spread, \
                (gain > spread ? "exceeds it" : "does not exceed it")
            worse = pm != 0 ? -100 * gain / pm : 0
            spread_pct = pm != 0 ? 100 * spread / pm : 0
            if (worse > bound) {
                verdict = sprintf("worse beyond bound (%.1f %% against %g %%)", worse, bound)
                flagged = flagged sprintf("%s%s worse beyond its bound", flagged == "" ? "" : ", ", name)
            } else if ((higher && cmin > pmax) || (!higher && cmax < pmin)) {
                verdict = "every change run better than every parent run"
            } else if (spread_pct > bound) {
                verdict = sprintf("unresolved (parent quartile spread %.1f %% of its median > %g %%)", \
                    spread_pct, bound)
                flagged = flagged sprintf("%s%s unresolved", flagged == "" ? "" : ", ", name)
            } else {
                verdict = "within bound"
            }
            printf "  verdict: %s\n", verdict
        }
        if (flagged == "") {
            print "no-regression verdict: no metric is worse beyond its bound or unresolved"
        } else {
            print "no-regression verdict: " flagged
        }
        printf "operations: parent %d attempted, %d failed; change %d attempted, %d failed\n", \
            attempted["parent"], failed["parent"], attempted["change"], failed["change"]
        for (k = 1; k <= n; k++) {
            p[k] = wall["parent", k]
            c[k] = wall["change", k]
        }
        printf "run wall time, build included: parent median %.1f s, change median %.1f s\n", \
            quantile(p, n, 0.5), quantile(c, n, 0.5)
    }
' "$results"
echo "this set's runs and result lines: $set_dir"
