#!/usr/bin/env bash
# A/B the end-to-end benchmark: this working tree (the change) against a git
# ref (the parent), by the procedure of benchmark/README.md § "Measuring a
# change" and the choosing-metrics rule it follows — identical benchmark code
# on both sides, each side built once, at least ten pairs alternating which
# side runs first, a gain only on ≥ 9/10 pairs won and medians apart by more
# than the parent's own interquartile range.
#
# Usage: scripts/ab.sh <ref> [workload…]
#
#   scripts/ab.sh HEAD                  # uncommitted work against its base, all four workloads
#   scripts/ab.sh main~1 fed3_base      # one workload
#
# <ref> is checked out into a temporary git worktree — where `git worktree
# add` fails, into a temporary clone of this repository instead; the script
# says which — and given this tree's benchmark/ directory, so both sides are
# measured by the same files; the checkout is removed on exit. Every run's
# record is appended to parent.jsonl / change.jsonl under
# artifacts/ab/<time>-<ref>/ (gitignored), next to one log per run; the script
# ends with the benchmark's own `-compare parent.jsonl change.jsonl` verdicts
# and a pairs-won count per timing metric.
#
# Both sides of a pair get the same --seed, --seconds and -cohort-seed. The
# seed rotates from pair to pair: 42 and 7 are the pairs golden.json pins on
# the default population, 1–6 ordinary draws, 1009 is held out (use it for
# nothing while a change is being written), and the last pair runs on the
# other pinned population, -cohort-seed 7. Seeds are unique within a set
# because -compare matches exact counts by seed.
#
# Ten pairs of the four workloads take about 50 minutes on a 2-core box. The
# pair count is the guide's and the run length is the benchmark's own default
# (-seconds is not passed); neither is adjustable, so every verdict this
# script prints comes from a full measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:?usage: scripts/ab.sh <ref> [workload…]}"
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(fed3_base fed5_collusion svc_cold svc_replay)
fi
pairs=10
seeds=(42 7 1 2 3 4 5 6 1009) # pairs 1–9; pair 10 is seed 4207 on -cohort-seed 7

rev="$(git rev-parse --verify --short "$ref^{commit}")"
out="$PWD/artifacts/ab/$(date -u +%Y%m%dT%H%M%SZ)-$rev"
tmp="$(mktemp -d)"
mkdir -p "$out/work"

cleanup() {
    git worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$tmp" "$out/work"
}
trap cleanup EXIT

if git worktree add --quiet --detach "$tmp/parent" "$rev" 2>"$tmp/worktree.err"; then
    how="a temporary worktree"
else
    echo "ab.sh: git worktree add failed ($(tr '\n' ' ' <"$tmp/worktree.err")); cloning instead" >&2
    rm -rf "$tmp/parent"
    git clone --quiet . "$tmp/parent" && git -C "$tmp/parent" checkout --quiet --detach "$rev"
    how="a temporary clone"
fi
echo "== parent $rev in $how, change = this tree; results in ${out#"$PWD"/}"
rm -rf "$tmp/parent/benchmark"
cp -R benchmark "$tmp/parent/benchmark"
(cd "$tmp/parent" && go build -o "$out/bench-parent" ./benchmark)
go build -o "$out/bench-change" ./benchmark

# metric <log> <name>: the value the run's closing result line gives a metric.
metric() {
    tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[-+.eE0-9]*" | sed 's/.*://'
}

# run_side <side> <workload> <pair> <seed> <cohort-seed>
run_side() {
    local log="$out/$2-pair$3-$1.log"
    if ! "$out/bench-$1" -workload "$2" -seed "$4" -cohort-seed "$5" \
        -trace 0 -workdir "$out/work" -out "$out/$1.jsonl" >"$log" 2>&1; then
        echo "ab.sh: $1 failed on $2 (pair $3, seed $4, cohort-seed $5); see $log" >&2
        tail -n 5 "$log" >&2
        exit 1
    fi
}

timing=(setup_s assess_p50_s throughput_per_s cpu_s_per_assess)
printf 'workload\tpair\tfirst\tseed\tcohort\tmetric\tparent\tchange\n' >"$out/pairs.tsv"
for wl in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if [ "$i" -lt "$pairs" ]; then
            seed="${seeds[$((i - 1))]}" cohort=42
        else
            seed=4207 cohort=7
        fi
        order=(parent change)
        if [ $((i % 2)) -eq 0 ]; then
            order=(change parent)
        fi
        for side in "${order[@]}"; do
            run_side "$side" "$wl" "$i" "$seed" "$cohort"
        done
        line="$wl pair $i/$pairs (seed $seed, population $cohort, ${order[0]} first):"
        for m in "${timing[@]}"; do
            p="$(metric "$out/$wl-pair$i-parent.log" "$m")"
            c="$(metric "$out/$wl-pair$i-change.log" "$m")"
            printf '%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n' "$wl" "$i" "${order[0]}" "$seed" "$cohort" "$m" "$p" "$c" >>"$out/pairs.tsv"
            line="$line $m $p -> $c;"
        done
        echo "$line"
    done
done

echo
"$out/bench-change" -compare "$out/parent.jsonl" "$out/change.jsonl" | tee "$out/compare.txt"

echo
echo "== pairs won by the change (ties count for neither; throughput: higher wins)"
awk -F'\t' 'NR > 1 {
        key = $1 "\t" $6
        if (!(key in seen)) { seen[key] = 1; order[++n] = key }
        p = $7 + 0; c = $8 + 0
        if ($6 == "throughput_per_s") { t = p; p = c; c = t }
        if (c < p) won[key]++; else if (c > p) lost[key]++
        total[key]++
    }
    END {
        for (k = 1; k <= n; k++) {
            key = order[k]
            printf "   %-16s %-18s %2d of %2d won, %2d lost\n", substr(key, 1, index(key, "\t") - 1), substr(key, index(key, "\t") + 1), won[key], total[key], lost[key]
        }
    }' "$out/pairs.tsv" | tee "$out/pairs-won.txt"
