#!/bin/sh
# Compares two checkouts on one dbench workload in alternating pairs.
#
#   scripts/dbench_pairs.sh <parent-tree> <change-tree> <workload> [pairs] [seconds] [seed]
#
# Builds dbench (crates/bench/src/bin/dbench, release) in both trees,
# then runs `pairs` pairs (default 10) of `--seconds` (default 10) runs on
# `--seed` (default 0). Odd pairs run the parent first, even pairs the
# change, so host drift falls on both sides alike. Each run's last JSON
# line goes to stdout as `<side> <pair> <json>`; a summary follows, one
# row per end-to-end metric: each side's median and quartiles, whether
# the medians differ by more than the parent's interquartile range, and
# the change's wins (a pair counts for neither side on a tie). A metric
# is better when lower unless the change tree's BENCHMARK.json marks it
# `"better": "higher"`. Progress goes to stderr.
set -eu

if [ "$#" -lt 3 ] || [ "$#" -gt 6 ]; then
    echo "usage: $0 <parent-tree> <change-tree> <workload> [pairs] [seconds] [seed]" >&2
    exit 2
fi
parent=$(CDPATH='' cd -- "$1" && pwd)
change=$(CDPATH='' cd -- "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-10}
seed=${6:-0}
manifest=crates/bench/src/bin/dbench/Cargo.toml

for tree in "$parent" "$change"; do
    echo "building dbench in $tree" >&2
    # Each tree keeps its own build, even when CARGO_TARGET_DIR is set.
    CARGO_TARGET_DIR="$tree/crates/bench/src/bin/dbench/target" \
        cargo build --release --quiet --offline --manifest-path "$tree/$manifest"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT INT TERM

# run <side> <tree> <pair>: one dbench run, its last line kept.
run() {
    echo "pair $3: $1" >&2
    line=$(cd "$2" && "$2/crates/bench/src/bin/dbench/target/release/dbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" | tail -n 1)
    echo "$1 $3 $line" | tee -a "$runs"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    i=$((i + 1))
done

higher=$(grep -o '"name": *"[^"]*"[^}]*"better": *"higher"' "$change/BENCHMARK.json" 2>/dev/null |
    sed 's/^"name": *"\([^"]*\)".*/\1/' | tr '\n' ' ' || true)

awk -v higher=" $higher " -v workload="$workload" -v seed="$seed" '
# q(side metric, p): the p-quantile of the sorted values, linearly
# interpolated between neighbours.
function q(key, p,    n, h, lo) {
    n = count[key]
    h = (n - 1) * p
    lo = int(h)
    if (lo + 1 >= n) return sorted[key, lo]
    return sorted[key, lo] + (h - lo) * (sorted[key, lo + 1] - sorted[key, lo])
}
function sort_values(key,    n, i, j, v) {
    n = count[key]
    for (i = 0; i < n; i++) sorted[key, i] = value[key, i]
    for (i = 1; i < n; i++) {
        v = sorted[key, i]
        for (j = i - 1; j >= 0 && sorted[key, j] > v; j--) sorted[key, j + 1] = sorted[key, j]
        sorted[key, j + 1] = v
    }
}
{
    side = $1; pair = $2
    if (pair > pairs) pairs = pair
    line = $0
    runs[side]++
    if (line !~ /"correct":true/) incorrect[side]++
    if (match(line, /"failed":[0-9]+/)) failed[side] += substr(line, RSTART + 9, RLENGTH - 9)
    if (match(line, /"attempted":[0-9]+/)) attempted[side] += substr(line, RSTART + 12, RLENGTH - 12)
    while (match(line, /"[A-Za-z0-9_.]+":[{]"value":[-0-9.eE+]+/)) {
        item = substr(line, RSTART + 1, RLENGTH - 1)
        line = substr(line, RSTART + RLENGTH)
        name = substr(item, 1, index(item, "\"") - 1)
        v = substr(item, index(item, "\"value\":") + 8) + 0
        if (!(name in seen)) { seen[name] = 1; order[++metrics] = name }
        value[side SUBSEP name, count[side SUBSEP name]++] = v
        at[side, name, pair] = v
    }
}
END {
    printf "\n%s, seed %s: %d parent and %d change runs\n", workload, seed, runs["parent"], runs["change"]
    printf "%-18s %-36s %-36s %-11s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "> IQR", "change wins"
    for (m = 1; m <= metrics; m++) {
        name = order[m]
        pk = "parent" SUBSEP name; ck = "change" SUBSEP name
        if (!count[pk] || !count[ck]) continue
        sort_values(pk); sort_values(ck)
        wins = 0; total = 0
        for (p = 1; p <= pairs; p++) {
            if (!(("parent" SUBSEP name SUBSEP p) in at) || !(("change" SUBSEP name SUBSEP p) in at)) continue
            a = at["parent", name, p]; b = at["change", name, p]
            total++
            if (index(higher, " " name " ") ? b > a : b < a) wins++
        }
        pm = q(pk, 0.5); cm = q(ck, 0.5)
        iqr = q(pk, 0.75) - q(pk, 0.25)
        d = cm - pm; if (d < 0) d = -d
        printf "%-18s %-36s %-36s %-11s %d/%d\n", name,
            sprintf("%.4g [%.4g, %.4g]", pm, q(pk, 0.25), q(pk, 0.75)),
            sprintf("%.4g [%.4g, %.4g]", cm, q(ck, 0.25), q(ck, 0.75)),
            (d > iqr ? "yes" : "no"), wins, total
    }
    printf "not correct: parent %d, change %d; failed/attempted: parent %d/%d, change %d/%d\n",
        incorrect["parent"], incorrect["change"], failed["parent"], attempted["parent"],
        failed["change"], attempted["change"]
}' "$runs"
