#!/bin/sh
# Re-runs the mutation table: every deliberate bug in it must be caught.
#
#   scripts/mutants.sh [rev] [table]
#
# Exports `rev` (default HEAD) with `git archive` into a scratch
# directory, checks that every test the table names passes there, then
# applies the rows of `table` (default scripts/mutants.txt, read from
# the working tree) one at a time: replace the row's search string in
# its file, run `cargo test` with the row's arguments, restore the
# file. Exits non-zero when a mutant survives (its test still passes) or
# when a search string does not occur exactly once in its file.
# `CARGO_TARGET_DIR` is honoured; by default the build lives in the
# scratch directory, which is removed on exit.
set -eu

root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
rev=${1:-HEAD}
table=${2:-$root/scripts/mutants.txt}
[ -f "$table" ] || { echo "no mutation table at $table" >&2; exit 2; }
table=$(CDPATH='' cd -- "$(dirname -- "$table")" && pwd)/$(basename -- "$table")

scratch=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$scratch"' EXIT INT TERM
tree=$scratch/tree
mkdir "$tree"
git -C "$root" archive "$rev" | tar -x -C "$tree"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$scratch/target}"
cd "$tree"

tab=$(printf '\t')

# rows: the table without comments and blank lines.
rows() {
    grep -v -e '^#' -e '^[[:space:]]*$' "$table"
}

# count <file> <search>: occurrences of the literal search string.
count() {
    SEARCH=$2 awk '
        { line = $0
          while ((i = index(line, ENVIRON["SEARCH"])) > 0) {
              n++
              line = substr(line, i + length(ENVIRON["SEARCH"]))
          } }
        END { print n + 0 }' "$1"
}

# mutate <file> <search> <replacement>: replaces the one occurrence.
mutate() {
    SEARCH=$2 REPLACE=$3 awk '
        { i = index($0, ENVIRON["SEARCH"])
          if (i > 0) $0 = substr($0, 1, i - 1) ENVIRON["REPLACE"] \
              substr($0, i + length(ENVIRON["SEARCH"]))
          print }' "$1" >"$scratch/mutant"
    cp "$scratch/mutant" "$1"
}

# run_test <args>: cargo test with the row's arguments, quietly.
run_test() {
    # shellcheck disable=SC2086 # the arguments are split on purpose
    cargo test -q --offline $1 >"$scratch/log" 2>&1
}

echo "baseline: every named test passes on the unmutated tree" >&2
rows | cut -f4 | sort -u >"$scratch/tests"
while IFS= read -r args; do
    if ! run_test "$args"; then
        tail -n 20 "$scratch/log" >&2
        echo "baseline failed: cargo test $args" >&2
        exit 1
    fi
done <"$scratch/tests"

failed=0
n=0
rows >"$scratch/rows"
while IFS="$tab" read -r file search replace args; do
    n=$((n + 1))
    matches=$(count "$file" "$search")
    if [ "$matches" -ne 1 ]; then
        echo "row $n: search string matches $matches times in $file: $search" >&2
        failed=1
        continue
    fi
    cp "$file" "$scratch/original"
    mutate "$file" "$search" "$replace"
    # shellcheck disable=SC2086
    if ! cargo test -q --offline --no-run $args >"$scratch/log" 2>&1; then
        tail -n 20 "$scratch/log" >&2
        echo "row $n: the mutant does not compile ($file)" >&2
        failed=1
    elif run_test "$args"; then
        echo "row $n: SURVIVED ($file; cargo test $args)" >&2
        failed=1
    else
        echo "row $n: killed ($file; cargo test $args)" >&2
    fi
    cp "$scratch/original" "$file"
done <"$scratch/rows"

if [ "$failed" -ne 0 ]; then
    echo "mutation table: FAILED" >&2
    exit 1
fi
echo "mutation table: all $n mutants killed" >&2
