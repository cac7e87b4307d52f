#!/bin/sh
# Lists every library `pub fn` that nothing reaches, and fails on any
# that is not a named exception.
#
#   scripts/unreached_pub.sh             # this checkout
#   scripts/unreached_pub.sh <dir>       # another checkout
#
# A `pub fn` defined in `crates/*/src` is reached when its name occurs
# as an identifier in the reachable text of the tree, not counting the
# name right after a `fn` keyword (a definition). The reachable text is:
#   - `crates/*/src`, dbench's sources included, up to each file's first
#     `#[cfg(test)]` (the unit tests; the same cut `scripts/loc.sh`
#     makes);
#   - whole files under `crates/*/tests`, `crates/*/benches`, `tests/`
#     and `examples/`;
# with `//` comments (doc comments and their doctests too) and `pub use`
# lines removed. The scan is by name, so a function that shares its
# name with any reached identifier counts as reached. dbench's own
# `pub fn`s are not listed: its binary crate gets rustc's dead-code
# lint.
set -eu
cd "${1:-$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)}"

# Unreached on purpose, one name per line with its reason.
exceptions='
lock_channel    child lock (ChannelTuner): DESIGN §1 lists it in the substitution; removing it is its own decision
unlock_channel  child lock (ChannelTuner), as lock_channel
is_locked       child lock (ChannelTuner), as lock_channel
tuner_mut       child lock: the only way to reach the tuner of a TvSystem
ne              Expr::ne, the builder for the Expr::Ne variant the evaluator keeps
'

files=$(find crates tests examples -name '*.rs' -not -path '*/target/*' |
    grep -e '^crates/[^/]*/src/' -e '^crates/[^/]*/tests/' \
        -e '^crates/[^/]*/benches/' -e '^tests/' -e '^examples/' | sort)

# shellcheck disable=SC2086 # one argument per file
unreached=$(awk '
    FNR == 1 {
        test_part = 0; in_pub_use = 0
        lib = FILENAME ~ /^crates\/[^\/]*\/src\// &&
            FILENAME !~ /^crates\/bench\/src\/bin\/dbench\//
    }
    /#\[cfg\(test\)\]/ && FILENAME ~ /^crates\/[^\/]*\/src\// { test_part = 1 }
    test_part { next }
    {
        line = $0
        if ((i = index(line, "//")) > 0) line = substr(line, 1, i - 1)
        if (in_pub_use || line ~ /^[ \t]*pub use[ \t]/) {
            in_pub_use = index(line, ";") == 0
            next
        }
        if (lib && match(line, /pub ((const|unsafe|async) )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", def)
            where[def] = where[def] " " FILENAME ":" FNR
        }
        prev = ""
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            if (prev != "fn") seen[word]++
            prev = word
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (name in where) if (!(name in seen)) print name where[name]
    }' $files | sort)

echo "$unreached" | awk -v exceptions="$exceptions" '
    BEGIN {
        n = split(exceptions, lines, "\n")
        for (i = 1; i <= n; i++) {
            if (split(lines[i], f, " ") == 0) continue
            reason = lines[i]
            sub(/^[^ ]+ +/, "", reason)
            why[f[1]] = reason
        }
    }
    NF == 0 { next }
    $1 in why { print "exception: " $0 " — " why[$1]; next }
    { print "UNREACHED: " $0; bad = 1 }
    END {
        if (bad) {
            print "unreached pub fn: delete each UNREACHED function, or call it from code that runs" > "/dev/stderr"
            exit 1
        }
    }'
