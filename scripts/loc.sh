#!/bin/sh
# Non-test Rust line count: every `.rs` file under `crates/` and
# `examples/` outside `tests/` directories, counting only the lines
# before the file's first `#[cfg(test)]`. Prints the total.
#
#   scripts/loc.sh             # this checkout
#   scripts/loc.sh <dir>       # another checkout
set -eu
cd "${1:-$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)}"
find crates examples -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' \
    -exec awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
    awk '{ total += $1 } END { print total }'
