#!/bin/sh
# Lists every library `pub fn`, `pub const`, `pub static`, `pub` struct
# field and `pub enum` variant that nothing reaches, and fails on any
# that is not a named exception.
#
#   scripts/unreached_pub.sh             # this checkout
#   scripts/unreached_pub.sh <dir>       # another checkout
#
# The reachable text of the tree is:
#   - `crates/*/src`, dbench's sources included, up to each file's first
#     `#[cfg(test)]` (the unit tests; the same cut `scripts/loc.sh`
#     makes);
#   - whole files under `crates/*/tests`, `crates/*/benches`, `tests/`
#     and `examples/`;
# with comments (doc comments and their doctests too), string and char
# literals and `pub use` lines removed.
#
# A `pub fn` defined in `crates/*/src` is reached only by a call or a
# path in that text: `name(` (so `.name(` and `Type::name(` too), a
# turbofish `name::<`, or `Type::name` used as a value, as in
# `sample: TvSystem::witness_swivel`. A bare `name` or `.name` is not a
# use: it is a field, a local or a binding. A call inside the body of a
# `fn` of the same name does not count either, so a function that only
# delegates to a same-named method, or only calls itself, is not
# reached by it. A `pub const` or `pub static` is reached by any use of
# its name but its definition (a bare name is a one-segment path).
#
# A `pub` field (listed as `Type::field`) is reached by a read: `.field`
# not followed by `(` and not the target of a plain `=` or of a compound
# assignment (`+=`, `-=`, `*=`, `/=`, `%=`, `&=`, `|=`, `^=`, `<<=`,
# `>>=`), so a counter that is only ever incremented (`stats.n += 1`) is
# not reached. A comparison (`<=`, `>=`, `==`, `!=`) is a read. Setting
# a field in a struct literal is not a read, and neither is reading it
# through a derive (`Debug`, `PartialEq`); any struct's field of the
# same name counts.
#
# A variant of a `pub enum` (listed as `Enum::Variant`) is reached when
# `Enum::Variant` is built: used anywhere but in a pattern. The path
# must name the enum; `Self::Variant` is not resolved. A use is a
# pattern when an `=>` (a match arm) or a plain `=` (`let`, `if let`,
# `while let`) follows it before the `,` or `;` that ends it or the
# block that holds it closes; a name to the right of `=>`, as in
# `0 => Severity::Low`, is built.
#
# Trait methods and types are not listed: check them by hand.
# dbench's own items are not listed: its binary crate gets rustc's
# dead-code lint.
set -eu
cd "${1:-$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)}"

# Unreached on purpose, one name per line with its reason.
exceptions='
ne                                    Expr::ne, the builder for the Expr::Ne variant the evaluator keeps
Schedule::AfterEvents                 the benchmark passes an event count to Injector::poll; it goes with that benchmark edit
E3Report::fault_manifested_at_press   the E3 test checks that detection lands on the manifesting press
ComparatorStats::deviations           supervision_golden pins it through ComparatorStats equality
ComparatorStats::skipped_shed          supervision_golden pins it through ComparatorStats equality
ReliableStats::acks_sent               channel_golden pins it through ReliableStats equality
ReliableStats::acks_lost               channel_golden pins it through ReliableStats equality
'

files=$(find crates tests examples -name '*.rs' -not -path '*/target/*' |
    grep -e '^crates/[^/]*/src/' -e '^crates/[^/]*/tests/' \
        -e '^crates/[^/]*/benches/' -e '^tests/' -e '^examples/' | sort)

# shellcheck disable=SC2086 # one argument per file
unreached=$(awk '
    # strip(raw): the line without comments and literals. A string or
    # block comment left open carries over to the next line in `quote`
    # ("" outside, "\"" in a string, "\"#..." in a raw string, "*/" in a
    # block comment).
    function strip(raw,    out, i, n, c, d, j) {
        out = ""; n = length(raw); i = 1
        while (i <= n) {
            c = substr(raw, i, 1)
            if (quote == "*/") {
                if (substr(raw, i, 2) == "*/") { quote = ""; i++ }
            } else if (quote != "") {
                if (quote == "\"" && c == "\\") i++
                else if (substr(raw, i, length(quote)) == quote) {
                    i += length(quote) - 1; quote = ""; out = out "\"\""
                }
            } else if (substr(raw, i, 2) == "//") {
                break
            } else if (substr(raw, i, 2) == "/*") {
                quote = "*/"; i++
            } else if (c == "\"") {
                quote = "\""
                if (match(out, /(^|[^A-Za-z0-9_])b?r#*$/)) {
                    d = substr(out, RSTART, RLENGTH)
                    sub(/^[^#]*/, "", d)
                    quote = "\"" d
                    sub(/b?r#*$/, "", out)
                }
            } else if (c == "\047") {
                # A lifetime or label is a quote and an identifier with
                # no closing quote right after its first character.
                d = substr(raw, i + 1, 1)
                if (d ~ /[A-Za-z_]/ && substr(raw, i + 2, 1) != "\047") {
                    out = out c
                } else {
                    j = i + 1
                    if (d == "\\") j++
                    while (j < n && substr(raw, j + 1, 1) != "\047") j++
                    i = j + 1
                    out = out "\047\047"
                }
            } else {
                out = out c
            }
            i++
        }
        return quote == "" ? out : out "\"\""
    }
    # resolve(i, built_it): settles pending variant use i; a build
    # reaches the variant, a pattern does not.
    function resolve(i, built_it) {
        if (built_it) built[ckey[i]] = 1
        delete ckey[i]; delete csp[i]
    }
    function flush(    i) { for (i in ckey) resolve(i, 1) }
    FNR == 1 {
        flush()
        test_part = 0; in_pub_use = 0; quote = ""
        depth = 0; nest = 0; pending = ""; nfn = 0; prev = ""; prev2 = ""
        sp = 0; enum_pending = ""; enum_name = ""; struct_name = ""
        lib = FILENAME ~ /^crates\/[^\/]*\/src\// &&
            FILENAME !~ /^crates\/bench\/src\/bin\/dbench\//
    }
    /#\[cfg\(test\)\]/ && FILENAME ~ /^crates\/[^\/]*\/src\// { test_part = 1; flush() }
    test_part { next }
    {
        line = strip($0)
        if (in_pub_use || line ~ /^[ \t]*pub use[ \t]/) {
            in_pub_use = index(line, ";") == 0
            next
        }
        if (lib && match(line, /pub ((const|unsafe|async) )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", def)
            where[def] = where[def] " " FILENAME ":" FNR
        } else if (lib && match(line, /pub (const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/[ \t]*:$/, "", def)
            sub(/.* /, "", def)
            where[def] = where[def] " " FILENAME ":" FNR
            constant[def] = 1
        } else if (lib && match(line, /^[ \t]*pub [A-Za-z_][A-Za-z0-9_]*[ \t]*:([^:]|$)/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/^[ \t]*pub /, "", def)
            sub(/[ \t]*:.*$/, "", def)
            field_where[struct_name "::" def] = field_where[struct_name "::" def] " " FILENAME ":" FNR
            field_of[struct_name "::" def] = def
        }
        if (match(line, /(^|[ \t])struct [A-Za-z_][A-Za-z0-9_]*/)) {
            struct_name = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", struct_name)
        }
        if (lib && match(line, /(^|[ \t])pub enum [A-Za-z_][A-Za-z0-9_]*/)) {
            enum_pending = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", enum_pending)
        }
        # Tokens: identifiers, `::` and single characters.
        n = 0
        while (match(line, /[^ \t]/)) {
            line = substr(line, RSTART)
            if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/) && !match(line, /^::/)) RLENGTH = 1
            tok[++n] = substr(line, 1, RLENGTH)
            line = substr(line, RLENGTH + 1)
        }
        tok[n + 1] = ""; tok[n + 2] = ""
        for (k = 1; k <= n; k++) {
            t = tok[k]
            # Pending variant uses: is each one built or a pattern?
            if (t == "(" || t == "[" || t == "{") {
                open[++sp] = t
            } else if (t == ")" || t == "]" || t == "}") {
                closed = open[sp--]
                for (i in ckey) if (csp[i] > sp) {
                    if (closed == "{") resolve(i, 1)
                    else csp[i] = sp
                }
            } else if (t == ";") {
                for (i in ckey) if (csp[i] >= sp) resolve(i, 1)
            } else if (t == ",") {
                for (i in ckey) if (csp[i] == sp && (sp == 0 || open[sp] == "{")) resolve(i, 1)
            } else if (t == "=" && tok[k + 1] != "=" && prev !~ /^[=!<>+*\/%&|^-]$/) {
                for (i in ckey) if (csp[i] >= sp) resolve(i, 0)
            }
            if (t == "{") {
                if (pending != "" && nest == pending_nest) {
                    fn_name[++nfn] = pending; fn_depth[nfn] = depth; pending = ""
                }
                depth++
                if (enum_pending != "") { enum_name = enum_pending; enum_depth = depth; enum_pending = "" }
            } else if (t == "}") {
                depth--
                while (nfn > 0 && fn_depth[nfn] == depth) nfn--
                if (depth < enum_depth) enum_name = ""
            } else if (t == "(" || t == "[") {
                nest++
            } else if (t == ")" || t == "]") {
                nest--
            } else if (t == ";" && nest == pending_nest) {
                pending = ""
            } else if (t ~ /^[A-Za-z_]/) {
                if (enum_name != "" && depth == enum_depth && nest == 0 && prev ~ /^[{,\]]$/) {
                    variant_where[enum_name "::" t] = FILENAME ":" FNR
                } else if (prev == "::" && t ~ /^[A-Z]/) {
                    ckey[++ncand] = prev2 "::" t; csp[ncand] = sp
                } else if (prev == "." && prev2 != "." && tok[k + 1] != "(" &&
                    !(tok[k + 1] == "::" && tok[k + 2] == "<") &&
                    !(tok[k + 1] == "=" && tok[k + 2] != "=") &&
                    !(tok[k + 1] ~ /^[+*\/%&|^-]$/ && tok[k + 2] == "=") &&
                    !(tok[k + 1] tok[k + 2] tok[k + 3] ~ /^(<<|>>)=$/)) {
                    read[t]++
                }
                if (prev == "fn") {
                    pending = t; pending_nest = nest
                } else if (prev != "const" && prev != "static" && prev != "mut") {
                    named[t]++
                    inside = 0
                    for (f = 1; f <= nfn; f++) if (fn_name[f] == t) inside = 1
                    if (!inside && (tok[k + 1] == "(" ||
                        (tok[k + 1] == "::" && tok[k + 2] == "<") ||
                        (prev == "::" && tok[k + 1] != "::"))) called[t]++
                }
            }
            prev2 = prev; prev = t
        }
    }
    END {
        flush()
        for (name in where)
            if (name in constant ? !(name in named) : !(name in called)) print name where[name]
        for (key in field_where)
            if (!(field_of[key] in read)) print key field_where[key]
        for (key in variant_where)
            if (!(key in built)) print key " " variant_where[key]
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
            print "unreached pub item: delete each UNREACHED one, or use it from code that runs" > "/dev/stderr"
            exit 1
        }
    }'
