#!/bin/sh
# Dead public surface: every `pub` fn / struct / enum / trait / const /
# type / static defined in non-test code under crates/ and src/ whose
# identifier occurs nowhere else in non-test code of crates/, src/,
# examples/ or bench/src. "Non-test" is loc.sh's rule: tests/
# directories excluded, each file counted up to (not including) its
# first `#[cfg(test)]` line. crates/oracle is test infrastructure: its
# code is neither searched for uses nor has its own items listed, so an
# item only the oracle calls is dead. Three kinds of mention are not
# uses: comments, `use` / `pub use` statements (multi-line lists
# included), and the type an `impl` header is for (`impl X`, or the `X`
# of `impl Trait for X`; the trait still counts). Matching is by
# identifier, so an item that shares its name with anything else is
# never listed: the count under-reports.
# Prints the count, then one `name file:line` per item. Exits 1 when an
# item is listed that scripts/dead.allow (one `name reason` line per
# item kept on purpose) does not name.
cd "$(dirname "$0")/.." || exit 1
export LC_ALL=C
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
find crates src examples bench/src -name '*.rs' -not -path '*/tests/*' -not -path 'crates/oracle/*' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 }
        counting { print FILENAME ":" FNR ":" $0 }' >"$tmp/code"
cut -d: -f3- "$tmp/code" |
    awk '
        # Comments name items without using them.
        { sub(/\/\/.*/, "") }
        # A use statement runs from its `use` to the first `;`.
        in_use || /^[ \t]*(pub(\([^)]*\))? )?use / { in_use = ($0 !~ /;/); next }
        # An impl header: drop the self type, keep the trait.
        /^[ \t]*(unsafe )?impl[ <]/ {
            head = $0
            rest = ""
            if (match(head, / for /)) {
                rest = substr(head, RSTART + RLENGTH)
                head = substr(head, 1, RSTART)
            } else {
                # Skip `impl` and its generic parameter list, if any.
                match(head, /impl/)
                i = RSTART + 4
                if (substr(head, i, 1) == "<") {
                    depth = 0
                    for (; i <= length(head); i++) {
                        c = substr(head, i, 1)
                        if (c == "<") depth++
                        if (c == ">" && --depth == 0) { i++; break }
                    }
                }
                rest = substr(head, i)
                head = substr(head, 1, i - 1)
            }
            sub(/^[ \t]*&?(mut )?/, "", rest)
            sub(/^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*/, "", rest)
            print head " " rest
            next
        }
        { print }
    ' | grep -o '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
    awk '{ print $2, $1 }' >"$tmp/counts"
grep -E '^(crates|src)/' "$tmp/code" |
    sed -nE 's/^([^:]*:[0-9]+):[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|type|static) (mut )?([A-Za-z_][A-Za-z0-9_]*).*/\5 \1/p' |
    sort >"$tmp/defs"
join "$tmp/defs" "$tmp/counts" | awk '$3 == 1 { print $1, $2 }' >"$tmp/dead"
wc -l <"$tmp/dead" | tr -d ' '
cat "$tmp/dead"
cut -d' ' -f1 scripts/dead.allow | sort -u >"$tmp/allow"
cut -d' ' -f1 "$tmp/dead" | sort -u | comm -23 - "$tmp/allow" >"$tmp/new"
if [ -s "$tmp/new" ]; then
    echo "dead.sh: not in scripts/dead.allow:" $(cat "$tmp/new") >&2
    exit 1
fi
