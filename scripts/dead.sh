#!/bin/sh
# Dead public surface: every `pub` fn / struct / enum / trait / const /
# type / static defined in non-test code under crates/ and src/ whose
# identifier occurs nowhere else in non-test code of crates/, src/,
# examples/ or bench/src. "Non-test" is loc.sh's rule: tests/
# directories excluded, each file counted up to (not including) its
# first `#[cfg(test)]` line. Matching is by identifier, so an item that
# shares its name with anything else is never listed: the count
# under-reports. Prints the count, then one `name file:line` per item.
cd "$(dirname "$0")/.." || exit 1
export LC_ALL=C
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
find crates src examples bench/src -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 }
        counting { print FILENAME ":" FNR ":" $0 }' >"$tmp/code"
cut -d: -f3- "$tmp/code" | grep -o '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
    awk '{ print $2, $1 }' >"$tmp/counts"
grep -E '^(crates|src)/' "$tmp/code" |
    sed -nE 's/^([^:]*:[0-9]+):[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|type|static) (mut )?([A-Za-z_][A-Za-z0-9_]*).*/\5 \1/p' |
    sort >"$tmp/defs"
join "$tmp/defs" "$tmp/counts" | awk '$3 == 1 { print $1, $2 }' >"$tmp/dead"
wc -l <"$tmp/dead" | tr -d ' '
cat "$tmp/dead"
