#!/bin/sh
# Non-test Rust lines outside bench/: the count the simplicity PRs quote.
# Every *.rs under crates/, src/ and examples/, tests/ directories
# excluded, each file counted up to (not including) its first
# `#[cfg(test)]` line. Prints one number.
cd "$(dirname "$0")/.." || exit 1
find crates src examples -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }'
