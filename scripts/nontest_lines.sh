#!/bin/sh
# Non-test lines per crate: every .rs under crates/*/src, cut at the first
# `#[cfg(test)]` attribute line, `oracle.rs` excluded as test code. The
# pattern is anchored so a doc comment that mentions the attribute does not
# end the count.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src -name '*.rs' ! -name oracle.rs | sort | xargs awk '
    FNR == 1 { cut = 0; split(FILENAME, p, "/"); crate = p[2] }
    /^[ \t]*#\[cfg\(test\)\]/ { cut = 1 }
    !cut { n[crate]++; total++ }
    END {
        for (c in n) printf "%-8s %6d\n", c, n[c] | "sort"
        close("sort")
        printf "%-8s %6d\n", "total", total
    }'
