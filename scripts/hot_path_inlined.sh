#!/bin/sh
# Fails when the release `perf` binary keeps a symbol the ADMM hot path must
# have inlined: TRON's `newton_step`, the masked free-block LDLᵀ
# `ldlt_solve_masked`, or `core::ops::try_trait::Wrapped` (the closure
# wrapper of `[T; N]::map`, once seen out of line in the branch kernel's
# `derivatives`). Each of them out of line has cost the ADMM workloads
# time with no source change near them. Build the binary first, e.g. with
# `cargo run --release --offline --manifest-path perf/Cargo.toml -- --smoke`.
cd "$(dirname "$0")/.." || exit 1
bin=perf/target/release/perf
if [ ! -x "$bin" ]; then
    echo "hot_path_inlined: $bin is not built" >&2
    exit 1
fi
# Positive control: `shifted_step` is kept out of line on purpose, so a
# symbol table without it (nm failed, or the binary is stripped) would let
# the check below pass on nothing.
if ! symbols=$(nm -C "$bin"); then
    echo "hot_path_inlined: nm failed on $bin" >&2
    exit 1
fi
if ! printf '%s\n' "$symbols" | grep -q 'gridsim_tron::tron::shifted_step'; then
    echo "hot_path_inlined: nm lists no gridsim_tron::tron::shifted_step in $bin" >&2
    exit 1
fi
found=$(printf '%s\n' "$symbols" | grep -E 'newton_step|ldlt_solve_masked|try_trait::Wrapped')
if [ -n "$found" ]; then
    echo "hot_path_inlined: out-of-line symbols in $bin:" >&2
    echo "$found" >&2
    exit 1
fi
echo "hot_path_inlined: ok"
