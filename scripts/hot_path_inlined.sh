#!/bin/sh
# Fails when the release `perf` binary keeps a symbol the ADMM hot path must
# have inlined: TRON's `newton_step`, the masked free-block LDLᵀ
# `ldlt_solve_masked` (its `f64` and its lock-step lane instance share the
# name), `BoundProblem::project` and `BoundProblem::projected_gradient_norm`,
# the lock-step branch evaluation (the `BoundProblem` methods of
# `BranchProblem<gridsim_sparse::lanes::Lanes>`, its `objective` and
# `derivatives` among them, and the generic `BranchProblem<T>` helpers they
# call, whose instances share one name), or `core::ops::try_trait::Wrapped` (the closure
# wrapper of `[T; N]::map`, once seen out of line in the branch kernel's
# `derivatives`). Each of them out of line has cost the ADMM workloads
# time with no source change near them.
#
# It also fails when `TronSolver::solve_lanes` or `kernels::branch_group`
# calls `memset`: a solve zeroes its Hessian and its factor scratch once, in
# the out-of-line `gridsim_tron::tron::matrices`, and a matrix zeroed inline
# (an LDLᵀ scratch zeroed per factor cost 1 KiB of stores per lock-step
# direct step) shows up as a `memset` call there. The positive control is
# `matrices` itself, which must call `memset`.
#
# Build the binary first, e.g. with
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
found=$(printf '%s\n' "$symbols" | grep -E 'newton_step|ldlt_solve_masked|try_trait::Wrapped|BoundProblem::project|BoundProblem::projected_gradient_norm|BranchProblem<gridsim_sparse::lanes::Lanes> as|BranchProblem<T>>::')
if [ -n "$found" ]; then
    echo "hot_path_inlined: out-of-line symbols in $bin:" >&2
    echo "$found" >&2
    exit 1
fi
# The instructions of every function whose demangled name contains `$1`
# that reference `memset`: a direct `call`, or the load of its address that
# a `call *%reg` goes through.
memset_calls() {
    printf '%s\n' "$disassembly" | awk -v pat="$1" '
        /^[0-9a-f]+ <.*>:$/ { inside = index($0, pat) > 0 }
        inside && /memset/'
}
if ! disassembly=$(objdump -d --no-show-raw-insn -C "$bin"); then
    echo "hot_path_inlined: objdump failed on $bin" >&2
    exit 1
fi
if [ -z "$(memset_calls 'gridsim_tron::tron::matrices')" ]; then
    echo "hot_path_inlined: objdump shows no memset in gridsim_tron::tron::matrices in $bin" >&2
    exit 1
fi
for f in 'gridsim_tron::tron::TronSolver::solve_lanes' 'gridsim_admm::kernels::branch_group'; do
    found=$(memset_calls "$f")
    if [ -n "$found" ]; then
        echo "hot_path_inlined: $f calls memset in $bin:" >&2
        echo "$found" >&2
        exit 1
    fi
done
echo "hot_path_inlined: ok"
