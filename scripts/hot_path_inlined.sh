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
# It fails when `kernels::branch_group` calls `branch_subproblem` or
# `memcpy`: the kernel gathers each group's lock-step problem straight from
# the branch data, and a per-branch problem built out of line and copied
# into the group (384 bytes, twice per group) shows up as either. Its
# positive control is that `branch_group` is found and calls
# `TronSolver::solve_lanes`, and that the derived `Clone` of `WarmState` —
# a struct of `Vec<f64>`s — calls `memcpy`.
#
# And it fails when the launch bookkeeping, `DeviceStats::record_launch`,
# hashes (`hash_one`, a SipHash `Hasher`, or a `hashbrown` table): the
# stats find a kernel by the address of its name. The positive control is
# `StatsSnapshot::since`, which looks kernels up in a `HashMap` and must
# call `hash_one`.
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
# that match the extended regular expression `$2`: a direct `call` names
# its target, and the load of an address that a `call *%reg` goes through
# is annotated with the symbol it loads.
refs() {
    printf '%s\n' "$disassembly" | awk -v pat="$1" -v re="$2" '
        /^[0-9a-f]+ <.*>:$/ { inside = index($0, pat) > 0; next }
        inside && $0 ~ re'
}
# Fails unless some function whose name contains `$1` references `$2`.
must_ref() {
    if [ -z "$(refs "$1" "$2")" ]; then
        echo "hot_path_inlined: objdump shows no $2 in $1 in $bin" >&2
        exit 1
    fi
}
# Fails when a function whose name contains `$1` references `$2`.
must_not_ref() {
    found=$(refs "$1" "$2")
    if [ -n "$found" ]; then
        echo "hot_path_inlined: $1 references $2 in $bin:" >&2
        echo "$found" >&2
        exit 1
    fi
}
if ! disassembly=$(objdump -d --no-show-raw-insn -C "$bin"); then
    echo "hot_path_inlined: objdump failed on $bin" >&2
    exit 1
fi
must_ref 'gridsim_tron::tron::matrices' memset
must_not_ref 'gridsim_tron::tron::TronSolver::solve_lanes' memset
must_not_ref 'gridsim_admm::kernels::branch_group' memset
must_ref 'gridsim_admm::kernels::branch_group' 'TronSolver::solve_lanes'
must_ref '<gridsim_admm::solver::WarmState as core::clone::Clone>::clone' memcpy
must_not_ref 'gridsim_admm::kernels::branch_group' 'branch_subproblem|memcpy'
must_ref 'gridsim_batch::stats::StatsSnapshot::since' hash_one
must_ref 'gridsim_batch::stats::DeviceStats::record_launch' 'call'
must_not_ref 'gridsim_batch::stats::DeviceStats::record_launch' 'hash_one|[Ss]ip[a-zA-Z0-9]*Hasher|sip::Hasher|hashbrown'
echo "hot_path_inlined: ok"
