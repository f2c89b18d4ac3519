#!/usr/bin/env bash
# Lint gate: forbid throwaway solver construction in the crosscheck path.
#
# The incremental solver core (DESIGN.md, "Incremental solving") only
# pays off if solver state persists across the queries of one pass: the
# worker `Solver` owns the CNF memo in which each group condition is
# bit-blasted once, so a worker that builds a fresh `Solver` per pair
# re-blasts every shared condition for every query. All solver
# construction in the crosscheck layer must therefore go through
# `worker_solver` in crosscheck.rs — the one audited site that wires in
# the shared verdict cache, the budget, and the (caller-gated)
# incremental memo. That line carries a
# `lint-exempt` marker; any other `Solver::new(` / `Solver::with_cache(`
# in non-test crosscheck code is a regression to per-query throwaway
# solving. Test code (#[cfg(test)] modules) is exempt: tests construct
# oracle solvers on purpose. A listed file that does not exist fails the
# lint, so a rename cannot silently drop it from the gate.
set -u

fail=0
for f in crates/core/src/crosscheck.rs; do
    if [ ! -f "$f" ]; then
        echo "$f: listed file is missing"
        fail=1
        continue
    fi
    # Strip everything from the first `#[cfg(test)]` on: by repo convention
    # test modules are a single trailing `mod tests` block per file.
    hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
        | grep -n 'Solver::new(\|Solver::with_cache(' \
        | grep -v 'lint-exempt' || true)
    if [ -n "$hits" ]; then
        echo "$f: throwaway solver construction outside worker_solver:"
        echo "$hits" | sed 's/^/  /'
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "Build pass-lifetime solvers via worker_solver (see DESIGN.md, \"Incremental solving\")."
    exit 1
fi
echo "fresh-solver lint OK: all crosscheck solvers are pass-lifetime"
