#!/usr/bin/env bash
# Lint gate: process-assigned keys hash with the Fx hasher.
#
# The term layer keys its caches and seen-sets by interner ids and term
# handles (hashed by id), and the explorer's coverage sets by static
# labels. No outside byte reaches those keys, so they hash with the
# unkeyed `soft_smt::fxhash` maps (DESIGN.md, "Sharded term interner");
# std's default SipHash costs a fifth of a walk there. Any std
# `HashMap` / `HashSet` named in non-test code of crates/smt/src or
# crates/sym/src is a default-hasher map. The maps whose keys carry
# names and constants parsed from artifacts keep the keyed hasher on
# purpose; those lines carry a `lint-exempt` marker. The module defining
# the Fx aliases is skipped. Comment lines and test code (#[cfg(test)]
# modules) are exempt. A listed path that does not exist fails the lint,
# so a rename cannot silently drop it from the gate.
set -u

aliases="crates/smt/src/fxhash.rs"
fail=0
for p in $aliases crates/smt/src crates/sym/src; do
    if [ ! -e "$p" ]; then
        echo "$p: listed path is missing"
        fail=1
    fi
done

for f in $(find crates/smt/src crates/sym/src -name '*.rs' 2>/dev/null | sort); do
    case " $aliases " in
    *" $f "*) continue ;;
    esac
    # Strip everything from the first `#[cfg(test)]` on: by repo
    # convention test modules are a single trailing `mod tests` block per
    # file.
    hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
        | grep -nE '\b(HashMap|HashSet)\b' \
        | grep -vE '^[0-9]+:[[:space:]]*//' \
        | grep -v 'lint-exempt' || true)
    if [ -n "$hits" ]; then
        echo "$f: default-hasher map or set:"
        echo "$hits" | sed 's/^/  /'
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "Use soft_smt::fxhash::{FxHashMap, FxHashSet} for process-assigned keys,"
    echo "or mark a map whose keys come from parsed input \`lint-exempt\` with the reason."
    exit 1
fi
echo "hasher lint OK: term-layer maps hash process-assigned keys with Fx"
