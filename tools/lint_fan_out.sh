#!/usr/bin/env bash
# Lint gate: one fan-out loop in the pipeline crates.
#
# Every per-item parallel stage (crosscheck solve passes, witness
# drafting, fuzzing and corpus replay, the phase-1 matrix) runs through
# `soft_harness::par_map` (crates/harness/src/pool.rs): the calling thread
# is worker 0 and `jobs - 1` scoped threads join it, so `--jobs 1` runs the
# same code as `--jobs 8` and spawns no thread. The explorer
# (crates/sym/src/explorer.rs) is the one other driver, because its
# workers share a frontier rather than an item list. Any other
# `thread::scope` / `thread::spawn` in non-test code of the pipeline
# crates is a second fan-out path whose output could depend on which
# branch ran. Test code (#[cfg(test)] modules) is exempt: tests race
# threads on purpose. The two allowed files must exist, so a rename
# cannot silently widen the gate.
set -u

allowed="crates/harness/src/pool.rs crates/sym/src/explorer.rs"
fail=0
for f in $allowed; do
    if [ ! -f "$f" ]; then
        echo "$f: listed file is missing"
        fail=1
    fi
done

for dir in crates/smt/src crates/sym/src crates/core/src crates/witness/src crates/harness/src; do
    if [ ! -d "$dir" ]; then
        echo "$dir: listed directory is missing"
        fail=1
        continue
    fi
    for f in $(find "$dir" -name '*.rs' | sort); do
        case " $allowed " in
        *" $f "*) continue ;;
        esac
        # Strip everything from the first `#[cfg(test)]` on: by repo
        # convention test modules are a single trailing `mod tests` block
        # per file.
        hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
            | grep -n 'thread::scope\|thread::spawn\|thread::Builder' || true)
        if [ -n "$hits" ]; then
            echo "$f: thread fan-out outside soft_harness::par_map:"
            echo "$hits" | sed 's/^/  /'
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "Fan work out through soft_harness::par_map (see DESIGN.md, \"Parallel architecture\")."
    exit 1
fi
echo "fan-out lint OK: every pipeline fan-out goes through par_map or the explorer"
