#!/usr/bin/env bash
# Lint gate: forbid sleep-polled accept loops.
#
# Every TCP listener in the workspace accepts through one helper,
# `Acceptor` in crates/conform/src/transport.rs (DESIGN.md, "Serve
# architecture"): its `accept` blocks, and a stop wakes it with a
# self-connect, so a new connection never waits on a poll interval. A
# non-blocking listener polled with `sleep` between `WouldBlock`s adds
# that interval to every connection — the loopback DUT's 5 ms poll once
# dominated each conformance replay. Any other `.accept()` or
# `set_nonblocking(true)` in src/, crates/*/src or tests/ is a
# regression to such a loop. Test code is covered too: a test listener
# goes through the helper like any other.
set -u

HELPER=crates/conform/src/transport.rs

fail=0
for f in $(find src crates/*/src tests -name '*.rs' 2>/dev/null | sort); do
    [ "$f" = "$HELPER" ] && continue
    hits=$(grep -n 'TcpListener::accept(\|\.accept()\|set_nonblocking(true)' "$f" || true)
    if [ -n "$hits" ]; then
        echo "$f: accept outside the shared Acceptor:"
        echo "$hits" | sed 's/^/  /'
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "Accept through soft_conform::Acceptor (see DESIGN.md, \"Serve architecture\")."
    exit 1
fi
echo "accept-poll lint OK: every listener accepts through the shared Acceptor"
