#!/usr/bin/env bash
# Crash/resume soak: SIGKILL the pipeline mid-run, resume from the
# write-ahead journal, and demand byte-identical artifacts.
#
# For phase 1 (at --jobs 1 and --jobs N) and for check, the script:
#   1. produces uninterrupted reference output,
#   2. re-runs the same command under `timeout -s KILL`, retrying with
#      --resume while the process keeps getting killed (the timeout grows
#      each round so the loop always terminates),
#   3. diffs the resumed artifacts against the reference (wall_ms is the
#      only permitted difference — it is wall-clock, not a result).
#
# Exit nonzero on any divergence.
# Usage: tools/crash_resume.sh [phase1-test-id] [check-test-id]
set -u

TEST_ID="${1:-flow_mod}"
# The check stage wants a test whose crosscheck takes long enough to be
# interruptible but finishes in seconds; set_config (~5k queries) fits.
CHECK_TEST="${2:-set_config}"
JOBS_N=4
SOFT="${SOFT_BIN:-target/release/soft}"

if [ ! -x "$SOFT" ]; then
    echo "crash_resume: building release binary ..."
    cargo build --release --bin soft || exit 1
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/soft_crash_resume.XXXXXX") || exit 1
trap 'rm -rf "$WORK"' EXIT
fail=0

# Normalize an artifact for comparison: wall-clock is environmental.
norm() {
    sed 's/"wall_ms": *[0-9.]*/"wall_ms": 0/' "$1"
}

# run_until_done <timeout-ms-start> <log> <cmd...>
# First round runs the command as given; every retry appends --resume.
# Returns the final (non-KILL) exit code.
run_until_done() {
    local t_ms=$1 log=$2 rc=137 round=0
    shift 2
    while [ "$rc" -eq 137 ] && [ "$round" -lt 40 ]; do
        local extra=()
        [ "$round" -gt 0 ] && extra=(--resume)
        # Subshell so bash's async "Killed" job notice stays out of the
        # script's own stderr.
        (
            timeout -s KILL "$(awk "BEGIN{printf \"%.3f\", $t_ms/1000}")" \
                "$@" "${extra[@]}" >"$log" 2>>"$WORK/stderr.log"
        ) 2>/dev/null
        rc=$?
        round=$((round + 1))
        t_ms=$((t_ms * 3 / 2 + 20))
    done
    echo "    $((round - 1)) interruption(s) before completion" >&2
    return "$rc"
}

echo "== phase1 reference (uninterrupted) =="
for agent in reference ovs; do
    "$SOFT" phase1 --agent "$agent" --test "$TEST_ID" \
        --out "$WORK/ref_${agent}.json" --jobs 1 >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
        echo "crash_resume: reference phase1 ($agent) failed with $rc"
        exit 1
    fi
done

for jobs in 1 "$JOBS_N"; do
    echo "== phase1 under SIGKILL at --jobs $jobs =="
    for agent in reference ovs; do
        out="$WORK/kill_${agent}_j${jobs}.json"
        run_until_done 40 "$WORK/phase1.out" \
            "$SOFT" phase1 --agent "$agent" --test "$TEST_ID" \
            --out "$out" --jobs "$jobs" --journal "$out.wal"
        rc=$?
        if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
            echo "crash_resume: resumed phase1 ($agent, jobs=$jobs) exit $rc"
            fail=1
            continue
        fi
        if ! diff <(norm "$WORK/ref_${agent}.json") <(norm "$out") >/dev/null; then
            echo "crash_resume: ARTIFACT DIVERGED: $agent at jobs=$jobs"
            diff <(norm "$WORK/ref_${agent}.json") <(norm "$out") | head -20
            fail=1
        else
            echo "    $agent artifact byte-identical to reference"
        fi
    done
done

echo "== check reference (uninterrupted, '$CHECK_TEST') =="
for agent in reference ovs; do
    "$SOFT" phase1 --agent "$agent" --test "$CHECK_TEST" \
        --out "$WORK/chk_${agent}.json" --no-journal >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
        echo "crash_resume: phase1 for check stage ($agent) failed with $rc"
        exit 1
    fi
done
"$SOFT" check "$WORK/chk_reference.json" "$WORK/chk_ovs.json" \
    --no-journal >"$WORK/check_ref.out" 2>/dev/null
ref_rc=$?

echo "== check under SIGKILL =="
run_until_done 500 "$WORK/check_kill.out" \
    "$SOFT" check "$WORK/chk_reference.json" "$WORK/chk_ovs.json" \
    --journal "$WORK/check.wal"
rc=$?
if [ "$rc" -ne "$ref_rc" ]; then
    echo "crash_resume: check exit code diverged: reference $ref_rc, resumed $rc"
    fail=1
fi
# The verdict (inconsistencies / unverified) must survive any number of
# crashes; compare it rather than the whole line to keep the check
# focused on results, not report cosmetics.
verdict() { grep -o '[0-9]* inconsistencies, [0-9]* unverified' "$1"; }
if [ "$(verdict "$WORK/check_ref.out")" != "$(verdict "$WORK/check_kill.out")" ]; then
    echo "crash_resume: check verdict diverged:"
    echo "  reference: $(cat "$WORK/check_ref.out")"
    echo "  resumed:   $(cat "$WORK/check_kill.out")"
    fail=1
else
    echo "    check verdict identical to reference"
fi

echo "== run (streaming session) reference (uninterrupted, '$CHECK_TEST') =="
"$SOFT" run --agents reference,ovs --test "$CHECK_TEST" \
    --out "$WORK/run_ref_" --jobs "$JOBS_N" --no-journal --no-fsync \
    >"$WORK/run_ref.out" 2>/dev/null
run_ref_rc=$?

echo "== run under SIGKILL =="
# One session journal covers the whole pipeline, so the kills land in
# every stage — exploration, crosscheck, distillation — across rounds.
run_until_done 300 "$WORK/run_kill.out" \
    "$SOFT" run --agents reference,ovs --test "$CHECK_TEST" \
    --out "$WORK/run_kill_" --jobs "$JOBS_N" --no-fsync
rc=$?
if [ "$rc" -ne "$run_ref_rc" ]; then
    echo "crash_resume: run exit code diverged: reference $run_ref_rc, resumed $rc"
    fail=1
fi
for agent in reference ovs; do
    if ! diff <(norm "$WORK/run_ref_${agent}_${CHECK_TEST}.json") \
              <(norm "$WORK/run_kill_${agent}_${CHECK_TEST}.json") >/dev/null; then
        echo "crash_resume: RUN ARTIFACT DIVERGED: $agent"
        fail=1
    else
        echo "    $agent artifact byte-identical to reference"
    fi
done
# The corpus records no wall-clock: byte-identical, no normalization.
if ! diff "$WORK/run_ref_corpus_${CHECK_TEST}.json" \
          "$WORK/run_kill_corpus_${CHECK_TEST}.json" >/dev/null; then
    echo "crash_resume: RUN CORPUS DIVERGED"
    fail=1
else
    echo "    corpus byte-identical to reference"
fi
# The per-test summary counts must survive the crashes too (a resumed
# session may replay them from the journal — strip that marker, and
# fold both out-prefixes to one token: the paths legitimately differ).
if [ "$(sed -e 's/ (resumed)//' -e "s|$WORK/run_kill_|OUT/|g" "$WORK/run_kill.out")" != \
     "$(sed -e "s|$WORK/run_ref_|OUT/|g" "$WORK/run_ref.out")" ]; then
    echo "crash_resume: run summary diverged:"
    echo "  reference: $(cat "$WORK/run_ref.out")"
    echo "  resumed:   $(cat "$WORK/run_kill.out")"
    fail=1
else
    echo "    run summary identical to reference"
fi

echo "== serve: SIGTERM mid-job, journal-backed recovery on restart =="
# Kill a daemon while it is solving a job; a fresh daemon must find the
# in-flight record, resume the job from its per-job WAL, publish it, and
# then answer a re-submission from the store with zero solver queries
# and bytes identical to an uninterrupted daemon's answer.
STORE_REF="$WORK/serve_ref_store"
STORE_KILL="$WORK/serve_kill_store"
serve_wait_addr() { # serve_wait_addr <store-dir>
    for _ in $(seq 1 100); do
        [ -s "$1/addr" ] && return 0
        sleep 0.1
    done
    echo "crash_resume: serve daemon never published an addr"
    return 1
}
# Reference: an uninterrupted daemon serves the job once.
"$SOFT" serve --store "$STORE_REF" --no-fsync >/dev/null 2>&1 &
REF_PID=$!
serve_wait_addr "$STORE_REF" || exit 1
"$SOFT" submit --store "$STORE_REF" --agents reference,ovs \
    --test "$CHECK_TEST" --fuzz 0 --out "$WORK/serve_ref_" \
    >/dev/null 2>&1
serve_ref_rc=$?
"$SOFT" submit --store "$STORE_REF" --drain >/dev/null 2>&1
wait "$REF_PID" 2>/dev/null
# Interrupted: SIGTERM the daemon mid-job (twice: drain then exit-now),
# growing the grace period until a round lets the job finish.
round=0
while [ "$round" -lt 40 ]; do
    grace_ms=$((30 + round * 40))
    ("$SOFT" serve --store "$STORE_KILL" --no-fsync \
        >/dev/null 2>>"$WORK/stderr.log" &
     echo $! >"$WORK/serve.pid") 2>/dev/null
    KILL_PID=$(cat "$WORK/serve.pid")
    serve_wait_addr "$STORE_KILL" || exit 1
    "$SOFT" submit --store "$STORE_KILL" --agents reference,ovs \
        --test "$CHECK_TEST" --fuzz 0 --json "$WORK/serve_kill.json" \
        >/dev/null 2>&1 &
    SUBMIT_PID=$!
    (sleep "$(awk "BEGIN{printf \"%.3f\", $grace_ms/1000}")"
     kill -TERM "$KILL_PID" 2>/dev/null
     sleep 0.05
     kill -TERM "$KILL_PID" 2>/dev/null) 2>/dev/null
    wait "$SUBMIT_PID" 2>/dev/null
    sub_rc=$?
    wait "$KILL_PID" 2>/dev/null
    round=$((round + 1))
    # The submission either completed before the SIGTERMs landed
    # (store entry published) or was cut off; either way the next
    # daemon must recover whatever was in flight.
    if [ "$sub_rc" -eq "$serve_ref_rc" ] && [ -s "$WORK/serve_kill.json" ]; then
        break
    fi
    rm -f "$WORK/serve_kill.json" "$STORE_KILL/addr"
done
echo "    $((round - 1)) interruption(s) before a completed submission" >&2
# Restart: recovery re-runs any in-flight job, then the re-submission
# must be a pure store hit.
rm -f "$STORE_KILL/addr"
"$SOFT" serve --store "$STORE_KILL" --no-fsync >/dev/null 2>&1 &
RESTART_PID=$!
serve_wait_addr "$STORE_KILL" || exit 1
"$SOFT" submit --store "$STORE_KILL" --agents reference,ovs \
    --test "$CHECK_TEST" --fuzz 0 --out "$WORK/serve_resumed_" \
    --json "$WORK/serve_resumed.json" >/dev/null 2>&1
resumed_rc=$?
"$SOFT" submit --store "$STORE_KILL" --drain >/dev/null 2>&1
wait "$RESTART_PID" 2>/dev/null
if [ "$resumed_rc" -ne "$serve_ref_rc" ]; then
    echo "crash_resume: serve exit code diverged: reference $serve_ref_rc, resumed $resumed_rc"
    fail=1
fi
if ! grep -q '"store_hit":true' "$WORK/serve_resumed.json"; then
    echo "crash_resume: SERVE RESUBMIT WAS NOT A STORE HIT"
    fail=1
fi
if ! grep -q '"check_queries":0' "$WORK/serve_resumed.json"; then
    echo "crash_resume: SERVE RESUBMIT ISSUED SOLVER QUERIES"
    fail=1
fi
# Same job, same bytes: the recovered store must answer with the exact
# artifacts the uninterrupted daemon produced (wall-clock excepted).
serve_diverged=0
for f in "reference_${CHECK_TEST}.json" "ovs_${CHECK_TEST}.json" "corpus_${CHECK_TEST}.json"; do
    if ! diff <(norm "$WORK/serve_ref_$f") <(norm "$WORK/serve_resumed_$f") >/dev/null; then
        echo "crash_resume: SERVE ARTIFACT DIVERGED after recovery: $f"
        serve_diverged=1
        fail=1
    fi
done
if [ "$serve_diverged" -eq 0 ]; then
    echo "    recovered store answers byte-identical to uninterrupted daemon"
fi

echo "== conform: SIGKILL the DUT mid-replay, degrade to flaky/unreachable =="
# A conformance DUT that dies under the harness must never crash or hang
# the replayer: the run completes, the affected witnesses carry explicit
# flaky (connected, never finished) or unreachable (never connected)
# verdicts, and the exit code reports the degradation. The corpus must
# take longer to replay than the kill takes to land: packet_out's ~95
# witnesses replay in tens of milliseconds, where a one-witness corpus
# finishes in under one and outruns every kill delay.
"$SOFT" run --agents reference,ovs --test packet_out \
    --out "$WORK/conform_" --no-journal --no-fsync >/dev/null 2>&1
run_rc=$?
if [ "$run_rc" -ne 0 ] && [ "$run_rc" -ne 2 ]; then
    echo "crash_resume: corpus distillation for conform stage failed with $run_rc"
    exit 1
fi
CON_CORPUS="$WORK/conform_corpus_packet_out.json"
conform_degraded=0
round=0
while [ "$round" -lt 40 ]; do
    # Grow the kill delay each round: early rounds kill the DUT before
    # or during the first replay, later ones mid-corpus.
    delay_ms=$((round * 5))
    # Subshell + pid file so the async "Killed" notice for the DUT stays
    # out of the script's stderr (same pattern as the serve section).
    ("$SOFT" conform-dut --agent ovs >"$WORK/dut.out" 2>&1 &
     echo $! >"$WORK/dut.pid") 2>/dev/null
    DUT_PID=$(cat "$WORK/dut.pid")
    addr=""
    for _ in $(seq 1 100); do
        addr=$(grep -o '127\.0\.0\.1:[0-9]*' "$WORK/dut.out" 2>/dev/null || true)
        [ -n "$addr" ] && break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "crash_resume: conform-dut never published its address"
        kill -9 "$DUT_PID" 2>/dev/null
        exit 1
    fi
    "$SOFT" conform "$CON_CORPUS" --addr "$addr" \
        --retries 2 --op-timeout-ms 400 --json "$WORK/conform_kill.json" \
        >"$WORK/conform_kill.out" 2>"$WORK/conform_kill.err" &
    CONF_PID=$!
    (sleep "$(awk "BEGIN{printf \"%.3f\", $delay_ms/1000}")"
     kill -KILL "$DUT_PID" 2>/dev/null) 2>/dev/null
    wait "$CONF_PID" 2>/dev/null
    conf_rc=$?
    wait "$DUT_PID" 2>/dev/null
    round=$((round + 1))
    if grep -q 'panicked' "$WORK/conform_kill.err"; then
        echo "crash_resume: CONFORM PANICKED when the DUT died:"
        head -5 "$WORK/conform_kill.err"
        fail=1
        break
    fi
    # 3 = flaky, 5 = unreachable: the kill landed mid-replay and the
    # run degraded explicitly. 0/2 means the replay outran the kill —
    # legitimate, try a longer delay. Anything else is a bug.
    if [ "$conf_rc" -eq 3 ] || [ "$conf_rc" -eq 5 ]; then
        if ! grep -Eq '"(flaky|unreachable)":[1-9]' "$WORK/conform_kill.json"; then
            echo "crash_resume: conform exit $conf_rc but no degraded verdict in report"
            fail=1
        else
            conform_degraded=1
        fi
        break
    fi
    if [ "$conf_rc" -ne 0 ] && [ "$conf_rc" -ne 2 ]; then
        echo "crash_resume: conform exited $conf_rc after DUT SIGKILL (want 3 or 5)"
        cat "$WORK/conform_kill.out"
        fail=1
        break
    fi
    rm -f "$WORK/conform_kill.json"
done
if [ "$conform_degraded" -eq 1 ]; then
    echo "    $round round(s): DUT death degraded to explicit verdicts, no crash"
elif [ "$fail" -eq 0 ]; then
    echo "crash_resume: conform kill never landed mid-replay in $round rounds"
    fail=1
fi

echo "== fleet: SIGKILL a back-end mid-job, router re-routes =="
# Two back-ends behind a router; a job's back-end is SIGKILLed while it
# solves. The router must fail the job over to the survivor (fresh
# solve — never a lost job), and a re-submission of the same spec must
# be answered from the survivor's store with zero solver queries and
# the exact bytes the failover run returned.
FLT0="$WORK/fleet_s0"
FLT1="$WORK/fleet_s1"
for d in "$FLT0" "$FLT1"; do
    ("$SOFT" serve --store "$d" --jobs 2 --no-fsync \
        >/dev/null 2>>"$WORK/stderr.log" &
     echo $! >"$d.pid") 2>/dev/null
    serve_wait_addr "$d" || exit 1
done
("$SOFT" route --backends "$(cat "$FLT0/addr"),$(cat "$FLT1/addr")" \
    --replicas 1 --addr-file "$WORK/fleet_addr" \
    >/dev/null 2>>"$WORK/stderr.log" &
 echo $! >"$WORK/route.pid") 2>/dev/null
for _ in $(seq 1 100); do
    [ -s "$WORK/fleet_addr" ] && break
    sleep 0.1
done
[ -s "$WORK/fleet_addr" ] || { echo "crash_resume: router never published an addr"; exit 1; }
RADDR=$(cat "$WORK/fleet_addr")
round=0
landed=0
flt_rc=1
flt_seed=0
while [ "$round" -lt 5 ]; do
    flt_seed=$((4242 + round))   # fresh content key per round: a retry must re-solve
    rm -f "$WORK/fleet_kill.json"
    "$SOFT" submit --addr "$RADDR" --agents reference,ovs \
        --test "$CHECK_TEST" --fuzz 0 --seed "$flt_seed" \
        --out "$WORK/fleet_kill_" --json "$WORK/fleet_kill.json" \
        >/dev/null 2>&1 &
    FLT_SUBMIT=$!
    victim=""
    for _ in $(seq 1 300); do
        for d in "$FLT0" "$FLT1"; do
            if ls "$d"/inflight/*.json >/dev/null 2>&1; then victim="$d"; break 2; fi
        done
        kill -0 "$FLT_SUBMIT" 2>/dev/null || break   # solve outran the poll
        sleep 0.02
    done
    if [ -n "$victim" ]; then
        VPID=$(cat "$victim.pid")
        kill -9 "$VPID" 2>/dev/null
        wait "$VPID" 2>/dev/null
        landed=1
    fi
    wait "$FLT_SUBMIT" 2>/dev/null
    flt_rc=$?
    [ "$landed" -eq 1 ] && break
    round=$((round + 1))
done
if [ "$landed" -ne 1 ]; then
    echo "crash_resume: fleet kill never landed mid-job in $round round(s)"
    fail=1
elif [ "$flt_rc" -ne 0 ] && [ "$flt_rc" -ne 2 ] && [ "$flt_rc" -ne 3 ]; then
    echo "crash_resume: FLEET JOB LOST after back-end SIGKILL (exit $flt_rc)"
    fail=1
else
    echo "    round $round: back-end SIGKILLed mid-job, job completed (exit $flt_rc)"
    # Same spec again: the survivor answers from its store.
    "$SOFT" submit --addr "$RADDR" --agents reference,ovs \
        --test "$CHECK_TEST" --fuzz 0 --seed "$flt_seed" \
        --out "$WORK/fleet_hit_" --json "$WORK/fleet_hit.json" \
        >/dev/null 2>&1
    hit_rc=$?
    if [ "$hit_rc" -ne "$flt_rc" ]; then
        echo "crash_resume: fleet resubmit exit diverged: $flt_rc then $hit_rc"
        fail=1
    fi
    if ! grep -q '"store_hit":true' "$WORK/fleet_hit.json"; then
        echo "crash_resume: FLEET RESUBMIT WAS NOT A STORE HIT"
        fail=1
    fi
    if ! grep -q '"check_queries":0' "$WORK/fleet_hit.json"; then
        echo "crash_resume: FLEET RESUBMIT ISSUED SOLVER QUERIES"
        fail=1
    fi
    fleet_diverged=0
    for f in "reference_${CHECK_TEST}.json" "ovs_${CHECK_TEST}.json" "corpus_${CHECK_TEST}.json"; do
        if ! diff <(norm "$WORK/fleet_kill_$f") <(norm "$WORK/fleet_hit_$f") >/dev/null; then
            echo "crash_resume: FLEET ARTIFACT DIVERGED across failover: $f"
            fleet_diverged=1
            fail=1
        fi
    done
    if [ "$fleet_diverged" -eq 0 ]; then
        echo "    survivor serves the failover run's exact bytes"
    fi
fi
# One drain at the router stops the router and the surviving back-end.
"$SOFT" submit --addr "$RADDR" --drain >/dev/null 2>&1
for pidfile in "$WORK/route.pid" "$FLT0.pid" "$FLT1.pid"; do
    p=$(cat "$pidfile")
    for _ in $(seq 1 150); do kill -0 "$p" 2>/dev/null || break; sleep 0.2; done
    if kill -0 "$p" 2>/dev/null; then
        echo "crash_resume: fleet process $p failed to drain"
        kill -9 "$p" 2>/dev/null
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "crash_resume: FAILED"
    exit 1
fi
echo "crash_resume: OK — SIGKILL + --resume reproduced the uninterrupted results"
