#!/bin/sh
# serve_smoke.sh — start clio serve with a session journal, drive a
# create/corr/walk/illustrate round-trip with curl, kill -9 the server
# mid-session, verify the restarted server replays the session from
# the journal, and finally verify a clean graceful shutdown. Part of
# the tier-1 gate (make serve-smoke).
set -eu

BIN=${1:-./clio.smoke}
ADDR=127.0.0.1:7641
BASE="http://$ADDR"
LOG=$(mktemp)
JDIR=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null; rm -rf "$LOG" "$BIN" "$JDIR"' EXIT

go build -o "$BIN" ./cmd/clio

start_server() {
    # Extra args (lifecycle flags) pass through to clio serve.
    "$BIN" serve -addr "$ADDR" -cache 32 -journal-dir "$JDIR" "$@" >"$LOG" 2>&1 &
    PID=$!
    # Wait for the server to come up (max ~5s).
    i=0
    until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "serve-smoke: server did not come up" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
}

fail() {
    echo "serve-smoke: $1" >&2
    cat "$LOG" >&2
    exit 1
}

start_server

# Create a session on the paper database.
OUT=$(curl -sf -X POST "$BASE/api/sessions" \
    -d '{"source":"paper","name":"kids"}') || fail "session create failed"
case "$OUT" in *'"id"'*) ;; *) fail "no session id in: $OUT" ;; esac
SID=$(printf '%s' "$OUT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')

# Correspondence, then a data walk to PhoneDir.
curl -sf -X POST "$BASE/api/sessions/$SID/corr" \
    -d '{"spec":"Children.ID -> Kids.ID"}' >/dev/null || fail "corr failed"
OUT=$(curl -sf -X POST "$BASE/api/sessions/$SID/walk" \
    -d '{"from":"Children","to":"PhoneDir"}') || fail "walk failed"
case "$OUT" in *'"workspaces"'*) ;; *) fail "no workspaces in walk response: $OUT" ;; esac

# The illustration must mention the walked-to relation.
OUT=$(curl -sf "$BASE/api/sessions/$SID/illustration") || fail "illustration failed"
case "$OUT" in *PhoneDir*) ;; *) fail "illustration missing PhoneDir: $OUT" ;; esac
PRE_CRASH=$(curl -sf "$BASE/api/sessions/$SID/view") || fail "pre-crash view failed"

# The first view computed the target view; a second one with no op
# between is served from the session's memo and must answer the same
# bytes.
AGAIN=$(curl -sf "$BASE/api/sessions/$SID/view") || fail "repeated view failed"
[ "$PRE_CRASH" = "$AGAIN" ] || fail "repeated target view differs from the first"

# Crash-safety: kill -9 the server mid-session; the journal must
# restore the session on the next boot with a byte-identical view.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
start_server

OUT=$(curl -sf "$BASE/api/sessions") || fail "session list after crash failed"
case "$OUT" in *"\"$SID\""*) ;; *) fail "session $SID not replayed after kill -9: $OUT" ;; esac
OUT=$(curl -sf "$BASE/api/sessions/$SID/illustration") || fail "replayed illustration failed"
case "$OUT" in *PhoneDir*) ;; *) fail "replayed illustration missing PhoneDir: $OUT" ;; esac
POST_CRASH=$(curl -sf "$BASE/api/sessions/$SID/view") || fail "post-crash view failed"
[ "$PRE_CRASH" = "$POST_CRASH" ] || fail "replayed target view differs from pre-crash view"

# The replayed session is live: more ops apply cleanly.
curl -sf -X POST "$BASE/api/sessions/$SID/chase" \
    -d '{"column":"Children.ID","value":"002"}' >/dev/null || fail "post-replay chase failed"

# Repeated example recomputation exercises the D(G) cache.
curl -sf "$BASE/api/sessions/$SID/examples" >/dev/null || fail "examples failed"
curl -sf "$BASE/api/sessions/$SID/examples" >/dev/null || fail "examples (cached) failed"
OUT=$(curl -sf "$BASE/api/stats") || fail "stats failed"
case "$OUT" in *'"cache_entries"'*) ;; *) fail "no cache stats: $OUT" ;; esac

# Observability plane. /metrics must speak Prometheus text exposition
# and carry the serve request counter incremented by the traffic above.
OUT=$(curl -sf "$BASE/metrics") || fail "metrics scrape failed"
case "$OUT" in
    *'# TYPE clio_serve_requests_total counter'*) ;;
    *) fail "metrics missing serve request counter: $OUT" ;;
esac
case "$OUT" in
    *'clio_serve_request_ns{quantile="0.99"}'*) ;;
    *) fail "metrics missing latency quantiles: $OUT" ;;
esac

# /statusz reports the server live (not draining) with cache stats.
OUT=$(curl -sf "$BASE/statusz") || fail "statusz failed"
case "$OUT" in *'"draining":false'*) ;; *) fail "statusz not live: $OUT" ;; esac
case "$OUT" in *'"hit_ratio"'*) ;; *) fail "statusz missing cache block: $OUT" ;; esac

# explain on the mapped session names the picked algorithm and the
# executed plan tree, whose join spans report the rows they produced.
OUT=$(curl -sf "$BASE/api/sessions/$SID/explain") || fail "explain failed"
case "$OUT" in *'"algo"'*) ;; *) fail "explain missing algo: $OUT" ;; esac
case "$OUT" in *'"plan"'*) ;; *) fail "explain missing plan tree: $OUT" ;; esac
printf '%s' "$OUT" | grep -q '"name":"op.join","dur_us":[0-9]*,"attrs":{[^{}]*"rows":' ||
    fail "explain plan has no op.join span with rows: $OUT"

# Every response carries a trace ID, and that ID resolves in the
# retained-trace buffer.
TRACE=$(curl -sfD - -o /dev/null "$BASE/api/sessions/$SID/view" |
    tr -d '\r' | sed -n 's/^X-Clio-Trace: //p')
[ -n "$TRACE" ] || fail "view response carries no X-Clio-Trace header"
OUT=$(curl -sf "$BASE/debug/traces/$TRACE") || fail "trace lookup for $TRACE failed"
case "$OUT" in *"\"$TRACE\""*) ;; *) fail "retained trace does not echo its id: $OUT" ;; esac

# Session lifecycle: restart with snapshots every 2 ops and a short
# idle TTL. Snapshots must bound the journal, idle expiry must tombstone
# the session into the archive, and resurrect must bring it back with a
# byte-identical view.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
start_server -snapshot-every 2 -idle-ttl 1s

# Four more ops: with snapshot interval 2, the journal at rest holds at
# most 3 records (create + snapshot + at most one trailing op).
for KID in 901 902 903 904; do
    curl -sf -X POST "$BASE/api/sessions/$SID/rows" \
        -d "{\"relation\":\"Children\",\"values\":[\"$KID\",\"Kid$KID\",\"9\",\"800\",\"801\",\"d9\"]}" \
        >/dev/null || fail "row insert $KID failed"
done
LINES=$(wc -l <"$JDIR/$SID.journal")
[ "$LINES" -le 3 ] || fail "journal holds $LINES records after snapshots, want <= 3"
# Snapshots hold no D(G)s, so the resurrect below restores without any.
grep -q '"kind":"snapshot"' "$JDIR/$SID.journal" || fail "journal holds no snapshot record"
if grep -q '"dg"' "$JDIR/$SID.journal"; then
    fail "journal snapshot carries a \"dg\" key"
fi
PRE_EXPIRE=$(curl -sf "$BASE/api/sessions/$SID/view") || fail "pre-expire view failed"

# Leave the session idle past the TTL; the reaper must tombstone it.
i=0
while true; do
    OUT=$(curl -sf "$BASE/api/sessions") || fail "session list during expiry failed"
    case "$OUT" in
        *"\"$SID\""*) ;;
        *) break ;;
    esac
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        fail "session $SID not expired after idle TTL: $OUT"
    fi
    sleep 0.1
done
[ -f "$JDIR/archive/$SID.journal" ] || fail "expired session journal not in archive"
OUT=$(curl -sf "$BASE/api/sessions/archived") || fail "archived list failed"
case "$OUT" in *"\"$SID\""*) ;; *) fail "session $SID missing from archive list: $OUT" ;; esac

# Resurrect: archived journal replays back to a live, identical session.
OUT=$(curl -sf -X POST "$BASE/api/sessions/$SID/resurrect") || fail "resurrect failed"
case "$OUT" in *'"resurrected"'*) ;; *) fail "no resurrected flag in: $OUT" ;; esac
POST_RESURRECT=$(curl -sf "$BASE/api/sessions/$SID/view") || fail "post-resurrect view failed"
[ "$PRE_EXPIRE" = "$POST_RESURRECT" ] || fail "resurrected target view differs from pre-expire view"

# Watch: a long-poll parked on the session must wake when a row edit
# lands, with an event carrying the edit's own trace ID and the rows it
# added to the view.
curl -sf "$BASE/api/sessions/$SID/watch?wait_ms=0" >/dev/null || fail "watch prime failed"
WATCH_OUT=$(mktemp)
curl -sf "$BASE/api/sessions/$SID/watch?after=0&wait_ms=8000" >"$WATCH_OUT" &
WATCH_PID=$!
sleep 0.3
ROWS_TRACE=$(curl -sfD - -o /dev/null -X POST "$BASE/api/sessions/$SID/rows" \
    -d '{"relation":"Children","values":["905","Kid905","9","800","801","d9"]}' |
    tr -d '\r' | sed -n 's/^X-Clio-Trace: //p')
[ -n "$ROWS_TRACE" ] || fail "rows response carries no X-Clio-Trace header"
wait "$WATCH_PID" || fail "watch long-poll failed"
OUT=$(cat "$WATCH_OUT")
rm -f "$WATCH_OUT"
case "$OUT" in *'"events"'*) ;; *) fail "watch response has no events: $OUT" ;; esac
case "$OUT" in *"\"$ROWS_TRACE\""*) ;; *) fail "watch event missing the edit's trace $ROWS_TRACE: $OUT" ;; esac
case "$OUT" in *'"added"'*) ;; *) fail "watch event reports no added rows: $OUT" ;; esac

# Capacity & degradation: a second server on its own port exercises the
# spill-vs-abort budget policy end to end — 413 without a spill dir,
# 200 with byte-identical results when spill absorbs the same pressure,
# and an orphan sweep after kill -9.
ADDR2=127.0.0.1:7642
BASE2="http://$ADDR2"
LOG2=$(mktemp)
SDIR=$(mktemp -d)
PID2=""
trap 'kill "$PID" "$PID2" 2>/dev/null; rm -rf "$LOG" "$LOG2" "$BIN" "$JDIR" "$SDIR"' EXIT

start_server2() {
    "$BIN" serve -addr "$ADDR2" -cache 32 "$@" >"$LOG2" 2>&1 &
    PID2=$!
    i=0
    until curl -sf "$BASE2/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "serve-smoke: capacity server did not come up" >&2
            cat "$LOG2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

stop_server2() {
    kill "$PID2" 2>/dev/null || true
    wait "$PID2" 2>/dev/null || true
    PID2=""
}

new_session2() {
    OUT=$(curl -sf -X POST "$BASE2/api/sessions" \
        -d '{"source":"paper","name":"capacity"}') || fail "capacity session create failed"
    SID2=$(printf '%s' "$OUT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    [ -n "$SID2" ] || fail "no capacity session id in: $OUT"
}

# A mapping plus enough inserted rows that the walk's first full D(G)
# computation overflows the 128KB resident cap used in the spill leg
# (rows land before the walk, so the compute — not incremental
# maintenance — carries the pressure).
drive_capacity() {
    curl -sf -X POST "$BASE2/api/sessions/$SID2/corr" \
        -d '{"spec":"Children.ID -> Kids.ID"}' >/dev/null || fail "capacity corr failed"
    N=500
    while [ "$N" -lt 560 ]; do
        curl -sf -X POST "$BASE2/api/sessions/$SID2/rows" \
            -d "{\"relation\":\"Children\",\"values\":[\"$N\",\"Kid$N\",\"9\",\"800\",\"801\",\"d9\"]}" \
            >/dev/null || fail "capacity row insert $N failed"
        N=$((N + 1))
    done
    curl -sf -X POST "$BASE2/api/sessions/$SID2/walk" \
        -d '{"from":"Children","to":"PhoneDir"}' >/dev/null || fail "capacity walk failed"
}

# Without a spill directory, an over-budget computation answers 413 and
# the envelope names the remedy: spill is "disabled".
start_server2 -max-bytes 192
new_session2
BODY413=$(mktemp)
CODE=$(curl -s -o "$BODY413" -w '%{http_code}' -X POST "$BASE2/api/sessions/$SID2/corr" \
    -d '{"spec":"Children.ID -> Kids.ID"}')
[ "$CODE" = "413" ] || { cat "$BODY413" >&2; fail "over-budget corr answered $CODE, want 413"; }
grep -q '"spill":"disabled"' "$BODY413" || { cat "$BODY413" >&2; fail "413 envelope does not name spill state disabled"; }
rm -f "$BODY413"
stop_server2

# Reference run: the same workload with no budget at all.
start_server2
new_session2
drive_capacity
REF=$(curl -sf "$BASE2/api/sessions/$SID2/examples") || fail "reference examples failed"
stop_server2

# Spill run: a resident cap the workload exceeds, plus a spill dir and
# an explicit recursion depth for oversized partitions. The same
# requests must answer 200 — not 413 — with byte-identical results.
start_server2 -max-bytes 131072 -spill-dir "$SDIR" -spill-recursion-depth 3
new_session2
drive_capacity
BODYSP=$(mktemp)
CODE=$(curl -s -o "$BODYSP" -w '%{http_code}' "$BASE2/api/sessions/$SID2/examples")
[ "$CODE" = "200" ] || { cat "$BODYSP" >&2; fail "spill-backed examples answered $CODE, want 200"; }
GOT=$(cat "$BODYSP")
rm -f "$BODYSP"
[ "$REF" = "$GOT" ] || fail "spill-backed examples differ from the unlimited reference"
OUT=$(curl -sf "$BASE2/metrics") || fail "capacity metrics scrape failed"
printf '%s\n' "$OUT" | grep -q '^clio_spill_partitions_total [1-9]' ||
    fail "spill leg never spilled: clio_spill_partitions_total not incremented"
OUT=$(curl -sf "$BASE2/statusz") || fail "capacity statusz failed"
case "$OUT" in *'"spill_aborts"'*) ;; *) fail "statusz missing spill block: $OUT" ;; esac
case "$OUT" in *'"recursions"'*) ;; *) fail "statusz missing spill recursion counter: $OUT" ;; esac

# Orphan sweep: kill -9 the spilling server, plant a stale partition
# file as a crash would leave it, and verify the restarted server
# removes it on boot.
kill -9 "$PID2"
wait "$PID2" 2>/dev/null || true
: >"$SDIR/clio-spill-77777.part"
start_server2 -max-bytes 131072 -spill-dir "$SDIR"
LEFT=$(ls "$SDIR"/clio-spill-*.part 2>/dev/null | wc -l)
[ "$LEFT" -eq 0 ] || fail "orphaned spill files not swept on boot ($LEFT left)"
stop_server2

# Graceful shutdown: SIGTERM must drain and exit zero.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        fail "server did not shut down after SIGTERM"
    fi
    sleep 0.1
done
wait "$PID" || fail "server exited non-zero"
trap 'rm -rf "$LOG" "$LOG2" "$BIN" "$JDIR" "$SDIR"' EXIT

echo "serve-smoke: ok"
