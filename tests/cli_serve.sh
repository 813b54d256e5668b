#!/bin/sh
# CLI smoke test for the serving commands.
#
#   sh cli_serve.sh GCM FIXTURE LADDER_GOLDEN WORKDIR
#
# Trains a model with GCM, serves FIXTURE (mixed valid and malformed
# gcm-serve/v1 lines, no bulk lines) at 1 and 4 workers and checks the
# two outputs are byte-identical with one response line per request.
# Then replays an overloaded `gcm loadgen` run that both answers and
# sheds and compares its response stream with LADDER_GOLDEN, checks
# that flags the commands do not read (the removed --qps, --soft,
# --hard, --degrade and --watermark) make them exit non-zero, and that a
# model file with a cyclic tree is refused with an error, not a crash.
set -eu

gcm=$1
fixture=$2
ladder_golden=$3
work=$4
mkdir -p "$work"

fail() {
    echo "cli_serve: $*" >&2
    exit 1
}

"$gcm" train --out "$work/m.txt" > /dev/null
for w in 1 4; do
    "$gcm" serve --model "$work/m.txt" --workers "$w" --in "$fixture" \
        --out "$work/serve_w$w.jsonl" 2> /dev/null
done
cmp "$work/serve_w1.jsonl" "$work/serve_w4.jsonl" \
    || fail "responses differ between 1 and 4 workers"

requests=$(wc -l < "$fixture")
responses=$(wc -l < "$work/serve_w1.jsonl")
[ "$requests" -eq "$responses" ] \
    || fail "$requests requests but $responses responses"
torn=$(grep -c -v '^{"id": .*}$' "$work/serve_w1.jsonl" || true)
[ "$torn" -eq 0 ] || fail "$torn response lines are not JSON objects"
grep -q '"ok": true' "$work/serve_w1.jsonl" || fail "no ok response"
grep -q '"ok": false' "$work/serve_w1.jsonl" || fail "no error response"

# 300 requests at 2x capacity: 293 ok, 7 shed.
"$gcm" loadgen --model "$work/m.txt" --requests 300 --queue 64 \
    --bulk-fraction 0.25 --workers 4 \
    --out "$work/ladder.jsonl" > /dev/null \
    || fail "gcm loadgen --queue 64 failed"
cmp "$work/ladder.jsonl" "$ladder_golden" \
    || fail "loadgen ladder responses differ from $ladder_golden"

for flag in "--qps 5000" "--soft 32" "--hard 48" "--degrade shed" \
    "--watermark 32"; do
    # shellcheck disable=SC2086 # the flag and its value split on purpose
    if "$gcm" loadgen --model "$work/m.txt" --requests 10 $flag \
        > /dev/null 2>&1; then
        fail "gcm loadgen accepted the unread flag $flag"
    fi
done

# Point the first tree's root at itself: the nodes no longer form a
# tree, so loading must fail with exit 1 and an error message.
sed '0,/^node /s/^node \([^ ]*\) \([^ ]*\) \([^ ]*\) [^ ]* [^ ]*/node \1 \2 \3 0 0/' \
    "$work/m.txt" > "$work/cyclic.txt"
cmp -s "$work/m.txt" "$work/cyclic.txt" && fail "cyclic model edit missed"
status=0
"$gcm" serve --model "$work/cyclic.txt" < /dev/null > /dev/null \
    2> "$work/cyclic.err" || status=$?
[ "$status" -eq 1 ] || fail "cyclic model: exit $status, want 1"
grep -q '^error: .*reached twice' "$work/cyclic.err" \
    || fail "cyclic model: no error message"
echo "cli_serve: ok ($requests requests)"
