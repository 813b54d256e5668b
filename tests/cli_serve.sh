#!/bin/sh
# CLI smoke test for the serving commands.
#
#   sh cli_serve.sh GCM FIXTURE WORKDIR
#
# Trains a model with GCM, serves FIXTURE (mixed valid and malformed
# gcm-serve/v1 lines, no bulk lines) at 1 and 4 workers and checks the
# two outputs are byte-identical with one response line per request.
# Then checks that `gcm loadgen` runs and that a flag it does not read
# (the removed --qps) makes it exit non-zero.
set -eu

gcm=$1
fixture=$2
work=$3
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

"$gcm" loadgen --model "$work/m.txt" --requests 200 > /dev/null \
    || fail "gcm loadgen --requests 200 failed"
if "$gcm" loadgen --model "$work/m.txt" --qps 5000 > /dev/null 2>&1; then
    fail "gcm loadgen accepted the unread flag --qps"
fi
echo "cli_serve: ok ($requests requests)"
