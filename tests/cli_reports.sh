#!/bin/sh
# CLI byte check for the two block-layout JSON reports.
#
#   sh cli_reports.sh GCM GOLDEN_DIR WORKDIR
#
# Trains the default model with GCM and checks its SHA-256 against
# GOLDEN_DIR/default_model.sha256, at 1 thread and, traced, at 4
# threads, where the fit must also run fewer than 20,000 pool chunks.
# Runs a three-device `gcm search` on it and a default `gcm fleet`,
# and compares both reports byte for byte with
# GOLDEN_DIR/search_report.json and GOLDEN_DIR/fleet_report.json. A
# signature size outside [1, networks - 1] must be a usage error
# (exit 1), not an abort, and an unknown flag must be refused before
# the command writes a model.
set -eu

gcm=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$2
work=$3
mkdir -p "$work"

fail() {
    echo "cli_reports: $*" >&2
    exit 1
}

"$gcm" train --out "$work/m.txt" > /dev/null
digest=$(sha256sum "$work/m.txt" | cut -d' ' -f1)
[ "$digest" = "$(cat "$golden/default_model.sha256")" ] \
    || fail "default model sha256 $digest differs from" \
            "$golden/default_model.sha256"

"$gcm" train --threads 4 --out "$work/m4.txt" \
    --trace-out "$work/train4.json" > /dev/null 2>&1 \
    || fail "gcm train --threads 4 failed"
digest=$(sha256sum "$work/m4.txt" | cut -d' ' -f1)
[ "$digest" = "$(cat "$golden/default_model.sha256")" ] \
    || fail "4-thread model sha256 $digest differs from" \
            "$golden/default_model.sha256"
chunks=$(sed -n 's/.*"pool\.chunks": \([0-9]*\).*/\1/p' "$work/train4.json")
[ -n "$chunks" ] || fail "no pool.chunks in the 4-thread trace"
[ "$chunks" -lt 20000 ] \
    || fail "4-thread fit ran $chunks pool chunks, budget 20000"

# Unknown flags are refused before the command runs: no model appears.
rm -f "$work/gcm_model.txt" "$work/typo.txt"
for bad in "--help" "--sise 5 --out $work/typo.txt"; do
    status=0
    # shellcheck disable=SC2086
    (cd "$work" && "$gcm" train $bad) > /dev/null 2>&1 || status=$?
    [ "$status" -eq 1 ] || fail "gcm train $bad exited $status, not 1"
    [ ! -e "$work/gcm_model.txt" ] && [ ! -e "$work/typo.txt" ] \
        || fail "gcm train $bad wrote a model before refusing the flag"
done

status=0
"$gcm" train --size 0 --out "$work/bad.txt" > /dev/null \
    2> "$work/bad.err" || status=$?
[ "$status" -eq 1 ] || fail "gcm train --size 0 exited $status, not 1"
grep -q "signature size 0" "$work/bad.err" \
    || fail "gcm train --size 0 did not name the size"
"$gcm" search --model "$work/m.txt" \
    --devices Redmi-Note-7,Galaxy-A50,Mi-9 --budget-ms 40 \
    > "$work/search_report.json" 2> /dev/null \
    || fail "gcm search failed"
cmp "$work/search_report.json" "$golden/search_report.json" \
    || fail "search report differs from $golden/search_report.json"

"$gcm" fleet > "$work/fleet_report.json" 2> /dev/null \
    || fail "gcm fleet failed"
cmp "$work/fleet_report.json" "$golden/fleet_report.json" \
    || fail "fleet report differs from $golden/fleet_report.json"
echo "cli_reports: ok"
