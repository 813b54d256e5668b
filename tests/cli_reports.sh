#!/bin/sh
# CLI byte check for the two block-layout JSON reports.
#
#   sh cli_reports.sh GCM GOLDEN_DIR WORKDIR
#
# Trains the default model with GCM and checks its SHA-256 against
# GOLDEN_DIR/default_model.sha256, runs a three-device `gcm search` on
# it and a default `gcm fleet`, and compares both reports byte for
# byte with GOLDEN_DIR/search_report.json and
# GOLDEN_DIR/fleet_report.json. A signature size outside
# [1, networks - 1] must be a usage error (exit 1), not an abort.
set -eu

gcm=$1
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
