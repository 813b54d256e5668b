#!/bin/sh
# CLI byte check for the two block-layout JSON reports.
#
#   sh cli_reports.sh GCM GOLDEN_DIR WORKDIR
#
# Trains the default model with GCM, runs a three-device `gcm search`
# on it and a default `gcm fleet`, and compares both reports byte for
# byte with GOLDEN_DIR/search_report.json and
# GOLDEN_DIR/fleet_report.json.
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
