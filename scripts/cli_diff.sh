#!/usr/bin/env bash
# Compare the CLI outputs of git revision REF with those of this checkout.
#
#   scripts/cli_diff.sh REF
#
# REF is exported with `git archive` into a temporary directory, and this
# checkout's configs/ and scripts/ replace the export's, so both sides run the
# same inputs.  cli_csvs.sh then runs on both trees, and compare_csvs.py OLD
# NEW compares the results; its exit status is this script's (0: at most
# numeric changes, each file's largest printed).  The temporary directory is
# removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git -C "$root" archive "$1" | tar -x -C "$tmp/ref"
rm -rf "$tmp/ref/configs" "$tmp/ref/scripts"
cp -R "$root/configs" "$root/scripts" "$tmp/ref/"

"$tmp/ref/scripts/cli_csvs.sh" "$tmp/old"
"$root/scripts/cli_csvs.sh" "$tmp/new"
status=0
python3 "$root/scripts/compare_csvs.py" "$tmp/old" "$tmp/new" || status=$?
exit "$status"
