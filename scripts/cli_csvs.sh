#!/usr/bin/env bash
# Run every CLI command on every configs/*.json of this checkout.
#
#   scripts/cli_csvs.sh OUTDIR
#
# Each run writes OUTDIR/<config>/<command>/: the command's CSVs, its standard
# output (stdout.txt) and its exit status (exit_code).  Commands run inside
# that directory with `--out .`, so no path of the checkout or of OUTDIR lands
# in the files, and `diff -r` of the trees of two checkouts shows every byte
# the change moved.  PATCHCOMP_* variables are cleared so that none overrides
# a config.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
unset "${!PATCHCOMP_@}"

for config in "$root"/configs/*.json; do
    name=$(basename "$config" .json)
    for command in steady eigen fitness simulate pip classify sweep validate; do
        dir="$out/$name/$command"
        mkdir -p "$dir"
        status=0
        (cd "$dir" && PYTHONPATH="$root/src" python3 -c \
            'from patchcomp.cli import main; main()' \
            "$command" --config "$config" --out . > stdout.txt) || status=$?
        echo "$status" > "$dir/exit_code"
    done
done
