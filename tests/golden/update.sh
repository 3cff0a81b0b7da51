#!/usr/bin/env bash
# Regenerate every simulator-derived golden with one command: the
# smoke CSVs (tests/golden/<scenario>.csv), the fig9 metric snapshot,
# and the incident corpus (tests/incidents/: traces, labels and
# golden_verdicts.jsonl). Run after an INTENTIONAL model change,
# eyeball the diff, and commit the result; `ctest -L golden`,
# `ctest -L obs` and `ctest -L replay` byte-compare against these
# files.
#
# usage: tests/golden/update.sh [path/to/c4bench [path/to/c4replay]]
# (c4replay defaults to the one next to c4bench)
set -euo pipefail
bench=${1:-build/bench/c4bench}
replay=${2:-$(dirname -- "$bench")/c4replay}
for tool in "$bench" "$replay"; do
    if [ ! -x "$tool" ]; then
        echo "error: no executable at '$tool'" >&2
        echo "build it first (cmake --build build) or pass the paths:" >&2
        echo "  tests/golden/update.sh path/to/c4bench path/to/c4replay" >&2
        exit 1
    fi
done
dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
incidents=$(CDPATH= cd -- "$dir/../incidents" && pwd)
"$bench" --list | while read -r name _; do
    "$bench" "$name" --smoke --trials 1 --csv "$dir/$name.csv" \
        > /dev/null
    echo "updated tests/golden/$name.csv"
done

# The fig9 metric-snapshot golden (ctest -L obs byte-compares the
# trial-0 snapshot against it; test_obs prefix-fuzzes its parser).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$bench" fig9_dualport --smoke --trials 1 --threads 1 \
    --metrics "$tmp" > /dev/null
snapshot=$(find "$tmp" -name '*.jsonl' | sort | head -n 1)
cp "$snapshot" "$dir/fig9_dualport_metrics.jsonl"
echo "updated tests/golden/fig9_dualport_metrics.jsonl"

# The incident corpus: re-simulate every labeled incident, then score
# it. The floors make a corpus that no longer diagnoses perfectly fail
# here rather than in CI, and --write-golden leaves exactly the
# verdicts `ctest -L replay` byte-compares.
"$replay" capture "$incidents" > /dev/null
"$replay" score "$incidents" --min-precision 1 --min-recall 1 \
    --write-golden "$incidents/golden_verdicts.jsonl"
echo "updated tests/incidents/ (traces, labels, golden_verdicts.jsonl)"
