#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, regenerate
# every paper table/figure and ablation, print the pipeline and shard
# sweeps behind EXPERIMENTS.md's beyond-the-paper rows, and check that
# every example runs. Outputs land in test_output.txt and
# bench_output.txt at the repo root (the files EXPERIMENTS.md's
# numbers are checked against); example output is discarded.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

{
    for b in build/bench/*; do
        [ -f "$b" ] && [ -x "$b" ] || continue
        echo "######## $(basename "$b")"
        "$b"
        echo
    done
    for args in "partition resnet50 supernpu --stages 4 --sweep" \
                "shard resnet50 supernpu --chips 8 --sweep"; do
        echo "######## supernpu $args"
        build/tools/supernpu $args
        echo
    done
} 2>&1 | tee bench_output.txt

echo
echo "examples:"
for e in build/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] || continue
    echo "######## $(basename "$e")"
    "$e" > /dev/null && echo "  ok"
done

echo "done: see test_output.txt and bench_output.txt"
