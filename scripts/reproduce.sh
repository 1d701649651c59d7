#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite (which runs
# every bench program and example through its smoke test), regenerate
# every paper table/figure and ablation, and print the pipeline and
# shard sweeps behind EXPERIMENTS.md's beyond-the-paper rows. Outputs
# land in test_output.txt and bench_output.txt at the repo root (the
# files EXPERIMENTS.md's numbers are checked against).
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G: a build/ tree configured earlier keeps its own generator.
cmake -B build -S .
cmake --build build -j

ctest --test-dir build 2>&1 | tee test_output.txt

# The figure/table/ablation programs this build defines: each has a
# bench_<name> smoke test. A binary left in build/bench/ by an older
# tree has none, so it is not run.
benches=$(ctest --test-dir build -N -R '^bench_' |
          sed -n 's/^ *Test *#[0-9]*: bench_//p')
[ -n "$benches" ] || { echo "no bench_ tests in build/" >&2; exit 1; }

{
    for name in $benches; do
        echo "######## $name"
        "build/bench/$name"
        echo
    done
    for args in "partition resnet50 supernpu --stages 4 --sweep" \
                "shard resnet50 supernpu --chips 8 --sweep"; do
        echo "######## supernpu $args"
        build/tools/supernpu $args
        echo
    done
} 2>&1 | tee bench_output.txt

echo "done: see test_output.txt and bench_output.txt"
