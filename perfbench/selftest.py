#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it checks that
 - an untraced run emits every end-to-end metric of BENCHMARK.json and
   a traced run every per-layer metric, each with its declared unit and
   nothing else;
 - the run is correct: every unit passed its audit and repeated the
   first unit's fingerprint (so fingerprints repeat), with no failures;
 - a run whose second unit's fingerprint is deliberately altered
   (--tamper-fingerprint) counts that unit as failed and reports
   correct = false.
Exits non-zero on the first check that does not hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {out.returncode}:\n"
                 + out.stderr[-4000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        sys.exit("selftest: FAILED: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where + ": result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace],
                   f"{where}: metrics/units differ from BENCHMARK.json:"
                   f" missing {sorted(set(declared[trace]) - set(got))},"
                   f" extra {sorted(set(got) - set(declared[trace]))},"
                   f" units {[(k, got[k], declared[trace][k]) for k in got if k in declared[trace] and got[k] != declared[trace][k]]}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   where + ": non-numeric metric value")
            expect(result["correct"] and result["failed"] == 0,
                   f"{where}: {result['failed']} of {result['attempted']}"
                   " units failed (audit or fingerprint)")
            expect(result["attempted"] >= 3,
                   f"{where}: only {result['attempted']} units; the"
                   " fingerprint repeat was not exercised")
        tampered = run(workload, 0, "--tamper-fingerprint")
        expect(tampered["failed"] >= 1 and not tampered["correct"],
               f"{workload}: a mismatched fingerprint was not counted as"
               " a failure")
        print(f"selftest: {workload} ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
