#!/usr/bin/env python3
"""Check BENCH_trajectory.json, the committed perf trajectory.

    python3 scripts/check_trajectory.py [path]

The file holds one record per performance change: the commit it
landed as, the parent commit it was measured against, the perfbench
workload and seeds, and the median, q1 and q3 of wall_s, cpu_s and
peak_rss_mb on both sides ("before" is the parent, "after" the
change), plus setup_s where a record claims or reports it. A number
the measurement did not give is null.

Checked: the schema (no missing or unknown keys, numbers where
numbers belong, q1 <= median <= q3 where all three are given; setup_s
may be left out, and gets the same checks where present), that
each workload is one BENCHMARK.json declares, that records are in
increasing PR order, and that every commit exists in the local
repository (`git cat-file -e`; CI checks out the full history). Only
the last record may carry "commit": null — a change measured in the
working tree before it is committed.

Exit status: 0 when the file is well formed, 1 otherwise (one line per
problem). Standard library only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = REPO_ROOT / "BENCH_trajectory.json"

RECORD_KEYS = {"pr", "commit", "parent", "workload", "seeds", "args",
               "pairs", "host", "before", "after", "note"}
METRICS = {"wall_s", "cpu_s", "peak_rss_mb"}
OPTIONAL_METRICS = {"setup_s"}
STATS = ("q1", "median", "q3")
SHA = re.compile(r"^[0-9a-f]{40}$")


def commit_exists(sha: str) -> bool:
    return subprocess.run(
        ["git", "-C", str(REPO_ROOT), "cat-file", "-e", sha + "^{commit}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode == 0


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_side(where: str, side, problems: list[str]) -> None:
    if (not isinstance(side, dict) or not METRICS <= set(side) or
            not set(side) <= METRICS | OPTIONAL_METRICS):
        problems.append(f"{where}: needs the keys {sorted(METRICS)}, and "
                        f"may add {sorted(OPTIONAL_METRICS)}")
        return
    for metric in sorted(side):
        stats = side[metric]
        at = f"{where}.{metric}"
        if not isinstance(stats, dict) or set(stats) != set(STATS):
            problems.append(f"{at}: needs exactly the keys {list(STATS)}")
            continue
        for key in STATS:
            value = stats[key]
            if value is not None and not (is_number(value) and value >= 0):
                problems.append(f"{at}.{key}: not a number >= 0 or null")
        values = [stats[key] for key in STATS]
        if all(is_number(v) for v in values) and values != sorted(values):
            problems.append(f"{at}: q1 <= median <= q3 does not hold")


def check(path: Path) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        return [f"{path}: {err}"]
    workloads = {w["name"] for w in json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]}

    problems: list[str] = []
    if not isinstance(doc, dict) or set(doc) != {"description", "records"}:
        return [f"{path}: needs exactly the keys description, records"]
    records = doc["records"]
    if not isinstance(records, list) or not records:
        return [f"{path}: records must be a non-empty list"]

    last_pr = None
    for i, record in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(record, dict) or set(record) != RECORD_KEYS:
            problems.append(
                f"{where}: needs exactly the keys {sorted(RECORD_KEYS)}")
            continue
        pr = record["pr"]
        if not isinstance(pr, int) or isinstance(pr, bool) or pr < 1:
            problems.append(f"{where}.pr: not a positive integer")
        elif last_pr is not None and pr <= last_pr:
            problems.append(f"{where}.pr: {pr} does not follow {last_pr}")
        else:
            last_pr = pr

        for key in ("commit", "parent"):
            sha = record[key]
            if sha is None and key == "commit" and i == len(records) - 1:
                continue
            if not isinstance(sha, str) or not SHA.match(sha):
                problems.append(f"{where}.{key}: not a 40-hex commit id")
            elif not commit_exists(sha):
                problems.append(f"{where}.{key}: commit {sha} not found")

        if record["workload"] not in workloads:
            problems.append(f"{where}.workload: {record['workload']!r} is "
                            f"not a BENCHMARK.json workload")
        seeds = record["seeds"]
        if (not isinstance(seeds, list) or not seeds or
                not all(isinstance(s, int) and not isinstance(s, bool)
                        for s in seeds)):
            problems.append(f"{where}.seeds: not a non-empty integer list")
        pairs = record["pairs"]
        if not isinstance(pairs, int) or isinstance(pairs, bool) or pairs < 1:
            problems.append(f"{where}.pairs: not a positive integer")
        for key in ("args", "host", "note"):
            if not isinstance(record[key], str):
                problems.append(f"{where}.{key}: not a string")
        check_side(f"{where}.before", record["before"], problems)
        check_side(f"{where}.after", record["after"], problems)
    return problems


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    problems = check(path)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"{path.name}: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
