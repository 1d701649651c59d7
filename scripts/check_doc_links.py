#!/usr/bin/env python3
"""Verify the repository's documentation cross-references.

Two kinds of reference are checked across README.md, EXPERIMENTS.md,
and every Markdown file under docs/:

  1. Relative Markdown links — `[text](path)` where path is not an
     http(s)/mailto URL or a pure #anchor. The target must exist,
     resolved against the referencing file's directory (with a
     repo-root fallback, since docs/ pages link both ways).
  2. Backticked file mentions — `docs/foo.md`, `MODELING.md`,
     `src/perf/profile.hh` and the like. Prose refers to files by
     path constantly; a rename that misses one of these is exactly
     the staleness this script exists to catch.
  3. Program mentions — `bench/fig05_network`, `build/bench/<name>`,
     `examples/quickstart` in backticks, and `./build/bench/<name>` or
     `./build/examples/<name>` command lines anywhere. A binary has no
     extension, so it resolves to the source it is built from:
     bench/<name>.cc or examples/<name>.cpp (or an existing directory
     such as bench/baselines).

Exit status: 0 when every reference resolves, 1 otherwise (one line
per broken reference, `file:line: target`). No dependencies beyond
the standard library; CI runs it as a cheap independent job.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# [text](target "title") — target captured up to ) or whitespace.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)[^)]*\)")
# `some/path.ext` — only path-shaped tokens with an extension we
# track; bare identifiers and code spans stay out of scope.
BACKTICK_REF = re.compile(
    r"`([A-Za-z0-9_./-]+\.(?:md|hh|cc|py|sh|json|yml|net|csv))`"
)
# Extensionless program names: backticked, or a ./build/ command line.
PROGRAM_REF = re.compile(
    r"`(?:\./)?(?:build/)?((?:bench|examples)/[A-Za-z0-9_]+)`"
    r"|(?<![\w/.])\./build/((?:bench|examples)/[A-Za-z0-9_]+)\b"
)
PROGRAM_SOURCE = {"bench": ".cc", "examples": ".cpp"}
# Tokens that look like files but are placeholders or generated
# artifacts, never committed paths.
GENERATED = re.compile(
    r"""
    ^BENCH_ |            # harness output artifacts
    ^Doxyfile$ |
    < | \* |             # placeholder text like BENCH_<suite>.json
    ^[a-z_]+\.json$ |    # run-time ledger outputs (serve-a.json ...)
    ^[a-z_]+\.csv$       # run-time trace/ledger outputs
    """,
    re.VERBOSE,
)


def doc_files() -> list[Path]:
    files = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "EXPERIMENTS.md",
        REPO_ROOT / "DESIGN.md",
    ]
    # Recursive: docs/ pages may grow subdirectories, and a page the
    # glob silently skips is a page whose references silently rot.
    files += sorted((REPO_ROOT / "docs").glob("**/*.md"))
    return [f for f in files if f.exists()]


def resolves(target: str, base: Path) -> bool:
    clean = target.split("#", 1)[0]
    if not clean:  # pure anchor
        return True
    for root in (base.parent, REPO_ROOT, REPO_ROOT / "src"):
        if (root / clean).exists():
            return True
    if "/" not in clean:
        # Bare filename shorthand ("fault_model.hh" inside the
        # reliability page): valid iff it names a real source file.
        return any(REPO_ROOT.glob(f"src/**/{clean}"))
    return False


def program_resolves(target: str) -> bool:
    if (REPO_ROOT / target).exists():
        return True
    kind, name = target.split("/")
    return (REPO_ROOT / kind / (name + PROGRAM_SOURCE[kind])).exists()


def check_file(path: Path) -> list[str]:
    errors = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in MD_LINK.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # absolute URL scheme
            if not resolves(target, path):
                errors.append(f"{path.relative_to(REPO_ROOT)}:"
                              f"{lineno}: broken link ({target})")
        for match in BACKTICK_REF.finditer(line):
            target = match.group(1)
            if GENERATED.search(target):
                continue
            if not resolves(target, path):
                errors.append(f"{path.relative_to(REPO_ROOT)}:"
                              f"{lineno}: stale file reference"
                              f" ({target})")
        for match in PROGRAM_REF.finditer(line):
            target = match.group(1) or match.group(2)
            if not program_resolves(target):
                errors.append(f"{path.relative_to(REPO_ROOT)}:"
                              f"{lineno}: stale program reference"
                              f" ({target})")
    return errors


def main() -> int:
    files = doc_files()
    errors = []
    for path in files:
        errors.extend(check_file(path))
    for error in errors:
        print(error)
    print(f"checked {len(files)} files:"
          f" {len(errors)} broken reference(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
