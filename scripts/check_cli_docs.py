#!/usr/bin/env python3
"""Verify that the docs only name flags the CLI accepts.

For every `supernpu <command> ... --flag` in README.md, EXPERIMENTS.md,
docs/*.md and .github/workflows/ci.yml, `supernpu <command> --help`
must list --flag. The commands come from `supernpu --help`, so both
lists come from the CLI's own option and command tables.

Usage: check_cli_docs.py <path to the supernpu binary>

Exit status: 0 when every flag is accepted, 1 otherwise (one line per
miss, `file:line: supernpu <command> does not accept --flag`).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# A command line runs to the end of its code span, a comment or a
# pipe; `\` continuations are joined first.
INVOCATION = re.compile(r"\bsupernpu\s+([a-z]+)([^`#|;\n]*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def help_text(binary: str, *args: str) -> str:
    return subprocess.run([binary, *args, "--help"], check=True,
                          capture_output=True, text=True).stdout


def accepted_flags(binary: str) -> dict[str, set[str]]:
    commands = re.findall(r"^  ([a-z]+)\b", help_text(binary), re.M)
    return {
        command: set(re.findall(r"^  (--[a-z0-9-]+)",
                                help_text(binary, command), re.M))
        for command in commands
    }


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    files.append(REPO_ROOT / ".github" / "workflows" / "ci.yml")
    return [f for f in files if f.exists()]


def logical_lines(path: Path):
    """(first line number, text) with `\\` continuations joined."""
    start, parts = None, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        start = start or number
        if line.rstrip().endswith("\\"):
            parts.append(line.rstrip()[:-1])
            continue
        yield start, " ".join(parts + [line])
        start, parts = None, []
    if parts:
        yield start, " ".join(parts)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    accepted = accepted_flags(sys.argv[1])
    misses = 0
    for path in doc_files():
        for number, text in logical_lines(path):
            for match in INVOCATION.finditer(text):
                command = match.group(1)
                if command not in accepted:
                    continue
                for flag in FLAG.findall(match.group(2)):
                    if flag not in accepted[command]:
                        misses += 1
                        print(f"{path.relative_to(REPO_ROOT)}:{number}: "
                              f"supernpu {command} does not accept {flag}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
