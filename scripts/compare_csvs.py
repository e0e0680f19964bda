#!/usr/bin/env python3
"""Compare two trees written by scripts/cli_csvs.sh, number by number.

    scripts/compare_csvs.py OLD NEW

Every file is read as lines of text with numbers in them.  Outside the
numbers, the two sides must be identical: a verdict, a region, a header or a
file present on one side only is a non-numeric difference.  A number written
as an integer on both sides (an exit code, a sign, a step count, an index) is
compared exactly too; any other number counts as numeric, and the script
prints, for each file, the largest absolute change of its numbers.

Exit status: 0 when the trees differ at most numerically, 1 on any
non-numeric difference (each one is printed), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# a number not glued to a word: "L3" and "lambda1" are text, "t = 652" is not
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
INTEGER = re.compile(r"[-+]?\d+")


def compare_line(old: str, new: str) -> float | None:
    """Largest absolute numeric change on a line, or None if the text differs."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    largest = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if INTEGER.fullmatch(a) and INTEGER.fullmatch(b):
            if int(a) != int(b):
                return None
        else:
            largest = max(largest, abs(float(a) - float(b)))
    return largest


def compare_file(old: Path, new: Path) -> tuple[float, list[str]]:
    """Largest numeric change in a file and its non-numeric differences."""
    old_lines = old.read_text().splitlines()
    new_lines = new.read_text().splitlines()
    if len(old_lines) != len(new_lines):
        return 0.0, [f"{len(old_lines)} lines -> {len(new_lines)} lines"]
    largest, problems = 0.0, []
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        change = compare_line(a, b)
        if change is None:
            problems.append(f"line {number}: {a!r} -> {b!r}")
        else:
            largest = max(largest, change)
    return largest, problems


def files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")

    old_files, new_files = files(args.old), files(args.new)
    failed = False
    for rel in sorted(old_files ^ new_files):
        side = "old" if rel in old_files else "new"
        print(f"DIFF {rel}: only in {side}")
        failed = True
    worst, worst_file = 0.0, None
    for rel in sorted(old_files & new_files):
        largest, problems = compare_file(args.old / rel, args.new / rel)
        print(f"{largest:.3e}  {rel}")
        for problem in problems:
            print(f"DIFF {rel}: {problem}")
        failed = failed or bool(problems)
        if largest > worst:
            worst, worst_file = largest, rel
    print(f"largest numeric change: {worst:.3e}" + (f" ({worst_file})" if worst_file else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
