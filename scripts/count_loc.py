#!/usr/bin/env python3
"""Count the lines of code of each module under src/ and their total.

A line counts when it is not blank and, with its indentation stripped, does
not start with `#`.  Docstrings and code both count.  One line is printed per
module, then the total, then the total of the test modules under tests/, so
code moved from src/ into the tests shows in both numbers.

Example:
    python scripts/count_loc.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def count_loc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        loc = count_loc(path)
        total += loc
        print(f"{loc:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")
    print(f"{sum(count_loc(path) for path in TESTS.rglob('*.py')):6d}  tests/ total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
