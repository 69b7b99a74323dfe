#!/usr/bin/env python3
"""Print the line total of the C++ sources under src/.

The one line count that simplicity changes report before and after:
every `.cc` and `.hh` file under `src/`, recursively, counted as
`wc -l` counts (newline characters). Build scripts, docs and other
file types are not counted.

Usage: python3 tools/src_lines.py [REPO_ROOT]

REPO_ROOT defaults to the checkout holding this script, so the same
script can count a second checkout (e.g. a parent commit's archive).
"""

import pathlib
import sys

SUFFIXES = (".cc", ".hh")


def src_lines(root: pathlib.Path) -> int:
    src = root / "src"
    if not src.is_dir():
        raise SystemExit(f"src_lines: no src/ directory under {root}")
    return sum(
        path.read_bytes().count(b"\n")
        for path in src.rglob("*")
        if path.is_file() and path.suffix in SUFFIXES
    )


def main() -> int:
    root = (
        pathlib.Path(sys.argv[1])
        if len(sys.argv) > 1
        else pathlib.Path(__file__).resolve().parent.parent
    )
    print(src_lines(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
