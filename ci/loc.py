#!/usr/bin/env python3
"""Count non-test Rust code lines per crate.

Usage: loc.py [REPO_ROOT]

For every crate under `crates/*/src`, each `.rs` file is read up to its
first `#[cfg(test)]` line (the unit tests that follow are not counted);
blank lines and lines that start with `//` (comments and doc comments)
are skipped. Prints one `<crate> <lines>` row per crate and a `total`
row. The count is a report, not a gate: simplicity changes quote its
before and after numbers.
"""

import sys
from pathlib import Path


def code_lines(path):
    n = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        s = line.strip()
        if s.startswith("#[cfg(test)]"):
            break
        if s and not s.startswith("//"):
            n += 1
    return n


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    total = 0
    for src in sorted((root / "crates").glob("*/src")):
        n = sum(code_lines(p) for p in sorted(src.rglob("*.rs")))
        total += n
        print(f"{src.parent.name:<12} {n:>6}")
    print(f"{'total':<12} {total:>6}")


if __name__ == "__main__":
    main()
