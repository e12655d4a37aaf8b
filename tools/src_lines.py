#!/usr/bin/env python3
"""Per-package and total line counts of the Python sources under ``src/repro``.

Every change is expected to report how it moved the size of ``src/``;
this prints the numbers as a Markdown table (CI appends it to the job
summary, with no gate).  Lines are physical lines (``wc -l``), so blank
lines and comments count.

Usage::

    python tools/src_lines.py [ROOT]

``ROOT`` defaults to the ``src/repro`` directory of this checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path


def count_lines(root: Path) -> dict[str, int]:
    """Lines per top-level package of ``root`` (``(top level)`` for modules
    directly inside it)."""
    counts: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "(top level)"
        with path.open("rb") as handle:
            counts[package] = counts.get(package, 0) + sum(1 for _ in handle)
    return counts


def render(counts: dict[str, int]) -> str:
    """The Markdown table: one row per package, largest first, then the total."""
    rows = ["| package | lines |", "|---|---:|"]
    for package, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        rows.append(f"| `{package}` | {lines} |")
    rows.append(f"| **total** | **{sum(counts.values())}** |")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "repro"
    root = Path(argv[0]) if argv else default
    print("### `src/repro` line count\n")
    print(render(count_lines(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
