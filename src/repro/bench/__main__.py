"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro.bench fig9a [--scale 0.5] [--workloads bloat,avrora,h2]
    python -m repro.bench fig9b [--tracemalloc]
    python -m repro.bench fig10
    python -m repro.bench all

At scale 1.0 the full grid takes a few minutes; the EXPERIMENTS.md numbers
were produced with the flags recorded there.
"""

from __future__ import annotations

import argparse

from ..properties import ALL_PROPERTIES, EVALUATED_PROPERTIES
from .harness import run_grid
from .report import render_fig9a, render_fig9b, render_fig10
from .workloads import WORKLOAD_ORDER

_DEFAULT_PROPERTIES = tuple(prop.key for prop in EVALUATED_PROPERTIES)


def resolve_property_keys(arg: str) -> list[str]:
    """Resolve the ``--properties`` flag against the registry catalogue.

    Accepts ``all`` (every registered property), ``evaluated`` (the
    Figure 9/10 five), or a comma-separated subset of registry keys —
    unknown keys fail fast with the catalogue instead of a KeyError deep
    inside the harness.  The key list is read straight from
    ``ALL_PROPERTIES`` (``repro.properties.property_registry`` registers
    under exactly these keys) so validating a flag never pays the cost of
    compiling all ten properties.
    """
    known = list(ALL_PROPERTIES)
    if arg == "all":
        return known
    if arg == "evaluated":
        return list(_DEFAULT_PROPERTIES)
    keys = [key for key in arg.split(",") if key]
    unknown = [key for key in keys if key not in known]
    if unknown:
        raise SystemExit(
            f"unknown properties {unknown}; the registry provides: {known} "
            "(or use 'all' / 'evaluated')"
        )
    return keys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("figure", choices=("fig9a", "fig9b", "fig10", "all"))
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (1.0 = calibrated size)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_ORDER),
                        help="comma-separated DaCapo-analog names")
    parser.add_argument("--properties", default="evaluated",
                        help="comma-separated registry keys, or 'all' / "
                        "'evaluated' (resolved via repro.properties."
                        "property_registry)")
    parser.add_argument("--systems", default="tm,mop,rv")
    parser.add_argument("--all-column", action="store_true",
                        help="add the simultaneous-monitoring ALL column (RV)")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    properties = resolve_property_keys(args.properties)
    systems = args.systems.split(",")

    grid = run_grid(
        workloads,
        properties,
        systems,
        scale=args.scale,
        repeats=args.repeats,
        include_all_column=args.all_column,
    )
    if args.figure in ("fig9a", "all"):
        print("\n== Figure 9(A): percent runtime overhead ==")
        print(render_fig9a(grid, workloads, properties, systems,
                           include_all_column=args.all_column))
    if args.figure in ("fig9b", "all"):
        print("\n== Figure 9(B): peak live monitor instances ==")
        print(render_fig9b(grid, workloads, properties, systems))
    if args.figure in ("fig10", "all"):
        print("\n== Figure 10: monitoring statistics (RV) ==")
        print(render_fig10(grid, workloads, properties, system="rv"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
