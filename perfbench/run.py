"""Benchmark entry point: one workload per invocation, fresh interpreter.

    python3 perfbench/run.py --workload bloat-rv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The process re-executes itself once with ``PYTHONHASHSEED=0``
so every run of a workload hashes identically.  Summary lines (median and
quartiles of every metric over the run's windows, raw seconds, and every
reference reading as a host-regime ratio) come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, and the run's
spans are written as a Chrome trace to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bloat-rv", "avrora-tm-durable", "app-live")
#: A run must end well within 180 s; past this the alarm ends it, no result.
HARD_LIMIT_S = 170


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    options = _parse(argv)
    source = ROOT / "src" / "repro" / "__init__.py"
    manifest = ROOT / "BENCHMARK.json"
    if not source.is_file() or not manifest.is_file():
        print(f"perfbench: no program source at {source.parent}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    signal.alarm(HARD_LIMIT_S)  # default action: the process ends, no result
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads(manifest.read_text())

    if options.workload == "app-live":
        import app as module
    else:
        import dacapo as module
    work_dir = ROOT / ".perfbench-work" / f"{options.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        outcome = module.run(options.workload, options.seed, options.seconds,
                             bool(options.trace), str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = spec["per_layer"] if options.trace else spec["end_to_end"]
    values = per_layer(outcome) if options.trace else end_to_end(outcome)
    report(options, outcome, values)
    if options.trace:
        write_trace(options, outcome["spans"])
    correct = outcome["failed"] == 0 and not outcome.get("check_failures")
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {metric['name']} missing", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


def end_to_end(outcome: dict) -> dict[str, float]:
    values = {
        name: statistics.median(series)
        for name, series in outcome["series"].items()
        if not name.startswith("raw ")
    }
    values.update(outcome["e2e"])
    return values


def per_layer(outcome: dict) -> dict[str, float]:
    from common import percentile

    windows = outcome["windows"]
    traced = [w for w in windows if w.traced]
    untraced = [w for w in windows if not w.traced]
    values: dict[str, float] = {}
    for name in traced[0].layers:
        values[name] = statistics.median(w.layers[name] for w in traced)
    requests = outcome.get("unmonitored_request_s") or [
        w.layers["bench.unmonitored.request_s"] for w in traced
    ]
    values["bench.unmonitored.request_s.p50"] = percentile(requests, 0.50)
    values["bench.unmonitored.request_s.p99"] = percentile(requests, 0.99)
    values.pop("bench.unmonitored.request_s", None)
    values["bench.calibration.ratio"] = statistics.median(outcome["ratios"])
    values["bench.trace_overhead_x"] = (
        statistics.median(w.monitored.calibrated for w in traced)
        / statistics.median(w.monitored.calibrated for w in untraced)
    )
    coverage = [w.top_level / w.wall for w in traced]
    worst = max(coverage, key=lambda c: abs(c - 1.0))
    values["bench.trace.self_coverage"] = worst
    if abs(worst - 1.0) > 0.10:
        outcome.setdefault("check_failures", []).append(
            f"span self times cover {worst:.1%} of a traced window's wall time"
        )
    return values


def write_trace(options: argparse.Namespace, spans: list) -> None:
    """The traced run's spans as a Chrome trace (validated on export)."""
    from repro.obs.trace import spans_to_chrome

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"{options.workload}-seed{options.seed}.trace.json"
    path.write_text(json.dumps(spans_to_chrome(spans)))
    print(f"  trace: {len(spans)} spans written to {path.relative_to(ROOT)}")


def report(options: argparse.Namespace, outcome: dict, values: dict) -> None:
    """Human-readable lines before the result line."""
    from common import summarize

    units = {"events_per_s": "1/s", "requests_per_s": "1/s", "overhead_x": "x",
             "setup_s": "s", "recover_s": "s", "raw monitored_s": "s",
             "raw setup_s": "s"}
    print(f"perfbench {options.workload} seed={options.seed} "
          f"seconds={options.seconds:g} trace={options.trace} "
          f"python={sys.version.split()[0]} cpus={os.cpu_count()} "
          f"windows={len(outcome['windows'])}")
    for note in outcome["notes"]:
        print(f"  {note}")
    print("  per-window distributions (raw seconds are printed, not gated):")
    for name, series in outcome["series"].items():
        print(summarize(name, units.get(name, ""), series))
    ratios = outcome["ratios"]
    print("  bench.calibration.ratio per reference (1.0 = fast regime): "
          + " ".join(f"{r:.2f}" for r in ratios))
    for failure in outcome["failures"] + outcome.get("check_failures", []):
        print(f"  FAILED: {failure}")
    for name, value in sorted(values.items()):
        print(f"  {name} = {value:.6g}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
