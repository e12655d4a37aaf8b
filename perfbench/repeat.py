"""Steadiness check: run workloads over several seeds, each in a fresh
interpreter, and print every metric's median, quartiles and spread.

    python3 perfbench/repeat.py --workload app-live --seeds 1-10 [--trace 0]

Spread is ``(q3 - q1) / median`` over the runs, with quartiles as
``statistics.quantiles(n=4)`` gives them; for end-to-end metrics it is
printed next to the metric's bound from ``BENCHMARK.json``.  The host
regime each run saw is summarised by its median ``bench.calibration.ratio``
line.  Exits 1 when a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    options = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = options.seconds or spec["run_seconds"]
    wanted = spec["per_layer"] if options.trace else spec["end_to_end"]
    status = 0
    for workload in options.workload:
        results = []
        for seed in options.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(options.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            regime = next((line for line in lines if "calibration.ratio per" in line), "")
            ratios = [float(r) for r in regime.split(":")[-1].split()]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"regime median {statistics.median(ratios):.2f} "
                  f"max {max(ratios):.2f}", flush=True)
            print("   " + " ".join(f"{name}={metric['value']:.4g}"
                                   for name, metric in result["metrics"].items()),
                  flush=True)
            if not result["correct"] or result["failed"]:
                status = 1
            results.append(result)
        if len(results) < 2:
            continue
        for metric in wanted:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                verdict = f"  bound {bound:.0%} ({'ok' if spread < bound / 3 else 'WIDE'})"
            print(f"  {metric['name']:<32} median {q2:.6g} {metric['unit']:<6} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.1%}{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
