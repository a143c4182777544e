"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/summary.py --seed 1 --seconds 20 [--trace 1]

Untraced, this prints the end-to-end metrics of all four workloads plus
each workload's error rate and op sample count; traced, the per-layer
metrics and the tracing overhead.  Each workload runs in its own process
(perfbench/run.py), one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, stdin=subprocess.DEVNULL)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed (exit {done.returncode})\n{done.stderr}")
            status = 1
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        print(f"{workload}: correct={str(result['correct']).lower()} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"samples={info['op_samples']}")
        rows = dict(result["metrics"])
        rows["error_rate"] = info["error_rate"]
        for name, metric in rows.items():
            print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
        for problem in info["problems"]:
            print(f"  problem: {problem}")
    return status


if __name__ == "__main__":
    sys.exit(main())
