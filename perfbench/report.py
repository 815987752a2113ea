"""Print every metric of every workload: end-to-end runs first, then traced runs.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 1] [--seconds 34]

Runs ``run.py`` once per workload with tracing off, then once per
workload with tracing on, one after another, and relays each run's
metric lines (name, value, unit) and notes, including the tracing
overhead and the ranking of tracker-side layers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=34)
    args = ap.parse_args()
    status = 0
    for trace in (0, 1):
        print(f"== {'per-layer metrics (traced)' if trace else 'end-to-end metrics'} ==")
        for name in WORKLOADS:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            doc = json.loads(lines[-1])
            print(f"{name}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']}\n")
            if not doc["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
