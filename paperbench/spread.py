"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 paperbench/spread.py --workload fig1-baselines --runs 10

Runs ``run.py`` ``--runs`` times, one seed each (``--first-seed``,
``--first-seed + 1``, ...), one run at a time and by default for
``BENCHMARK.json``'s ``run_seconds``, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles``
with ``n=4``), the quartile spread as a share of the median, and the
max/min ratio.  A bound in ``BENCHMARK.json`` should sit well above the
quartile spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The run length ``BENCHMARK.json`` sets, passed as ``--seconds``.
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "max_over_min": max(values) / min(values) if min(values) else float("nan"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    values: dict = {}
    for k in range(args.runs):
        result = run_once(args.workload, args.first_seed + k, args.seconds)
        if not result["correct"] or result["failed"]:
            print(f"seed {args.first_seed + k}: run reported incorrect output", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.first_seed + k}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<14s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'max/min':>8s}")
    for name, series in values.items():
        s = summarise(series)
        print(f"{name:<14s} {s['median']:11.4f} {s['q1']:11.4f} {s['q3']:11.4f} "
              f"{s['spread']:8.2%} {s['max_over_min']:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
