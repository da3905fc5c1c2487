"""MESSAGE-PLANE — delivery throughput along the node axis.

Not a figure of the paper; the scaling benchmark for the array-backed
delivery path (:mod:`repro.network.batch`).  It drives the same
full-broadcast exchange through every scheduler over n in
{64, 256, 1024, 4096} and reports rounds/sec per (scheduler, n) pair.
Every row carries ``plane: "batch"``, the name of the one delivery
representation, so its headline key matches the committed baseline.

Running it writes a ``BENCH_message_plane.json`` artifact:

    PYTHONPATH=src python benchmarks/bench_message_plane.py

``--smoke`` runs the single CI cell — lossy delivery at n=1024, d=256 —
whose rounds/sec ``check_baselines.py`` compares against the committed
baseline:

    PYTHONPATH=src python benchmarks/bench_message_plane.py --smoke

or through pytest:

    pytest benchmarks/bench_message_plane.py -s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

try:
    from _harness import build_info, print_report
except ImportError:  # pragma: no cover - direct script execution
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from _harness import build_info, print_report

from repro.engine import make_scheduler
from repro.network.delivery import EmptyInboxError, full_broadcast_plan

#: Scheduler configurations benchmarked.
SCHEDULER_CASES = [
    {"scheduler": "synchronous", "kwargs": {}},
    {"scheduler": "partial", "kwargs": {"delay": 2}},
    {"scheduler": "lossy", "kwargs": {"drop_rate": 0.1,
                                      "crash_schedule": ((1, 2, 5),)}},
    {"scheduler": "asynchronous", "kwargs": {"wait_timeout": 2.0,
                                             "burstiness": 0.2}},
]

#: (n, rounds) grid of the full run; d is fixed at the CI gate's 256.
SIZE_GRID = [(64, 30), (256, 10), (1024, 3), (4096, 2)]
DIMENSION = 256

#: The partial scheduler's delay draws and the asynchronous scheduler's
#: bitwise-pinned lag transform are per-link scalar work, so their
#: n=4096 cell would dominate the suite's runtime; the n=4096
#: completion gate runs on synchronous + lossy.
SCALAR_RNG_MAX_N = {"partial": 1024, "asynchronous": 1024}

#: CI smoke cell (lossy), compared against the committed baseline.
SMOKE_N, SMOKE_D, SMOKE_ROUNDS = 1024, 256, 3


def _case_label(case: Dict[str, object]) -> str:
    knobs = ",".join(f"{k}={v}" for k, v in sorted(case["kwargs"].items()))
    return case["scheduler"] + (f"({knobs})" if knobs else "")


def measure_case(
    scheduler: str,
    kwargs: Dict[str, object],
    *,
    n: int,
    d: int,
    rounds: int,
    seed: int = 0,
) -> Dict[str, object]:
    """Time ``rounds`` delivery rounds.

    The timed loop is delivery itself: every node broadcasts, the
    scheduler delivers, and every receiver materialises its
    consumption-ready ``(m, d)`` matrix with one vectorized gather.  No
    aggregation runs inside the loop (that cost is delivery-independent
    and would only dilute the measurement).
    """
    engine = make_scheduler(scheduler, n, seed=seed, keep_history=False, **kwargs)
    engine.require_quorum(1, policy="starve")
    if scheduler == "asynchronous":
        # Event-driven delivery needs an explicit wait condition; a 2/3
        # target keeps every node waiting on real arrivals.
        engine.wait_for(count=max(1, (2 * n) // 3))
    rng = np.random.default_rng(seed)
    plans = [full_broadcast_plan(i, rng.normal(size=d)) for i in range(n)]

    delivered_rows = 0
    start = time.perf_counter()
    for round_index in range(rounds):
        result = engine.submit(plans, round_index)
        for node in range(n):
            try:
                matrix = result.received_matrix(node)
            except EmptyInboxError:
                continue  # crashed / starved receiver this round
            delivered_rows += matrix.shape[0]
    seconds = time.perf_counter() - start

    assert delivered_rows > 0, "no node materialised any delivery"
    return {
        "scheduler": scheduler,
        "kwargs": {k: list(map(list, v)) if k == "crash_schedule" else v
                   for k, v in kwargs.items()},
        "label": _case_label({"scheduler": scheduler, "kwargs": kwargs}),
        "plane": "batch",
        "n": n,
        "d": d,
        "rounds": rounds,
        "seconds": seconds,
        "rounds_per_sec": rounds / seconds if seconds > 0 else float("inf"),
        "stats": engine.stats_snapshot(),
    }


def run_trajectory(smoke: bool = False) -> Dict[str, object]:
    """Measure every scheduler over the node-axis grid."""
    # Warm up BLAS / allocator before timing anything.
    measure_case("synchronous", {}, n=4, d=8, rounds=10)
    rows: List[Dict[str, object]] = []
    skipped: List[str] = []
    if smoke:
        case = SCHEDULER_CASES[2]  # lossy: the CI cell's configuration
        rows.append(
            measure_case(
                case["scheduler"], dict(case["kwargs"]),
                n=SMOKE_N, d=SMOKE_D, rounds=SMOKE_ROUNDS,
            )
        )
    else:
        for n, rounds in SIZE_GRID:
            for case in SCHEDULER_CASES:
                scheduler = case["scheduler"]
                cap = SCALAR_RNG_MAX_N.get(scheduler)
                if cap is not None and n > cap:
                    skipped.append(
                        f"{_case_label(case)} capped at n={cap} "
                        f"(per-link scalar RNG work; n={n} skipped)"
                    )
                    continue
                rows.append(
                    measure_case(
                        scheduler, dict(case["kwargs"]),
                        n=n, d=DIMENSION, rounds=rounds,
                    )
                )
    return {
        "benchmark": "message_plane",
        "created_unix": time.time(),
        "build": build_info(),
        "smoke": smoke,
        "skipped": skipped,
        "cases": rows,
    }


def render_report(payload: Dict[str, object]) -> str:
    lines = [
        f"{'scheduler':<44} {'n':>5} {'rounds':>6} "
        f"{'rounds/s':>9} {'delivered':>10}"
    ]
    for row in payload["cases"]:
        lines.append(
            f"{row['label']:<44} {row['n']:>5} {row['rounds']:>6} "
            f"{row['rounds_per_sec']:>9.2f} "
            f"{row['stats']['delivered']:>10}"
        )
    for note in payload.get("skipped", []):
        lines.append(f"  [capped] {note}")
    return "\n".join(lines)


def check_sanity(payload: Dict[str, object]) -> None:
    """Progress, message accounting, and n=4096 coverage."""
    for row in payload["cases"]:
        assert row["rounds_per_sec"] > 0, f"{row['label']} made no progress"
        stats = row["stats"]
        assert stats["delivered"] > 0, f"{row['label']} delivered nothing"
        accounted = stats["delivered"] + stats["dropped"] + stats["crash_omitted"]
        assert accounted <= stats["sent"], (
            f"{row['label']} counters do not add up: {stats}"
        )
    if not payload["smoke"]:
        # An honest-node round at n=4096 must complete and be recorded
        # in the artifact.
        assert any(
            row["n"] == 4096 for row in payload["cases"]
        ), "full run must include an n=4096 case"


def write_artifact(payload: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_message_plane_throughput():
    """Pytest entry: smoke-sized cell + sanity checks + JSON artifact."""
    payload = run_trajectory(smoke=True)
    print_report(
        "MESSAGE-PLANE", "delivery throughput, rounds/sec", render_report(payload)
    )
    write_artifact(payload, "BENCH_message_plane.json")
    check_sanity(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI cell only: lossy delivery at n=1024, d=256",
    )
    parser.add_argument(
        "--output",
        default="BENCH_message_plane.json",
        help="path of the JSON trajectory artifact",
    )
    args = parser.parse_args(argv)
    payload = run_trajectory(smoke=args.smoke)
    print_report(
        "MESSAGE-PLANE", "delivery throughput, rounds/sec", render_report(payload)
    )
    write_artifact(payload, args.output)
    print(f"wrote {args.output}")
    check_sanity(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
