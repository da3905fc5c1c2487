"""RNG-MODES — scalar vs vectorized stochastic-delay draws, rounds/sec.

Not a figure of the paper; the scaling benchmark for the opt-in
``rng_mode="vectorized"`` fast path of the two stochastic-delay
schedulers (:mod:`repro.engine.partial`, :mod:`repro.engine.asynchronous`).
Both modes run the same delivery path, so the measured gap is purely
the draw strategy: the scalar per-link RNG loop (the bitwise-pinned
reference) against one Bernoulli vector plus one lag vector per round
(partial) or the whole-round numpy Pareto transform (asynchronous).

The scalar partial loop is O(n^2) Python-level RNG calls per round
(~54 s/round at n=4096 on the reference container), so its n=4096 cell
is measured with a single round; the vectorized cells use the full
round counts.

Running it writes a ``BENCH_rng_modes.json`` artifact:

    PYTHONPATH=src python benchmarks/bench_rng_modes.py

``--smoke`` runs the single CI gate — the partial scheduler at n=1024,
d=256 in both modes — and asserts the vectorized mode is at least 3x
faster:

    PYTHONPATH=src python benchmarks/bench_rng_modes.py --smoke

or through pytest:

    pytest benchmarks/bench_rng_modes.py -s
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

from repro.engine import RNG_MODES, make_scheduler
from repro.network.delivery import EmptyInboxError, full_broadcast_plan

#: The two stochastic-delay schedulers the rng_mode axis applies to.
SCHEDULER_CASES = [
    {"scheduler": "partial", "kwargs": {"delay": 2}},
    {"scheduler": "asynchronous", "kwargs": {"wait_timeout": 2.0,
                                             "burstiness": 0.2}},
]

#: (n, rounds) grid of the full run; d is fixed at the CI gate's 256.
SIZE_GRID = [(256, 10), (1024, 3), (4096, 2)]
DIMENSION = 256

#: Scalar-mode rounds are capped here per n: the per-link Python RNG
#: loop makes the n=4096 scalar cells minutes-long at full round counts.
SCALAR_ROUNDS_CAP = {4096: 1}

#: CI smoke gate: vectorized must beat scalar by at least this factor on
#: the partial scheduler here (async keeps its lexsort-dominated
#: delivery machinery, so only partial carries a hard multiple).
SMOKE_N, SMOKE_D, SMOKE_ROUNDS, SMOKE_MIN_SPEEDUP = 1024, 256, 3, 3.0


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
    rng_mode: str,
    seed: int = 0,
) -> Dict[str, object]:
    """Time ``rounds`` delivery rounds in one rng_mode.

    The timed loop is the stochastic delivery machinery itself: every
    node broadcasts, the scheduler draws its per-link delays and
    delivers, and every receiver materialises its consumption-ready
    ``(m, d)`` matrix.  No aggregation runs inside the loop (that cost
    is mode-independent and would only dilute the comparison).
    """
    engine = make_scheduler(
        scheduler, n, seed=seed, keep_history=False, rng_mode=rng_mode, **kwargs,
    )
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
                continue  # starved receiver this round
            delivered_rows += matrix.shape[0]
    seconds = time.perf_counter() - start

    assert delivered_rows > 0, "no node materialised any delivery"
    return {
        "scheduler": scheduler,
        "kwargs": dict(kwargs),
        "label": _case_label({"scheduler": scheduler, "kwargs": kwargs}),
        "rng_mode": rng_mode,
        "n": n,
        "d": d,
        "rounds": rounds,
        "seconds": seconds,
        "rounds_per_sec": rounds / seconds if seconds > 0 else float("inf"),
        "stats": engine.stats_snapshot(),
    }


def attach_speedups(rows: List[Dict[str, object]]) -> None:
    """Annotate every vectorized row with its speedup over paired scalar."""
    scalar_times = {
        (row["label"], row["n"]): row["seconds"] / row["rounds"]
        for row in rows
        if row["rng_mode"] == "scalar"
    }
    for row in rows:
        if row["rng_mode"] != "vectorized":
            continue
        base = scalar_times.get((row["label"], row["n"]))
        if base is not None and row["seconds"] > 0:
            row["speedup_vs_scalar"] = base / (row["seconds"] / row["rounds"])


def run_trajectory(smoke: bool = False) -> Dict[str, object]:
    """Measure both schedulers x both modes over the node-axis grid."""
    # Warm up BLAS / allocator before timing anything.
    measure_case("partial", {"delay": 1}, n=4, d=8, rounds=10,
                 rng_mode="vectorized")
    rows: List[Dict[str, object]] = []
    skipped: List[str] = []
    if smoke:
        case = SCHEDULER_CASES[0]  # partial: the CI gate's configuration
        for mode in RNG_MODES:
            rows.append(
                measure_case(
                    case["scheduler"], dict(case["kwargs"]),
                    n=SMOKE_N, d=SMOKE_D, rounds=SMOKE_ROUNDS, rng_mode=mode,
                )
            )
    else:
        for n, rounds in SIZE_GRID:
            for case in SCHEDULER_CASES:
                for mode in RNG_MODES:
                    case_rounds = rounds
                    if mode == "scalar" and n in SCALAR_ROUNDS_CAP:
                        case_rounds = SCALAR_ROUNDS_CAP[n]
                        skipped.append(
                            f"{_case_label(case)} scalar capped at "
                            f"{case_rounds} round(s) for n={n} (per-link "
                            f"Python RNG loop)"
                        )
                    rows.append(
                        measure_case(
                            case["scheduler"], dict(case["kwargs"]),
                            n=n, d=DIMENSION, rounds=case_rounds,
                            rng_mode=mode,
                        )
                    )
    attach_speedups(rows)
    return {
        "benchmark": "rng_modes",
        "created_unix": time.time(),
        "build": build_info(),
        "smoke": smoke,
        "skipped": skipped,
        "cases": rows,
    }


def render_report(payload: Dict[str, object]) -> str:
    lines = [
        f"{'scheduler':<36} {'rng_mode':>10} {'n':>5} {'rounds':>6} "
        f"{'rounds/s':>9} {'speedup':>8} {'delivered':>10}"
    ]
    for row in payload["cases"]:
        speedup = row.get("speedup_vs_scalar")
        lines.append(
            f"{row['label']:<36} {row['rng_mode']:>10} {row['n']:>5} "
            f"{row['rounds']:>6} {row['rounds_per_sec']:>9.2f} "
            f"{(f'{speedup:.1f}x' if speedup is not None else '-'):>8} "
            f"{row['stats']['delivered']:>10}"
        )
    for note in payload.get("skipped", []):
        lines.append(f"  [capped] {note}")
    return "\n".join(lines)


def check_sanity(payload: Dict[str, object]) -> None:
    """Progress, message accounting, and the coverage the ISSUE pins."""
    for row in payload["cases"]:
        assert row["rounds_per_sec"] > 0, f"{row['label']} made no progress"
        stats = row["stats"]
        assert stats["delivered"] > 0, f"{row['label']} delivered nothing"
        assert stats["dropped"] == 0, (
            f"{row['label']} dropped messages: these models never lose one"
        )
        # The stochastic-delay conservation identity, minus what is
        # still in flight at measurement end.
        assert stats["delivered"] <= stats["sent"], (
            f"{row['label']} counters do not add up: {stats}"
        )
    if not payload["smoke"]:
        # The fast path's point: both schedulers reach n=4096 vectorized
        # and the artifact records scalar-vs-vectorized at every size.
        for case in SCHEDULER_CASES:
            label = _case_label(case)
            for n, _rounds in SIZE_GRID:
                for mode in RNG_MODES:
                    assert any(
                        row["label"] == label and row["n"] == n
                        and row["rng_mode"] == mode
                        for row in payload["cases"]
                    ), f"full run is missing {label} n={n} {mode}"


def check_smoke_gate(payload: Dict[str, object]) -> None:
    """CI gate: vectorized >= 3x scalar at n=1024, d=256, partial."""
    gate_rows = [
        row for row in payload["cases"]
        if row["rng_mode"] == "vectorized" and row["n"] == SMOKE_N
        and row["scheduler"] == "partial" and "speedup_vs_scalar" in row
    ]
    assert gate_rows, "smoke run produced no paired partial vectorized row"
    speedup = gate_rows[0]["speedup_vs_scalar"]
    assert speedup >= SMOKE_MIN_SPEEDUP, (
        f"vectorized mode only {speedup:.2f}x over scalar at n={SMOKE_N}, "
        f"d={SMOKE_D} partial (need >= {SMOKE_MIN_SPEEDUP}x)"
    )


def write_artifact(payload: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_rng_mode_throughput():
    """Pytest entry: smoke-sized gate + sanity checks + JSON artifact."""
    payload = run_trajectory(smoke=True)
    print_report(
        "RNG-MODES",
        "scalar vs vectorized stochastic-delay draws, rounds/sec",
        render_report(payload),
    )
    write_artifact(payload, "BENCH_rng_modes.json")
    check_sanity(payload)
    check_smoke_gate(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate only: partial n=1024 d=256 in both modes, assert >= 3x",
    )
    parser.add_argument(
        "--output",
        default="BENCH_rng_modes.json",
        help="path of the JSON trajectory artifact",
    )
    args = parser.parse_args(argv)
    payload = run_trajectory(smoke=args.smoke)
    print_report(
        "RNG-MODES",
        "scalar vs vectorized stochastic-delay draws, rounds/sec",
        render_report(payload),
    )
    write_artifact(payload, args.output)
    print(f"wrote {args.output}")
    check_sanity(payload)
    if args.smoke:
        check_smoke_gate(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
