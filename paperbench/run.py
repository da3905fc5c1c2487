"""Paper-workload benchmark: one workload per call, one JSON result line.

    python3 paperbench/run.py --workload fig3a-boxgeom --seed 0 --seconds 10 --trace 0

Runs passes over the workload's cells until ``--seconds`` have elapsed,
at least two passes have run and the pooled per-iteration samples reach
``MIN_ITERATION_SAMPLES`` (what a p90 needs).  Every pass starts cold (data cache cleared), times
set-up apart from the run, checks the outputs, and must reproduce the
first pass's output digests bitwise.  After the first pass,
``SETUP_PASSES`` set-up-only passes give ``setup_s`` its samples.

Every time reported is corrected for the host's speed while it was
taken: a fixed reference kernel (``hostspeed.py``) is timed between
cells and in the gaps between a cell's iterations, and the cell's times
are scaled to the speed at which that kernel takes
``hostspeed.NOMINAL_S``.  The uncorrected times are printed on the line
before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints a per-layer report, and ends with the
per-layer metrics.  The last stdout line is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import env

#: Per-iteration samples a run pools before it may stop (p90 needs 100).
MIN_ITERATION_SAMPLES = 100
#: Set-up-only passes per untraced run; ``setup_s`` is their median.
SETUP_PASSES = 15
#: No new pass starts once the run could end after this many seconds.
HARD_LIMIT_S = 150.0

#: Layers whose run-phase self time is a per-layer metric ``<layer>_s``.
RUN_LAYERS = (
    "linalg.weiszfeld", "linalg.subset_gm", "linalg.pairwise", "linalg.hyperbox",
    "linalg.subset_means", "linalg.subset_diameters", "linalg.geomedian",
    "nn.grad", "nn.eval", "nn.step", "aggregation.aggregate", "agreement.update",
    "engine.round", "network.matrix",
)
@dataclass
class PassOutcome:
    """One pass's cells, with each cell's host-speed correction factor.

    ``setup_s``, ``run_s`` and ``iteration_s`` are corrected; the
    ``raw_`` properties are the measured wall times.
    """

    cells: list  # workloads.CellOutcome, in cell order
    traced: bool
    #: Host-speed factor of each cell (``HostClock.factor``).
    factors: List[float]
    layers: Optional[Dict[str, float]] = None
    report: Dict[str, dict] = field(default_factory=dict)

    def _scaled(self):
        return zip(self.cells, self.factors)

    @property
    def setup_s(self) -> float:
        return sum(c.setup_s * k for c, k in self._scaled())

    @property
    def run_s(self) -> float:
        return sum(c.run_s * k for c, k in self._scaled())

    @property
    def iteration_s(self) -> List[float]:
        return [s * k for c, k in self._scaled() for s in c.iteration_s]

    @property
    def raw_setup_s(self) -> float:
        return sum(c.setup_s for c in self.cells)

    @property
    def raw_run_s(self) -> float:
        return sum(c.run_s for c in self.cells)

    @property
    def failed(self) -> bool:
        return any(c.failures for c in self.cells)


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _run_cell(cell, clock, tracer, setup_only=False):
    """Run one cell; an exception fails the cell instead of the run."""
    import workloads

    try:
        return workloads.run_cell(cell, clock, tracer, setup_only)
    except Exception as exc:  # reported as a failed operation
        traceback.print_exc(file=sys.stderr)
        return workloads.CellOutcome(
            cell.label, 0.0, 0.0, [], "error", [f"raised {type(exc).__name__}: {exc}"]
        )


def run_pass(workload: str, seed: int, tracer=None, setup_only: bool = False) -> PassOutcome:
    """One cold pass over every cell of ``workload``.

    Each cell runs on its own host clock, sampled at the cell's start and
    end and in its gaps; the sample that ends one cell starts the next.
    """
    from repro.aggregation.context import cache_stats
    from repro.learning.experiment import clear_data_cache

    import hostspeed
    import workloads

    clear_data_cache()
    cache_before = cache_stats()
    if tracer is not None:
        tracer.clear()
    # The probes' wrappers leave reference cycles behind (engines, models,
    # recorded arrays).  Freeing them before each cell keeps them out of
    # the next cell's peak memory and its cyclic-collector pauses; a
    # set-up-only cell leaves little, so its pass collects once.
    gc.collect()
    cells, clocks = [], []
    boundary = hostspeed.measure()
    for cell in workloads.cells(workload, seed):
        if cells and not setup_only:
            gc.collect()
        clock = hostspeed.HostClock(boundary)
        cells.append(_run_cell(cell, clock, tracer, setup_only))
        clock.sample()
        boundary = clock.samples[-1]
        clocks.append(clock)
    outcome = PassOutcome(
        cells, traced=tracer is not None, factors=[clock.factor() for clock in clocks]
    )
    if tracer is not None:
        outcome.layers, outcome.report = _layer_metrics(
            tracer, outcome, cache_before, cache_stats()
        )
    return outcome


def _ratio(before: Dict[str, int], after: Dict[str, int], hits: str, misses: str) -> float:
    h = after[hits] - before[hits]
    m = after[misses] - before[misses]
    return h / (h + m) if h + m else 0.0


def _layer_metrics(tracer, outcome: PassOutcome, cache_before, cache_after):
    """Per-layer metrics of one traced pass.

    Self times are wall times; like every time the benchmark reports they
    are scaled by the host-speed correction, here the pass's overall one
    (corrected over raw run or set-up time).
    """
    run_self, run_calls, run_counters = (
        tracer.self_s["run"], tracer.calls["run"], tracer.counters["run"]
    )
    run_scale = outcome.run_s / outcome.raw_run_s if outcome.raw_run_s else 1.0
    setup_scale = outcome.setup_s / outcome.raw_setup_s if outcome.raw_setup_s else 1.0
    metrics: Dict[str, float] = {
        f"{layer}_s": run_self.get(layer, 0.0) * run_scale for layer in RUN_LAYERS
    }
    metrics["data.build_s"] = tracer.self_s["setup"].get("data.build", 0.0) * setup_scale
    metrics.update({
        "linalg.weiszfeld.sets": run_counters.get("linalg.weiszfeld.sets", 0.0),
        "linalg.weiszfeld.iterations": run_counters.get("linalg.weiszfeld.iterations", 0.0),
        "linalg.weiszfeld.nonconverged": run_counters.get("linalg.weiszfeld.nonconverged", 0.0),
        "nn.grad.calls": float(run_calls.get("nn.grad", 0)),
        "agreement.update.calls": float(run_calls.get("agreement.update", 0)),
        "engine.rounds": float(run_calls.get("engine.round", 0)),
        "engine.starved": run_counters.get("engine.starved", 0.0),
        "engine.delivered_ratio": tracer.delivered_ratio(),
        "network.matrix.rows": run_counters.get("network.matrix.rows", 0.0),
        "aggregation.context.hit_ratio": _ratio(cache_before, cache_after, "hits", "misses"),
        "aggregation.subset_cache.hit_ratio": _ratio(
            cache_before, cache_after, "subset_hits", "subset_misses"
        ),
        "other_s": outcome.run_s - sum(run_self.values()) * run_scale,
    })
    report = {
        phase: {
            layer: {
                "self_s": tracer.self_s[phase][layer],
                "calls": tracer.calls[phase].get(layer, 0),
            }
            for layer in sorted(set(tracer.self_s[phase]) | set(tracer.calls[phase]))
        }
        for phase in ("setup", "run")
    }
    report["counters"] = {k: v for k, v in sorted(run_counters.items())}
    return metrics, report


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Tuple[List[PassOutcome], List[PassOutcome]]:
    """Passes until the time budget and the sample floor are both met.

    With ``trace`` the passes alternate untraced and traced, starting
    untraced; the first pass's digests are the reference either way.
    Returns the passes and, for an untraced run, the ``SETUP_PASSES``
    set-up-only passes taken after the first pass (when lazy imports and
    first-call costs are paid).
    """
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
    passes: List[PassOutcome] = []
    setup_passes: List[PassOutcome] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        if traced:
            with tracer.installed():
                passes.append(run_pass(workload, seed, tracer))
        else:
            passes.append(run_pass(workload, seed))
            if not trace and not setup_passes:
                setup_passes = [run_pass(workload, seed, setup_only=True)
                                for _ in range(SETUP_PASSES)]
        now = time.perf_counter()
        elapsed, last = now - start, now - pass_start
        # Two passes at least, so that the determinism check has a pass
        # to compare with the first.
        enough = len(passes) >= 2 and (
            trace or sum(len(p.iteration_s) for p in passes) >= MIN_ITERATION_SAMPLES
        )
        # A failed check already decides the verdict; stop measuring (a
        # traced run still takes its traced pass, for the report).
        failed = passes[-1].failed and (not trace or len(passes) >= 2)
        if (elapsed >= seconds and enough) or failed or elapsed + last > HARD_LIMIT_S:
            return passes, setup_passes


def verdict(passes: List[PassOutcome],
            setup_passes: Sequence[PassOutcome] = ()) -> Dict[str, object]:
    """``correct``/``attempted``/``failed`` over every cell run of every pass.

    A cell run fails when one of its checks failed or its digest differs
    from the same cell's digest in the first pass; a set-up-only cell run
    fails when its set-up raised.
    """
    reference = [c.digest for c in passes[0].cells]
    attempted = failed = 0
    problems: List[str] = []
    for index, outcome in enumerate(passes):
        for cell, expected in zip(outcome.cells, reference):
            attempted += 1
            issues = list(cell.failures)
            if cell.digest != expected:
                issues.append("output differs from pass 0")
            failed += bool(issues)
            problems += [f"pass {index}: {cell.label}: {issue}" for issue in issues]
    for index, outcome in enumerate(setup_passes):
        for cell in outcome.cells:
            attempted += 1
            failed += bool(cell.failures)
            problems += [f"set-up pass {index}: {cell.label}: {issue}" for issue in cell.failures]
    return {"correct": not problems, "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end_metrics(passes: List[PassOutcome],
                       setup_passes: Sequence[PassOutcome] = ()) -> Dict[str, Dict[str, object]]:
    """Corrected times of the untraced passes; ``setup_s`` comes from the
    set-up-only passes when there are any."""
    import resource

    import numpy as np

    untraced = [p for p in passes if not p.traced]
    # A run stopped by a failed cell may hold no samples; its verdict is
    # already false, and 0 stands in for the missing percentiles.
    iterations_ms = np.asarray([s for p in untraced for s in p.iteration_s] or [0.0]) * 1e3
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": {"value": _median([p.run_s for p in untraced]), "unit": "s"},
        "iter_ms_p50": {"value": float(np.percentile(iterations_ms, 50)), "unit": "ms"},
        "iter_ms_p90": {"value": float(np.percentile(iterations_ms, 90)), "unit": "ms"},
        "setup_s": {"value": _median([p.setup_s for p in setup_passes or untraced]), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


UNITS = {"_s": "s", ".calls": "count", ".rounds": "count", ".rows": "count",
         ".sets": "count", ".iterations": "count", ".nonconverged": "count",
         ".starved": "count", "_ratio": "ratio"}


def _unit(name: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


def per_layer_metrics(passes: List[PassOutcome]) -> Dict[str, Dict[str, object]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    names = sorted(traced[0].layers)
    metrics = {
        name: {"value": _median([p.layers[name] for p in traced]), "unit": _unit(name)}
        for name in names
    }
    overhead = _median([p.run_s for p in traced]) - _median([p.run_s for p in untraced])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def print_trace_report(passes: List[PassOutcome]) -> None:
    """Per-layer self time, share of traced run_s, calls and counters.

    The report shows uncorrected wall times, self times and totals alike;
    the closing overhead line compares corrected times.
    """
    traced = [p for p in passes if p.traced]
    run_s = _median([p.raw_run_s for p in traced])
    setup_s = _median([p.raw_setup_s for p in traced])
    for phase, total in (("run", run_s), ("setup", setup_s)):
        layers = sorted({layer for p in traced for layer in p.report[phase]})
        rows = []
        for layer in layers:
            self_s = _median([p.report[phase].get(layer, {}).get("self_s", 0.0) for p in traced])
            calls = _median([p.report[phase].get(layer, {}).get("calls", 0) for p in traced])
            rows.append((self_s, layer, calls))
        rows.sort(reverse=True)
        attributed = sum(r[0] for r in rows)
        print(f"\n{phase} layers (uncorrected: traced {phase}_s median {total:.4f} s "
              f"over {len(traced)} pass(es))")
        print(f"  {'layer':<26s} {'self_s':>10s} {'share':>7s} {'calls':>10s}")
        for self_s, layer, calls in rows:
            share = self_s / total if total else 0.0
            print(f"  {layer:<26s} {self_s:10.4f} {share:7.1%} {calls:10.0f}")
        rest = total - attributed
        print(f"  {'(other)':<26s} {rest:10.4f} {rest / total if total else 0.0:7.1%}")
    print("\nrun counters (median per pass)")
    for name in sorted({k for p in traced for k in p.report["counters"]}):
        print(f"  {name:<32s} {_median([p.report['counters'].get(name, 0.0) for p in traced]):14.1f}")
    for name in ("engine.delivered_ratio", "aggregation.context.hit_ratio",
                 "aggregation.subset_cache.hit_ratio"):
        print(f"  {name:<32s} {_median([p.layers[name] for p in traced]):14.4f}")
    untraced_run = _median([p.run_s for p in passes if not p.traced])
    traced_run = _median([p.run_s for p in traced])
    print(f"\ncorrected run_s: untraced {untraced_run:.4f} s, traced {traced_run:.4f} s, "
          f"trace overhead {traced_run - untraced_run:+.4f} s\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.select_program()
        env.pin_threads()
    except env.MissingProgram as exc:
        print(f"paperbench: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    passes, setup_passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = verdict(passes, setup_passes)
    for problem in result.pop("problems")[:20]:
        print(f"CHECK FAILED {problem}")
    if args.trace:
        print_trace_report(passes)
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes, setup_passes)
    samples = sum(len(p.iteration_s) for p in passes if not p.traced)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "iteration_samples": samples,
        "pass_run_s": [round(p.run_s, 4) for p in passes],
        "raw_pass_run_s": [round(p.raw_run_s, 4) for p in passes],
        "raw_pass_setup_s": [round(p.raw_setup_s, 4) for p in passes + setup_passes],
        "host_factor_range": [round(min(k for p in passes for k in p.factors), 3),
                              round(max(k for p in passes for k in p.factors), 3)],
        "fingerprint": env.fingerprint(),
    }))
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
