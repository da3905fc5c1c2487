"""Tests of the benchmark itself: its checks catch faults, a clean program passes.

    python -m pytest paperbench/selftest.py -q

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``); it takes about a minute.  Each fault test injects one
defect into the program for the duration of one pass and requires the
verdict to turn ``correct`` false.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.select_program()
if "numpy" not in sys.modules:
    env.pin_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from repro.aggregation.base import AggregationRule  # noqa: E402
from repro.agreement.base import AggregationAgreement  # noqa: E402
from repro.engine.base import RoundEngine  # noqa: E402
from repro.learning.centralized import CentralizedTrainer  # noqa: E402


def _verdict(*passes):
    return run.verdict(list(passes))


# -- faults turn `correct` false -------------------------------------------------
def test_plain_mean_instead_of_box_geom_is_caught(monkeypatch):
    monkeypatch.setattr(
        AggregationAgreement, "update", lambda self, received: np.asarray(received).mean(axis=0)
    )
    outcome = run.run_pass("fig3a-boxgeom", 0)
    assert all(any("outside the honest-range" in f for f in c.failures) for c in outcome.cells)
    assert _verdict(outcome)["correct"] is False


def test_aggregate_outside_received_range_is_caught(monkeypatch):
    original = AggregationRule.aggregate

    def shifted(self, vectors=None, *, context=None):
        out = original(self, vectors, context=context)
        if self.name == "md-mean":
            out = out.copy()
            out[0] = context.matrix[:, 0].max() + 1.0
        return out

    monkeypatch.setattr(AggregationRule, "aggregate", shifted)
    outcome = run.run_pass("fig1-baselines", 0)
    failures = {c.label: c.failures for c in outcome.cells}
    assert any("received-range" in f for f in failures.pop("md-mean"))
    assert not any(failures.values())
    assert _verdict(outcome)["correct"] is False


def test_rule_call_that_bypasses_the_probe_is_caught(monkeypatch):
    """A trainer that no longer calls ``rule.aggregate`` through the rule
    instance leaves the received-range and input-row checks nothing to
    check; the short count of checked outputs must fail the cell."""
    original = CentralizedTrainer.train

    def train(self, rounds, **kwargs):
        rule = self.aggregation
        self.aggregation = SimpleNamespace(
            name=rule.name, aggregate=partial(type(rule).aggregate, rule)
        )
        return original(self, rounds, **kwargs)

    monkeypatch.setattr(CentralizedTrainer, "train", train)
    outcome = run.run_pass("fig1-baselines", 0)
    failures = {c.label: c.failures for c in outcome.cells}
    for label in ("md-mean", "md-geom", "krum", "multi-krum"):
        assert failures.pop(label) == ["0 rule outputs checked, expected 40"]
    assert failures == {"box-mean": []}
    assert _verdict(outcome)["correct"] is False


def test_delivery_counter_off_by_one_is_caught(monkeypatch):
    original = RoundEngine.stats_snapshot

    def miscounted(self):
        stats = original(self)
        stats["delivered"] = stats.get("delivered", 0) + 1
        return stats

    monkeypatch.setattr(RoundEngine, "stats_snapshot", miscounted)
    outcome = run.run_pass("agreement-stochastic", 0)
    assert all(any("message conservation broken" in f for f in c.failures) for c in outcome.cells)
    assert _verdict(outcome)["correct"] is False


def test_output_that_differs_between_passes_is_caught():
    def outcome(*digests):
        cells = [workloads.CellOutcome(f"cell{i}", 1.0, 1.0, [1.0], d) for i, d in enumerate(digests)]
        return run.PassOutcome(cells, traced=False, factors=[1.0] * len(cells))

    result = _verdict(outcome("a", "b"), outcome("a", "c"))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["problems"] == ["pass 1: cell1: output differs from pass 0"]


# -- a clean program passes ---------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_passes(workload):
    outcome = run.run_pass(workload, 1)
    assert _verdict(outcome) == {"correct": True, "attempted": len(outcome.cells),
                                 "failed": 0, "problems": []}


def test_traced_pass_reproduces_untraced_outputs_and_names_every_metric():
    untraced = run.run_pass("agreement-stochastic", 2)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass("agreement-stochastic", 2, tracer)
    assert [c.digest for c in traced.cells] == [c.digest for c in untraced.cells]
    assert _verdict(untraced, traced)["correct"] is True

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    per_layer = run.per_layer_metrics([untraced, traced])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    for metric in spec["per_layer"]:
        assert per_layer[metric["name"]]["unit"] == metric["unit"]
    end_to_end = run.end_to_end_metrics([untraced])
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    for metric in spec["end_to_end"]:
        assert end_to_end[metric["name"]]["unit"] == metric["unit"]


def test_cell_that_raises_counts_as_failed(monkeypatch):
    def broken(cell, clock, tracer=None, setup_only=False):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "run_cell", broken)
    result = _verdict(run.run_pass("agreement-stochastic", 0))
    cells = len(workloads.cells("agreement-stochastic", 0))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, cells, cells)


def test_setup_that_raises_in_a_setup_only_pass_counts_as_failed(monkeypatch):
    def broken(cell, clock, tracer=None, setup_only=False):
        raise RuntimeError("boom")

    clean = run.run_pass("agreement-stochastic", 0)
    monkeypatch.setattr(workloads, "run_cell", broken)
    setup = run.run_pass("agreement-stochastic", 0, setup_only=True)
    result = run.verdict([clean], [setup])
    cells = len(clean.cells)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2 * cells, cells)


# -- host-speed correction --------------------------------------------------------
def test_setup_only_pass_times_setup_alone():
    outcome = run.run_pass("fig1-baselines", 0, setup_only=True)
    assert all(c.setup_s > 0 and c.run_s == 0 and not c.iteration_s for c in outcome.cells)
    assert not any(c.failures for c in outcome.cells)


def test_times_are_scaled_by_each_cells_factor():
    cells = [workloads.CellOutcome("a", 1.0, 2.0, [0.5, 1.5], "x"),
             workloads.CellOutcome("b", 3.0, 4.0, [4.0], "y")]
    outcome = run.PassOutcome(cells, traced=False, factors=[2.0, 0.5])
    assert (outcome.setup_s, outcome.run_s) == (2.0 + 1.5, 4.0 + 2.0)
    assert outcome.iteration_s == [1.0, 3.0, 2.0]
    assert (outcome.raw_setup_s, outcome.raw_run_s) == (4.0, 6.0)


def test_host_clock_leaves_its_samples_out_of_program_time():
    clock = hostspeed.HostClock(0.01)
    before = clock.now()
    clock.sample()
    clock.gap()  # within INTERVAL_S of the last sample: no new sample
    assert len(clock.samples) == 2
    assert clock.now() - before < clock.samples[1]
    assert clock.factor() == hostspeed.NOMINAL_S * 2 / (0.01 + clock.samples[1])
