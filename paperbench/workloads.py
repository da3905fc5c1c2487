"""The benchmark's workloads, frozen in this file, and their output checks.

Every setting a workload measures is written out here rather than taken
from ``benchmarks/_harness.py``, so later edits there cannot change what
this benchmark measures.  Only the seed varies between runs.

``fig3a-boxgeom``
    Fig 3a's headline cell: decentralized box-geom under sign flip, n=7,
    f=1, MNIST MLP (d = 12,786), lock-step, complete graph, at most 10
    sampled subsets, run at five data seeds per pass.  The batched
    Weiszfeld path dominates it, so a change to the geometric-median
    solver shows here.
``fig1-baselines``
    Fig 1, mild heterogeneity, centralized, rules md-mean, md-geom,
    box-mean, krum and multi-krum (d = 25,818, m = 10 gradients per
    aggregate).  box-geom is left out so that the batched Weiszfeld path
    does not dominate: this workload exercises the NN, the scalar
    geometric median and the distance/hyperbox logic instead.
``agreement-stochastic``
    Approximate agreement with trimmed-mean under sign flip, n=256, t=8,
    d=256: 5 sub-rounds on the partial scheduler (delay 2) and 10 on the
    asynchronous one (bursty delays), each at four seeds per pass.
    Delivery dominates; no NN and no Weiszfeld.

A training cell calls ``run_experiment`` itself.  The trainer's
``train`` is wrapped for the cell's duration: its start splits set-up
from the run, and it attaches instance-level probes to the trainer's
clients, optimizer or rule (``TrainingHistory.append`` marks the end of
a learning iteration).  The probes only keep references while the run
is timed; afterwards the cell checks properties the code guarantees --
hyperbox validity, agreement validity and contraction, message
conservation -- rather than recorded values.

A cell run with ``setup_only`` stops where its run would start; it times
set-up alone, so a run can take more set-up samples than passes.

Cells take their times from a ``hostspeed.HostClock`` and give it the
gaps between learning iterations or agreement sub-rounds to sample the
host's speed in; the samples' time is left out of every timing.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.agreement.base import AgreementProtocol
from repro.agreement.registry import make_algorithm
from repro.byzantine.registry import make_attack
from repro.engine import make_scheduler
from repro.learning.centralized import CentralizedTrainer
from repro.learning.decentralized import DecentralizedTrainer
from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.learning.history import TrainingHistory
from repro.utils.rng import stable_component_seed

from hostspeed import HostClock

WORKLOADS = ("fig3a-boxgeom", "fig1-baselines", "agreement-stochastic")

#: Learning iterations of one training cell.
FIG3A_ITERATIONS = 10
#: The Fig 3a cell runs at this many data seeds per pass.  Weiszfeld work
#: depends on the gradients' geometry (about +-10% between seeds), so
#: averaging seeds keeps a run's time, and the tail of its iteration
#: times, from hinging on one draw.
FIG3A_DATA_SEEDS = 5
FIG1_ITERATIONS = 40
FIG1_RULES = ("md-mean", "md-geom", "box-mean", "krum", "multi-krum")

AGREEMENT_N = 256
AGREEMENT_T = 8
AGREEMENT_D = 256
#: ``(scheduler, sub-rounds, scheduler knobs)``.  An asynchronous
#: sub-round costs about a third of a partial one; running twice as many
#: keeps the two cells' times comparable and puts the pooled p50 inside
#: the asynchronous sub-rounds and the p90 inside the partial ones,
#: instead of on the gap between them.
AGREEMENT_CELLS: Tuple[Tuple[str, int, Tuple[Tuple[str, float], ...]], ...] = (
    ("partial", 5, (("delay", 2),)),
    ("asynchronous", 10, (("wait_timeout", 2.0), ("burstiness", 0.2))),
)
#: Input/delay seeds per pass.  How far pending messages pile up under the
#: bursty asynchronous delays, and with it the cost of its later
#: sub-rounds (the pooled p50), varies between seeds by 10-15%; four
#: seeds of half-length cells average it at the cost of two full ones.
AGREEMENT_SEEDS = 4

#: What each rule's output must satisfy.
#: ``honest-range``: inside the per-coordinate range of the iteration's
#: honest gradients (the hyperbox rules' validity guarantee).
#: ``received-range``: inside the range of the stack the rule received.
#: ``input-row``: equal to one of the received rows (Krum selects one).
CHECKS = {
    "box-geom": "honest-range",
    "box-mean": "honest-range",
    "md-mean": "received-range",
    "md-geom": "received-range",
    "multi-krum": "received-range",
    "krum": "input-row",
}


@dataclass(frozen=True)
class Cell:
    """One cell of a workload: a training config or an agreement run."""

    label: str
    config: Optional[ExperimentConfig] = None
    scheduler: str = ""
    scheduler_kwargs: Tuple[Tuple[str, float], ...] = ()
    rounds: int = 0
    seed: int = 0


def fig3a_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        setting="decentralized",
        dataset="mnist",
        heterogeneity="mild",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=7,
        num_byzantine=1,
        rounds=FIG3A_ITERATIONS,
        num_samples=560,
        batch_size=16,
        learning_rate=0.05,
        mlp_hidden=(16, 8),
        aggregation_kwargs={"max_subsets": 10},
        seed=seed,
    )


def fig1_config(seed: int, rule: str) -> ExperimentConfig:
    return ExperimentConfig(
        setting="centralized",
        dataset="mnist",
        heterogeneity="mild",
        aggregation=rule,
        attack="sign-flip",
        num_clients=10,
        num_byzantine=1,
        rounds=FIG1_ITERATIONS,
        num_samples=800,
        batch_size=16,
        learning_rate=0.05,
        mlp_hidden=(32, 16),
        seed=seed,
    )


def cells(workload: str, seed: int) -> List[Cell]:
    """The cells of one pass over ``workload``, in execution order."""
    if workload == "fig3a-boxgeom":
        return [
            Cell(f"box-geom/{k}", config=fig3a_config(FIG3A_DATA_SEEDS * seed + k))
            for k in range(FIG3A_DATA_SEEDS)
        ]
    if workload == "fig1-baselines":
        return [Cell(rule, config=fig1_config(seed, rule)) for rule in FIG1_RULES]
    if workload == "agreement-stochastic":
        return [
            Cell(f"{name}/{k}", scheduler=name, scheduler_kwargs=kwargs, rounds=rounds,
                 seed=AGREEMENT_SEEDS * seed + k)
            for k in range(AGREEMENT_SEEDS)
            for name, rounds, kwargs in AGREEMENT_CELLS
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


@dataclass
class CellOutcome:
    """Timings, output digest and check failures of one cell run."""

    label: str
    setup_s: float
    run_s: float
    iteration_s: List[float]
    digest: str
    failures: List[str] = field(default_factory=list)


@contextmanager
def _patched(owner, attr: str, value):
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


#: Rounding slack of the range checks, in units in the last place of the
#: bound.  A weighted mean of values in a range can round one ulp past its
#: edge (Weiszfeld iterates next to an input point, means of equal
#: values); a real violation is many orders of magnitude larger.
RANGE_SLACK_ULPS = 4


def _outside(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> int:
    """Coordinates of ``values`` outside ``[lower, upper]`` beyond rounding."""
    slack = RANGE_SLACK_ULPS * np.spacing(np.maximum(np.abs(lower), np.abs(upper)))
    return int(np.count_nonzero((values < lower - slack) | (values > upper + slack)))


# -- training cells ------------------------------------------------------------
class TrainingProbe:
    """Records what a training run produces; checks it after the run.

    While the run is timed the wrappers only keep references (honest
    gradients and SGD steps, or each rule call's received stack and
    output), grouped per learning iteration.  :meth:`failures` does the
    range and row checks afterwards, outside the timed region.
    """

    def __init__(self, check: str, clock: HostClock) -> None:
        self.check = check
        self.clock = clock
        self.stamps: List[float] = []
        #: Per learning iteration: honest gradients and SGD steps for
        #: ``honest-range``, ``(received, output)`` pairs otherwise.
        self.iterations: List[Tuple[list, list]] = []
        self._current: Tuple[list, list] = ([], [])

    def attach(self, trainer) -> None:
        """Route the trainer's honest gradients, steps or rule calls here.

        Each wrapper looks the method up on the class at call time, so a
        tracer installed later still sees the calls.
        """
        if self.check != "honest-range":
            rule = trainer.aggregation

            def aggregate(vectors=None, *, context=None):
                out = type(rule).aggregate(rule, vectors, context=context)
                received = context.matrix if context is not None else vectors
                self._current[1].append((received, out))
                return out

            rule.aggregate = aggregate
            return
        for client in trainer.clients:
            if not client.is_byzantine:
                client.compute_gradient = (
                    lambda params, c=client: self._gradient(type(c).compute_gradient(c, params))
                )
        optimizer = trainer.optimizer

        def step(parameters, gradient, round_index=0):
            self._current[1].append(gradient)
            return type(optimizer).step(optimizer, parameters, gradient, round_index)

        optimizer.step = step

    def _gradient(self, result):
        self._current[0].append(result[1])
        return result

    def end_iteration(self) -> None:
        self.stamps.append(self.clock.now())
        self.iterations.append(self._current)
        self._current = ([], [])

    def failures(self, expected: int) -> List[str]:
        """Check every recorded output; ``expected`` is how many there must be.

        ``expected`` counts SGD steps for ``honest-range`` and rule calls
        otherwise, so a check the run bypassed fails as a short count.
        """
        outside = non_rows = checked = 0
        for honest, outputs in self.iterations:
            checked += len(outputs)
            if self.check == "honest-range":
                stack = np.stack(honest)
                lower, upper = stack.min(axis=0), stack.max(axis=0)
                outside += sum(_outside(np.asarray(step), lower, upper) for step in outputs)
                continue
            for received, out in outputs:
                received = np.asarray(received)
                if self.check == "input-row":
                    non_rows += int(not np.any(np.all(received == out, axis=1)))
                else:
                    outside += _outside(out, received.min(axis=0), received.max(axis=0))
        kind = "SGD steps" if self.check == "honest-range" else "rule outputs"
        failures = []
        if checked != expected:
            failures.append(f"{checked} {kind} checked, expected {expected}")
        if outside:
            failures.append(f"{outside} aggregate coordinates outside the {self.check}")
        if non_rows:
            failures.append(f"{non_rows} krum outputs are not one of the received rows")
        return failures


def history_digest(history: TrainingHistory, final_parameters: List[np.ndarray]) -> str:
    """Bitwise digest of a training run's history and final weights."""
    digest = hashlib.sha256()
    for record in history.records:
        per_client = sorted(record.per_client_accuracy.items())
        digest.update(repr((
            record.round_index, float(record.accuracy).hex(), float(record.loss).hex(),
            None if record.gradient_disagreement is None
            else float(record.gradient_disagreement).hex(),
            [(k, float(v).hex()) for k, v in per_client],
        )).encode())
    digest.update(repr(sorted(history.network_stats.items())).encode())
    for parameters in final_parameters:
        digest.update(np.ascontiguousarray(parameters, dtype=np.float64).tobytes())
    return digest.hexdigest()


class _SetupDone(Exception):
    """Raised where a set-up-only cell's run would start."""


def run_training_cell(cell: Cell, clock: HostClock, tracer=None,
                      setup_only: bool = False) -> CellOutcome:
    """``run_experiment(config)``, timed and observed from its trainer's ``train``.

    Set-up is everything ``run_experiment`` does before ``train`` starts;
    the run is ``train`` itself.
    """
    config = cell.config
    centralized = config.setting == "centralized"
    trainer_class = CentralizedTrainer if centralized else DecentralizedTrainer
    probe = TrainingProbe(CHECKS[config.aggregation], clock)
    seen: Dict[str, object] = {}
    train = vars(trainer_class)["train"]

    def timed_train(trainer, rounds, **kwargs):
        if setup_only:
            seen["begin"] = clock.now()
            raise _SetupDone
        probe.attach(trainer)
        if tracer is not None:
            tracer.phase = "run"
        seen["trainer"] = trainer
        seen["begin"] = clock.now()
        try:
            return train(trainer, rounds, **kwargs)
        finally:
            seen["end"] = clock.now()
            if tracer is not None:
                tracer.phase = "check"

    original_append = TrainingHistory.append

    def append(history, record):
        probe.end_iteration()
        original_append(history, record)
        clock.gap()

    if tracer is not None:
        tracer.phase = "setup"
    with _patched(trainer_class, "train", timed_train), \
            _patched(TrainingHistory, "append", append):
        start = clock.now()
        try:
            history = run_experiment(config)
        except _SetupDone:
            return CellOutcome(cell.label, seen["begin"] - start, 0.0, [], "")

    trainer = seen["trainer"]
    if centralized:
        final = [trainer.global_model.get_flat_parameters()]
        expected = config.rounds  # one SGD step and one rule call per iteration
    else:
        final = [client.local_parameters() for client in trainer.clients]
        expected = config.rounds * (config.num_clients - config.num_byzantine)
    failures = []
    if history.rounds != config.rounds:
        failures.append(f"{history.rounds} history records, expected {config.rounds}")
    failures += probe.failures(expected)
    if not np.all(np.isfinite(history.losses())):
        failures.append("non-finite training loss")
    return CellOutcome(
        label=cell.label,
        setup_s=seen["begin"] - start,
        run_s=seen["end"] - seen["begin"],
        iteration_s=list(np.diff([seen["begin"]] + probe.stamps)),
        digest=history_digest(history, final),
        failures=failures,
    )


# -- agreement cells -------------------------------------------------------------
def _build_agreement(cell: Cell):
    n, t, d = AGREEMENT_N, AGREEMENT_T, AGREEMENT_D
    rng = np.random.default_rng(stable_component_seed(cell.seed, "paperbench", "inputs"))
    inputs = rng.normal(size=(n - t, d))
    byzantine = tuple(range(n - t, n))
    engine = make_scheduler(
        cell.scheduler, n, byzantine,
        seed=stable_component_seed(cell.seed, "scheduler", cell.scheduler),
        keep_history=False, **dict(cell.scheduler_kwargs),
    )
    protocol = AgreementProtocol(
        make_algorithm("trimmed-mean", n, t), byzantine, make_attack("sign-flip"),
        seed=stable_component_seed(cell.seed, "adversary"), engine=engine,
    )
    return inputs, engine, protocol


def _diameter(matrix: np.ndarray) -> float:
    sq = np.einsum("ij,ij->i", matrix, matrix)
    gram = sq[:, None] + sq[None, :] - 2.0 * (matrix @ matrix.T)
    return float(np.sqrt(max(gram.max(), 0.0)))


def run_agreement_cell(cell: Cell, clock: HostClock, tracer=None,
                       setup_only: bool = False) -> CellOutcome:
    if tracer is not None:
        tracer.phase = "setup"
    start = clock.now()
    inputs, engine, protocol = _build_agreement(cell)
    setup_s = clock.now() - start
    if setup_only:
        return CellOutcome(cell.label, setup_s, 0.0, [], "")

    stamps: List[float] = []
    run_round = type(engine).run_round

    def timed_round(*args, **kwargs):
        clock.gap()
        stamps.append(clock.now())
        return run_round(engine, *args, **kwargs)

    engine.run_round = timed_round
    if tracer is not None:
        tracer.phase = "run"
    begin = clock.now()
    result = protocol.run(inputs, cell.rounds)
    end = clock.now()
    if tracer is not None:
        tracer.phase = "check"

    failures = []
    lower, upper = inputs.min(axis=0), inputs.max(axis=0)
    digest = hashlib.sha256()
    outside = 0
    for r in range(result.rounds):
        honest = result.honest_matrix(r)
        outside += _outside(honest, lower, upper)
        digest.update(honest.tobytes())
    if result.rounds != cell.rounds:
        failures.append(f"{result.rounds} sub-rounds recorded, expected {cell.rounds}")
    if outside:
        failures.append(f"{outside} honest coordinates left the range of the honest inputs")
    initial, final = _diameter(inputs), _diameter(result.final_matrix())
    if not final < initial:
        failures.append(f"honest diameter did not shrink: {initial:.4g} -> {final:.4g}")
    stats = engine.stats_snapshot()
    pending = engine.pending_count()
    sent = stats.get("sent", 0)
    accounted = stats.get("delivered", 0) + stats.get("expired_at_reset", 0) + pending
    if sent <= 0 or sent != accounted:
        failures.append(
            f"message conservation broken: sent={sent} != delivered+expired+pending={accounted}"
        )
    digest.update(repr(sorted(stats.items())).encode())
    timestamps = stamps + [end]
    return CellOutcome(
        label=cell.label,
        setup_s=setup_s,
        run_s=end - begin,
        iteration_s=list(np.diff(timestamps)),
        digest=digest.hexdigest(),
        failures=failures,
    )


def run_cell(cell: Cell, clock: HostClock, tracer=None,
             setup_only: bool = False) -> CellOutcome:
    if cell.config is not None:
        return run_training_cell(cell, clock, tracer, setup_only)
    return run_agreement_cell(cell, clock, tracer, setup_only)
