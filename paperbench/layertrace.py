"""Layer tracer built from outside the program.

The tracer wraps public functions and methods of ``repro.*`` at run
time and restores them afterwards; nothing under ``src/`` knows it
exists.  Every wrapped call opens a span on one stack.  A layer's self
time is the duration of its spans minus the time their child spans
cover, so the self times of all layers plus the unattributed rest add
up to the wall time of the traced region.

Spans and counters are kept per *phase* (``setup`` or ``run``), so set-up
work (data synthesis, model init) is reported apart from the timed run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, [(module, attribute path)])``.  An attribute path with a dot
#: names a method on a class; a plain name is a module-level function,
#: patched in every ``repro`` module that imported it by name.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("data.build", (
        ("repro.data.datasets", "make_synthetic_mnist"),
        ("repro.data.datasets", "make_synthetic_cifar10"),
        ("repro.data.datasets", "train_test_split"),
        ("repro.data.partition", "partition_dataset"),
    )),
    ("nn.init", (
        ("repro.nn.architectures", "build_mlp"),
        ("repro.nn.architectures", "build_cifarnet"),
    )),
    ("nn.grad", (("repro.learning.client", "Client.compute_gradient"),)),
    ("nn.eval", (("repro.nn.model", "Sequential.evaluate_accuracy"),)),
    ("nn.step", (("repro.nn.optimizers", "SGD.step"),)),
    ("aggregation.aggregate", (("repro.aggregation.base", "AggregationRule.aggregate"),)),
    ("agreement.update", (
        ("repro.agreement.base", "AggregationAgreement.update"),
        ("repro.agreement.safe_area", "SafeAreaAgreement.update"),
    )),
    ("engine.round", (
        ("repro.engine.base", "RoundEngine.run_round"),
        ("repro.engine.base", "RoundEngine.submit"),
    )),
    ("network.matrix", (
        ("repro.network.delivery", "RoundResult.received_matrix"),
        ("repro.network.batch", "BatchInbox.matrix"),
    )),
    ("linalg.pairwise", (
        ("repro.linalg.distances", "pairwise_sq_distances"),
        ("repro.linalg.distances", "pairwise_distances"),
        ("repro.linalg.distances", "diameter"),
    )),
    ("linalg.hyperbox", (
        ("repro.linalg.hyperbox", "trimmed_hyperbox"),
        ("repro.linalg.hyperbox", "bounding_hyperbox"),
        ("repro.linalg.hyperbox", "intersect_all"),
        ("repro.linalg.hyperbox", "Hyperbox.intersect"),
        ("repro.linalg.hyperbox", "Hyperbox.midpoint"),
    )),
    ("linalg.subset_means", (("repro.linalg.subset_kernels", "subset_means"),)),
    ("linalg.subset_diameters", (("repro.linalg.subset_kernels", "subset_diameters"),)),
    ("linalg.subset_gm", (("repro.linalg.subset_kernels", "subset_geometric_medians"),)),
    ("linalg.weiszfeld", (("repro.linalg.geometric_median", "batched_geometric_median"),)),
    ("linalg.geomedian", (("repro.linalg.geometric_median", "geometric_median"),)),
)

#: A rule's ``aggregate`` called from an agreement update is part of that
#: update (the per-node sub-round step), not a server-side aggregation.
ABSORBED_BY = {"aggregation.aggregate": frozenset({"agreement.update"})}

#: Spans in the "check" phase (output checks after a run) are discarded.
PHASES = ("setup", "run", "check")


class Tracer:
    """Span stack plus per-phase self times, calls and counters."""

    def __init__(self) -> None:
        self.phase = "run"
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.engines: Dict[int, object] = {}
        self.clear()

    def clear(self) -> None:
        self.self_s = {p: defaultdict(float) for p in PHASES}
        self.calls = {p: defaultdict(int) for p in PHASES}
        self.counters = {p: defaultdict(float) for p in PHASES}
        self.engines.clear()

    # -- spans ------------------------------------------------------------
    def _wrap(self, layer: str, original: Callable, observe: Optional[Callable]) -> Callable:
        absorbed_by = ABSORBED_BY.get(layer, frozenset())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] in absorbed_by:
                return original(*args, **kwargs)
            outermost = not stack or stack[-1][0] != layer
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self.self_s[self.phase][layer] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if outermost:
                self.calls[self.phase][layer] += 1
            if observe is not None:
                observe(self, args, result, outermost)
            return result

        return wrapper

    # -- installation -------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every layer target for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS:
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                observe = OBSERVERS.get((module_name, path))
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(layer, original, observe))
                    continue
                original = getattr(module, path)
                adapter = ADAPTERS.get((module_name, path))
                call = original if adapter is None else adapter(original, self)
                wrapped = self._wrap(layer, call, observe)
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] != "repro" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def delivered_ratio(self) -> float:
        """Delivered over sent across the engines seen this pass.

        Engines that record no counters (the lock-step scheduler) deliver
        everything by definition and count as ratio 1.
        """
        sent = delivered = 0
        for engine in self.engines.values():
            stats = engine.stats_snapshot()
            sent += stats.get("sent", 0)
            delivered += stats.get("delivered", 0)
        return delivered / sent if sent else 1.0


# -- per-target result observers and call adapters ---------------------------
def _count_submit(tracer: Tracer, args, result, _outermost: bool) -> None:
    engine = args[0]
    tracer.engines[id(engine)] = engine
    tracer.counters[tracer.phase]["engine.starved"] += len(result.starved)


def _count_rows(tracer: Tracer, _args, matrix, outermost: bool) -> None:
    if outermost:
        tracer.counters[tracer.phase]["network.matrix.rows"] += len(matrix)


def _weiszfeld_with_counters(original: Callable, tracer: Tracer) -> Callable:
    """Batched Weiszfeld call that always builds its result record.

    The record's per-set iteration counts and convergence flags feed the
    ``linalg.weiszfeld.*`` counters; callers that did not ask for the
    record still get the plain ``(S, d)`` points.  ``return_info`` only
    selects what is returned, so the computed values are unchanged.
    """

    @functools.wraps(original)
    def call(*args, return_info: bool = False, **kwargs):
        info = original(*args, return_info=True, **kwargs)
        counters = tracer.counters[tracer.phase]
        counters["linalg.weiszfeld.sets"] += len(info.iterations)
        counters["linalg.weiszfeld.iterations"] += int(info.iterations.sum())
        counters["linalg.weiszfeld.nonconverged"] += int((~info.converged).sum())
        return info if return_info else info.points

    return call


OBSERVERS = {
    ("repro.engine.base", "RoundEngine.submit"): _count_submit,
    ("repro.network.delivery", "RoundResult.received_matrix"): _count_rows,
    ("repro.network.batch", "BatchInbox.matrix"): _count_rows,
}

ADAPTERS = {
    ("repro.linalg.geometric_median", "batched_geometric_median"): _weiszfeld_with_counters,
}
