"""Agreement algorithm interface and the multi-round protocol runner."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aggregation.base import AggregationRule
from repro.aggregation.context import AggregationContext
from repro.byzantine.base import GradientAttack
from repro.engine.base import RoundEngine
from repro.engine.rounds import attack_adversary_plan, run_exchange
from repro.engine.synchronous import SynchronousScheduler
from repro.linalg.distances import diameter
from repro.utils.rng import as_generator
from repro.utils.validation import ensure_matrix, validate_byzantine_bound


class AgreementAlgorithm(abc.ABC):
    """Per-node, per-sub-round update rule of an agreement algorithm.

    ``update(received)`` maps the ``(m, d)`` matrix of vectors a node
    delivered in the current sub-round to the node's vector for the next
    sub-round.  Implementations must be deterministic given the received
    matrix so that the convergence statements of the paper apply.
    """

    name: str = "agreement"
    #: Resilience divisor: ``t < n / resilience_divisor`` must hold.
    resilience_divisor: int = 3

    def __init__(self, n: int, t: int) -> None:
        validate_byzantine_bound(n, t, resilience_divisor=self.resilience_divisor)
        self.n = int(n)
        self.t = int(t)

    @abc.abstractmethod
    def update(self, received: np.ndarray) -> np.ndarray:
        """New local vector from the ``(m, d)`` received stack."""
        raise NotImplementedError

    def minimum_messages(self) -> int:
        """Quorum each honest node needs per sub-round (``n - t``)."""
        return self.n - self.t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, t={self.t})"


class AggregationAgreement(AgreementAlgorithm):
    """Agreement algorithm whose update rule is a one-shot aggregation rule.

    Every algorithm in the paper has this shape: the sub-round update is
    an application of a robust aggregation rule to the received vectors.
    ``dtype`` selects the kernel precision tier of the per-sub-round
    context (see :mod:`repro.linalg.precision`); the float64 default is
    bitwise-identical to the historical behaviour.
    """

    def __init__(
        self,
        n: int,
        t: int,
        rule: AggregationRule,
        *,
        dtype: "str | None" = None,
    ) -> None:
        from repro.linalg.precision import dtype_name

        super().__init__(n, t)
        self.rule = rule
        self.dtype_name = dtype_name(dtype)
        if rule.n is None:
            rule.n = n
        if rule.t != t:
            rule.t = t
        self.name = getattr(rule, "name", self.name)

    def update(self, received: np.ndarray) -> np.ndarray:
        # The context validates the stack; it also shares the pairwise-
        # distance matrix between every distance-based step of the rule.
        context = AggregationContext(received, dtype=self.dtype_name)
        if context.num_vectors < self.minimum_messages():
            raise ValueError(
                f"received only {context.num_vectors} messages, "
                f"need at least {self.minimum_messages()}"
            )
        return self.rule.aggregate(context=context)


@dataclass
class AgreementResult:
    """Trace of one multi-round agreement execution.

    Attributes
    ----------
    initial:
        Honest nodes' input vectors, keyed by node id.
    per_round:
        ``per_round[r][i]`` is honest node ``i``'s vector *after* sub-round
        ``r`` (i.e. its input for sub-round ``r + 1``).
    honest_ids:
        Sorted honest node ids.
    """

    initial: Dict[int, np.ndarray]
    per_round: List[Dict[int, np.ndarray]] = field(default_factory=list)
    honest_ids: tuple[int, ...] = ()

    @property
    def rounds(self) -> int:
        """Number of executed sub-rounds."""
        return len(self.per_round)

    def final_vectors(self) -> Dict[int, np.ndarray]:
        """Honest vectors after the last sub-round (inputs if no round ran)."""
        return dict(self.per_round[-1]) if self.per_round else dict(self.initial)

    def final_matrix(self) -> np.ndarray:
        """Final honest vectors stacked ``(h, d)`` in node-id order."""
        final = self.final_vectors()
        return np.stack([final[i] for i in sorted(final)], axis=0)

    def honest_matrix(self, round_index: Optional[int] = None) -> np.ndarray:
        """Honest vectors after ``round_index`` (or the inputs for ``None``/-1)."""
        if round_index is None or round_index < 0:
            source = self.initial
        else:
            source = self.per_round[round_index]
        return np.stack([source[i] for i in sorted(source)], axis=0)

    def diameter_trace(self) -> List[float]:
        """Honest-vector diameter after every sub-round (index 0 = inputs)."""
        trace = [diameter(self.honest_matrix(None))]
        for r in range(self.rounds):
            trace.append(diameter(self.honest_matrix(r)))
        return trace

    def converged(self, epsilon: float) -> bool:
        """Whether the final honest vectors are within ``epsilon`` of each other."""
        return self.diameter_trace()[-1] < epsilon


class AgreementProtocol:
    """Runs an agreement algorithm for several synchronous sub-rounds.

    Parameters
    ----------
    algorithm:
        The per-node update rule.
    byzantine:
        Ids of Byzantine nodes (at most ``algorithm.t`` of them).
    attack:
        Attack model driving the Byzantine nodes.  ``None`` means they
        crash (stay silent), the weakest fault the algorithms tolerate.
    seed:
        Seed for the adversary's random generator.
    engine:
        Round engine supplying the timing model.  Defaults to a
        lock-step :class:`~repro.engine.synchronous.SynchronousScheduler`
        (the paper's setting).  Under a lossy or partially synchronous
        engine, nodes starved below the ``n - t`` quorum keep their
        current vector for the round instead of aborting the run.
    """

    def __init__(
        self,
        algorithm: AgreementAlgorithm,
        byzantine: tuple[int, ...] | list[int] = (),
        attack: Optional[GradientAttack] = None,
        *,
        seed: int | None = 0,
        engine: Optional[RoundEngine] = None,
    ) -> None:
        self.algorithm = algorithm
        byz = tuple(sorted(int(b) for b in byzantine))
        if len(byz) > algorithm.t:
            raise ValueError(
                f"{len(byz)} Byzantine nodes configured but the algorithm tolerates t={algorithm.t}"
            )
        if any(b < 0 or b >= algorithm.n for b in byz):
            raise ValueError(f"Byzantine ids out of range: {byz}")
        self.byzantine = byz
        self.attack = attack
        self._rng = as_generator(seed)
        if engine is None:
            engine = SynchronousScheduler(algorithm.n, byz)
        if engine.n != algorithm.n:
            raise ValueError(
                f"engine is configured for n={engine.n} but the algorithm needs n={algorithm.n}"
            )
        if tuple(sorted(engine.byzantine)) != byz:
            raise ValueError(
                f"engine byzantine set {sorted(engine.byzantine)} does not match {byz}"
            )
        self.engine = engine
        # Lock-step delivery cannot legitimately starve a node, so a
        # shortfall is a protocol violation there; under other timing
        # models it is the scheduler's doing and the node just stalls.
        policy = "raise" if isinstance(engine, SynchronousScheduler) else "starve"
        self.engine.require_quorum(algorithm.minimum_messages(), policy=policy)
        # Explicit wait condition for event-driven schedulers: a node
        # processes its sub-round once the n - t quorum has arrived (or
        # its wait window expires).  An explicit count configured on the
        # engine beforehand wins over the quorum reading.
        self.engine.wait_for(quorum=True)

    def run(
        self,
        inputs: Dict[int, np.ndarray] | np.ndarray,
        rounds: int,
    ) -> AgreementResult:
        """Execute ``rounds`` sub-rounds from the given honest inputs.

        ``inputs`` maps *honest* node id to its input vector; a plain
        ``(h, d)`` array is also accepted and assigned to the honest ids
        in order.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        # Each run is a fresh exchange: drop history and any message
        # still in flight from a previous run on a delaying scheduler.
        self.engine.reset()
        honest_ids = self.engine.honest
        current = self._normalise_inputs(inputs, honest_ids)
        result = AgreementResult(
            initial={i: v.copy() for i, v in current.items()},
            honest_ids=honest_ids,
        )
        byz_own = self._byzantine_own_vectors(current)
        adversary_plan = (
            attack_adversary_plan(
                lambda _node: self.attack, byz_own, self._rng,
                horizon=self.engine.horizon, engine=self.engine,
            )
            if self.byzantine
            else None
        )

        run_exchange(
            self.engine,
            current,
            rounds,
            lambda _node, received: self.algorithm.update(received),
            adversary_plan,
            on_round=lambda _r, _res, vectors: result.per_round.append(
                {i: v.copy() for i, v in vectors.items()}
            ),
        )
        return result

    # -- helpers -------------------------------------------------------------
    def _normalise_inputs(
        self, inputs: Dict[int, np.ndarray] | np.ndarray, honest_ids: tuple[int, ...]
    ) -> Dict[int, np.ndarray]:
        if isinstance(inputs, dict):
            missing = [i for i in honest_ids if i not in inputs]
            if missing:
                raise ValueError(f"missing input vectors for honest nodes {missing}")
            return {
                i: np.asarray(inputs[i], dtype=np.float64).reshape(-1).copy()
                for i in honest_ids
            }
        mat = ensure_matrix(inputs, name="inputs")
        if mat.shape[0] != len(honest_ids):
            raise ValueError(
                f"expected {len(honest_ids)} input vectors (one per honest node), got {mat.shape[0]}"
            )
        return {node: mat[k].copy() for k, node in enumerate(honest_ids)}

    def _byzantine_own_vectors(self, current: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Hand each Byzantine node an "honest-looking" starting vector.

        Attacks such as the sign flip corrupt the gradient the Byzantine
        node *would* have computed; in pure agreement experiments that
        role is played by the mean of the honest inputs.
        """
        if not current:
            return {}
        base = np.mean(np.stack(list(current.values()), axis=0), axis=0)
        return {b: base.copy() for b in self.byzantine}
