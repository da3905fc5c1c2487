"""Decentralized collaborative learning loop.

No central server (Section 2.1, decentralized model): every client keeps
its own model.  Each learning iteration ``t``:

1. every honest client computes a stochastic gradient of its local loss
   at its *own* current parameters,
2. the clients run an approximate-agreement subroutine on the gradients
   for ``max(1, ceil(log2(t + 2)))`` sub-rounds (the ``log t`` schedule
   of El-Mhamdi et al.) over the reliable-broadcast network — Byzantine
   clients attack in every sub-round,
3. each honest client applies *its own* (approximately agreed) aggregate
   to its local model with the decayed SGD step, and
4. every honest client's model is evaluated on the shared test set; the
   mean accuracy is reported.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.agreement.base import AgreementAlgorithm
from repro.byzantine.base import GradientAttack
from repro.data.datasets import Dataset
from repro.engine.base import RoundEngine
from repro.engine.rounds import attack_adversary_plan, run_exchange
from repro.engine.synchronous import SynchronousScheduler
from repro.learning.client import Client
from repro.learning.history import RoundRecord, TrainingHistory
from repro.linalg.distances import diameter
from repro.network.topology import validate_topology
from repro.nn.optimizers import SGD
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator

_logger = get_logger("learning.decentralized")


def default_subround_schedule(iteration: int) -> int:
    """Number of agreement sub-rounds at learning iteration ``iteration``.

    The paper follows El-Mhamdi et al. and uses ``log t`` sub-rounds at
    "big" iteration ``t``; we use ``max(1, ceil(log2(t + 2)))`` so the
    very first iterations still run at least one exchange.
    """
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    return max(1, math.ceil(math.log2(iteration + 2)))


class DecentralizedTrainer:
    """Runs fully decentralized Byzantine-tolerant collaborative learning.

    Parameters
    ----------
    clients:
        All clients, indexed by ``client_id`` 0..n-1 (ids must be dense
        because they double as network node ids).
    agreement:
        The approximate-agreement algorithm applied to the gradients.
    test_data:
        Shared test set used to evaluate every honest client's model.
    subround_schedule:
        Callable mapping the learning iteration to the number of
        agreement sub-rounds (defaults to the ``log t`` schedule).
    engine:
        Round engine supplying the timing model of the gradient
        exchange.  Defaults to a lock-step scheduler without history
        retention (thousands of sub-rounds would otherwise pin every
        inbox in memory).  Under lossy / partially synchronous engines a
        client starved below quorum keeps its current gradient estimate
        for that sub-round.
    exchange:
        ``"agreement"`` (default) runs the paper's approximate-agreement
        sub-rounds, which require every node to be able to receive the
        ``n - t`` quorum — on a sparse engine topology that quorum
        feasibility is validated up front.  ``"gossip"`` replaces the
        update rule with neighbourhood averaging: each sub-round a node
        takes the plain mean of whatever arrived (its closed
        neighbourhood under the topology — i.e. the degree-weighted
        gossip step), so any *connected* topology works.  Gossip offers
        no Byzantine robustness guarantee; it is the classical baseline
        the agreement rules are compared against.
    """

    #: Exchange modes accepted by the trainer (and the ``exchange``
    #: config field / sweep axis).
    EXCHANGE_MODES = ("agreement", "gossip")

    def __init__(
        self,
        clients: Sequence[Client],
        agreement: AgreementAlgorithm,
        test_data: Dataset,
        *,
        optimizer: Optional[SGD] = None,
        learning_rate: float = 0.01,
        subround_schedule=default_subround_schedule,
        flatten_inputs: bool = True,
        seed=0,
        engine: Optional[RoundEngine] = None,
        exchange: str = "agreement",
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        ids = sorted(c.client_id for c in clients)
        if ids != list(range(len(clients))):
            raise ValueError("client ids must be exactly 0..n-1")
        if agreement.n != len(clients):
            raise ValueError(
                f"agreement algorithm configured for n={agreement.n} but {len(clients)} clients given"
            )
        self.clients = sorted(clients, key=lambda c: c.client_id)
        self.agreement = agreement
        self.test_data = test_data
        self.optimizer = optimizer if optimizer is not None else SGD(learning_rate)
        self.subround_schedule = subround_schedule
        self.flatten_inputs = bool(flatten_inputs)
        self._rng = as_generator(seed)

        self.byzantine_ids = tuple(c.client_id for c in self.clients if c.is_byzantine)
        if len(self.byzantine_ids) > agreement.t:
            raise ValueError(
                f"{len(self.byzantine_ids)} Byzantine clients exceed the tolerance t={agreement.t}"
            )
        self.honest_ids = tuple(c.client_id for c in self.clients if not c.is_byzantine)
        if engine is None:
            engine = SynchronousScheduler(
                len(self.clients), self.byzantine_ids, keep_history=False
            )
        if engine.n != len(self.clients):
            raise ValueError(
                f"engine is configured for n={engine.n} but there are {len(self.clients)} clients"
            )
        if tuple(sorted(engine.byzantine)) != self.byzantine_ids:
            raise ValueError(
                f"engine byzantine set {sorted(engine.byzantine)} does not match "
                f"clients {self.byzantine_ids}"
            )
        self.engine = engine
        if exchange not in self.EXCHANGE_MODES:
            raise ValueError(
                f"unknown exchange mode {exchange!r}; supported: {self.EXCHANGE_MODES}"
            )
        self.exchange = exchange
        policy = "raise" if isinstance(engine, SynchronousScheduler) else "starve"
        if exchange == "gossip":
            # Gossip only needs *something* to average; a node that
            # received nothing this sub-round keeps its vector.
            self.engine.require_quorum(1, policy=policy)
        else:
            if engine.topology is not None:
                # Full agreement needs every node able to receive the
                # n - t quorum; fail fast with the actionable diagnostic
                # instead of starving every round at runtime.
                validate_topology(engine.topology, engine.n, t=agreement.t)
            self.engine.require_quorum(agreement.minimum_messages(), policy=policy)
        # Event-driven schedulers have no delivery horizon: each client
        # waits for the n - t agreement quorum (or its wait window),
        # then processes whatever arrived.  A count pinned on the engine
        # by the experiment config wins over the quorum reading.
        self.engine.wait_for(quorum=True)

    # -- internals -----------------------------------------------------------
    def _test_inputs(self) -> np.ndarray:
        images = self.test_data.images
        return images.reshape(images.shape[0], -1) if self.flatten_inputs else images

    def _attack_for(self, node: int) -> Optional[GradientAttack]:
        return self.clients[node].attack

    def _run_agreement(
        self,
        honest_gradients: Dict[int, np.ndarray],
        byzantine_gradients: Dict[int, np.ndarray],
        subrounds: int,
        iteration: int,
    ) -> Dict[int, np.ndarray]:
        """Execute the agreement sub-rounds; returns each honest node's output."""
        current = {i: g.copy() for i, g in honest_gradients.items()}
        adversary_plan = (
            attack_adversary_plan(
                self._attack_for,
                byzantine_gradients,
                self._rng,
                horizon=self.engine.horizon,
                engine=self.engine,
                extra_metadata={"iteration": iteration},
            )
            if self.byzantine_ids
            else None
        )
        # Each learning iteration is a fresh exchange: any message still
        # in flight from the previous iteration's sub-rounds is stale.
        self.engine.reset()
        if self.exchange == "gossip":
            # Gossip step: the plain mean of the received stack.  The
            # delivered set is the node's closed neighbourhood under the
            # engine topology, so this is the degree-weighted
            # (1/|N[i]|-per-neighbour) gossip average.
            update = lambda _node, received: np.asarray(received).mean(axis=0)
        else:
            update = lambda _node, received: self.agreement.update(received)
        return run_exchange(
            self.engine,
            current,
            subrounds,
            update,
            adversary_plan,
        )

    # -- public API -----------------------------------------------------------
    def train(self, rounds: int, *, record_every: int = 1) -> TrainingHistory:
        """Run ``rounds`` learning iterations and return the history."""
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if record_every < 1:
            raise ValueError("record_every must be positive")
        if self.optimizer.total_rounds is None:
            self.optimizer.total_rounds = rounds

        history = TrainingHistory(
            setting="decentralized",
            aggregation=getattr(self.agreement, "name", type(self.agreement).__name__),
            attack=self._attack_name(),
            heterogeneity="unknown",
            num_clients=len(self.clients),
            num_byzantine=len(self.byzantine_ids),
        )
        test_inputs = self._test_inputs()
        test_labels = self.test_data.labels

        for iteration in range(rounds):
            honest_gradients: Dict[int, np.ndarray] = {}
            byzantine_gradients: Dict[int, np.ndarray] = {}
            losses: List[float] = []
            for client in self.clients:
                loss, grad = client.compute_gradient(client.local_parameters())
                if client.is_byzantine:
                    byzantine_gradients[client.client_id] = grad
                else:
                    honest_gradients[client.client_id] = grad
                    losses.append(loss)

            subrounds = int(self.subround_schedule(iteration))
            agreed = self._run_agreement(
                honest_gradients, byzantine_gradients, subrounds, iteration
            )

            for node, aggregate in agreed.items():
                client = self.clients[node]
                updated = self.optimizer.step(
                    client.local_parameters(), aggregate, iteration
                )
                client.apply_update(updated)

            if (iteration + 1) % record_every == 0 or iteration == rounds - 1:
                per_client = {
                    node: self.clients[node].model.evaluate_accuracy(test_inputs, test_labels)
                    for node in self.honest_ids
                }
                disagreement = diameter(np.stack(list(agreed.values()), axis=0)) if len(agreed) > 1 else 0.0
                record = RoundRecord(
                    round_index=iteration,
                    accuracy=float(np.mean(list(per_client.values()))),
                    loss=float(np.mean(losses)) if losses else float("nan"),
                    per_client_accuracy=per_client,
                    gradient_disagreement=float(disagreement),
                )
                history.append(record)
                _logger.info(
                    "decentralized iteration %d: mean accuracy=%.4f disagreement=%.3e",
                    iteration,
                    record.accuracy,
                    disagreement,
                )
        if self.engine.records_stats:
            history.network_stats = self.engine.stats_snapshot()
            history.delivery_trace = self.engine.trace_snapshot()
            if self.engine.node_trace:
                history.node_stats = self.engine.node_stats_snapshot()
                history.node_delivery_trace = self.engine.node_trace_snapshot()
        return history

    def _attack_name(self) -> Optional[str]:
        for client in self.clients:
            if client.is_byzantine and client.attack is not None:
                return client.attack.name
        return None
