"""Centralized collaborative learning loop.

One server coordinates the round structure (Section 2.1 of the paper):

1. every client loads the global weights and computes a stochastic
   gradient on its local shard,
2. Byzantine clients replace their gradient according to the configured
   attack (a rushing adversary: it sees the honest gradients first),
3. the server aggregates the received gradients with a robust rule and
   performs the SGD step ``theta <- theta - lr_t * aggregate``,
4. the global model's test accuracy is recorded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.aggregation.base import AggregationRule
from repro.aggregation.context import AggregationContext
from repro.byzantine.base import AttackContext
from repro.data.datasets import Dataset
from repro.engine.base import RoundEngine
from repro.engine.synchronous import SynchronousScheduler
from repro.learning.client import Client
from repro.learning.history import RoundRecord, TrainingHistory
from repro.network.reliable_broadcast import BroadcastPlan
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator

_logger = get_logger("learning.centralized")


class CentralizedTrainer:
    """Runs centralized collaborative learning with a robust server.

    Parameters
    ----------
    global_model:
        The server's model; its flat parameter vector is the global state.
    clients:
        All participating clients (honest and Byzantine alike; a client
        is Byzantine when its ``attack`` attribute is set).
    aggregation:
        The server-side aggregation rule.
    test_data:
        Held-out dataset for the per-round accuracy report.
    optimizer:
        SGD configuration; constructed from ``learning_rate`` and the
        round budget when omitted.
    engine:
        Round engine modelling the client -> server exchange as a star
        topology: every client broadcasts its (possibly corrupted)
        gradient and the server — one extra, receive-only node — reads
        its own inbox.  Defaults to lock-step delivery, which reproduces
        the historical trainer bitwise.  Under lossy / partially
        synchronous engines the server aggregates whatever arrived that
        round and skips the step (keeping the model) when nothing did.
    """

    def __init__(
        self,
        global_model: Sequential,
        clients: Sequence[Client],
        aggregation: AggregationRule,
        test_data: Dataset,
        *,
        optimizer: Optional[SGD] = None,
        learning_rate: float = 0.01,
        flatten_inputs: bool = True,
        seed=0,
        engine: Optional[RoundEngine] = None,
        dtype: Optional[str] = None,
    ) -> None:
        from repro.linalg.precision import dtype_name

        if not clients:
            raise ValueError("at least one client is required")
        self.dtype_name = dtype_name(dtype)
        self.global_model = global_model
        self.clients = list(clients)
        self.aggregation = aggregation
        self.test_data = test_data
        self.optimizer = optimizer if optimizer is not None else SGD(learning_rate)
        self.flatten_inputs = bool(flatten_inputs)
        self._rng = as_generator(seed)
        byz_ids = tuple(c.client_id for c in self.clients if c.is_byzantine)
        self.server_node = max(c.client_id for c in self.clients) + 1
        if engine is None:
            engine = SynchronousScheduler(
                self.server_node + 1, byz_ids, keep_history=False,
                require_full_broadcast=False,
            )
        if engine.n != self.server_node + 1:
            raise ValueError(
                f"engine must cover every client plus the server node "
                f"(need n={self.server_node + 1}, engine has n={engine.n})"
            )
        if engine.broadcast.require_full_broadcast:
            raise ValueError(
                "the centralized trainer runs a star exchange (clients unicast "
                "to the server); build the engine with require_full_broadcast=False"
            )
        if tuple(sorted(engine.byzantine)) != tuple(sorted(byz_ids)):
            raise ValueError(
                f"engine byzantine set {sorted(engine.byzantine)} does not match "
                f"clients {sorted(byz_ids)}"
            )
        self.engine = engine
        self._strict_delivery = isinstance(engine, SynchronousScheduler)
        # Robust rules need at least n - t vectors (the subset-based
        # ones enumerate (n - t)-subsets); under non-strict delivery the
        # server skips rounds that arrive below that floor.
        rule_n, rule_t = getattr(aggregation, "n", None), getattr(aggregation, "t", None)
        self._min_received = (
            max(1, int(rule_n) - int(rule_t))
            if rule_n is not None and rule_t is not None
            else 1
        )
        # Explicit wait condition for event-driven schedulers: the
        # server processes a round once the rule's n - t gradient floor
        # has arrived (or its wait window expires).  Respect a count the
        # experiment configuration already pinned on the engine.
        if self.engine.wait.count is None:
            self.engine.wait_for(count=self._min_received)

    # -- internals -----------------------------------------------------------
    def _test_inputs(self) -> np.ndarray:
        images = self.test_data.images
        return images.reshape(images.shape[0], -1) if self.flatten_inputs else images

    def _collect_gradients(
        self, parameters: np.ndarray, round_index: int
    ) -> tuple[Optional[np.ndarray], int, float]:
        """Gradients the server receives this round (after attacks).

        Every client submits one plan addressed to the server link only
        (the engine runs in star mode, so honest unicast is legal) and
        the server consumes its own inbox — which is where the timing
        model (drops, delays, crash windows) applies, and what the
        delivery counters measure.  Selective omission is meaningless
        here, but timing attacks may still shape delivery through
        ``send_delays``.

        Returns the received ``(m, d)`` gradient stack in client order
        (``None`` when nothing arrived), the received count, and the
        honest mean loss.  The stack is one vectorized gather —
        zero-copy for a fully delivered round — with the rows
        bitwise-identical to stacking per-message payloads.
        """
        honest_vectors: Dict[int, np.ndarray] = {}
        own_vectors: Dict[int, np.ndarray] = {}
        losses: List[float] = []
        for client in self.clients:
            loss, grad = client.compute_gradient(parameters)
            own_vectors[client.client_id] = grad
            if not client.is_byzantine:
                honest_vectors[client.client_id] = grad
                losses.append(loss)

        server_only = frozenset({self.server_node})
        plans: List[BroadcastPlan] = []
        for client in self.clients:
            if not client.is_byzantine:
                plans.append(
                    BroadcastPlan(
                        sender=client.client_id,
                        payload=own_vectors[client.client_id],
                        recipients=server_only,
                    )
                )
                continue
            context = AttackContext(
                node=client.client_id,
                round_index=round_index,
                own_vector=own_vectors[client.client_id],
                honest_vectors=honest_vectors,
                rng=self._rng,
                horizon=self.engine.horizon,
                delivery_trace=self.engine.trace_tail(),
            )
            corrupted = client.attack.corrupt(context)
            # Attacks state their lags per honest receiver, but the star
            # exchange has a single link (client -> server): the
            # strongest requested lag applies to the server delivery, so
            # timing attacks stay expressible here instead of being
            # silently voided by the topology mismatch.
            requested = client.attack.send_delays(context)
            delays = (
                {self.server_node: max(requested.values())} if requested else None
            )
            # A silent (crashed) Byzantine client simply contributes nothing.
            plans.append(
                BroadcastPlan(
                    sender=client.client_id,
                    payload=None if corrupted is None
                    else np.asarray(corrupted, dtype=np.float64).reshape(-1),
                    recipients=server_only,
                    delays=delays,
                    metadata={"attack": client.attack.name},
                )
            )

        result = self.engine.submit(plans, round_index)
        inbox = result.inboxes[self.server_node]
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        if len(inbox) == 0:
            return None, 0, mean_loss
        # Reorder delivered rows into client order without building a
        # single Message.  Delivery order already *is* client order for
        # the horizon-based schedulers, keeping the gather zero-copy (and
        # its transported sparsity profile attached); the asynchronous
        # scheduler's arrival order needs one row permutation.
        row_of = {s: i for i, s in enumerate(inbox.senders())}
        order = [
            row_of[client.client_id]
            for client in self.clients
            if client.client_id in row_of
        ]
        matrix = inbox.matrix()
        if order != list(range(len(order))) or len(order) != len(inbox):
            matrix = np.asarray(matrix)[np.asarray(order, dtype=np.int64)]
        return matrix, len(order), mean_loss

    # -- public API -----------------------------------------------------------
    def train(self, rounds: int, *, record_every: int = 1) -> TrainingHistory:
        """Run ``rounds`` global communication rounds and return the history."""
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if record_every < 1:
            raise ValueError("record_every must be positive")
        if self.optimizer.total_rounds is None:
            self.optimizer.total_rounds = rounds

        history = TrainingHistory(
            setting="centralized",
            aggregation=getattr(self.aggregation, "name", type(self.aggregation).__name__),
            attack=self._attack_name(),
            heterogeneity="unknown",
            num_clients=len(self.clients),
            num_byzantine=sum(1 for c in self.clients if c.is_byzantine),
        )
        parameters = self.global_model.get_flat_parameters()
        test_inputs = self._test_inputs()

        for round_index in range(rounds):
            received, num_received, mean_loss = self._collect_gradients(
                parameters, round_index
            )
            if received is None and self._strict_delivery:
                raise RuntimeError(
                    f"no gradients received in round {round_index}; cannot aggregate"
                )
            if not self._strict_delivery and num_received < self._min_received:
                # The lossy/partial network starved the server below the
                # rule's floor this round; skip the step, keep the model.
                _logger.info(
                    "centralized round %d: only %d gradients arrived (need %d), skipping step",
                    round_index, num_received, self._min_received,
                )
            else:
                # One context per round: every distance-based step of the
                # rule (and any diagnostics sharing it) reuses the same
                # pairwise-distance matrix.
                round_context = AggregationContext(received, dtype=self.dtype_name)
                aggregate = self.aggregation.aggregate(context=round_context)
                parameters = self.optimizer.step(parameters, aggregate, round_index)
                self.global_model.set_flat_parameters(parameters)

            if (round_index + 1) % record_every == 0 or round_index == rounds - 1:
                acc = self.global_model.evaluate_accuracy(test_inputs, self.test_data.labels)
                history.append(
                    RoundRecord(round_index=round_index, accuracy=acc, loss=mean_loss)
                )
                _logger.info(
                    "centralized round %d: accuracy=%.4f loss=%.4f", round_index, acc, mean_loss
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
