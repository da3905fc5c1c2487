"""Shared delivery core of the round schedulers.

Every scheduler in :mod:`repro.engine` executes the same three steps per
round — collect one :class:`BroadcastPlan` per node, let reliable
broadcast materialise messages, enforce the quorum policy — and only
differs in *when* each (sender, receiver) link delivers.  This module
holds the scheduler-independent pieces:

- :class:`RoundResult` — the per-round delivery outcome handed to the
  consumers (agreement algorithms, trainers),
- :class:`EmptyInboxError` — raised when a node's inbox is empty, so
  lossy-scheduler callers can distinguish "the network dropped
  everything" from malformed input,
- :func:`collect_plans` — gathers and validates the honest and
  adversarial broadcast plans of one round (the adversary is rushing:
  it observes the honest payloads before choosing its own),
- :func:`enforce_quorum` — the ``m_i >= n - t`` delivery check, either
  raising or reporting the starved nodes depending on policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.network.batch import BatchInbox
from repro.network.reliable_broadcast import BroadcastPlan

HonestPlanFn = Callable[[int, int], BroadcastPlan]
AdversaryPlanFn = Callable[[int, int, Dict[int, np.ndarray]], BroadcastPlan]


class EmptyInboxError(ValueError):
    """A node delivered no messages in a round.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the generic error keep working; lossy-scheduler consumers catch this
    type specifically to treat "dropped everything" as a stall rather
    than bad input.
    """


@dataclass
class RoundResult:
    """Delivery outcome of one scheduled round.

    Attributes
    ----------
    round_index:
        The round the result belongs to.
    inboxes:
        Receiver id -> its :class:`BatchInbox` of delivered messages,
        ordered deterministically (arrival round, then sender id).
    starved:
        Honest nodes that delivered fewer messages than the required
        quorum this round.  Only populated under the ``"starve"`` quorum
        policy; the ``"raise"`` policy aborts the round instead.
    """

    round_index: int
    inboxes: Dict[int, BatchInbox] = field(default_factory=dict)
    starved: Tuple[int, ...] = ()

    def received_matrix(self, node: int) -> np.ndarray:
        """Stack of payloads node ``node`` delivered this round, ``(m, d)``.

        A single vectorized gather (zero-copy when the node delivered a
        whole batch in order) that also carries the batch's transported
        sparsity profile; values are bitwise-identical to stacking the
        materialised messages.
        """
        inbox = self.inboxes.get(node, ())
        if not len(inbox):
            raise EmptyInboxError(
                f"node {node} received no messages in round {self.round_index}"
            )
        return inbox.matrix()

    def senders(self, node: int) -> List[int]:
        """Sender ids of the messages node ``node`` delivered this round."""
        inbox = self.inboxes.get(node)
        return [] if inbox is None else inbox.senders()


def full_broadcast_plan(
    node: int, payload: np.ndarray, metadata: Optional[dict] = None
) -> BroadcastPlan:
    """Convenience constructor for the plan an honest node always uses."""
    return BroadcastPlan(
        sender=node, payload=np.asarray(payload, dtype=np.float64), recipients=None,
        metadata=metadata or {},
    )


def collect_plans(
    honest: Iterable[int],
    byzantine: Iterable[int],
    round_index: int,
    honest_plan: HonestPlanFn,
    adversary_plan: Optional[AdversaryPlanFn] = None,
) -> List[BroadcastPlan]:
    """Gather and validate one round's broadcast plans.

    ``honest_plan(node, round)`` must return a full-broadcast plan for
    every honest node.  ``adversary_plan(node, round, honest_values)``
    is called for every Byzantine node with a read-only view of the
    honest payloads of this round (Byzantine nodes are rushing: they
    may inspect honest messages before choosing their own).  A ``None``
    adversary means Byzantine nodes stay silent (crash).
    """
    plans: List[BroadcastPlan] = []
    honest_values: Dict[int, np.ndarray] = {}
    for node in honest:
        plan = honest_plan(node, round_index)
        if plan.sender != node:
            raise ValueError(
                f"honest plan for node {node} reports sender {plan.sender}"
            )
        if plan.payload is None:
            raise ValueError(f"honest node {node} must broadcast a payload")
        plans.append(plan)
        honest_values[node] = np.asarray(plan.payload, dtype=np.float64)

    if adversary_plan is not None:
        for node in sorted(byzantine):
            plan = adversary_plan(node, round_index, dict(honest_values))
            if plan.sender != node:
                raise ValueError(
                    f"adversary plan for node {node} reports sender {plan.sender}"
                )
            plans.append(plan)
    return plans


def enforce_quorum(
    inboxes: Dict[int, BatchInbox],
    honest: Iterable[int],
    quorum: int,
    round_index: int,
    *,
    policy: str = "raise",
) -> Tuple[int, ...]:
    """Apply the per-round delivery quorum.

    With ``policy="raise"`` (the synchronous default) any honest node
    below ``quorum`` aborts the round with :class:`RuntimeError` — under
    a synchronous scheduler that can only mean a protocol violation.
    With ``policy="starve"`` the under-supplied nodes are returned so the
    caller can stall them for a round (the natural reading under lossy /
    partially synchronous delivery, where missing messages are the
    scheduler's doing, not the protocol's).
    """
    if policy not in ("raise", "starve"):
        raise ValueError(f"unknown quorum policy {policy!r}")
    if quorum <= 0:
        return ()
    starved = tuple(
        node for node in honest if len(inboxes.get(node, [])) < quorum
    )
    if starved and policy == "raise":
        node = starved[0]
        got = len(inboxes.get(node, []))
        raise RuntimeError(
            f"honest node {node} delivered only {got} messages in round "
            f"{round_index}, quorum is {quorum}"
        )
    return starved
