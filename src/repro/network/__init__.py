"""Synchronous peer-to-peer network simulation.

The paper assumes (Section 2.3):

- reliable broadcast: if two non-faulty nodes deliver a message from the
  same sender in the same round, the delivered contents are identical
  (a Byzantine sender cannot equivocate), and
- synchronous rounds: every message sent in round ``r`` is delivered
  before round ``r + 1`` starts, though a Byzantine sender may *omit*
  its message towards any subset of receivers (this is exactly the power
  the adversary uses in the Lemma 4.2 non-convergence construction).

This package simulates those assumptions so agreement algorithms and the
decentralized learning loop run against the same adversary model the
theory analyses.

The synchronous-rounds assumption is no longer baked in: this package
owns message *delivery* (plans, reliable-broadcast validation, quorum,
:class:`RoundResult`), while :mod:`repro.engine` owns the *timing*
models built on top of it (lock-step, partially synchronous, lossy) —
see ``docs/architecture.md`` for the layer map.  An empty inbox raises
:class:`EmptyInboxError` so lossy-scheduler consumers can tell "the
network dropped everything" apart from malformed input.
"""

from repro.network.message import Message
from repro.network.reliable_broadcast import BroadcastPlan, ReliableBroadcast
from repro.network.delivery import (
    EmptyInboxError,
    RoundResult,
    collect_plans,
    enforce_quorum,
    full_broadcast_plan,
)
from repro.network.topology import (
    TOPOLOGY_NAMES,
    Topology,
    complete_topology,
    make_topology,
    resolve_topology_name,
    validate_topology,
)

__all__ = [
    "BroadcastPlan",
    "EmptyInboxError",
    "Message",
    "ReliableBroadcast",
    "RoundResult",
    "TOPOLOGY_NAMES",
    "Topology",
    "collect_plans",
    "complete_topology",
    "enforce_quorum",
    "full_broadcast_plan",
    "make_topology",
    "resolve_topology_name",
    "validate_topology",
]
