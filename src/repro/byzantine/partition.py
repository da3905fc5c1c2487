"""Split-brain / partition attacks: selective omission and edge cuts.

Two compositions of the same idea live here:

- :class:`PartitionAttack` — the adversary of Lemma 4.2: Byzantine
  nodes echo one of two honest "poles" and deliver their message only
  to one half of the honest nodes, keeping the two halves pinned to
  different vectors forever and preventing the MD-GEOM agreement
  routine from converging.
- :class:`TopologyPartition` — the *network-level* partition that
  composes with a sparse :class:`~repro.network.topology.Topology`:
  partitioning is edge removal (cut every link crossing the two
  groups), healing is restoring the original topology.  Applied via
  :meth:`~repro.engine.base.RoundEngine.set_topology`, it works under
  every scheduler, and it stacks with the
  Byzantine :class:`PartitionAttack` above (the adversary exploits the
  cut instead of having to manufacture one through omission).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.byzantine.base import AttackContext, GradientAttack
from repro.network.topology import Topology


class PartitionAttack(GradientAttack):
    """Echo an extreme honest vector towards a chosen half of the nodes.

    Parameters
    ----------
    group_a, group_b:
        The two sets of honest node ids the adversary tries to keep
        apart.  Byzantine nodes with an even id echo the vector common to
        ``group_a`` and deliver it only to ``group_a`` (and all Byzantine
        nodes); odd-id attackers mirror this for ``group_b``.
    """

    name = "partition"

    def __init__(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        if not group_a or not group_b:
            raise ValueError("both partition groups must be non-empty")
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ValueError(f"partition groups overlap: {sorted(overlap)}")
        self.group_a = tuple(sorted(int(i) for i in group_a))
        self.group_b = tuple(sorted(int(i) for i in group_b))

    def _target_group(self, context: AttackContext) -> tuple[int, ...]:
        return self.group_a if context.node % 2 == 0 else self.group_b

    def corrupt(self, context: AttackContext) -> Optional[np.ndarray]:
        group = self._target_group(context)
        vectors = [
            np.asarray(context.honest_vectors[i], dtype=np.float64).reshape(-1)
            for i in group
            if i in context.honest_vectors
        ]
        if not vectors:
            return None
        # Echo the group's common vector (they are identical in the
        # Lemma 4.2 construction; otherwise use their mean).
        return np.mean(np.stack(vectors, axis=0), axis=0)

    def recipients(self, context: AttackContext) -> Optional[frozenset[int]]:
        group = self._target_group(context)
        # Deliver to the target group and to the attacker itself; other
        # honest nodes never see the message this round.
        return frozenset(set(group) | {context.node})


def partition_cut(
    topology: Topology, group_a: Sequence[int], group_b: Sequence[int]
) -> List[Tuple[int, int]]:
    """The edges of ``topology`` crossing ``group_a`` × ``group_b``.

    These are exactly the edges a network partition between the two
    groups removes; nodes in neither group keep all their links.
    """
    a = {int(i) for i in group_a}
    b = {int(i) for i in group_b}
    overlap = a & b
    if overlap:
        raise ValueError(f"partition groups overlap: {sorted(overlap)}")
    for node in a | b:
        if not 0 <= node < topology.n:
            raise ValueError(f"node {node} out of range for n={topology.n}")
    return [
        (u, v)
        for u, v in topology.edges()
        if (u in a and v in b) or (u in b and v in a)
    ]


class TopologyPartition:
    """Network-level partition/heal acting on an engine's topology.

    ``apply`` installs a copy of the engine's current topology with
    every edge between ``group_a`` and ``group_b`` removed; ``heal``
    restores the topology the engine had when the partition was
    applied.  An engine running all-to-all (no topology installed)
    partitions from the complete graph.  The object is reusable:
    apply/heal may be called repeatedly, e.g. from a sweep scenario
    that cuts the network for a window of rounds.
    """

    def __init__(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        self.group_a = tuple(sorted({int(i) for i in group_a}))
        self.group_b = tuple(sorted({int(i) for i in group_b}))
        if not self.group_a or not self.group_b:
            raise ValueError("both partition groups must be non-empty")
        if set(self.group_a) & set(self.group_b):
            raise ValueError(
                f"partition groups overlap: {sorted(set(self.group_a) & set(self.group_b))}"
            )
        self._healed: Optional[Topology] = None
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def apply(self, engine) -> Topology:
        """Cut the cross-group edges on ``engine``; returns the cut topology."""
        if self._active:
            raise RuntimeError("partition is already applied; heal it first")
        from repro.network.topology import make_topology

        base = engine.topology
        if base is None:
            base = make_topology("complete", engine.n)
        cut = base.without_edges(partition_cut(base, self.group_a, self.group_b))
        self._healed = engine.topology
        engine.set_topology(cut)
        self._active = True
        return cut

    def heal(self, engine) -> None:
        """Restore the topology the engine had before :meth:`apply`."""
        if not self._active:
            raise RuntimeError("partition is not applied; nothing to heal")
        engine.set_topology(self._healed)
        self._healed = None
        self._active = False
