"""Generate the pinned per-scheduler delivery fixture.

Every scheduler used to carry two delivery implementations: a
per-message object plane and the array-backed batch plane.  Before the
object plane was deleted, this script ran at the commit recorded in the
output with ``REPRO_MESSAGE_PLANE=object`` — so the file holds the
object plane's outputs — and the batch plane's outputs were checked
equal to them on the same commit.  ``tests/test_message_plane.py`` and
``tests/test_topology.py`` now compare the one remaining delivery path
against this file.

Three case families, each run on all four schedulers:

- ``raw/<scheduler>`` — full-broadcast rounds, one Byzantine node;
- ``ring/<scheduler>`` — the same under a ring topology;
- ``omission/<scheduler>`` — two Byzantine nodes that leave out some
  receivers, go silent, and pin per-link ``delays`` (self-delivery,
  omitted receivers and lags past the horizon included), over two
  exchanges with a :meth:`~repro.engine.base.RoundEngine.reset` between.

Each case records, per round and receiver, the delivered
``(sender, send round)`` pairs and a SHA-256 digest of the received
matrix's bytes (so the comparison is bitwise), plus the engine's
counters and per-round trace.  ``message_plane`` in the output records
the ``REPRO_MESSAGE_PLANE`` value the script ran under.

    PYTHONPATH=src python tests/fixtures/make_delivery_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path

import numpy as np

from repro.engine import make_scheduler
from repro.network.delivery import full_broadcast_plan
from repro.network.reliable_broadcast import BroadcastPlan
from repro.network.topology import make_topology

FIXTURE_PATH = Path(__file__).with_name("delivery_pre_single_plane.json")

SCHEDULER_SETUPS = {
    "synchronous": {},
    "partial": {"delay": 2, "seed": 11},
    "lossy": {"drop_rate": 0.2, "crash_schedule": ((1, 1, 3),), "seed": 11},
    "asynchronous": {"wait_timeout": 2.0, "burstiness": 0.4, "seed": 11},
}

#: family -> (n, byzantine ids, async wait count, rounds per exchange)
FAMILIES = {
    "raw": (7, (6,), 5, (5,)),
    "ring": (8, (7,), 2, (5,)),
    "omission": (7, (5, 6), 4, (3, 3)),
}


def _plans(family: str, n: int, round_index: int, payloads: dict) -> list:
    plans = [
        full_broadcast_plan(node, payloads[node][round_index]) for node in range(n)
    ]
    if family != "omission":
        return plans
    # Node 6 leaves out every receiver with (j + round) % 3 == 0 (itself
    # included on some rounds) and pins lags: one inside the horizon, one
    # past it, one on its own link and one on an omitted receiver.
    recipients = frozenset(j for j in range(n) if (j + round_index) % 3 != 0)
    omitted = next(j for j in range(n) if j not in recipients)
    plans[6] = BroadcastPlan(
        sender=6,
        payload=payloads[6][round_index],
        recipients=recipients,
        delays={
            (round_index + 1) % 5: 1,
            (round_index + 2) % 5: 4,
            6: 2,
            omitted: 1,
        },
    )
    # Node 5 is silent on even rounds and a delayed full broadcast on odd ones.
    if round_index % 2 == 0:
        plans[5] = BroadcastPlan(sender=5, payload=None)
    else:
        plans[5] = BroadcastPlan(
            sender=5, payload=payloads[5][round_index], delays={0: 3, 2: 1}
        )
    return plans


def run_case(label: str) -> dict:
    """Drive one case and return its JSON-ready delivery record."""
    family, scheduler = label.split("/")
    n, byzantine, wait_count, exchanges = FAMILIES[family]
    topology = make_topology("ring", n) if family == "ring" else None
    engine = make_scheduler(
        scheduler, n, byzantine, keep_history=False, topology=topology,
        **SCHEDULER_SETUPS[scheduler],
    )
    if scheduler == "asynchronous":
        engine.wait_for(count=wait_count)
    rng = np.random.default_rng(3)
    payloads = {node: rng.normal(size=(max(exchanges), 4)) for node in range(n)}
    inboxes = []
    digests = []
    for rounds in exchanges:
        for round_index in range(rounds):
            result = engine.submit(_plans(family, n, round_index, payloads), round_index)
            round_inboxes = []
            round_digests = []
            for node in range(n):
                inbox = result.inboxes.get(node, [])
                round_inboxes.append(
                    [[int(m.sender), int(m.round_index)] for m in inbox]
                )
                round_digests.append(
                    hashlib.sha256(result.received_matrix(node).tobytes()).hexdigest()
                    if len(inbox)
                    else ""
                )
            inboxes.append(round_inboxes)
            digests.append(round_digests)
        engine.reset()
    return {
        "inboxes": inboxes,
        "digests": digests,
        "stats": engine.stats_snapshot(),
        "trace": engine.trace_snapshot(),
    }


def case_labels() -> list:
    return [
        f"{family}/{scheduler}"
        for family in FAMILIES
        for scheduler in sorted(SCHEDULER_SETUPS)
    ]


def main() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[2],
    ).stdout.strip()
    plane = os.environ.get("REPRO_MESSAGE_PLANE") or "batch"
    # One line per case keeps the file diffable without spreading every
    # (sender, round) pair over its own line.
    cases = ",\n".join(
        f"    {json.dumps(label)}: {json.dumps(run_case(label), sort_keys=True)}"
        for label in case_labels()
    )
    FIXTURE_PATH.write_text(
        "{\n"
        f'  "generated_at_commit": {json.dumps(commit)},\n'
        f'  "message_plane": {json.dumps(plane)},\n'
        '  "cases": {\n' + cases + "\n  }\n}\n"
    )
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
