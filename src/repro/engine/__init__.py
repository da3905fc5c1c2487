"""Scheduler-pluggable round engine.

The paper specifies lock-step rounds; this package makes that timing
model one pluggable axis instead of a hard-coded assumption.  A
:class:`RoundEngine` turns per-node broadcast plans into per-node
inboxes; the scheduler decides *when* (and whether) each link delivers:

========================================  =================================
Scheduler                                  Timing model
========================================  =================================
:class:`SynchronousScheduler`              lock-step (the paper's
                                           synchronous rounds)
:class:`PartiallySynchronousScheduler`     per-link random delays bounded
                                           by a delivery horizon
:class:`LossyScheduler`                    seeded per-link loss plus
                                           transient crash windows
:class:`AsynchronousScheduler`             event-driven, no horizon:
                                           heavy-tailed regime-modulated
                                           delays + explicit wait
                                           conditions
========================================  =================================

Agreement, centralized and decentralized learning all run on this one
engine (see :func:`repro.engine.rounds.run_exchange`); experiment
configurations select a scheduler by name through
:func:`make_scheduler`, which is what the ``scheduler`` / ``delay`` /
``drop_rate`` / ``crash_schedule`` / ``wait_count`` / ``wait_timeout`` /
``burstiness`` / ``rng_mode`` sweep axes feed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.engine.asynchronous import AsynchronousScheduler
from repro.engine.base import RNG_MODES, RoundEngine, WaitCondition, resolve_rng_mode
from repro.engine.lossy import LossyScheduler, normalise_crash_schedule
from repro.engine.partial import PartiallySynchronousScheduler
from repro.engine.rounds import attack_adversary_plan, run_exchange
from repro.engine.synchronous import SynchronousScheduler
from repro.network.topology import Topology
from repro.utils.rng import SeedLike

#: Scheduler names accepted by :func:`make_scheduler` (and the
#: ``ExperimentConfig.scheduler`` field / sweep axis).
SCHEDULER_NAMES = ("synchronous", "partial", "lossy", "asynchronous")


def make_scheduler(
    name: str,
    n: int,
    byzantine: Iterable[int] = (),
    *,
    delay: int = 0,
    delay_prob: float = 0.5,
    drop_rate: float = 0.0,
    crash_schedule: Iterable[Sequence[int]] = (),
    wait_count: int = 0,
    wait_timeout: float = 0.0,
    burstiness: float = 0.0,
    seed: SeedLike = 0,
    keep_history: bool = True,
    max_history: Optional[int] = None,
    require_full_broadcast: bool = True,
    node_trace: bool = False,
    topology: Optional[Topology] = None,
    rng_mode: Optional[str] = None,
) -> RoundEngine:
    """Instantiate a scheduler by name.

    ``delay`` is the delivery horizon of the partially synchronous
    scheduler (required >= 1 there, meaningless elsewhere);
    ``drop_rate`` and ``crash_schedule`` configure the lossy scheduler;
    ``wait_count`` / ``wait_timeout`` / ``burstiness`` configure the
    event-driven asynchronous scheduler (``wait_timeout`` required > 0
    there — it has no delivery horizon, so the wait window must be
    explicit).  Passing a knob to a scheduler that cannot honour it is
    an error — a sweep axis that silently did nothing would corrupt
    conclusions.  ``require_full_broadcast=False`` builds the engine in
    star mode (honest senders may address a single receiver — the
    centralized trainer's client -> server exchange).  ``node_trace``
    turns on per-node trace recording (see :class:`RoundEngine`);
    ``topology`` installs a
    sparse communication graph every scheduler intersects with its own
    delivery decisions (``None`` = all-to-all).  ``rng_mode`` selects
    the draw strategy of the stochastic schedulers (``"scalar"`` =
    bitwise reference, ``"vectorized"`` = batched whole-round draws with
    a statistical contract; ``None`` reads ``REPRO_RNG_MODE``) — the
    deterministic synchronous scheduler and the lossy scheduler have no
    vectorizable delay stream, so ``"vectorized"`` is an error there.
    """
    key = str(name).strip().lower()
    mode = resolve_rng_mode(rng_mode)
    common = dict(
        keep_history=keep_history,
        max_history=max_history,
        require_full_broadcast=require_full_broadcast,
        node_trace=node_trace,
        topology=topology,
    )
    if key != "asynchronous" and (wait_count or wait_timeout or burstiness):
        raise ValueError(
            "wait_count/wait_timeout/burstiness are only meaningful for "
            "scheduler='asynchronous'"
        )
    if key not in ("partial", "asynchronous") and rng_mode is not None and mode != "scalar":
        raise ValueError(
            "rng_mode='vectorized' is only meaningful for the stochastic-delay "
            "schedulers ('partial', 'asynchronous')"
        )
    if key == "synchronous":
        if delay or drop_rate or tuple(crash_schedule):
            raise ValueError(
                "the synchronous scheduler takes no delay/drop_rate/crash_schedule"
            )
        return SynchronousScheduler(n, byzantine, **common)
    if key == "partial":
        if drop_rate or tuple(crash_schedule):
            raise ValueError(
                "the partial scheduler models delays; use scheduler='lossy' "
                "for drop_rate/crash_schedule"
            )
        if delay < 1:
            raise ValueError("scheduler='partial' needs a delivery horizon delay >= 1")
        return PartiallySynchronousScheduler(
            n, byzantine, max_delay=delay, delay_prob=delay_prob, seed=seed,
            rng_mode=mode, **common,
        )
    if key == "lossy":
        if delay:
            raise ValueError(
                "the lossy scheduler models loss/crashes; use scheduler='partial' for delays"
            )
        return LossyScheduler(
            n, byzantine, drop_rate=drop_rate, crash_schedule=crash_schedule,
            seed=seed, **common,
        )
    if key == "asynchronous":
        if delay or drop_rate or tuple(crash_schedule):
            raise ValueError(
                "the asynchronous scheduler draws its own delays; it takes no "
                "delay/drop_rate/crash_schedule"
            )
        if wait_timeout <= 0.0:
            raise ValueError(
                "scheduler='asynchronous' needs wait_timeout > 0 (there is no "
                "delivery horizon; the wait window must be explicit)"
            )
        return AsynchronousScheduler(
            n, byzantine, wait_count=wait_count, timeout_rounds=wait_timeout,
            burstiness=burstiness, seed=seed, rng_mode=mode, **common,
        )
    raise ValueError(f"unknown scheduler {name!r}; available: {SCHEDULER_NAMES}")


__all__ = [
    "AsynchronousScheduler",
    "LossyScheduler",
    "PartiallySynchronousScheduler",
    "RNG_MODES",
    "RoundEngine",
    "SCHEDULER_NAMES",
    "SynchronousScheduler",
    "WaitCondition",
    "attack_adversary_plan",
    "make_scheduler",
    "normalise_crash_schedule",
    "resolve_rng_mode",
    "run_exchange",
]
