"""Statistical validation of ``rng_mode="vectorized"``.

The scalar mode is pinned *bitwise* by the equivalence fixtures in
``tests/test_message_plane.py`` / ``tests/test_engine_equivalence.py``;
the vectorized mode changes the draw order (one Bernoulli vector + one
lag vector per round for the partial scheduler, a SIMD Pareto transform
for the asynchronous one), so it is pinned *statistically* here instead:

1. the exact per-node conservation identities hold in both modes
   (``sent == delivered + expired_at_reset + pending``, aggregate and
   per receiver);
2. the realized lag distributions agree between modes at matched
   parameters (hand-rolled two-sample Kolmogorov–Smirnov test — the
   test environment has no scipy);
3. end-to-end classification outcomes of a small paired sweep grid
   agree across modes;
4. (regression, scalar mode) turning on ``node_trace`` or an explicit
   complete topology never shifts the scalar RNG stream, for all four
   schedulers.

Everything here is deterministic: fixed seeds make the KS statistics
reproducible, so the alpha below is a design margin, not a flake rate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import RNG_MODES, make_scheduler, resolve_rng_mode
from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.network.delivery import full_broadcast_plan
from repro.network.reliable_broadcast import BroadcastPlan
from repro.network.topology import make_topology

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (sup-norm CDF distance)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    values = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, values, side="right") / a.size
    cdf_b = np.searchsorted(b, values, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int, alpha: float = 1e-3) -> float:
    """Critical KS distance at level ``alpha`` (asymptotic two-sample form)."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def _drive(engine, n: int, rounds: int, *, start: int = 0, payload_seed: int = 3):
    """Submit ``rounds`` full-broadcast rounds of random payloads."""
    rng = np.random.default_rng(payload_seed)
    for round_index in range(start, start + rounds):
        plans = [full_broadcast_plan(node, rng.random(4)) for node in range(n)]
        engine.submit(plans, round_index)


PARTIAL_KW = dict(delay=3, delay_prob=0.4, seed=11)
ASYNC_KW = dict(wait_timeout=2.0, burstiness=0.3, seed=11)


def _make(scheduler: str, mode: str, n: int, **extra):
    kwargs = dict(PARTIAL_KW if scheduler == "partial" else ASYNC_KW)
    kwargs.update(extra)
    engine = make_scheduler(
        scheduler, n, keep_history=False, rng_mode=mode, **kwargs,
    )
    if scheduler == "asynchronous":
        engine.wait_for(count=n - 2)
    return engine


# ---------------------------------------------------------------------------
# 1. conservation identities, both modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ["partial", "asynchronous"])
# The "-batch" id suffix names the array-backed delivery path every
# scheduler runs on; it keeps the ids stable.
@pytest.mark.parametrize(
    "mode", ["scalar", "vectorized"], ids=["scalar-batch", "vectorized-batch"]
)
class TestConservation:
    def test_aggregate_identity_across_reset(self, scheduler, mode):
        n = 10
        engine = _make(scheduler, mode, n)
        _drive(engine, n, rounds=6)
        engine.reset()  # expires the in-flight tail
        _drive(engine, n, rounds=6, start=6)
        stats = engine.stats_snapshot()
        assert stats["sent"] == (
            stats["delivered"] + stats["expired_at_reset"] + engine.pending_count()
        )
        assert stats["dropped"] == 0  # these models never lose a message

    def test_per_node_identity(self, scheduler, mode):
        n = 10
        engine = _make(scheduler, mode, n, node_trace=True)
        _drive(engine, n, rounds=5)
        engine.reset()
        _drive(engine, n, rounds=5, start=5)
        node = engine.node_stats
        zeros = np.zeros(n, dtype=np.int64)
        sent = node.get("sent", zeros)
        delivered = node.get("delivered", zeros)
        expired = node.get("expired_at_reset", zeros)
        pending = engine.pending_count_per_node()
        np.testing.assert_array_equal(sent, delivered + expired + pending)
        # Per-node columns sum to the aggregate counters.
        assert int(sent.sum()) == engine.stats["sent"]
        assert int(delivered.sum()) == engine.stats["delivered"]


# ---------------------------------------------------------------------------
# 2. distributional agreement between modes (KS)
# ---------------------------------------------------------------------------


def _partial_lag_sample(mode: str, *, n=24, rounds=40, max_delay=6,
                        delay_prob=0.35, seed=123) -> np.ndarray:
    """Realized per-link lags (0 = immediate) for every drawn link."""
    engine = make_scheduler(
        "partial", n, delay=max_delay, delay_prob=delay_prob, seed=seed,
        keep_history=False, rng_mode=mode,
    )
    rng = np.random.default_rng(7)
    lags = []
    for round_index in range(rounds):
        plans = [full_broadcast_plan(node, rng.random(3)) for node in range(n)]
        engine.submit(plans, round_index)
        delayed_now = 0
        for arrival, groups in engine._pending_batches.items():
            for send_round, _batch, rows, _recvs in groups:
                if send_round == round_index:
                    count = int(rows.shape[0])
                    delayed_now += count
                    lags.extend([arrival - round_index] * count)
        # The remaining drawn links (all but self-delivery) were immediate.
        lags.extend([0] * (n * (n - 1) - delayed_now))
    return np.asarray(lags, dtype=np.float64)


def _async_lag_sample(mode: str, *, n=24, rounds=30, seed=123) -> np.ndarray:
    """Realized Pareto link delays, censored identically in both modes.

    A near-zero wait window keeps almost every non-self link in flight,
    so the in-flight store right after a submit holds that round's drawn
    delays (minus the identically-censored near-zero tail).
    """
    engine = make_scheduler(
        "asynchronous", n, wait_timeout=1e-6, seed=seed,
        keep_history=False, rng_mode=mode,
    )
    engine.wait_for(count=0)  # no message target: the timeout decides
    rng = np.random.default_rng(7)
    lags = []
    for round_index in range(rounds):
        plans = [full_broadcast_plan(node, rng.random(3)) for node in range(n)]
        engine.submit(plans, round_index)
        arrival, send_round = engine._pending_links[0], engine._pending_links[1]
        fresh = send_round == round_index
        lags.append(arrival[fresh] - float(round_index))
    return np.concatenate(lags)


class TestDistributions:
    def test_partial_lag_distribution_matches_scalar(self):
        scalar = _partial_lag_sample("scalar")
        vector = _partial_lag_sample("vectorized")
        assert scalar.size == vector.size  # same number of drawn links
        distance = ks_distance(scalar, vector)
        assert distance < ks_threshold(scalar.size, vector.size), (
            f"partial lag KS distance {distance:.4f} exceeds the "
            f"alpha=1e-3 threshold"
        )
        # Both modes draw slow lags uniformly on [1, max_delay]: every
        # lag value must actually occur in both samples.
        assert set(np.unique(scalar)) == set(np.unique(vector))

    def test_partial_delay_fraction_matches_scalar(self):
        scalar = _partial_lag_sample("scalar")
        vector = _partial_lag_sample("vectorized")
        p_scalar = float(np.mean(scalar > 0))
        p_vector = float(np.mean(vector > 0))
        # Two-proportion comparison at matched sample sizes: the gap
        # must be within a few standard errors of the pooled Bernoulli.
        pooled = 0.5 * (p_scalar + p_vector)
        sigma = math.sqrt(2.0 * pooled * (1.0 - pooled) / scalar.size)
        assert abs(p_scalar - p_vector) < 4.0 * sigma

    def test_async_lag_distribution_matches_scalar(self):
        scalar = _async_lag_sample("scalar")
        vector = _async_lag_sample("vectorized")
        assert scalar.size == vector.size
        distance = ks_distance(scalar, vector)
        assert distance < ks_threshold(scalar.size, vector.size)
        # Same uniforms, same transform up to SIMD-vs-scalar pow ulps:
        # the two samples are elementwise close, not just distributed
        # alike (the draw count and order are part of the contract —
        # common random numbers across modes).  The ulp gap amplifies
        # through the power transform near zero, hence 1e-9 not 1e-15.
        np.testing.assert_allclose(np.sort(scalar), np.sort(vector), rtol=1e-9)

    def test_vectorized_respects_pinned_delays(self):
        """Adversary-pinned lags survive the vectorized scatter exactly."""
        n = 6
        engine = make_scheduler(
            "partial", n, (0,), delay=5, delay_prob=0.9, seed=1,
            keep_history=False, rng_mode="vectorized",
        )
        rng = np.random.default_rng(0)
        plans = [
            BroadcastPlan(sender=0, payload=rng.random(3), delays={1: 3, 2: 7})
        ] + [full_broadcast_plan(node, rng.random(3)) for node in range(1, n)]
        engine.submit(plans, 0)
        pinned = {}
        for arrival, groups in engine._pending_batches.items():
            for _send_round, batch, rows, recvs in groups:
                for row, recv in zip(rows.tolist(), recvs.tolist()):
                    if int(batch.senders[row]) == 0 and recv in (1, 2):
                        pinned[recv] = arrival
        # delays={1: 3} arrives exactly 3 rounds later; {2: 7} is capped
        # at the delivery horizon (max_delay=5), exactly as in scalar
        # mode; self-delivery (0 -> 0) is immediate, never pending.
        assert pinned == {1: 3, 2: 5}


# ---------------------------------------------------------------------------
# 3. end-to-end outcomes agree across modes (paired small sweep grid)
# ---------------------------------------------------------------------------


def _tiny_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        setting="decentralized",
        aggregation="box-geom",
        num_clients=6,
        num_byzantine=1,
        rounds=3,
        num_samples=60,
        batch_size=8,
        mlp_hidden=(8, 4),
        seed=5,
    )
    return base.with_overrides(**overrides)


@pytest.mark.parametrize(
    "scheduler_kw",
    [
        dict(scheduler="partial", delay=2),
        dict(scheduler="asynchronous", wait_timeout=2.0, burstiness=0.2),
    ],
    ids=["partial", "asynchronous"],
)
def test_classification_outcomes_match_across_modes(scheduler_kw):
    from repro.analysis.traces import classify_trace

    outcomes = {}
    for mode in RNG_MODES:
        config = _tiny_config(rng_mode=mode, **scheduler_kw)
        history = run_experiment(config)
        accuracies = list(history.accuracies())
        outcomes[mode] = classify_trace(accuracies)
        # Either mode trains to a sane accuracy trace.
        assert all(0.0 <= acc <= 1.0 for acc in accuracies)
    assert outcomes["scalar"] == outcomes["vectorized"], outcomes


# ---------------------------------------------------------------------------
# 4. scalar-mode RNG stream isolation (regression, all four schedulers)
# ---------------------------------------------------------------------------

SCHEDULER_SETUPS = {
    "synchronous": {},
    "partial": {"delay": 2, "seed": 11},
    "lossy": {"drop_rate": 0.2, "crash_schedule": ((1, 1, 3),), "seed": 11},
    "asynchronous": {"wait_timeout": 2.0, "burstiness": 0.4, "seed": 11},
}

VARIANTS = {
    "baseline": {},
    "node_trace": {"node_trace": True},
    "complete_topology": {"topology": "complete"},
}


def _run_variant(scheduler: str, variant: str, *, n: int = 7, rounds: int = 5):
    kwargs = dict(SCHEDULER_SETUPS[scheduler])
    extra = dict(VARIANTS[variant])
    if extra.pop("topology", None):
        extra["topology"] = make_topology("complete", n)
    if scheduler == "synchronous" and extra.get("node_trace"):
        # The synchronous scheduler records no stats; per-node tracing
        # is meaningless there (config-level validation rejects it).
        extra.pop("node_trace")
    engine = make_scheduler(
        scheduler, n, (n - 1,), keep_history=False, **kwargs, **extra
    )
    if scheduler == "asynchronous":
        engine.wait_for(count=n - 2)
    rng = np.random.default_rng(3)
    state = []
    for round_index in range(rounds):
        plans = [full_broadcast_plan(node, rng.random(4)) for node in range(n)]
        result = engine.submit(plans, round_index)
        for node in range(n):
            inbox = result.inboxes.get(node, [])
            if len(inbox):
                state.append((node, result.received_matrix(node).tobytes(),
                              tuple(result.senders(node))))
            else:
                state.append((node, b"", ()))
    return state, engine.stats_snapshot(), engine.trace_snapshot()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_SETUPS))
def test_scalar_stream_isolation(scheduler):
    """node_trace / an explicit complete topology never shift the stream.

    The scalar RNG streams are a bitwise contract: observability knobs
    and topology representations must be invisible to them, or
    paired-seed comparisons (and the pinned fixtures) silently break.
    """
    baseline = _run_variant(scheduler, "baseline")
    for variant in ("node_trace", "complete_topology"):
        assert _run_variant(scheduler, variant) == baseline, (
            f"{variant} shifted the {scheduler} scalar RNG stream"
        )


# ---------------------------------------------------------------------------
# 5. plumbing: resolution, validation, config/sweep/CLI surfaces
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_mode_registry_and_resolution(self, monkeypatch):
        assert RNG_MODES == ("scalar", "vectorized")
        monkeypatch.delenv("REPRO_RNG_MODE", raising=False)
        assert resolve_rng_mode(None) == "scalar"
        assert resolve_rng_mode("VECTORIZED") == "vectorized"
        with pytest.raises(ValueError, match="unknown rng_mode"):
            resolve_rng_mode("simd")
        monkeypatch.setenv("REPRO_RNG_MODE", "vectorized")
        engine = make_scheduler("partial", 4, delay=1)
        assert engine.rng_mode == "vectorized"
        monkeypatch.delenv("REPRO_RNG_MODE")
        assert make_scheduler("partial", 4, delay=1).rng_mode == "scalar"

    def test_deterministic_schedulers_reject_vectorized(self):
        with pytest.raises(ValueError, match="only meaningful"):
            make_scheduler("synchronous", 4, rng_mode="vectorized")
        with pytest.raises(ValueError, match="only meaningful"):
            make_scheduler("lossy", 4, drop_rate=0.1, rng_mode="vectorized")
        # The deterministic schedulers report the trivial scalar mode.
        assert make_scheduler("synchronous", 4).rng_mode == "scalar"

    def test_config_validation_and_engine_threading(self):
        from repro.learning.experiment import _make_engine

        config = _tiny_config(scheduler="partial", delay=2,
                              rng_mode="vectorized")
        engine = _make_engine(config, config.num_clients, ())
        assert engine.rng_mode == "vectorized"
        with pytest.raises(ValueError, match="rng_mode"):
            _tiny_config(rng_mode="vectorized")  # synchronous scheduler
        with pytest.raises(ValueError, match="unknown rng_mode"):
            _tiny_config(rng_mode="simd")

    def test_config_dict_elides_scalar_mode(self):
        from repro.sweep.grid import CONFIG_FIELDS, config_from_dict, config_to_dict

        assert "rng_mode" in CONFIG_FIELDS  # a valid sweep axis
        scalar = _tiny_config(scheduler="partial", delay=2)
        data = config_to_dict(scalar)
        assert "rng_mode" not in data  # byte-identical to pre-axis rows
        assert config_from_dict(data).rng_mode == "scalar"
        vector = config_to_dict(scalar.with_overrides(rng_mode="vectorized"))
        assert vector["rng_mode"] == "vectorized"
        assert config_from_dict(vector).rng_mode == "vectorized"

    def test_rng_mode_is_a_sweep_axis(self):
        from repro.sweep.grid import ScenarioGrid

        grid = ScenarioGrid(
            base=_tiny_config(scheduler="partial", delay=2),
            axes={"rng_mode": ["scalar", "vectorized"]},
            derive_seeds=False,  # paired: only the draw strategy varies
        )
        cells = list(grid.validate())
        assert [cell.config.rng_mode for cell in cells] == [
            "scalar", "vectorized",
        ]
        assert [cell.axes["rng_mode"] for cell in cells] == [
            "scalar", "vectorized",
        ]

    def test_cli_flag_threads_into_config(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "--scheduler", "partial", "--delay", "2",
             "--rng-mode", "vectorized", "--setting", "decentralized"]
        )
        assert args.rng_mode == "vectorized"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--rng-mode", "simd"])
