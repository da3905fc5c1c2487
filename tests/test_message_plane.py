"""Array-backed delivery acceptance tests.

Four contracts of the array-backed delivery path:

1. **Bitwise equivalence** — every scheduler must reproduce the outputs
   of the per-message object plane it replaced, exactly.  The reference
   numbers live in ``tests/fixtures/message_plane_pre_refactor.json`` /
   ``sweep_rows_pre_message_plane.jsonl`` (generated before the array
   path existed; floats survive the JSON round trip losslessly, so
   ``==`` is bitwise, and sweep rows compare as serialised byte
   strings) and ``delivery_pre_single_plane.json`` (raw exchanges,
   Byzantine omission and pinned delays, taken on the object plane
   just before it was deleted — matrices compare by digest of their
   bytes, senders, send rounds, counters and traces exactly).
2. **Per-node delivery resolution** — with ``node_trace`` the engines
   resolve every counter per receiver; the per-node arrays must sum
   exactly to the aggregate counters and the per-round trace, and obey
   per-node conservation (``sent == delivered + dropped/expired +
   pending``).
3. **Zero-copy message views** — ``Message`` adopts already-immutable
   payloads (batch rows) without the defensive copy, while anything a
   caller could still mutate keeps being copied.
4. **Sparse-structure transport** — a single-batch inbox's matrix
   carries a projected :class:`SparsityProfile` identical to what
   consumer-side ``detect_structure`` would claim.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.aggregation.context import AggregationContext
from repro.engine import make_scheduler
from repro.io.results import history_to_dict
from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.linalg.sparsity import detect_structure, project_profile
from repro.network.batch import BatchInbox, build_round_batch, resolve_message_plane
from repro.network.delivery import full_broadcast_plan
from repro.network.message import Message
from repro.network.reliable_broadcast import BroadcastPlan

FIXTURES_DIR = Path(__file__).parent / "fixtures"
HISTORY_FIXTURE = FIXTURES_DIR / "message_plane_pre_refactor.json"
ROWS_FIXTURE = FIXTURES_DIR / "sweep_rows_pre_message_plane.jsonl"
DELIVERY_FIXTURE = FIXTURES_DIR / "delivery_pre_single_plane.json"


def _load_generator(name: str):
    spec = importlib.util.spec_from_file_location(name, FIXTURES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fixture_gen = _load_generator("make_message_plane_fixtures")
delivery_gen = _load_generator("make_delivery_fixtures")

SCHEDULER_SETUPS = delivery_gen.SCHEDULER_SETUPS


# ---------------------------------------------------------------------------
# 1. bitwise equivalence
# ---------------------------------------------------------------------------

class TestPinnedFixtures:
    """Batch-plane outputs against the pre-refactor object-plane pins."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(HISTORY_FIXTURE.read_text())

    @pytest.mark.parametrize("label", sorted(fixture_gen.experiment_cases()))
    def test_experiment_history_bitwise_identical(self, pinned, label):
        config = fixture_gen.experiment_cases()[label]
        history = history_to_dict(run_experiment(config))
        assert history == pinned["histories"][label]

    def test_agreement_traces_bitwise_identical(self, pinned):
        assert fixture_gen.agreement_traces() == pinned["agreement"]

    def test_sweep_rows_byte_identical(self):
        expected = ROWS_FIXTURE.read_text().splitlines()
        assert fixture_gen.sweep_row_lines() == expected


def pinned_delivery(label: str) -> dict:
    """The object plane's pinned record for one delivery case."""
    return json.loads(DELIVERY_FIXTURE.read_text())["cases"][label]


def delivery_record(label: str) -> dict:
    """The current delivery path's record, normalised through JSON."""
    return json.loads(json.dumps(delivery_gen.run_case(label)))


class TestCrossPlaneEquivalence:
    """Delivery against the object plane's outputs pinned before its removal."""

    def test_fixture_was_taken_on_the_object_plane(self):
        pinned = json.loads(DELIVERY_FIXTURE.read_text())
        assert pinned["message_plane"] == "object"
        assert len(pinned["generated_at_commit"]) == 40
        assert sorted(pinned["cases"]) == sorted(delivery_gen.case_labels())

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_SETUPS))
    def test_raw_exchange_identical(self, scheduler):
        label = f"raw/{scheduler}"
        assert delivery_record(label) == pinned_delivery(label)

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_SETUPS))
    def test_byzantine_omission_and_pinned_delays_identical(self, scheduler):
        label = f"omission/{scheduler}"
        assert delivery_record(label) == pinned_delivery(label)

    def test_resolve_message_plane_names_the_one_plane(self):
        assert resolve_message_plane(None) == "batch"
        assert resolve_message_plane("Batch") == "batch"
        with pytest.raises(ValueError, match="unknown message plane"):
            resolve_message_plane("object")


# ---------------------------------------------------------------------------
# 2. per-node delivery resolution
# ---------------------------------------------------------------------------

def _run_node_traced(scheduler: str, *, rounds: int = 6, n: int = 6):
    kwargs = dict(SCHEDULER_SETUPS[scheduler])
    engine = make_scheduler(
        scheduler, n, (), keep_history=False, node_trace=True, **kwargs
    )
    if scheduler == "asynchronous":
        engine.wait_for(count=n - 1)
    rng = np.random.default_rng(9)
    for round_index in range(rounds):
        plans = [
            full_broadcast_plan(node, rng.normal(size=3)) for node in range(n)
        ]
        engine.submit(plans, round_index)
    return engine


@pytest.mark.parametrize("scheduler", ["lossy", "partial", "asynchronous"])
def test_node_stats_sum_to_aggregate_counters(scheduler):
    engine = _run_node_traced(scheduler)
    stats = engine.stats_snapshot()
    node_stats = engine.node_stats_snapshot()
    for key, values in node_stats.items():
        assert len(values) == engine.n
        assert sum(values) == stats[key], key


@pytest.mark.parametrize("scheduler", ["lossy", "partial", "asynchronous"])
def test_node_trace_rows_aggregate_to_round_trace(scheduler):
    engine = _run_node_traced(scheduler)
    trace = engine.trace_snapshot()
    node_trace = engine.node_trace_snapshot()
    assert [row["round"] for row in node_trace] == [row["round"] for row in trace]
    for agg_row, node_row in zip(trace, node_trace):
        agg_keys = {k for k in agg_row if k != "round"}
        node_keys = {k for k in node_row if k != "round"}
        assert node_keys == agg_keys
        for key in agg_keys:
            assert sum(node_row[key]) == agg_row[key], key


def test_lossy_per_node_conservation():
    engine = _run_node_traced("lossy")
    node = engine.node_stats_snapshot()
    sent = np.asarray(node["sent"])
    outcomes = (
        np.asarray(node["delivered"])
        + np.asarray(node.get("dropped", [0] * engine.n))
        + np.asarray(node.get("crash_omitted", [0] * engine.n))
    )
    assert np.array_equal(sent, outcomes)


@pytest.mark.parametrize("scheduler", ["partial", "asynchronous"])
def test_in_flight_per_node_conservation(scheduler):
    engine = _run_node_traced(scheduler)
    node = engine.node_stats_snapshot()
    pending = engine.pending_count_per_node()
    assert int(pending.sum()) == engine.pending_count()
    sent = np.asarray(node["sent"])
    accounted = np.asarray(node["delivered"]) + pending
    assert np.array_equal(sent, accounted)
    # After a reset the in-flight tail is booked as expired, per node.
    engine.reset()
    node = engine.node_stats_snapshot()
    expired = np.asarray(node.get("expired_at_reset", [0] * engine.n))
    assert np.array_equal(np.asarray(node["sent"]),
                          np.asarray(node["delivered"]) + expired)
    assert engine.pending_count() == 0


def test_experiment_config_node_trace_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(node_trace=True)  # synchronous default scheduler
    config = ExperimentConfig(scheduler="lossy", drop_rate=0.1, node_trace=True)
    assert config.node_trace


def test_experiment_node_trace_populates_history():
    config = fixture_gen.base_config(
        scheduler="lossy", drop_rate=0.15, crash_schedule=((1, 1, 3),),
        node_trace=True,
    )
    history = run_experiment(config)
    assert history.node_stats
    for key, values in history.node_stats.items():
        assert sum(values) == history.network_stats[key], key
    assert history.node_delivery_trace
    # The flag changes recording only, never delivery or training.
    baseline = run_experiment(config.with_overrides(node_trace=False))
    assert history.accuracies() == baseline.accuracies()
    assert history.network_stats == baseline.network_stats
    # Round trip through the JSON layer.
    from repro.io.results import history_from_dict

    restored = history_from_dict(history_to_dict(history))
    assert restored.node_stats == history.node_stats
    assert restored.node_delivery_trace == history.node_delivery_trace


def test_config_dict_elides_default_node_trace():
    from repro.sweep.grid import config_from_dict, config_to_dict

    default = config_to_dict(ExperimentConfig())
    assert "node_trace" not in default
    assert not config_from_dict(default).node_trace
    traced = config_to_dict(
        ExperimentConfig(scheduler="lossy", drop_rate=0.1, node_trace=True)
    )
    assert traced["node_trace"] is True
    assert config_from_dict(traced).node_trace


def test_node_stats_summary_reading():
    from repro.analysis.reporting import node_stats_summary

    summary = node_stats_summary(
        {"sent": [10, 10, 10], "delivered": [10, 4, 0]}
    )
    assert summary["nodes"] == 3
    assert summary["totals"] == {"sent": 30, "delivered": 14}
    assert summary["worst_node"] == 2
    assert summary["worst_node_deliv"] == 0.0


# ---------------------------------------------------------------------------
# 3. zero-copy message views / mutation protection
# ---------------------------------------------------------------------------

class TestMessagePayloadTrust:
    def test_writable_payload_is_copied(self):
        source = np.ones(4)
        message = Message(sender=0, round_index=0, payload=source)
        source[0] = 99.0
        assert message.payload[0] == 1.0
        assert not message.payload.flags.writeable

    def test_readonly_view_of_writable_base_is_copied(self):
        # The owner of the base could still mutate through its own
        # reference, so a read-only *view* must not be trusted.
        base = np.arange(4.0)
        view = base[:]
        view.setflags(write=False)
        message = Message(sender=0, round_index=0, payload=view)
        base[0] = 99.0
        assert message.payload[0] == 0.0

    def test_immutable_chain_is_adopted_without_copy(self):
        owned = np.arange(4.0)
        owned.setflags(write=False)
        message = Message(sender=0, round_index=0, payload=owned)
        assert message.payload is owned

    def test_batch_row_view_is_adopted_without_copy(self):
        plans = {i: full_broadcast_plan(i, np.arange(3.0) + i) for i in range(3)}
        batch = build_round_batch(plans, 0, 3)
        inbox = BatchInbox.single(batch, batch.full_rows())
        message = inbox[1]
        assert np.shares_memory(message.payload, batch.payloads)
        assert not message.payload.flags.writeable

    def test_with_payload_adopts_trusted_without_copy(self):
        message = Message(sender=0, round_index=0, payload=np.ones(3))
        replacement = np.full(3, 2.0)
        replacement.setflags(write=False)
        assert message.with_payload(replacement).payload is replacement

    def test_untrusted_inputs_still_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            Message(sender=0, round_index=0, payload=np.empty(0))
        empty = np.empty(0, dtype=np.float64)
        empty.setflags(write=False)
        with pytest.raises(ValueError, match="non-empty"):
            Message(sender=0, round_index=0, payload=empty)


# ---------------------------------------------------------------------------
# batch container behaviour
# ---------------------------------------------------------------------------

class TestBatchInbox:
    @pytest.fixture
    def batch(self):
        plans = {
            i: full_broadcast_plan(i, np.arange(4.0) * (i + 1)) for i in range(5)
        }
        return build_round_batch(plans, 2, 5)

    def test_sequence_protocol(self, batch):
        inbox = BatchInbox.single(batch, np.asarray([0, 2, 4], dtype=np.int64))
        assert len(inbox) == 3
        assert [m.sender for m in inbox] == [0, 2, 4]
        assert inbox[-1].sender == 4
        assert [m.sender for m in inbox[1:]] == [2, 4]
        with pytest.raises(IndexError):
            inbox[3]
        assert inbox.senders() == [0, 2, 4]
        assert inbox[1] is inbox[1]  # lazy views are cached

    def test_matrix_matches_message_stacking(self, batch):
        inbox = BatchInbox.single(batch, np.asarray([1, 3], dtype=np.int64))
        stacked = np.stack([m.payload for m in inbox], axis=0)
        assert inbox.matrix().tobytes() == stacked.tobytes()

    def test_full_inbox_matrix_is_zero_copy(self, batch):
        inbox = BatchInbox.single(batch, batch.full_rows())
        matrix = inbox.matrix()
        assert np.shares_memory(matrix, batch.payloads)

    def test_empty_inbox(self):
        inbox = BatchInbox.empty()
        assert len(inbox) == 0
        assert inbox.senders() == []
        with pytest.raises(ValueError, match="empty inbox"):
            inbox.matrix()

    def test_unicast_batch_builds_delivery_mask(self):
        plans = {
            0: full_broadcast_plan(0, np.ones(2)),
            1: BroadcastPlan(sender=1, payload=np.ones(2) * 2,
                             recipients=frozenset({2})),
        }
        batch = build_round_batch(plans, 0, 3)
        mask = batch.delivers_mask()
        assert mask[0].all()  # earlier full broadcast backfilled
        assert mask[1].tolist() == [False, False, True]

    def test_dimension_mismatch_rejected(self):
        plans = {
            0: full_broadcast_plan(0, np.ones(2)),
            1: full_broadcast_plan(1, np.ones(3)),
        }
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_round_batch(plans, 0, 2)


# ---------------------------------------------------------------------------
# 4. sparse-structure transport
# ---------------------------------------------------------------------------

class TestProfileTransport:
    @pytest.fixture
    def structured_batch(self):
        # Duplicate rows (0 == 2) and an all-zero column.
        rows = np.asarray([
            [1.0, 0.0, 3.0, 0.0],
            [2.0, 0.0, 4.0, 5.0],
            [1.0, 0.0, 3.0, 0.0],
            [6.0, 0.0, 7.0, 8.0],
        ])
        plans = {i: full_broadcast_plan(i, rows[i]) for i in range(4)}
        return build_round_batch(plans, 0, 4)

    @staticmethod
    def _claims(profile):
        return (
            profile.row_group_ids.tolist(),
            profile.num_unique_rows,
            profile.nonzero_columns.tolist(),
            profile.num_zero_columns,
        )

    def test_projected_profile_matches_detection(self, structured_batch):
        for rows in ([0, 1, 2, 3], [0, 2, 3], [1, 3], [2]):
            selection = np.asarray(rows, dtype=np.int64)
            matrix = np.asarray(structured_batch.payloads)[selection]
            projected = project_profile(
                structured_batch.profile, selection, matrix
            )
            assert self._claims(projected) == self._claims(detect_structure(matrix))

    def test_inbox_matrix_carries_provider(self, structured_batch):
        inbox = BatchInbox.single(
            structured_batch, np.asarray([0, 2, 3], dtype=np.int64)
        )
        matrix = inbox.matrix()
        provider = getattr(matrix, "_profile_provider", None)
        assert provider is not None
        profile = provider(np.asarray(matrix))
        assert self._claims(profile) == self._claims(
            detect_structure(np.asarray(matrix))
        )
        # Derived arrays must drop the provider: a profile describes one
        # exact matrix, not anything computed from it.
        assert getattr(matrix + 1.0, "_profile_provider", None) is None
        assert getattr(matrix[1:], "_profile_provider", None) is None

    def test_context_consumes_transported_profile(self, structured_batch):
        inbox = BatchInbox.single(structured_batch, structured_batch.full_rows())
        context = AggregationContext(inbox.matrix())
        assert self._claims(context.profile) == self._claims(
            detect_structure(structured_batch.payloads)
        )

    def test_provider_rejects_foreign_matrix(self, structured_batch):
        inbox = BatchInbox.single(structured_batch, structured_batch.full_rows())
        provider = inbox.matrix()._profile_provider
        assert provider(np.zeros((2, 2))) is None
