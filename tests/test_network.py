"""Tests for the network simulation substrate (message, broadcast, rounds)."""

import numpy as np
import pytest

from repro.engine.synchronous import SynchronousScheduler
from repro.network.delivery import RoundResult, full_broadcast_plan
from repro.network.message import Message
from repro.network.reliable_broadcast import BroadcastPlan, ReliableBroadcast
from repro.network.topology import complete_topology, neighbours, validate_topology


class TestMessage:
    def test_payload_copied_and_readonly(self):
        payload = np.array([1.0, 2.0])
        msg = Message(sender=0, round_index=0, payload=payload)
        payload[0] = 99.0
        assert msg.payload[0] == 1.0
        with pytest.raises(ValueError):
            msg.payload[0] = 5.0

    def test_dimension(self):
        msg = Message(sender=1, round_index=2, payload=np.zeros(7))
        assert msg.dimension == 7

    def test_invalid_sender(self):
        with pytest.raises(ValueError):
            Message(sender=-1, round_index=0, payload=np.zeros(2))

    def test_invalid_round(self):
        with pytest.raises(ValueError):
            Message(sender=0, round_index=-1, payload=np.zeros(2))

    def test_empty_payload(self):
        with pytest.raises(ValueError):
            Message(sender=0, round_index=0, payload=np.array([]))

    def test_with_payload(self):
        msg = Message(sender=0, round_index=3, payload=np.zeros(2), metadata={"a": 1})
        new = msg.with_payload(np.ones(2))
        assert new.sender == 0 and new.round_index == 3
        np.testing.assert_allclose(new.payload, [1.0, 1.0])
        assert new.metadata == {"a": 1}


class TestTopology:
    def test_complete_graph_size(self):
        graph = complete_topology(5)
        validate_topology(graph, 5)
        assert set(neighbours(graph, 0)) == {0, 1, 2, 3, 4}

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            complete_topology(0)

    def test_validate_mismatch(self):
        graph = complete_topology(4)
        with pytest.raises(ValueError):
            validate_topology(graph, 5)

    def test_neighbours_unknown_node(self):
        graph = complete_topology(3)
        with pytest.raises(ValueError):
            neighbours(graph, 7)


class TestReliableBroadcast:
    def test_full_delivery(self):
        rb = ReliableBroadcast(4)
        plans = [BroadcastPlan(sender=i, payload=np.full(2, float(i))) for i in range(4)]
        inbox = rb.deliver(plans, round_index=0)
        assert all(len(inbox[node]) == 4 for node in range(4))

    def test_silent_sender_omitted(self):
        rb = ReliableBroadcast(3)
        plans = [
            BroadcastPlan(sender=0, payload=np.zeros(2)),
            BroadcastPlan(sender=1, payload=None),
            BroadcastPlan(sender=2, payload=np.ones(2)),
        ]
        inbox = rb.deliver(plans, round_index=0)
        assert [m.sender for m in inbox[0]] == [0, 2]

    def test_honest_sender_cannot_restrict_recipients(self):
        rb = ReliableBroadcast(3, byzantine=[2])
        bad_plan = BroadcastPlan(sender=0, payload=np.zeros(2), recipients=frozenset({1}))
        with pytest.raises(ValueError):
            rb.validate_plan(bad_plan)

    def test_byzantine_selective_omission(self):
        rb = ReliableBroadcast(4, byzantine=[3])
        plans = [BroadcastPlan(sender=i, payload=np.full(2, float(i))) for i in range(3)]
        plans.append(
            BroadcastPlan(sender=3, payload=np.full(2, 99.0), recipients=frozenset({0, 1}))
        )
        inbox = rb.deliver(plans, round_index=1)
        assert 3 in [m.sender for m in inbox[0]]
        assert 3 in [m.sender for m in inbox[1]]
        assert 3 not in [m.sender for m in inbox[2]]

    def test_no_equivocation_one_plan_per_sender(self):
        rb = ReliableBroadcast(3, byzantine=[0])
        plans = [
            BroadcastPlan(sender=0, payload=np.zeros(2)),
            BroadcastPlan(sender=0, payload=np.ones(2)),
        ]
        with pytest.raises(ValueError):
            rb.deliver(plans, round_index=0)

    def test_delivery_order_deterministic_by_sender(self):
        rb = ReliableBroadcast(3)
        plans = [BroadcastPlan(sender=i, payload=np.full(1, float(i))) for i in (2, 0, 1)]
        inbox = rb.deliver(plans, round_index=0)
        assert [m.sender for m in inbox[0]] == [0, 1, 2]

    def test_out_of_range_byzantine_ids(self):
        with pytest.raises(ValueError):
            ReliableBroadcast(3, byzantine=[5])

    def test_out_of_range_sender(self):
        rb = ReliableBroadcast(2)
        with pytest.raises(ValueError):
            rb.validate_plan(BroadcastPlan(sender=5, payload=np.zeros(1)))


class TestSynchronousNetwork:
    """The paper's lock-step network: :class:`SynchronousScheduler`."""

    def test_round_delivers_to_honest_nodes(self):
        net = SynchronousScheduler(4, byzantine=[3])
        values = {i: np.full(3, float(i)) for i in range(3)}
        result = net.run_round(
            0,
            honest_plan=lambda node, r: full_broadcast_plan(node, values[node]),
            adversary_plan=lambda node, r, honest: BroadcastPlan(sender=node, payload=np.full(3, -1.0)),
        )
        assert isinstance(result, RoundResult)
        for node in (0, 1, 2):
            mat = result.received_matrix(node)
            assert mat.shape == (4, 3)
            assert result.senders(node) == [0, 1, 2, 3]

    def test_silent_adversary(self):
        net = SynchronousScheduler(4, byzantine=[3])
        values = {i: np.zeros(2) for i in range(3)}
        result = net.run_round(
            0, honest_plan=lambda node, r: full_broadcast_plan(node, values[node])
        )
        for node in (0, 1, 2):
            assert result.received_matrix(node).shape == (3, 2)

    def test_quorum_violation_detected(self):
        net = SynchronousScheduler(4, byzantine=[2, 3])
        net.require_quorum(3)
        values = {i: np.zeros(2) for i in (0, 1)}
        with pytest.raises(RuntimeError):
            net.run_round(
                0, honest_plan=lambda node, r: full_broadcast_plan(node, values[node])
            )

    def test_honest_plan_must_have_payload(self):
        net = SynchronousScheduler(2)
        with pytest.raises(ValueError):
            net.run_round(0, honest_plan=lambda node, r: BroadcastPlan(sender=node, payload=None))

    def test_honest_plan_sender_mismatch(self):
        net = SynchronousScheduler(2)
        with pytest.raises(ValueError):
            net.run_round(
                0, honest_plan=lambda node, r: full_broadcast_plan((node + 1) % 2, np.zeros(1))
            )

    def test_history_recorded_and_reset(self):
        net = SynchronousScheduler(3)
        values = {i: np.zeros(1) for i in range(3)}
        net.run_round(0, honest_plan=lambda node, r: full_broadcast_plan(node, values[node]))
        assert len(net.history) == 1
        net.reset_history()
        assert net.history == []

    def test_received_matrix_empty_inbox_raises(self):
        result = RoundResult(round_index=0, inboxes={0: []})
        with pytest.raises(ValueError):
            result.received_matrix(0)
