"""Unit tests for the network layer: delivery, latency, CPU queueing."""

import hashlib

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.network.node import Network, NetworkConfig, Node
from repro.network.simulator import Simulator


class Recorder(Node):
    """A node that records everything it receives."""

    def __init__(self, node_id, cost=None):
        super().__init__(node_id)
        self.received = []
        self._cost = cost

    def processing_cost(self, message):
        return self._cost

    def on_message(self, sender, message):
        self.received.append((sender, message, self.now))


class Greeter(Recorder):
    """Broadcasts one greeting when the simulation starts."""

    def on_start(self):
        self.broadcast({"hello": self.node_id}, include_self=False)


def build(node_cls=Recorder, count=3, config=None, **kwargs):
    simulator = Simulator()
    network = Network(simulator, config or NetworkConfig(seed=5))
    nodes = [node_cls(i, **kwargs) for i in range(count)]
    network.add_nodes(nodes)
    return simulator, network, nodes


class TestDelivery:
    def test_broadcast_reaches_everyone_else(self):
        _, network, nodes = build(Greeter)
        network.run()
        for node in nodes:
            senders = {sender for sender, _msg, _t in node.received}
            assert senders == set(range(3)) - {node.node_id}

    def test_latency_is_at_least_the_base(self):
        config = NetworkConfig(latency_base=0.01, latency_mean=0.0, seed=1)
        _, network, nodes = build(Greeter, config=config)
        network.run()
        for node in nodes:
            for _sender, _msg, at in node.received:
                assert at >= 0.01

    def test_message_counters(self):
        _, network, _ = build(Greeter)
        network.run()
        assert network.messages_sent == 6
        assert network.messages_delivered == 6

    def test_unknown_recipient_rejected(self):
        simulator = Simulator()
        network = Network(simulator, NetworkConfig())
        node = Recorder(0)
        network.add_node(node)
        network.start()
        with pytest.raises(Exception):
            node.send(99, "hi")

    def test_duplicate_node_id_rejected(self):
        simulator = Simulator()
        network = Network(simulator, NetworkConfig())
        network.add_node(Recorder(0))
        with pytest.raises(ConfigurationError):
            network.add_node(Recorder(0))

    def test_a_multicast_draws_and_counts_like_sends_one_by_one(self):
        def run(fan_out):
            _, network, nodes = build(count=5, config=NetworkConfig(seed=3))
            network.start()
            for message in range(20):
                fan_out(network, (4, 0, 2, 2, 1), message)
            network.run()
            return (
                [node.received for node in nodes],
                [(node.stats.sent, node.stats.received) for node in nodes],
                (network.messages_sent, network.messages_delivered),
                network._rng.state(),
            )

        def one_by_one(network, recipients, message):
            for recipient in recipients:
                network.node(3).send(recipient, message)

        one_call = run(lambda network, recipients, message: network.multicast(3, recipients, message))
        assert one_call == run(one_by_one)
        assert one_call[2] == (100, 100)

    def test_equal_link_delays_deliver_a_fan_out_in_recipient_order(self):
        # With no random delay every delivery of one multicast ties on time,
        # so only the sequence numbers the fan-out took order them.
        config = NetworkConfig(latency_base=0.001, latency_mean=0.0, seed=1)
        _, network, nodes = build(count=4, config=config)
        order = []
        for node in nodes:
            node.on_message = lambda sender, message, node_id=node.node_id: order.append(node_id)
        network.multicast(0, (3, 1, 2, 0), "x")
        network.run()
        assert order == [3, 1, 2, 0]

    def test_an_unknown_recipient_stops_a_multicast_where_sends_would_stop(self):
        simulator, network, nodes = build()
        with pytest.raises(SimulationError):
            network.multicast(0, (1, 9, 2), "x")
        assert nodes[0].stats.sent == 2
        assert network.messages_sent == 1
        # The delivery drawn before the unknown recipient is queued, as sequence 0.
        assert simulator.pending_events == 1
        assert simulator.schedule(0.0, lambda: None).sequence == 1


class TestCpuModel:
    def test_cpu_queueing_serialises_processing(self):
        # 10 messages arriving at once at a node with 1 ms per message must
        # finish processing no earlier than 10 ms after the first arrival.
        config = NetworkConfig(latency_base=0.001, latency_mean=0.0,
                               processing_time=0.001, seed=1)
        simulator = Simulator()
        network = Network(simulator, config)
        sender, receiver = Recorder(0), Recorder(1)
        network.add_nodes([sender, receiver])
        network.start()
        for _ in range(10):
            sender.send(1, "x")
        network.run()
        assert len(receiver.received) == 10
        assert simulator.now >= 0.001 + 10 * 0.001 - 1e-9
        assert network.cpu_utilisation(1) > 0.5

    def test_per_node_processing_cost_override(self):
        config = NetworkConfig(latency_base=0.001, latency_mean=0.0,
                               processing_time=0.001, seed=1)
        simulator = Simulator()
        network = Network(simulator, config)
        sender = Recorder(0)
        expensive = Recorder(1, cost=0.05)
        network.add_nodes([sender, expensive])
        network.start()
        sender.send(1, "x")
        network.run()
        assert simulator.now >= 0.05

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(Simulator(), NetworkConfig(processing_time=-1))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["latency_base", "latency_mean", "processing_time", "signature_verification_time"]
    )
    def test_non_finite_times_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            Network(Simulator(), NetworkConfig(**{field: value}))


class TestTimers:
    def test_set_timer_fires(self):
        _, network, nodes = build()
        fired = []
        network.start()
        nodes[0].set_timer(0.05, lambda: fired.append(nodes[0].now))
        network.run()
        assert fired == [pytest.approx(0.05)]


class Chatter(Node):
    """Greets everyone (itself included) at start and acknowledges every greeting."""

    def __init__(self, node_id, cost, log):
        super().__init__(node_id)
        self._cost = cost
        self._log = log

    def on_start(self):
        self.broadcast(("hello", self.node_id))

    def processing_cost(self, message):
        return self._cost

    def on_message(self, sender, message):
        self._log.append((self.node_id, sender, message[0]))
        if message[0] == "hello":
            self.send(sender, ("ack", self.node_id))


def exchange():
    """A fixed 4-node exchange; node 2 overrides its processing cost."""
    simulator = Simulator()
    config = NetworkConfig(processing_time=0.0002, seed=11)
    network = Network(simulator, config)
    log = []
    network.add_nodes([Chatter(i, 0.0004 if i == 2 else None, log) for i in range(4)])
    network.run()
    return {
        "order": log,  # (recipient, sender, kind) in processing order
        "stats": [
            (n.stats.sent, n.stats.received, n.stats.processed, n.stats.busy_time)
            for n in network.nodes
        ],
        "counters": (network.messages_sent, network.messages_delivered),
        "cpu_free_at": dict(network._cpu_free_at),
        "rng": hashlib.sha256(repr(network._rng.state()).encode()).hexdigest()[:16],
        "now": simulator.now,
        "events": simulator.processed_events,
    }


class TestTheMessagePathIsPinned:
    """What one message costs may change; what it *does* may not.

    The expected values are what the closure-and-f-string message path
    produced before it was rewritten.  Every message draws one latency, so
    the RNG state after the run pins the draw order too; every message is
    still two events.
    """

    def test_lossless_exchange(self):
        assert exchange() == {
            "counters": (32, 32),
            "cpu_free_at": {
                0: 0.004304704009188791,
                1: 0.00455933976958863,
                2: 0.006550850202135427,
                3: 0.005257395555419073,
            },
            "events": 64,
            "now": 0.006550850202135427,
            "order": [
                (1, 1, "hello"), (0, 2, "hello"), (3, 1, "hello"), (1, 0, "hello"),
                (2, 0, "hello"), (3, 0, "hello"), (0, 1, "hello"), (2, 1, "hello"),
                (0, 3, "hello"), (1, 2, "hello"), (0, 1, "ack"), (2, 3, "hello"),
                (0, 0, "hello"), (1, 1, "ack"), (2, 2, "hello"), (0, 2, "ack"),
                (3, 0, "ack"), (0, 3, "ack"), (2, 0, "ack"), (1, 3, "ack"),
                (3, 3, "hello"), (1, 0, "ack"), (1, 3, "hello"), (2, 1, "ack"),
                (0, 0, "ack"), (3, 3, "ack"), (1, 2, "ack"), (3, 2, "ack"),
                (3, 2, "hello"), (2, 2, "ack"), (3, 1, "ack"), (2, 3, "ack"),
            ],
            "rng": "1f7f4384961515a9",
            "stats": [
                (8, 8, 8, 0.0016000000000000003),
                (8, 8, 8, 0.0016000000000000003),
                (8, 8, 8, 0.0032000000000000006),
                (8, 8, 8, 0.0016000000000000003),
            ],
        }


def bracha_group():
    """Four Figure 4 processes over Bracha, eight transfers."""
    from repro.mp.system import ClientSubmission, ConsensuslessSystem

    system = ConsensuslessSystem(process_count=4, network_config=NetworkConfig(seed=11), seed=11)
    system.schedule_submissions(
        ClientSubmission(time=0.0001 * i, issuer=i % 4, destination=str((i + 1) % 4), amount=5)
        for i in range(8)
    )
    result = system.run()
    network = system.network
    return {
        "node_stats": [
            (n.stats.sent, n.stats.received, n.stats.processed, n.stats.busy_time)
            for n in network.nodes
        ],
        "layer_stats": [
            (s.broadcasts_started, s.messages_sent, s.delivered, s.payload_items)
            for s in (n.broadcast_layer.stats for n in network.nodes)
        ],
        "counters": (network.messages_sent, network.messages_delivered),
        "rng": hashlib.sha256(repr(network._rng.state()).encode()).hexdigest()[:16],
        "events": system.simulator.processed_events,
        "committed": result.committed_count,
    }


class TestTheLayerFanOutIsPinned:
    """The broadcast layers' all-to-all sends, pinned like ``Node.broadcast``.

    The values are what per-recipient sends produced; the RNG digest pins
    one latency draw per recipient, in membership order.
    """

    def test_bracha_group(self):
        assert bracha_group() == {
            "committed": 8,
            "counters": (288, 288),
            "events": 584,
            "layer_stats": [(2, 72, 8, 8), (2, 72, 8, 8), (2, 72, 8, 8), (2, 72, 8, 8)],
            "node_stats": [
                (72, 72, 72, 0.001160000000000001),
                (72, 72, 72, 0.001160000000000001),
                (72, 72, 72, 0.001160000000000001),
                (72, 72, 72, 0.001160000000000001),
            ],
            "rng": "b9e28945a19ec77a",
        }


class TestMembershipViews:
    def test_views_reflect_a_node_added_after_their_first_use(self):
        _, network, nodes = build(count=2)
        assert network.node_ids == nodes[0].peers == (0, 1)
        assert network.nodes == tuple(nodes)
        late, first = Recorder(7), Recorder(-1)
        network.add_node(late)
        network.add_node(first)
        assert network.node_ids == nodes[0].peers == late.peers == (-1, 0, 1, 7)
        assert network.nodes == (first, nodes[0], nodes[1], late)
        assert len(network) == 4
        # The fan-out reaches the late joiners; they can send and be sent to.
        nodes[0].broadcast("hi", include_self=False)
        late.send(-1, "psst")
        network.run()
        assert [m for _, m, _ in late.received] == ["hi"]
        assert sorted(m for _, m, _ in first.received) == ["hi", "psst"]

    def test_sending_before_attachment_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            Recorder(0).send(1, "x")
