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

    def test_drop_probability(self):
        config = NetworkConfig(seed=3, drop_probability=0.5)
        simulator = Simulator()
        network = Network(simulator, config)
        sender, receiver = Recorder(0), Recorder(1)
        network.add_nodes([sender, receiver])
        network.start()
        for _ in range(200):
            sender.send(1, "x")
        network.run()
        assert 40 < len(receiver.received) < 160
        assert network.messages_dropped == 200 - len(receiver.received)

    def test_a_multicast_draws_and_counts_like_sends_one_by_one(self):
        def run(fan_out):
            _, network, nodes = build(count=5, config=NetworkConfig(seed=3, drop_probability=0.3))
            network.start()
            for message in range(20):
                fan_out(network, (4, 0, 2, 2, 1), message)
            network.run()
            return (
                [node.received for node in nodes],
                [(node.stats.sent, node.stats.dropped) for node in nodes],
                (network.messages_sent, network.messages_delivered, network.messages_dropped),
                network.capture_state()["rng"],
            )

        def one_by_one(network, recipients, message):
            for recipient in recipients:
                network.node(3).send(recipient, message)

        one_call = run(lambda network, recipients, message: network.multicast(3, recipients, message))
        assert one_call == run(one_by_one)
        assert one_call[2][2] > 0

    def test_an_unknown_recipient_stops_a_multicast_where_sends_would_stop(self):
        _, network, nodes = build()
        with pytest.raises(SimulationError):
            network.multicast(0, (1, 9, 2), "x")
        assert nodes[0].stats.sent == 2
        assert network.messages_sent == 1


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
        with pytest.raises(ConfigurationError):
            Network(Simulator(), NetworkConfig(drop_probability=1.5))


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


def exchange(drop_probability):
    """A fixed 4-node exchange; node 2 overrides its processing cost."""
    simulator = Simulator()
    config = NetworkConfig(processing_time=0.0002, seed=11, drop_probability=drop_probability)
    network = Network(simulator, config)
    log = []
    network.add_nodes([Chatter(i, 0.0004 if i == 2 else None, log) for i in range(4)])
    network.run()
    state = network.capture_state()
    return {
        "order": log,  # (recipient, sender, kind) in processing order
        "stats": [
            (n.stats.sent, n.stats.received, n.stats.processed, n.stats.dropped, n.stats.busy_time)
            for n in network.nodes
        ],
        "counters": (network.messages_sent, network.messages_delivered, network.messages_dropped),
        "cpu_free_at": state["cpu_free_at"],
        "rng": hashlib.sha256(repr(state["rng"]).encode()).hexdigest()[:16],
        "now": simulator.now,
        "events": simulator.processed_events,
    }


class TestTheMessagePathIsPinned:
    """What one message costs may change; what it *does* may not.

    The expected values are what the closure-and-f-string message path
    produced before it was rewritten.  The drop draw comes before the latency
    draw and a dropped message draws no latency, so the RNG state after the
    run pins the draw order too; every message is still two events.
    """

    def test_lossless_exchange(self):
        assert exchange(0.0) == {
            "counters": (32, 32, 0),
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
                (8, 8, 8, 0, 0.0016000000000000003),
                (8, 8, 8, 0, 0.0016000000000000003),
                (8, 8, 8, 0, 0.0032000000000000006),
                (8, 8, 8, 0, 0.0016000000000000003),
            ],
        }

    def test_lossy_exchange(self):
        assert exchange(0.2) == {
            "counters": (27, 20, 7),
            "cpu_free_at": {
                0: 0.0033399310641233295,
                1: 0.005369992699361148,
                2: 0.004892134142780652,
                3: 0.006518089834168253,
            },
            "events": 40,
            "now": 0.006518089834168253,
            "order": [
                (0, 0, "hello"), (0, 1, "hello"), (0, 2, "hello"), (2, 1, "hello"),
                (0, 3, "hello"), (1, 2, "hello"), (3, 1, "hello"), (2, 0, "hello"),
                (1, 0, "ack"), (2, 0, "ack"), (3, 0, "ack"), (2, 2, "hello"),
                (3, 3, "hello"), (1, 3, "hello"), (0, 0, "ack"), (1, 2, "ack"),
                (2, 2, "ack"), (2, 1, "ack"), (1, 3, "ack"), (3, 1, "ack"),
            ],
            "rng": "0e26b18990399959",
            "stats": [
                (8, 5, 5, 1, 0.001),
                (6, 5, 5, 2, 0.001),
                (7, 6, 6, 1, 0.0024000000000000002),
                (6, 4, 4, 3, 0.0008),
            ],
        }


def lossy_bracha_group():
    """Four Figure 4 processes over Bracha, one in five messages dropped."""
    from repro.mp.system import ClientSubmission, ConsensuslessSystem

    system = ConsensuslessSystem(
        process_count=4,
        network_config=NetworkConfig(seed=11, drop_probability=0.2),
        seed=11,
    )
    system.schedule_submissions(
        ClientSubmission(time=0.0001 * i, issuer=i % 4, destination=str((i + 1) % 4), amount=5)
        for i in range(8)
    )
    result = system.run()
    network = system.network
    state = network.capture_state()
    return {
        "node_stats": [
            (n.stats.sent, n.stats.received, n.stats.processed, n.stats.dropped, n.stats.busy_time)
            for n in network.nodes
        ],
        "layer_stats": [
            (s.broadcasts_started, s.messages_sent, s.delivered, s.payload_items)
            for s in (n.broadcast_layer.stats for n in network.nodes)
        ],
        "counters": (network.messages_sent, network.messages_delivered, network.messages_dropped),
        "rng": hashlib.sha256(repr(state["rng"]).encode()).hexdigest()[:16],
        "events": system.simulator.processed_events,
        "committed": result.committed_count,
    }


class TestTheLayerFanOutIsPinned:
    """The broadcast layers' all-to-all sends, pinned like ``Node.broadcast``.

    The values are what per-recipient sends produced; under loss the RNG
    digest pins one drop draw, then one latency draw if kept, per recipient
    in membership order.
    """

    def test_lossy_bracha_group(self):
        assert lossy_bracha_group() == {
            "committed": 1,
            "counters": (108, 87, 21),
            "events": 182,
            "layer_stats": [(1, 32, 2, 2), (1, 24, 2, 2), (2, 32, 2, 2), (1, 20, 1, 1)],
            "node_stats": [
                (32, 23, 23, 4, 0.0006150000000000003),
                (24, 22, 22, 5, 0.0004100000000000002),
                (32, 23, 23, 4, 0.0004150000000000003),
                (20, 19, 19, 8, 0.0002950000000000002),
            ],
            "rng": "4e77f5a5c6412d58",
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
