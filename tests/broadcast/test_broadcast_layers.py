"""Tests for the secure-broadcast layers: Bracha, echo, account order.

The layers are sans-I/O, so most tests drive them by hand (no simulator);
end-to-end behaviour over the network is covered in tests/mp.
"""

import pytest

from repro.broadcast.account_order_broadcast import AccountOrderBroadcast
from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.echo_broadcast import EchoBroadcast
from repro.broadcast.messages import AccountTaggedPayload, EchoMessage, ReadyMessage, SendMessage
from repro.broadcast.secure_broadcast import SourceOrderBuffer
from repro.common.errors import ConfigurationError
from repro.crypto.signatures import SignatureScheme


class Harness:
    """Wires N layers together with an in-memory, instantly-delivering mesh."""

    def __init__(self, layer_factory, count):
        self.queues = []
        self.delivered = {i: [] for i in range(count)}
        self.layers = []
        ids = tuple(range(count))
        for own in range(count):
            layer = layer_factory(
                own_id=own,
                all_nodes=ids,
                send=lambda to, msg, own=own: self.queues.append((own, to, msg)),
                send_to_all=lambda msg, own=own: self.queues.extend((own, to, msg) for to in ids),
                deliver=lambda d, own=own: self.delivered[own].append(d),
            )
            self.layers.append(layer)

    def flush(self, drop=None, max_rounds=50):
        """Deliver queued messages until quiescence (optionally dropping some)."""
        for _ in range(max_rounds):
            if not self.queues:
                return
            batch, self.queues = self.queues, []
            for sender, recipient, message in batch:
                if drop and drop(sender, recipient, message):
                    continue
                self.layers[recipient].on_message(sender, message)
        raise AssertionError("broadcast did not quiesce")


def bracha_factory(**kwargs):
    return BrachaBroadcast(channel="rb", **kwargs)


def echo_factory(scheme, relay_final=True):
    def factory(**kwargs):
        return EchoBroadcast(channel="eb", scheme=scheme, relay_final=relay_final, **kwargs)

    return factory


def account_factory(scheme):
    def factory(**kwargs):
        return AccountOrderBroadcast(channel="ab", scheme=scheme, **kwargs)

    return factory


class TestSourceOrderBuffer:
    def test_releases_in_sequence_order(self):
        released = []
        buffer = SourceOrderBuffer(released.append)
        buffer.offer(0, 2, "b")
        buffer.offer(0, 1, "a")
        buffer.offer(0, 3, "c")
        assert [d.payload for d in released] == ["a", "b", "c"]
        assert buffer.delivered_up_to(0) == 3
        assert buffer.reordered == 1

    def test_duplicates_ignored(self):
        released = []
        buffer = SourceOrderBuffer(released.append)
        buffer.offer(0, 1, "a")
        buffer.offer(0, 1, "a")
        assert len(released) == 1

    def test_origins_are_independent(self):
        released = []
        buffer = SourceOrderBuffer(released.append)
        buffer.offer(0, 1, "a")
        buffer.offer(1, 1, "b")
        assert {d.origin for d in released} == {0, 1}


class TestBracha:
    def test_all_correct_processes_deliver_in_source_order(self):
        harness = Harness(bracha_factory, 4)
        harness.layers[0].broadcast("first")
        harness.layers[0].broadcast("second")
        harness.flush()
        for delivered in harness.delivered.values():
            assert [d.payload for d in delivered] == ["first", "second"]
            assert [d.sequence for d in delivered] == [1, 2]

    def test_quadratic_message_complexity(self):
        harness = Harness(bracha_factory, 4)
        harness.layers[0].broadcast("x")
        harness.flush()
        total = sum(layer.stats.messages_sent for layer in harness.layers)
        # 1 SEND to each of N, then N echo broadcasts and N ready broadcasts.
        assert total == 4 + 4 * 4 + 4 * 4

    def test_equivocating_origin_cannot_cause_disagreement(self):
        harness = Harness(bracha_factory, 4)
        # A Byzantine origin (3) sends conflicting SENDs: "a" to {0,1}, "b" to {2}.
        for recipient, payload in ((0, "a"), (1, "a"), (2, "b")):
            harness.layers[recipient].on_message(
                3, SendMessage(channel="rb", origin=3, sequence=1, payload=payload)
            )
        harness.flush()
        delivered_payloads = {
            d.payload for delivered in harness.delivered.values() for d in delivered
        }
        assert len(delivered_payloads) <= 1

    def test_delivery_despite_one_silent_process(self):
        harness = Harness(bracha_factory, 4)
        harness.layers[0].broadcast("x")
        harness.flush(drop=lambda s, r, m: s == 3 or r == 3)
        for node in (0, 1, 2):
            assert [d.payload for d in harness.delivered[node]] == ["x"]

    def test_fault_tolerance_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            BrachaBroadcast(
                channel="rb", own_id=0, all_nodes=(0, 1, 2), send=lambda *_: None,
                send_to_all=lambda _: None, deliver=lambda *_: None, fault_tolerance=1,
            )

    def test_non_origin_send_ignored(self):
        harness = Harness(bracha_factory, 4)
        harness.layers[1].on_message(
            2, SendMessage(channel="rb", origin=0, sequence=1, payload="forged")
        )
        harness.flush()
        assert all(not delivered for delivered in harness.delivered.values())

    # The witness tables, fed by hand at process 0 of N = 4 (f = 1: three
    # matching ECHOs send READY, two READYs amplify, three deliver).  Every
    # payload below is a fresh object, so only equality can join two votes.

    def test_an_equal_but_distinct_payload_joins_the_same_witness_set(self):
        layer, sent, delivered = lone_bracha()
        assert payload("x") is not payload("x")
        for sender in (1, 2, 3):
            layer.on_message(sender, echo(payload("x")))
        assert [m.payload for m in sent if isinstance(m, ReadyMessage)] == [payload("x")]
        for sender in (1, 2, 3):
            layer.on_message(sender, ready(payload("x")))
        assert [(d.origin, d.sequence, d.payload) for d in delivered] == [(1, 1, payload("x"))]

    def test_a_conflicting_payload_is_tallied_apart_and_never_reaches_a_quorum(self):
        layer, sent, delivered = lone_bracha()
        for sender, value in ((1, "a"), (2, "b"), (3, "a"), (0, "b")):
            layer.on_message(sender, echo(payload(value)))
        assert not [m for m in sent if isinstance(m, ReadyMessage)]
        for sender, value in ((1, "a"), (2, "b"), (3, "b"), (0, "a")):
            layer.on_message(sender, ready(payload(value)))
        # Two READYs for "b" amplify; "a" and "b" hold two witnesses each.
        assert [m.payload for m in sent if isinstance(m, ReadyMessage)] == [payload("b")]
        assert delivered == []

    def test_a_layer_restored_mid_instance_delivers_as_the_uninterrupted_one(self):
        steady, steady_sent, steady_delivered = lone_bracha()
        for sender in (1, 2):
            steady.on_message(sender, echo(payload("x")))
        restored, restored_sent, restored_delivered = lone_bracha()
        restored.restore_state(steady.capture_state())
        del steady_sent[:]
        rest = [(3, echo(payload("x")))] + [(s, ready(payload("x"))) for s in (1, 2, 3)]
        for layer in (steady, restored):
            for sender, message in rest:
                layer.on_message(sender, message)
        assert restored_sent == steady_sent
        assert [m.payload for m in restored_sent if isinstance(m, ReadyMessage)] == [payload("x")]
        assert restored_delivered == steady_delivered
        assert [d.payload for d in restored_delivered] == [payload("x")]
        assert restored.capture_state() == steady.capture_state()


def payload(value):
    """A fresh tuple equal to every other ``payload(value)``."""
    return tuple(["pay", value])


def echo(body):
    return EchoMessage(channel="rb", origin=1, sequence=1, payload=body)


def ready(body):
    return ReadyMessage(channel="rb", origin=1, sequence=1, payload=body)


def lone_bracha():
    """Process 0 of four, alone: returns the layer, what it sends, what it delivers."""
    sent, delivered = [], []
    layer = BrachaBroadcast(
        channel="rb",
        own_id=0,
        all_nodes=(0, 1, 2, 3),
        send=lambda to, message: sent.append(message),
        send_to_all=sent.append,
        deliver=delivered.append,
    )
    return layer, sent, delivered


class TestEchoBroadcast:
    def test_all_deliver_with_signatures(self):
        scheme = SignatureScheme()
        harness = Harness(echo_factory(scheme), 4)
        harness.layers[1].broadcast({"pay": 3})
        harness.flush()
        for delivered in harness.delivered.values():
            assert [d.payload for d in delivered] == [{"pay": 3}]

    def test_equivocation_yields_at_most_one_delivery(self):
        scheme = SignatureScheme()
        harness = Harness(echo_factory(scheme), 4)
        for recipient, payload in ((0, "a"), (1, "a"), (2, "b"), (3, "b")):
            harness.layers[recipient].on_message(
                1, SendMessage(channel="eb", origin=1, sequence=1, payload=payload)
            )
        harness.flush()
        payloads = {d.payload for delivered in harness.delivered.values() for d in delivered}
        assert len(payloads) <= 1

    def test_linear_complexity_without_relay(self):
        scheme = SignatureScheme()
        harness = Harness(echo_factory(scheme, relay_final=False), 4)
        harness.layers[0].broadcast("x")
        harness.flush()
        total = sum(layer.stats.messages_sent for layer in harness.layers)
        # N INIT + N acks + N FINAL = 3N.
        assert total == 3 * 4

    def test_relay_final_spreads_delivery(self):
        scheme = SignatureScheme()
        harness = Harness(echo_factory(scheme, relay_final=True), 4)
        harness.layers[0].broadcast("x")
        # Drop the origin's FINAL to node 3; the relay from others must cover it.
        from repro.broadcast.messages import FinalMessage

        harness.flush(drop=lambda s, r, m: isinstance(m, FinalMessage) and s == 0 and r == 3)
        assert [d.payload for d in harness.delivered[3]] == ["x"]

    def test_wrong_keypair_rejected(self):
        scheme = SignatureScheme()
        with pytest.raises(ConfigurationError):
            EchoBroadcast(
                channel="eb", own_id=0, all_nodes=(0, 1, 2, 3), send=lambda *_: None,
                send_to_all=lambda _: None, deliver=lambda *_: None, scheme=scheme,
                keypair=scheme.keypair_for(1),
            )


class TestAccountOrderBroadcast:
    def test_in_order_account_sequences_deliver(self):
        scheme = SignatureScheme()
        harness = Harness(account_factory(scheme), 4)
        harness.layers[0].broadcast(AccountTaggedPayload(account="acc", account_sequence=1, body="t1"))
        harness.flush()
        harness.layers[0].broadcast(AccountTaggedPayload(account="acc", account_sequence=2, body="t2"))
        harness.flush()
        for delivered in harness.delivered.values():
            assert [d.payload.body for d in delivered] == ["t1", "t2"]

    def test_out_of_order_account_sequence_is_not_acknowledged(self):
        scheme = SignatureScheme()
        harness = Harness(account_factory(scheme), 4)
        harness.layers[0].broadcast(AccountTaggedPayload(account="acc", account_sequence=2, body="gap"))
        harness.flush()
        assert all(not delivered for delivered in harness.delivered.values())
        assert harness.layers[1].delivered_account_sequence("acc") == 0

    def test_untagged_payloads_behave_like_echo_broadcast(self):
        scheme = SignatureScheme()
        harness = Harness(account_factory(scheme), 4)
        harness.layers[2].broadcast("plain")
        harness.flush()
        for delivered in harness.delivered.values():
            assert [d.payload for d in delivered] == ["plain"]
