"""Tests for the secure-broadcast layers: Bracha, echo, account order.

The layers are sans-I/O, so most tests drive them by hand (no simulator);
end-to-end behaviour over the network is covered in tests/mp.
"""

import pytest

from repro.broadcast.account_order_broadcast import AccountOrderBroadcast
from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.echo_broadcast import EchoBroadcast
from repro.broadcast.messages import (
    AccountTaggedPayload,
    EchoMessage,
    EchoSignatureMessage,
    ReadyMessage,
    SendMessage,
)
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


def echo_factory(scheme):
    def factory(**kwargs):
        return EchoBroadcast(channel="eb", scheme=scheme, **kwargs)

    return factory


def account_factory(scheme):
    def factory(**kwargs):
        return AccountOrderBroadcast(channel="ab", scheme=scheme, **kwargs)

    return factory


def build_layer(kind, fault_tolerance):
    """One layer of a 4-process group, with the given ``fault_tolerance``."""
    factory = bracha_factory if kind == "bracha" else echo_factory(SignatureScheme())
    return factory(
        own_id=0, all_nodes=(0, 1, 2, 3), send=lambda *_: None,
        send_to_all=lambda _: None, deliver=lambda *_: None, fault_tolerance=fault_tolerance,
    )


class TestFaultToleranceIsValidated:
    """``f`` is ``None`` or an ``int`` >= 0.  A negative one gave thresholds no
    quorum argument covers: Bracha at f = -1 delivered on one READY, and the
    echo layer at f = -3 needed one acknowledgement."""

    @pytest.mark.parametrize("kind", ["bracha", "echo"])
    @pytest.mark.parametrize("value", [-1, -3, 1.5, float("nan"), True])
    def test_refused(self, kind, value):
        with pytest.raises(ConfigurationError, match="fault_tolerance"):
            build_layer(kind, value)

    @pytest.mark.parametrize("kind", ["bracha", "echo"])
    @pytest.mark.parametrize("value", [0, 1, None])
    def test_accepted(self, kind, value):
        assert build_layer(kind, value).f == (1 if value is None else value)


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

    # Released instances are forgotten.  Every case below checks what the
    # layer sends, so a forget that changed a reply fails here.

    def test_late_echoes_and_readies_after_release_send_nothing_and_keep_no_state(self):
        layer, sent, delivered = lone_bracha()
        deliver_by_quorums(layer, payload("x"))
        assert [d.payload for d in delivered] == [payload("x")]
        assert layer._instances == {}
        del sent[:]
        for sender in (0, 1, 2, 3):
            for message in (echo(payload("x")), ready(payload("x")), ready(payload("y"))):
                layer.on_message(sender, message)
            layer.on_message(1, send(payload("x")))
        assert sent == []
        assert layer._instances == {}
        assert len(delivered) == 1

    def test_a_send_after_release_echoes_exactly_once(self):
        layer, sent, delivered = lone_bracha()
        for sender in (1, 2, 3):
            layer.on_message(sender, ready(payload("x")))
        assert [d.payload for d in delivered] == [payload("x")]
        assert layer._order_buffer.released(1, 1)
        # Delivered through READYs alone: the entry waits for the SEND.
        assert not layer._instances[(1, 1)].echoed
        del sent[:]
        layer.on_message(1, send(payload("x")))
        assert sent == [echo(payload("x"))]
        assert layer._instances == {}
        layer.on_message(1, send(payload("x")))
        layer.on_message(2, echo(payload("x")))
        assert sent == [echo(payload("x"))]
        assert layer._instances == {}

    def test_an_instance_delivered_ahead_of_its_predecessor_is_kept_until_released(self):
        layer, sent, delivered = lone_bracha()
        deliver_by_quorums(layer, payload("second"), sequence=2)
        assert delivered == []
        assert set(layer._instances) == {(1, 2)}
        deliver_by_quorums(layer, payload("first"), sequence=1)
        assert [d.sequence for d in delivered] == [1, 2]
        assert layer._instances == {}


def payload(value):
    """A fresh tuple equal to every other ``payload(value)``."""
    return tuple(["pay", value])


def send(body, sequence=1):
    return SendMessage(channel="rb", origin=1, sequence=sequence, payload=body)


def echo(body, sequence=1):
    return EchoMessage(channel="rb", origin=1, sequence=sequence, payload=body)


def ready(body, sequence=1):
    return ReadyMessage(channel="rb", origin=1, sequence=sequence, payload=body)


def deliver_by_quorums(layer, body, sequence=1):
    """Origin 1's SEND, then three ECHOs and three READYs, all for ``body``."""
    layer.on_message(1, send(body, sequence))
    for make in (echo, ready):
        for sender in (1, 2, 3):
            layer.on_message(sender, make(body, sequence))


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

    def test_relay_final_spreads_delivery(self):
        scheme = SignatureScheme()
        harness = Harness(echo_factory(scheme), 4)
        harness.layers[0].broadcast("x")
        # Drop the origin's FINAL to node 3; the relay from others must cover it.
        from repro.broadcast.messages import FinalMessage

        harness.flush(drop=lambda s, r, m: isinstance(m, FinalMessage) and s == 0 and r == 3)
        assert [d.payload for d in harness.delivered[3]] == ["x"]

    def test_every_process_relays_the_origins_final_once(self):
        """N INIT + N acks + N FINAL, then each of the N processes (the
        origin included, on its own FINAL) relays once to all: 3N + N²."""
        from repro.broadcast.messages import FinalMessage

        harness = Harness(echo_factory(SignatureScheme()), 4)
        harness.layers[0].broadcast("x")
        finals = {}

        def count(sender, recipient, message):
            if isinstance(message, FinalMessage):
                finals[sender] = finals.get(sender, 0) + 1
            return False

        harness.flush(drop=count)
        assert sum(layer.stats.messages_sent for layer in harness.layers) == 3 * 4 + 4 * 4
        assert finals == {0: 4 + 4, 1: 4, 2: 4, 3: 4}
        assert all([d.payload for d in harness.delivered[i]] == ["x"] for i in range(4))

    def test_a_relayed_final_is_not_relayed_again(self):
        """Only a FINAL from its origin is relayed: a process that delivers
        from another's relay sends no FINAL of its own."""
        from repro.broadcast.messages import FinalMessage

        harness = Harness(echo_factory(SignatureScheme()), 4)
        harness.layers[0].broadcast("x")
        finals_from_3 = []

        def drop(sender, recipient, message):
            if not isinstance(message, FinalMessage):
                return False
            if sender == 3:
                finals_from_3.append(message)
            return sender == 0 and recipient == 3

        harness.flush(drop=drop)
        assert [d.payload for d in harness.delivered[3]] == ["x"]
        assert finals_from_3 == []

    def test_a_late_init_after_a_final_delivery_acks_exactly_once(self):
        harness = Harness(echo_factory(SignatureScheme()), 4)
        harness.layers[0].broadcast("x")
        late = withhold_inits_to(harness, 3)
        late_layer = harness.layers[3]
        assert [d.payload for d in harness.delivered[3]] == ["x"]
        # Finalised at the origin, released and acknowledged everywhere else.
        assert harness.layers[0]._as_origin == {}
        assert all(layer._as_receiver == {} for layer in harness.layers[:3])
        assert late_layer._as_receiver[(0, 1)].acknowledged_hash is None
        late_layer.on_message(0, late[0])
        assert acks_from(harness, 3) == 1
        assert late_layer._as_receiver == {}
        late_layer.on_message(0, late[0])
        assert acks_from(harness, 3) == 1
        harness.flush()
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

    def test_a_refused_instance_keeps_its_state_and_a_late_init_reaches_the_gate(self):
        harness = Harness(account_factory(SignatureScheme()), 4)
        for sequence, body in ((1, "t1"), (2, "t2")):
            harness.layers[0].broadcast(
                AccountTaggedPayload(account="acc", account_sequence=sequence, body=body)
            )
        late = withhold_inits_to(harness, 3, sequences=(1,))
        layer = harness.layers[3]
        # Process 3 saw t2's INIT before t1's and refused it; both are delivered
        # on the other three acknowledgements.
        assert [d.payload.body for d in harness.delivered[3]] == ["t1", "t2"]
        assert layer._acknowledged_account_seq == {}
        assert set(layer._as_receiver) == {(0, 1), (0, 2)}
        layer.on_message(0, late[0])
        assert acks_from(harness, 3) == 1
        assert layer._acknowledged_account_seq == {"acc": 1}
        assert set(layer._as_receiver) == {(0, 2)}
        # t2's INIT again: the gate now admits it.
        layer.on_message(
            0,
            SendMessage(
                channel="ab", origin=0, sequence=2,
                payload=AccountTaggedPayload(account="acc", account_sequence=2, body="t2"),
            ),
        )
        assert acks_from(harness, 3) == 2
        assert layer._acknowledged_account_seq == {"acc": 2}
        assert layer._as_receiver == {}


def withhold_inits_to(harness, recipient, sequences=None):
    """Flush the harness without the INITs to ``recipient``; returns them."""
    withheld = []

    def drop(sender, to, message):
        if (
            to == recipient
            and isinstance(message, SendMessage)
            and (sequences is None or message.sequence in sequences)
        ):
            withheld.append(message)
            return True
        return False

    harness.flush(drop=drop)
    return withheld


def acks_from(harness, sender):
    """Acknowledgements ``sender`` has queued since the last flush."""
    return sum(
        1
        for source, _, message in harness.queues
        if source == sender and isinstance(message, EchoSignatureMessage)
    )
