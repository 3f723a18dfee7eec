"""The worker pipe's framing contract.

A frame is one pickle, so what is left to pin is what the pipe relies on:
every value family it carries comes back exactly — same type, same value,
same container iteration order (the fingerprint reads reprs downstream) —
and a frame that is not exactly one value raises instead of returning one.
"""

import dataclasses
import math
import pickle

import pytest

from repro.broadcast.messages import (
    AccountTaggedPayload,
    EchoMessage,
    EchoSignatureMessage,
    FinalMessage,
    ReadyMessage,
    SendMessage,
)
from repro.broadcast.secure_broadcast import BroadcastDelivery
from repro.cluster.codec import decode, encode
from repro.cluster.settlement import (
    RetirementCertificate,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
)
from repro.cluster.shard import AdvanceReport, Shard, ShardSpec
from repro.common.types import Transfer, TransferId
from repro.crypto.signatures import SignatureScheme
from repro.mp.consensusless_transfer import TransferRecord
from repro.mp.messages import BatchAnnouncement, TransferAnnouncement
from repro.network.node import NetworkConfig, NodeStats
from repro.spec.byzantine_spec import ClientOperation
from repro.workloads.cluster_driver import RoutedSubmission

SCHEME = SignatureScheme(seed=5)
TRANSFER = Transfer("0", "x1:3", 5, issuer=0, sequence=1)
CLAIM = SettlementClaim(
    source_shard=0, destination_shard=1, issuer=2, sequence=4, account="x1:2", amount=11
)
PAYLOAD = ("batch", 1, 2)
ENVELOPE = dict(channel="xfer", origin=0, sequence=1, payload=PAYLOAD)
SPEC = ShardSpec(
    index=3, replicas=4, initial_balance=10_000, batch_size=8,
    network_config=NetworkConfig(seed=7), seed=42,
)


def _certificate(payload):
    return SCHEME.make_certificate(payload, [SCHEME.keypair_for(p).sign(payload) for p in range(3)])


BATCH = BatchAnnouncement(
    tuple(TransferAnnouncement(Transfer("0", "1", 1, issuer=0, sequence=s)) for s in (1, 2, 3))
)
CERTIFICATE = SettlementCertificate(claim=CLAIM, certificate=_certificate(CLAIM))
ACK_CLAIM = SettlementAckClaim(0, 1, 2, 4)
RETIREMENT = RetirementCertificate(claim=ACK_CLAIM, certificate=_certificate(ACK_CLAIM))
SIGNATURE = SCHEME.keypair_for(0).sign(CLAIM)
# One replica's signed voucher and one replica's signed ack, as an advance
# report carries them: flat rows around the shared claim.
VOUCHER_ROW = (0.01, 1, 0, 0, CLAIM, SIGNATURE.tag)
ACK_ROW = (0.015, 7, 1, 3, ACK_CLAIM, SCHEME.keypair_for(3).sign(ACK_CLAIM).tag)
# What a shard snapshot is mostly made of.
RECORDS = [
    TRANSFER,
    TransferId(issuer=2, sequence=7),
    ClientOperation(
        process=0, kind="transfer", invoked_at=0.001, responded_at=0.005, response=True,
        transfer=TRANSFER, account="0",
    ),
    TransferRecord(transfer=TRANSFER, submitted_at=0.001, completed_at=0.005, success=True),
    TransferAnnouncement(TRANSFER, (TRANSFER,)),
    BATCH,
]

def _snapshot():
    shard = Shard(SPEC)
    shard.install_validation_collector()
    shard.start()
    shard.submit(time=0.001, issuer=0, destination="1", amount=7)
    shard.advance(1.0)
    return shard.snapshot()


# Each case by an explicit id: its frame kind, record type or value family.
VALUES = {
    # Scalars: bool never collapses to int, wide and negative ints, exact floats.
    "none": None,
    "true": True,
    "false": False,
    "int_zero": 0,
    "int_one": 1,
    "int_minus_one": -1,
    "int_128": 128,
    "int_minus_128": -128,
    "int_wide": 2**70,
    "int_wide_negative": -(2**70),
    "float_zero": 0.0,
    "float_negative_zero": -0.0,
    "float_one_and_a_half": 1.5,
    "float_tiny": 1e-12,
    "float_pi": math.pi,
    "float_inf": float("inf"),
    "str_empty": "",
    "str_account": "x1:17",
    "str_unicode": "ünïcode ✓",
    "bytes_empty": b"",
    "bytes": b"\x00\xff" * 7,
    "complex": complex(2, 3),
    # Containers: nesting, dict insertion order, tuple keys, set rebuild order.
    "list_nested": [1, "two", 3.0, None, [True, (4, 5)]],
    "tuple_nested": ((), (1,), ("a", ("b",))),
    "dict_order": {"z": 1, "a": 2, "m": 3},
    "dict_tuple_keys": {(0, "a"): [1, 2], (1, "b"): []},
    "set": {TransferId(issuer=3, sequence=9), TransferId(issuer=1, sequence=2)},
    "frozenset": frozenset({1, 2, 3}),
    # The transfer family.
    **{type(record).__name__: record for record in RECORDS},
    "RoutedSubmission": RoutedSubmission(time=0.25, issuer=2, destination="x1:0", amount=9),
    # Settlement.
    "SettlementCertificate": CERTIFICATE,
    "SettlementAckClaim": ACK_CLAIM,
    "RetirementCertificate": RETIREMENT,
    # Broadcast envelopes.
    "SendMessage": SendMessage(**ENVELOPE),
    "EchoMessage": EchoMessage(**ENVELOPE),
    "ReadyMessage": ReadyMessage(**ENVELOPE),
    "EchoSignatureMessage": EchoSignatureMessage(
        **ENVELOPE, signature=SCHEME.keypair_for(2).sign(PAYLOAD)
    ),
    "FinalMessage": FinalMessage(**ENVELOPE, certificate=_certificate(PAYLOAD)),
    "AccountTaggedPayload": AccountTaggedPayload(account="x1:2", account_sequence=4, body=PAYLOAD),
    "BroadcastDelivery": BroadcastDelivery(origin=0, sequence=1, payload=PAYLOAD),
    # Specs, reports and snapshots.
    "ShardSpec": SPEC,
    "NodeStats": NodeStats(sent=4, received=9, processed=9, busy_time=0.25),
    "AdvanceReport": AdvanceReport(
        shard=1,
        events=[VOUCHER_ROW],
        acks=[ACK_ROW],
        pending_events=3, next_event_time=0.0125, processed_events=140, now=0.01,
    ),
    "ShardSnapshot": _snapshot(),
    "voucher_row": VOUCHER_ROW,
    "ack_row": ACK_ROW,
    # Command and reply frames.  An apply hands each shard its certificates,
    # each with its delivery position, and its retirement certificates.
    "frame_advance": ("advance", 0.005, None),
    "frame_apply_certificates": ("apply", 0.005, {1: ([(3, CERTIFICATE)], [])}),
    "frame_apply": ("apply", 0.005, {0: ([], [RETIREMENT]), 1: ([(4, CERTIFICATE)], [])}),
    "frame_apply_retirements": ("apply", 0.005, {0: ([], [RETIREMENT, RETIREMENT])}),
    "frame_snapshot": ("snapshot", 3),
    "frame_stop": ("stop",),
    "reply_ok": ("ok", None),
    "reply_error": ("error", "Traceback (most recent call last): ..."),
    # An entry of a node's dependency column, and an advance reply: the
    # reports beside the worker's finish stamp.
    "dependency_entry": (TransferId(1, 4), TransferId(2, 7)),
    "reply_advance": ("ok", ({1: "reports"}, 12345.678)),
}


@pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))
def test_round_trips_are_exact(value, ordered):
    data = encode(value)
    result = decode(data)
    assert type(result) is type(value) and result == value
    assert repr(result) == repr(value)  # -0.0, and anything == forgives
    assert ordered(result) == ordered(value)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_snapshot_records_are_rebuilt_by_their_constructors(record):
    # Not pickle's default (``__new__`` plus state into ``__dict__``): the
    # class is called on the field values, in declaration order.
    values = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    assert record.__reduce__() == (type(record), values)


@pytest.mark.parametrize(
    "record", [CLAIM, ACK_CLAIM, SIGNATURE], ids=lambda record: type(record).__name__
)
def test_voucher_records_are_rebuilt_by_their_constructors(record):
    # An advance report ships a claim per slot in its voucher and ack rows,
    # and an apply a signature per certificate member, each as its field
    # values rather than through the generated __getstate__.
    values = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    assert record.__reduce__() == (type(record), values)


def test_what_arrives_is_usable():
    # ``item_count`` is re-derived where the batch is rebuilt, and a shipped
    # certificate still verifies: signatures bind to content, not identity.
    assert decode(encode(BATCH)).item_count == 3
    restored = decode(encode(CERTIFICATE))
    assert SCHEME.verify_certificate(CLAIM, restored.certificate, quorum_size=3)


def test_routed_submissions_round_trip_unchanged(ordered):
    # Slotted and frozen: what the pool ships into a worker at ``open`` — a
    # per-shard dict of arrival lists — comes back field for field, in order,
    # still slotted.
    arrivals = {
        2: [
            RoutedSubmission(time=0.25, issuer=2, destination="x1:0", amount=9),
            RoutedSubmission(time=0.25, issuer=0, destination="1", amount=0),
        ],
        0: [RoutedSubmission(time=1e-12, issuer=3, destination="x12:3", amount=2**40)],
    }
    restored = decode(encode(arrivals))
    assert restored == arrivals and ordered(restored) == ordered(arrivals)
    assert all(type(routed) is RoutedSubmission for routed in restored[2] + restored[0])
    assert not hasattr(restored[2][0], "__dict__")


@pytest.mark.parametrize("value", [1, TRANSFER, ("advance", 0.005, None)], ids=repr)
def test_a_frame_that_is_not_exactly_one_value_raises(value):
    data = encode(value)
    for padded in (data + b"\x00", data + data):
        with pytest.raises(ValueError):
            decode(padded)
    for cut in range(len(data)):
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            decode(data[:cut])
