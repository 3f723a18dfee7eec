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
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
)
from repro.cluster.shard import AdvanceReport, ShardSpec, ValidationEvent
from repro.common.types import Transfer, TransferId
from repro.crypto.signatures import SignatureScheme
from repro.mp.consensusless_transfer import TransferRecord
from repro.mp.messages import BatchAnnouncement, TransferAnnouncement
from repro.network.node import NetworkConfig, NodeStats
from repro.spec.byzantine_spec import ClientOperation, ValidatedTransfer
from repro.workloads.cluster_driver import RoutedSubmission

SCHEME = SignatureScheme(seed=5)
TRANSFER = Transfer("0", "x1:3", 5, issuer=0, sequence=1)
CLAIM = SettlementClaim(
    source_shard=0, destination_shard=1, issuer=2, sequence=4, account="x1:2", amount=11
)
PAYLOAD = ("batch", 1, 2)
ENVELOPE = dict(channel="xfer", origin=0, sequence=1, payload=PAYLOAD)
SPEC = ShardSpec(
    index=3, replicas=4, initial_balance=10_000, broadcast="bracha", batch_size=8,
    network_config=NetworkConfig(seed=7), seed=42, telemetry=False,
)


def _certificate(payload):
    return SCHEME.make_certificate(payload, [SCHEME.keypair_for(p).sign(payload) for p in range(3)])


BATCH = BatchAnnouncement(
    tuple(TransferAnnouncement(Transfer("0", "1", 1, issuer=0, sequence=s)) for s in (1, 2, 3))
)
CERTIFICATE = SettlementCertificate(claim=CLAIM, certificate=_certificate(CLAIM))
# What a shard snapshot is mostly made of.
RECORDS = [
    TRANSFER,
    TransferId(issuer=2, sequence=7),
    ValidatedTransfer(transfer=TRANSFER, dependencies=(TransferId(1, 4),), position=3),
    ClientOperation(
        process=0, kind="transfer", invoked_at=0.001, responded_at=0.005, response=True,
        transfer=TRANSFER, account="0",
    ),
    TransferRecord(transfer=TRANSFER, submitted_at=0.001, completed_at=0.005, success=True),
    TransferAnnouncement(TRANSFER, (TRANSFER,)),
    BATCH,
]

def _snapshot():
    shard = SPEC.build()
    shard.install_validation_collector()
    shard.start()
    shard.submit(time=0.001, issuer=0, destination="1", amount=7)
    shard.advance(1.0)
    return shard.snapshot()


VALUES = [
    # Scalars: bool never collapses to int, wide and negative ints, exact floats.
    None, True, False, 0, 1, -1, 128, -128, 2**70, -(2**70),
    0.0, -0.0, 1.5, 1e-12, math.pi, float("inf"),
    "", "x1:17", "ünïcode ✓", b"", b"\x00\xff" * 7, complex(2, 3),
    # Containers: nesting, dict insertion order, tuple keys, set rebuild order.
    [1, "two", 3.0, None, [True, (4, 5)]],
    ((), (1,), ("a", ("b",))),
    {"z": 1, "a": 2, "m": 3},
    {(0, "a"): [1, 2], (1, "b"): []},
    {TransferId(issuer=3, sequence=9), TransferId(issuer=1, sequence=2)},
    frozenset({1, 2, 3}),
    # The transfer family.
    *RECORDS,
    RoutedSubmission(time=0.25, issuer=2, destination="x1:0", amount=9),
    # Settlement.
    CERTIFICATE,
    SettlementAckClaim(0, 1, 2, 4),
    # Broadcast envelopes.
    SendMessage(**ENVELOPE),
    EchoMessage(**ENVELOPE),
    ReadyMessage(**ENVELOPE),
    EchoSignatureMessage(**ENVELOPE, signature=SCHEME.keypair_for(2).sign(PAYLOAD)),
    FinalMessage(**ENVELOPE, certificate=_certificate(PAYLOAD)),
    AccountTaggedPayload(account="x1:2", account_sequence=4, body=PAYLOAD),
    BroadcastDelivery(origin=0, sequence=1, payload=PAYLOAD),
    # Specs, reports and snapshots.
    SPEC,
    NodeStats(sent=4, received=9, processed=9, busy_time=0.25),
    AdvanceReport(
        shard=1,
        events=[ValidationEvent(time=0.01, shard=1, replica=0, transfer=TRANSFER, index=0)],
        pending_events=3, next_event_time=0.0125, processed_events=140, now=0.01,
    ),
    _snapshot(),
    # Command and reply frames.
    ("advance", 0.005, None),
    ("mint", 0.005, [(0, [(1, Transfer("x0:1", "1", 3, issuer=1, sequence=2))])]),
    ("retire", 0.005, [(0, [Transfer("0", "x1:2", 3, issuer=0, sequence=5)])]),
    ("snapshot",),
    ("stop",),
    ("ok", None),
    ("error", "Traceback (most recent call last): ..."),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
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


def test_what_arrives_is_usable():
    # ``item_count`` is re-derived where the batch is rebuilt, and a shipped
    # certificate still verifies: signatures bind to content, not identity.
    assert decode(encode(BATCH)).item_count == 3
    restored = decode(encode(CERTIFICATE))
    assert SCHEME.verify_certificate(CLAIM, restored.certificate, quorum_size=3)


@pytest.mark.parametrize("value", [1, TRANSFER, ("advance", 0.005, None)], ids=repr)
def test_a_frame_that_is_not_exactly_one_value_raises(value):
    data = encode(value)
    for padded in (data + b"\x00", data + data):
        with pytest.raises(ValueError):
            decode(padded)
    for cut in range(len(data)):
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            decode(data[:cut])
