"""A cached hash is invisible, and it never leaves the process.

``Transfer``, ``TransferAnnouncement`` and ``BatchAnnouncement`` compute
``__hash__`` once, at construction, into a ``_hash`` slot
(:class:`repro.common.types.HashOnce`).
String hashes are salted per interpreter, so a cached value that travelled —
in a pickle to a ``spawn``-ed pool worker, in a codec frame, in a snapshot —
would make the object unfindable in every set on the other side.  ``fork``
hides that (workers inherit the driver's salt), so no backend test can catch
it; the child interpreter below runs under a different ``PYTHONHASHSEED``.
"""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.cluster import codec
from repro.cluster.batching import BatchAnnouncement
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.mp.messages import TransferAnnouncement


def _samples():
    """One object of each hash-once type, built from scratch."""
    credit = Transfer("bob", "alice", 3, issuer=1, sequence=4)
    transfer = Transfer("alice", "x1:carol", 5, issuer=0, sequence=2)
    announcement = TransferAnnouncement(transfer, (credit,))
    batch = BatchAnnouncement((announcement, TransferAnnouncement(credit)))
    return [transfer, announcement, batch]


def _generated_hash(value) -> int:
    """What the dataclass-generated ``__hash__`` returns: the compared fields, as a tuple."""
    return hash(tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare))


FIELDS = {
    Transfer: ["source", "destination", "amount", "issuer", "sequence"],
    TransferAnnouncement: ["transfer", "dependencies"],
    BatchAnnouncement: ["announcements", "item_count"],
}

REPLACEMENTS = [
    lambda transfer: dataclasses.replace(transfer, amount=transfer.amount + 1),
    lambda announcement: dataclasses.replace(announcement, dependencies=()),
    lambda batch: dataclasses.replace(batch, announcements=batch.announcements[:1]),
]


@pytest.mark.parametrize("index", range(3))
class TestTheCacheIsInvisible:
    def test_hash_is_the_generated_hash(self, index):
        value, twin = _samples()[index], _samples()[index]
        assert hash(value) == _generated_hash(value)
        assert hash(value) == hash(value) == hash(twin)  # cached, cached again, fresh
        assert value in {twin}

    def test_the_slot_is_not_a_field(self, index):
        value, twin = _samples()[index], _samples()[index]
        before = repr(value)
        hash(value)
        assert [f.name for f in dataclasses.fields(value)] == FIELDS[type(value)]
        assert repr(value) == before and "_hash" not in before
        assert value == twin and twin == value  # one hashed, one not
        # Slotted all the way down: a per-instance __dict__ is what made a
        # cached hash cost the audit 10-14 %.
        assert not hasattr(value, "__dict__")

    def test_copies_and_replacements_rehash(self, index):
        value = _samples()[index]
        # Copied, unpickled or decoded, a value is rebuilt by its constructor
        # (``rebuilt_by_constructor``): validated, and carrying a hash computed
        # in this interpreter before anything reads it.
        for clone in (
            copy.copy(value),
            copy.deepcopy(value),
            dataclasses.replace(value),
            pickle.loads(pickle.dumps(value)),
            codec.decode(codec.encode(value)),
        ):
            assert clone is not value and clone == value
            assert clone._hash == _generated_hash(clone) == hash(value)
        # A replaced field must not inherit the original's cached hash.
        other = REPLACEMENTS[index](value)
        assert other != value and hash(other) == _generated_hash(other) != hash(value)

    def test_bytes_do_not_depend_on_whether_it_was_hashed(self, index):
        value, stale = _samples()[index], _samples()[index]
        # Whatever sits in the slot — here a hash no interpreter computed —
        # stays behind: the bytes are the fields', and arrival rehashes.
        object.__setattr__(stale, "_hash", hash(value) ^ 1)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(stale, protocol) == pickle.dumps(value, protocol)
        assert codec.encode(stale) == codec.encode(value)
        assert hash(codec.decode(codec.encode(stale))) == hash(value) != hash(stale)


def test_arrival_validates():
    # The constructor runs on the receiving side, so a frame cannot deliver
    # what ``__init__`` would have refused.
    transfer, _, batch = _samples()
    object.__setattr__(transfer, "amount", -1)
    object.__setattr__(batch, "announcements", ())
    for broken in (transfer, batch):
        with pytest.raises(ConfigurationError):
            codec.decode(codec.encode(broken))


CHILD = '''
import pickle, sys
from repro.cluster import codec
from repro.cluster.batching import BatchAnnouncement
from repro.common.types import Transfer
from repro.mp.messages import TransferAnnouncement

{samples}

frames = [bytes.fromhex(line) for line in sys.stdin.read().split()]
for index, fresh in enumerate(_samples()):
    by_pickle, by_codec = pickle.loads(frames[2 * index]), codec.decode(frames[2 * index + 1])
    bucket = {{fresh}}
    assert by_pickle in bucket, ("pickle", fresh)
    assert by_codec in bucket, ("codec", fresh)
    assert hash(by_pickle) == hash(by_codec) == hash(fresh)
print(*(hash(fresh) for fresh in _samples()))
'''


def test_a_cached_hash_never_leaves_the_process():
    shipped = _samples()
    here = [hash(value) for value in shipped]  # cached before shipping
    frames = []
    for value in shipped:
        frames += [pickle.dumps(value).hex(), codec.encode(value).hex()]
    seed = "202" if os.environ.get("PYTHONHASHSEED") == "101" else "101"
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(samples=inspect.getsource(_samples))],
        input="\n".join(frames),
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        ),
    )
    assert child.returncode == 0, child.stderr
    there = [int(word) for word in child.stdout.split()]
    # The two interpreters really do salt differently, or the child proved nothing.
    assert len(there) == len(here) and all(a != b for a, b in zip(here, there))
