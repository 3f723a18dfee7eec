"""Deterministic content hashing for protocol messages and transfers.

Hashes are computed over a canonical ``repr``-based encoding of the object.
The encoding is stable across runs for the dataclass-based message types the
protocols use (their ``repr`` is deterministic), which is all the simulation
needs — the hashes identify content, they are not a security boundary.
"""

from __future__ import annotations

import hashlib
from typing import Any


def _canonical_bytes(payload: Any) -> bytes:
    """Encode ``payload`` canonically for hashing.

    Tuples, lists, dictionaries and dataclass-like objects are encoded
    structurally so that logically equal values hash equally.
    """
    if isinstance(payload, bytes):
        return b"b:" + payload
    if isinstance(payload, str):
        return b"s:" + payload.encode("utf-8")
    if isinstance(payload, bool):
        return b"B:" + (b"1" if payload else b"0")
    if isinstance(payload, int):
        return b"i:" + str(payload).encode("ascii")
    if isinstance(payload, float):
        return b"f:" + repr(payload).encode("ascii")
    if payload is None:
        return b"n:"
    if isinstance(payload, (list, tuple)):
        parts = b",".join(_canonical_bytes(item) for item in payload)
        return b"l:[" + parts + b"]"
    if isinstance(payload, (set, frozenset)):
        parts = b",".join(sorted(_canonical_bytes(item) for item in payload))
        return b"S:{" + parts + b"}"
    if isinstance(payload, dict):
        parts = b",".join(
            _canonical_bytes(key) + b"=" + _canonical_bytes(value)
            for key, value in sorted(payload.items(), key=lambda kv: repr(kv[0]))
        )
        return b"d:{" + parts + b"}"
    # Dataclasses and other objects: rely on their (deterministic) repr.
    return b"o:" + repr(payload).encode("utf-8")


# Memo for the canonical encoding.  Signing, verification and content
# hashing encode the *same* payload object once per hop (a batch
# announcement for every replica's signature, a settlement certificate at
# every trust boundary that re-checks it); caching the bytes makes every
# encoding after the first a dict hit.  Entries are keyed on the payload's
# identity and hold the payload, so its id cannot be reused while cached and
# a hit implies identical bytes: equal values of different types, such as
# ``(1,)``, ``(True,)`` and ``(1.0,)``, never share an entry.  A full memo
# is cleared, so a long run pays one re-encoding per live payload, never a
# cost cliff.
_CANONICAL_MEMO: dict = {}
_CANONICAL_MEMO_LIMIT = 100_000


def canonical_bytes(payload: Any) -> bytes:
    """The canonical encoding of ``payload``, memoised for hashable payloads.

    Unhashable payloads may be mutated between calls, so they are
    re-encoded every time.
    """
    entry = _CANONICAL_MEMO.get(id(payload))
    if entry is not None:
        return entry[1]
    encoded = _canonical_bytes(payload)
    try:
        hash(payload)
    except TypeError:
        return encoded
    if len(_CANONICAL_MEMO) >= _CANONICAL_MEMO_LIMIT:
        _CANONICAL_MEMO.clear()
    _CANONICAL_MEMO[id(payload)] = (payload, encoded)
    return encoded


def content_hash(payload: Any) -> str:
    """Return a hex SHA-256 digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def short_hash(payload: Any, length: int = 12) -> str:
    """Return a truncated content hash (readable identifiers in logs/tests)."""
    return content_hash(payload)[:length]
