"""Deterministic content hashing for protocol messages and transfers.

Hashes are computed over a canonical ``repr``-based encoding of the object.
The encoding is stable across runs for the dataclass-based message types the
protocols use (their ``repr`` is deterministic), which is all the simulation
needs — the hashes identify content, they are not a security boundary.

There is no memo table.  A payload that is encoded at every hop derives from
:class:`~repro.common.types.EncodedOnce` and keeps its own bytes, which live
and die with it; everything else is re-encoded per call.  A run therefore
holds encodings only for the payloads it still holds.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.types import EncodedOnce


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


def canonical_bytes(payload: Any) -> bytes:
    """The canonical encoding of ``payload``, kept on it if it is an :class:`EncodedOnce`.

    Signing, verification and content hashing encode the *same* payload
    object once per hop (a batch announcement for every replica's signature,
    a settlement claim at every trust boundary that re-checks it), so those
    payloads carry their bytes in a slot and encode once.  Any other payload
    (a plain tuple, a list, a string) is encoded on every call and leaves no
    state behind.
    """
    if isinstance(payload, EncodedOnce):
        try:
            return payload._canonical
        except AttributeError:
            encoded = _canonical_bytes(payload)
            object.__setattr__(payload, "_canonical", encoded)
            return encoded
    return _canonical_bytes(payload)


def content_hash(payload: Any) -> str:
    """Return a hex SHA-256 digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def short_hash(payload: Any, length: int = 12) -> str:
    """Return a truncated content hash (readable identifiers in logs/tests)."""
    return content_hash(payload)[:length]
