"""The worker pipe's framing: one frame is one pickle, protocol 5.

The only pipes are ``multiprocessing.Pipe``s between a driver and the
children it forked on the same host — the trust domain ``multiprocessing``
itself pickles across — so bytes are free and encode/decode time is not.
The tag-and-varint format that lived here was gated on bytes and lost on
time: shard 0's final snapshot of the reference run took 117 614 bytes and
11.3 / 29.0 ms to encode / decode, a third of the pool's ``run_s`` once eight
of them decode in the driver; as one pickle it takes 91 057 bytes and 3.7 /
5.1 ms (its records reduce to their constructor arguments, see
:func:`repro.common.types.rebuilt_by_constructor`).  This stays a module so
that every frame meets one place that counts its bytes (:func:`encoded_size`
is the migration and checkpoint gauge on every backend), owns its time in a
profile, and rejects a frame that is not exactly one value.
"""

from __future__ import annotations

import io
import pickle
from typing import Any


def encode(value: Any) -> bytes:
    """Frame ``value`` for the pipe."""
    return pickle.dumps(value, protocol=5)


def decode(data: bytes) -> Any:
    """The value of one frame; raises on a truncated, padded or corrupt one."""
    frame = io.BytesIO(data)
    value = pickle.Unpickler(frame).load()
    if frame.tell() != len(data):
        raise ValueError(f"trailing bytes after decoded value ({len(data) - frame.tell()})")
    return value


def encoded_size(value: Any) -> int:
    """Byte length of ``value`` on the wire (the migration-stall gauge)."""
    return len(encode(value))
