"""The worker pipe's framing: one frame is one pickle, protocol 5.

The only pipes are ``multiprocessing.Pipe``s between a driver and the
children it forked on the same host — the trust domain ``multiprocessing``
itself pickles across — so bytes are free and encode/decode time is not.
The tag-and-varint format that lived here was gated on bytes and lost on
time: shard 0's final snapshot of the reference run took 117 614 bytes and
11.3 / 29.0 ms to encode / decode, a third of the pool's ``run_s`` once eight
of them decode in the driver; as one pickle it took 91 057 bytes and 3.7 /
5.1 ms (its records reduce to their constructor arguments, see
:func:`repro.common.types.rebuilt_by_constructor`).  Today it takes about
60 200 bytes and 2.8 / 3.9 ms: each replica's validated history ships as two
columns of objects the shard already holds, where a record per validation
made it 77 900 bytes and 5.4 / 6.1 ms (medians on a 2-core host).  The pool
ships it alone, one shard per frame.  This stays a module so that every
frame meets one place that owns its time in a profile and rejects a frame
that is not exactly one value.

``pickle`` is loaded with the first frame, not with this module: the serial
backend imports the codec but never frames anything, so a serial run never
loads it (``tests/test_import_graph.py``).
"""

from __future__ import annotations

import io
from typing import Any


def encode(value: Any) -> bytes:
    """Frame ``value`` for the pipe."""
    import pickle

    return pickle.dumps(value, protocol=5)


def decode(data: bytes) -> Any:
    """The value of one frame; raises on a truncated, padded or corrupt one."""
    import pickle

    frame = io.BytesIO(data)
    value = pickle.Unpickler(frame).load()
    if frame.tell() != len(data):
        raise ValueError(f"trailing bytes after decoded value ({len(data) - frame.tell()})")
    return value
