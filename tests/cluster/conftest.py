"""Helpers shared by the cluster suites, handed out as fixtures."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import codec


def _ordered(value):
    """``value`` lowered to nested tuples in iteration order.

    Two values lower equal exactly when they are equal *and* every container
    inside them iterates the same way — what comparing encoded bytes used to
    say before the pipe framing was pickle, which memoises by object identity
    and so tells shared from equal-but-separate substructure.
    """
    if isinstance(value, dict):
        return ("dict", tuple((_ordered(key), _ordered(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return (type(value).__name__, tuple(_ordered(item) for item in value))
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(_ordered(getattr(value, f.name)) for f in dataclasses.fields(value)),
        )
    return value


class _ScriptedPipe:
    """An in-process stand-in for one end of a worker pipe.

    Scripted commands are framed by the encoder the driver uses; an entry
    that is already ``bytes`` goes out as the frame itself (a garbage frame).
    """

    def __init__(self, commands):
        self._commands = list(commands)
        self.responses = []
        self.closed = False

    def recv_bytes(self):
        if not self._commands:
            raise EOFError
        command = self._commands.pop(0)
        return command if isinstance(command, bytes) else codec.encode(command)

    def send_bytes(self, payload):
        self.responses.append(codec.decode(payload))

    def close(self):
        self.closed = True


@pytest.fixture
def ordered():
    return _ordered


@pytest.fixture
def scripted_pipe():
    return _ScriptedPipe
