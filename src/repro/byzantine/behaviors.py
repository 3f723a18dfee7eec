"""Reusable adversarial behaviours.

A :class:`Behavior` decides, message by message, what a Byzantine node
actually puts on the wire: nothing (silence), the original message (honest),
a delayed copy, or per-recipient substitutions (equivocation).  Attack nodes
in :mod:`repro.mp` and :mod:`repro.bft` delegate their outgoing traffic to a
behaviour object, which keeps the attack logic declarative and lets tests mix
and match strategies.

The behaviours here operate at the transport level.  Application-level
attacks that need protocol knowledge — most importantly the double-spend
attempt against the consensusless protocol — are implemented as dedicated
node classes (:class:`repro.mp.attackers.DoubleSpendAttacker`) but reuse
:class:`EquivocationPlan` to describe *who is told what*.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import SeededRng
from repro.common.types import ProcessId


@dataclass(frozen=True)
class OutgoingMessage:
    """A (recipient, message, extra delay) triple produced by a behaviour."""

    recipient: ProcessId
    message: Any
    extra_delay: float = 0.0


class Behavior(abc.ABC):
    """Transforms intended outgoing messages into actual outgoing messages."""

    @abc.abstractmethod
    def transform(
        self, sender: ProcessId, recipient: ProcessId, message: Any
    ) -> List[OutgoingMessage]:
        """Return the messages actually sent when ``sender`` wants to send
        ``message`` to ``recipient`` (may be empty, may be several)."""


class HonestBehavior(Behavior):
    """Sends exactly what the protocol intended (the identity behaviour)."""

    def transform(
        self, sender: ProcessId, recipient: ProcessId, message: Any
    ) -> List[OutgoingMessage]:
        return [OutgoingMessage(recipient=recipient, message=message)]


class CrashBehavior(Behavior):
    """Behaves honestly until a cutoff count of sends, then stays silent.

    Modelling a crash as "stops sending after the first ``send_limit``
    messages" captures the interesting case where a process crashes midway
    through a broadcast, having told only part of the system about it.
    """

    def __init__(self, send_limit: int = 0) -> None:
        self.send_limit = send_limit
        self._sent = 0

    def transform(
        self, sender: ProcessId, recipient: ProcessId, message: Any
    ) -> List[OutgoingMessage]:
        if self._sent >= self.send_limit:
            return []
        self._sent += 1
        return [OutgoingMessage(recipient=recipient, message=message)]


class DropBehavior(Behavior):
    """Drops each outgoing message independently with a fixed probability."""

    def __init__(self, drop_probability: float, rng: SeededRng) -> None:
        self.drop_probability = drop_probability
        self._rng = rng

    def transform(
        self, sender: ProcessId, recipient: ProcessId, message: Any
    ) -> List[OutgoingMessage]:
        if self._rng.maybe(self.drop_probability):
            return []
        return [OutgoingMessage(recipient=recipient, message=message)]


class DelayBehavior(Behavior):
    """Adds a constant extra delay to every outgoing message.

    Useful for modelling a slow-but-correct process (stress for timeouts in
    the PBFT baseline) or a Byzantine process trying to stall the protocol
    without being detectably faulty.  The delay is finite and non-negative:
    a message cannot arrive before it was sent, and the settlement barrier's
    one-pass exchange relies on exactly that.
    """

    def __init__(self, extra_delay: float) -> None:
        # ``0 <= x < inf`` is false for NaN too, which ``x < 0`` would let through.
        if not 0 <= extra_delay < math.inf:
            raise ConfigurationError(
                f"an extra delay must be finite and non-negative, not {extra_delay}"
            )
        self.extra_delay = extra_delay

    def transform(
        self, sender: ProcessId, recipient: ProcessId, message: Any
    ) -> List[OutgoingMessage]:
        return [OutgoingMessage(recipient=recipient, message=message, extra_delay=self.extra_delay)]


@dataclass
class EquivocationPlan:
    """Describes a two-faced send: group A is told one thing, group B another.

    ``partition_a`` receives ``message_a``; ``partition_b`` receives
    ``message_b``; everyone else receives nothing.  The double-spend attacker
    uses one plan per conflicting transfer pair.
    """

    partition_a: Tuple[ProcessId, ...]
    partition_b: Tuple[ProcessId, ...]
    message_a: Any = None
    message_b: Any = None

    @classmethod
    def split_evenly(
        cls, processes: Sequence[ProcessId], exclude: Iterable[ProcessId] = ()
    ) -> "EquivocationPlan":
        """Split ``processes`` (minus ``exclude``) into two near-equal halves."""
        excluded = set(exclude)
        eligible = [p for p in processes if p not in excluded]
        half = len(eligible) // 2
        return cls(partition_a=tuple(eligible[:half]), partition_b=tuple(eligible[half:]))

    def recipients_of(self, message_key: str) -> Tuple[ProcessId, ...]:
        if message_key == "a":
            return self.partition_a
        if message_key == "b":
            return self.partition_b
        raise ValueError("message_key must be 'a' or 'b'")

    def audience(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(set(self.partition_a) | set(self.partition_b)))


class ScriptedBehavior(Behavior):
    """Follows an explicit per-recipient substitution table.

    ``substitutions[recipient]`` is the message actually sent to that
    recipient whenever the protocol tries to send anything; recipients not in
    the table get the honest message.  Used to build targeted equivocation in
    broadcast-level tests.
    """

    def __init__(self, substitutions: Optional[Dict[ProcessId, Any]] = None,
                 silent_towards: Iterable[ProcessId] = ()) -> None:
        self.substitutions = dict(substitutions or {})
        self.silent_towards = set(silent_towards)

    def transform(
        self, sender: ProcessId, recipient: ProcessId, message: Any
    ) -> List[OutgoingMessage]:
        if recipient in self.silent_towards:
            return []
        if recipient in self.substitutions:
            return [OutgoingMessage(recipient=recipient, message=self.substitutions[recipient])]
        return [OutgoingMessage(recipient=recipient, message=message)]
