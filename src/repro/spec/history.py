"""Histories: invocation/response sequences with real-time precedence.

Section 2.1 of the paper defines a *history* as a sequence of invocations and
responses labelled with process identifiers, the projection ``H | p``, the
notion of a *completion* of a history, and the precedence order ``o1 ≺_H o2``
(``o1``'s response precedes ``o2``'s invocation).

This module implements those notions directly.  Histories are recorded by the
shared-memory runtime and the message-passing simulator, then handed to the
checkers in :mod:`repro.spec.linearizability` and
:mod:`repro.spec.byzantine_spec`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import SpecificationViolation
from repro.common.types import ProcessId


class EventKind(enum.Enum):
    """Whether an event is the invocation or the response of an operation."""

    INVOCATION = "invocation"
    RESPONSE = "response"


class OperationKind(enum.Enum):
    """Coarse classification of asset-transfer operations used by checkers."""

    TRANSFER = "transfer"
    READ = "read"
    PROPOSE = "propose"
    OTHER = "other"

    @classmethod
    def of(cls, operation: Any) -> "OperationKind":
        if isinstance(operation, tuple) and operation:
            name = operation[0]
            if name == "transfer":
                return cls.TRANSFER
            if name == "read":
                return cls.READ
            if name == "propose":
                return cls.PROPOSE
        return cls.OTHER


@dataclass(frozen=True)
class Event:
    """A single invocation or response event.

    ``sequence`` is a globally unique, monotonically increasing number
    assigned by the recorder; it defines the real-time order of events.
    """

    sequence: int
    process: ProcessId
    kind: EventKind
    operation_id: int
    payload: Any

    def is_invocation(self) -> bool:
        return self.kind is EventKind.INVOCATION


@dataclass(frozen=True)
class Invocation:
    """The invocation half of an operation."""

    process: ProcessId
    operation: Any
    operation_id: int
    sequence: int


@dataclass(frozen=True)
class Response:
    """The response half of an operation."""

    process: ProcessId
    value: Any
    operation_id: int
    sequence: int


@dataclass
class Operation:
    """A (possibly incomplete) operation: an invocation and maybe a response."""

    invocation: Invocation
    response: Optional[Response] = None

    @property
    def operation_id(self) -> int:
        return self.invocation.operation_id

    @property
    def process(self) -> ProcessId:
        return self.invocation.process

    @property
    def operation(self) -> Any:
        return self.invocation.operation

    @property
    def is_complete(self) -> bool:
        return self.response is not None

    @property
    def response_value(self) -> Any:
        if self.response is None:
            raise SpecificationViolation(
                f"operation {self.operation_id} has no response"
            )
        return self.response.value

    @property
    def kind(self) -> OperationKind:
        return OperationKind.of(self.operation)

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this response occurs before ``other``'s invocation."""
        if self.response is None:
            return False
        return self.response.sequence < other.invocation.sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        response = "pending" if self.response is None else repr(self.response.value)
        return f"Op#{self.operation_id}[p{self.process}] {self.operation!r} -> {response}"


class History:
    """A history: a sequence of invocation/response events.

    Instances are usually built through :class:`HistoryRecorder`, but
    :meth:`from_operations` allows tests to construct histories directly.
    """

    def __init__(self, events: Sequence[Event]) -> None:
        self._events: Tuple[Event, ...] = tuple(sorted(events, key=lambda e: e.sequence))
        self._operations = self._pair_events(self._events)

    @staticmethod
    def _pair_events(events: Sequence[Event]) -> Dict[int, Operation]:
        operations: Dict[int, Operation] = {}
        for event in events:
            if event.is_invocation():
                if event.operation_id in operations:
                    raise SpecificationViolation(
                        f"duplicate invocation for operation {event.operation_id}"
                    )
                operations[event.operation_id] = Operation(
                    invocation=Invocation(
                        process=event.process,
                        operation=event.payload,
                        operation_id=event.operation_id,
                        sequence=event.sequence,
                    )
                )
            else:
                operation = operations.get(event.operation_id)
                if operation is None:
                    raise SpecificationViolation(
                        f"response without invocation for operation {event.operation_id}"
                    )
                if operation.response is not None:
                    raise SpecificationViolation(
                        f"duplicate response for operation {event.operation_id}"
                    )
                operation.response = Response(
                    process=event.process,
                    value=event.payload,
                    operation_id=event.operation_id,
                    sequence=event.sequence,
                )
        return operations

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_operations(
        cls,
        operations: Iterable[Tuple[ProcessId, Any, Any]],
    ) -> "History":
        """Build a *sequential* history from ``(process, operation, response)`` triples.

        Each operation's response immediately follows its invocation, which is
        the shape of histories produced by single-threaded test fixtures.
        """
        events: List[Event] = []
        sequence = itertools.count()
        for operation_id, (process, operation, response) in enumerate(operations):
            events.append(
                Event(next(sequence), process, EventKind.INVOCATION, operation_id, operation)
            )
            events.append(
                Event(next(sequence), process, EventKind.RESPONSE, operation_id, response)
            )
        return cls(events)

    # -- queries ---------------------------------------------------------------

    @property
    def events(self) -> Tuple[Event, ...]:
        return self._events

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """All operations in invocation order."""
        return tuple(
            sorted(self._operations.values(), key=lambda op: op.invocation.sequence)
        )

    @property
    def incomplete_operations(self) -> Tuple[Operation, ...]:
        return tuple(op for op in self.operations if not op.is_complete)

    @property
    def processes(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted({op.process for op in self.operations}))

    def projection(self, process: ProcessId) -> Tuple[Operation, ...]:
        """Return ``H | p``: this history restricted to one process."""
        return tuple(op for op in self.operations if op.process == process)

    def is_complete(self) -> bool:
        return not self.incomplete_operations

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    # -- completions and filtering ----------------------------------------------

    def complete_with(self, responses: Dict[int, Any]) -> "History":
        """Return a completion of this history.

        Incomplete operations listed in ``responses`` receive the given
        response (appended after every existing event); incomplete operations
        not listed are removed, exactly as allowed by the paper's definition
        of a completion.
        """
        max_sequence = self._events[-1].sequence if self._events else 0
        sequence = itertools.count(max_sequence + 1)
        events: List[Event] = []
        for event in self._events:
            operation = self._operations[event.operation_id]
            if not operation.is_complete and operation.operation_id not in responses:
                continue
            events.append(event)
        for operation_id, value in responses.items():
            operation = self._operations.get(operation_id)
            if operation is None or operation.is_complete:
                continue
            events.append(
                Event(next(sequence), operation.process, EventKind.RESPONSE, operation_id, value)
            )
        return History(events)

    def restricted_to(self, operation_ids: Set[int]) -> "History":
        """Return the sub-history containing only the listed operations."""
        events = [event for event in self._events if event.operation_id in operation_ids]
        return History(events)

    def filter_operations(self, predicate) -> "History":
        """Return the sub-history of operations satisfying ``predicate``."""
        keep = {op.operation_id for op in self.operations if predicate(op)}
        return self.restricted_to(keep)

    # -- precedence --------------------------------------------------------------

    def precedence_pairs(self) -> Set[Tuple[int, int]]:
        """Return the set of ``(earlier, later)`` operation-id pairs in ``≺_H``."""
        pairs: Set[Tuple[int, int]] = set()
        ops = self.operations
        for first in ops:
            if not first.is_complete:
                continue
            for second in ops:
                if first.operation_id != second.operation_id and first.precedes(second):
                    pairs.add((first.operation_id, second.operation_id))
        return pairs

    def respects_program_order(self) -> bool:
        """Check that each process's operations do not overlap one another.

        The model assumes sequential processes; the recorder enforces this but
        hand-built histories in tests can use this to self-check.
        """
        for process in self.processes:
            operations = self.projection(process)
            for earlier, later in zip(operations, operations[1:]):
                if earlier.response is None:
                    return later is operations[-1] and False
                if earlier.response.sequence > later.invocation.sequence:
                    return False
        return True


class HistoryRecorder:
    """Thread-unsafe recorder used by the simulators to build histories.

    The shared-memory scheduler and the message-passing simulator both drive
    operations explicitly from a single control loop, so no locking is
    required.  The recorder hands out operation identifiers and strictly
    increasing event sequence numbers.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._sequence = itertools.count()
        self._operation_ids = itertools.count()
        self._open_operations: Dict[ProcessId, int] = {}

    def invoke(self, process: ProcessId, operation: Any) -> int:
        """Record an invocation and return its operation id."""
        if process in self._open_operations:
            raise SpecificationViolation(
                f"process {process} invoked an operation while another is pending"
            )
        operation_id = next(self._operation_ids)
        self._events.append(
            Event(next(self._sequence), process, EventKind.INVOCATION, operation_id, operation)
        )
        self._open_operations[process] = operation_id
        return operation_id

    def respond(self, process: ProcessId, operation_id: int, value: Any) -> None:
        """Record the response of a previously invoked operation."""
        open_id = self._open_operations.get(process)
        if open_id != operation_id:
            raise SpecificationViolation(
                f"process {process} responded to operation {operation_id} "
                f"but its pending operation is {open_id}"
            )
        self._events.append(
            Event(next(self._sequence), process, EventKind.RESPONSE, operation_id, value)
        )
        del self._open_operations[process]

    def history(self) -> History:
        """Return the history recorded so far (possibly incomplete)."""
        return History(self._events)
