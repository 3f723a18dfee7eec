"""Cooperative scheduler for the asynchronous shared-memory model.

Processes are generator-based programs (see
:mod:`repro.shared_memory.access`).  The scheduler owns the only thread and
decides, step by step, which process performs its next atomic shared-memory
access.  This yields three properties the reproduction needs:

* **Asynchrony** — any interleaving of accesses can be explored by choosing
  an appropriate scheduling policy (round-robin, seeded random, or an
  explicit schedule given as a list of process identifiers).
* **Crash faults** — a :class:`CrashPlan` stops scheduling a process after a
  chosen number of its steps, modelling a crash at an arbitrary point of its
  code (including "between" a snapshot and the following update, the
  interesting case for Figure 1).
* **Wait-freedom checks** — because every operation of the paper's algorithms
  is wait-free, a correct process must finish its program in a bounded number
  of *its own* steps regardless of other processes; the scheduler exposes
  per-process step counts so tests can assert exactly that.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import SeededRng
from repro.common.types import ProcessId
from repro.shared_memory.access import MemoryAccess, MemoryProgram


def yield_point() -> MemoryProgram:
    """A no-op scheduling point.

    Algorithms may yield control without touching shared memory (useful in
    tests to widen the set of explorable interleavings).
    """
    return (yield MemoryAccess(action=lambda: None, label="noop"))


@dataclass
class CrashPlan:
    """Describes which processes crash and after how many of their steps.

    ``crash_after[p] = s`` means process ``p`` executes exactly ``s`` steps
    and is then crashed (never scheduled again).  Crashed processes model the
    benign faults of Section 2.1.
    """

    crash_after: Dict[ProcessId, int] = field(default_factory=dict)

    def crashes(self, process: ProcessId, executed_steps: int) -> bool:
        limit = self.crash_after.get(process)
        return limit is not None and executed_steps >= limit

    @classmethod
    def none(cls) -> "CrashPlan":
        return cls()

    @classmethod
    def crash_at(cls, **crash_after: int) -> "CrashPlan":
        """Convenience constructor: ``CrashPlan.crash_at(p0=3, p2=5)``."""
        parsed = {int(name.lstrip("p")): steps for name, steps in crash_after.items()}
        return cls(crash_after=parsed)


@dataclass
class _ProcessSlot:
    """Book-keeping for one running program."""

    process: ProcessId
    program: MemoryProgram
    started: bool = False
    finished: bool = False
    crashed: bool = False
    result: Any = None
    pending: Optional[MemoryAccess] = None
    steps: int = 0
    trace: List[str] = field(default_factory=list)


@dataclass
class SchedulerOutcome:
    """Result of running a set of programs under a scheduler."""

    results: Dict[ProcessId, Any]
    steps: Dict[ProcessId, int]
    crashed: Tuple[ProcessId, ...]
    unfinished: Tuple[ProcessId, ...]
    schedule: Tuple[ProcessId, ...]
    traces: Dict[ProcessId, Tuple[str, ...]]

    @property
    def total_steps(self) -> int:
        return sum(self.steps.values())


class Scheduler(abc.ABC):
    """Base class: runs a set of programs, choosing who steps next."""

    def __init__(self, crash_plan: Optional[CrashPlan] = None, max_steps: int = 1_000_000) -> None:
        self._crash_plan = crash_plan or CrashPlan.none()
        self._max_steps = max_steps

    @abc.abstractmethod
    def _pick(self, runnable: Sequence[ProcessId], rng_tick: int) -> ProcessId:
        """Choose the next process to step among ``runnable`` (never empty)."""

    def run(self, programs: Dict[ProcessId, MemoryProgram]) -> SchedulerOutcome:
        """Run all programs to completion, crash or scheduler exhaustion."""
        slots = {
            process: _ProcessSlot(process=process, program=program)
            for process, program in programs.items()
        }
        schedule: List[ProcessId] = []
        total = 0
        while True:
            runnable = [
                process
                for process, slot in sorted(slots.items())
                if not slot.finished and not slot.crashed
            ]
            if not runnable:
                break
            if total >= self._max_steps:
                raise SimulationError(
                    f"scheduler exceeded {self._max_steps} steps; "
                    "a program is likely not wait-free"
                )
            process = self._pick(runnable, total)
            if process not in slots:
                raise SimulationError(f"scheduler picked unknown process {process}")
            slot = slots[process]
            if slot.finished or slot.crashed:
                # A fixed schedule may name a finished process; skip the tick.
                total += 1
                continue
            self._step(slot)
            schedule.append(process)
            total += 1
            if self._crash_plan.crashes(process, slot.steps):
                slot.crashed = True

        return SchedulerOutcome(
            results={p: s.result for p, s in slots.items() if s.finished},
            steps={p: s.steps for p, s in slots.items()},
            crashed=tuple(sorted(p for p, s in slots.items() if s.crashed)),
            unfinished=tuple(
                sorted(p for p, s in slots.items() if not s.finished and not s.crashed)
            ),
            schedule=tuple(schedule),
            traces={p: tuple(s.trace) for p, s in slots.items()},
        )

    @staticmethod
    def _step(slot: _ProcessSlot) -> None:
        """Execute one step of ``slot``: one atomic access plus local code."""
        slot.steps += 1
        try:
            if not slot.started:
                slot.started = True
                slot.pending = next(slot.program)
                slot.trace.append(f"request {slot.pending.label}")
                return
            assert slot.pending is not None
            access = slot.pending
            result = access.perform()
            slot.trace.append(f"perform {access.label}")
            slot.pending = slot.program.send(result)
            slot.trace.append(f"request {slot.pending.label}")
        except StopIteration as stop:
            slot.finished = True
            slot.pending = None
            slot.result = stop.value


class RoundRobinScheduler(Scheduler):
    """Schedules runnable processes in a fixed cyclic order."""

    def _pick(self, runnable: Sequence[ProcessId], rng_tick: int) -> ProcessId:
        return runnable[rng_tick % len(runnable)]


class RandomScheduler(Scheduler):
    """Schedules a uniformly random runnable process at every step."""

    def __init__(
        self,
        rng: SeededRng,
        crash_plan: Optional[CrashPlan] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        super().__init__(crash_plan=crash_plan, max_steps=max_steps)
        self._rng = rng

    def _pick(self, runnable: Sequence[ProcessId], rng_tick: int) -> ProcessId:
        return self._rng.choice(list(runnable))


class FixedScheduler(Scheduler):
    """Follows an explicit schedule (a sequence of process identifiers).

    Once the explicit schedule is exhausted the scheduler falls back to
    round-robin so that all programs still run to completion — useful for
    tests that only want to force a particular prefix interleaving (for
    example "p0 snapshots, then p1 runs to completion, then p0 resumes").
    """

    def __init__(
        self,
        schedule: Iterable[ProcessId],
        crash_plan: Optional[CrashPlan] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        super().__init__(crash_plan=crash_plan, max_steps=max_steps)
        self._schedule: List[ProcessId] = list(schedule)
        self._cursor = 0

    def _pick(self, runnable: Sequence[ProcessId], rng_tick: int) -> ProcessId:
        while self._cursor < len(self._schedule):
            candidate = self._schedule[self._cursor]
            self._cursor += 1
            if candidate in runnable:
                return candidate
        return runnable[rng_tick % len(runnable)]


def enumerate_schedules(
    process_steps: Dict[ProcessId, int], limit: Optional[int] = None
) -> List[Tuple[ProcessId, ...]]:
    """Enumerate interleavings of the given numbers of per-process steps.

    Used by exhaustive small-scale tests (e.g. all interleavings of two
    3-step programs).  ``limit`` caps the number of schedules returned.
    """
    schedules: List[Tuple[ProcessId, ...]] = []

    def extend(remaining: Dict[ProcessId, int], prefix: Tuple[ProcessId, ...]) -> None:
        if limit is not None and len(schedules) >= limit:
            return
        if all(count == 0 for count in remaining.values()):
            schedules.append(prefix)
            return
        for process in sorted(remaining):
            if remaining[process] > 0:
                next_remaining = dict(remaining)
                next_remaining[process] -= 1
                extend(next_remaining, prefix + (process,))

    extend(dict(process_steps), ())
    return schedules
