"""Live shard migration: a first-class, mutable shard -> worker placement.

The paper's consensus-number-1 result means shards never coordinate, so
moving a shard between execution workers needs no agreement protocol — only
state transfer at a quiescent point.  The epoch-barrier scheduler provides
exactly such points for free: at every barrier each shard has executed every
event at or before the barrier time and nothing of its pending future depends
on *where* it will be computed.  This module makes the shard -> worker
assignment an explicit, mutable :class:`PlacementPlan` (instead of the static
round-robin the process pool used to hard-code) and adds the decision layer
on top:

* :class:`PlacementPlan` — who computes which shard, mutable via
  :meth:`PlacementPlan.move`; shared by the scheduler, the backend and the
  :class:`~repro.cluster.system.ClusterSystem` so every layer reads one
  truth.
* :class:`MigrationPolicy` — the decision seam, consulted once per barrier
  with per-shard load signals (simulator events and settlement volume).
  :class:`MigrationPlan` is the manual schedule (move shard ``s`` to worker
  ``w`` at simulated time ``t``); :class:`ThresholdMigrationPolicy` watches
  the per-worker load imbalance over a barrier window and moves the hottest
  shard off the busiest worker when the imbalance crosses its threshold.
* :func:`rebalance_moves` — the greedy balancer behind
  :meth:`~repro.cluster.system.ClusterSystem.rebalance`.

The headline guarantee is **placement invariance**: a shard's deterministic
event sequence is a function of its spec and its barrier inputs, never of the
worker that computes it, so *any* migration schedule — none, a manual plan, a
threshold policy, a mid-run ``rebalance()`` call — produces the bit-identical
:meth:`~repro.cluster.result.ClusterResult.fingerprint` of the static
assignment.  The extended equivalence harness
(``tests/cluster/test_migration.py``) asserts exactly that across
Serial/Process.

Policies must be **deterministic** functions of their observation stream:
they may keep internal state (windows, cooldowns), but the scheduler feeds
them exactly once per taken barrier with backend-invariant load signals, so
the same seed yields the same migration schedule on every backend — which is
what lets the equivalence harness compare whole fingerprint *payloads*
(migration stream included), not just the placement-free hash.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ShardLoad:
    """Cumulative load signals of one shard, as observed by the scheduler.

    ``events`` counts the shard simulator's processed events (the raw
    compute the worker spends); ``settlement`` counts the settlement items
    the shard originated or absorbed (validations observed, mints and
    retirements applied) — the cross-shard traffic a placement decision may
    want to weigh differently.  Both are cumulative and backend-invariant;
    policies that want per-window deltas keep the previous observation
    themselves.
    """

    events: int = 0
    settlement: int = 0

    def weight(self, settlement_weight: int = 1) -> int:
        """One scalar load figure; ``settlement_weight`` scales the traffic."""
        return self.events + settlement_weight * self.settlement


@dataclass(frozen=True)
class Move:
    """One placement change: put ``shard`` on ``worker``."""

    shard: int
    worker: int


@dataclass(frozen=True)
class MigrationRecord:
    """One executed migration, as the backend reports it.

    ``snapshot_bytes`` (the pickled :class:`~repro.cluster.shard.ShardSnapshot`
    the move verified against) and ``stall_s`` (wall-clock time the barrier
    stalled while the shard travelled) are *measurements* — they feed the
    benchmark's migration rows but never the deterministic
    :meth:`signature`, which carries only what every backend must agree on.
    """

    barrier: int
    time: float
    shard: int
    source_worker: int
    target_worker: int
    snapshot_bytes: int
    stall_s: float
    # Replay measurements (0 on backends that ship nothing): bytes of the
    # adopt payload — the shard's arrivals and barrier-command history, as
    # framed for the pipe — and how many commands + arrivals the adopting
    # worker replays from genesis.
    delta_bytes: int = 0
    replayed_events: int = 0

    def signature(self) -> tuple:
        """The deterministic, backend-invariant content of this move."""
        return (
            self.barrier,
            round(self.time, 12),
            self.shard,
            self.source_worker,
            self.target_worker,
        )


def migration_totals(records: Sequence[MigrationRecord]) -> Dict[str, float]:
    """Aggregate a migration stream for the telemetry capture.

    Totals only — moves, snapshot bytes shipped, barrier stall time — so the
    result's telemetry section can summarise the schedule without repeating
    the full per-move record list the migrations section already carries.
    """
    return {
        "moves": len(records),
        "snapshot_bytes": sum(record.snapshot_bytes for record in records),
        "stall_s": sum(record.stall_s for record in records),
        "delta_bytes": sum(record.delta_bytes for record in records),
        "replayed_events": sum(record.replayed_events for record in records),
    }


class PlacementPlan:
    """The mutable shard -> worker assignment, shared across the stack.

    One instance per cluster: the :class:`~repro.cluster.system.ClusterSystem`
    builds it, the execution backend consults it to route per-epoch commands,
    and :meth:`move` is how a migration (policy-decided or manual) changes
    it.  Workers are *logical* slots: the process pool maps them onto real
    worker processes, the serial backend keeps them as bookkeeping — which
    is what lets the equivalence harness run the same migration schedule on
    every backend and compare the recorded streams.
    """

    def __init__(
        self,
        shard_count: int,
        worker_count: int,
        assignment: Optional[Dict[int, int]] = None,
    ) -> None:
        if shard_count <= 0:
            raise ConfigurationError("shard_count must be positive")
        if worker_count <= 0:
            raise ConfigurationError("worker_count must be positive")
        self.shard_count = shard_count
        self.worker_count = worker_count
        if assignment is None:
            assignment = {shard: shard % worker_count for shard in range(shard_count)}
        if sorted(assignment) != list(range(shard_count)):
            raise ConfigurationError(
                "assignment must map every shard 0..shard_count-1 exactly once"
            )
        for shard, worker in assignment.items():
            self.check_worker(worker)
        self._assignment = dict(assignment)
        self.moves_applied = 0

    def check_worker(self, worker: int) -> None:
        """Reject worker slots outside the plan (backends call this *before*
        any state changes — an out-of-range move must fail cleanly, never
        after a shard has already been detached from its old worker)."""
        if not 0 <= worker < self.worker_count:
            raise ConfigurationError(
                f"worker {worker} outside the plan's 0..{self.worker_count - 1} slots"
            )

    def worker_of(self, shard: int) -> int:
        if shard not in self._assignment:
            raise ConfigurationError(f"shard {shard} is not in this placement plan")
        return self._assignment[shard]

    def shards_on(self, worker: int) -> List[int]:
        self.check_worker(worker)
        return sorted(s for s, w in self._assignment.items() if w == worker)

    def move(self, shard: int, worker: int) -> int:
        """Reassign ``shard`` to ``worker``; returns the previous worker."""
        previous = self.worker_of(shard)
        self.check_worker(worker)
        self._assignment[shard] = worker
        if worker != previous:
            self.moves_applied += 1
        return previous

    def as_dict(self) -> Dict[int, int]:
        return dict(self._assignment)

    def worker_loads(
        self, loads: Dict[int, ShardLoad], settlement_weight: int = 1
    ) -> Dict[int, int]:
        """Per-worker load totals under this assignment (all slots listed)."""
        totals = {worker: 0 for worker in range(self.worker_count)}
        for shard, worker in self._assignment.items():
            load = loads.get(shard)
            if load is not None:
                totals[worker] += load.weight(settlement_weight)
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementPlan({self._assignment}, workers={self.worker_count}, "
            f"moves={self.moves_applied})"
        )


# -- the decision seam ------------------------------------------------------------------------


class MigrationPolicy(abc.ABC):
    """Decides placement moves, once per epoch barrier.

    The scheduler calls :meth:`decide` at every barrier with the barrier
    index, the barrier time, the live placement and the cumulative per-shard
    :class:`ShardLoad` signals.  Policies may keep internal state (windows,
    cooldowns, consumed schedules) but must be deterministic functions of
    this observation stream: the signals are backend-invariant, so the same
    seed must produce the same migration schedule on every backend.
    Returned moves that are no-ops (shard already on the target worker) are
    skipped by the backend without a record.
    """

    @abc.abstractmethod
    def decide(
        self,
        barrier: int,
        now: float,
        placement: PlacementPlan,
        loads: Dict[int, ShardLoad],
    ) -> List[Move]:
        """The moves to execute at this barrier (empty = stay put)."""

    def describe(self) -> str:
        return type(self).__name__


class MigrationPlan(MigrationPolicy):
    """A manual migration schedule: explicit ``(at, shard, worker)`` moves.

    Each entry fires at the first barrier whose time is at or past ``at``
    (barrier times, not indices, so the plan is meaningful under any epoch
    policy), in ``(at, shard)`` order, exactly once.  An empty plan is the
    "migrations on, nothing scheduled" configuration rebalance-only runs
    use.
    """

    def __init__(self, moves: Sequence[Tuple[float, int, int]] = ()) -> None:
        self._pending: List[Tuple[float, int, int]] = sorted(
            (float(at), int(shard), int(worker)) for at, shard, worker in moves
        )
        for at, _, _ in self._pending:
            if at < 0:
                raise ConfigurationError("manual moves cannot be scheduled before t=0")

    def decide(
        self,
        barrier: int,
        now: float,
        placement: PlacementPlan,
        loads: Dict[int, ShardLoad],
    ) -> List[Move]:
        due = [entry for entry in self._pending if entry[0] <= now]
        if not due:
            return []
        self._pending = self._pending[len(due):]
        return [Move(shard=shard, worker=worker) for _, shard, worker in due]

    @property
    def pending_moves(self) -> int:
        return len(self._pending)

    def describe(self) -> str:
        return f"manual({self.pending_moves} pending)"


class ThresholdMigrationPolicy(MigrationPolicy):
    """Moves the hottest shard off the busiest worker under sustained skew.

    Every ``every`` barriers the policy computes each shard's load *delta*
    over the window, aggregates per worker under the current placement, and
    acts when ``max_worker_load > imbalance_threshold * mean_worker_load``:
    the hottest eligible shard on the busiest worker moves to the least
    loaded worker, at most ``max_moves`` per evaluation, provided the move
    strictly improves the maximum (a worker whose load is one unsplittable
    hot shard stays put — migration cannot help it).  ``cooldown`` barriers
    must pass before the same shard moves again, which keeps a phase-shifting
    hotspot from bouncing a shard back and forth every window.

    All inputs are backend-invariant and all tie-breaks are by shard/worker
    index, so the decision stream — and with it the recorded migration
    stream — is identical on every backend.
    """

    def __init__(
        self,
        imbalance_threshold: float = 1.25,
        every: int = 4,
        cooldown: int = 8,
        max_moves: int = 1,
        settlement_weight: int = 25,
    ) -> None:
        if imbalance_threshold <= 1.0:
            raise ConfigurationError("imbalance_threshold must exceed 1.0")
        if every < 1:
            raise ConfigurationError("every must be at least 1 barrier")
        if cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        if max_moves < 1:
            raise ConfigurationError("max_moves must be at least 1")
        if settlement_weight < 0:
            raise ConfigurationError("settlement_weight must be non-negative")
        self.imbalance_threshold = imbalance_threshold
        self.every = every
        self.cooldown = cooldown
        self.max_moves = max_moves
        self.settlement_weight = settlement_weight
        self._last_loads: Dict[int, int] = {}
        self._last_moved: Dict[int, int] = {}
        self.evaluations = 0

    def decide(
        self,
        barrier: int,
        now: float,
        placement: PlacementPlan,
        loads: Dict[int, ShardLoad],
    ) -> List[Move]:
        if placement.worker_count < 2 or barrier == 0 or barrier % self.every != 0:
            return []
        deltas = {
            shard: load.weight(self.settlement_weight) - self._last_loads.get(shard, 0)
            for shard, load in loads.items()
        }
        self._last_loads = {
            shard: load.weight(self.settlement_weight) for shard, load in loads.items()
        }
        self.evaluations += 1
        worker_loads = {worker: 0 for worker in range(placement.worker_count)}
        for shard, delta in deltas.items():
            worker_loads[placement.worker_of(shard)] += delta
        moves: List[Move] = []
        for _ in range(self.max_moves):
            total = sum(worker_loads.values())
            if total <= 0:
                break
            mean = total / len(worker_loads)
            # Busiest worker; ties break low so the choice is deterministic.
            busiest = min(worker_loads, key=lambda w: (-worker_loads[w], w))
            if worker_loads[busiest] <= self.imbalance_threshold * mean:
                break
            coolest = min(worker_loads, key=lambda w: (worker_loads[w], w))
            candidates = sorted(
                (
                    shard
                    for shard in placement.shards_on(busiest)
                    if barrier - self._last_moved.get(shard, -(self.cooldown + 1))
                    > self.cooldown
                ),
                key=lambda s: (-deltas.get(s, 0), s),
            )
            if len(placement.shards_on(busiest)) < 2:
                break
            # Hottest shard first, falling back to cooler ones: a move only
            # happens when it strictly lowers the peak (landing the hottest
            # shard on the coolest worker can make *it* the new peak — then
            # a smaller shard is the right move, and if none fits, none is).
            chosen = None
            for shard in candidates:
                delta = deltas.get(shard, 0)
                if delta > 0 and worker_loads[coolest] + delta < worker_loads[busiest]:
                    chosen = shard
                    break
            if chosen is None:
                break
            delta = deltas[chosen]
            worker_loads[busiest] -= delta
            worker_loads[coolest] += delta
            self._last_moved[chosen] = barrier
            moves.append(Move(shard=chosen, worker=coolest))
            # Reflect the move locally so a second move this evaluation sees
            # the updated distribution (the plan itself mutates only when the
            # backend executes).
            placement = _with_move(placement, chosen, coolest)
        return moves

    def describe(self) -> str:
        return (
            f"threshold(x{self.imbalance_threshold}, every {self.every}, "
            f"cooldown {self.cooldown})"
        )


def _with_move(placement: PlacementPlan, shard: int, worker: int) -> PlacementPlan:
    """A copy of ``placement`` with one move applied (decision look-ahead)."""
    assignment = placement.as_dict()
    assignment[shard] = worker
    return PlacementPlan(placement.shard_count, placement.worker_count, assignment)


def rebalance_moves(
    placement: PlacementPlan,
    loads: Dict[int, ShardLoad],
    settlement_weight: int = 1,
    max_moves: Optional[int] = None,
) -> List[Move]:
    """Greedy one-shot balancing: what :meth:`ClusterSystem.rebalance` runs.

    Repeatedly moves the hottest shard of the most loaded worker to the
    least loaded worker while that strictly lowers the maximum per-worker
    load, using the *cumulative* load signals (a one-shot call balances the
    run so far, not a window).  Deterministic: all ties break by index.
    """
    weights = {
        shard: loads.get(shard, ShardLoad()).weight(settlement_weight)
        for shard in range(placement.shard_count)
    }
    assignment = placement.as_dict()
    worker_loads = {worker: 0 for worker in range(placement.worker_count)}
    for shard, worker in assignment.items():
        worker_loads[worker] += weights[shard]
    moves: List[Move] = []
    budget = max_moves if max_moves is not None else placement.shard_count
    while len(moves) < budget:
        busiest = min(worker_loads, key=lambda w: (-worker_loads[w], w))
        coolest = min(worker_loads, key=lambda w: (worker_loads[w], w))
        shards = sorted(
            (s for s, w in assignment.items() if w == busiest),
            key=lambda s: (-weights[s], s),
        )
        if len(shards) < 2 or busiest == coolest:
            break
        # The best single move is the shard whose weight, landed on the
        # coolest worker, lowers the maximum the most; prefer the hottest
        # shard that still fits.
        candidate = None
        for shard in shards:
            if worker_loads[coolest] + weights[shard] < worker_loads[busiest]:
                candidate = shard
                break
        if candidate is None:
            break
        assignment[candidate] = coolest
        worker_loads[busiest] -= weights[candidate]
        worker_loads[coolest] += weights[candidate]
        moves.append(Move(shard=candidate, worker=coolest))
    return moves


def normalize_migration(migration) -> Tuple[bool, Optional[MigrationPolicy]]:
    """Interpret the ``ClusterSystem(migration=...)`` knob.

    Returns ``(enabled, policy)``: ``None``/"off" disables the seam
    entirely, "manual" enables it with no automatic policy (moves come from
    :meth:`~repro.cluster.system.ClusterSystem.rebalance` or not at all), a
    :class:`MigrationPolicy` instance enables it under that policy.
    """
    if migration is None or migration == "off":
        return False, None
    if migration == "manual":
        return True, None
    if isinstance(migration, MigrationPolicy):
        return True, migration
    raise ConfigurationError(
        f"unknown migration knob {migration!r}; expected None, 'off', 'manual', "
        "or a MigrationPolicy instance"
    )
