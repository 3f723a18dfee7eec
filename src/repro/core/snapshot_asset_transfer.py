"""Figure 1: wait-free asset transfer from an atomic snapshot.

This is the paper's central construction (Theorem 1): an asset-transfer
object with at most one owner per account, implemented using only an
atomic-snapshot object — and therefore using only read/write registers,
because atomic snapshots are register-implementable.  Consequently the
asset-transfer type has **consensus number 1**.

The algorithm, per process ``p``::

    transfer(a, b, x):
        S = AS.snapshot()
        if p ∉ mu(a) or balance(a, S) < x: return False
        ops_p = ops_p ∪ {(a, b, x)}
        AS.update(p, ops_p)
        return True

    read(a):
        return balance(a, AS.snapshot())

where ``balance(a, S)`` is the initial balance of ``a`` plus the incoming
minus the outgoing amounts found anywhere in the snapshot.  Because each
account has a *single* owner and processes are sequential, at most one
outgoing transfer per account is ever in flight, which is exactly why no
agreement is needed.

The class exposes:

* generator methods (``transfer``/``read``) for use under the concurrency
  scheduler, which is how the linearizability experiments (E1) drive it, and
* immediate-mode methods (``transfer_now``/``read_now``) for sequential use
  in examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Protocol, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import (
    AccountId,
    Amount,
    MultiTransfer,
    OwnershipMap,
    ProcessId,
    Transfer,
)
from repro.core.accounts import balance_from_snapshot
from repro.shared_memory.access import MemoryProgram, run_sequentially
from repro.shared_memory.atomic_snapshot import AtomicSnapshot


class SnapshotMemory(Protocol):
    """The slice of the atomic-snapshot interface Figure 1 needs."""

    def snapshot(self, process: Optional[ProcessId] = None) -> MemoryProgram: ...

    def update(self, process: ProcessId, value) -> MemoryProgram: ...

    def __len__(self) -> int: ...


class SnapshotAssetTransfer:
    """The Figure 1 asset-transfer implementation.

    Parameters
    ----------
    ownership:
        Owner map with at most one owner per account (enforced).
    initial_balances:
        The ``q0`` map; missing accounts start at zero.
    memory:
        An atomic-snapshot object with one segment per process — either the
        primitive :class:`~repro.shared_memory.atomic_snapshot.AtomicSnapshot`
        or the register-based
        :class:`~repro.shared_memory.afek_snapshot.AfekSnapshot`.
    """

    def __init__(
        self,
        ownership: OwnershipMap,
        initial_balances: Optional[Mapping[AccountId, Amount]] = None,
        memory: Optional[SnapshotMemory] = None,
    ) -> None:
        if ownership.sharing_degree > 1:
            raise ConfigurationError(
                "Figure 1 requires at most one owner per account; "
                "use KSharedAssetTransfer for shared accounts"
            )
        self.ownership = ownership
        self._initial: Dict[AccountId, Amount] = {
            account: 0 for account in ownership.accounts
        }
        if initial_balances:
            for account, amount in initial_balances.items():
                if account not in self._initial:
                    raise ConfigurationError(
                        f"initial balance for unknown account {account!r}"
                    )
                self._initial[account] = amount
        process_count = (max(ownership.processes) + 1) if ownership.processes else 1
        if memory is None:
            memory = AtomicSnapshot(size=process_count, initial=None, name="AS")
        if len(memory) < process_count:
            raise ConfigurationError(
                f"snapshot memory has {len(memory)} segments but the ownership map "
                f"mentions process {process_count - 1}"
            )
        self._memory = memory
        # ops_p of Figure 1: the local set of successful outgoing transfers,
        # one per process.  Sequence numbers make the sets grow monotonically
        # even when the same (a, b, x) triple repeats.
        self._ops: Dict[ProcessId, FrozenSet[Transfer]] = {}
        self._next_sequence: Dict[ProcessId, int] = {}

    # -- helpers -----------------------------------------------------------------

    def initial_balance(self, account: AccountId) -> Amount:
        return self._initial.get(account, 0)

    def balance_in_snapshot(self, account: AccountId, snapshot: Tuple) -> Amount:
        """``balance(a, S)`` of Figure 1."""
        return balance_from_snapshot(account, self._initial.get(account, 0), snapshot)

    @property
    def memory(self) -> SnapshotMemory:
        return self._memory

    # -- Figure 1, generator API ----------------------------------------------------

    def transfer(
        self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> MemoryProgram:
        """``transfer(a, b, x)`` executed by ``process`` (the owner of ``a``)."""
        snapshot = yield from self._memory.snapshot(process)          # line 1
        if (
            not self.ownership.is_owner(process, source)
            or amount < 0
            or self.balance_in_snapshot(source, snapshot) < amount
        ):
            return False                                              # lines 2-3
        sequence = self._next_sequence.get(process, 0)
        transfer = Transfer(
            source=source,
            destination=destination,
            amount=amount,
            issuer=process,
            sequence=sequence,
        )
        ops = self._ops.get(process, frozenset()) | {transfer}        # line 4
        self._ops[process] = ops
        self._next_sequence[process] = sequence + 1
        yield from self._memory.update(process, ops)                  # line 5
        return True                                                   # line 6

    def transfer_multi(self, process: ProcessId, multi: "MultiTransfer") -> MemoryProgram:
        """Multi-destination transfer (the extension noted at the end of §2.2).

        The source account is debited by the sum of the outputs; all outputs
        are installed with a single ``update``, so the operation is atomic
        exactly like a plain transfer.
        """
        snapshot = yield from self._memory.snapshot(process)
        if (
            not self.ownership.is_owner(process, multi.source)
            or multi.amount < 0
            or self.balance_in_snapshot(multi.source, snapshot) < multi.amount
        ):
            return False
        sequence = self._next_sequence.get(process, 0)
        parts = tuple(
            Transfer(
                source=multi.source,
                destination=destination,
                amount=amount,
                issuer=process,
                sequence=sequence + index,
            )
            for index, (destination, amount) in enumerate(multi.outputs)
        )
        ops = self._ops.get(process, frozenset()) | set(parts)
        self._ops[process] = ops
        self._next_sequence[process] = sequence + len(parts)
        yield from self._memory.update(process, ops)
        return True

    def transfer_multi_now(self, process: ProcessId, multi: "MultiTransfer") -> bool:
        """Run :meth:`transfer_multi` with no interleaving (sequential callers)."""
        return run_sequentially(self.transfer_multi(process, multi))

    def read(self, process: ProcessId, account: AccountId) -> MemoryProgram:
        """``read(a)``: balance derived from a fresh snapshot."""
        snapshot = yield from self._memory.snapshot(process)          # line 7
        return self.balance_in_snapshot(account, snapshot)            # line 8

    # -- immediate-mode facade ---------------------------------------------------------

    def transfer_now(
        self,
        process: ProcessId,
        source: AccountId,
        destination: AccountId,
        amount: Amount,
    ) -> bool:
        """Run ``transfer`` with no interleaving (sequential callers)."""
        return run_sequentially(self.transfer(process, source, destination, amount))

    def read_now(self, process: ProcessId, account: AccountId) -> Amount:
        """Run ``read`` with no interleaving (sequential callers)."""
        return run_sequentially(self.read(process, account))

    def balances_now(self) -> Dict[AccountId, Amount]:
        """Read every account balance (sequential callers)."""
        return {
            account: self.read_now(next(iter(self.ownership.owners(account)), 0), account)
            for account in self.ownership.accounts
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotAssetTransfer(accounts={len(self.ownership)})"
