"""Account books: the balance fold, the sequential reference, the protocol's book.

The paper states a balance as a *fold*: ``balance(a, S)`` is the initial
balance of ``a`` plus the incoming minus the outgoing amounts of the
successful transfers in ``S``.  :func:`balance_from_transfers` is that fold
and is the **specification**: the shared-memory algorithms evaluate it on a
snapshot (:func:`balance_from_snapshot`, Figure 1;
:func:`balance_from_decided_snapshot`, Figure 3) and the differential tests
require every maintained balance to equal it.

:class:`Ledger` is the **sequential reference** — transfers applied one at a
time under the sequential specification; it backs the consensus baseline's
execution layer (``bft/``), the examples and the facades.
:class:`AccountBook` is the **protocol's book** — the ``hist`` record sets of
the message-passing protocols (Figure 4, Section 6) plus a running balance per
account, so ``balance(a, hist[a])`` is an O(1) read, not a walk over ``hist[a]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, OwnershipMap, Transfer, TransferStatus


def balance_from_transfers(
    account: AccountId,
    initial_balance: Amount,
    transfers: Iterable[Transfer],
) -> Amount:
    """Balance of ``account`` after applying the given successful transfers."""
    balance = initial_balance
    for transfer in transfers:
        if transfer.is_incoming_for(account):
            balance += transfer.amount
        if transfer.is_outgoing_for(account):
            balance -= transfer.amount
    return balance


def balance_from_snapshot(
    account: AccountId,
    initial_balance: Amount,
    snapshot: Iterable[Optional[Iterable[Transfer]]],
) -> Amount:
    """Balance of ``account`` from an atomic-snapshot vector of transfer sets.

    This is ``balance(a, S)`` of Figure 1: every segment of the snapshot holds
    the set of successful transfers executed by one process (or ``None`` if
    that process has not written yet).  A transfer counts once even if it
    appears in several segments (set semantics, as in the paper).
    """
    seen: set = set()
    for segment in snapshot:
        if segment:
            seen.update(segment)
    return balance_from_transfers(account, initial_balance, seen)


def balance_from_decided_snapshot(
    account: AccountId,
    initial_balance: Amount,
    snapshot: Iterable[Optional[Iterable[Tuple[Transfer, TransferStatus]]]],
) -> Amount:
    """Balance of ``account`` from a snapshot of (transfer, status) histories.

    This is ``balance(a, snapshot)`` of Figure 3: segments hold sets of
    *decided* transfer/result pairs and only successful ones count.  The same
    decision may appear in several processes' segments (every owner records
    the decisions it observes), so the union is taken before summing — the
    paper's ``(tx, success) ∈ AS`` is an existence test, not a multiset count.
    """
    successful: set = set()
    for segment in snapshot:
        if not segment:
            continue
        for transfer, status in segment:
            if status is TransferStatus.SUCCESS:
                successful.add(transfer)
    return balance_from_transfers(account, initial_balance, successful)


@dataclass
class Ledger:
    """A plain sequential ledger: the reference the checkers compare against.

    The ledger applies transfers under the sequential specification rules and
    is used by examples, benchmarks (for validating final balances) and by
    the consensus-based baseline's execution layer.
    """

    ownership: OwnershipMap
    balances: Dict[AccountId, Amount] = field(default_factory=dict)
    applied: list = field(default_factory=list)

    def __post_init__(self) -> None:
        for account in self.ownership.accounts:
            self.balances.setdefault(account, 0)

    @classmethod
    def with_initial_balance(
        cls, ownership: OwnershipMap, balance: Amount, overrides: Optional[Mapping[AccountId, Amount]] = None
    ) -> "Ledger":
        balances = {account: balance for account in ownership.accounts}
        if overrides:
            for account, amount in overrides.items():
                if account not in balances:
                    raise ConfigurationError(f"override for unknown account {account!r}")
                balances[account] = amount
        return cls(ownership=ownership, balances=balances)

    def balance(self, account: AccountId) -> Amount:
        return self.balances.get(account, 0)

    def can_apply(self, transfer: Transfer) -> bool:
        """Check ownership and balance for ``transfer`` without applying it."""
        if not self.ownership.is_owner(transfer.issuer, transfer.source):
            return False
        return self.balances.get(transfer.source, 0) >= transfer.amount

    def apply(self, transfer: Transfer) -> bool:
        """Apply ``transfer`` if it is valid; return whether it succeeded."""
        if not self.can_apply(transfer):
            return False
        self.balances[transfer.source] = self.balances.get(transfer.source, 0) - transfer.amount
        self.balances[transfer.destination] = (
            self.balances.get(transfer.destination, 0) + transfer.amount
        )
        self.applied.append(transfer)
        return True

    def total_supply(self) -> Amount:
        """Sum of all balances; invariant under :meth:`apply`."""
        return sum(self.balances.values())

    def copy(self) -> "Ledger":
        clone = Ledger(ownership=self.ownership, balances=dict(self.balances))
        clone.applied = list(self.applied)
        return clone


class AccountBook:
    """Figure 4's ``hist`` with ``balance(a, hist[a])`` kept as a running sum.

    A transfer is indexed under its source and its destination together
    (``t in book`` tests exactly that) and possibly under a third account that
    declared it as a dependency (line 15), where it moves no balance.
    :meth:`record` and :meth:`discard` are the only mutators — ``hist`` is a
    read-only view — so ``balance(a) == balance_from_transfers(a, initial[a] +
    offsets[a], hist[a])`` after every call.  ``offsets`` is the baseline left
    by discarded records; ``hist`` and ``offsets`` are all a snapshot ships,
    and :meth:`rebuild` re-derives the running sums from them with the fold.
    """

    def __init__(self, initial_balances: Mapping[AccountId, Amount]) -> None:
        self._initial = initial_balances
        self._records: Dict[AccountId, Set[Transfer]] = {}
        self._delta: Dict[AccountId, Amount] = {}
        self.offsets: Dict[AccountId, Amount] = {}
        self.hist: Mapping[AccountId, AbstractSet[Transfer]] = MappingProxyType(self._records)

    def __contains__(self, transfer: Transfer) -> bool:
        return transfer in self._records.get(transfer.source, ())

    def balance(self, account: AccountId) -> Amount:
        return self._initial.get(account, 0) + self._delta.get(account, 0)

    def record(self, transfer: Transfer, also_under: Optional[AccountId] = None) -> bool:
        """Record ``transfer`` under both its accounts; ``True`` if it was new.

        Set semantics, as in the paper: a transfer already present counts
        once.  ``also_under`` additionally indexes it under that account.
        """
        records, delta = self._records, self._delta
        source_records = records.setdefault(transfer.source, set())
        new = transfer not in source_records
        if new:
            source_records.add(transfer)
            records.setdefault(transfer.destination, set()).add(transfer)
            delta[transfer.source] = delta.get(transfer.source, 0) - transfer.amount
            delta[transfer.destination] = delta.get(transfer.destination, 0) + transfer.amount
        if also_under is not None:
            records.setdefault(also_under, set()).add(transfer)
        return new

    def discard(self, transfer: Transfer, keep_credit: bool) -> None:
        """Drop a recorded transfer, folding its debit into the source's offset.

        The source's balance never moves.  With ``keep_credit`` the credit is
        folded into the destination's offset too (a consumed local record:
        no balance moves); without it the destination's balance falls by the
        amount (a settled outbound record: the money lives elsewhere now).
        """
        for account in (transfer.source, transfer.destination):
            involved = self._records.get(account)
            if involved is not None:
                involved.discard(transfer)
                if not involved:
                    del self._records[account]
        offsets, amount = self.offsets, transfer.amount
        offsets[transfer.source] = offsets.get(transfer.source, 0) - amount
        if keep_credit:
            offsets[transfer.destination] = offsets.get(transfer.destination, 0) + amount
        else:
            self._delta[transfer.destination] = self._delta.get(transfer.destination, 0) - amount

    def rebuild(
        self, hist: Mapping[AccountId, Iterable[Transfer]], offsets: Mapping[AccountId, Amount]
    ) -> None:
        """Adopt a shipped ``(hist, offsets)`` pair; balances come from the fold."""
        self._records.clear()
        self._records.update((account, set(records)) for account, records in hist.items())
        self.offsets = dict(offsets)
        self._delta = dict(offsets)
        for account, records in self._records.items():
            self._delta[account] = balance_from_transfers(
                account, self._delta.get(account, 0), records
            )
