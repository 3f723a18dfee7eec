"""Domain vocabulary shared by every layer of the reproduction.

The paper (Section 2.2) models the asset-transfer object over a set of
accounts ``A``, an owner map ``mu : A -> 2^Pi`` and transfers
``transfer(a, b, x)``.  This module gives those notions concrete, hashable
Python representations that the shared-memory algorithms, the message-passing
protocols and the specification checkers all share.

Design notes
------------
* ``ProcessId`` and ``AccountId`` are plain ``int``/``str`` aliases rather
  than wrapper classes.  The algorithms index arrays by process identifier
  and use account identifiers as dictionary keys constantly; keeping them
  primitive keeps the hot paths cheap and the test fixtures terse.
* :class:`Transfer` is a frozen dataclass so that transfers can be stored in
  sets and used as dictionary keys, exactly the way the pseudocode stores
  them in ``hist`` sets and snapshot entries.  It is hashed at every one of
  those touches, so it computes its hash once (:class:`HashOnce`).
* :class:`OwnershipMap` is the library's representation of ``mu``.  It also
  derives the *sharing degree* ``k = max_a |mu(a)|`` that determines the
  consensus number in Section 4.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

# A process identifier.  Processes are numbered 0..N-1 throughout the library.
ProcessId = int

# An account identifier.  Accounts are named by strings (e.g. "alice") or, in
# the message-passing protocols where each process owns exactly one account,
# by the string form of the owner's process id.
AccountId = str

# Amounts are non-negative integers, as in the paper (balances live in N).
Amount = int


class TransferStatus(enum.Enum):
    """Outcome of a transfer as recorded in histories and protocol state."""

    SUCCESS = "success"
    FAILURE = "failure"
    PENDING = "pending"

    def __bool__(self) -> bool:
        return self is TransferStatus.SUCCESS


def rebuilt_by_constructor(cls):
    """Class decorator (outside ``@dataclass``): rebuild instances by calling the class.

    Pickle, ``copy`` and ``deepcopy`` then hand the field values, in
    declaration order, to ``__init__`` — so ``__post_init__`` runs wherever
    the object arrives — instead of restoring fields behind its back.  It
    also pays on the worker pipes, which is why the records a shard snapshot
    is made of carry it.  Pickle's default fills a plain dataclass through
    ``instance.__dict__``, which in CPython 3.11+ materialises a dict per
    object (201 bytes against 136 for a three-field record): the audit over a
    decoded snapshot ran a tenth slower than over constructed objects.  Field
    values without their names make a snapshot 40 % fewer bytes, and a
    slotted dataclass encodes almost three times faster through one
    ``attrgetter`` than through its generated ``__getstate__``, which walks
    ``fields()`` per object.
    """
    names = [f.name for f in fields(cls)]
    values = attrgetter(*names) if len(names) > 1 else (lambda self: (getattr(self, names[0]),))

    def __reduce__(self):
        return type(self), values(self)

    cls.__reduce__ = __reduce__
    return cls


class HashOnce:
    """Base of a frozen, slotted dataclass that computes its hash once.

    The subclass declares ``@rebuilt_by_constructor`` over
    ``@dataclass(frozen=True, slots=True)``, ends its ``__post_init__`` with
    ``self._hash_once((field, ...))`` over its compared fields in declaration
    order — the value the dataclass-generated method returns — and defines
    ``__hash__`` as ``return self._hash``.  Hashing at construction rather
    than at first use keeps the miss off the read path: an unset slot costs a
    raised ``AttributeError``, five times the hash it saves, and a decoded
    snapshot is all first uses.

    The ``_hash`` slot lives here, on a plain base class, so it is **not** a
    dataclass field: it is in no ``fields()``, ``repr``, ``==`` or pickle.  A
    cached hash therefore never leaves the process — it must not: string
    hashes are salted per interpreter.  :func:`rebuilt_by_constructor` is what
    keeps the slot always set: an unpickled or copied object is validated and
    hashed by its constructor, in the interpreter that will use the hash.
    (The default for a frozen slotted dataclass restores the fields one
    ``object.__setattr__`` at a time and runs neither.)
    """

    __slots__ = ("_hash",)

    def _hash_once(self, compared: tuple) -> None:
        object.__setattr__(self, "_hash", hash(compared))


@rebuilt_by_constructor
@dataclass(frozen=True, order=True)
class TransferId:
    """Globally unique identity of a transfer.

    A transfer is identified by the issuing process and a per-issuer sequence
    number, mirroring the ``(q, s)`` pair used by the message-passing
    protocol in Figure 4 and the ``(s, r)`` metadata of Figure 3.
    """

    issuer: ProcessId
    sequence: int

    def __str__(self) -> str:
        return f"tx[{self.issuer}:{self.sequence}]"


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class Transfer(HashOnce):
    """An asset transfer ``transfer(source, destination, amount)``.

    ``issuer`` is the process that invoked the operation (relevant for
    k-shared accounts where several processes may debit the same account) and
    ``sequence`` is the issuer-local sequence number.  Together they form the
    :class:`TransferId`.
    """

    source: AccountId
    destination: AccountId
    amount: Amount
    issuer: ProcessId = 0
    sequence: int = 0

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ConfigurationError(f"transfer amount must be non-negative, got {self.amount}")
        self._hash_once((self.source, self.destination, self.amount, self.issuer, self.sequence))

    def __hash__(self) -> int:
        return self._hash

    @property
    def transfer_id(self) -> TransferId:
        """Return the globally unique identity of this transfer."""
        return TransferId(self.issuer, self.sequence)

    def involves(self, account: AccountId) -> bool:
        """Return ``True`` if this transfer debits or credits ``account``."""
        return account in (self.source, self.destination)

    def is_outgoing_for(self, account: AccountId) -> bool:
        """Return ``True`` if this transfer debits ``account``."""
        return self.source == account

    def is_incoming_for(self, account: AccountId) -> bool:
        """Return ``True`` if this transfer credits ``account``."""
        return self.destination == account

    def __str__(self) -> str:
        return (
            f"{self.source}->{self.destination}:{self.amount} "
            f"({self.transfer_id})"
        )


@dataclass(frozen=True)
class MultiTransfer:
    """A transfer with multiple destination accounts.

    The paper notes (end of Section 2.2) that the definition extends
    trivially to multiple destinations; this type backs that extension in the
    core library.  The source is still a single account owned by the issuer.
    """

    source: AccountId
    outputs: Tuple[Tuple[AccountId, Amount], ...]
    issuer: ProcessId = 0
    sequence: int = 0

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ConfigurationError("a multi-transfer needs at least one output")
        for destination, amount in self.outputs:
            if amount < 0:
                raise ConfigurationError(
                    f"output to {destination!r} has negative amount {amount}"
                )

    @property
    def amount(self) -> Amount:
        """Total amount debited from the source account."""
        return sum(amount for _, amount in self.outputs)

    @property
    def transfer_id(self) -> TransferId:
        return TransferId(self.issuer, self.sequence)

    def as_simple_transfers(self) -> Tuple[Transfer, ...]:
        """Decompose into single-destination transfers sharing the identity.

        The decomposition is used when feeding a multi-transfer into code
        paths (e.g. balance computations) that operate on simple transfers.
        """
        return tuple(
            Transfer(
                source=self.source,
                destination=destination,
                amount=amount,
                issuer=self.issuer,
                sequence=self.sequence,
            )
            for destination, amount in self.outputs
        )


class OwnershipMap:
    """The owner map ``mu : A -> 2^Pi`` of Section 2.2.

    The map records, for every account, the set of processes allowed to debit
    it.  The *sharing degree* ``k = max_a |mu(a)|`` is the quantity whose
    value determines the consensus number of the object (Section 4).
    """

    def __init__(self, owners: Mapping[AccountId, Iterable[ProcessId]]) -> None:
        self._owners: Dict[AccountId, FrozenSet[ProcessId]] = {}
        for account, processes in owners.items():
            owner_set = frozenset(processes)
            self._owners[account] = owner_set
        if not self._owners:
            raise ConfigurationError("an ownership map needs at least one account")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def single_owner(cls, accounts_to_owner: Mapping[AccountId, ProcessId]) -> "OwnershipMap":
        """Build the Nakamoto-style map where every account has one owner."""
        return cls({account: (owner,) for account, owner in accounts_to_owner.items()})

    @classmethod
    def one_account_per_process(cls, process_count: int) -> "OwnershipMap":
        """Build the map used by the message-passing protocols.

        Each process ``p`` owns exactly one account named ``str(p)``.
        """
        if process_count <= 0:
            raise ConfigurationError("process_count must be positive")
        return cls({str(pid): (pid,) for pid in range(process_count)})

    # -- queries --------------------------------------------------------------

    @property
    def accounts(self) -> Tuple[AccountId, ...]:
        """All accounts, in deterministic (sorted) order."""
        return tuple(sorted(self._owners))

    def owners(self, account: AccountId) -> FrozenSet[ProcessId]:
        """Return ``mu(account)``; unknown accounts have no owners."""
        return self._owners.get(account, frozenset())

    def is_owner(self, process: ProcessId, account: AccountId) -> bool:
        """Return ``True`` if ``process`` belongs to ``mu(account)``."""
        return process in self._owners.get(account, frozenset())

    def accounts_owned_by(self, process: ProcessId) -> Tuple[AccountId, ...]:
        """Return the accounts that ``process`` may debit, sorted."""
        return tuple(
            sorted(account for account, owners in self._owners.items() if process in owners)
        )

    @property
    def sharing_degree(self) -> int:
        """Return ``k = max_a |mu(a)|``, the object's consensus number."""
        return max(len(owners) for owners in self._owners.values())

    @property
    def processes(self) -> Tuple[ProcessId, ...]:
        """Return every process mentioned by the map, sorted."""
        mentioned = set(itertools.chain.from_iterable(self._owners.values()))
        return tuple(sorted(mentioned))

    def __contains__(self, account: AccountId) -> bool:
        return account in self._owners

    def __iter__(self) -> Iterator[AccountId]:
        return iter(self.accounts)

    def __len__(self) -> int:
        return len(self._owners)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OwnershipMap):
            return NotImplemented
        return self._owners == other._owners

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{account}:{sorted(owners)}" for account, owners in sorted(self._owners.items())
        )
        return f"OwnershipMap({parts})"


@dataclass
class AccountState:
    """Mutable view of a single account used by ledgers and examples."""

    account: AccountId
    balance: Amount
    incoming: list = field(default_factory=list)
    outgoing: list = field(default_factory=list)

    def apply(self, transfer: Transfer) -> None:
        """Apply a successful transfer touching this account."""
        if transfer.is_outgoing_for(self.account):
            self.balance -= transfer.amount
            self.outgoing.append(transfer)
        if transfer.is_incoming_for(self.account):
            self.balance += transfer.amount
            self.incoming.append(transfer)


def initial_balances(
    accounts: Sequence[AccountId], balance: Amount = 0, overrides: Optional[Mapping[AccountId, Amount]] = None
) -> Dict[AccountId, Amount]:
    """Build an initial-balance map ``q0`` for the given accounts.

    ``overrides`` lets callers give specific accounts a different starting
    balance, which the consensus reduction of Figure 2 relies on (the shared
    account starts with exactly ``2k``).
    """
    balances: Dict[AccountId, Amount] = {account: balance for account in accounts}
    if overrides:
        for account, value in overrides.items():
            if account not in balances:
                raise ConfigurationError(f"override for unknown account {account!r}")
            balances[account] = value
    for account, value in balances.items():
        if value < 0:
            raise ConfigurationError(f"initial balance of {account!r} is negative ({value})")
    return balances
