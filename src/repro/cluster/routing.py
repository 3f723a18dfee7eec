"""Account-to-shard routing.

The paper's central result — single-owner asset transfer has consensus
number 1 — means transfers on different accounts commute and need no total
order.  The cluster layer exploits exactly that: accounts are hash-partitioned
across independent shard groups, each running its own secure-broadcast layer
and Figure 4 replicas, with **no cross-shard coordination protocol**.

The router is pure and stateless: the mapping from a user to its shard and
to its shard-local issuing process depends only on the user identifier, the
cluster geometry and an explicit salt, never on Python's per-process hash
randomisation.  The same user therefore always lands on the same shard, in
every run, on every machine — the property the determinism regression test
guards.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, ProcessId

# A cluster-level user identifier.  The workload driver simulates up to 10^6
# users; the router folds them onto the shards' process-owned accounts.
UserId = int


# A user's place in the cluster: ``(shard, shard-local process)``.
Placement = Tuple[int, ProcessId]

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def stable_hash(value: object, salt: int = 0) -> int:
    """A process-stable 64-bit hash of ``value`` (unlike builtin ``hash``):
    the big-endian 8-byte BLAKE2b digest of ``f"{salt}\\x00{value!r}"`` in
    UTF-8."""
    digest = _blake2b(f"{salt}\x00{value!r}".encode(), digest_size=8).digest()
    return _from_bytes(digest, "big")


@dataclass(frozen=True)
class Route:
    """Where one transfer executes — and where its money ultimately lands.

    ``shard`` and ``issuer`` locate the replica group and the shard-local
    process that debits its account; ``destination_account`` is the account
    identifier the transfer credits *inside the source shard's ledger* (a
    local account for same-shard payments, an external settlement account —
    see :meth:`ShardRouter.external_account` — otherwise).  For cross-shard
    routes, ``destination_shard`` names the settlement leg: the shard whose
    replicas will mint the credit once the settlement relay delivers a quorum
    certificate for it.  Same-shard routes have ``destination_shard ==
    shard`` and no settlement leg.
    """

    shard: int
    issuer: ProcessId
    destination_account: AccountId
    cross_shard: bool
    destination_shard: int


def parse_external_account(account: AccountId) -> Optional[Tuple[int, AccountId]]:
    """Decode an external settlement account name back into its parts.

    Returns ``(destination_shard, remote_account)`` for names produced by
    :meth:`ShardRouter.external_account`, ``None`` for every other account.
    The settlement layer uses this to turn a validated cross-shard credit
    into a voucher for the right relay.
    """
    if not account.startswith("x"):
        return None
    head, separator, remote = account.partition(":")
    if not separator or not remote:
        return None
    try:
        shard = int(head[1:])
    except ValueError:
        return None
    if shard < 0:
        return None
    return shard, remote


class ShardRouter:
    """Hash-partitions users across ``shard_count`` independent shard groups.

    Each shard runs ``replicas_per_shard`` Figure 4 replicas, each owning one
    shard-local account (named ``str(pid)`` as in the single-shard system).
    A user maps to the shard ``stable_hash(user) % shard_count`` and, within
    it, to the issuing process ``stable_hash(user) % replicas_per_shard`` —
    so many simulated users multiplex onto each process-owned account, the
    way many customers share one bank branch.
    """

    def __init__(self, shard_count: int, replicas_per_shard: int = 4, salt: int = 0) -> None:
        if shard_count <= 0:
            raise ConfigurationError("shard_count must be positive")
        if replicas_per_shard < 4:
            raise ConfigurationError(
                "each shard runs a Byzantine broadcast group and needs >= 4 replicas"
            )
        self.shard_count = shard_count
        self.replicas_per_shard = replicas_per_shard
        self.salt = salt

    # -- the partition function ---------------------------------------------------------------

    def shard_of(self, user: UserId) -> int:
        """The shard group that owns ``user``'s account."""
        return stable_hash(user, self.salt) % self.shard_count

    def local_process_of(self, user: UserId) -> ProcessId:
        """The shard-local process whose account ``user`` multiplexes onto."""
        return stable_hash(user, self.salt + 1) % self.replicas_per_shard

    def local_account_of(self, user: UserId) -> AccountId:
        """The shard-local account that holds ``user``'s funds."""
        return str(self.local_process_of(user))

    def placement(self, user: UserId) -> Placement:
        """``(shard_of(user), local_process_of(user))``: the user's two hashes."""
        return (
            stable_hash(user, self.salt) % self.shard_count,
            stable_hash(user, self.salt + 1) % self.replicas_per_shard,
        )

    def external_account(self, shard: int, account: AccountId) -> AccountId:
        """The settlement account a remote shard's account appears under.

        Cross-shard payments debit the source shard normally and credit this
        account in the source shard's ledger, where it stays as the cumulative
        outbound record.  The settlement layer
        (:mod:`repro.cluster.settlement`) watches validations of these
        accounts, assembles a quorum certificate per credit and mints the
        matching spendable balance into the real account ``account`` at shard
        ``shard``; :func:`parse_external_account` is the inverse of this
        naming.
        """
        return f"x{shard}:{account}"

    # -- routing ------------------------------------------------------------------------------

    def resolve(
        self, source: Placement, destination: Placement
    ) -> Tuple[int, ProcessId, AccountId, int]:
        """``(shard, issuer, destination_account, destination_shard)`` of a
        payment between two placed users, hashing nothing.

        :meth:`route` is this on two fresh placements; a caller that routes
        many payments (``partition_submissions``) places each distinct user
        once and resolves every payment from those placements.
        """
        shard, issuer = source
        destination_shard, local = destination
        if destination_shard != shard:
            account = self.external_account(destination_shard, str(local))
            return shard, issuer, account, destination_shard
        if local == issuer:
            local = (local + 1) % self.replicas_per_shard
        return shard, issuer, str(local), shard

    def route(self, source_user: UserId, destination_user: UserId) -> Route:
        """Resolve one user-to-user payment to its executing shard.

        Transfers are routed by their *source* account (only the owner can
        debit it).  If source and destination collapse onto the same local
        account, the destination is deterministically bumped to the next
        local account so the transfer still moves money.
        """
        shard, issuer, account, destination_shard = self.resolve(
            self.placement(source_user), self.placement(destination_user)
        )
        return Route(
            shard=shard,
            issuer=issuer,
            destination_account=account,
            cross_shard=destination_shard != shard,
            destination_shard=destination_shard,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter(shards={self.shard_count}, "
            f"replicas={self.replicas_per_shard}, salt={self.salt})"
        )
