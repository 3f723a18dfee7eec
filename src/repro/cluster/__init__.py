"""Horizontal scaling of the consensusless protocol (the cluster layer).

Because single-owner asset transfer has consensus number 1 (the paper's
Theorem 1), transfers on different accounts commute: the object is
partitionable by account with **no cross-shard coordination protocol**.
This package deploys that observation:

* :mod:`repro.cluster.routing` — :class:`ShardRouter`, the stable
  hash-partition of users onto shard groups and shard-local accounts.
* :mod:`repro.cluster.batching` — :class:`BatchAnnouncement` and
  :class:`BatchingTransferNode`, which coalesce per-source transfers into
  one secure-broadcast instance, amortising signature and quorum cost.
* :mod:`repro.cluster.shard` — :class:`Shard`, one independent Figure 4
  replica group on its own simulator clock.
* :mod:`repro.cluster.settlement` — the cross-shard settlement *lifecycle*
  (voucher -> certificate -> mint -> acknowledgement -> retirement):
  :class:`SettlementRelay` per shard pair assembles ``2f+1`` source-replica
  voucher signatures into a certificate; :class:`SettlementInbox` per
  destination replica verifies and mints the credit exactly once, making
  cross-shard money *spendable* at its destination, then acknowledges the
  stream watermark; the relay's return leg assembles ``2f+1`` acks into a
  :class:`RetirementCertificate` and the per-source-shard
  :class:`CompactionGate` retires the fully-acknowledged outbound records,
  keeping long-running ledgers compact.
* :mod:`repro.cluster.backends` — the parallel execution backends:
  :class:`SerialBackend`, :class:`ThreadBackend` and
  :class:`ProcessPoolBackend` advance per-shard simulators between the
  :class:`EpochScheduler`'s deterministic settlement barriers — spaced by an
  :class:`EpochPolicy` (fixed grid or volume-adaptive) — with bit-identical
  results across all three.
* :mod:`repro.cluster.system` — :class:`ClusterSystem`, the façade that
  routes, drives, settles and audits the whole cluster.
* :mod:`repro.cluster.result` — :class:`ClusterResult` /
  :class:`ClusterCheckReport` / :class:`SupplyAudit`, the merged run and
  audit artefacts.

The matching workload driver lives in :mod:`repro.workloads.cluster_driver`.
"""

from repro.cluster.batching import BatchAnnouncement, BatchingTransferNode
from repro.cluster.result import ClusterCheckReport, ClusterResult, SupplyAudit
from repro.cluster.routing import Route, ShardRouter, parse_external_account, stable_hash
from repro.cluster.settlement import (
    CompactionGate,
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementConfig,
    SettlementFabric,
    SettlementInbox,
    SettlementRelay,
    SettlementVoucher,
    is_settlement_account,
    settlement_account,
)
from repro.cluster.shard import AdvanceReport, Shard, ShardSnapshot, ShardSpec, ValidationEvent
from repro.cluster.migration import (
    MigrationPlan,
    MigrationPolicy,
    MigrationRecord,
    Move,
    PlacementPlan,
    ShardLoad,
    ThresholdMigrationPolicy,
    rebalance_moves,
)
from repro.cluster.backends import (
    BACKEND_NAMES,
    AdaptiveEpochPolicy,
    EpochPolicy,
    EpochScheduler,
    ExecutionBackend,
    FixedEpochPolicy,
    LatencyTargetEpochPolicy,
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.cluster.system import ClusterSystem

__all__ = [
    "AdaptiveEpochPolicy",
    "AdvanceReport",
    "BACKEND_NAMES",
    "BatchAnnouncement",
    "BatchingTransferNode",
    "ClusterCheckReport",
    "ClusterResult",
    "ClusterSystem",
    "CompactionGate",
    "EpochPolicy",
    "EpochScheduler",
    "ExecutionBackend",
    "FixedEpochPolicy",
    "LatencyTargetEpochPolicy",
    "MigrationPlan",
    "MigrationPolicy",
    "MigrationRecord",
    "Move",
    "PlacementPlan",
    "ProcessPoolBackend",
    "ShardLoad",
    "ThresholdMigrationPolicy",
    "rebalance_moves",
    "RetirementCertificate",
    "SerialBackend",
    "ShardSnapshot",
    "ShardSpec",
    "ThreadBackend",
    "ValidationEvent",
    "make_backend",
    "Route",
    "SettlementAck",
    "SettlementAckClaim",
    "SettlementCertificate",
    "SettlementClaim",
    "SettlementConfig",
    "SettlementFabric",
    "SettlementInbox",
    "SettlementRelay",
    "SettlementVoucher",
    "Shard",
    "ShardRouter",
    "SupplyAudit",
    "is_settlement_account",
    "parse_external_account",
    "settlement_account",
    "stable_hash",
]
