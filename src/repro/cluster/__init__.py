"""Horizontal scaling of the consensusless protocol (the cluster layer).

Because single-owner asset transfer has consensus number 1 (the paper's
Theorem 1), transfers on different accounts commute: the object is
partitionable by account with **no cross-shard coordination protocol**.
This package deploys that observation:

* :mod:`repro.cluster.routing` — :class:`ShardRouter`, the stable
  hash-partition of users onto shard groups and shard-local accounts.
* :mod:`repro.cluster.shard` — :class:`Shard`, one independent Figure 4
  replica group (a :class:`repro.mp.system.ConsensuslessSystem`, batched
  when ``batch_size > 1``) on its own simulator clock.
* :mod:`repro.cluster.settlement` — the cross-shard settlement *lifecycle*
  (voucher -> certificate -> mint -> acknowledgement -> retirement), two
  legs of one quorum-acknowledged watermark broadcast run by one
  :class:`~repro.cluster.settlement.QuorumStream` type.  Each shard pair's :class:`SettlementRelay`
  holds two: ``vouchers`` assembles ``2f+1`` source-replica signatures into
  a certificate, which every destination replica's :class:`SettlementInbox`
  verifies and mints exactly once, making cross-shard money *spendable* at
  its destination; ``acks`` assembles ``2f+1`` destination acks of the
  stream watermark into a :class:`RetirementCertificate`, and the
  per-source-shard :class:`CompactionGate` retires the fully-acknowledged
  outbound records, keeping long-running ledgers compact.
* :mod:`repro.cluster.backends` — the execution backends:
  :class:`SerialBackend` and :class:`ProcessPoolBackend` advance per-shard
  simulators between the :class:`EpochScheduler`'s deterministic settlement
  barriers — one fixed grid, ``epoch`` apart — with bit-identical results on
  both.
* :mod:`repro.cluster.migration` — :class:`PlacementPlan` (which worker
  computes which shard) and the policies that move shards at barriers.  A
  shard is a deterministic function of its spec, its arrivals and the
  barrier commands it was sent, so a move evicts the shard's snapshot and
  replays it from genesis on the adopting worker, checked byte for byte
  against that snapshot.
* :mod:`repro.cluster.codec` — the worker pipe's framing (one pickle per
  frame) and the byte gauge every backend measures snapshots with.
* :mod:`repro.cluster.system` — :class:`ClusterSystem`, the façade that
  routes, drives, settles and audits the whole cluster.
* :mod:`repro.cluster.result` — :class:`ClusterResult` /
  :class:`ClusterCheckReport` / :class:`SupplyAudit`, the merged run and
  audit artefacts.

The matching workload driver lives in :mod:`repro.workloads.cluster_driver`.

The package re-exports nothing: import from the defining module.  Batching is
not a cluster concept — it is ``ConsensuslessTransferNode(batch_size=b)`` in
:mod:`repro.mp.consensusless_transfer` — so this layer only routes, drives,
settles and audits.
"""

