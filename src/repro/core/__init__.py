"""The paper's core algorithms (Sections 3 and 4).

* :class:`~repro.core.snapshot_asset_transfer.SnapshotAssetTransfer` —
  Figure 1: asset transfer from an atomic snapshot (consensus number 1).
* :class:`~repro.core.atomic_asset_transfer.AtomicAssetTransferObject` —
  a linearizable asset-transfer base object used by the reductions.
* :class:`~repro.core.k_consensus.KConsensus` /
  :class:`~repro.core.k_consensus.KConsensusSeries` — k-consensus objects
  (consensus number k) used by Figure 3.
* :class:`~repro.core.consensus_from_asset_transfer.ConsensusFromAssetTransfer`
  — Figure 2: consensus among k processes from one k-shared asset-transfer
  object (the lower bound of Theorem 2).
* :class:`~repro.core.k_shared_asset_transfer.KSharedAssetTransfer` —
  Figure 3: k-shared asset transfer from k-consensus objects (the upper
  bound of Theorem 2).
* :mod:`repro.core.accounts` — the sequential reference ledger and the
  running-balance :class:`~repro.core.accounts.AccountBook` every Figure 4
  node keeps.

The package re-exports nothing: import from the defining module, so that a
Figure 4 run never loads the Figures 1–3 objects.
"""
