"""Consensus substrate: PBFT-style state-machine replication.

The paper compares its consensusless protocol against a consensus-based
asset-transfer system.  This package provides that comparator:

* :mod:`repro.bft.messages` — the PBFT wire messages,
* :mod:`repro.bft.smr` — the replicated ledger state machine executed once
  requests are totally ordered,
* :mod:`repro.bft.pbft` — normal-case PBFT (pre-prepare / prepare / commit,
  with batching) over the same network simulator,
* :mod:`repro.bft.consensus_transfer` — the baseline system façade mirroring
  :class:`repro.mp.system.ConsensuslessSystem`, and
* :mod:`repro.bft.sequencer` — the lightweight owner-quorum sequencing
  service used by the k-shared extension (Section 6).

The package re-exports nothing: import from the defining module.
"""
