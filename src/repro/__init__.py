"""Reproduction of "The Consensus Number of a Cryptocurrency" (PODC 2019).

The library is organised in layers:

* :mod:`repro.common` — domain types (accounts, transfers, ownership maps),
  errors and seeded randomness.
* :mod:`repro.spec` — the sequential asset-transfer specification, history
  model and correctness checkers (linearizability, Definition 1).
* :mod:`repro.shared_memory` — registers, atomic snapshots and a cooperative
  scheduler for the crash-fault shared-memory model of Sections 2–4.
* :mod:`repro.core` — the paper's algorithms: Figure 1 (asset transfer from
  snapshots, consensus number 1), Figure 2 (consensus from k-shared asset
  transfer) and Figure 3 (k-shared asset transfer from k-consensus).
* :mod:`repro.network`, :mod:`repro.crypto`, :mod:`repro.byzantine`,
  :mod:`repro.broadcast` — the Byzantine message-passing substrate: a
  discrete-event simulator, simulated signatures, adversarial behaviours and
  secure/reliable broadcast primitives.
* :mod:`repro.mp` — the consensusless asset-transfer protocol of Figure 4 and
  its k-shared extension (Section 6).
* :mod:`repro.bft` — a PBFT-style consensus substrate and the consensus-based
  asset-transfer baseline the paper compares against.
* :mod:`repro.workloads`, :mod:`repro.eval` — workload generators, metrics and
  the experiment harness that regenerates the paper's quantitative claims.
"""

from repro.common import (
    AccountId,
    Amount,
    OwnershipMap,
    ProcessId,
    Transfer,
    TransferId,
)

__version__ = "0.4.0"

__all__ = [
    "AccountId",
    "Amount",
    "OwnershipMap",
    "ProcessId",
    "Transfer",
    "TransferId",
    "__version__",
]
