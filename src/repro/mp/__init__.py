"""Message-passing asset transfer (Sections 5 and 6).

* :mod:`repro.mp.consensusless_transfer` — the Figure 4 protocol node;
  ``batch_size`` puts up to that many of one issuer's transfers on one
  secure-broadcast instance (1, the paper's protocol, is the default).
* :mod:`repro.mp.system` — the simulated-deployment façade and result types;
  the cluster layer builds every shard's replica group through it.
* :mod:`repro.mp.messages` — the announcements Figure 4 broadcasts, one at a
  time or as a batch.
* :mod:`repro.mp.attackers` — Byzantine nodes (double-spender, silent node).
* :mod:`repro.mp.k_shared` — the Section 6 k-shared extension and its system
  façade.

The package re-exports nothing: import from the defining module, so that a
Figure 4 run never loads the k-shared extension or the consensus it needs.
"""
