"""Byzantine fault model and adversarial behaviours.

The message-passing model of Section 5.1 distinguishes *crashed*, *malicious*
(together: *faulty*) and *benign*/*correct* processes.  This package provides

* :class:`~repro.byzantine.faults.FaultModel` — which processes are faulty,
  with what behaviour, and the ``f < N/3`` resilience arithmetic used by the
  quorum-based protocols, and
* :mod:`repro.byzantine.behaviors` — reusable adversarial strategies
  (silence, message dropping, delaying, equivocation planning) that the
  attack nodes in :mod:`repro.mp` and :mod:`repro.bft` compose.

The package re-exports nothing: import from the defining module.
"""
