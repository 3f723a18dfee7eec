"""Sequential specifications, histories and correctness checkers.

This package is the formal backbone of the reproduction.  It provides:

* :mod:`repro.spec.object_type` — the sequential object type formalism
  ``(Q, q0, O, R, Δ)`` of Section 2.1,
* :mod:`repro.spec.asset_transfer_spec` — the asset-transfer type of
  Section 2.2 expressed in that formalism,
* :mod:`repro.spec.history` — invocation/response histories, completions and
  the real-time precedence order,
* :mod:`repro.spec.linearizability` — a Wing–Gong style linearizability
  checker used to validate the shared-memory algorithms of Sections 3–4, and
* :mod:`repro.spec.byzantine_spec` — the relaxed correctness condition
  (Definition 1, Section 5.1) used to validate the message-passing protocol.

The package re-exports nothing: import from the defining module.
"""
