"""Secure and reliable broadcast primitives (Sections 5.2 and 6).

* :class:`~repro.broadcast.secure_broadcast.BroadcastLayer` — the abstract
  secure-broadcast interface (integrity, agreement, validity, source order).
* :class:`~repro.broadcast.bracha.BrachaBroadcast` — the quadratic
  echo/ready reliable broadcast the paper's deployment used.
* :class:`~repro.broadcast.echo_broadcast.EchoBroadcast` — Malkhi–Reiter
  signed echo broadcast with quorum certificates.
* :class:`~repro.broadcast.account_order_broadcast.AccountOrderBroadcast` —
  the Section 6 variant enforcing per-account delivery order.
* :mod:`repro.broadcast.messages` — the wire messages of all of them.

The package re-exports nothing: import from the defining module, so that
Figure 4 never loads the Section 6 variant and the sequencer it rests on.
"""
