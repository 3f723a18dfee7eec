"""Shared-memory substrate for the crash-fault model of Sections 2–4.

The substrate has two halves:

* **Objects** — atomic read/write registers
  (:mod:`repro.shared_memory.register`), a linearizable atomic-snapshot
  object (:mod:`repro.shared_memory.atomic_snapshot`) and the Afek et al.
  wait-free snapshot construction built only from single-writer registers
  (:mod:`repro.shared_memory.afek_snapshot`).
* **Runtime** — a cooperative, generator-based scheduler
  (:mod:`repro.shared_memory.scheduler`) that interleaves process steps at
  shared-memory access points (:mod:`repro.shared_memory.access`), can
  follow adversarial or random schedules, and can crash processes at any
  step.  :mod:`repro.shared_memory.runtime` wires processes, objects and a
  history recorder together so that executed schedules can be checked for
  linearizability.

The package re-exports nothing: import from the defining module.
"""
