"""Evaluation harness: metrics, experiments and paper-style reporting.

* :mod:`repro.eval.experiments` — the paper's experiments, one audited
  cluster run (:func:`~repro.eval.experiments.run_cluster`) and the
  telemetry breakdown.
* :mod:`repro.eval.metrics` — latency statistics and run summaries.
* :mod:`repro.eval.reporting` — the plain-text tables the examples print.

The package re-exports nothing: import from the defining module.
"""
