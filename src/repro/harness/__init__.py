"""Shared kernel of the adversarial harnesses.

Torture (``repro.torture``), workload torture (``repro.workloads``),
service chaos (``repro.service.chaos``), replication chaos
(``repro.replication``) and the differential fuzzer (``repro.difftest``)
each keep only their flags, driver, oracle and summary lines.  What they
have in common lives here:

* :mod:`repro.harness.kernel` — shared flags, result digest, trace
  files, replay, minimize-then-double-replay and the ``--sabotage`` exit
  contract, parameterized by one ``Harness`` record;
* :mod:`repro.harness.minimize` — one pass-based minimizer;
* :mod:`repro.harness.crash` — crash-point profiling and sweeping;
* :mod:`repro.harness.streams` — seeded per-session transaction streams.
"""
