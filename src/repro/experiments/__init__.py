"""The experiments E1–E15, one row function each (``repro experiments``).

* :mod:`repro.experiments.registry` — ``EXPERIMENTS`` (id -> title and
  row function), the E16/E17 tests, and ``render``;
* :mod:`repro.experiments.placement` — the figures and scheduling
  claims (E1–E4, E9–E11, E13);
* :mod:`repro.experiments.runtime` — the runtime's claims (E5–E7, E12)
  and the straggler defense (E15);
* :mod:`repro.experiments.periphery` — real sockets (E8) and the DSM
  (E14).

Nothing imports this package but ``repro experiments`` and its tests.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "registry": ("EXPERIMENTS", "Experiment", "MEASURED_BY_TESTS", "render"),
})

__all__ = ["EXPERIMENTS", "Experiment", "MEASURED_BY_TESTS", "render"]
