"""The VDCE Application Scheduler (paper §3) and baseline schedulers.

"The main function of the Application Scheduler module in VDCE is to
interpret the application flow graph and to assign the most suitable
available resources for running the application tasks in order to
minimize the schedule length (total execution time) in a transparent
manner."

Layout:

* :mod:`prediction` — ``Predict(task, R)``, the "core of the given
  built-in scheduling algorithms";
* :mod:`host_selection` — Figure 3's within-site algorithm;
* :mod:`site_scheduler` — Figure 2's federated algorithm (k nearest
  sites, AFG multicast, ready-set walk in level-priority order);
* :mod:`allocation` — the resource allocation table handed to the Site
  Manager, plus the forward-pass schedule estimate;
* :mod:`federation` — the scheduler's read-only view of a deployment;
* :mod:`baselines` — comparison schedulers (random, round-robin,
  min-min, max-min, HEFT, local-only, load-blind) for experiment E2.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "prediction": ("PredictionModel",),
    "allocation": (
        "AllocationTable", "ScheduleEstimate", "TaskAssignment",
        "estimate_schedule",
    ),
    "federation": ("FederationView",),
    "host_selection": ("HostSelectionResult", "select_hosts"),
    "site_scheduler": ("SiteScheduler", "SchedulingError"),
    "baselines": (
        "HEFTScheduler", "LoadBlindScheduler", "LocalOnlyScheduler",
        "MaxMinScheduler", "MinMinScheduler", "RandomScheduler",
        "RoundRobinScheduler",
    ),
})

__all__ = [
    "AllocationTable",
    "FederationView",
    "HEFTScheduler",
    "HostSelectionResult",
    "LoadBlindScheduler",
    "LocalOnlyScheduler",
    "MaxMinScheduler",
    "MinMinScheduler",
    "PredictionModel",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ScheduleEstimate",
    "SchedulingError",
    "SiteScheduler",
    "TaskAssignment",
    "estimate_schedule",
    "select_hosts",
]
