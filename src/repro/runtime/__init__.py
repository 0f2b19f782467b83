"""The VDCE Runtime System (paper §4).

"The VDCE Runtime System separates control and data functions by
allocating them to the Control Manager and Data Manager, respectively."

Control plane (§4.1):

* :class:`~repro.runtime.monitor.MonitorDaemon` — per-host load/memory
  measurement on a period;
* :class:`~repro.runtime.group_manager.GroupManager` — per-group
  significant-change filtering of workload reports + echo-packet
  failure detection;
* :class:`~repro.runtime.site_manager.SiteManager` — repository
  updates, allocation-table multicast, inter-site coordination,
  post-execution task-performance refinement;
* :class:`~repro.runtime.app_controller.AppController` — execution
  environment setup and load-threshold task rescheduling.

Data plane (§4.2):

* :class:`~repro.runtime.execution.ExecutionCoordinator` — the
  simulated Data Manager protocol: channel setup, acknowledgements,
  the execution startup signal, inter-task transfers, and task
  (re)execution (:mod:`repro.runtime.execution`);
* the real-socket Data Manager lives in :mod:`repro.net` /
  :mod:`repro.runtime.data_manager`.

User services (§4.2): :mod:`repro.runtime.services` (I/O, console,
visualisation).  :class:`~repro.runtime.vdce_runtime.VDCERuntime` wires
a whole deployment together.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "stats": ("RuntimeStats",),
    "monitor": ("MonitorDaemon",),
    "group_manager": ("GroupManager",),
    "site_manager": ("SiteManager",),
    "app_controller": ("AppController",),
    "execution": (
        "ApplicationResult", "ExecutionCoordinator", "ExecutionError",
        "TaskRecord",
    ),
    "services": ("ConsoleService", "IOService", "StagedFile"),
    "vdce_runtime": ("RuntimeConfig", "VDCERuntime"),
    "dsm": ("DSM", "DSMError"),
    "admission": (
        "AdmissionExpired", "AdmissionPolicy", "AdmissionQueue",
        "AdmissionRejected",
    ),
    "overload": ("BrownoutController", "SiteOverloaded"),
    "data_manager": ("LocalDataManager", "RealExecutionReport"),
    "straggler": (
        "HostHealth", "PhiAccrualDetector", "RatioTracker",
        "SpeculationPolicy",
    ),
})

__all__ = [
    "AdmissionExpired",
    "AdmissionPolicy",
    "AdmissionQueue",
    "AdmissionRejected",
    "AppController",
    "ApplicationResult",
    "BrownoutController",
    "ConsoleService",
    "DSM",
    "DSMError",
    "ExecutionCoordinator",
    "ExecutionError",
    "GroupManager",
    "HostHealth",
    "IOService",
    "LocalDataManager",
    "MonitorDaemon",
    "PhiAccrualDetector",
    "RatioTracker",
    "RealExecutionReport",
    "RuntimeConfig",
    "RuntimeStats",
    "SiteManager",
    "SiteOverloaded",
    "SpeculationPolicy",
    "StagedFile",
    "TaskRecord",
    "VDCERuntime",
]
