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

from repro.runtime.stats import RuntimeStats
from repro.runtime.monitor import MonitorDaemon
from repro.runtime.group_manager import GroupManager
from repro.runtime.site_manager import SiteManager
from repro.runtime.app_controller import AppController
from repro.runtime.execution import (
    ApplicationResult,
    ExecutionCoordinator,
    ExecutionError,
    TaskRecord,
)
from repro.runtime.services import ConsoleService, IOService, StagedFile
from repro.runtime.vdce_runtime import RuntimeConfig, VDCERuntime
from repro.runtime.dsm import DSM, DSMError
from repro.runtime.admission import (
    AdmissionExpired,
    AdmissionPolicy,
    AdmissionQueue,
    AdmissionRejected,
)
from repro.runtime.overload import BrownoutController, SiteOverloaded
from repro.runtime.data_manager import LocalDataManager, RealExecutionReport
from repro.runtime.straggler import (
    HealthPolicy,
    HostHealth,
    PhiAccrualDetector,
    RatioTracker,
    SpeculationPolicy,
)

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
    "HealthPolicy",
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
