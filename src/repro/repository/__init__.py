"""Site repositories — the four per-site databases of paper §3.

"Each site has a site repository for storing user-accounts information,
task and resource parameters that are used by the scheduler."  The four
databases are:

* :class:`~repro.repository.users.UserAccountsDB` — authentication
  (5-tuple: user name, password, user ID, priority, access domain);
* :class:`~repro.repository.resources.ResourcePerformanceDB` — host
  attributes plus recent workload measurements and up/down status
  (maintained by the Resource Controller; the scheduler reads network
  parameters from the network model);
* :class:`~repro.repository.taskperf.TaskPerformanceDB` — per-task
  performance characteristics used by prediction, refined with measured
  execution times after each run;
* :class:`~repro.repository.constraints.TaskConstraintsDB` — where each
  task's executable lives on each host.

:class:`~repro.repository.store.SiteRepository` bundles the four.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "users": (
        "AccessDomain", "AuthenticationError", "UnknownUserError",
        "UserAccount", "UserAccountsDB",
    ),
    "resources": ("HostRecord", "ResourcePerformanceDB"),
    "taskperf": ("TaskPerfRecord", "TaskPerformanceDB"),
    "constraints": ("TaskConstraintsDB",),
    "store": ("SiteRepository",),
    "persistence": (
        "load_repository", "restore_repository", "save_repository",
        "snapshot_repository",
    ),
})

__all__ = [
    "AccessDomain",
    "AuthenticationError",
    "HostRecord",
    "ResourcePerformanceDB",
    "SiteRepository",
    "TaskConstraintsDB",
    "TaskPerfRecord",
    "TaskPerformanceDB",
    "UnknownUserError",
    "UserAccount",
    "UserAccountsDB",
    "load_repository",
    "restore_repository",
    "save_repository",
    "snapshot_repository",
]
