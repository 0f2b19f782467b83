"""Task-constraints database: where each task's executable lives.

Paper §3: "A task constraints database is used to store the location
information of each task (i.e., the absolute path of the task
executable) for each host."

The host-selection algorithm may only place a task on hosts that have
an executable registered; this is how heterogeneous sites (different
arch/OS per host) constrain placement.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.repository.resources import RegistrationSyncError

__all__ = ["TaskConstraintsDB"]


class TaskConstraintsDB:
    """(task_type, host) -> absolute executable path."""

    def __init__(self, site_name: str):
        self.site_name = site_name
        self._paths: Dict[Tuple[str, str], str] = {}
        #: bumped on any registration change (the host index watches it)
        self.version = 0
        #: optional guard wired by the site repository: called with a
        #: host name, True means the host is still *actively* registered
        #: in the resource DB (removing its constraints then would leave
        #: the two databases silently diverged)
        self._registration_check: Optional[Callable[[str], bool]] = None

    def register(self, task_type: str, host: str, path: str) -> None:
        if not path.startswith("/"):
            raise ValueError(
                f"executable path must be absolute, got {path!r}"
            )
        key = (task_type, host)
        if key in self._paths:
            raise ValueError(
                f"executable for {task_type!r} on {host!r} already registered"
            )
        self._paths[key] = path
        self.version += 1

    def install_everywhere(
        self, task_types: Iterable[str], hosts: Iterable[str],
        prefix: str = "/usr/local/vdce/tasks",
    ) -> int:
        """Bring-up helper: register every task on every host.

        Returns the number of (task, host) pairs added.  Pairs already
        registered are skipped so per-host overrides survive.
        """
        count = 0
        host_list = list(hosts)
        for task_type in task_types:
            for host in host_list:
                if (task_type, host) in self._paths:
                    continue
                self.register(task_type, host, f"{prefix}/{task_type}/bin")
                count += 1
        return count

    def executable_path(self, task_type: str, host: str) -> str:
        try:
            return self._paths[(task_type, host)]
        except KeyError:
            raise KeyError(
                f"no executable for {task_type!r} on host {host!r} "
                f"(site {self.site_name!r})"
            ) from None

    def is_runnable(self, task_type: str, host: str) -> bool:
        return (task_type, host) in self._paths

    def remove_host(self, host: str, deregistering: bool = False) -> int:
        """Drop all registrations for a decommissioned host.

        Raises :class:`~repro.repository.resources.RegistrationSyncError`
        when the host is still actively registered in the resource DB
        (per the wired registration check) — except with
        ``deregistering=True``, the flag the site repository's symmetric
        ``deregister_host`` sets while it removes both sides atomically.
        """
        if (
            not deregistering
            and self._registration_check is not None
            and self._registration_check(host)
        ):
            raise RegistrationSyncError(
                f"cannot remove constraints for {host!r}: it is still "
                f"actively registered in the resource DB of site "
                f"{self.site_name!r}"
            )
        doomed = [key for key in self._paths if key[1] == host]
        for key in doomed:
            del self._paths[key]
        if doomed:
            self.version += 1
        return len(doomed)

    def references_host(self, host: str) -> bool:
        """True when any (task, host) registration names ``host``."""
        return any(key[1] == host for key in self._paths)

    def set_registration_check(self, check: Callable[[str], bool]) -> None:
        self._registration_check = check

    def __len__(self) -> int:
        return len(self._paths)
