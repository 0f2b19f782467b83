"""Editor sessions: authenticated connections to a VDCE site.

Paper §2: the user "establishes a URL connection to the VDCE Server
software within the site (Site Manager) ... After user authentication,
the Application Editor is loaded".  A session therefore carries the
authenticated account and the site it talks to, owns application
builders, and forwards submissions to the runtime with the account's
priority attached.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.afg.graph import ApplicationFlowGraph
from repro.editor.builder import AFGBuilder
from repro.repository.users import AccessDomain, UserAccount
from repro.runtime.execution import ApplicationResult
from repro.runtime.vdce_runtime import VDCERuntime
from repro.scheduler.site_scheduler import SiteScheduler

__all__ = ["CAMPUS_MAX_K", "EditorSession", "SessionError"]

_session_counter = itertools.count(1)

#: how many nearest-neighbour sites a CAMPUS-domain account may reach
CAMPUS_MAX_K = 2


class SessionError(RuntimeError):
    """Session-level misuse (closed session, unknown application, ...)."""


class EditorSession:
    """One user's editor connection to one site."""

    def __init__(
        self,
        runtime: VDCERuntime,
        site: str,
        user: str,
        password: str,
    ):
        if site not in runtime.repositories:
            raise SessionError(f"unknown site {site!r}")
        # paper §2: authentication precedes loading the editor
        self.account: UserAccount = runtime.repositories[site].users.authenticate(
            user, password
        )
        self.runtime = runtime
        self.site = site
        self.session_id = f"sess-{next(_session_counter)}"
        self._builders: Dict[str, AFGBuilder] = {}
        self._imported: Dict[str, ApplicationFlowGraph] = {}
        self._results: Dict[str, ApplicationResult] = {}
        self._open = True

    # -- editor surface -----------------------------------------------------

    def libraries(self) -> Dict[str, List[Dict[str, object]]]:
        """The menu-driven task libraries, grouped by functionality."""
        self._check_open()
        registry = self.runtime.registry
        menu: Dict[str, List[Dict[str, object]]] = {}
        for library in registry.libraries():
            menu[library] = [
                {
                    "name": sig.qualified_name,
                    "inputs": sig.n_in_ports,
                    "outputs": sig.n_out_ports,
                    "parallelizable": sig.parallelizable,
                    "description": sig.description,
                }
                for sig in registry.library_entries(library)
            ]
        return menu

    def new_application(self, name: str) -> AFGBuilder:
        self._check_open()
        if name in self._builders:
            raise SessionError(f"application {name!r} already exists")
        builder = AFGBuilder(name, registry=self.runtime.registry)
        self._builders[name] = builder
        return builder

    def import_application(self, data) -> ApplicationFlowGraph:
        """Load a serialised AFG (the editor's open-file operation).

        ``data`` is the dict produced by
        :func:`repro.afg.serialize.afg_to_dict` (or a JSON string).
        The graph is validated against this deployment's registry and
        becomes submittable under its own name.
        """
        self._check_open()
        from repro.afg.serialize import afg_from_dict, afg_from_json
        from repro.afg.validate import validate_afg

        afg = afg_from_json(data) if isinstance(data, str) else afg_from_dict(data)
        if afg.name in self._imported:
            raise SessionError(f"application {afg.name!r} already imported")
        validate_afg(afg, registry=self.runtime.registry)
        self._imported[afg.name] = afg
        return afg

    def imported(self, name: str) -> ApplicationFlowGraph:
        try:
            return self._imported[name]
        except KeyError:
            raise SessionError(f"no imported application {name!r}") from None

    def application(self, name: str) -> AFGBuilder:
        self._check_open()
        try:
            return self._builders[name]
        except KeyError:
            raise SessionError(f"unknown application {name!r}") from None

    def applications(self) -> List[str]:
        return sorted(self._builders)

    # -- submission ---------------------------------------------------------------

    def effective_k(self, requested_k: int) -> int:
        """Clamp the federation reach by the account's access domain.

        The user-accounts 5-tuple carries an "access domain type" (§3):
        LOCAL accounts schedule on their own site only, CAMPUS accounts
        may reach the :data:`CAMPUS_MAX_K` nearest neighbours, GLOBAL
        accounts are unrestricted.
        """
        if requested_k < 0:
            raise ValueError("k must be non-negative")
        domain = self.account.access_domain
        if domain is AccessDomain.LOCAL:
            return 0
        if domain is AccessDomain.CAMPUS:
            return min(requested_k, CAMPUS_MAX_K)
        return requested_k

    def submit(
        self,
        name_or_afg,
        k: int = 2,
        execute_payloads: bool = True,
        admission=None,
        deadline_s: Optional[float] = None,
        ttl_s: Optional[float] = None,
    ) -> ApplicationResult:
        """Build (if needed), schedule and execute an application.

        ``k`` is a request; the account's access domain caps it (see
        :meth:`effective_k`).  With ``admission`` (an
        :class:`~repro.runtime.admission.AdmissionQueue`), the
        submission goes through bounded admission under this account's
        priority — it may raise
        :class:`~repro.runtime.admission.AdmissionRejected` /
        :class:`~repro.runtime.admission.AdmissionExpired` instead of
        returning a result.  ``deadline_s``/``ttl_s`` only apply there.
        """
        self._check_open()
        if isinstance(name_or_afg, ApplicationFlowGraph):
            afg = name_or_afg
        elif name_or_afg in self._imported:
            afg = self._imported[name_or_afg]
        else:
            afg = self.application(name_or_afg).build()
        scheduler = SiteScheduler(k=self.effective_k(k), model=self.runtime.model)
        if admission is not None:
            signal = admission.submit(
                afg, self.account.user_name,
                scheduler=scheduler,
                execute_payloads=execute_payloads,
                deadline_s=deadline_s, ttl_s=ttl_s,
            )

            def waiter():
                value = yield signal
                return value

            result = self.runtime.sim.run_until_complete(
                self.runtime.sim.process(
                    waiter(), name=f"editor-submit:{afg.name}"
                )
            )
        else:
            result = self.runtime.submit(
                afg,
                scheduler,
                submit_site=self.site,
                execute_payloads=execute_payloads,
            )
        self._results[afg.name] = result
        return result

    def result(self, name: str) -> ApplicationResult:
        try:
            return self._results[name]
        except KeyError:
            raise SessionError(f"no result for application {name!r}") from None

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        self._open = False

    @property
    def is_open(self) -> bool:
        return self._open

    def _check_open(self) -> None:
        if not self._open:
            raise SessionError(f"session {self.session_id} is closed")
