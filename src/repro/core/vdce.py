"""VDCE: the Virtual Distributed Computing Environment, in one object."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import DeploymentSpec, SiteConfig
from repro.editor.session import EditorSession
from repro.metrics.export import (
    prometheus_text,
    registry_snapshot,
    save_snapshot,
    snapshot_hash,
)
from repro.metrics.registry import MetricsRegistry, NULL_METRICS
from repro.repository.store import SiteRepository
from repro.repository.users import AccessDomain
from repro.runtime.execution import ApplicationResult
from repro.runtime.vdce_runtime import RuntimeConfig, VDCERuntime
from repro.scheduler.prediction import PredictionModel
from repro.scheduler.site_scheduler import SiteScheduler
from repro.sim.topology import Topology
from repro.tasklib.registry import TaskRegistry, default_registry
from repro.trace.serialize import trace_hash, write_jsonl
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.viz.gantt import gantt

__all__ = ["VDCE"]


class VDCE:
    """A running Virtual Distributed Computing Environment.

    Construct from a :class:`~repro.core.config.DeploymentSpec` (or use
    :meth:`standard` for a quick uniform federation), then:

    * :meth:`add_user` / :meth:`open_editor` — accounts and editor
      sessions (paper §2);
    * :meth:`submit` — schedule + execute an AFG (paper §§3-4);
    * :meth:`start_monitoring` / :meth:`advance` — run the control
      plane (paper §4.1);
    * :meth:`gantt` — the visualisation service (paper §4.2).
    """

    def __init__(
        self,
        spec: Optional[DeploymentSpec] = None,
        topology: Optional[Topology] = None,
        registry: Optional[TaskRegistry] = None,
        runtime_config: RuntimeConfig = RuntimeConfig(),
        model: Optional[PredictionModel] = None,
        default_site: Optional[str] = None,
        repositories=None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """``repositories`` (optional): pre-built/restored per-site
        repositories — e.g. from :meth:`load_repositories` — instead of
        bootstrapping fresh ones.  ``tracer`` (optional): a
        :class:`~repro.trace.tracer.Tracer` shared by every component;
        the default no-op tracer records nothing.  ``metrics``
        (optional): a :class:`~repro.metrics.registry.MetricsRegistry`
        shared the same way; the default no-op registry records
        nothing."""
        if (spec is None) == (topology is None):
            raise ValueError("provide exactly one of spec or topology")
        self.spec = spec
        self.topology = topology if topology is not None else spec.build_topology()
        self.registry = registry or default_registry()
        self.runtime = VDCERuntime(
            self.topology,
            repositories=repositories,
            registry=self.registry,
            config=runtime_config,
            model=model,
            default_site=default_site,
            tracer=tracer,
            metrics=metrics,
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def standard(
        cls,
        n_sites: int = 2,
        hosts_per_site: int = 4,
        speed: float = 1.0,
        seed: int = 0,
        **kwargs,
    ) -> "VDCE":
        """A uniform federation: ``n_sites`` sites of identical hosts."""
        spec = DeploymentSpec(
            sites=tuple(
                SiteConfig(name=f"site-{i}", n_hosts=hosts_per_site, speed=speed)
                for i in range(n_sites)
            ),
            seed=seed,
        )
        return cls(spec=spec, **kwargs)

    # -- convenience accessors ----------------------------------------------------

    @property
    def sim(self):
        return self.topology.sim

    @property
    def sites(self) -> List[str]:
        return self.topology.site_names

    def repository(self, site: Optional[str] = None) -> SiteRepository:
        return self.runtime.repositories[site or self.runtime.default_site]

    # -- accounts & editor (paper §2) ------------------------------------------------

    def add_user(
        self,
        user: str,
        password: str,
        priority: int = 1,
        access_domain: AccessDomain = AccessDomain.GLOBAL,
        sites: Optional[List[str]] = None,
    ) -> None:
        """Create an account at the given sites (default: all sites)."""
        for site in sites or self.sites:
            self.runtime.repositories[site].users.add_user(
                user, password, priority=priority, access_domain=access_domain
            )

    def open_editor(
        self,
        user: str = "admin",
        password: str = "vdce-admin",
        site: Optional[str] = None,
    ) -> EditorSession:
        return EditorSession(
            self.runtime, site or self.runtime.default_site, user, password
        )

    # -- scheduling + execution (paper §§3-4) -------------------------------------------

    def submit(
        self,
        afg,
        k: int = 2,
        site: Optional[str] = None,
        execute_payloads: bool = True,
        scheduler: Optional[SiteScheduler] = None,
        journal=None,
    ) -> ApplicationResult:
        scheduler = scheduler or SiteScheduler(k=k, model=self.runtime.model)
        return self.runtime.submit(
            afg,
            scheduler,
            submit_site=site,
            execute_payloads=execute_payloads,
            journal=journal,
        )

    # -- control plane (paper §4.1) ------------------------------------------------------

    def start_monitoring(self) -> None:
        self.runtime.start_monitoring()

    def advance(self, seconds: float) -> float:
        """Run the simulation forward (monitoring, workload dynamics...)."""
        if not (0 < seconds < float("inf")):
            raise ValueError("seconds must be positive and finite")
        return self.sim.run(until=self.sim.now + seconds)

    # -- durable state --------------------------------------------------------

    def save_repositories(self, directory: str) -> List[str]:
        """Snapshot every site's repository to ``<dir>/<site>.json``.

        Returns the written paths.  Use :meth:`load_repositories` with a
        freshly built topology to resume a deployment's durable state
        (accounts, calibrations, constraints, last known host states).
        """
        import os

        from repro.repository.persistence import save_repository

        os.makedirs(directory, exist_ok=True)
        paths = []
        for site, repo in sorted(self.runtime.repositories.items()):
            path = os.path.join(directory, f"{site}.json")
            save_repository(repo, path)
            paths.append(path)
        return paths

    @staticmethod
    def load_repositories(directory: str) -> Dict[str, SiteRepository]:
        """Load the snapshots written by :meth:`save_repositories`."""
        import os

        from repro.repository.persistence import load_repository

        repositories: Dict[str, SiteRepository] = {}
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".json"):
                repo = load_repository(os.path.join(directory, entry))
                repositories[repo.site_name] = repo
        if not repositories:
            raise FileNotFoundError(
                f"no repository snapshots (*.json) in {directory!r}"
            )
        return repositories

    # -- services (paper §4.2) --------------------------------------------------------------

    def gantt(self, result: ApplicationResult, width: int = 72) -> str:
        return gantt(result, width=width)

    def stats(self) -> Dict[str, float]:
        return self.runtime.stats.as_dict()

    # -- observability ---------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self.runtime.tracer

    def save_trace(self, path: str) -> str:
        """Write the recorded trace as JSONL; returns the path."""
        return write_jsonl(self.tracer, path)

    def trace_hash(self) -> str:
        """Stable content hash of the recorded trace (regression oracle)."""
        return trace_hash(self.tracer)

    @property
    def metrics(self) -> MetricsRegistry:
        return self.runtime.metrics

    def metrics_snapshot(self) -> dict:
        """Export end-of-run stats into the registry and snapshot it."""
        return registry_snapshot(self.runtime.export_metrics())

    def save_metrics(self, path: str) -> str:
        """Write the metrics snapshot as canonical JSON; returns the path."""
        save_snapshot(self.runtime.export_metrics(), path)
        return path

    def metrics_hash(self) -> str:
        """Stable content hash of the snapshot (trace_hash's counterpart)."""
        return snapshot_hash(self.metrics_snapshot())

    def prometheus_metrics(self) -> str:
        """The registry in Prometheus text exposition format."""
        return prometheus_text(self.runtime.export_metrics())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VDCE(sites={self.sites}, hosts={len(self.topology.all_hosts)}, "
            f"t={self.sim.now:.2f})"
        )
