"""Discrete-event simulation substrate for VDCE.

The paper's prototype ran on a campus network of workstations.  This
package replaces that testbed with a deterministic, virtual-time
discrete-event simulation: a :class:`~repro.sim.kernel.Simulator` event
kernel, generator-based processes, a resource model (hosts grouped into
sites), a latency/bandwidth network model, background-workload
generators, and failure injection.

Everything the VDCE scheduler and runtime observe on the real testbed —
execution times, transfer times, measured CPU loads, host failures — is
produced by this substrate with controllable ground truth, so every
experiment in EXPERIMENTS.md is exactly reproducible from a seed.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "kernel": (
        "AllOf", "AnyOf", "Interrupt", "Process", "Signal", "SimulationError",
        "Simulator", "Timeout",
    ),
    "host": ("Host", "HostSpec", "HostState", "TaskExecution"),
    "site": ("Group", "Site", "SiteSpec"),
    "network": ("Link", "LinkDownError", "LinkSpec", "Network"),
    "topology": ("Topology", "TopologyBuilder", "star_topology"),
    "workload": (
        "ConstantLoad", "DiurnalLoad", "LoadGenerator",
        "OrnsteinUhlenbeckLoad", "RandomWalkLoad", "SpikeLoad", "TraceLoad",
    ),
    "failures": ("FailureInjector", "FailureEvent"),
    "chaos": ("ChaosConfig", "ChaosReport", "run_campaign", "smoke_config"),
})

__all__ = [
    "AllOf",
    "AnyOf",
    "ChaosConfig",
    "ChaosReport",
    "ConstantLoad",
    "DiurnalLoad",
    "FailureEvent",
    "FailureInjector",
    "Group",
    "Host",
    "HostSpec",
    "HostState",
    "Interrupt",
    "Link",
    "LinkDownError",
    "LinkSpec",
    "LoadGenerator",
    "Network",
    "OrnsteinUhlenbeckLoad",
    "Process",
    "RandomWalkLoad",
    "Signal",
    "SimulationError",
    "Simulator",
    "Site",
    "SiteSpec",
    "SpikeLoad",
    "TaskExecution",
    "Timeout",
    "Topology",
    "TopologyBuilder",
    "TraceLoad",
    "run_campaign",
    "smoke_config",
    "star_topology",
]
