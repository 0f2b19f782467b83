"""Application/workload generators for examples and experiments.

* :mod:`linear_solver` — the paper's Figure 1 application (both the
  figure-faithful AFG and a fully computational variant);
* :mod:`c3i_apps` — C3I surveillance pipelines over the C3I library;
* :mod:`random_dag` — parameterised layered random DAGs (task count,
  width, fan-in, cost heterogeneity, communication volume) for the
  scheduling experiments;
* :mod:`pipelines` — structured shapes: linear pipelines, fork-join,
  reduction trees, embarrassingly parallel bags.
"""

from repro import _lazy_exports
# eager: the function ``random_dag`` shares its submodule's name, and
# the first import of that submodule would rebind the package
# attribute to the module
from repro.workloads.random_dag import RandomDAGConfig, random_dag

__getattr__, __dir__ = _lazy_exports(globals(), {
    "linear_solver": ("figure1_afg", "linear_solver_afg"),
    "c3i_apps": ("surveillance_afg",),
    "pipelines": (
        "bag_of_tasks", "fork_join", "linear_pipeline", "reduction_tree",
        "wavefront",
    ),
})

__all__ = [
    "RandomDAGConfig",
    "bag_of_tasks",
    "figure1_afg",
    "fork_join",
    "linear_pipeline",
    "linear_solver_afg",
    "random_dag",
    "reduction_tree",
    "surveillance_afg",
    "wavefront",
]
