"""The wavefront AFG: the generator of ``examples/applications/
wavefront_6x6.json`` and of the tests that need a grid-shaped graph.

Nothing in the program builds a wavefront; the saved example is
imported like any other saved application, and this is the oracle the
saved file is checked against.
"""

from repro.afg.graph import ApplicationFlowGraph
from repro.workloads.pipelines import _compute, _source


def wavefront(n: int = 4, cost: float = 2.0,
              edge_mb: float = 1.0) -> ApplicationFlowGraph:
    """An n x n wavefront (Smith-Waterman/stencil) dependency grid.

    Cell (i, j) depends on (i-1, j) and (i, j-1); the anti-diagonal
    frontier widens then narrows, which exercises schedulers on
    *changing* available parallelism — neither a chain nor a bag.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    afg = ApplicationFlowGraph(f"wavefront-{n}x{n}")

    def cell(i: int, j: int) -> str:
        return f"c{i:02d}_{j:02d}"

    for i in range(n):
        for j in range(n):
            parents = int(i > 0) + int(j > 0)
            if parents == 0:
                afg.add_task(_source(cell(i, j), cost))
            else:
                afg.add_task(_compute(cell(i, j), cost, n_in=parents))
    for i in range(n):
        for j in range(n):
            port = 0
            if i > 0:
                afg.connect(cell(i - 1, j), cell(i, j), dst_port=port,
                            size_mb=edge_mb)
                port += 1
            if j > 0:
                afg.connect(cell(i, j - 1), cell(i, j), dst_port=port,
                            size_mb=edge_mb)
    return afg
